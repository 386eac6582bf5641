//! Closed-loop load for the verdict service: `sites` clients, each
//! submitting its next job only after its previous one came back.
//! A site walks its jobs in passes of `pass_len` (on the line, one DUT
//! retuned through every standard); a pass's time runs from its first
//! submit to its last collect.
//!
//! With `probe` set, every submitted stimulus is wrapped so that the
//! instant a worker first samples it is recorded. That splits each
//! job's latency, from outside the service, into queue wait (submit →
//! first capture sample) and service time (first sample → outcome
//! collected).

use crate::util::{median, percentile};
use rfbist_core::error::BistError;
use rfbist_core::report::BistReport;
use rfbist_core::service::{SharedSignal, VerdictJob, VerdictService};
use rfbist_signal::traits::ContinuousSignal;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A stimulus that records when it is first evaluated.
struct Probe {
    inner: SharedSignal,
    first_eval: OnceLock<Instant>,
}

impl ContinuousSignal for Probe {
    fn eval(&self, t: f64) -> f64 {
        self.first_eval.get_or_init(Instant::now);
        self.inner.eval(t)
    }
}

/// What one closed-loop pass measured.
#[derive(Default)]
pub struct LoopStats {
    /// Submit → collect latency of every completed job, ms.
    pub latency_ms: Vec<f64>,
    /// Time of every completed pass divided by its jobs, ms.
    pub pass_ms: Vec<f64>,
    /// Submit → first stimulus sample, ms (probed runs only).
    pub queue_ms: Vec<f64>,
    /// First stimulus sample → collect, ms (probed runs only).
    pub service_ms: Vec<f64>,
    /// Wall time of the pass, s.
    pub elapsed_s: f64,
    /// Attempts beyond the first, summed over jobs.
    pub retries: u64,
    /// Jobs whose outcome was a typed error.
    pub errors: u64,
    /// Jobs whose outcome differed from the first outcome recorded for
    /// the same template.
    pub mismatches: u64,
}

impl LoopStats {
    pub fn completed(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn verdicts_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed_s
    }

    pub fn queue_p50(&self) -> f64 {
        median(&self.queue_ms)
    }

    pub fn queue_p95(&self) -> f64 {
        percentile(&self.queue_ms, 0.95)
    }

    pub fn service_p50(&self) -> f64 {
        median(&self.service_ms)
    }

    /// Share of the pool's worker time spent serving jobs.
    pub fn busy_share(&self, workers: usize) -> f64 {
        self.service_ms.iter().sum::<f64>() / 1e3 / (workers as f64 * self.elapsed_s)
    }
}

struct InFlight {
    site: usize,
    template: usize,
    submitted: Instant,
    /// Submit time of the first job of this job's pass.
    pass_start: Instant,
    ends_pass: bool,
    probe: Option<Arc<Probe>>,
}

/// Runs the closed loop for `seconds`: site `s` walks
/// `site_jobs[s]` (indices into `templates`) round and round. Each
/// outcome is stored in `first[template]` the first time the template
/// completes and compared against it afterwards.
pub fn closed_loop(
    service: &mut VerdictService,
    templates: &[VerdictJob],
    site_jobs: &[Vec<usize>],
    pass_len: usize,
    seconds: f64,
    probe: bool,
    first: &mut [Option<Result<BistReport, BistError>>],
) -> Result<LoopStats, BistError> {
    let mut stats = LoopStats::default();
    let mut cursors = vec![0usize; site_jobs.len()];
    let mut pass_start = vec![Instant::now(); site_jobs.len()];
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut next_id = 0u64;
    let start = Instant::now();

    let mut submit = |service: &mut VerdictService,
                      site: usize,
                      in_flight: &mut HashMap<u64, InFlight>|
     -> Result<(), BistError> {
        let jobs = &site_jobs[site];
        let position = cursors[site];
        let template = jobs[position % jobs.len()];
        cursors[site] += 1;
        let mut job = templates[template].clone();
        job.job_id = next_id;
        let probe = probe.then(|| {
            Arc::new(Probe {
                inner: Arc::clone(&job.stimulus),
                first_eval: OnceLock::new(),
            })
        });
        if let Some(p) = &probe {
            job.stimulus = Arc::clone(p) as SharedSignal;
        }
        let submitted = Instant::now();
        if position.is_multiple_of(pass_len) {
            pass_start[site] = submitted;
        }
        in_flight.insert(
            next_id,
            InFlight {
                site,
                template,
                submitted,
                pass_start: pass_start[site],
                ends_pass: position % pass_len == pass_len - 1,
                probe,
            },
        );
        next_id += 1;
        service.try_submit(job)
    };

    for (site, jobs) in site_jobs.iter().enumerate() {
        if !jobs.is_empty() {
            submit(service, site, &mut in_flight)?;
        }
    }
    while !in_flight.is_empty() {
        let outcome = service.try_collect()?;
        let done = Instant::now();
        let Some(job) = in_flight.remove(&outcome.job_id) else {
            return Err(BistError::InvalidConfig {
                reason: format!("service returned unknown job id {}", outcome.job_id),
            });
        };
        stats
            .latency_ms
            .push(done.duration_since(job.submitted).as_secs_f64() * 1e3);
        if job.ends_pass {
            stats
                .pass_ms
                .push(done.duration_since(job.pass_start).as_secs_f64() * 1e3 / pass_len as f64);
        }
        if let Some(first_eval) = job.probe.as_ref().and_then(|p| p.first_eval.get()) {
            stats
                .queue_ms
                .push(first_eval.duration_since(job.submitted).as_secs_f64() * 1e3);
            stats
                .service_ms
                .push(done.duration_since(*first_eval).as_secs_f64() * 1e3);
        }
        stats.retries += u64::from(outcome.attempts.saturating_sub(1));
        stats.errors += u64::from(outcome.result.is_err());
        match &first[job.template] {
            Some(seen) => stats.mismatches += u64::from(*seen != outcome.result),
            None => first[job.template] = Some(outcome.result),
        }
        if start.elapsed().as_secs_f64() < seconds {
            submit(service, job.site, &mut in_flight)?;
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    Ok(stats)
}
