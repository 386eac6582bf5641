//! `line_service`: the deployment verdict on a production line — a
//! closed loop of `nproc` DUT sites over a `VerdictService` with
//! `nproc` workers. Jobs come from `try_campaign_jobs` over the five
//! builtin deployments (calibrated skew, no reference), reordered
//! DUT-major so each DUT is retuned through all five standards. One
//! DUT in eight carries `PaEarlyCompression { 0.25 }`, and every job
//! arms `EarlyVerdict::paper_default()`.

use crate::campaign::{capture_span, standard_of, stimulus_baseband};
use crate::pool::{closed_loop, LoopStats};
use crate::replica::{self, ReplicaScratch};
use crate::trace::Tracer;
use crate::util::{median, mix, nproc, percentile};
use crate::{Env, Outcome, ServiceSplit, Summary};
use rfbist::prelude::*;
use rfbist_core::campaign::CALIBRATION_SYMBOL_RATE;
use rfbist_core::report::BistReport;
use std::time::Instant;

/// DUT positions on the line.
const DUTS: usize = 16;
/// Positions carrying the gross PA fault (one in eight).
const FAULTY: usize = 2;

type Slot = Option<Result<BistReport, BistError>>;

/// One job template and what it was built from.
struct Template {
    job: VerdictJob,
    spec: DutSpec,
    deployment: usize,
    faulty: bool,
}

struct Setup {
    deployments: Vec<Deployment>,
    templates: Vec<Template>,
    jobs: Vec<VerdictJob>,
    site_jobs: Vec<Vec<usize>>,
    first: Vec<Slot>,
}

fn duts(seed: u64) -> Vec<(DutSpec, bool)> {
    let mut faulty = Vec::with_capacity(FAULTY);
    let mut j = 0u64;
    while faulty.len() < FAULTY {
        let pos = (mix(seed, 1_000 + j) % DUTS as u64) as usize;
        if !faulty.contains(&pos) {
            faulty.push(pos);
        }
        j += 1;
    }
    let fault = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.25 });
    (0..DUTS)
        .map(|i| {
            let spec = DutSpec::nominal(i as u32, mix(seed, i as u64));
            if faulty.contains(&i) {
                (
                    spec.with_impairments(fault.inject(TxImpairments::typical())),
                    true,
                )
            } else {
                (spec, false)
            }
        })
        .collect()
}

fn setup(seed: u64, workers: usize) -> Result<(Setup, VerdictService), BistError> {
    let deployments = Deployment::builtin_five();
    let library = MaskLibrary::builtin();
    let specs = duts(seed);
    let plain: Vec<DutSpec> = specs.iter().map(|(s, _)| *s).collect();
    // deployment-major: job `dep * DUTS + dut`
    let built = try_campaign_jobs(&deployments, &library, &plain)?;
    let mut templates = Vec::with_capacity(built.len());
    for (dut, (spec, faulty)) in specs.iter().enumerate() {
        for dep in 0..deployments.len() {
            let mut job = built[dep * DUTS + dut].clone();
            job.job_id = templates.len() as u64;
            job.config = job.config.with_early_verdict(EarlyVerdict::paper_default());
            templates.push(Template {
                job,
                spec: *spec,
                deployment: dep,
                faulty: *faulty,
            });
        }
    }
    let jobs: Vec<VerdictJob> = templates.iter().map(|t| t.job.clone()).collect();
    let per_dut = deployments.len();
    let site_jobs: Vec<Vec<usize>> = (0..workers)
        .map(|site| {
            (site..DUTS)
                .step_by(workers)
                .flat_map(|dut| dut * per_dut..(dut + 1) * per_dut)
                .collect()
        })
        .collect();
    let mut service =
        VerdictService::try_start(ServiceConfig::paper_default().with_workers(workers))?;
    // warm-up: the first DUT through every standard
    let mut first: Vec<Slot> = vec![None; jobs.len()];
    for outcome in service.try_run_all(jobs[..per_dut].to_vec())? {
        first[outcome.job_id as usize] = Some(outcome.result);
    }
    let setup = Setup {
        deployments,
        templates,
        jobs,
        site_jobs,
        first,
    };
    Ok((setup, service))
}

/// Direct `try_run_with` of every template on one warm scratch,
/// compared against the pool's outcome for the same job.
fn check_against_direct(s: &Setup) -> u64 {
    let mut scratch = BistScratch::new();
    let mut mismatches = 0u64;
    for (job, seen) in s.jobs.iter().zip(&s.first) {
        let Some(seen) = seen else { continue };
        let r = BistEngine::new(job.config.clone()).try_run_with(
            &job.stimulus,
            &job.mask,
            job.reference.as_ref(),
            &mut scratch,
        );
        mismatches += u64::from(*seen != r);
    }
    mismatches
}

fn quality(s: &Setup, summary: &mut Summary) {
    let (mut healthy, mut alarms, mut faulty, mut flagged) = (0usize, 0usize, 0usize, 0usize);
    let mut skew_max: f64 = 0.0;
    for (t, seen) in s.templates.iter().zip(&s.first) {
        let Some(Ok(r)) = seen else { continue };
        skew_max = skew_max.max(r.skew_abs_error() * 1e12);
        if t.faulty {
            faulty += 1;
            flagged += usize::from(!r.passed());
        } else {
            healthy += 1;
            alarms += usize::from(!r.passed());
        }
    }
    summary.false_alarm_share = alarms as f64 / healthy.max(1) as f64;
    summary.verdict_coverage = Some(flagged as f64 / faulty.max(1) as f64);
    summary.skew_err_max_ps = skew_max;
}

pub fn run(env: &Env) -> Result<Outcome, BistError> {
    let workers = nproc();
    let ((mut s, mut service), setup_s) = env.timed_setup(|| setup(env.seed, workers))?;
    let stats = closed_loop(
        &mut service,
        &s.jobs,
        &s.site_jobs,
        s.deployments.len(),
        env.seconds,
        false,
        &mut s.first,
    )?;
    service.shutdown();
    let direct_mismatches = check_against_direct(&s);

    let mut summary = Summary::new(stats.completed() as u64, stats.errors);
    quality(&s, &mut summary);
    summary.check(
        stats.mismatches + direct_mismatches == 0,
        format!(
            "{} pool verdicts differ from a direct try_run_with of the same job",
            stats.mismatches + direct_mismatches
        ),
    );
    summary.verdicts_per_s = stats.verdicts_per_s();
    // a DUT's test time on the line: one pass through every standard
    summary.p50_ms = median(&stats.pass_ms);
    summary.p95_ms = percentile(&stats.pass_ms, 0.95);
    summary.samples = stats.pass_ms.len();
    summary.setup_s = setup_s;
    Ok(summary.into_outcome())
}

/// One traced line pass: the five wideband calibrations, then every
/// template as a traced replica verdict paired with an untraced direct
/// engine verdict. Bursts and DUT stimuli are rebuilt exactly as
/// `try_campaign_jobs` builds them.
fn traced_pass(
    s: &Setup,
    tr: &mut Tracer,
    rscratch: &mut ReplicaScratch,
    scratch: &mut BistScratch,
    times: &mut (f64, f64),
    verdict_id: &mut u64,
) -> Result<u64, BistError> {
    let library = MaskLibrary::builtin();
    let mut mismatches = 0u64;
    let mut spans = Vec::with_capacity(s.deployments.len());
    for (i, dep) in s.deployments.iter().enumerate() {
        let base = dep.try_bist_config()?.with_stream_workers(1);
        let span = capture_span(dep, &base);
        spans.push(span);
        let burst = tr.span("rfchain.dut_build", |_| {
            let bb = stimulus_baseband(span, CALIBRATION_SYMBOL_RATE, 0.5, 0xACE1);
            HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(TxImpairments::typical())
                .build()
                .rf_output()
        });
        let est = replica::calibrate(tr, &base, &burst)?;
        let job_delay = s
            .templates
            .iter()
            .find(|t| t.deployment == i)
            .and_then(|t| t.job.config.calibrated_skew);
        mismatches += u64::from(job_delay != Some(est.delay));
    }
    for (t, seen) in s.templates.iter().zip(&s.first) {
        let dep = &s.deployments[t.deployment];
        let standard = standard_of(&library, dep)?;
        let stimulus = tr.span("rfchain.dut_build", |_| {
            let bb = stimulus_baseband(
                spans[t.deployment],
                standard.symbol_rate,
                standard.rolloff,
                t.spec.payload_seed,
            );
            HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(t.spec.impairments)
                .build()
                .rf_output()
        });
        let job = &t.job;
        let engine = BistEngine::new(job.config.clone());
        let mut run_engine = |acc: &mut f64| {
            let t0 = Instant::now();
            let r = engine.try_run_with(&job.stimulus, &job.mask, job.reference.as_ref(), scratch);
            *acc += t0.elapsed().as_secs_f64();
            r
        };
        tr.set_verdict(*verdict_id);
        let mut run_replica = |acc: &mut f64| {
            let t0 = Instant::now();
            let r = replica::verdict(
                tr,
                &job.config,
                &stimulus,
                &job.mask,
                job.reference.as_ref(),
                rscratch,
            );
            *acc += t0.elapsed().as_secs_f64();
            r
        };
        let (e, r) = if verdict_id.is_multiple_of(2) {
            let e = run_engine(&mut times.0);
            (e, run_replica(&mut times.1))
        } else {
            let r = run_replica(&mut times.1);
            (run_engine(&mut times.0), r)
        };
        mismatches += u64::from(e != r);
        if let Some(seen) = seen {
            mismatches += u64::from(*seen != e);
        }
        *verdict_id += 1;
    }
    Ok(mismatches)
}

pub fn run_traced(env: &Env) -> Result<Outcome, BistError> {
    let workers = nproc();
    let (mut s, mut service) = setup(env.seed, workers)?;
    let pool: LoopStats = closed_loop(
        &mut service,
        &s.jobs,
        &s.site_jobs,
        s.deployments.len(),
        0.4 * env.seconds,
        true,
        &mut s.first,
    )?;
    service.shutdown();

    let mut tr = Tracer::new();
    let mut rscratch = ReplicaScratch::default();
    let mut scratch = BistScratch::new();
    let mut times = (0.0f64, 0.0f64);
    let mut verdict_id = 0u64;
    let mut mismatches = 0u64;
    let start = Instant::now();
    loop {
        mismatches += traced_pass(
            &s,
            &mut tr,
            &mut rscratch,
            &mut scratch,
            &mut times,
            &mut verdict_id,
        )?;
        if start.elapsed().as_secs_f64() >= 0.6 * env.seconds {
            break;
        }
    }
    let direct_rate = verdict_id as f64 / times.0;

    let mut summary = Summary::new(verdict_id, 0);
    summary.check(
        mismatches == 0,
        format!("{mismatches} replica, calibration or pool results differ from the engine"),
    );
    summary.check(
        pool.mismatches == 0,
        format!("{} pool verdicts not reproducible", pool.mismatches),
    );
    let service = ServiceSplit {
        pool: &pool,
        workers,
        direct_rate,
    };
    Ok(summary.into_traced(&tr, Some(service), times.1 / times.0 - 1.0))
}
