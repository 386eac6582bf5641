//! Verdict-level benchmark of the rfbist workspace.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_verdict --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `paper_verdict`, `line_service`, `coverage_campaign` (see
//! `perfbench/README.md`). `--trace 0` measures the end-to-end metrics
//! with nothing recorded; `--trace 1` replays the same verdicts stage
//! by stage with spans and reports the per-layer split. The last line
//! of standard output is one JSON object; the lines before it are the
//! human-readable report. A failed correctness check exits with 1, a
//! run that could not produce a result with 2.

mod campaign;
mod line;
mod paper;
mod pool;
mod replica;
mod trace;
mod util;

use pool::LoopStats;
use rfbist_core::error::BistError;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{median, nproc, peak_rss_mb, ratio, simd_dispatch, Metrics};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Run parameters shared by every workload.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
}

impl Env {
    /// Runs `setup` `SETUPS` times, tearing each one down outside the
    /// timing; returns the last set-up and the median set-up time, s.
    pub fn timed_setup<T>(
        &self,
        mut setup: impl FnMut() -> Result<T, BistError>,
    ) -> Result<(T, f64), BistError> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup()?);
            times.push(t.elapsed().as_secs_f64());
        }
        let last = last.ok_or(BistError::InvalidConfig {
            reason: "no set-up ran".into(),
        })?;
        Ok((last, median(&times)))
    }
}

/// What a workload measured and checked, before it becomes metrics.
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    pub verdicts_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub setup_s: f64,
    pub campaign_s: Option<f64>,
    pub false_alarm_share: f64,
    pub skew_err_max_ps: f64,
    pub delta_eps_mean_pct: Option<f64>,
    pub verdict_coverage: Option<f64>,
}

/// A finished run: the report lines and the result object.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    lines: Vec<String>,
}

/// The probed pool pass of a traced run, for the `service.*` split.
pub struct ServiceSplit<'a> {
    pub pool: &'a LoopStats,
    pub workers: usize,
    /// Direct `try_run_with` verdicts per second on one thread.
    pub direct_rate: f64,
}

impl Summary {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Summary {
            attempted,
            failed,
            problems: Vec::new(),
            notes: Vec::new(),
            verdicts_per_s: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            samples: 0,
            setup_s: 0.0,
            campaign_s: None,
            false_alarm_share: 0.0,
            skew_err_max_ps: 0.0,
            delta_eps_mean_pct: None,
            verdict_coverage: None,
        }
    }

    /// Records a correctness problem unless `ok`.
    pub fn check(&mut self, ok: bool, problem: String) {
        if !ok {
            self.problems.push(problem);
        }
    }

    /// Adds a free-form report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The report lines for the end-to-end figures outside the result
    /// object: campaign time and the correctness figures.
    fn quality_lines(&self) -> Vec<String> {
        let opt =
            |v: Option<f64>, unit: &str| v.map_or("n/a".to_string(), |v| format!("{v:.4} {unit}"));
        vec![
            format!("latency samples: {}", self.samples),
            format!("campaign_s {}", opt(self.campaign_s, "s")),
            format!(
                "error_share {:.4} share ({} of {} verdicts)",
                ratio(self.failed as f64, self.attempted as f64),
                self.failed,
                self.attempted
            ),
            format!("false_alarm_share {:.4} share", self.false_alarm_share),
            format!("skew_err_max_ps {:.3} ps", self.skew_err_max_ps),
            format!("delta_eps_mean_pct {}", opt(self.delta_eps_mean_pct, "%")),
            format!("verdict_coverage {}", opt(self.verdict_coverage, "share")),
        ]
    }

    fn finish(mut self, metrics: Metrics, mut lines: Vec<String>) -> Outcome {
        if self.failed > 0 {
            self.problems.push(format!(
                "{} of {} verdicts failed",
                self.failed, self.attempted
            ));
        }
        lines.append(&mut self.notes);
        for p in &self.problems {
            lines.push(format!("CHECK FAILED: {p}"));
        }
        Outcome {
            correct: self.problems.is_empty() && metrics.all_finite(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            lines,
        }
    }

    /// The end-to-end metrics of an untraced run.
    pub fn into_outcome(self) -> Outcome {
        let mut m = Metrics::default();
        m.push("verdicts_per_s", self.verdicts_per_s, "1/s");
        m.push("verdict_p50_ms", self.p50_ms, "ms");
        m.push("verdict_p95_ms", self.p95_ms, "ms");
        m.push("setup_s", self.setup_s, "s");
        m.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
        let lines = self.quality_lines();
        self.finish(m, lines)
    }

    /// The per-layer metrics of a traced run, from the spans and
    /// counters in `tr` and, where the workload runs the pool, its
    /// probed pass `service` (`service.*` read 0 without one).
    pub fn into_traced(
        mut self,
        tr: &Tracer,
        service: Option<ServiceSplit>,
        overhead_share: f64,
    ) -> Outcome {
        self.failed += tr.counter("verdict_errors") as u64;
        let verdicts = tr.counter("verdicts");
        let traced = tr.verdicts_traced() as f64;
        self.check(
            traced == verdicts,
            format!("spans carry {traced} verdict ids for {verdicts} replayed verdicts"),
        );
        let totals = tr.layer_totals();
        let ns = |layer: &str| totals.get(layer).map_or(0.0, |t| t.inclusive_ns as f64);
        let spans = |layer: &str| totals.get(layer).map_or(0.0, |t| t.count as f64);
        let per_verdict_ms = |layer: &str| ratio(ns(layer) / 1e6, verdicts);
        let per_verdict = |counter: &str| ratio(tr.counter(counter), verdicts);

        let mut m = Metrics::default();
        m.push(
            "converter.capture_ms",
            per_verdict_ms("converter.capture"),
            "ms/verdict",
        );
        m.push(
            "converter.samples",
            per_verdict("converter.samples"),
            "samples/verdict",
        );
        m.push(
            "converter.calibrate_ms",
            per_verdict_ms("converter.calibrate"),
            "ms/verdict",
        );
        m.push(
            "health.scan_ms",
            per_verdict_ms("health.scan"),
            "ms/verdict",
        );
        m.push("cost.build_ms", per_verdict_ms("cost.build"), "ms/verdict");
        m.push("lms.ms", per_verdict_ms("lms"), "ms/verdict");
        let lms_runs = tr.counter("lms.runs");
        m.push(
            "lms.iterations",
            ratio(tr.counter("lms.iterations"), lms_runs),
            "iter/run",
        );
        m.push(
            "lms.converged_share",
            ratio(tr.counter("lms.converged"), lms_runs),
            "share",
        );
        m.push("gridplan.ms", per_verdict_ms("gridplan"), "ms/verdict");
        m.push(
            "gridplan.points",
            per_verdict("gridplan.points"),
            "points/verdict",
        );
        m.push(
            "gridplan.blocks",
            per_verdict("gridplan.blocks"),
            "blocks/verdict",
        );
        m.push(
            "gridplan.ns_per_point",
            ratio(ns("gridplan"), tr.counter("gridplan.points")),
            "ns/point",
        );
        m.push("scan.build_ms", per_verdict_ms("scan.build"), "ms/verdict");
        m.push("scan.push_ms", per_verdict_ms("scan.push"), "ms/verdict");
        m.push(
            "scan.segments",
            per_verdict("scan.segments"),
            "segs/verdict",
        );
        m.push(
            "scan.early_exit_share",
            per_verdict("scan.early_exits"),
            "share",
        );
        m.push(
            "scan.points_skipped",
            per_verdict("scan.points_skipped"),
            "points/verdict",
        );
        m.push("golden.ms", per_verdict_ms("golden"), "ms/verdict");
        m.push(
            "golden.points",
            per_verdict("golden.points"),
            "points/verdict",
        );
        m.push(
            "golden.ns_per_eval",
            ratio(ns("golden"), tr.counter("golden.points")),
            "ns/eval",
        );
        m.push(
            "rfchain.dut_build_ms",
            ratio(ns("rfchain.dut_build") / 1e6, spans("rfchain.dut_build")),
            "ms/dut",
        );
        m.push(
            "bist.verdict_ms",
            per_verdict_ms("bist.verdict"),
            "ms/verdict",
        );
        let self_ms = totals
            .get("bist.verdict")
            .map_or(0.0, |t| t.self_ns as f64 / 1e6);
        m.push("bist.self_ms", ratio(self_ms, verdicts), "ms/verdict");
        let sv = |f: fn(&ServiceSplit) -> f64| service.as_ref().map_or(0.0, f);
        m.push(
            "service.queue_wait_ms_p50",
            sv(|s| s.pool.queue_p50()),
            "ms",
        );
        m.push(
            "service.queue_wait_ms_p95",
            sv(|s| s.pool.queue_p95()),
            "ms",
        );
        m.push("service.service_ms_p50", sv(|s| s.pool.service_p50()), "ms");
        m.push(
            "service.busy_share",
            sv(|s| s.pool.busy_share(s.workers)),
            "share",
        );
        m.push("service.retries", sv(|s| s.pool.retries as f64), "count");
        m.push(
            "service.direct_verdicts_per_s",
            sv(|s| s.direct_rate),
            "1/s",
        );
        m.push(
            "service.scaling",
            sv(|s| ratio(s.pool.verdicts_per_s(), s.direct_rate)),
            "ratio",
        );
        m.push(
            "campaign.cell_s",
            ratio(ns("campaign.cell") / 1e9, spans("campaign.cell")),
            "s/cell",
        );
        m.push(
            "campaign.calibrate_ms",
            ratio(ns("campaign.calibrate") / 1e6, spans("campaign.calibrate")),
            "ms/cal",
        );
        m.push(
            "campaign.verdicts",
            tr.counter("campaign.verdicts"),
            "count",
        );
        m.push(
            "campaign.errored_runs",
            tr.counter("campaign.errored_runs"),
            "count",
        );
        m.push("trace.overhead_share", overhead_share, "share");

        let mut lines = vec![format!("traced verdicts: {verdicts}")];
        if let Some(s) = &service {
            lines.push(format!(
                "pool pass: {} jobs on {} workers in {:.2} s",
                s.pool.completed(),
                s.workers,
                s.pool.elapsed_s
            ));
        }
        lines.extend(layer_split(tr));
        self.finish(m, lines)
    }
}

/// Self time per layer as a share of all traced time, largest first.
fn layer_split(tr: &Tracer) -> Vec<String> {
    let totals = tr.layer_totals();
    let all: f64 = totals.values().map(|t| t.self_ns as f64).sum();
    let mut rows: Vec<(&str, f64)> = totals
        .iter()
        .map(|(layer, t)| (*layer, t.self_ns as f64 / all))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut lines = vec!["layer self-time split (share of all traced time):".to_string()];
    for (layer, share) in &rows {
        lines.push(format!("  {layer:<20} {:6.2} %", share * 100.0));
    }
    if let Some((layer, _)) = rows.first() {
        lines.push(format!("largest layer: {layer}"));
    }
    lines
}

struct Args {
    workload: String,
    env: Env,
    trace: bool,
}

const USAGE: &str =
    "usage: rfbist-perfbench --workload <paper_verdict|line_service|coverage_campaign> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(USAGE.to_string());
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        env: Env { seed, seconds },
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, BistError> {
    let env = &args.env;
    match (args.workload.as_str(), args.trace) {
        ("paper_verdict", false) => paper::run(env),
        ("paper_verdict", true) => paper::run_traced(env),
        ("line_service", false) => line::run(env),
        ("line_service", true) => line::run_traced(env),
        ("coverage_campaign", false) => campaign::run(env),
        ("coverage_campaign", true) => campaign::run_traced(env),
        (other, _) => Err(BistError::InvalidConfig {
            reason: format!("unknown workload `{other}`"),
        }),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.env.seed,
        args.env.seconds,
        u8::from(args.trace)
    );
    println!(
        "env: nproc={} simd={} RFBIST_FORCE_SCALAR={}",
        nproc(),
        simd_dispatch(),
        std::env::var("RFBIST_FORCE_SCALAR").unwrap_or_else(|_| "unset".into())
    );
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics.0 {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
