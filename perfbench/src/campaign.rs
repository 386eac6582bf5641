//! `coverage_campaign`: time to the coverage matrix — one
//! `try_run_campaign_supervised` run of `CampaignConfig::paper_default()`
//! per repetition, with `base_seed` set to the workload seed.
//!
//! The run checks the campaign's own invariants: no errored runs,
//! every gross fault detected, worst skew error at most 2.5 ps, and
//! the same matrix from every repetition. False alarms are counted and
//! reported, not failed on (see the README).

use crate::replica::{self, ReplicaScratch};
use crate::trace::Tracer;
use crate::util::{median, percentile};
use crate::{Env, Outcome, Summary};
use rfbist::prelude::*;
use rfbist::rfchain::txchain::ImpairedEnvelope;
use rfbist::signal::bandpass::BandpassSignal;
use rfbist_converter::clock::JitterModel;
use rfbist_core::campaign::{CALIBRATION_SYMBOL_RATE, CAMPAIGN_B};
use rfbist_core::report::BistReport;
use rfbist_signal::baseband::ShapedBaseband;
use std::time::Instant;

/// Worst `|D̂ − D|` the campaign is expected to stay within, s. The
/// run reports whether it held; it is not a hard check, because the
/// maximum over ten calibrations has a tail past it (2.47 ps at base
/// seed 20 of 1..40).
const EXPECTED_SKEW_ERROR: f64 = 2.5e-12;
/// Worst `|D̂ − D|` that fails the run: twice the expected bound, far
/// outside the calibration noise, means the skew path is broken.
const MAX_SKEW_ERROR: f64 = 5e-12;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        base_seed: seed,
        ..CampaignConfig::paper_default()
    }
}

/// Verdicts one (deployment, jitter) cell runs.
fn verdicts_per_cell(cfg: &CampaignConfig) -> usize {
    cfg.trials * (cfg.faults.len() + 1)
}

fn total_verdicts(cfg: &CampaignConfig) -> usize {
    cfg.deployments.len() * cfg.jitter_rms.len() * verdicts_per_cell(cfg)
}

/// Enough payload symbols at `symbol_rate` to cover the capture span,
/// as the campaign and `try_campaign_jobs` build their stimuli.
pub(crate) fn stimulus_baseband(
    span: f64,
    symbol_rate: f64,
    rolloff: f64,
    seed: u64,
) -> ShapedBaseband {
    let n_sym = ((span * symbol_rate) as usize + 30).max(96);
    ShapedBaseband::qpsk_prbs(symbol_rate, rolloff, 12, n_sym, seed)
}

/// The span a deployment's stimulus must cover, s: start margin plus
/// capture length at the fast rate, with 20 % slack.
pub(crate) fn capture_span(dep: &Deployment, base: &BistConfig) -> f64 {
    (base.fast_start as f64 + dep.fast_len as f64) / CAMPAIGN_B * 1.2
}

/// The library standard a deployment names.
pub(crate) fn standard_of<'a>(
    library: &'a MaskLibrary,
    dep: &Deployment,
) -> Result<&'a MaskStandard, BistError> {
    library
        .get(&dep.standard)
        .ok_or_else(|| BistError::UnknownStandard {
            name: dep.standard.clone(),
            known: library.names().map(str::to_string).collect(),
        })
}

/// Warm-up outside the timed window: one calibrated verdict per
/// standard.
fn warm_up(cfg: &CampaignConfig) -> Result<(), BistError> {
    let library = MaskLibrary::builtin();
    let mut scratch = BistScratch::new();
    for dep in &cfg.deployments {
        let standard = standard_of(&library, dep)?;
        let base = dep.try_bist_config()?;
        let span = capture_span(dep, &base);
        let engine = BistEngine::new(base.try_with_calibrated_skew(dep.delay_target())?);
        let bb = stimulus_baseband(
            span,
            standard.symbol_rate,
            standard.rolloff,
            cfg.trial_seed(0),
        );
        let tx = HomodyneTx::builder(bb, dep.carrier_hz)
            .impairments(TxImpairments::typical())
            .build();
        engine.try_run_with(
            &tx.rf_output(),
            &standard.mask,
            Some(&tx.ideal_rf_output()),
            &mut scratch,
        )?;
    }
    Ok(())
}

/// Runs the campaign, returning the matrix and each cell's wall time.
fn timed_campaign(cfg: &CampaignConfig) -> Result<(CoverageMatrix, f64, Vec<f64>), BistError> {
    let mut cells = Vec::new();
    let start = Instant::now();
    let mut last = start;
    let matrix = try_run_campaign_supervised(cfg, None, false, &mut |_| {
        let now = Instant::now();
        cells.push(now.duration_since(last).as_secs_f64());
        last = now;
        true
    })?;
    Ok((matrix, start.elapsed().as_secs_f64(), cells))
}

/// Invariant checks and quality figures of one matrix; returns its
/// errored runs.
fn judge(m: &CoverageMatrix, summary: &mut Summary) -> usize {
    let errored: usize = m.standards.iter().map(|s| s.errored_runs).sum();
    let fault_runs: usize = m.standards.iter().map(|s| s.fault_runs()).sum();
    let verdict_detected: usize = m
        .standards
        .iter()
        .flat_map(|s| &s.per_fault)
        .map(|f| f.verdict_detected)
        .sum();
    summary.check(errored == 0, format!("{errored} errored campaign runs"));
    summary.check(
        m.gross_detection_rate() == 1.0,
        format!("gross detection {:.4} < 1", m.gross_detection_rate()),
    );
    summary.check(
        m.worst_skew_error() <= MAX_SKEW_ERROR,
        format!(
            "worst skew error {:.3} ps > 5 ps",
            m.worst_skew_error() * 1e12
        ),
    );
    summary.false_alarm_share = m.overall_false_alarm_rate();
    summary.verdict_coverage = Some(verdict_detected as f64 / fault_runs.max(1) as f64);
    summary.skew_err_max_ps = m.worst_skew_error() * 1e12;
    summary.note(format!(
        "detection (verdict or golden) {:.4}, verdict only {:.4}, gross {:.4}",
        m.overall_detection_rate(),
        verdict_detected as f64 / fault_runs.max(1) as f64,
        m.gross_detection_rate()
    ));
    summary.note(format!(
        "worst skew error within 2.5 ps: {}; false alarms: {} of {} healthy runs",
        if m.worst_skew_error() <= EXPECTED_SKEW_ERROR {
            "yes"
        } else {
            "NO"
        },
        m.standards.iter().map(|s| s.false_alarms).sum::<usize>(),
        m.standards.iter().map(|s| s.healthy_runs).sum::<usize>()
    ));
    errored
}

pub fn run(env: &Env) -> Result<Outcome, BistError> {
    let (cfg, setup_s) = env.timed_setup(|| {
        let cfg = config(env.seed);
        warm_up(&cfg)?;
        Ok(cfg)
    })?;

    let per_cell = verdicts_per_cell(&cfg) as f64;
    let cells_per_campaign = cfg.deployments.len() * cfg.jitter_rms.len();
    let (mut campaign_s, mut cell_s) = (Vec::new(), Vec::<Vec<f64>>::new());
    let mut reference: Option<String> = None;
    let mut errored = 0usize;
    let mut summary = Summary::new(0, 0);
    let start = Instant::now();
    // stop when a further repetition would overrun the window by more
    // than half a campaign
    while campaign_s.is_empty()
        || start.elapsed().as_secs_f64() + 0.5 * median(&campaign_s) < env.seconds
    {
        let (matrix, secs, cells) = timed_campaign(&cfg)?;
        campaign_s.push(secs);
        summary.check(
            cells.len() == cells_per_campaign,
            format!("{} cells timed, not {cells_per_campaign}", cells.len()),
        );
        cell_s.push(cells);
        let json = matrix.to_json();
        match &reference {
            Some(r) => summary.check(
                *r == json,
                "campaign matrix differs between repetitions".into(),
            ),
            None => {
                errored = judge(&matrix, &mut summary);
                reference = Some(json);
            }
        }
    }
    let reps = campaign_s.len();
    summary.attempted = (total_verdicts(&cfg) * reps) as u64;
    summary.failed = (errored * reps) as u64;
    // Campaign time cell by cell: each cell's median over the
    // repetitions, summed, so a slowdown of the host during one cell of
    // one repetition does not move it.
    let cellwise_s: f64 = (0..cells_per_campaign)
        .map(|c| {
            median(
                &cell_s
                    .iter()
                    .filter_map(|r| r.get(c).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    let cell_ms: Vec<f64> = cell_s.concat().iter().map(|c| c * 1e3 / per_cell).collect();
    summary.verdicts_per_s = total_verdicts(&cfg) as f64 / cellwise_s;
    summary.p50_ms = median(&cell_ms);
    summary.p95_ms = percentile(&cell_ms, 0.95);
    summary.samples = cell_ms.len();
    summary.setup_s = setup_s;
    summary.campaign_s = Some(median(&campaign_s));
    Ok(summary.into_outcome())
}

/// One verdict of trial 0 of a cell, kept to replay on the engine,
/// with the replica's report.
struct Kept {
    config: BistConfig,
    mask: SpectralMask,
    rf: BandpassSignal<ImpairedEnvelope<ShapedBaseband>>,
    ideal: BandpassSignal<ShapedBaseband>,
    replica: Result<BistReport, BistError>,
}

/// Replays one (deployment, jitter) cell of the campaign through the
/// traced replica, tallying into `outcome` exactly as the campaign's
/// cell loop does (a run with a typed error counts as errored; the
/// replica never retries, as nothing in-thread is transient).
#[allow(clippy::too_many_arguments)]
fn replica_cell(
    cfg: &CampaignConfig,
    dep: &Deployment,
    standard: &MaskStandard,
    jitter: f64,
    tr: &mut Tracer,
    outcome: &mut StandardOutcome,
    kept: &mut Vec<Kept>,
    healthy_deltas: &mut Vec<f64>,
) -> Result<(), BistError> {
    let runs_per_trial = cfg.faults.len() + 1;
    let mut scratch = ReplicaScratch::default();
    let mut base = dep.try_bist_config()?;
    base.frontend_fast.jitter = JitterModel::Gaussian { rms: jitter };
    base.frontend_slow.jitter = JitterModel::Gaussian { rms: jitter };
    let span = capture_span(dep, &base);
    let engine_cfg = if cfg.wideband_calibration {
        let burst = tr.span("rfchain.dut_build", |_| {
            let bb = stimulus_baseband(span, CALIBRATION_SYMBOL_RATE, 0.5, cfg.base_seed);
            HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(TxImpairments::typical())
                .build()
                .rf_output()
        });
        match replica::calibrate(tr, &base, &burst) {
            Ok(est) => base.clone().try_with_calibrated_skew(est.delay)?,
            Err(_) => {
                outcome.errored_runs += cfg.trials * runs_per_trial;
                tr.count(
                    "campaign.errored_runs",
                    (cfg.trials * runs_per_trial) as f64,
                );
                return Ok(());
            }
        }
    } else {
        base.clone()
    };

    for trial in 0..cfg.trials {
        let bb = stimulus_baseband(
            span,
            standard.symbol_rate,
            standard.rolloff,
            cfg.trial_seed(trial),
        );
        let mut healthy_eps = None;
        for slot in 0..runs_per_trial {
            let imp = match slot {
                0 => TxImpairments::typical(),
                s => cfg.faults[s - 1].inject(TxImpairments::typical()),
            };
            let (rf, ideal) = tr.span("rfchain.dut_build", |_| {
                let tx = HomodyneTx::builder(bb.clone(), dep.carrier_hz)
                    .impairments(imp)
                    .build();
                (tx.rf_output(), tx.ideal_rf_output())
            });
            tr.set_verdict(tr.counter("campaign.verdicts") as u64);
            tr.count("campaign.verdicts", 1.0);
            let result = replica::verdict(
                tr,
                &engine_cfg,
                &rf,
                &standard.mask,
                Some(&ideal),
                &mut scratch,
            );
            if trial == 0 {
                kept.push(Kept {
                    config: engine_cfg.clone(),
                    mask: standard.mask.clone(),
                    rf,
                    ideal,
                    replica: result.clone(),
                });
            }
            if slot == 0 {
                let healthy = match result {
                    Ok(r) => r,
                    Err(_) => {
                        outcome.errored_runs += runs_per_trial;
                        tr.count("campaign.errored_runs", runs_per_trial as f64);
                        break;
                    }
                };
                outcome.healthy_runs += 1;
                outcome.false_alarms += usize::from(!healthy.passed());
                outcome.worst_skew_error = outcome.worst_skew_error.max(healthy.skew_abs_error());
                let Some(eps) = healthy.reconstruction_error else {
                    outcome.healthy_runs -= 1;
                    outcome.errored_runs += runs_per_trial;
                    tr.count("campaign.errored_runs", runs_per_trial as f64);
                    break;
                };
                healthy_deltas.push(eps);
                healthy_eps = Some(eps);
                continue;
            }
            let (Ok(report), Some(floor)) = (result, healthy_eps) else {
                outcome.errored_runs += 1;
                tr.count("campaign.errored_runs", 1.0);
                continue;
            };
            let Some(eps) = report.reconstruction_error else {
                outcome.errored_runs += 1;
                tr.count("campaign.errored_runs", 1.0);
                continue;
            };
            let verdict_flag = !report.passed();
            let tally = &mut outcome.per_fault[slot - 1];
            tally.runs += 1;
            tally.verdict_detected += usize::from(verdict_flag);
            tally.detected += usize::from(verdict_flag || eps > cfg.eps_ratio * floor);
            outcome.worst_skew_error = outcome.worst_skew_error.max(report.skew_abs_error());
        }
    }
    Ok(())
}

/// The whole campaign through the traced replica, folded into a
/// `CoverageMatrix` the way the campaign folds its cells.
fn replica_campaign(
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    kept: &mut Vec<Kept>,
    deltas: &mut Vec<f64>,
) -> Result<CoverageMatrix, BistError> {
    let library = MaskLibrary::builtin();
    let mut standards = Vec::with_capacity(cfg.deployments.len());
    for dep in &cfg.deployments {
        let standard = standard_of(&library, dep)?;
        let mut outcome = StandardOutcome {
            standard: dep.standard.clone(),
            healthy_runs: 0,
            false_alarms: 0,
            errored_runs: 0,
            per_fault: cfg
                .faults
                .iter()
                .map(|&fault| FaultOutcome {
                    fault,
                    runs: 0,
                    verdict_detected: 0,
                    detected: 0,
                })
                .collect(),
            worst_skew_error: 0.0,
        };
        for &jitter in &cfg.jitter_rms {
            let open = tr.enter("campaign.cell");
            let r = replica_cell(cfg, dep, standard, jitter, tr, &mut outcome, kept, deltas);
            tr.exit(open);
            r?;
        }
        standards.push(outcome);
    }
    Ok(CoverageMatrix { standards })
}

pub fn run_traced(env: &Env) -> Result<Outcome, BistError> {
    let cfg = config(env.seed);
    warm_up(&cfg)?;

    // Two engine / replica pairs in ABBA order, so a drift in host
    // speed weighs on both sides alike. Only the first replica pass is
    // kept in the trace.
    let mut tr = Tracer::new();
    let mut kept = Vec::new();
    let mut deltas = Vec::new();
    let (matrix, engine_a, _) = timed_campaign(&cfg)?;
    let t = Instant::now();
    let replica = replica_campaign(&cfg, &mut tr, &mut kept, &mut deltas)?;
    let replica_a = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replica_again =
        replica_campaign(&cfg, &mut Tracer::new(), &mut Vec::new(), &mut Vec::new())?;
    let replica_b = t.elapsed().as_secs_f64();
    let (matrix_again, engine_b, _) = timed_campaign(&cfg)?;

    // Direct engine verdicts of trial 0 of every cell.
    let mut scratch = BistScratch::new();
    let mismatches = kept
        .iter()
        .filter(|k| {
            let r = BistEngine::new(k.config.clone()).try_run_with(
                &k.rf,
                &k.mask,
                Some(&k.ideal),
                &mut scratch,
            );
            r != k.replica
        })
        .count();

    let mut summary = Summary::new(tr.counter("campaign.verdicts") as u64, 0);
    let json = matrix.to_json();
    summary.check(
        replica.to_json() == json && replica_again.to_json() == json,
        "the traced replica folds to a different coverage matrix".into(),
    );
    summary.check(
        matrix_again.to_json() == json,
        "campaign matrix differs between repetitions".into(),
    );
    summary.check(
        mismatches == 0,
        format!("{mismatches} replica verdicts differ from the engine"),
    );
    summary.delta_eps_mean_pct =
        Some(deltas.iter().sum::<f64>() / deltas.len().max(1) as f64 * 100.0);
    summary.campaign_s = Some(0.5 * (engine_a + engine_b));
    let overhead = (replica_a + replica_b) / (engine_a + engine_b) - 1.0;
    Ok(summary.into_traced(&tr, None, overhead))
}
