//! `paper_verdict`: the paper's own Algorithm-1 verdict in a closed
//! loop with one client — `BistEngine::try_run_with` on a warm
//! `BistScratch`, the paper-default engine and QPSK mask, cycling
//! healthy seeded units with the golden reference supplied.

use crate::replica::{self, ReplicaScratch};
use crate::trace::Tracer;
use crate::util::{median, mix, percentile};
use crate::{Env, Outcome, Summary};
use rfbist::fixtures;
use rfbist::prelude::*;
use rfbist::rfchain::txchain::ImpairedEnvelope;
use rfbist::signal::bandpass::BandpassSignal;
use rfbist::signal::baseband::ShapedBaseband;
use rfbist_core::report::BistReport;
use std::time::Instant;

/// Distinct units per run; the loop cycles through them.
const UNITS: usize = 64;
/// Payload length of each unit, symbols (the paper fixture's).
const SYMBOLS: usize = 160;

struct Unit {
    rf: BandpassSignal<ImpairedEnvelope<ShapedBaseband>>,
    ideal: BandpassSignal<ShapedBaseband>,
}

struct Setup {
    engine: BistEngine,
    mask: SpectralMask,
    units: Vec<Unit>,
    scratch: BistScratch,
}

fn build_units(seed: u64, tr: &mut Option<&mut Tracer>) -> Vec<Unit> {
    (0..UNITS as u64)
        .map(|i| {
            let open = tr.as_mut().map(|t| t.enter("rfchain.dut_build"));
            let tx = fixtures::paper_tx_seeded(TxImpairments::typical(), SYMBOLS, mix(seed, i));
            let unit = Unit {
                rf: tx.rf_output(),
                ideal: tx.ideal_rf_output(),
            };
            if let (Some(t), Some(open)) = (tr.as_mut(), open) {
                t.exit(open);
            }
            unit
        })
        .collect()
}

fn setup(seed: u64, mut tr: Option<&mut Tracer>) -> Result<Setup, BistError> {
    let engine = fixtures::paper_engine();
    let mask = fixtures::paper_mask();
    let units = build_units(seed, &mut tr);
    let mut scratch = BistScratch::new();
    // warm the scratch arena and the prepared scanner
    let u = &units[0];
    engine.try_run_with(&u.rf, &mask, Some(&u.ideal), &mut scratch)?;
    Ok(Setup {
        engine,
        mask,
        units,
        scratch,
    })
}

/// Sanity bounds every healthy paper verdict must meet: the LMS
/// converged and the reconstruction tracks the golden waveform.
fn plausible(r: &BistReport) -> bool {
    r.skew_ok
        && r.skew_abs_error() < 10e-12
        && r.reconstruction_error
            .is_some_and(|e| e.is_finite() && e < 0.05)
}

/// Quality figures over the distinct units' verdicts.
fn quality(first: &[Option<Result<BistReport, BistError>>], summary: &mut Summary) {
    let reports: Vec<&BistReport> = first.iter().flatten().flatten().collect();
    let n = reports.len() as f64;
    summary.false_alarm_share = reports.iter().filter(|r| !r.passed()).count() as f64 / n;
    summary.skew_err_max_ps = reports
        .iter()
        .map(|r| r.skew_abs_error() * 1e12)
        .fold(0.0, f64::max);
    summary.delta_eps_mean_pct = Some(
        reports
            .iter()
            .filter_map(|r| r.reconstruction_error)
            .sum::<f64>()
            / n
            * 100.0,
    );
}

pub fn run(env: &Env) -> Result<Outcome, BistError> {
    let (mut s, setup_s) = env.timed_setup(|| setup(env.seed, None))?;

    let mut first: Vec<Option<Result<BistReport, BistError>>> = vec![None; UNITS];
    let mut latency_ms = Vec::new();
    let (mut errors, mut mismatches, mut implausible) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < env.seconds {
        let u = &s.units[k % UNITS];
        let t = Instant::now();
        let r = s
            .engine
            .try_run_with(&u.rf, &s.mask, Some(&u.ideal), &mut s.scratch);
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match &r {
            Ok(rep) => implausible += u64::from(!plausible(rep)),
            Err(_) => errors += 1,
        }
        match &first[k % UNITS] {
            Some(seen) => mismatches += u64::from(*seen != r),
            None => first[k % UNITS] = Some(r),
        }
        k += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    // A fresh scratch must reproduce the warm-scratch verdicts.
    for (u, seen) in s.units.iter().zip(&first).take(4) {
        if let Some(seen) = seen {
            let fresh = s.engine.try_run(&u.rf, &s.mask, Some(&u.ideal));
            mismatches += u64::from(*seen != fresh);
        }
    }

    let mut summary = Summary::new(k as u64, errors);
    quality(&first, &mut summary);
    summary.check(
        mismatches == 0,
        format!("{mismatches} verdicts not reproducible"),
    );
    summary.check(
        implausible == 0,
        format!("{implausible} implausible healthy verdicts"),
    );
    summary.verdicts_per_s = k as f64 / elapsed;
    summary.p50_ms = median(&latency_ms);
    summary.p95_ms = percentile(&latency_ms, 0.95);
    summary.samples = latency_ms.len();
    summary.setup_s = setup_s;
    Ok(summary.into_outcome())
}

pub fn run_traced(env: &Env) -> Result<Outcome, BistError> {
    let mut tr = Tracer::new();
    let mut s = setup(env.seed, Some(&mut tr))?;
    let cfg = s.engine.config().clone();
    let mut rscratch = ReplicaScratch::default();
    // warm the replica's scanner like the engine's
    let u0 = &s.units[0];
    replica::verdict(
        &mut Tracer::new(),
        &cfg,
        &u0.rf,
        &s.mask,
        Some(&u0.ideal),
        &mut rscratch,
    )?;

    // Paired engine / traced-replica replay of the same units.
    let (mut engine_s, mut replica_s) = (0.0f64, 0.0f64);
    let mut mismatches = 0u64;
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < env.seconds {
        let u = &s.units[k % UNITS];
        let mut run_engine = |engine_s: &mut f64| {
            let t = Instant::now();
            let r = s
                .engine
                .try_run_with(&u.rf, &s.mask, Some(&u.ideal), &mut s.scratch);
            *engine_s += t.elapsed().as_secs_f64();
            r
        };
        let mut run_replica = |replica_s: &mut f64| {
            tr.set_verdict(k as u64);
            let t = Instant::now();
            let r = replica::verdict(&mut tr, &cfg, &u.rf, &s.mask, Some(&u.ideal), &mut rscratch);
            *replica_s += t.elapsed().as_secs_f64();
            r
        };
        let (e, r) = if k.is_multiple_of(2) {
            let e = run_engine(&mut engine_s);
            (e, run_replica(&mut replica_s))
        } else {
            let r = run_replica(&mut replica_s);
            (run_engine(&mut engine_s), r)
        };
        mismatches += u64::from(e != r);
        k += 1;
    }

    let mut summary = Summary::new(k as u64, 0);
    summary.check(
        mismatches == 0,
        format!("{mismatches} replica verdicts differ from the engine"),
    );
    Ok(summary.into_traced(&tr, None, replica_s / engine_s - 1.0))
}
