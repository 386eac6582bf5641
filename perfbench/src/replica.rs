//! The traced replica of one verdict: `BistEngine::try_run_with`
//! (streaming `BankedGoertzel` path) and `try_calibrate_skew`, replayed
//! stage by stage through the same public functions the engine calls,
//! with a span around each call.
//!
//! The replica must reproduce the engine's report bit for bit; the
//! workloads compare every replayed report against the engine's and
//! fail the run on any difference. It always feeds reconstruction
//! blocks in-thread, which the engine guarantees is bit-identical to
//! its parallel producer feed.

use crate::trace::Tracer;
use rfbist_converter::bptiadc::BpTiadc;
use rfbist_converter::calibration::auto_calibrate;
use rfbist_core::bist::{welch_segmentation, BistConfig, ProbeSchedule, ScanStrategy};
use rfbist_core::cost::DualRateCost;
use rfbist_core::error::BistError;
use rfbist_core::health::CaptureHealth;
use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
use rfbist_core::mask::SpectralMask;
use rfbist_core::report::BistReport;
use rfbist_core::scan::{MaskScanEngine, ScanFeed, StreamScratch};
use rfbist_core::skew::SkewEstimate;
use rfbist_dsp::window::Window;
use rfbist_sampling::gridplan::GridScratch;
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::traits::ContinuousSignal;

/// The replica's reusable buffers, mirroring the engine's
/// `BistScratch`: grid and stream scratch plus the prepared scanner,
/// cached against the same key the engine uses.
#[derive(Default)]
pub struct ReplicaScratch {
    grid: GridScratch,
    stream: StreamScratch,
    scan: Option<CachedScan>,
}

struct CachedScan {
    mask: SpectralMask,
    carrier_hz: f64,
    fs: f64,
    segment_len: usize,
    overlap: usize,
    noise_band: Option<(f64, f64)>,
    engine: MaskScanEngine,
}

/// Capture → health scan → offset/gain calibration of one channel.
fn capture_channel<S: ContinuousSignal>(
    tr: &mut Tracer,
    adc: &mut BpTiadc,
    dut: &S,
    start: i64,
    len: usize,
    cfg: &BistConfig,
    fast: bool,
) -> Result<(NonuniformCapture, CaptureHealth), BistError> {
    let frontend = if fast {
        &cfg.frontend_fast
    } else {
        &cfg.frontend_slow
    };
    let raw = tr.span("converter.capture", |_| adc.capture(dut, start, len));
    tr.count("converter.samples", 2.0 * raw.len() as f64);
    let health = tr.span("health.scan", |_| {
        CaptureHealth::scan(&raw, frontend, &cfg.health)
    })?;
    let (cal, _) = tr.span("converter.calibrate", |_| auto_calibrate(&raw));
    Ok((cal, health))
}

/// Dual-rate cost construction and the LMS search on calibrated
/// captures.
fn lms_skew(
    tr: &mut Tracer,
    cfg: &BistConfig,
    fast_cap: NonuniformCapture,
    slow_cap: NonuniformCapture,
) -> Result<(SkewEstimate, bool), BistError> {
    let cost = tr.span("cost.build", |_| {
        DualRateCost::try_probe_window(&fast_cap, &slow_cap, &cfg.dual)
            .map_err(|reason| BistError::CaptureTooShort { reason })?;
        match cfg.probe_schedule {
            ProbeSchedule::Random => DualRateCost::try_paper_probes(
                fast_cap,
                slow_cap,
                cfg.dual,
                cfg.probe_count,
                cfg.probe_seed,
            ),
            ProbeSchedule::UniformGrid => {
                DualRateCost::try_grid_probes(fast_cap, slow_cap, cfg.dual, cfg.probe_count)
            }
        }
    })?;
    let lms = tr.span("lms", |_| {
        estimate_skew_lms(&cost, LmsConfig::paper_default(cfg.lms_initial))
    });
    tr.count("lms.runs", 1.0);
    tr.count("lms.iterations", lms.iterations as f64);
    tr.count("lms.converged", f64::from(u8::from(lms.converged)));
    let ok = (!cfg.skew_gate.require_convergence || lms.converged)
        && cfg
            .skew_gate
            .max_residual_cost
            .is_none_or(|max| lms.cost <= max);
    Ok((lms.to_estimate(), ok))
}

/// Replays `BistEngine::try_calibrate_skew` under a
/// `campaign.calibrate` span.
pub fn calibrate<S: ContinuousSignal>(
    tr: &mut Tracer,
    cfg: &BistConfig,
    stimulus: &S,
) -> Result<SkewEstimate, BistError> {
    let open = tr.enter("campaign.calibrate");
    let out = (|| {
        let mut fast_adc = BpTiadc::new(cfg.frontend_fast);
        let mut slow_adc = BpTiadc::new(cfg.frontend_slow);
        let (fast_cap, _) = capture_channel(
            tr,
            &mut fast_adc,
            stimulus,
            cfg.fast_start,
            cfg.fast_len,
            cfg,
            true,
        )?;
        let (slow_cap, _) = capture_channel(
            tr,
            &mut slow_adc,
            stimulus,
            cfg.slow_start,
            cfg.slow_len,
            cfg,
            false,
        )?;
        Ok(lms_skew(tr, cfg, fast_cap, slow_cap)?.0)
    })();
    tr.exit(open);
    out
}

/// Replays `BistEngine::try_run_with` under a `bist.verdict` span.
pub fn verdict<S: ContinuousSignal, R: ContinuousSignal>(
    tr: &mut Tracer,
    cfg: &BistConfig,
    dut: &S,
    mask: &SpectralMask,
    reference: Option<&R>,
    scratch: &mut ReplicaScratch,
) -> Result<BistReport, BistError> {
    let open = tr.enter("bist.verdict");
    let out = verdict_stages(tr, cfg, dut, mask, reference, scratch);
    tr.exit(open);
    tr.count("verdicts", 1.0);
    tr.count("verdict_errors", f64::from(u8::from(out.is_err())));
    out
}

fn verdict_stages<S: ContinuousSignal, R: ContinuousSignal>(
    tr: &mut Tracer,
    cfg: &BistConfig,
    dut: &S,
    mask: &SpectralMask,
    reference: Option<&R>,
    scratch: &mut ReplicaScratch,
) -> Result<BistReport, BistError> {
    if cfg.scan_strategy != ScanStrategy::BankedGoertzel {
        return Err(BistError::InvalidConfig {
            reason: "the traced replica covers the streaming BankedGoertzel path only".into(),
        });
    }
    let mut fast_adc = BpTiadc::new(cfg.frontend_fast);
    let (fast_cap, capture_health) = capture_channel(
        tr,
        &mut fast_adc,
        dut,
        cfg.fast_start,
        cfg.fast_len,
        cfg,
        true,
    )?;

    let (skew, skew_ok) = match cfg.calibrated_skew {
        Some(delay) => (SkewEstimate::from_delay(delay), true),
        None => {
            let mut slow_adc = BpTiadc::new(cfg.frontend_slow);
            let (slow_cap, _) = capture_channel(
                tr,
                &mut slow_adc,
                dut,
                cfg.slow_start,
                cfg.slow_len,
                cfg,
                false,
            )?;
            lms_skew(tr, cfg, fast_cap.clone(), slow_cap)?
        }
    };

    let gp = tr.enter("gridplan");
    let rec =
        PnbsReconstructor::new_unchecked(cfg.dual.fast_band(), skew.delay, 61, Window::Kaiser(8.0));
    let coverage = rec.coverage(&fast_cap);
    tr.exit(gp);
    let Some((lo, hi)) = coverage else {
        return Err(BistError::CaptureTooShort {
            reason: "fast capture too short for reconstruction".to_string(),
        });
    };
    let dt = 1.0 / cfg.grid_rate;
    let usable = ((hi - lo) / dt) as usize;
    if usable == 0 {
        return Err(BistError::CaptureTooShort {
            reason: "capture too short for the analysis grid".to_string(),
        });
    }
    let n_grid = cfg.grid_len.min(usable);
    let (seg, overlap) = welch_segmentation(n_grid);
    let carrier = cfg.dual.fast_band().center();
    let noise_band = cfg.noise_figure.map(|nf| (nf.offset_lo, nf.offset_hi));

    let ReplicaScratch { grid, stream, scan } = scratch;
    let engine = tr.span("scan.build", |_| {
        scan_engine_cached(scan, mask, carrier, cfg.grid_rate, seg, overlap, noise_band)
    })?;
    let mut scanner = tr.span("scan.push", |_| engine.stream(stream, cfg.early_verdict));
    let (mut err_num, mut err_den) = (0.0f64, 0.0f64);
    let mut produced = 0usize;
    let gp = tr.enter("gridplan");
    let mut blocks = rec.reconstruct_blocks(&fast_cap, lo, dt, n_grid, grid);
    tr.exit(gp);
    loop {
        let gp = tr.enter("gridplan");
        let next = blocks.next_block();
        tr.exit(gp);
        let Some(block) = next else { break };
        let start = produced;
        produced += block.len();
        tr.count("gridplan.blocks", 1.0);
        if let Some(r) = reference {
            let g = tr.enter("golden");
            for (i, &v) in block.iter().enumerate() {
                let rv = r.eval(lo + (start + i) as f64 * dt);
                err_num += (v - rv) * (v - rv);
                err_den += rv * rv;
            }
            tr.exit(g);
            tr.count("golden.points", block.len() as f64);
        }
        let feed = tr.span("scan.push", |_| scanner.push(block));
        if feed != ScanFeed::Continue {
            break;
        }
    }
    tr.count("gridplan.points", produced as f64);
    tr.count("scan.points_skipped", (n_grid - produced) as f64);
    let early_exit = scanner.early_stopped();
    tr.count("scan.early_exits", f64::from(u8::from(early_exit)));
    tr.count("scan.segments", scanner.segments_completed() as f64);
    let noise_density = scanner.noise_density_dbhz();
    let mask_report = tr.span("scan.push", |_| scanner.try_finish())?;
    let reconstruction_error = reference.map(|_| {
        if err_den == 0.0 {
            if err_num == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (err_num / err_den).sqrt()
        }
    });
    let (noise_figure_db, nf_ok) = match (cfg.noise_figure, noise_density) {
        (Some(nf), Some(density)) => {
            let figure = density - nf.reference_density_dbhz;
            (Some(figure), nf.max_nf_db.is_none_or(|max| figure <= max))
        }
        _ => (None, true),
    };
    Ok(BistReport {
        skew,
        true_delay: fast_adc.true_delay(),
        mask: mask_report,
        reconstruction_error,
        early_exit,
        skew_ok,
        noise_figure_db,
        nf_ok,
        capture_health: Some(capture_health),
        stream_recovery: None,
    })
}

/// The engine's scanner cache: rebuild only when the mask, scan
/// geometry or noise band changed since the last verdict.
#[allow(clippy::too_many_arguments)]
fn scan_engine_cached<'a>(
    cache: &'a mut Option<CachedScan>,
    mask: &SpectralMask,
    carrier_hz: f64,
    fs: f64,
    segment_len: usize,
    overlap: usize,
    noise_band: Option<(f64, f64)>,
) -> Result<&'a MaskScanEngine, BistError> {
    let hit = matches!(
        cache,
        Some(e)
            if e.mask == *mask
                && e.carrier_hz == carrier_hz
                && e.fs == fs
                && e.segment_len == segment_len
                && e.overlap == overlap
                && e.noise_band == noise_band
    );
    if !hit {
        *cache = None;
        let engine = MaskScanEngine::try_build(
            mask,
            carrier_hz,
            fs,
            segment_len,
            overlap,
            Window::BlackmanHarris,
            noise_band,
        )?;
        *cache = Some(CachedScan {
            mask: mask.clone(),
            carrier_hz,
            fs,
            segment_len,
            overlap,
            noise_band,
            engine,
        });
    }
    cache
        .as_ref()
        .map(|e| &e.engine)
        .ok_or(BistError::InvalidConfig {
            reason: "scan cache empty after a successful build".into(),
        })
}
