//! Multistandard flexibility: the property that motivates PNBS over
//! uniform bandpass sampling — and, since the streaming refactor, the
//! property the [`MaskLibrary`] makes testable end to end. The same
//! two-ADC sampler (both channels fixed at B = 90 MHz) hops across
//! five named standards; per standard only software retunes: the DCDE
//! delay target, the analysis grid (rate and length chosen for the
//! mask's resolution bandwidth) and the emission mask pulled from the
//! library. The deployment table lives in `rfbist_core::campaign` —
//! the same rows the fault-coverage campaign sweeps.
//!
//! Each deployment first fires a wideband calibration burst
//! ([`BistEngine::calibrate_skew`]) and reuses the skew estimate for
//! its verdict. This matters for the GSM-like row: its 270.833 ksym/s
//! stimulus is too narrowband to excite the dual-rate cost (the LMS
//! converges ~170 ps off while the mask still passes); the burst
//! measures the same hardware with a 10 Msym/s payload and nails the
//! skew to the picosecond floor.
//!
//! ```sh
//! cargo run --release --example multistandard_sweep
//! ```

use rfbist::prelude::*;
use rfbist::sampling::pbs;
use rfbist_core::campaign::{CALIBRATION_SYMBOL_RATE, CAMPAIGN_B};

fn main() -> Result<(), BistError> {
    let library = MaskLibrary::builtin();
    println!(
        "fixed BP-TIADC: two channels at B = {} MHz; per standard only software\n\
         retunes — DCDE target D = 1/(4 fc), analysis grid from the mask's RBW,\n\
         emission mask from the library ({} standards); skew calibrated per\n\
         deployment on a {} Msym/s wideband burst\n",
        CAMPAIGN_B / 1e6,
        library.len(),
        CALIBRATION_SYMBOL_RATE / 1e6,
    );
    println!(
        "{:<22} {:>9} {:>9} {:>10} {:>8} {:>13} {:>10} {:>13} {:>14}",
        "standard",
        "fc [MHz]",
        "D [ps]",
        "RBW [kHz]",
        "verdict",
        "margin [dB]",
        "Δε [%]",
        "skew err [ps]",
        "PBS needs ≈MHz"
    );

    // Each standard is independent: scoped worker threads, rows
    // printed in deployment order once all have joined. The payload is
    // the fault-coverage campaign's trial-0 PRBS, so this sweep shows
    // exactly the healthy baseline the campaign scores.
    let payload_seed = CampaignConfig::quick().trial_seed(0);
    let deps = Deployment::builtin_five();
    let rows: Vec<String> = std::thread::scope(|scope| {
        // Each worker returns Result: a bad capture in any deployment
        // surfaces as a typed BistError instead of unwinding a thread.
        let handles: Vec<_> = deps
            .iter()
            .map(|dep| {
                let library = &library;
                scope.spawn(move || {
                    let std = library
                        .get(&dep.standard)
                        .expect("deployment names a library standard");
                    let base = dep.try_bist_config()?;
                    let span =
                        (base.fast_start as f64 + base.fast_len as f64) / CAMPAIGN_B * 1.2;

                    // Wideband calibration burst through the same
                    // hardware; the estimate carries into the verdict.
                    let n_cal = ((span * CALIBRATION_SYMBOL_RATE) as usize + 30).max(96);
                    let burst_bb =
                        ShapedBaseband::qpsk_prbs(CALIBRATION_SYMBOL_RATE, 0.5, 12, n_cal, 0xACE1);
                    let burst = HomodyneTx::builder(burst_bb, dep.carrier_hz)
                        .impairments(TxImpairments::typical())
                        .build();
                    let est =
                        BistEngine::new(base.clone()).try_calibrate_skew(&burst.rf_output())?;
                    let engine = BistEngine::new(base.try_with_calibrated_skew(est.delay)?);

                    // Stimulus long enough for the capture span.
                    let n_sym = ((span * std.symbol_rate) as usize + 30).max(96);
                    let bb = ShapedBaseband::qpsk_prbs(
                        std.symbol_rate,
                        std.rolloff,
                        12,
                        n_sym,
                        payload_seed,
                    );
                    let tx = HomodyneTx::builder(bb, dep.carrier_hz)
                        .impairments(TxImpairments::typical())
                        .build();
                    let report =
                        engine.try_run(&tx.rf_output(), &std.mask, Some(&tx.ideal_rf_output()))?;

                    // What uniform bandpass sampling would demand for
                    // this standard's occupied band.
                    let occupied = BandSpec::centered(
                        dep.carrier_hz,
                        std.symbol_rate * (1.0 + std.rolloff),
                    );
                    let fs_min = pbs::minimum_rate(occupied);
                    let (seg, _) = rfbist::core::bist::welch_segmentation(dep.grid_len);

                    Ok(format!(
                        "{:<22} {:>9.0} {:>9.1} {:>10.1} {:>8} {:>+13.2} {:>10.2} {:>13.3} {:>14.1}",
                        std.name(),
                        dep.carrier_hz / 1e6,
                        dep.delay_target() * 1e12,
                        dep.grid_rate / seg as f64 / 1e3,
                        if report.passed() { "PASS" } else { "FAIL" },
                        report.mask.worst_margin_db,
                        report.reconstruction_error.unwrap() * 100.0,
                        report.skew_abs_error() * 1e12,
                        fs_min / 1e6,
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("standard sweep worker panicked"))
            .collect::<Result<Vec<String>, BistError>>()
    })?;
    for row in rows {
        println!("{row}");
    }

    // The streaming early verdict: a grossly compressed PA on the
    // paper standard is decided at the first completed Welch segment,
    // before two thirds of the reconstruction is ever produced.
    let dep = &deps[1];
    let std = library.get(&dep.standard).unwrap();
    let engine = BistEngine::new(
        dep.try_bist_config()?
            .with_early_verdict(EarlyVerdict::paper_default()),
    );
    let bb = ShapedBaseband::qpsk_prbs(std.symbol_rate, std.rolloff, 12, 160, 0xACE1);
    let faulty = HomodyneTx::builder(bb, dep.carrier_hz)
        .impairments(
            Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.05 })
                .inject(TxImpairments::typical()),
        )
        .build();
    let report = engine.try_run(
        &faulty.rf_output(),
        &std.mask,
        None::<&BandpassSignal<ShapedBaseband>>,
    )?;
    println!(
        "\nstreaming early verdict (weak-PA unit, {} mask): {} with margin {:+.1} dB, \n\
         early_exit = {} — reconstruction stopped at the first completed segment",
        std.name(),
        if report.passed() { "PASS" } else { "FAIL" },
        report.mask.worst_margin_db,
        report.early_exit,
    );

    println!(
        "\nPNBS + the mask library test every configuration from the same fixed-rate\n\
         hardware; PBS would need a different, precisely-placed clock per standard."
    );
    Ok(())
}
