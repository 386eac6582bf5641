//! Integration tests for the fault-coverage campaign and the wideband
//! skew-calibration fix.
//!
//! The headline regression: a GSM-shaped 270.833 ksym/s stimulus is so
//! narrowband that the dual-rate cost surface (paper eq. 8) goes flat
//! in the skew direction — the LMS *converges* (small residual, the
//! gate cannot tell) to an estimate ~170 ps off the true 2.5 ns DCDE
//! delay while the emission mask still passes at +30 dB margin. A
//! wideband calibration burst through the same hardware recovers the
//! skew to the sub-picosecond floor; the campaign reuses that estimate
//! for every narrowband verdict.

use rfbist::prelude::*;
use rfbist_core::campaign::CALIBRATION_SYMBOL_RATE;

/// The GSM-like deployment row (fc = 100 MHz, D = 2.5 ns).
fn gsm_deployment() -> Deployment {
    let dep = Deployment::builtin_five()
        .into_iter()
        .find(|d| d.standard == "gsm-like-270k")
        .expect("builtin library carries the GSM-like standard");
    assert!((dep.delay_target() - 2.5e-9).abs() < 1e-15);
    dep
}

/// Narrowband GSM-shaped payload covering the deployment's capture.
fn gsm_stimulus(dep: &Deployment, seed: u64) -> HomodyneTx<ShapedBaseband> {
    let standard = MaskLibrary::builtin();
    let standard = standard.get(&dep.standard).unwrap();
    let cfg = dep.try_bist_config().unwrap();
    let span = (cfg.fast_start as f64 + dep.fast_len as f64) / 90e6 * 1.2;
    let n_sym = ((span * standard.symbol_rate) as usize + 30).max(96);
    let bb = ShapedBaseband::qpsk_prbs(standard.symbol_rate, standard.rolloff, 12, n_sym, seed);
    HomodyneTx::builder(bb, dep.carrier_hz)
        .impairments(TxImpairments::typical())
        .build()
}

#[test]
fn narrowband_stimulus_leaves_lms_skew_wrong_but_masks_pass() {
    let dep = gsm_deployment();
    let tx = gsm_stimulus(&dep, 0xACE1);
    let engine = BistEngine::new(dep.try_bist_config().unwrap());
    let mask = MaskLibrary::builtin()
        .get(&dep.standard)
        .unwrap()
        .mask
        .clone();
    let report = engine
        .try_run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
        .unwrap();
    // this is the bug being pinned: the verdict is green...
    assert!(report.mask.passed, "margin {}", report.mask.worst_margin_db);
    assert!(report.skew_ok, "the residual gate cannot see this failure");
    // ...while the skew estimate is off by two orders of magnitude
    // more than the hardware floor (measured: ~166 ps)
    assert!(
        report.skew_abs_error() > 50e-12,
        "narrowband skew error {} ps — if the flat-cost trap no longer \
         reproduces, retire the calibration-burst rationale",
        report.skew_abs_error() * 1e12
    );
}

#[test]
fn wideband_calibration_burst_fixes_the_narrowband_skew() {
    let dep = gsm_deployment();
    let cfg = dep.try_bist_config().unwrap();
    let span = (cfg.fast_start as f64 + dep.fast_len as f64) / 90e6 * 1.2;
    let n_sym = ((span * CALIBRATION_SYMBOL_RATE) as usize + 30).max(96);
    let burst_bb = ShapedBaseband::qpsk_prbs(CALIBRATION_SYMBOL_RATE, 0.5, 12, n_sym, 0xACE1);
    let burst = HomodyneTx::builder(burst_bb, dep.carrier_hz)
        .impairments(TxImpairments::typical())
        .build();
    let est = BistEngine::new(cfg.clone())
        .try_calibrate_skew(&burst.rf_output())
        .unwrap();
    // the wideband estimate itself hits the hardware floor
    assert!(
        (est.delay - dep.delay_target()).abs() < 2.5e-12,
        "calibration burst estimate off by {} ps",
        (est.delay - dep.delay_target()).abs() * 1e12
    );

    // and the narrowband verdict run, reusing it, now reports a
    // correct skew alongside its green mask
    let tx = gsm_stimulus(&dep, 0xACE1);
    let mask = MaskLibrary::builtin()
        .get(&dep.standard)
        .unwrap()
        .mask
        .clone();
    let engine = BistEngine::new(cfg.try_with_calibrated_skew(est.delay).unwrap());
    let report = engine
        .try_run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
        .unwrap();
    assert!(report.passed());
    assert!(
        report.skew_abs_error() < 2.5e-12,
        "calibrated skew error {} ps",
        report.skew_abs_error() * 1e12
    );
}

#[test]
fn lifted_masks_hold_headroom_across_payloads() {
    // The two thin-margin standards used to clear their masks by well
    // under 1 dB on some payload realizations — one unlucky PRBS away
    // from condemning a healthy unit. Their far segments are now
    // floor-lifted to the eq. 4 jitter pedestal plus an explicit
    // headroom, so the worst healthy margin across payloads must stay
    // clearly positive. If this fails, re-derive the lift in
    // `MaskLibrary::builtin` rather than loosening the bound.
    let thin = ["lte5-like", "wb-20msym-srrc0.35"];
    let library = MaskLibrary::builtin();
    for name in thin {
        let dep = Deployment::builtin_five()
            .into_iter()
            .find(|d| d.standard == name)
            .expect("thin-margin deployment exists");
        let standard = library.get(name).expect("library standard");
        let cfg = dep
            .try_bist_config()
            .unwrap()
            .try_with_calibrated_skew(dep.delay_target())
            .unwrap();
        let span = (cfg.fast_start as f64 + dep.fast_len as f64) / 90e6 * 1.2;
        let n_sym = ((span * standard.symbol_rate) as usize + 30).max(96);
        let engine = BistEngine::new(cfg);
        let mut worst = f64::INFINITY;
        for seed in [0xACE1u64, 0xBEEF, 0x51DE] {
            let bb =
                ShapedBaseband::qpsk_prbs(standard.symbol_rate, standard.rolloff, 12, n_sym, seed);
            let tx = HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(TxImpairments::typical())
                .build();
            let report = engine
                .try_run(&tx.rf_output(), &standard.mask, Some(&tx.ideal_rf_output()))
                .unwrap();
            assert!(
                report.passed(),
                "healthy {name} unit condemned at seed {seed:#x} \
                 (margin {:.2} dB)",
                report.mask.worst_margin_db
            );
            worst = worst.min(report.mask.worst_margin_db);
        }
        assert!(
            worst >= 1.0,
            "{name}: worst healthy margin {worst:.2} dB across payloads — \
             the floor-lifted mask no longer holds its headroom"
        );
    }
}

#[test]
fn quick_campaign_covers_all_standards_without_false_alarms() {
    let matrix = try_run_campaign(&CampaignConfig::quick()).unwrap();
    assert_eq!(matrix.standards.len(), 5, "all five standards scored");
    for s in &matrix.standards {
        assert_eq!(s.false_alarms, 0, "healthy {} unit condemned", s.standard);
        assert_eq!(
            s.detected(),
            s.fault_runs(),
            "a gross fault escaped on {}",
            s.standard
        );
    }
    assert_eq!(matrix.gross_detection_rate(), 1.0);
    assert_eq!(matrix.overall_false_alarm_rate(), 0.0);
    // every verdict ran on a calibrated front-end: skew at the
    // picosecond hardware floor even for the GSM-like narrowband cell
    assert!(
        matrix.worst_skew_error() < 2.5e-12,
        "worst skew error {} ps",
        matrix.worst_skew_error() * 1e12
    );
}
