//! Integration test: the complete BIST pipeline across crates —
//! transmitter model → BP-TIADC capture → calibration → LMS skew
//! estimation → PNBS reconstruction → PSD → mask verdict.

use rfbist::prelude::*;

mod common;
use common::{paper_engine, paper_mask, paper_tx};

#[test]
fn healthy_unit_passes_with_margin() {
    let tx = paper_tx(TxImpairments::typical());
    let engine = paper_engine();
    let report = engine
        .try_run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap();
    assert!(report.passed(), "margin {}", report.mask.worst_margin_db);
    assert!(
        report.mask.worst_margin_db > 1.0,
        "needs real margin, not luck"
    );
    // skew recovered to ~1 ps against the DCDE ground truth
    assert!(report.skew_abs_error() < 2e-12);
    // reconstruction quality in the paper's ballpark (Δε ≈ 1–2 %)
    let eps = report.reconstruction_error.expect("reference provided");
    assert!(eps < 0.03, "delta_eps {eps}");
}

#[test]
fn compressing_pa_fails_mask_and_healthy_margin_orders_by_severity() {
    let engine = paper_engine();
    let mask = paper_mask();
    let margin = |vf: f64| {
        let imp = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: vf })
            .inject(TxImpairments::typical());
        let tx = paper_tx(imp);
        engine
            .try_run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
            .unwrap()
            .mask
            .worst_margin_db
    };
    let healthy = {
        let tx = paper_tx(TxImpairments::typical());
        engine
            .try_run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
            .unwrap()
            .mask
            .worst_margin_db
    };
    let mild = margin(0.4);
    let severe = margin(0.05);
    assert!(severe < mild, "severe {severe} !< mild {mild}");
    assert!(mild < healthy, "mild {mild} !< healthy {healthy}");
    assert!(
        severe < 0.0,
        "gross compression must fail the mask: {severe}"
    );
}

#[test]
fn in_band_faults_are_caught_by_golden_comparison() {
    let engine = paper_engine();
    let mask = paper_mask();
    let healthy_tx = paper_tx(TxImpairments::typical());
    let healthy_eps = engine
        .try_run(
            &healthy_tx.rf_output(),
            &mask,
            Some(&healthy_tx.ideal_rf_output()),
        )
        .unwrap()
        .reconstruction_error
        .expect("reference provided");

    // a gross IQ imbalance stays inside the occupied band...
    let imp =
        Fault::new(FaultKind::IqGainImbalance { gain_db: 3.0 }).inject(TxImpairments::typical());
    let tx = paper_tx(imp);
    let report = engine
        .try_run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
        .unwrap();
    // ...so the emission mask alone does not flag it...
    assert!(
        report.passed(),
        "IQ imbalance should not trip an emission mask"
    );
    // ...but the golden-waveform deviation does.
    let eps = report.reconstruction_error.expect("reference provided");
    assert!(
        eps > 3.0 * healthy_eps,
        "golden comparison must flag the fault: {eps} vs healthy {healthy_eps}"
    );
}

#[test]
fn engine_is_deterministic() {
    let tx = paper_tx(TxImpairments::typical());
    let engine = paper_engine();
    let a = engine
        .try_run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap();
    let b = engine
        .try_run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap();
    assert_eq!(a.skew.delay, b.skew.delay);
    assert_eq!(a.mask.worst_margin_db, b.mask.worst_margin_db);
    assert_eq!(a.reconstruction_error, b.reconstruction_error);
}
