//! Equivalence contract of the two mask-verdict paths on the paper's
//! Section V fixtures: the banked-Goertzel [`MaskScanEngine`] must
//! agree with the preserved FFT-Welch reference to well within 0.5 dB
//! worst-margin — in practice they probe the same Welch bins with the
//! same window and normalization, so agreement is at numerical noise.

use rfbist::prelude::*;
use rfbist_core::bist::welch_segmentation;
use rfbist_dsp::psd::welch;
use rfbist_dsp::window::Window;
use rfbist_signal::traits::ContinuousSignal;

mod common;
use common::{paper_mask, paper_tx, PAPER_CARRIER};

/// The Section V waveform the verdict paths consume: the transmitter
/// output sampled on the engine's default 4 GHz analysis grid.
fn section_v_wave(imp: TxImpairments, n: usize) -> Vec<f64> {
    let tx = paper_tx(imp);
    tx.rf_output().sample_uniform(1.0e-6, 1.0 / 4e9, n)
}

fn both_verdicts(wave: &[f64]) -> (rfbist_core::MaskReport, rfbist_core::MaskReport) {
    let mask = paper_mask();
    let (seg, overlap) = welch_segmentation(wave.len());
    let scan = MaskScanEngine::try_build(
        &mask,
        PAPER_CARRIER,
        4e9,
        seg,
        overlap,
        Window::BlackmanHarris,
        None,
    )
    .unwrap();
    let banked = scan.try_scan(wave).unwrap();
    let psd = welch(wave, 4e9, seg, overlap, Window::BlackmanHarris);
    let reference = mask.try_check(&psd, PAPER_CARRIER).unwrap();
    (banked, reference)
}

#[test]
fn healthy_unit_verdicts_agree_within_half_db() {
    let wave = section_v_wave(TxImpairments::typical(), 12288);
    let (banked, reference) = both_verdicts(&wave);
    assert!(banked.passed && reference.passed);
    assert!(
        (banked.worst_margin_db - reference.worst_margin_db).abs() <= 0.5,
        "margins {} vs {}",
        banked.worst_margin_db,
        reference.worst_margin_db
    );
    // the paths probe identical bins, so agreement is actually at
    // numerical-noise level, far inside the contract
    assert!(
        (banked.worst_margin_db - reference.worst_margin_db).abs() < 1e-6,
        "margins {} vs {}",
        banked.worst_margin_db,
        reference.worst_margin_db
    );
    assert_eq!(banked.worst_frequency_hz, reference.worst_frequency_hz);
}

#[test]
fn regrowth_fault_verdicts_agree_and_truncation_is_visible() {
    let faulty = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.03 })
        .inject(TxImpairments::typical());
    let wave = section_v_wave(faulty, 12288);
    let (banked, reference) = both_verdicts(&wave);
    assert!(!banked.passed && !reference.passed);
    assert!(
        (banked.worst_margin_db - reference.worst_margin_db).abs() <= 0.5,
        "margins {} vs {}",
        banked.worst_margin_db,
        reference.worst_margin_db
    );
    assert_eq!(banked.violation_count, reference.violation_count);
    assert_eq!(banked.violations.len(), reference.violations.len());
    // the wideband regrowth of a grossly compressed PA violates far
    // more bins than the report carries — the total must say so
    assert!(
        banked.violation_count > banked.violations.len(),
        "expected truncation: {} total, {} reported",
        banked.violation_count,
        banked.violations.len()
    );
    assert_eq!(banked.violations.len(), 64);
}

#[test]
fn engine_strategies_agree_end_to_end() {
    // full pipeline (capture → calibrate → LMS → reconstruct → verdict)
    // under both strategies; the reconstruction is identical, so the
    // verdicts differ only by the scan path
    let tx = paper_tx(TxImpairments::typical());
    let banked = BistEngine::new(BistConfig::paper_default());
    let fft =
        BistEngine::new(BistConfig::paper_default().with_scan_strategy(ScanStrategy::FftWelch));
    let a = banked
        .try_run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap();
    let b = fft
        .try_run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap();
    assert_eq!(
        a.skew.delay, b.skew.delay,
        "scan choice must not touch skew"
    );
    assert_eq!(a.reconstruction_error, b.reconstruction_error);
    assert_eq!(a.mask.passed, b.mask.passed);
    assert!(
        (a.mask.worst_margin_db - b.mask.worst_margin_db).abs() <= 0.5,
        "margins {} vs {}",
        a.mask.worst_margin_db,
        b.mask.worst_margin_db
    );
}

#[test]
fn scan_probes_a_small_bin_subset() {
    let mask = paper_mask();
    let (seg, overlap) = welch_segmentation(12288);
    let scan = MaskScanEngine::try_build(
        &mask,
        PAPER_CARRIER,
        4e9,
        seg,
        overlap,
        Window::BlackmanHarris,
        None,
    )
    .unwrap();
    let full_bins = seg / 2 + 1;
    assert!(
        scan.probed_bins() * 10 < full_bins,
        "{} of {} bins",
        scan.probed_bins(),
        full_bins
    );
}
