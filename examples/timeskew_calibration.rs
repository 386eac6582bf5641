//! Time-skew estimation walkthrough: the paper's core algorithm, step
//! by step — captures, cost-function sweep, LMS descent, and a
//! comparison against the sine-fit baseline.
//!
//! ```sh
//! cargo run --release --example timeskew_calibration
//! ```

use rfbist::prelude::*;

fn main() -> Result<(), BistError> {
    let dual = DualRateConfig::paper_section_v();
    println!(
        "Plan: fc = 1 GHz, B = {} MHz (k+ = {}), B1 = {} MHz (k1+ = {}), m = {:.1} ps",
        dual.fast_rate() / 1e6,
        dual.fast_band().k_plus(),
        dual.slow_rate() / 1e6,
        dual.slow_band().k_plus(),
        dual.m_bound() * 1e12
    );

    // Mission-mode stimulus (no dedicated test tone needed for LMS).
    let tx = rfbist::fixtures::paper_stimulus(96);

    // Capture the same output at the two rates with the 10-bit,
    // 3 ps-jitter front-end. The DCDE is programmed to 180 ps but the
    // algorithms never read it.
    let mut fast = BpTiadc::new(BpTiadcConfig::paper_section_v(dual.delay()));
    let mut slow = BpTiadc::new(
        BpTiadcConfig::paper_section_v(dual.delay())
            .with_sample_rate(dual.slow_rate())
            .with_seed(0x51DE),
    );
    let cost = DualRateCost::try_paper_probes(
        fast.capture(&tx, 80, 260),
        slow.capture(&tx, 40, 160),
        dual,
        300,
        42,
    )?;

    // Fig. 5 in miniature: the cost has a single sharp minimum at D.
    println!("\ncost-function samples (D_hat -> cost):");
    for d_ps in [100.0, 140.0, 170.0, 180.0, 190.0, 220.0, 300.0] {
        println!("  {:>6.1} ps -> {:.3e}", d_ps, cost.evaluate(d_ps * 1e-12));
    }

    // Algorithm 1 from two starting points.
    println!("\nLMS descent:");
    for d0 in [50e-12, 400e-12] {
        let run = estimate_skew_lms(&cost, LmsConfig::paper_default(d0));
        println!(
            "  D0 = {:>5.1} ps: D_hat = {:.3} ps after {} iterations (cost {:.3e})",
            d0 * 1e12,
            run.estimate * 1e12,
            run.iterations,
            run.cost
        );
    }

    // Baseline: sine-fit on a known tone, at the paper's two placements.
    println!("\nsine-fit baseline (needs a known test tone):");
    for ratio in [0.4, 0.46] {
        let f_rf = test_tone_for_ratio(1e9, dual.fast_rate(), ratio);
        let mut adc = BpTiadc::new(BpTiadcConfig::paper_section_v(dual.delay()));
        let cap = adc.capture(&Tone::new(f_rf, 0.9, 0.37), 0, 300);
        let est = estimate_skew_jamal(&cap, f_rf);
        println!(
            "  w0 = {ratio}B ({:.1} MHz RF): D_hat = {:.3} ps",
            f_rf / 1e6,
            est.delay * 1e12
        );
    }
    Ok(())
}
