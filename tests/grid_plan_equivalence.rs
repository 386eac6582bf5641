//! Equivalence suite for the grid-aware PNBS reconstruction engine:
//! `PnbsGridPlan::reconstruct_grid` (cross-point rotor reuse, factored
//! per-sample phasor tables, node-aligned window table) must match both
//! the per-point planned path (`PnbsPlan` / `reconstruct_batch`) and
//! the preserved direct eq. 6 evaluation (`*_reference`) to ≤ 1e-9 on
//! the paper's Section V fixtures — including long grids that exercise
//! the grid-step rotors' renormalization/re-seed machinery, grids that
//! land exactly on sample instants (the kernel-origin branch), and
//! random band/delay/step combinations.

mod common;

use proptest::prelude::*;
use rfbist::dsp::window::Window;
use rfbist::math::stats::nrmse;
use rfbist::prelude::*;
use rfbist::sampling::kohlenberg::check_delay;

const FC: f64 = 1e9;
const B: f64 = 90e6;
const D: f64 = 180e-12;
/// The suite's equivalence budget (the ISSUE's acceptance bound).
const TOL: f64 = 1e-9;

fn band() -> BandSpec {
    BandSpec::centered(FC, B)
}

fn grid_times(t0: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| t0 + i as f64 * step).collect()
}

/// Asserts grid-plan, per-point-planned and reference agreement on one
/// capture over the uniform grid `t0, t0 + step, …`.
fn assert_grid_equivalent(
    rec: &PnbsReconstructor,
    cap: &NonuniformCapture,
    t0: f64,
    step: f64,
    n: usize,
) {
    let mut grid_scratch = GridScratch::new();
    let grid = rec
        .reconstruct_grid(cap, t0, step, n, &mut grid_scratch)
        .to_vec();
    let times = grid_times(t0, step, n);
    let mut batch_scratch = PnbsScratch::new();
    let batch = rec.reconstruct_batch(cap, &times, &mut batch_scratch);
    let mut reference = Vec::with_capacity(n);
    for (i, &t) in times.iter().enumerate() {
        let r = rec.reconstruct_at_reference(cap, t);
        assert!(
            (grid[i] - batch[i]).abs() <= TOL,
            "grid vs per-point at t = {t:e}: {} vs {} (diff {:e})",
            grid[i],
            batch[i],
            (grid[i] - batch[i]).abs()
        );
        assert!(
            (grid[i] - r).abs() <= TOL,
            "grid vs reference at t = {t:e}: {} vs {r} (diff {:e})",
            grid[i],
            (grid[i] - r).abs()
        );
        reference.push(r);
    }
    let err = nrmse(&grid, &reference);
    assert!(err <= TOL, "nrmse {err:e} above the 1e-9 budget");
}

/// Asserts the runtime-dispatched grid walk (AVX-512/AVX2 + FMA where
/// detected) against the scalar kernel pinned in-process via the
/// `try_reconstruct_grid_scalar` hook. On hosts without the features
/// — or under `RFBIST_FORCE_SCALAR` — both sides run the same scalar
/// kernel and the comparison degenerates to bit-equality, so the suite
/// is green on every CI leg.
fn assert_simd_matches_scalar(
    rec: &PnbsReconstructor,
    cap: &NonuniformCapture,
    t0: f64,
    step: f64,
    n: usize,
) {
    let plan = rec.grid_plan();
    let mut dispatched_scratch = GridScratch::new();
    let dispatched = plan
        .try_reconstruct_grid(cap, t0, step, n, &mut dispatched_scratch)
        .expect("grid inside coverage")
        .to_vec();
    let mut scalar_scratch = GridScratch::new();
    let scalar = plan
        .try_reconstruct_grid_scalar(cap, t0, step, n, &mut scalar_scratch)
        .expect("grid inside coverage");
    for i in 0..n {
        assert!(
            (dispatched[i] - scalar[i]).abs() <= TOL,
            "dispatched vs scalar at point {i}: {} vs {} (diff {:e})",
            dispatched[i],
            scalar[i],
            (dispatched[i] - scalar[i]).abs()
        );
    }
    let err = nrmse(&dispatched, scalar);
    assert!(
        err <= TOL,
        "simd-vs-scalar nrmse {err:e} above the 1e-9 budget"
    );
}

#[test]
fn simd_walk_matches_scalar_walk_on_fixture_grids() {
    let tone = Tone::unit(0.98e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 400);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    // Long grid: crosses many 256-point re-seed boundaries, so rotor
    // renormalization drift in either kernel would surface.
    assert_simd_matches_scalar(&rec, &cap, 0.5e-6, 2.5e-10, 8192);
    // Short remainder tail: exercises the vector kernels' scalar
    // cleanup loop.
    assert_simd_matches_scalar(&rec, &cap, 0.7e-6, 3.1e-10, 261);
}

#[test]
fn simd_walk_matches_scalar_walk_across_windows() {
    // Smooth windows ride the planar row fill the vector kernels use;
    // the kinked Bartlett shape must agree trivially (both sides fall
    // back to the scalar walk).
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -120, 600);
    for (taps, window) in [
        (61usize, Window::Kaiser(8.0)),
        (21, Window::Kaiser(5.0)),
        (61, Window::Hann),
        (61, Window::BlackmanHarris),
        (61, Window::Bartlett),
    ] {
        let rec = PnbsReconstructor::new(band(), D, taps, window).unwrap();
        assert_simd_matches_scalar(&rec, &cap, 1.1e-6, 4.1e-10, 700);
    }
}

#[test]
fn tone_fixture_grid_matches_per_point_and_reference() {
    let tone = Tone::unit(0.98e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_grid_equivalent(&rec, &cap, 0.6e-6, 2.5e-10, 1500);
}

#[test]
fn qpsk_fixture_grid_matches_per_point_and_reference() {
    let tx = common::paper_stimulus(96);
    let cap = NonuniformCapture::from_signal(&tx, 1.0 / B, D, 80, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    let (t0, t1) = tx.steady_time_range();
    let (c0, c1) = rec.coverage(&cap).unwrap();
    let lo = t0.max(c0);
    let hi = t1.min(c1);
    let n = 800;
    let step = (hi - lo) / n as f64;
    assert_grid_equivalent(&rec, &cap, lo + 0.5 * step, step, n);
}

#[test]
fn wrong_delay_estimates_grid_matches_per_point() {
    // The equivalence must hold where the reconstruction itself is bad
    // (D̂ ≠ D) — grid-probed cost functions spend most evaluations there.
    let tone = Tone::unit(0.99e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
    for wrong_ps in [-40.0, -10.0, 10.0, 60.0, 150.0] {
        let d_hat = D + wrong_ps * 1e-12;
        let rec = PnbsReconstructor::new_unchecked(band(), d_hat, 61, Window::Kaiser(8.0));
        assert_grid_equivalent(&rec, &cap, 0.7e-6, 3.3e-10, 600);
    }
}

#[test]
fn long_grid_survives_rotor_renormalization_drift() {
    // ≥ 4096 points: the time phasors cross many renormalization and
    // exact-re-seed boundaries (every 256 points); drift must stay far
    // inside the 1e-9 budget across the whole walk. 8192 points at the
    // engine's 4 GHz analysis rate also covers the BistEngine workload
    // shape.
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 400);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_grid_equivalent(&rec, &cap, 0.5e-6, 2.5e-10, 8192);
}

#[test]
fn grid_on_sample_instants_hits_origin_branch() {
    // t0 an exact multiple of T with a commensurate step: grid points
    // land exactly on sample instants, where the kernel takes its
    // origin limit rather than the factored 1/τ form.
    let tone = Tone::unit(0.97e9);
    let t_s = 1.0 / B;
    let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_grid_equivalent(&rec, &cap, 80.0 * t_s, t_s / 8.0, 512);
}

#[test]
fn nondefault_taps_and_windows_grid_matches() {
    // Includes the kinked Bartlett shape, which exercises the window
    // table's direct-sampler fallback inside the grid walk.
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -120, 600);
    for (taps, window) in [
        (21usize, Window::Kaiser(5.0)),
        (121, Window::Kaiser(12.0)),
        (61, Window::Hann),
        (61, Window::Rectangular),
        (61, Window::Bartlett),
        (61, Window::BlackmanHarris),
    ] {
        let rec = PnbsReconstructor::new(band(), D, taps, window).unwrap();
        assert_grid_equivalent(&rec, &cap, 1.1e-6, 4.1e-10, 400);
    }
}

#[test]
fn integer_positioned_band_grid_matches() {
    // B = 80 MHz at 1 GHz: the s₀ term vanishes; the factored tables
    // must carry zero weights for the dropped family.
    let band80 = BandSpec::centered(FC, 80e6);
    let tone = Tone::unit(0.99e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / 80e6, 200e-12, -50, 350);
    let rec = PnbsReconstructor::paper_default(band80, 200e-12).unwrap();
    assert_grid_equivalent(&rec, &cap, 0.6e-6, 2.9e-10, 700);
}

#[test]
fn grid_probed_cost_matches_reference_across_candidates() {
    // End-to-end: a grid-probed dual-rate cost evaluated through the
    // grid-aware plan equals the direct-reference cost to 1e-9 at every
    // candidate of a Fig. 5 sweep.
    let random = common::paper_cost_fixture(80, 27).unwrap();
    let cost = DualRateCost::try_grid_probes(
        random.fast_capture().clone(),
        random.slow_capture().clone(),
        *random.config(),
        80,
    )
    .unwrap();
    let candidates = cost.try_sweep_candidates(24).unwrap();
    let planned = cost.eval_grid(&candidates);
    let reference: Vec<f64> = candidates
        .iter()
        .map(|&d| cost.evaluate_reference(d))
        .collect();
    for (i, &d) in candidates.iter().enumerate() {
        assert!(
            (planned[i] - reference[i]).abs() <= TOL,
            "candidate {:.1} ps: grid {} vs reference {}",
            d * 1e12,
            planned[i],
            reference[i]
        );
    }
    let err = nrmse(&planned, &reference);
    assert!(err <= TOL, "cost-grid nrmse {err:e}");
}

proptest! {
    // Pinned seed and a modest case budget, matching the repo's other
    // property suites.
    #![proptest_config(ProptestConfig::with_cases_and_seed(16, 0x2026_0731))]

    /// Grid reconstruction equals the per-point plan over random
    /// bands, admissible delays and grid steps — including steps
    /// commensurate and incommensurate with the sample period, and
    /// grids dense enough to put many points inside one period.
    #[test]
    fn random_band_delay_step_grid_matches_per_point(
        fc_mhz in 300.0f64..2500.0,
        b_mhz in 40.0f64..120.0,
        rel_delay in 0.1f64..0.9,
        rel_tone in 0.15f64..0.85,
        step_frac in 0.021f64..0.9,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let b = b_mhz * 1e6;
        let band = BandSpec::centered(fc_mhz * 1e6, b);
        let m = 1.0 / (band.k_plus() as f64 * b);
        let d = rel_delay * m;
        prop_assume!(check_delay(band, d).is_ok());
        let tone = Tone::new(band.f_lo() + rel_tone * b, 1.0, phase);
        let t_s = 1.0 / b;
        let cap = NonuniformCapture::from_signal(&tone, t_s, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d).expect("valid delay");
        let step = step_frac * t_s;
        let n = 200;
        let t0 = 0.6e-6;
        let mut grid_scratch = GridScratch::new();
        let grid = rec.reconstruct_grid(&cap, t0, step, n, &mut grid_scratch).to_vec();
        let times = grid_times(t0, step, n);
        let mut batch_scratch = PnbsScratch::new();
        let batch = rec.reconstruct_batch(&cap, &times, &mut batch_scratch);
        for i in 0..n {
            prop_assert!(
                (grid[i] - batch[i]).abs() <= TOL,
                "band {} D {:e} step {:e}: point {} diff {:e}",
                band, d, step, i, (grid[i] - batch[i]).abs()
            );
        }
    }

    /// The runtime-dispatched SIMD walk equals the in-process scalar
    /// kernel over random bands, admissible delays and grid steps —
    /// NRMSE within the 1e-9 budget at every sampled configuration
    /// (bit-equal wherever no vector unit is dispatched).
    #[test]
    fn simd_walk_matches_scalar_over_random_band_delay_step(
        fc_mhz in 300.0f64..2500.0,
        b_mhz in 40.0f64..120.0,
        rel_delay in 0.1f64..0.9,
        rel_tone in 0.15f64..0.85,
        step_frac in 0.021f64..0.9,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let b = b_mhz * 1e6;
        let band = BandSpec::centered(fc_mhz * 1e6, b);
        let m = 1.0 / (band.k_plus() as f64 * b);
        let d = rel_delay * m;
        prop_assume!(check_delay(band, d).is_ok());
        let tone = Tone::new(band.f_lo() + rel_tone * b, 1.0, phase);
        let t_s = 1.0 / b;
        let cap = NonuniformCapture::from_signal(&tone, t_s, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d).expect("valid delay");
        assert_simd_matches_scalar(&rec, &cap, 0.6e-6, step_frac * t_s, 200);
    }
}
