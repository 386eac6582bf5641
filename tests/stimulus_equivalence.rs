//! Equivalence suite for the table-driven stimulus evaluation.
//!
//! `ShapedBaseband::eval_iq` evaluates the SRRC pulse from per-standard
//! tap phasors, and `ImpairedEnvelope::eval_iq` applies the modulator
//! with weights fixed per unit. This suite pins both against the plain
//! per-tap and per-call forms, and pins the verdicts of the paper's
//! Section V units to constants recorded from the per-tap evaluation.

mod common;

use rfbist::math::Complex64;
use rfbist::prelude::*;

/// Absolute budget of the table-driven envelope against the per-tap
/// oracle.
const ENVELOPE_TOL: f64 = 1e-10;

/// `Σₖ sₖ·g(tn − k)` straight from the public accessors, one pulse
/// evaluation per tap. Taps beyond `span + 1` symbols contribute an
/// exact zero (`PulseShape::eval` truncates there), so they are skipped.
fn per_tap_oracle(bb: &ShapedBaseband, t: f64) -> Complex64 {
    let tn = t / bb.symbol_period();
    let pulse = bb.pulse();
    let reach = pulse.span() as f64 + 1.0;
    let first = (tn - reach).floor().max(0.0) as usize;
    let last = (tn + reach).ceil().min(bb.symbols().len() as f64 - 1.0);
    if last < 0.0 {
        return Complex64::ZERO;
    }
    let mut acc = Complex64::ZERO;
    for k in first..=last as usize {
        acc += bb.symbols()[k] * pulse.eval(tn - k as f64);
    }
    acc
}

/// Every builtin standard's roll-off, the calibration burst's 0.5 and
/// the α = 1 edge of the SRRC family, without repeats.
fn rolloffs() -> Vec<f64> {
    let lib = MaskLibrary::builtin();
    let mut alphas: Vec<f64> = lib.names().map(|n| lib.get(n).unwrap().rolloff).collect();
    alphas.extend([0.5, 1.0]);
    alphas.sort_by(f64::total_cmp);
    alphas.dedup();
    alphas
}

/// Instants in symbol periods that stress the table path: every
/// symbol instant, tap offsets from 1e-11 to 1e-3 off the closed form's
/// singular points `0` and `±1/(4α)` (inside and just outside the
/// window the table leaves to `srrc_pulse`), ramp-up before the first
/// symbol, ramp-down past the last, and a dense sweep across the whole
/// burst.
fn stress_instants(alpha: f64, n_symbols: usize, dense: usize) -> Vec<f64> {
    let quarter = 1.0 / (4.0 * alpha);
    let n = n_symbols as f64;
    let mut t = Vec::new();
    for k in -3..n_symbols as i64 + 3 {
        let k = k as f64;
        t.push(k);
        for delta in [0.0, 1e-11, 1e-9, 1e-7, 1.5e-4, 1e-3] {
            for sign in [-1.0, 1.0] {
                t.push(k + sign * delta);
                t.push(k + quarter + sign * delta);
                t.push(k - quarter + sign * delta);
            }
        }
    }
    let (start, stop) = (-15.0, n + 15.0);
    // an irrational step so the sweep lands on every fractional phase
    let step = (stop - start) / dense as f64 * std::f64::consts::FRAC_1_SQRT_2;
    t.extend((0..dense).map(|i| start + (i as f64 * step) % (stop - start)));
    t
}

#[test]
fn table_driven_envelope_matches_per_tap_oracle() {
    let mut points = 0usize;
    for alpha in rolloffs() {
        let symbols = Constellation::Qpsk.prbs_symbols(0xACE1, 64);
        // unit symbol rate: the instants land on the offsets exactly
        let bb = ShapedBaseband::new(symbols, PulseShape::Srrc { alpha, span: 12 }, 1.0);
        for t in stress_instants(alpha, 64, 12_000) {
            let (got, want) = (bb.eval_iq(t), per_tap_oracle(&bb, t));
            assert!(
                (got - want).abs() <= ENVELOPE_TOL,
                "α = {alpha}, t = {t}: table {got} vs per-tap {want}"
            );
            points += 1;
        }
    }
    // and the paper stimulus itself on its 4 GHz analysis grid
    let bb = common::paper_baseband(160);
    let (t0, t1) = bb.steady_time_range();
    let mut t = t0 - 2e-6;
    while t < t1 + 2e-6 && points < 140_000 {
        let (got, want) = (bb.eval_iq(t), per_tap_oracle(&bb, t));
        assert!(
            (got - want).abs() <= ENVELOPE_TOL,
            "paper stimulus, t = {t}: table {got} vs per-tap {want}"
        );
        t += 0.25e-9;
        points += 1;
    }
    assert!(points >= 100_000, "only {points} points compared");
}

#[test]
fn impaired_envelope_is_bit_identical_to_per_call_impairments() {
    let typical = TxImpairments::typical();
    let mut profiles = vec![typical];
    profiles.extend(
        CampaignConfig::paper_default()
            .faults
            .iter()
            .map(|f| f.inject(typical)),
    );
    for imp in profiles {
        let tx = common::paper_tx(imp);
        let env = tx.impaired_envelope();
        let (t0, t1) = tx.steady_time_range();
        for i in 0..2000 {
            let t = t0 + (t1 - t0) * i as f64 / 2000.0;
            let got = env.eval_iq(t);
            let want = tx.impairments().apply(tx.baseband().eval_iq(t));
            assert_eq!(
                (got.re.to_bits(), got.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "{imp:?} at t = {t}: {got} vs {want}"
            );
        }
    }
}

/// Verdict pins for the quickstart unit followed by
/// `paper_tx_seeded(typical, 160, mix(1, i))`, `i = 0..40`:
/// `(skew delay, worst margin in dB, passed, Δε)`, recorded from the
/// per-tap stimulus evaluation. The quantised captures absorb the
/// table's last-bit differences, so only rounding separates a run from
/// its pin. Rounding also differs between scan and walk kernels (the
/// FMA kernels and the scalar ones under `RFBIST_FORCE_SCALAR` agree to
/// a few ulp per step, not bit for bit), so skew, margin and Δε are
/// compared within [`SKEW_TOL`], [`MARGIN_TOL_DB`] and [`DELTA_EPS_REL`]
/// and only the pass/fail verdict exactly.
#[rustfmt::skip]
const VERDICT_PINS: [(f64, f64, bool, f64); 41] = [
    (1.8125000000000002e-10, 3.663564028108084, true, 1.9899498667549535e-2),
    (1.8109375000000002e-10, 1.8453428311061941, true, 2.1650976698550154e-2),
    (1.798125e-10, 0.8461741204247915, true, 1.9097629765137524e-2),
    (1.7996875000000002e-10, 3.142686749118738, true, 1.8296772343392453e-2),
    (1.8111718750000002e-10, 2.25421961301619, true, 2.165871804622747e-2),
    (1.7925e-10, 4.220994765460233, true, 1.8624157463459263e-2),
    (1.8021875000000001e-10, 1.0047473854911573, true, 1.723984966159275e-2),
    (1.79625e-10, 4.068277462120761, true, 1.9819665904702324e-2),
    (1.8021875000000001e-10, 4.227116359318501, true, 1.96375072416178e-2),
    (1.8103125e-10, 2.65047722336152, true, 1.822518207552343e-2),
    (1.8099609375000002e-10, 0.21357239651580073, true, 1.982607896829891e-2),
    (1.80875e-10, 4.349324150169878, true, 1.732204969079424e-2),
    (1.809453125e-10, 1.5306056779196808, true, 1.91439429665945e-2),
    (1.807490234375e-10, 1.4907328262812598, true, 2.0380347679415208e-2),
    (1.818125e-10, 4.703882700662575, true, 1.9226954647382888e-2),
    (1.8024609375e-10, 3.5372670805818984, true, 1.842211646697944e-2),
    (1.7946875000000002e-10, 4.152536944126481, true, 1.7379148223389186e-2),
    (1.80953125e-10, 0.9558138138554284, true, 2.124708443313625e-2),
    (1.8005468749999998e-10, 2.086627892882319, true, 1.826406705626278e-2),
    (1.80375e-10, 2.2766600289303085, true, 1.6839096441230564e-2),
    (1.8043749999999998e-10, 4.176535119299501, true, 1.910328585901931e-2),
    (1.8043749999999998e-10, 1.1346028729577142, true, 1.8991221476887997e-2),
    (1.804453125e-10, 3.341171240068718, true, 1.807090730756564e-2),
    (1.79875e-10, 2.026223364228855, true, 1.8609666925946643e-2),
    (1.8056250000000002e-10, 3.267707440410774, true, 1.805686374372285e-2),
    (1.80796875e-10, 1.8344203171971287, true, 2.025061597875538e-2),
    (1.8199804687500002e-10, 0.891016497075114, true, 2.0129170415817032e-2),
    (1.8127343750000002e-10, 0.5649633635296851, true, 1.8649855481815848e-2),
    (1.7925e-10, 4.834471422315801, true, 1.756113324831801e-2),
    (1.79625e-10, 3.5169936134440434, true, 1.8694937363773093e-2),
    (1.7950390625e-10, 4.637725354832682, true, 1.781455349552203e-2),
    (1.8012499999999999e-10, 4.525107644618572, true, 1.757151207498723e-2),
    (1.8056250000000002e-10, 4.230102282918594, true, 1.966863589535941e-2),
    (1.7948437499999998e-10, 3.6546724284637833, true, 1.9108035523389178e-2),
    (1.7975e-10, 1.778462104063479, true, 1.7969434991880518e-2),
    (1.80375e-10, 1.6153592998763457, true, 1.705086206651358e-2),
    (1.79625e-10, 4.579702300006872, true, 1.8694442407143307e-2),
    (1.8026562500000002e-10, 1.6100085818121102, true, 1.8601780479994688e-2),
    (1.8062109375e-10, 1.2456482746432727, true, 1.868084400717607e-2),
    (1.8078125e-10, 4.942258122686354, true, 1.715812514990412e-2),
    (1.8076367187499999e-10, 1.8970776899479915, true, 1.8103742580474237e-2),
];

/// Skew-delay budget against a pin, in seconds (1e-8 of the ~180 ps
/// skew).
const SKEW_TOL: f64 = 1e-18;

/// Worst-margin budget against a pin, in dB.
const MARGIN_TOL_DB: f64 = 1e-9;

/// Relative Δε budget against a pin.
const DELTA_EPS_REL: f64 = 1e-12;

/// SplitMix64 step deriving the per-unit PRBS seeds (the benchmark's
/// `mix(seed, index)`).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn section_v_verdicts_match_recorded_pins() {
    let typical = TxImpairments::typical();
    let mut units = vec![common::paper_tx(typical)];
    units.extend((0..40).map(|i| common::paper_tx_seeded(typical, 160, mix(1, i))));
    let engine = common::paper_engine();
    let mask = common::paper_mask();
    for (i, (tx, &(skew, margin, passed, eps))) in units.iter().zip(&VERDICT_PINS).enumerate() {
        let report = engine
            .try_run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
            .unwrap();
        let delay = report.skew.delay;
        assert!(
            (delay - skew).abs() <= SKEW_TOL,
            "unit {i}: skew delay {delay:e} vs pinned {skew:e}"
        );
        let worst = report.mask.worst_margin_db;
        assert!(
            (worst - margin).abs() <= MARGIN_TOL_DB,
            "unit {i}: worst margin {worst} dB vs pinned {margin} dB"
        );
        assert_eq!(report.passed(), passed, "unit {i}: verdict");
        let got = report.reconstruction_error.expect("reference supplied");
        assert!(
            ((got - eps) / eps).abs() <= DELTA_EPS_REL,
            "unit {i}: Δε {got:e} vs pinned {eps:e}"
        );
    }
}
