//! Raised-cosine (RC) and square-root raised-cosine (SRRC) pulses.
//!
//! The paper's test stimulus is "10 MHz QPSK symbols shaped by a square
//! root raised cosine filter with a roll-off factor of α = 0.5". These
//! closed-form pulse evaluators are used both for discrete filter design
//! and — crucially for PNBS — for *continuous-time* evaluation of the
//! transmitted baseband at arbitrary sample instants.
//!
//! Time is normalized to the symbol period: `t_norm = t / Ts`. The pulses
//! are normalized so `rc(0) = 1` and `srrc ⊛ srrc = rc` (unit-symbol
//! convention; energy scaling is the caller's concern).
//!
//! [`SrrcTable`] evaluates a pulse-shaped symbol stream the way a
//! modulator's datapath does: tap coefficients fixed once, then per
//! instant only two `sin_cos` and a multiply-accumulate per tap.

use rfbist_math::special::sinc;
use rfbist_math::Complex64;
use std::f64::consts::PI;

/// Raised-cosine pulse value at normalized time `t` (in symbol periods)
/// with roll-off `alpha ∈ [0, 1]`.
///
/// Zero-ISI: `rc(k) = 0` for all non-zero integers `k`.
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn rc_pulse(t: f64, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "roll-off must be in [0, 1]");
    if alpha == 0.0 {
        return sinc(t);
    }
    let half = 1.0 / (2.0 * alpha);
    let d = t.abs() - half;
    if d.abs() < LIMIT_WINDOW {
        // limit at t = ±1/(2α)
        let limit = (PI / 4.0) * sinc(half);
        return through_limit(d, limit, |x| rc_closed_form(half + x, alpha));
    }
    rc_closed_form(t, alpha)
}

/// The RC closed form, `0/0` at `t = ±1/(2α)`.
fn rc_closed_form(t: f64, alpha: f64) -> f64 {
    let denom_arg = 2.0 * alpha * t;
    let denom = 1.0 - denom_arg * denom_arg;
    sinc(t) * (PI * alpha * t).cos() / denom
}

/// Square-root raised-cosine pulse value at normalized time `t` (in symbol
/// periods) with roll-off `alpha ∈ (0, 1]`.
///
/// Normalized so that `srrc(0) = 1 − α + 4α/π` (the standard unit-symbol
/// convention in which SRRC⊛SRRC equals the RC pulse).
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn srrc_pulse(t: f64, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "roll-off must be in [0, 1]");
    if alpha == 0.0 {
        return sinc(t);
    }
    if t.abs() < 1e-10 {
        return 1.0 - alpha + 4.0 * alpha / PI;
    }
    let quarter = 1.0 / (4.0 * alpha);
    let d = t.abs() - quarter;
    if d.abs() < LIMIT_WINDOW {
        // limit at t = ±1/(4α)
        let a = PI / (4.0 * alpha);
        let limit =
            (alpha / 2f64.sqrt()) * ((1.0 + 2.0 / PI) * a.sin() + (1.0 - 2.0 / PI) * a.cos());
        return through_limit(d, limit, |x| srrc_closed_form(quarter + x, alpha));
    }
    srrc_closed_form(t, alpha)
}

/// The SRRC closed form, `0/0` at `t = 0` and `t = ±1/(4α)`.
fn srrc_closed_form(t: f64, alpha: f64) -> f64 {
    let four_at = 4.0 * alpha * t;
    ((PI * t * (1.0 - alpha)).sin() + four_at * (PI * t * (1.0 + alpha)).cos())
        / (PI * t * (1.0 - four_at * four_at))
}

/// Half-width (in symbol periods) of the window about a removable
/// singularity inside which the pulses leave their closed form.
///
/// At distance `d` from the singular point the closed form divides two
/// quantities of size `~d` that carry `~1e-16` of rounding, so it is
/// only good to `~1e-16/d`: 1e-12 at the window edge, but 1e-6 at
/// `d = 1e-10`. Inside the window a quadratic through the exact limit
/// takes over; its truncation error is `~|g'''|·d³`, below 1e-12.
const LIMIT_WINDOW: f64 = 1e-4;

/// A pulse at distance `d` (`|d| < LIMIT_WINDOW`) from a removable
/// singularity: the quadratic through the exact `limit` at `d = 0` and
/// the closed form `closed(±LIMIT_WINDOW)` at the window edges, where
/// the closed form is still accurate.
fn through_limit(d: f64, limit: f64, closed: impl Fn(f64) -> f64) -> f64 {
    let h = LIMIT_WINDOW;
    let (below, above) = (closed(-h), closed(h));
    let slope = (above - below) / (2.0 * h);
    let curvature = (above + below - 2.0 * limit) / (2.0 * h * h);
    limit + d * (slope + d * curvature)
}

/// A symbol stream shaped by the SRRC pulse, evaluated from phasors
/// tabulated per integer tap offset.
///
/// The closed form `g(x) = [sin(Ax) + 4αx·cos(Bx)] / [πx(1 − (4αx)²)]`,
/// `A = π(1−α)`, `B = π(1+α)`, splits for `x = m + u` into a row of
/// `[cos Am, sin Am, cos Bm, sin Bm]` per integer `m` and two `sin_cos`
/// of the fractional phase `u` every tap shares. Angle addition is
/// exact up to rounding, and the closed form's division stays. A tap
/// within [`LIMIT_WINDOW`] of a zero of the denominator (`x = 0`,
/// `|x| = 1/(4α)`) goes to [`srrc_pulse`] instead: there the division
/// would amplify the numerator's rounding by `1/d`.
#[derive(Clone, Debug)]
pub struct SrrcTable {
    alpha: f64,
    span: isize,
    /// Row `m + span` holds `[cos Am, sin Am, cos Bm, sin Bm]` for
    /// `m ∈ −span..=span`.
    rows: Vec<[f64; 4]>,
}

impl SrrcTable {
    /// The table of the SRRC pulse with roll-off `alpha`, truncated to
    /// `|x| ≤ span` symbol periods; `None` unless `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64, span: usize) -> Option<Self> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return None;
        }
        let span = span as isize;
        let rows = (-span..=span)
            .map(|m| {
                let (sa, ca) = (PI * m as f64 * (1.0 - alpha)).sin_cos();
                let (sb, cb) = (PI * m as f64 * (1.0 + alpha)).sin_cos();
                [ca, sa, cb, sb]
            })
            .collect();
        Some(SrrcTable { alpha, span, rows })
    }

    /// `Σₖ symbols[k]·g(tn − k)` over the symbols with `|tn − k| ≤ span`,
    /// `tn` in symbol periods from symbol 0.
    pub fn eval(&self, symbols: &[Complex64], tn: f64) -> Complex64 {
        let alpha = self.alpha;
        let span = self.span;
        let quarter = 1.0 / (4.0 * alpha);
        let center = tn.floor() as isize;
        // |tn − k| ≤ span, clipped to the burst
        let lo = (tn - span as f64).ceil().max(0.0) as isize;
        let hi = center.saturating_add(span).min(symbols.len() as isize - 1);
        if lo > hi {
            return Complex64::ZERO;
        }
        let u = tn - center as f64;
        let (sin_au, cos_au) = (PI * u * (1.0 - alpha)).sin_cos();
        let (sin_bu, cos_bu) = (PI * u * (1.0 + alpha)).sin_cos();
        // row of m = center − k: descending as k ascends
        let rows = &self.rows[(center - hi + span) as usize..=(center - lo + span) as usize];
        let mut acc = Complex64::ZERO;
        let taps = symbols[lo as usize..=hi as usize]
            .iter()
            .zip(rows.iter().rev());
        for (k, (&s, &[cos_am, sin_am, cos_bm, sin_bm])) in (lo..).zip(taps) {
            let x = tn - k as f64;
            let ax = x.abs();
            let g = if ax < LIMIT_WINDOW || (ax - quarter).abs() < LIMIT_WINDOW {
                srrc_pulse(x, alpha)
            } else {
                let sin_ax = sin_am * cos_au + cos_am * sin_au;
                let cos_bx = cos_bm * cos_bu - sin_bm * sin_bu;
                let four_ax = 4.0 * alpha * x;
                (sin_ax + four_ax * cos_bx) / (PI * x * (1.0 - four_ax * four_ax))
            };
            acc += s * g;
        }
        acc
    }
}

/// Discrete SRRC filter taps spanning `±span` symbols at `sps` samples per
/// symbol (length `2·span·sps + 1`), normalized to unit energy
/// (`Σ h² = 1`), matching Matlab's `rcosdesign(α, span, sps, 'sqrt')`.
///
/// # Panics
///
/// Panics if `span == 0` or `sps == 0`.
pub fn srrc_taps(alpha: f64, span: usize, sps: usize) -> Vec<f64> {
    assert!(span > 0, "span must be positive");
    assert!(sps > 0, "samples per symbol must be positive");
    let half = (span * sps) as isize;
    let mut taps: Vec<f64> = (-half..=half)
        .map(|k| srrc_pulse(k as f64 / sps as f64, alpha))
        .collect();
    let energy: f64 = taps.iter().map(|&h| h * h).sum();
    let norm = energy.sqrt();
    taps.iter_mut().for_each(|h| *h /= norm);
    taps
}

/// Discrete RC filter taps spanning `±span` symbols at `sps` samples per
/// symbol, normalized to unit peak.
pub fn rc_taps(alpha: f64, span: usize, sps: usize) -> Vec<f64> {
    assert!(span > 0, "span must be positive");
    assert!(sps > 0, "samples per symbol must be positive");
    let half = (span * sps) as isize;
    (-half..=half)
        .map(|k| rc_pulse(k as f64 / sps as f64, alpha))
        .collect()
}

/// Occupied (two-sided RF) bandwidth of an SRRC-shaped signal:
/// `(1 + α)·symbol_rate`.
pub fn occupied_bandwidth(symbol_rate: f64, alpha: f64) -> f64 {
    (1.0 + alpha) * symbol_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_is_one_at_origin_and_zero_at_integers() {
        for alpha in [0.0, 0.22, 0.5, 1.0] {
            assert!((rc_pulse(0.0, alpha) - 1.0).abs() < 1e-12, "alpha {alpha}");
            for k in 1..=5 {
                assert!(
                    rc_pulse(k as f64, alpha).abs() < 1e-10,
                    "alpha {alpha}, k {k}"
                );
            }
        }
    }

    #[test]
    fn rc_special_point_is_continuous() {
        let alpha = 0.5;
        let t0 = 1.0 / (2.0 * alpha);
        let v = rc_pulse(t0, alpha);
        let v_eps = rc_pulse(t0 + 1e-7, alpha);
        assert!((v - v_eps).abs() < 1e-5);
    }

    #[test]
    fn srrc_value_at_origin() {
        let alpha = 0.5;
        let expected = 1.0 - alpha + 4.0 * alpha / PI;
        assert!((srrc_pulse(0.0, alpha) - expected).abs() < 1e-12);
    }

    #[test]
    fn srrc_special_point_is_continuous() {
        let alpha = 0.5;
        let t0 = 1.0 / (4.0 * alpha);
        let v = srrc_pulse(t0, alpha);
        let v_eps = srrc_pulse(t0 + 1e-7, alpha);
        assert!((v - v_eps).abs() < 1e-5, "{v} vs {v_eps}");
    }

    /// Every roll-off a builtin standard or fixture uses.
    const BUILTIN_ROLLOFFS: [f64; 6] = [0.5, 0.22, 0.12, 0.3, 0.35, 0.25];

    /// Sweeps log-spaced offsets `±1e-12..1e-4` about the removable
    /// singularity `t0` of `pulse` and checks each value against the
    /// linear model `g(t0) + g'(t0)·d`, with `g'` from a wide central
    /// difference. The smooth pulse stays within its curvature term of
    /// that model; cancellation in the closed form would not.
    fn assert_smooth_through(pulse: impl Fn(f64) -> f64, t0: f64, label: &str) {
        let wide = 1e-3;
        let slope = (pulse(t0 + wide) - pulse(t0 - wide)) / (2.0 * wide);
        let g0 = pulse(t0);
        for decade in -12..=-4 {
            for mantissa in [1.0, 2.0, 5.0] {
                for sign in [-1.0, 1.0] {
                    let t = t0 + sign * mantissa * 10f64.powi(decade);
                    let d = t - t0;
                    let err = (pulse(t) - (g0 + slope * d)).abs();
                    assert!(
                        err <= 1e-9 + 10.0 * d * d,
                        "{label}: t0 {t0} + {d:e} deviates {err:e} from the smooth pulse"
                    );
                }
            }
        }
    }

    #[test]
    fn srrc_is_smooth_through_its_quarter_point_singularity() {
        for alpha in BUILTIN_ROLLOFFS {
            let quarter = 1.0 / (4.0 * alpha);
            for t0 in [quarter, -quarter] {
                assert_smooth_through(|t| srrc_pulse(t, alpha), t0, &format!("srrc α={alpha}"));
            }
        }
    }

    #[test]
    fn rc_is_smooth_through_its_half_point_singularity() {
        for alpha in BUILTIN_ROLLOFFS {
            let half = 1.0 / (2.0 * alpha);
            for t0 in [half, -half] {
                assert_smooth_through(|t| rc_pulse(t, alpha), t0, &format!("rc α={alpha}"));
            }
        }
    }

    #[test]
    fn srrc_is_even() {
        for alpha in [0.25, 0.5, 0.9] {
            for t in [0.3, 0.77, 1.5, 2.25] {
                assert!((srrc_pulse(t, alpha) - srrc_pulse(-t, alpha)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn srrc_zero_alpha_degenerates_to_sinc() {
        for t in [0.0, 0.4, 1.0, 2.5] {
            assert!((srrc_pulse(t, 0.0) - sinc(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn srrc_convolved_with_itself_is_rc() {
        // Numerical check of the defining property at 16 samples/symbol.
        let alpha = 0.5;
        let sps = 16usize;
        let span = 12usize;
        let h = srrc_taps(alpha, span, sps);
        // h is unit-energy; SRRC⊛SRRC sampled at sps gives RC/sps scaling.
        let n = h.len();
        let center = n - 1; // full convolution center index
        let conv_at = |lag: isize| -> f64 {
            let mut acc = 0.0;
            for i in 0..n {
                let j = center as isize + lag - i as isize;
                if j >= 0 && (j as usize) < n {
                    acc += h[i] * h[j as usize];
                }
            }
            acc
        };
        let peak = conv_at(0);
        // ISI-free: zero at multiples of sps
        for k in 1..=4 {
            let v = conv_at((k * sps) as isize) / peak;
            assert!(v.abs() < 2e-3, "ISI at symbol {k}: {v}");
        }
        // matches RC shape at half-symbol offset
        let v_half = conv_at((sps / 2) as isize) / peak;
        let rc_half = rc_pulse(0.5, alpha);
        assert!((v_half - rc_half).abs() < 2e-3, "{v_half} vs {rc_half}");
    }

    #[test]
    fn srrc_taps_are_unit_energy_and_symmetric() {
        let taps = srrc_taps(0.5, 6, 8);
        assert_eq!(taps.len(), 2 * 6 * 8 + 1);
        let energy: f64 = taps.iter().map(|&h| h * h).sum();
        assert!((energy - 1.0).abs() < 1e-12);
        for i in 0..taps.len() / 2 {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn rc_taps_peak_at_center() {
        let taps = rc_taps(0.35, 5, 4);
        let center = taps.len() / 2;
        assert!((taps[center] - 1.0).abs() < 1e-12);
        let max = taps.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert_eq!(max, 1.0);
    }

    #[test]
    fn occupied_bandwidth_formula() {
        // paper: 10 MHz QPSK, α = 0.5 -> 15 MHz occupied
        assert!((occupied_bandwidth(10e6, 0.5) - 15e6).abs() < 1.0);
    }

    #[test]
    fn srrc_decays_with_time() {
        let alpha = 0.5;
        assert!(srrc_pulse(8.0, alpha).abs() < 0.01);
        assert!(srrc_pulse(20.0, alpha).abs() < 0.002);
    }

    #[test]
    #[should_panic(expected = "roll-off must be in [0, 1]")]
    fn invalid_alpha_panics() {
        let _ = srrc_pulse(0.0, 1.5);
    }
}
