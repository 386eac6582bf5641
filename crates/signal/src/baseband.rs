//! Pulse-shaped complex baseband from a symbol stream.
//!
//! `a(t) = Σₖ sₖ · g(t/Ts − k)` evaluated analytically: the continuous
//! I/Q waveform the paper's homodyne transmitter modulates onto the
//! carrier. The truncated pulse span bounds each evaluation to
//! `2·span + 1` symbol contributions.
//!
//! For the SRRC pulse the evaluation splits like a real modulator's
//! datapath: coefficients fixed once per standard, multiply-accumulate
//! per sample. A [`SrrcTable`] built at construction holds the tap
//! phasors, so an evaluation costs two `sin_cos` of the fractional
//! symbol phase plus, per contribution, one table row, a few
//! multiplies and the closed form's division.

use crate::pulse::PulseShape;
use crate::symbols::Constellation;
use crate::traits::ComplexEnvelope;
use rfbist_dsp::srrc::SrrcTable;
use rfbist_math::rng::Randomizer;
use rfbist_math::Complex64;

/// A pulse-shaped symbol stream evaluated in continuous time.
///
/// Symbols occupy indices `0..num_symbols`; outside that range the
/// waveform decays to zero over one pulse span (ramp-up/ramp-down). Use
/// [`steady_time_range`](Self::steady_time_range) to stay in the fully-
/// populated region.
///
/// # Example
///
/// ```
/// use rfbist_signal::baseband::ShapedBaseband;
/// use rfbist_signal::traits::ComplexEnvelope;
///
/// let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 128, 1);
/// let (t0, t1) = bb.steady_time_range();
/// let z = bb.eval_iq(0.5 * (t0 + t1));
/// assert!(z.is_finite());
/// ```
#[derive(Clone, Debug)]
pub struct ShapedBaseband {
    symbols: Vec<Complex64>,
    pulse: PulseShape,
    symbol_period: f64,
    /// Tap phasors for an SRRC pulse with `α ∈ (0, 1]`; `None` for
    /// every other pulse, which evaluates through [`PulseShape::eval`].
    srrc: Option<SrrcTable>,
}

impl ShapedBaseband {
    /// Builds a baseband from explicit symbols, a pulse shape and the
    /// symbol rate (symbols/second).
    ///
    /// # Panics
    ///
    /// Panics if `symbol_rate <= 0` or `symbols` is empty.
    pub fn new(symbols: Vec<Complex64>, pulse: PulseShape, symbol_rate: f64) -> Self {
        assert!(symbol_rate > 0.0, "symbol rate must be positive");
        assert!(!symbols.is_empty(), "at least one symbol required");
        let srrc = match pulse {
            PulseShape::Srrc { alpha, span } => SrrcTable::new(alpha, span),
            _ => None,
        };
        ShapedBaseband {
            symbols,
            pulse,
            symbol_period: 1.0 / symbol_rate,
            srrc,
        }
    }

    /// The paper's stimulus: QPSK at `symbol_rate`, SRRC roll-off
    /// `alpha`, pulse half-span `span` symbols, `n` PRBS-driven symbols.
    pub fn qpsk_prbs(symbol_rate: f64, alpha: f64, span: usize, n: usize, seed: u64) -> Self {
        let symbols = Constellation::Qpsk.prbs_symbols(seed, n);
        ShapedBaseband::new(symbols, PulseShape::Srrc { alpha, span }, symbol_rate)
    }

    /// Random-symbol variant for Monte-Carlo runs.
    pub fn random(
        constellation: Constellation,
        symbol_rate: f64,
        pulse: PulseShape,
        n: usize,
        rng: &mut Randomizer,
    ) -> Self {
        let symbols = constellation.random_symbols(rng, n);
        ShapedBaseband::new(symbols, pulse, symbol_rate)
    }

    /// The symbol sequence.
    pub fn symbols(&self) -> &[Complex64] {
        &self.symbols
    }

    /// The pulse shape.
    pub fn pulse(&self) -> PulseShape {
        self.pulse
    }

    /// Symbol period in seconds.
    pub fn symbol_period(&self) -> f64 {
        self.symbol_period
    }

    /// Symbol rate in Hz.
    pub fn symbol_rate(&self) -> f64 {
        1.0 / self.symbol_period
    }

    /// Two-sided occupied RF bandwidth in Hz: `(1+α)·symbol_rate` for
    /// SRRC/RC shaping.
    pub fn occupied_bandwidth(&self) -> f64 {
        self.pulse.occupied_bandwidth_symbols() * self.symbol_rate()
    }

    /// The time interval over which every pulse contributing to the
    /// waveform has its full complement of neighbours (no ramp-up /
    /// ramp-down edge effects): `[span·Ts, (N − 1 − span)·Ts]`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol count is too small to have a steady region.
    pub fn steady_time_range(&self) -> (f64, f64) {
        let span = self.pulse.span();
        let n = self.symbols.len();
        assert!(
            n > 2 * span + 1,
            "need more than {} symbols for a steady region, have {n}",
            2 * span + 1
        );
        (
            span as f64 * self.symbol_period,
            (n - 1 - span) as f64 * self.symbol_period,
        )
    }
}

impl ComplexEnvelope for ShapedBaseband {
    fn eval_iq(&self, t: f64) -> Complex64 {
        let tn = t / self.symbol_period; // time in symbol periods
        if let Some(table) = &self.srrc {
            return table.eval(&self.symbols, tn);
        }
        let span = self.pulse.span() as isize;
        let center = tn.floor() as isize;
        let lo = center.saturating_sub(span).max(0);
        let hi = center
            .saturating_add(span + 1)
            .min(self.symbols.len() as isize - 1);
        let mut acc = Complex64::ZERO;
        let mut k = lo;
        while k <= hi {
            let g = self.pulse.eval(tn - k as f64);
            if g != 0.0 {
                acc += self.symbols[k as usize] * g;
            }
            k += 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::ComplexEnvelope;

    fn test_bb(n: usize) -> ShapedBaseband {
        ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, n, 0xACE1)
    }

    #[test]
    fn waveform_passes_through_symbols_for_rc_pulse() {
        // With a zero-ISI RC pulse, a(k·Ts) == s_k exactly.
        let symbols = Constellation::Qpsk.prbs_symbols(7, 64);
        let bb = ShapedBaseband::new(
            symbols.clone(),
            PulseShape::Rc {
                alpha: 0.35,
                span: 10,
            },
            1e6,
        );
        let ts = bb.symbol_period();
        for (k, &sym) in symbols.iter().enumerate().take(50).skip(15) {
            let z = bb.eval_iq(k as f64 * ts);
            assert!((z - sym).abs() < 1e-9, "symbol {k}: {z} vs {sym}");
        }
    }

    #[test]
    fn srrc_waveform_has_isi_at_symbol_instants() {
        // SRRC alone (no matched filter) is NOT zero-ISI: values at symbol
        // instants differ from the symbols.
        let bb = test_bb(128);
        let ts = bb.symbol_period();
        let mut any_isi = false;
        for k in 20..60 {
            let z = bb.eval_iq(k as f64 * ts);
            if (z - bb.symbols()[k]).abs() > 1e-3 {
                any_isi = true;
            }
        }
        assert!(any_isi, "SRRC should exhibit ISI before matched filtering");
    }

    #[test]
    fn steady_range_excludes_edges() {
        let bb = test_bb(128);
        let (t0, t1) = bb.steady_time_range();
        assert!((t0 - 12.0 * 1e-7).abs() < 1e-15);
        assert!((t1 - 115.0 * 1e-7).abs() < 1e-15);
        assert!(t1 > t0);
    }

    #[test]
    fn paper_window_fits_in_steady_range() {
        // Paper cost function uses a 1230 ns probe window ([470, 1700] ns);
        // the absolute origin is arbitrary, so check the steady region is
        // long enough to host it.
        let bb = test_bb(64);
        let (t0, t1) = bb.steady_time_range();
        assert!(t1 - t0 >= 1230e-9, "steady span {}", t1 - t0);
    }

    #[test]
    fn waveform_is_zero_far_outside_support() {
        let bb = test_bb(32);
        assert_eq!(bb.eval_iq(-1.0), Complex64::ZERO);
        assert_eq!(bb.eval_iq(1.0), Complex64::ZERO); // 1 s >> 32 symbols · 0.1 µs
    }

    #[test]
    fn occupied_bandwidth_matches_paper() {
        // 10 MHz symbols, α = 0.5 → 15 MHz
        let bb = test_bb(64);
        assert!((bb.occupied_bandwidth() - 15e6).abs() < 1.0);
    }

    #[test]
    fn rms_level_is_near_unit_for_qpsk() {
        // Unit-power constellation with SRRC shaping keeps ~unit RMS.
        let bb = test_bb(256);
        let (t0, t1) = bb.steady_time_range();
        let n = 4000;
        let mut acc = 0.0;
        for i in 0..n {
            let t = t0 + (t1 - t0) * i as f64 / n as f64;
            acc += bb.eval_iq(t).norm_sqr();
        }
        let rms = (acc / n as f64).sqrt();
        assert!((rms - 1.0).abs() < 0.15, "rms {rms}");
    }

    #[test]
    fn infinite_time_is_outside_the_burst() {
        // `floor() as isize` saturates at ±inf; the tap range must too
        let rc = ShapedBaseband::new(
            vec![Complex64::ONE; 8],
            PulseShape::Rc {
                alpha: 0.5,
                span: 4,
            },
            1.0,
        );
        for bb in [test_bb(32), rc] {
            assert_eq!(bb.eval_iq(f64::INFINITY), Complex64::ZERO);
            assert_eq!(bb.eval_iq(f64::NEG_INFINITY), Complex64::ZERO);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = test_bb(64);
        let b = test_bb(64);
        assert_eq!(a.eval_iq(1e-6), b.eval_iq(1e-6));
    }

    #[test]
    fn random_constructor_uses_rng() {
        let mut rng = Randomizer::from_seed(5);
        let bb = ShapedBaseband::random(
            Constellation::Qam16,
            1e6,
            PulseShape::paper_default(),
            64,
            &mut rng,
        );
        assert_eq!(bb.symbols().len(), 64);
    }

    #[test]
    #[should_panic(expected = "steady region")]
    fn too_few_symbols_panics_steady_range() {
        let bb = test_bb(20); // span 12 needs > 25
        let _ = bb.steady_time_range();
    }

    #[test]
    #[should_panic(expected = "symbol rate must be positive")]
    fn bad_rate_panics() {
        let _ = ShapedBaseband::new(vec![Complex64::ONE], PulseShape::Rect, 0.0);
    }
}
