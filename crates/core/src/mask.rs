//! Spectral masks and compliance checking.
//!
//! The paper's motivation: "Our initial efforts are focused to the
//! characterization of the transmitter (Tx) chain with respect to
//! compliance to the spectral mask … the most vexing post-manufacture
//! test issue for tactical radio units." A mask is a set of offset
//! ranges around the carrier with maximum allowed PSD relative to the
//! in-band peak density (dBc); the BIST verdict is the worst margin.

use rfbist_dsp::psd::PsdEstimate;

use crate::error::BistError;

/// Cap on the number of [`MaskViolation`] entries a [`MaskReport`]
/// carries; [`MaskReport::violation_count`] always records the full
/// total, so truncation is visible.
pub const MAX_REPORTED_VIOLATIONS: usize = 64;

/// Headroom (dB) the floor-lifted library masks keep above the eq. 4
/// jitter-noise floor of their deployment carrier — see
/// [`jitter_floor_dbc`].
pub const MASK_FLOOR_HEADROOM_DB: f64 = 4.0;

/// The BIST's own measurement floor (dBc, per mask segment) set by
/// DCDE clock jitter at a given carrier: eq. 4's phase-noise pedestal
/// `(2π·f_c·σ_jitter)²` spread over the reconstruction band. The
/// factor `1/2` reflects the paper's DCDE-only jitter placement (only
/// the odd channel's sampling instants jitter), and `occupied/band`
/// converts total pedestal power to the fraction a segment-width
/// density comparison sees relative to the occupied-band peak.
///
/// A mask limit below this floor is undecidable through the front end:
/// a *healthy* unit's own instrument noise trips it. The thin
/// `lte5-like` and `wb-20msym-srrc0.35` segments are floor-lifted to
/// `floor + `[`MASK_FLOOR_HEADROOM_DB`] at their deployment carriers.
///
/// `carrier_hz`, `occupied_hz` and `band_hz` are the carrier,
/// occupied bandwidth and reconstruction bandwidth in Hz;
/// `jitter_rms` is the DCDE clock jitter in seconds RMS.
pub fn jitter_floor_dbc(carrier_hz: f64, jitter_rms: f64, occupied_hz: f64, band_hz: f64) -> f64 {
    let pedestal = (2.0 * std::f64::consts::PI * carrier_hz * jitter_rms).powi(2) / 2.0;
    10.0 * (pedestal * occupied_hz / band_hz).log10()
}

/// One mask segment: limits on `offset_lo ≤ |f − f_c| ≤ offset_hi`.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MaskSegment {
    /// Lower absolute offset from the carrier, Hz.
    pub offset_lo: f64,
    /// Upper absolute offset from the carrier, Hz.
    pub offset_hi: f64,
    /// Maximum allowed PSD relative to the in-band peak density, dBc.
    pub limit_dbc: f64,
}

/// A named emission mask.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpectralMask {
    name: String,
    /// Half-width of the reference region around the carrier used to
    /// establish the 0 dBc peak density.
    reference_half_width: f64,
    segments: Vec<MaskSegment>,
}

impl SpectralMask {
    /// Builds a mask. A malformed mask — no segments, an inverted,
    /// negative or non-finite segment, or a non-positive reference
    /// half-width — is a typed [`BistError::InvalidConfig`]. The
    /// built-in presets below satisfy the same contract (pinned by
    /// `builtin_presets_pass_construction_validation`).
    pub fn try_new(
        name: impl Into<String>,
        reference_half_width: f64,
        segments: Vec<MaskSegment>,
    ) -> Result<Self, BistError> {
        let invalid = |reason: &str| {
            Err(BistError::InvalidConfig {
                reason: reason.into(),
            })
        };
        if segments.is_empty() {
            return invalid("mask needs at least one segment");
        }
        // NaN must fail this check too, so the comparison is written
        // to reject everything that is not strictly positive
        if reference_half_width.is_nan() || reference_half_width <= 0.0 {
            return invalid("reference width must be positive");
        }
        for s in &segments {
            if !(s.offset_hi > s.offset_lo && s.offset_lo >= 0.0) {
                return invalid("segment offsets must satisfy 0 <= lo < hi");
            }
            // Validated here so `limit_at`'s min-fold can never meet a
            // NaN at verdict time.
            if !s.limit_dbc.is_finite() {
                return invalid("segment limits must be finite dBc values");
            }
        }
        Ok(SpectralMask {
            name: name.into(),
            reference_half_width,
            segments,
        })
    }

    /// The emission mask used by this repository's experiments for the
    /// paper's stimulus (10 MHz QPSK, SRRC α = 0.5 ⇒ ±7.5 MHz occupied):
    /// close-in skirt −28 dBc, first adjacent region −38 dBc, far
    /// region −42 dBc out to the reconstruction band edge.
    ///
    /// Limit placement follows test-engineering practice: the tightest
    /// segment sits ~6 dB above the BIST's own measurement floor
    /// (≈ −49 dBc density for the paper's 10-bit / 3 ps-jitter
    /// front-end), so a healthy unit passes with margin while PA
    /// regrowth faults are still caught.
    pub fn qpsk_10msym() -> Self {
        SpectralMask {
            name: "qpsk-10msym-srrc0.5".into(),
            reference_half_width: 6e6,
            segments: vec![
                MaskSegment {
                    offset_lo: 8.5e6,
                    offset_hi: 12.5e6,
                    limit_dbc: -28.0,
                },
                MaskSegment {
                    offset_lo: 12.5e6,
                    offset_hi: 22.5e6,
                    limit_dbc: -38.0,
                },
                MaskSegment {
                    offset_lo: 22.5e6,
                    offset_hi: 43e6,
                    limit_dbc: -42.0,
                },
            ],
        }
    }

    /// A WCDMA-shaped mask for a 3.84 Mcps (≈ 5 MHz channel) carrier:
    /// two adjacent-channel steps shaped after the 3GPP TS 25.101 ACLR
    /// requirements (33 dB at the first adjacent carrier, 43 dB at the
    /// second), expressed as offset segments starting beyond the
    /// occupied band (the segment edge clears the 0 dBc reference
    /// region, as every measured mask must). The
    /// −43 dBc step sits ~6 dB above the BIST's own ≈ −49 dBc
    /// measurement floor (see [`qpsk_10msym`](Self::qpsk_10msym)), so
    /// the mask is decidable through the paper's 10-bit / 3 ps-jitter
    /// front-end.
    pub fn wcdma_like() -> Self {
        SpectralMask {
            name: "wcdma-like-3g84".into(),
            reference_half_width: 2.5e6,
            segments: vec![
                MaskSegment {
                    offset_lo: 3.5e6,
                    offset_hi: 7.5e6,
                    limit_dbc: -33.0,
                },
                MaskSegment {
                    offset_lo: 7.5e6,
                    offset_hi: 12.5e6,
                    limit_dbc: -43.0,
                },
            ],
        }
    }

    /// An LTE-5-MHz-shaped mask (4.5 MHz occupied): three stepped
    /// operating-band-emission segments shaped after the general SEM
    /// of 3GPP TS 36.101 §6.6.2.1 (−30/−36/−43-style steps widening
    /// away from the channel edge). Every segment is floor-lifted to
    /// [`MASK_FLOOR_HEADROOM_DB`] above the eq. 4 jitter floor of the
    /// campaign's 2.175 GHz deployment carrier at the in-spec 3 ps
    /// DCDE jitter ([`jitter_floor_dbc`] ≈ −43.8 dBc there), so a
    /// healthy unit's own instrument noise can never trip the thin
    /// far-out step (the nominal −43 dBc lifts to ≈ −39.8 dBc).
    pub fn lte5_like() -> Self {
        let floor = jitter_floor_dbc(2.175e9, 3e-12, 4.5e6, 90e6) + MASK_FLOOR_HEADROOM_DB;
        SpectralMask {
            name: "lte5-like".into(),
            reference_half_width: 2.5e6,
            segments: vec![
                MaskSegment {
                    offset_lo: 3.5e6,
                    offset_hi: 5e6,
                    limit_dbc: (-30.0f64).max(floor),
                },
                MaskSegment {
                    offset_lo: 5e6,
                    offset_hi: 10e6,
                    limit_dbc: (-36.0f64).max(floor),
                },
                MaskSegment {
                    offset_lo: 10e6,
                    offset_hi: 20e6,
                    limit_dbc: (-43.0f64).max(floor),
                },
            ],
        }
    }

    /// A GSM-shaped narrowband mask for a 270.833 ksym/s GMSK carrier:
    /// stepped skirts shaped after the modulation-spectrum template of
    /// 3GPP TS 45.005 §4.2.1 (−30 dB a symbol rate out, tightening
    /// beyond), offset-scaled past the repository stimulus's truncated
    /// 12-symbol SRRC skirt and floor-lifted to the BIST's measurement
    /// floor. Its
    /// 100-kHz-scale offsets need a finer resolution bandwidth than
    /// the paper's 4 GHz default grid provides — the multistandard
    /// sweep retunes the engine's analysis grid per standard, which is
    /// exactly the flexibility this library exists to exercise.
    pub fn gsm_like() -> Self {
        SpectralMask {
            name: "gsm-like-270k".into(),
            reference_half_width: 150e3,
            segments: vec![
                MaskSegment {
                    offset_lo: 350e3,
                    offset_hi: 600e3,
                    limit_dbc: -30.0,
                },
                MaskSegment {
                    offset_lo: 600e3,
                    offset_hi: 1.5e6,
                    limit_dbc: -36.0,
                },
                MaskSegment {
                    offset_lo: 1.5e6,
                    offset_hi: 3e6,
                    limit_dbc: -40.0,
                },
            ],
        }
    }

    /// A wideband 20 Msym/s mask (SRRC α = 0.35 ⇒ ±13.5 MHz
    /// occupied): regrowth skirt plus far-out step, scaled from the
    /// [`qpsk_10msym`](Self::qpsk_10msym) shape to the widest
    /// modulation the 90 MHz reconstruction band can carry — the upper
    /// segment edge stays inside the ±45 MHz band the PNBS
    /// reconstruction covers, and every limit is floor-lifted to
    /// [`MASK_FLOOR_HEADROOM_DB`] above the eq. 4 jitter floor of the
    /// campaign's 2.85 GHz deployment carrier at the in-spec 3 ps DCDE
    /// jitter ([`jitter_floor_dbc`] ≈ −33.6 dBc there — the floor
    /// rises with the carrier's spectral position, so the nominal
    /// −34 dBc far-out step lifts to ≈ −29.6 dBc).
    pub fn wideband_20msym() -> Self {
        let floor = jitter_floor_dbc(2.85e9, 3e-12, 27e6, 90e6) + MASK_FLOOR_HEADROOM_DB;
        SpectralMask {
            name: "wb-20msym-srrc0.35".into(),
            reference_half_width: 15e6,
            segments: vec![
                MaskSegment {
                    offset_lo: 16e6,
                    offset_hi: 30e6,
                    limit_dbc: (-26.0f64).max(floor),
                },
                MaskSegment {
                    offset_lo: 30e6,
                    offset_hi: 43e6,
                    limit_dbc: (-34.0f64).max(floor),
                },
            ],
        }
    }

    /// Mask name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The segments.
    pub fn segments(&self) -> &[MaskSegment] {
        &self.segments
    }

    /// Half-width of the 0 dBc reference region around the carrier.
    pub fn reference_half_width(&self) -> f64 {
        self.reference_half_width
    }

    /// The limit binding at absolute carrier offset `offset`: the
    /// *tightest* (lowest) `limit_dbc` among every segment containing
    /// the offset, so a bin landing exactly on a shared boundary
    /// (`offset_hi == next.offset_lo`) is held to the stricter
    /// neighbour. `None` when no segment covers the offset.
    pub fn limit_at(&self, offset: f64) -> Option<f64> {
        self.segments
            .iter()
            .filter(|s| offset >= s.offset_lo && offset <= s.offset_hi)
            .map(|s| s.limit_dbc)
            // limits are validated finite at construction; total_cmp
            // keeps the fold total regardless
            .min_by(f64::total_cmp)
    }

    /// Checks a one-sided PSD (as produced by the reconstruction path)
    /// against the mask around the given carrier `carrier_hz` (Hz).
    ///
    /// The 0 dBc reference is the *peak density* within
    /// `±reference_half_width` of the carrier.
    ///
    /// A PSD with no bins inside the reference region, or none inside
    /// any mask segment, is [`BistError::NoMaskCoverage`]: either way
    /// the estimate cannot support a verdict (resolution too coarse,
    /// or the mask lies outside the analysis band), and a silent
    /// `passed` would be a false negative.
    pub fn try_check(&self, psd: &PsdEstimate, carrier_hz: f64) -> Result<MaskReport, BistError> {
        let db: Vec<f64> = psd.psd_db();
        let reference_db = psd
            .freqs
            .iter()
            .zip(&db)
            .filter(|(f, _)| (**f - carrier_hz).abs() <= self.reference_half_width)
            .map(|(_, p)| *p)
            .fold(f64::NEG_INFINITY, f64::max);
        if !reference_db.is_finite() {
            return Err(BistError::NoMaskCoverage {
                reason: "PSD has no bins within the mask reference region".into(),
            });
        }

        let (report, masked_bins) = report_from_margins(
            self.name.clone(),
            carrier_hz,
            reference_db,
            psd.freqs.iter().zip(&db).filter_map(|(f, p)| {
                self.limit_at((f - carrier_hz).abs())
                    .map(|limit| (*f, limit, p - reference_db))
            }),
        );
        if masked_bins == 0 {
            return Err(BistError::NoMaskCoverage {
                reason: "PSD has no bins within any mask segment — cannot produce a verdict".into(),
            });
        }
        Ok(report)
    }
}

/// One named standard of the [`MaskLibrary`]: the emission mask plus
/// the stimulus parameters (symbol rate, pulse roll-off) and the
/// coarsest resolution bandwidth that still resolves the mask's
/// narrowest feature — what a test program needs to retune the BIST
/// engine per standard.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MaskStandard {
    /// Symbol (or chip) rate of the standard's stimulus, Hz.
    pub symbol_rate: f64,
    /// SRRC roll-off of the stimulus pulse shaping.
    pub rolloff: f64,
    /// Coarsest Welch resolution bandwidth (Hz) that still places bins
    /// inside the mask's reference region and narrowest segment — the
    /// sweep derives each standard's analysis grid from this.
    pub max_rbw_hz: f64,
    /// One-line provenance note (which published template the shape
    /// follows).
    pub summary: &'static str,
    /// The emission mask itself; [`SpectralMask::name`] names the
    /// standard.
    pub mask: SpectralMask,
}

impl MaskStandard {
    /// The standard's name (the mask's name).
    pub fn name(&self) -> &str {
        self.mask.name()
    }
}

/// The multi-standard emission-mask library: the named masks an SDR
/// BIST hops across, promoted from the ad-hoc definitions the
/// multistandard example used to build inline. Consumed by
/// `BistEngine` runs (via [`MaskStandard::mask`]), the
/// `multistandard_sweep` example and the sweep benches; the
/// programmable-modulator line of work (Hatai & Chakrabarti,
/// arXiv:1009.6132) is the motivation — one fixed sampler, many
/// standards, retuned in software.
///
/// # Example
///
/// ```
/// use rfbist_core::mask::MaskLibrary;
///
/// let lib = MaskLibrary::builtin();
/// assert!(lib.len() >= 4);
/// let wcdma = lib.get("wcdma-like-3g84").unwrap();
/// assert_eq!(wcdma.mask.segments().len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MaskLibrary {
    standards: Vec<MaskStandard>,
}

impl MaskLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in standards: the paper's QPSK stimulus plus the
    /// WCDMA-like, LTE-5-MHz-like, GSM-like and wideband shapes (see
    /// the respective [`SpectralMask`] constructors for the cited
    /// segment tables).
    pub fn builtin() -> Self {
        let mut lib = MaskLibrary::new();
        lib.register(MaskStandard {
            symbol_rate: 10e6,
            rolloff: 0.5,
            max_rbw_hz: 2e6,
            summary: "paper Section V stimulus; limits ~6 dB above the BIST floor",
            mask: SpectralMask::qpsk_10msym(),
        });
        lib.register(MaskStandard {
            symbol_rate: 3.84e6,
            rolloff: 0.22,
            max_rbw_hz: 1.5e6,
            summary: "shaped after 3GPP TS 25.101 ACLR (33/43 dB), floor-lifted",
            mask: SpectralMask::wcdma_like(),
        });
        lib.register(MaskStandard {
            symbol_rate: 4.0e6,
            rolloff: 0.12,
            max_rbw_hz: 1.2e6,
            summary: "shaped after 3GPP TS 36.101 general SEM steps, floor-lifted",
            mask: SpectralMask::lte5_like(),
        });
        lib.register(MaskStandard {
            symbol_rate: 270.833e3,
            rolloff: 0.3,
            max_rbw_hz: 90e3,
            summary: "shaped after 3GPP TS 45.005 modulation spectrum, floor-lifted",
            mask: SpectralMask::gsm_like(),
        });
        lib.register(MaskStandard {
            symbol_rate: 20e6,
            rolloff: 0.35,
            max_rbw_hz: 6e6,
            summary: "qpsk-10msym shape scaled to the 90 MHz band's widest carrier",
            mask: SpectralMask::wideband_20msym(),
        });
        lib
    }

    /// Adds (or replaces, by name) a standard.
    pub fn register(&mut self, standard: MaskStandard) {
        match self
            .standards
            .iter_mut()
            .find(|s| s.name() == standard.name())
        {
            Some(slot) => *slot = standard,
            None => self.standards.push(standard),
        }
    }

    /// Looks a standard up by name.
    pub fn get(&self, name: &str) -> Option<&MaskStandard> {
        self.standards.iter().find(|s| s.name() == name)
    }

    /// The registered standards, in registration order.
    pub fn standards(&self) -> &[MaskStandard] {
        &self.standards
    }

    /// Registered standard names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.standards.iter().map(|s| s.name())
    }

    /// Number of registered standards.
    pub fn len(&self) -> usize {
        self.standards.len()
    }

    /// `true` when no standards are registered.
    pub fn is_empty(&self) -> bool {
        self.standards.is_empty()
    }
}

/// Folds per-bin `(frequency, limit_dbc, measured_dbc)` margins into a
/// [`MaskReport`], returning it with the number of bins consumed.
///
/// The single definition of the verdict semantics — worst-margin
/// selection, violation counting and the [`MAX_REPORTED_VIOLATIONS`]
/// truncation — shared by [`SpectralMask::try_check`] and the banked
/// [`crate::scan::MaskScanEngine`], so the two paths cannot drift.
/// `carrier_hz` is the carrier in Hz and `reference_db` the absolute
/// 0 dBc reference density level in dB.
pub(crate) fn report_from_margins<I>(
    mask_name: String,
    carrier_hz: f64,
    reference_db: f64,
    bins: I,
) -> (MaskReport, usize)
where
    I: Iterator<Item = (f64, f64, f64)>,
{
    let mut worst_margin = f64::INFINITY;
    let mut worst_frequency = carrier_hz;
    let mut violations = Vec::new();
    let mut violation_count = 0usize;
    let mut masked_bins = 0usize;
    for (frequency, limit_dbc, measured_dbc) in bins {
        masked_bins += 1;
        let margin = limit_dbc - measured_dbc;
        if margin < worst_margin {
            worst_margin = margin;
            worst_frequency = frequency;
        }
        if margin < 0.0 {
            violation_count += 1;
            if violations.len() < MAX_REPORTED_VIOLATIONS {
                violations.push(MaskViolation {
                    frequency,
                    measured_dbc,
                    limit_dbc,
                });
            }
        }
    }
    let truncated = violation_count > violations.len();
    let report = MaskReport {
        mask_name,
        passed: violation_count == 0,
        worst_margin_db: worst_margin,
        worst_frequency_hz: worst_frequency,
        reference_db,
        violation_count,
        violations,
        truncated,
    };
    (report, masked_bins)
}

/// One mask violation.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MaskViolation {
    /// Absolute frequency of the violating bin, Hz.
    pub frequency: f64,
    /// Measured level relative to the reference, dBc.
    pub measured_dbc: f64,
    /// The limit that was exceeded, dBc.
    pub limit_dbc: f64,
}

/// Verdict of a mask check.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MaskReport {
    /// Name of the mask that was applied.
    pub mask_name: String,
    /// `true` when no bin exceeded its limit.
    pub passed: bool,
    /// Smallest (limit − measured) margin across all masked bins, dB;
    /// negative when failing.
    pub worst_margin_db: f64,
    /// Frequency at which the worst margin occurred, Hz.
    pub worst_frequency_hz: f64,
    /// Absolute reference (0 dBc) density level, dB.
    pub reference_db: f64,
    /// Total number of violating bins, including any beyond the
    /// [`violations`](Self::violations) cap — compare against
    /// `violations.len()` to detect truncation.
    pub violation_count: usize,
    /// Violating bins (capped at [`MAX_REPORTED_VIOLATIONS`] entries;
    /// see [`violation_count`](Self::violation_count) for the total).
    pub violations: Vec<MaskViolation>,
    /// `true` when [`violations`](Self::violations) was truncated at
    /// the [`MAX_REPORTED_VIOLATIONS`] cap — surfaced as a flag so
    /// consumers of *partial* streaming reports (which may be folded
    /// into later ones) cannot silently drop violations.
    pub truncated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_dsp::psd::periodogram;
    use rfbist_dsp::window::Window;
    use std::f64::consts::PI;

    /// A synthetic spectrum: strong carrier-band tone plus a controllable
    /// spur at a given offset and level.
    fn psd_with_spur(spur_offset: f64, spur_dbc: f64) -> PsdEstimate {
        let fs = 400e6;
        let fc = 100e6;
        let n = 1 << 14;
        let amp_spur = 10f64.powf(spur_dbc / 20.0);
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * PI * fc * t).sin() + amp_spur * (2.0 * PI * (fc + spur_offset) * t).sin()
            })
            .collect();
        periodogram(&x, fs, Window::BlackmanHarris)
    }

    fn test_mask() -> SpectralMask {
        SpectralMask::try_new(
            "test",
            5e6,
            vec![
                MaskSegment {
                    offset_lo: 8e6,
                    offset_hi: 20e6,
                    limit_dbc: -30.0,
                },
                MaskSegment {
                    offset_lo: 20e6,
                    offset_hi: 40e6,
                    limit_dbc: -50.0,
                },
            ],
        )
        .unwrap()
    }

    /// Asserts `result` is the `InvalidConfig` error whose reason
    /// contains `needle`.
    fn assert_invalid(result: Result<SpectralMask, BistError>, needle: &str) {
        let err = result.unwrap_err();
        assert!(
            matches!(&err, BistError::InvalidConfig { reason } if reason.contains(needle)),
            "{err}"
        );
    }

    #[test]
    fn non_finite_limits_are_rejected_at_construction() {
        assert_invalid(
            SpectralMask::try_new(
                "bad",
                5e6,
                vec![MaskSegment {
                    offset_lo: 8e6,
                    offset_hi: 20e6,
                    limit_dbc: f64::NAN,
                }],
            ),
            "finite dBc",
        );
    }

    #[test]
    fn builtin_presets_pass_construction_validation() {
        // the presets are struct literals; rebuilding each through the
        // validating constructor must succeed and give the same mask
        for std in MaskLibrary::builtin().standards() {
            let m = &std.mask;
            let rebuilt =
                SpectralMask::try_new(m.name(), m.reference_half_width(), m.segments().to_vec());
            assert_eq!(rebuilt.as_ref(), Ok(m), "{}", m.name());
        }
    }

    #[test]
    fn try_check_types_the_no_coverage_failures() {
        let psd = psd_with_spur(15e6, -80.0);
        // carrier far outside the analysis band: no reference bins
        let err = test_mask().try_check(&psd, 5e9).unwrap_err();
        assert!(matches!(
            err,
            crate::error::BistError::NoMaskCoverage { .. }
        ));
        assert!(err.to_string().contains("reference region"));
    }

    #[test]
    fn thin_library_masks_keep_headroom_over_the_jitter_floor() {
        // the floor-lift relation: lifted limit == eq. 4 floor + headroom
        let lte_floor = jitter_floor_dbc(2.175e9, 3e-12, 4.5e6, 90e6);
        let lte = SpectralMask::lte5_like();
        let far = lte.segments().last().unwrap().limit_dbc;
        assert!(
            (far - (lte_floor + MASK_FLOOR_HEADROOM_DB)).abs() < 1e-9,
            "lte5 far-out limit {far} vs floor {lte_floor}"
        );
        assert!(far > -43.0, "the nominal −43 dBc step must have lifted");

        let wb_floor = jitter_floor_dbc(2.85e9, 3e-12, 27e6, 90e6);
        let wb = SpectralMask::wideband_20msym();
        let far = wb.segments().last().unwrap().limit_dbc;
        assert!(
            (far - (wb_floor + MASK_FLOOR_HEADROOM_DB)).abs() < 1e-9,
            "wb far-out limit {far} vs floor {wb_floor}"
        );
        assert!(far > -34.0, "the nominal −34 dBc step must have lifted");

        // segments already above the floor are untouched
        assert_eq!(lte.segments()[0].limit_dbc, -30.0);
        assert_eq!(wb.segments()[0].limit_dbc, -26.0);
    }

    #[test]
    fn clean_spectrum_passes() {
        let psd = psd_with_spur(15e6, -80.0);
        let report = test_mask().try_check(&psd, 100e6).unwrap();
        assert!(report.passed, "worst margin {}", report.worst_margin_db);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn loud_spur_fails_with_negative_margin() {
        let psd = psd_with_spur(15e6, -20.0); // 10 dB over the −30 limit
        let report = test_mask().try_check(&psd, 100e6).unwrap();
        assert!(!report.passed);
        assert!(
            (report.worst_margin_db + 10.0).abs() < 2.0,
            "margin {}",
            report.worst_margin_db
        );
        assert!(!report.violations.is_empty());
        let v = &report.violations[0];
        assert!((v.frequency - 115e6).abs() < 1e6);
        assert_eq!(v.limit_dbc, -30.0);
    }

    #[test]
    fn margin_tracks_spur_level() {
        let loud = test_mask()
            .try_check(&psd_with_spur(15e6, -25.0), 100e6)
            .unwrap();
        let quiet = test_mask()
            .try_check(&psd_with_spur(15e6, -28.0), 100e6)
            .unwrap();
        assert!(quiet.worst_margin_db > loud.worst_margin_db);
        let delta = quiet.worst_margin_db - loud.worst_margin_db;
        assert!((delta - 3.0).abs() < 1.0, "delta {delta}");
    }

    #[test]
    fn far_segment_has_tighter_limit() {
        // a −45 dBc spur passes at 15 MHz offset (−30 limit) but fails
        // at 30 MHz (−50 limit)
        let near = test_mask()
            .try_check(&psd_with_spur(15e6, -45.0), 100e6)
            .unwrap();
        assert!(near.passed);
        let far = test_mask()
            .try_check(&psd_with_spur(30e6, -45.0), 100e6)
            .unwrap();
        assert!(!far.passed);
    }

    #[test]
    fn offsets_below_first_segment_are_unchecked() {
        // spur inside the occupied band: not a mask violation
        let psd = psd_with_spur(4e6, -10.0);
        let report = test_mask().try_check(&psd, 100e6).unwrap();
        assert!(report.passed);
    }

    #[test]
    fn worst_frequency_is_reported() {
        let psd = psd_with_spur(30e6, -20.0);
        let report = test_mask().try_check(&psd, 100e6).unwrap();
        assert!((report.worst_frequency_hz - 130e6).abs() < 1e6);
    }

    #[test]
    fn qpsk_mask_shape() {
        let m = SpectralMask::qpsk_10msym();
        assert_eq!(m.segments().len(), 3);
        assert!(m.segments()[0].limit_dbc > m.segments()[2].limit_dbc);
        assert_eq!(m.name(), "qpsk-10msym-srrc0.5");
    }

    /// A hand-built PSD with bins at exactly the given absolute
    /// frequencies and dB levels — for pinning behavior at exact
    /// segment boundaries, which windowed periodograms only hit when
    /// the bin grid happens to align.
    fn psd_at_exact_bins(bins: &[(f64, f64)]) -> PsdEstimate {
        PsdEstimate {
            freqs: bins.iter().map(|(f, _)| *f).collect(),
            psd: bins.iter().map(|(_, db)| 10f64.powf(db / 10.0)).collect(),
            rbw: 1e5,
        }
    }

    #[test]
    fn tighter_limit_binds_at_shared_segment_boundary() {
        // qpsk_10msym shares the 12.5 MHz edge between the −28 dBc and
        // −38 dBc segments. A −30 dBc spur exactly on the edge passes
        // the looser segment but violates the tighter one — the tighter
        // limit must bind.
        let mask = SpectralMask::qpsk_10msym();
        let fc = 1e9;
        let psd = psd_at_exact_bins(&[
            (fc, 0.0),            // reference peak
            (fc + 10e6, -40.0),   // interior of the first segment, clean
            (fc + 12.5e6, -30.0), // spur exactly on the shared edge
            (fc + 30e6, -60.0),   // far segment, clean
        ]);
        let report = mask.try_check(&psd, fc).unwrap();
        assert!(!report.passed, "looser segment must not shadow the edge");
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].limit_dbc, -38.0);
        assert_eq!(report.violations[0].frequency, fc + 12.5e6);
        assert!((report.worst_margin_db + 8.0).abs() < 1e-9);
    }

    #[test]
    fn limit_at_selects_tightest_cover() {
        let mask = test_mask();
        assert_eq!(mask.limit_at(10e6), Some(-30.0));
        assert_eq!(mask.limit_at(20e6), Some(-50.0), "shared edge");
        assert_eq!(mask.limit_at(30e6), Some(-50.0));
        assert_eq!(mask.limit_at(1e6), None);
        assert_eq!(mask.limit_at(50e6), None);
    }

    #[test]
    fn psd_missing_all_mask_segments_is_an_error() {
        // the old behavior silently returned passed with +inf margin
        let mask = test_mask();
        let psd = psd_at_exact_bins(&[(100e6, 0.0), (102e6, -20.0)]);
        let err = mask.try_check(&psd, 100e6).unwrap_err();
        assert!(
            matches!(&err, BistError::NoMaskCoverage { reason }
                if reason.contains("no bins within any mask segment")),
            "{err}"
        );
    }

    #[test]
    fn violation_count_reports_beyond_the_cap() {
        // a wideband fault: every second bin of the first segment is
        // 20 dB over the limit — far more than the 64-entry cap
        let mask = test_mask();
        let fc = 100e6;
        let mut bins = vec![(fc, 0.0)];
        for i in 0..200 {
            bins.push((fc + 9e6 + i as f64 * 50e3, -10.0));
        }
        let report = mask.try_check(&psd_at_exact_bins(&bins), fc).unwrap();
        assert!(!report.passed);
        assert_eq!(report.violations.len(), MAX_REPORTED_VIOLATIONS);
        assert_eq!(report.violation_count, 200, "truncation must be visible");
    }

    #[test]
    fn truncation_flag_mirrors_the_counts() {
        let mask = test_mask();
        let fc = 100e6;
        let mut bins = vec![(fc, 0.0)];
        for i in 0..200 {
            bins.push((fc + 9e6 + i as f64 * 50e3, -10.0));
        }
        let truncated = mask.try_check(&psd_at_exact_bins(&bins), fc).unwrap();
        assert!(truncated.truncated);
        assert_eq!(truncated.violations.len(), MAX_REPORTED_VIOLATIONS);
        let clean = mask.try_check(&psd_with_spur(15e6, -80.0), 100e6).unwrap();
        assert!(!clean.truncated);
        let single = mask.try_check(&psd_with_spur(15e6, -20.0), 100e6).unwrap();
        assert!(!single.truncated, "uncapped violations are not truncated");
        assert!(!single.passed);
    }

    #[test]
    fn builtin_library_has_the_advertised_standards() {
        let lib = MaskLibrary::builtin();
        assert!(lib.len() >= 4, "≥ 4 named standards required");
        assert!(!lib.is_empty());
        for name in [
            "qpsk-10msym-srrc0.5",
            "wcdma-like-3g84",
            "lte5-like",
            "gsm-like-270k",
            "wb-20msym-srrc0.35",
        ] {
            let std = lib.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(std.name(), name);
            assert!(std.symbol_rate > 0.0 && std.max_rbw_hz > 0.0);
            // every library mask stays above the ≈ −49 dBc BIST
            // measurement floor and inside the ±45 MHz analysis band
            for seg in std.mask.segments() {
                assert!(seg.limit_dbc >= -45.0, "{name}: {} dBc", seg.limit_dbc);
                assert!(seg.offset_hi <= 45e6, "{name}: {} Hz", seg.offset_hi);
            }
            // the narrowest mask feature is resolvable at max_rbw_hz
            assert!(std.mask.reference_half_width() >= std.max_rbw_hz / 2.0);
        }
        assert_eq!(lib.names().count(), lib.len());
    }

    #[test]
    fn library_register_replaces_by_name() {
        let mut lib = MaskLibrary::builtin();
        let n = lib.len();
        let mut custom = lib.get("lte5-like").unwrap().clone();
        custom.symbol_rate = 1.0;
        lib.register(custom);
        assert_eq!(lib.len(), n, "same name replaces");
        assert_eq!(lib.get("lte5-like").unwrap().symbol_rate, 1.0);
        lib.register(MaskStandard {
            symbol_rate: 2e6,
            rolloff: 0.25,
            max_rbw_hz: 500e3,
            summary: "custom",
            mask: SpectralMask::try_new(
                "custom-nb",
                1e6,
                vec![MaskSegment {
                    offset_lo: 2e6,
                    offset_hi: 8e6,
                    limit_dbc: -30.0,
                }],
            )
            .unwrap(),
        });
        assert_eq!(lib.len(), n + 1);
        assert!(lib.get("custom-nb").is_some());
    }

    #[test]
    fn library_masks_decide_verdicts_on_synthetic_spectra() {
        // every builtin mask must produce a pass on a clean carrier
        // and a fail on a spur placed inside its first segment, on a
        // bin grid at the standard's advertised resolution
        for std in MaskLibrary::builtin().standards() {
            let fc = 1e9;
            let seg0 = std.mask.segments()[0];
            let spur_offset = 0.5 * (seg0.offset_lo + seg0.offset_hi);
            let rbw = std.max_rbw_hz / 2.0;
            let span = std.mask.segments().last().unwrap().offset_hi + 2.0 * rbw;
            let nbins = (2.0 * span / rbw) as usize;
            let grid = |spur_dbc: Option<f64>| {
                let mut bins = Vec::new();
                for i in 0..=nbins {
                    let f = fc - span + i as f64 * rbw;
                    let mut level = if (f - fc).abs() <= std.mask.reference_half_width() {
                        0.0
                    } else {
                        -60.0
                    };
                    if let Some(dbc) = spur_dbc {
                        if (f - (fc + spur_offset)).abs() < rbw {
                            level = dbc;
                        }
                    }
                    bins.push((f, level));
                }
                psd_at_exact_bins(&bins)
            };
            let clean = std.mask.try_check(&grid(None), fc).unwrap();
            assert!(
                clean.passed,
                "{} clean: {}",
                std.name(),
                clean.worst_margin_db
            );
            let spurred = std
                .mask
                .try_check(&grid(Some(seg0.limit_dbc + 10.0)), fc)
                .unwrap();
            assert!(!spurred.passed, "{} spur must fail", std.name());
        }
    }

    #[test]
    fn empty_mask_is_rejected() {
        assert_invalid(
            SpectralMask::try_new("empty", 1e6, vec![]),
            "at least one segment",
        );
    }

    #[test]
    fn inverted_segment_is_rejected() {
        assert_invalid(
            SpectralMask::try_new(
                "bad",
                1e6,
                vec![MaskSegment {
                    offset_lo: 5e6,
                    offset_hi: 2e6,
                    limit_dbc: -30.0,
                }],
            ),
            "0 <= lo < hi",
        );
    }
}
