//! Small shared helpers: run statistics, seed mixing, process facts
//! and the metric set a run prints.

use std::fmt::Write as _;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of `values`;
/// `0.0` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64 step: derives well-spread per-item seeds from the
/// workload seed, so neighbouring workload seeds share no inputs.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Worker threads the benchmark may use: the machine's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The SIMD tier the library's runtime dispatch selects on this host
/// (`RFBIST_FORCE_SCALAR` pins the scalar kernels).
pub fn simd_dispatch() -> &'static str {
    if rfbist_dsp::simd::force_scalar() {
        return "scalar (forced)";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
            return "x86-64 avx512f+fma";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "x86-64 avx2+fma";
        }
    }
    "scalar"
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics a run reports, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// The `"metrics"` JSON object; every value printed with all of
    /// its digits (Rust's shortest round-trip form).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|m| m.value.is_finite())
    }
}
