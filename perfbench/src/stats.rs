//! Order statistics and process measurements shared by every workload.

use std::time::Instant;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the `inclusive` method of Python's `statistics.quantiles`);
/// 0 for an empty sample.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty sample.
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of `candidates` (ascending quantiles, e.g. `[0.5, 0.9,
/// 0.99]`) that leaves at least ten samples above it in a sample of `n`;
/// the first candidate when none does.
pub(crate) fn supported_quantile(n: usize, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .copied()
        .filter(|q| (1.0 - q) * n as f64 >= 10.0 - 1e-9)
        .fold(candidates[0], f64::max)
}

/// Seconds elapsed since `t0`.
pub(crate) fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size (`VmHWM`) of process `pid` in megabytes (2²⁰
/// bytes), or `None` when `/proc` does not report it.
pub(crate) fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over a sequence of `u64`s: a compact digest of simulated
/// statistics, so two builds that execute differently show different
/// digests.
pub(crate) fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn supported_quantile_needs_ten_samples_beyond() {
        assert_eq!(supported_quantile(50, &[0.5, 0.9, 0.99]), 0.5);
        assert_eq!(supported_quantile(100, &[0.5, 0.9, 0.99]), 0.9);
        assert_eq!(supported_quantile(1000, &[0.5, 0.9, 0.99]), 0.99);
    }

    #[test]
    fn digest_depends_on_order_and_values() {
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([7, 9]), digest(vec![7, 9]));
    }
}
