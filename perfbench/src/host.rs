//! Host-speed calibration.
//!
//! The benchmark shares a few cores of a host with other tenants, and how
//! fast those cores run drifts by up to 2× over minutes. A ranked
//! workload's run therefore times a fixed kernel of the benchmark's own —
//! integer arithmetic and random reads and writes in a 64 KiB table,
//! nothing from the repository's crates — in short bursts interleaved with
//! its trials, and reports each end-to-end time at reference host speed:
//! each trial's time divided by how many times longer than
//! [`REF_KERNEL_S`] the kernel's median repetition took around that trial
//! (rates multiplied by it), so a shift within a run cancels as well as
//! one between runs. Both commits of a comparison run the identical
//! kernel, so a change to the program moves the reported values exactly
//! as it moves the measured ones. The measured values are printed beside
//! them as `<name>.raw`. The daemon workload only records the kernel's
//! time (see `README.md`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::stats::median;

/// Table entries of the kernel (64 KiB of `u32`).
const TABLE: usize = 1 << 14;
/// Iterations of one kernel repetition.
const KERNEL_ITERS: u32 = 200_000;
/// One repetition's time on the reference host (2-core Intel Xeon at
/// 2.0 GHz, the host of `baseline.json`).
pub const REF_KERNEL_S: f64 = 1.3e-3;
/// How far around an interval [`Calibration::near`] looks for
/// repetitions.
const NEAR: Duration = Duration::from_millis(300);

/// The kernel's repetition times gathered over a run.
pub struct Calibration {
    table: Vec<u32>,
    state: u64,
    /// When each repetition ended, and its seconds.
    samples: Vec<(Instant, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { table: vec![0; TABLE], state: 0x9e37_79b9_7f4a_7c15, samples: Vec::new() }
    }
}

impl Calibration {
    /// Times `reps` repetitions of the kernel.
    pub fn burst(&mut self, reps: usize) {
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut x = self.state;
            for _ in 0..KERNEL_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = x as usize & (TABLE - 1);
                let v = self.table[i];
                self.table[i] = v.wrapping_add(x as u32);
                if v & 1 == 0 {
                    x = x.wrapping_add(u64::from(v));
                }
            }
            self.state = black_box(x);
            let end = Instant::now();
            self.samples.push((end, (end - t0).as_secs_f64()));
        }
    }

    /// Repetitions timed so far.
    pub fn reps(&self) -> usize {
        self.samples.len()
    }

    /// How many times longer than on the reference host the run's median
    /// repetition took: above 1 on a slower host. 1 before any burst.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.samples.iter().map(|&(_, s)| s))
    }

    /// The slowdown over the repetitions that ended within [`NEAR`] of the
    /// interval `from..to`; the whole run's when fewer than two did.
    pub fn near(&self, from: Instant, to: Instant) -> f64 {
        let lo = from.checked_sub(NEAR).unwrap_or(from);
        let hi = to + NEAR;
        let local: Vec<f64> =
            self.samples.iter().filter(|&&(t, _)| t >= lo && t <= hi).map(|&(_, s)| s).collect();
        if local.len() < 2 {
            self.slowdown()
        } else {
            slowdown(local)
        }
    }

    /// Records the run's median repetition time and slowdown.
    pub fn record(&self, report: &mut Report) {
        let k = self.samples.len() as u64;
        report.metric("host.kernel_us", self.slowdown() * REF_KERNEL_S * 1e6, "us", k);
        report.metric("host.slowdown", self.slowdown(), "ratio", k);
    }
}

fn slowdown(seconds: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = seconds.into_iter().collect();
    if v.is_empty() {
        1.0
    } else {
        median(&v) / REF_KERNEL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowdown_is_local_to_the_interval_when_it_can_be() {
        let mut cal = Calibration::default();
        assert_eq!(cal.slowdown(), 1.0);
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let r = REF_KERNEL_S;
        cal.samples = vec![(at(0), r), (at(10), r), (at(1000), 3.0 * r), (at(1010), 3.0 * r)];
        assert!((cal.slowdown() - 2.0).abs() < 1e-12);
        assert!((cal.near(at(990), at(995)) - 3.0).abs() < 1e-12);
        assert!((cal.near(at(20), at(30)) - 1.0).abs() < 1e-12);
        // Nothing near: the whole run's slowdown.
        assert!((cal.near(at(5000), at(5001)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_burst_times_each_repetition() {
        let mut cal = Calibration::default();
        cal.burst(2);
        assert_eq!(cal.reps(), 2);
        assert!(cal.slowdown() > 0.0);
    }
}
