//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints every metric by name with its unit and sample count, then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. See `README.md` beside this crate for
//! the workloads, the metrics and which layer moves which metric.

pub mod host;
pub mod report;
pub mod serve;
pub mod sim;
mod stats;
pub mod trace;

/// End-to-end metrics: every workload reports all of them untraced.
pub const END_TO_END: [&str; 5] = ["setup_s", "ips", "op_ms.p50", "op_ms.p90", "peak_rss_mb"];

/// Per-layer metrics with their units: every workload reports all of
/// them traced, 0 where it bypasses the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("scheduler.ns_per_draw", "ns"),
        ("scheduler.draws", "count"),
        ("protocol.ns_per_interact", "ns"),
        ("tracker.update_ns", "ns"),
        ("tracker.rebuild_us", "us"),
        ("simulation.sample_s", "s"),
        ("simulation.transition_s", "s"),
        ("simulation.probe_s", "s"),
        ("simulation.unattributed_s", "s"),
        ("counts.step_exact_us", "us"),
        ("counts.fallback_rate", "ratio"),
        ("counts.exact_steps", "count"),
        ("counts.support.max", "count"),
        ("counts.memo_hit_rate", "ratio"),
        ("counts.compactions", "count"),
        ("batch.ips", "1/s"),
        ("batch.batches", "count"),
        ("batch.batched_pairs", "count"),
        ("batch.memo_hit_rate", "ratio"),
        ("batch.compactions", "count"),
        ("self.setup_s", "s"),
        ("self.check_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.replay_overhead", "ratio"),
        ("trace.replay_mismatches", "count"),
        ("trace.spans", "count"),
        ("host.kernel_us", "us"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    for cmd in serve::Cmd::ALL {
        for span in serve::SPANS {
            v.push((format!("serve.{}.{span}_us", cmd.name()), "us"));
        }
    }
    for (name, unit) in [
        ("serve.busy", "count"),
        ("serve.fsyncs_per_step", "ratio"),
        ("serve.steps", "count"),
        ("client.lag_us.p99", "us"),
        ("client.transport_us.mean", "us"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

/// Every workload the command runs.
pub const WORKLOADS: [&str; 3] = ["rank-agents", "rank-counts", "serve-mixed"];

/// The workloads `BENCHMARK.json` lists, in its order. `serve-mixed` runs
/// on its own for its end-to-end numbers, ungated; its layers are measured
/// by the traced run of `rank-agents` (see `README.md`).
pub const GATED_WORKLOADS: [&str; 2] = ["rank-agents", "rank-counts"];
