//! `ssle top` — live terminal dashboard over a running daemon.
//!
//! Polls the `stats` wire command (and `health` for per-population rows)
//! and renders a per-command latency table: request counts, rps, tail
//! quantiles, span attribution, and a histogram sparkline. Two modes:
//!
//! * `ssle top --once` prints a single frame and exits — a plain read,
//!   nothing is reset; CI and scripts use this as a health probe;
//! * the default loop clears the screen every `--interval-ms` and resets
//!   the window on each poll, so rates and quantiles are *per interval*
//!   (like `vmstat`), not cumulative since boot. `--frames N` bounds the
//!   loop; `0` runs until the daemon goes away or the user interrupts.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::thread;
use std::time::Duration;

use population::record::{parse_flat_json, JsonScalar, ServerStatsRecord};
use ssle_serve::client::request;
use ssle_serve::wire::embedded_rows;

use crate::commands::{parse_flags, sparkline};
use crate::error::CliError;

const FLAGS: &[&str] = &["addr", "interval-ms", "frames"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError::ServerUnreachable`] when the daemon cannot be
/// reached and [`CliError::ServerRefused`] when it rejects the `stats`
/// command (e.g. an `obs-off` build with no tracer attached).
pub fn run(args: &[String]) -> Result<String, CliError> {
    // `--once` is valueless; strip it before the `--key value` parser.
    let once = args.iter().any(|a| a == "--once");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--once").cloned().collect();
    let flags = parse_flags(&rest, FLAGS)?;
    let addr = flags.try_get_str("addr").unwrap_or("127.0.0.1:7700").to_string();
    let interval_ms: u64 = flags.get("interval-ms", 1000);
    let frames: u64 = if once { 1 } else { flags.get("frames", 0) };

    let mut frame = 0u64;
    loop {
        frame += 1;
        // The loop resets the window each poll (interval-local rates); a
        // single `--once` frame reads without disturbing the counters.
        let stats_request =
            if once { r#"{"cmd":"stats"}"# } else { r#"{"cmd":"stats","reset":true}"# };
        let stats_line = request(&addr, stats_request).map_err(|e| {
            CliError::ServerUnreachable { addr: addr.clone(), reason: e.to_string() }
        })?;
        if stats_line.contains("\"ok\":false") {
            let reason = parse_flat_json(&stats_line)
                .ok()
                .and_then(|f| match f.get("error") {
                    Some(JsonScalar::Str(e)) => Some(e.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| stats_line.clone());
            return Err(CliError::ServerRefused { reason });
        }
        let health_line = request(&addr, r#"{"cmd":"health"}"#).unwrap_or_default();
        let text = render_frame(&addr, &stats_line, &health_line);
        if once || frames == 1 {
            return Ok(text);
        }
        // Live mode: repaint in place and keep polling.
        print!("\u{1b}[2J\u{1b}[H{text}");
        let _ = std::io::stdout().flush();
        if frames != 0 && frame >= frames {
            return Ok(String::new());
        }
        thread::sleep(Duration::from_millis(interval_ms.max(50)));
    }
}

/// Renders one dashboard frame from the raw `stats` and `health`
/// response lines.
fn render_frame(addr: &str, stats_line: &str, health_line: &str) -> String {
    let rows: Vec<ServerStatsRecord> = embedded_rows(stats_line, "commands")
        .unwrap_or_default()
        .iter()
        .filter_map(|row| ServerStatsRecord::from_json(row).ok())
        .collect();
    let tracing = stats_line.contains("\"tracing\":true");
    let requests: u64 = rows.iter().map(|r| r.count).sum();
    let rps: f64 = rows.iter().map(|r| r.rps).sum();
    // Gauges ride along on every row; any row serves.
    let gauge = rows.first();
    let mut out = format!(
        "ssle top @ {addr} — {requests} request(s), {rps:.1} rps, window {:.1} s, tracing {}\n",
        gauge.map_or(0.0, |g| g.window_s),
        if tracing { "on" } else { "off" },
    );
    out.push_str(&format!(
        "busy {}  slow {}  queue {}  journal lag {}\n",
        gauge.map_or(0, |g| g.busy),
        gauge.map_or(0, |g| g.slow),
        gauge.map_or(0, |g| g.queue_depth),
        gauge.map_or(0, |g| g.journal_lag),
    ));
    if rows.is_empty() {
        out.push_str("no requests in this window\n");
    } else {
        out.push_str(&format!(
            "{:<12} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9}  latency\n",
            "cmd", "count", "err", "rps", "p50 µs", "p95 µs", "p99 µs"
        ));
        for row in &rows {
            let counts: Vec<f64> = analysis::decode_buckets(&row.hist)
                .map(|buckets| buckets.iter().map(|&(_, c)| c as f64).collect())
                .unwrap_or_default();
            out.push_str(&format!(
                "{:<12} {:>8} {:>6} {:>9.1} {:>9.0} {:>9.0} {:>9.0}  {}\n",
                row.cmd,
                row.count,
                row.errors,
                row.rps,
                row.p50_us,
                row.p95_us,
                row.p99_us,
                sparkline(&counts),
            ));
            out.push_str(&format!(
                "{:<12} spans µs: queue {:.1} | parse {:.1} | reg-lock {:.1} | pop-lock {:.1} | engine {:.1} | journal {:.1} | fsync {:.1} | write {:.1}\n",
                "", row.queue_us, row.parse_us, row.registry_lock_us, row.pop_lock_us,
                row.engine_us, row.journal_us, row.fsync_us, row.write_us,
            ));
        }
    }
    out.push_str(&render_health(health_line));
    out
}

/// Renders the per-population footer from a `health` response line; an
/// empty or unreadable line (health fetch failed) renders nothing.
fn render_health(health_line: &str) -> String {
    let Some(rows) = embedded_rows(health_line, "populations") else { return String::new() };
    let parsed: Vec<BTreeMap<String, JsonScalar>> =
        rows.iter().filter_map(|row| parse_flat_json(row).ok()).collect();
    let mut out = format!("populations: {}\n", parsed.len());
    for pop in &parsed {
        let s = |key: &str| match pop.get(key) {
            Some(JsonScalar::Str(v)) => v.clone(),
            Some(JsonScalar::Num(v)) => format!("{v}"),
            Some(JsonScalar::Int(v)) => v.to_string(),
            Some(JsonScalar::Null) => "-".to_string(),
            Some(JsonScalar::Bool(v)) => v.to_string(),
            None => "?".to_string(),
        };
        out.push_str(&format!(
            "  {:<12} {}/{} live  seq {}  lag {}  fsync {}\n",
            s("pop"),
            s("live"),
            s("n"),
            s("seq"),
            s("lag"),
            s("fsync"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tentpole: a frame renders the per-command table, span attribution,
    /// gauges, and the per-population footer from raw wire lines.
    #[test]
    fn frame_renders_commands_gauges_and_populations() {
        let stats = concat!(
            r#"{"ok":true,"cmd":"stats","tracing":true,"requests":44,"rps":22.0,"#,
            r#""window_s":2.0,"busy":1,"slow":2,"queue_depth":0,"dumps":0,"journal_lag":3,"#,
            r#""reset":false,"commands":["#,
            r#"{"v":9,"kind":"server_stats","experiment":"serve","cmd":"step","count":40,"#,
            r#""errors":0,"rps":20.0,"p50_us":120,"p95_us":900,"p99_us":2000,"mean_us":200,"#,
            r#""queue_us":1,"parse_us":2,"registry_lock_us":0.5,"pop_lock_us":0.5,"engine_us":150,"#,
            r#""journal_us":20,"fsync_us":10,"write_us":16,"hist":"128:30,1024:10","#,
            r#""window_s":2.0,"busy":1,"queue_depth":0,"slow":2,"journal_lag":3}"#,
            r#"]}"#
        );
        let health = concat!(
            r#"{"ok":true,"cmd":"health","count":1,"quarantines":0,"durable":true,"#,
            r#""populations":[{"pop":"alpha","protocol":"ciw","backend":"counts","n":16,"#,
            r#""live":16,"interactions":2000,"ranked":false,"seq":11,"snapshot_seq":8,"#,
            r#""lag":3,"fsync":"every:16"}]}"#
        );
        let text = render_frame("127.0.0.1:7700", stats, health);
        assert!(text.contains("tracing on"), "{text}");
        assert!(text.contains("step"), "{text}");
        assert!(text.contains("engine 150.0"), "{text}");
        assert!(text.contains("busy 1  slow 2"), "{text}");
        assert!(text.contains("journal lag 3"), "{text}");
        assert!(text.contains("populations: 1"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("16/16 live"), "{text}");
    }

    /// An idle daemon still renders a frame — zero gauges, no table rows.
    #[test]
    fn empty_window_renders_a_quiet_frame() {
        let stats = concat!(
            r#"{"ok":true,"cmd":"stats","tracing":true,"requests":0,"rps":0.0,"#,
            r#""window_s":0.0,"busy":0,"slow":0,"queue_depth":0,"dumps":0,"journal_lag":0,"#,
            r#""reset":false,"commands":[]}"#
        );
        let text = render_frame("127.0.0.1:7700", stats, "");
        assert!(text.contains("no requests in this window"), "{text}");
        assert!(text.contains("0 request(s)"), "{text}");
    }

    #[test]
    fn once_is_valueless_and_other_flags_still_parse() {
        // Parse-level check only: --once must not be fed to the
        // `--key value` parser (it would eat the next token as a value).
        let args: Vec<String> =
            ["--once", "--addr", "127.0.0.1:1"].iter().map(|s| s.to_string()).collect();
        let rest: Vec<String> = args.iter().filter(|a| *a != "--once").cloned().collect();
        let flags = parse_flags(&rest, FLAGS).unwrap();
        assert_eq!(flags.try_get_str("addr"), Some("127.0.0.1:1"));
    }
}
