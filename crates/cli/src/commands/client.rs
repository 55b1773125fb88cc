//! `ssle client` — talk to a running `ssle serve` daemon.
//!
//! Two shapes:
//!
//! * raw: `ssle client --send '{"cmd":"status","name":"alpha"}'` forwards
//!   one wire-protocol line verbatim and prints the response line;
//! * built: `ssle client --cmd leader --name alpha` assembles the request
//!   from flags (covering the common commands without hand-writing JSON).
//!
//! `--retries N` switches to the hardened [`RetryClient`]: per-request
//! deadline (`--deadline` seconds), jittered exponential backoff
//! (`--retry-seed`), and generated request ids on mutating commands so a
//! retry whose original was applied is absorbed exactly-once by the
//! server's dedup window.

use std::time::Duration;

use population::record::{parse_flat_json, JsonObject, JsonScalar};
use ssle_serve::client::{request, ClientError, RetryConfig};
use ssle_serve::RetryClient;

use crate::commands::parse_flags;
use crate::error::CliError;

const FLAGS: &[&str] = &[
    "addr",
    "send",
    "cmd",
    "name",
    "protocol",
    "backend",
    "n",
    "seed",
    "interactions",
    "k",
    "spec",
    "last",
    "retries",
    "deadline",
    "retry-seed",
];

/// Commands that mutate server state and therefore get a generated
/// request id on the retry path.
const MUTATING: &[&str] = &["create", "step", "join", "leave", "corrupt", "churn-plan"];

/// Runs the subcommand: builds or forwards one request line, returns the
/// server's response line.
///
/// # Errors
///
/// Returns [`CliError`] on bad flags or a failed connection; server-side
/// errors come back inside the printed response envelope.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, FLAGS)?;
    let addr = flags.try_get_str("addr").unwrap_or("127.0.0.1:7700").to_string();
    let line = match (flags.try_get_str("send"), flags.try_get_str("cmd")) {
        (Some(_), Some(_)) => {
            return Err(CliError::BadValue {
                flag: "send".into(),
                reason: "--send and --cmd are mutually exclusive".into(),
            })
        }
        (Some(raw), None) => raw.to_string(),
        (None, Some(cmd)) => build_request(cmd, &flags)?,
        (None, None) => {
            return Err(CliError::BadValue {
                flag: "cmd".into(),
                reason: "provide --send '<json>' or --cmd <command>".into(),
            })
        }
    };
    if let Some(raw) = flags.try_get_str("retries") {
        let retries: u32 = raw.parse().map_err(|_| CliError::BadValue {
            flag: "retries".into(),
            reason: format!("{raw:?} is not a non-negative integer"),
        })?;
        return run_hardened(&addr, &line, retries, &flags);
    }
    let response = request(&addr, &line)
        .map_err(|e| CliError::ServerUnreachable { addr: addr.clone(), reason: e.to_string() })?;
    classify_envelope(&addr, &response)?;
    Ok(format!("{response}\n"))
}

/// Maps an error envelope to its exit-code class: a busy rejection exits
/// 3 (back off and resubmit), any other server-side error exits 5 (the
/// request itself was refused). Success envelopes — including nested
/// responses the flat parser cannot read — pass through untouched.
fn classify_envelope(addr: &str, response: &str) -> Result<(), CliError> {
    let Ok(fields) = parse_flat_json(response) else { return Ok(()) };
    if matches!(fields.get("ok"), Some(JsonScalar::Bool(false))) {
        let reason = match fields.get("error") {
            Some(JsonScalar::Str(e)) => e.clone(),
            _ => "unspecified error".to_string(),
        };
        if reason == "busy" {
            return Err(CliError::ServerBusy { addr: addr.to_string() });
        }
        return Err(CliError::ServerRefused { reason });
    }
    Ok(())
}

/// Drives one request through [`RetryClient`]: mutating commands get a
/// generated id (exactly-once retries), reads retry bare.
fn run_hardened(
    addr: &str,
    line: &str,
    retries: u32,
    flags: &ssle_bench::cli::Flags,
) -> Result<String, CliError> {
    let deadline: u64 = flags.get("deadline", 10);
    let seed: u64 = flags.get("retry-seed", entropy_seed());
    let mut client = RetryClient::with_config(
        addr,
        seed,
        RetryConfig {
            deadline: Duration::from_secs(deadline.max(1)),
            max_attempts: retries.saturating_add(1),
            ..RetryConfig::default()
        },
    );
    let cmd = parse_flat_json(line)
        .ok()
        .and_then(|fields| match fields.get("cmd") {
            Some(JsonScalar::Str(c)) => Some(c.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let outcome = if MUTATING.contains(&cmd.as_str()) {
        client.mutate_map(line)
    } else {
        client.request_map(line)
    };
    let map = outcome.map_err(|e| match e {
        ClientError::Busy => CliError::ServerBusy { addr: addr.to_string() },
        ClientError::Exhausted(reason) => CliError::ServerUnreachable {
            addr: addr.to_string(),
            reason: format!("{reason} ({} retries)", client.retries()),
        },
        ClientError::Server(reason) => CliError::ServerRefused { reason },
    })?;
    Ok(format!("{}\n", render_map(&map)))
}

/// Default retry seed: the seed names the request-id prefix, and two
/// one-shot `ssle client` processes sharing a prefix would collide in the
/// server's dedup window — the second mutation would be absorbed as a
/// replay of the first. Unique per invocation unless `--retry-seed` pins
/// it for reproducible runs.
fn entropy_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ u64::from(std::process::id()).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Re-serializes a parsed response map as one flat JSON line (sorted
/// keys — the parse loses the server's field order).
fn render_map(map: &std::collections::BTreeMap<String, JsonScalar>) -> String {
    let mut obj = JsonObject::new();
    for (key, value) in map {
        match value {
            JsonScalar::Str(s) => obj.field_str(key, s),
            JsonScalar::Num(x) => obj.field_f64(key, *x),
            JsonScalar::Int(v) => obj.field_u64(key, *v),
            JsonScalar::Bool(b) => obj.field_bool(key, *b),
            JsonScalar::Null => obj.field_null(key),
        };
    }
    obj.finish()
}

/// Assembles a wire-protocol request from `--cmd` plus the optional
/// per-command flags. Unknown commands pass through — the daemon owns the
/// authoritative command table and reports them in its error envelope.
pub(crate) fn build_request(cmd: &str, flags: &ssle_bench::cli::Flags) -> Result<String, CliError> {
    let mut obj = JsonObject::new();
    obj.field_str("cmd", cmd);
    for key in ["name", "protocol", "backend", "spec"] {
        if let Some(value) = flags.try_get_str(key) {
            obj.field_str(key, value);
        }
    }
    for key in ["n", "seed", "interactions", "k", "last"] {
        if let Some(raw) = flags.try_get_str(key) {
            let value: u64 = raw.parse().map_err(|_| CliError::BadValue {
                flag: key.into(),
                reason: format!("{raw:?} is not a non-negative integer"),
            })?;
            obj.field_u64(key, value);
        }
    }
    Ok(obj.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(a: &[&str]) -> ssle_bench::cli::Flags {
        let args: Vec<String> = a.iter().map(|s| s.to_string()).collect();
        parse_flags(&args, FLAGS).unwrap()
    }

    #[test]
    fn builds_create_request_from_flags() {
        let flags = flags(&[
            "--cmd",
            "create",
            "--name",
            "alpha",
            "--protocol",
            "ciw",
            "--backend",
            "agents",
            "--n",
            "64",
            "--seed",
            "7",
        ]);
        let line = build_request("create", &flags).unwrap();
        assert!(line.contains("\"cmd\":\"create\""), "{line}");
        assert!(line.contains("\"name\":\"alpha\""), "{line}");
        assert!(line.contains("\"n\":64"), "{line}");
        assert!(line.contains("\"seed\":7"), "{line}");
    }

    #[test]
    fn rejects_non_numeric_counts() {
        let flags = flags(&["--cmd", "step", "--name", "a", "--interactions", "lots"]);
        assert!(matches!(build_request("step", &flags), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn rendered_responses_keep_integers_exact() {
        let line = r#"{"ok":true,"seed":18446744073709551615,"n":9007199254740993,"rps":1.5}"#;
        assert_eq!(
            render_map(&parse_flat_json(line).unwrap()),
            r#"{"n":9007199254740993,"ok":true,"rps":1.5,"seed":18446744073709551615}"#
        );
    }

    #[test]
    fn send_and_cmd_are_mutually_exclusive() {
        let args: Vec<String> =
            ["--send", "{}", "--cmd", "ping"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(run(&args), Err(CliError::BadValue { .. })));
    }

    #[test]
    fn missing_both_is_an_error() {
        assert!(matches!(run(&[]), Err(CliError::BadValue { .. })));
    }

    /// Satellite: error envelopes map to exit-code classes — busy exits
    /// 3, any other refusal exits 5, success passes through.
    #[test]
    fn envelopes_classify_into_exit_code_classes() {
        let addr = "127.0.0.1:7700";
        assert!(classify_envelope(addr, r#"{"ok":true,"cmd":"ping"}"#).is_ok());
        assert!(matches!(
            classify_envelope(addr, r#"{"ok":false,"error":"busy"}"#),
            Err(CliError::ServerBusy { .. })
        ));
        let refused = classify_envelope(addr, r#"{"ok":false,"error":"unknown population \"x\""}"#);
        match refused {
            Err(CliError::ServerRefused { reason }) => assert!(reason.contains("unknown")),
            other => panic!("expected ServerRefused, got {other:?}"),
        }
        // Nested responses the flat parser rejects are success envelopes.
        assert!(classify_envelope(addr, r#"{"ok":true,"commands":[{"a":1}]}"#).is_ok());
    }
}
