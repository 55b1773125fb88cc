//! Versioned per-trial experiment records and their JSONL encoding.
//!
//! Every measured trial — one `(protocol, n, seed)` execution run to
//! convergence or budget exhaustion — becomes one [`RunRecord`], serialized
//! as one JSON object per line (JSONL). The text tables the benches print
//! are lossy summaries; the JSONL stream is the raw data they summarize, so
//! experiments can be re-analyzed (`ssle report`) or diffed across commits
//! without re-running them.
//!
//! The encoding is hand-rolled — the records are flat (strings, integers,
//! floats, booleans, null) and the build environment is offline, so
//! pulling `serde` is not an option — and each record kind is declared
//! once. The `record_kinds!` table below holds one entry per kind: its
//! [`RecordLine`] variant, its `kind` tag, and the struct as declared.
//! Every field is written under its own name, in declaration order, and
//! read back by its type, so how a `u64`, `f64`, `bool`, `String`,
//! `Option` or [`RunOutcome`] travels is decided in one place (the
//! `JsonField` trait, over the typed readers of [`JsonValue`]). Two
//! markers refine a field: `[omit_none]` leaves an `Option` out when it is
//! `None` instead of writing `null`, and `=> key = method` writes the
//! derived output field `key` (the value of `self.method()`) right after
//! it. From the table come the struct, its `to_json` and `from_json`, and
//! `RecordLine`'s variants and dispatch; the two round-trip exactly for the
//! values the simulator produces, integers over the whole `u64` range
//! included.
//!
//! Adding a kind is one more table entry (plus a schema-version note
//! below); nothing else in this module names the kinds.
//!
//! # Schema versions
//!
//! * **v1** — trial records only (`table1`, `h_sweep`, …).
//! * **v2** — adds a `kind` discriminator (`"trial"` / `"fault"` /
//!   `"frontier"`), the optional trial fields `availability`/`faults`
//!   emitted by chaos runs (see [`crate::fault`]), the per-fault
//!   [`FaultRecord`] line, and the [`FrontierRecord`] line emitted by the
//!   `scaling_frontier` bench (backend-throughput measurements at huge
//!   `n`). v1 lines (no `kind`) still parse as trials.
//! * **v3** — adds the optional robustness metadata on trial records:
//!   `scheduler` (the [`crate::scheduler::SchedulerPolicy::spec`] string,
//!   e.g. `"zipf:1"`), `omission` (the
//!   [`crate::scheduler::Reliability`] drop probability), and
//!   `starve_window` (the epoch adversary's window length in interactions).
//!   Absent fields mean the uniform scheduler with perfect reliability, so
//!   v1/v2 lines keep their meaning.
//! * **v4** — adds the `"kind":"timeline"` [`TimelineRecord`] line: one
//!   within-run checkpoint of the macroscopic observables traced by
//!   [`crate::timeline`] (leader count, ranks held by exactly one agent,
//!   distinct-state support, phase occupancy). A trial's timeline is a run
//!   of such lines sharing `(experiment, protocol, backend, n, trial)`,
//!   ordered by `interactions`. Existing kinds are unchanged.
//! * **v5** — adds the `"kind":"metrics"` [`MetricsRecord`] line: one
//!   engine-telemetry summary per run (or one merged cross-trial summary,
//!   `trial = null`) as collected by [`crate::metrics`] — batch-size
//!   histogram, exact-fallback and memo-hit counters, compactions, RNG
//!   draws, and per-section wall time. Existing kinds are unchanged.
//! * **v6** — adds the `"kind":"churn"` [`ChurnRecord`] line: one summary
//!   per dynamic-population trial (see [`crate::dynamics`]) — the churn
//!   spec, Byzantine fraction, membership-event counts (joins / leaves /
//!   replacements), Byzantine strikes, availability fractions, and recovery
//!   statistics. Existing kinds are unchanged.
//! * **v7** — adds the `"kind":"service"` [`ServiceRecord`] line: one
//!   throughput/latency measurement per service-bench cell (`ssle serve`
//!   under concurrent clients) — request count, sustained requests per
//!   second, and p50/p99 per-request latency. Existing kinds are unchanged.
//! * **v8** — adds the `"kind":"crash"` [`CrashRecord`] line (one
//!   crash-recovery measurement per `crash_recovery` bench cell: kill
//!   point, fsync policy, lost-event window, recovery wall time, and
//!   whether replay reproduced the uncrashed state bit-identically) and
//!   the `"kind":"health"` [`HealthRecord`] line (one liveness/journal-lag
//!   row per served population, as reported by the `health` wire command).
//!   Existing kinds are unchanged.
//! * **v9** — adds the `"kind":"server_stats"` [`ServerStatsRecord`] line
//!   (one per-wire-command latency aggregate from the daemon's request
//!   tracer, as emitted by the `stats` wire command: request counts,
//!   rps, log₂-bucket latency histogram with p50/p95/p99, and mean
//!   per-request time attributed across queue/parse/lock/engine/journal/
//!   fsync/write spans) and the `"kind":"trace"` [`TraceRecord`] line
//!   (one request trace from the flight recorder, as dumped on worker
//!   panic/quarantine or by the `dump-trace` command). Existing kinds
//!   are unchanged.
//!
//! A stream may mix all kinds; [`from_jsonl_mixed`] reads everything as
//! [`RecordLine`]s, while [`from_jsonl`] keeps its original contract of
//! returning trial records (other lines are skipped). Consumers that must
//! survive streams written by a *newer* writer (e.g. `ssle report`) use
//! [`from_jsonl_lenient`], which sets aside — and tallies, instead of
//! erroring on — lines with an unknown `kind` or a version above
//! [`SCHEMA_VERSION`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::simulation::RunOutcome;

/// Version of the record schema. Bump when fields change meaning; readers
/// accept [`MIN_SCHEMA_VERSION`]`..=SCHEMA_VERSION` and reject anything else.
pub const SCHEMA_VERSION: u32 = 9;

/// Oldest schema version readers still accept.
pub const MIN_SCHEMA_VERSION: u32 = 1;

fn check_version(fields: &BTreeMap<String, JsonScalar>) -> Result<(), String> {
    let version = u64::require(fields, "v")?;
    if !(MIN_SCHEMA_VERSION as u64..=SCHEMA_VERSION as u64).contains(&version) {
        return Err(format!(
            "unsupported record version {version} (reader supports {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
        ));
    }
    Ok(())
}

/// The `kind` discriminator of a parsed line; v1 lines (no `kind` field) are
/// trial records.
fn record_kind(fields: &BTreeMap<String, JsonScalar>) -> Result<&str, String> {
    match fields.get("kind") {
        None => Ok("trial"),
        Some(JsonScalar::Str(s)) => Ok(s),
        Some(other) => Err(format!("field \"kind\": expected string, got {other:?}")),
    }
}

/// A scalar type one flat-JSON field holds — `u64`, `f64`, `bool` or
/// `String`. These typed readers are the only code that turns a parsed
/// [`JsonScalar`] into a value; the records, the snapshot reader, and the
/// daemon's journal and wire protocol all read through them.
///
/// Integers are exact over the whole `u64` range: [`parse_flat_json`]
/// keeps integer literals above 2⁵³ as [`JsonScalar::Int`], and a number
/// that is not exactly a non-negative integer is rejected, never rounded.
pub trait JsonValue: Sized {
    /// Writes `self` as the field `key`.
    fn write(&self, obj: &mut JsonObject, key: &str);

    /// Decodes the present value of field `key`. `nullable` only words the
    /// type error (`expected number or null`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the field when the value has the wrong
    /// type or (for `u64`) is not an exact non-negative integer.
    fn from_scalar(key: &str, value: &JsonScalar, nullable: bool) -> Result<Self, String>;

    /// Reads the required field `key` of a parsed object.
    ///
    /// # Errors
    ///
    /// Returns a message when the field is missing or malformed.
    fn require(fields: &BTreeMap<String, JsonScalar>, key: &str) -> Result<Self, String> {
        match fields.get(key) {
            Some(value) => Self::from_scalar(key, value, false),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// Reads the optional field `key`: absent or `null` is `None`.
    ///
    /// # Errors
    ///
    /// Returns a message when the field is present but malformed.
    fn optional(fields: &BTreeMap<String, JsonScalar>, key: &str) -> Result<Option<Self>, String> {
        match fields.get(key) {
            None | Some(JsonScalar::Null) => Ok(None),
            Some(value) => Self::from_scalar(key, value, true).map(Some),
        }
    }
}

/// Largest integer every smaller non-negative integer of which an `f64`
/// holds exactly (2⁵³).
const MAX_EXACT_F64: u64 = 1 << 53;

fn type_error(key: &str, expected: &str, nullable: bool, got: &JsonScalar) -> String {
    let or_null = if nullable { " or null" } else { "" };
    format!("field {key:?}: expected {expected}{or_null}, got {got:?}")
}

impl JsonValue for u64 {
    fn write(&self, obj: &mut JsonObject, key: &str) {
        obj.field_u64(key, *self);
    }

    fn from_scalar(key: &str, value: &JsonScalar, nullable: bool) -> Result<Self, String> {
        match value {
            JsonScalar::Int(v) => Ok(*v),
            JsonScalar::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_F64 as f64 => {
                Ok(*x as u64)
            }
            JsonScalar::Num(x) => {
                Err(format!("field {key:?}: expected a non-negative integer, got {x}"))
            }
            other => Err(type_error(key, "number", nullable, other)),
        }
    }
}

impl JsonValue for f64 {
    fn write(&self, obj: &mut JsonObject, key: &str) {
        obj.field_f64(key, *self);
    }

    fn from_scalar(key: &str, value: &JsonScalar, nullable: bool) -> Result<Self, String> {
        match value {
            JsonScalar::Num(x) => Ok(*x),
            JsonScalar::Int(v) => Ok(*v as f64),
            other => Err(type_error(key, "number", nullable, other)),
        }
    }
}

impl JsonValue for bool {
    fn write(&self, obj: &mut JsonObject, key: &str) {
        obj.field_bool(key, *self);
    }

    fn from_scalar(key: &str, value: &JsonScalar, nullable: bool) -> Result<Self, String> {
        match value {
            JsonScalar::Bool(b) => Ok(*b),
            other => Err(type_error(key, "bool", nullable, other)),
        }
    }
}

impl JsonValue for String {
    fn write(&self, obj: &mut JsonObject, key: &str) {
        obj.field_str(key, self);
    }

    fn from_scalar(key: &str, value: &JsonScalar, nullable: bool) -> Result<Self, String> {
        match value {
            JsonScalar::Str(s) => Ok(s.clone()),
            other => Err(type_error(key, "string", nullable, other)),
        }
    }
}

/// How one record field is written and read: a [`JsonValue`] as itself,
/// an `Option` of one as `null` when `None`, and a [`RunOutcome`] as the
/// `outcome` / `interactions` pair.
trait JsonField: Sized {
    fn write_field(&self, obj: &mut JsonObject, key: &str);
    fn read_field(fields: &BTreeMap<String, JsonScalar>, key: &str) -> Result<Self, String>;
}

impl<T: JsonValue> JsonField for T {
    fn write_field(&self, obj: &mut JsonObject, key: &str) {
        self.write(obj, key);
    }

    fn read_field(fields: &BTreeMap<String, JsonScalar>, key: &str) -> Result<Self, String> {
        T::require(fields, key)
    }
}

impl<T: JsonValue> JsonField for Option<T> {
    fn write_field(&self, obj: &mut JsonObject, key: &str) {
        match self {
            Some(value) => value.write(obj, key),
            None => {
                obj.field_null(key);
            }
        }
    }

    fn read_field(fields: &BTreeMap<String, JsonScalar>, key: &str) -> Result<Self, String> {
        T::optional(fields, key)
    }
}

impl JsonField for RunOutcome {
    fn write_field(&self, obj: &mut JsonObject, key: &str) {
        obj.field_str(key, if self.is_converged() { "converged" } else { "exhausted" });
        obj.field_u64("interactions", self.interactions());
    }

    fn read_field(fields: &BTreeMap<String, JsonScalar>, key: &str) -> Result<Self, String> {
        let interactions = u64::require(fields, "interactions")?;
        match String::require(fields, key)?.as_str() {
            "converged" => Ok(RunOutcome::Converged { interactions }),
            "exhausted" => Ok(RunOutcome::Exhausted { interactions }),
            other => Err(format!("unknown outcome {other:?}")),
        }
    }
}

/// Writes one field of a `record_kinds!` table: through `JsonField`, or —
/// for an `[omit_none]` field — only when it is `Some`.
macro_rules! write_field {
    ($obj:ident, $value:expr, $key:expr) => {
        JsonField::write_field(&$value, &mut $obj, $key)
    };
    ($obj:ident, $value:expr, $key:expr, omit_none) => {
        if let Some(value) = &$value {
            JsonField::write_field(value, &mut $obj, $key)
        }
    };
}

/// Declares every record kind from its field table (see the module docs)
/// and generates each struct, its codec, and [`RecordLine`].
macro_rules! record_kinds {
    ($(
        $(#[$line_doc:meta])*
        $variant:ident = $kind:literal,
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_doc:meta])*
                pub $field:ident: $ty:ty $([$omit:ident])? $(=> $($derived:ident = $method:ident),+)?
            ),* $(,)?
        }
    )*) => {
        $(
            $(#[$meta])*
            pub struct $name {
                $($(#[$field_doc])* pub $field: $ty,)*
            }

            impl $name {
                /// Serializes to a single-line JSON object.
                pub fn to_json(&self) -> String {
                    let mut obj = JsonObject::new();
                    obj.field_u64("v", SCHEMA_VERSION as u64);
                    obj.field_str("kind", $kind);
                    $(
                        write_field!(obj, self.$field, stringify!($field) $(, $omit)?);
                        $($(JsonField::write_field(&self.$method(), &mut obj, stringify!($derived));)+)?
                    )*
                    obj.finish()
                }

                #[doc = concat!("Parses a `", $kind, "` record from one JSONL line.")]
                ///
                /// Unknown fields are ignored (forward compatibility); missing
                /// required fields, malformed JSON, a schema version outside
                /// [`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`], or a line of a
                /// different kind are errors.
                pub fn from_json(line: &str) -> Result<Self, String> {
                    let fields = parse_flat_json(line)?;
                    check_version(&fields)?;
                    match record_kind(&fields)? {
                        $kind => Self::from_fields(&fields),
                        other => {
                            Err(format!(concat!("expected a ", $kind, " record, got kind {:?}"), other))
                        }
                    }
                }

                fn from_fields(fields: &BTreeMap<String, JsonScalar>) -> Result<Self, String> {
                    Ok($name { $($field: JsonField::read_field(fields, stringify!($field))?,)* })
                }
            }
        )*

        /// One parsed line of a (possibly mixed) JSONL experiment stream.
        #[derive(Debug, Clone, PartialEq)]
        pub enum RecordLine {
            $($(#[$line_doc])* $variant($name),)*
        }

        impl RecordLine {
            /// Parses one line, dispatching on the `kind` discriminator (absent
            /// `kind` means a v1 trial record).
            pub fn from_json(line: &str) -> Result<Self, String> {
                let fields = parse_flat_json(line)?;
                check_version(&fields)?;
                match Self::from_known_fields(&fields)? {
                    Some(line) => Ok(line),
                    None => Err(format!("unknown record kind {:?}", record_kind(&fields)?)),
                }
            }

            /// Dispatches on an already-parsed field map; `Ok(None)` means the
            /// `kind` is well-formed but unknown to this reader (a future schema).
            fn from_known_fields(
                fields: &BTreeMap<String, JsonScalar>,
            ) -> Result<Option<Self>, String> {
                Ok(Some(match record_kind(fields)? {
                    $($kind => RecordLine::$variant($name::from_fields(fields)?),)*
                    _ => return Ok(None),
                }))
            }

            /// Serializes back to a single-line JSON object.
            pub fn to_json(&self) -> String {
                match self {
                    $(RecordLine::$variant(record) => record.to_json(),)*
                }
            }
        }
    };
}

record_kinds! {
    /// A per-trial record.
    Trial = "trial",
    /// One measured trial, self-describing enough to be aggregated without the
    /// context of the run that produced it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunRecord {
        /// Name of the experiment that produced this record (e.g. `"table1"`).
        pub experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        pub protocol: String,
        /// Population size.
        pub n: u64,
        /// Depth parameter `H` for Sublinear-Time-SSR; `None` for protocols
        /// without one.
        pub h: Option<u64>,
        /// Trial index within the experiment.
        pub trial: u64,
        /// Base seed of the experiment (per-trial seeds derive from it).
        pub seed: u64,
        /// How the trial ended.
        pub outcome: RunOutcome => parallel_time = parallel_time,
        /// Wall-clock seconds the trial took.
        pub wall_s: f64 => ips = interactions_per_second,
        /// Fraction of observed interactions with a unique leader — only emitted
        /// by chaos/soak trials (see [`crate::fault::ChaosReport::availability`]).
        pub availability: Option<f64> [omit_none],
        /// Number of faults injected during the trial — only emitted by
        /// chaos/soak trials.
        pub faults: Option<u64> [omit_none],
        /// Scheduler spec string (e.g. `"zipf:1"`, `"starve:4:256"`) — only
        /// emitted by robustness trials; absent means the uniform scheduler
        /// (schema v3).
        pub scheduler: Option<String> [omit_none],
        /// Interaction-omission probability — only emitted by robustness trials;
        /// absent means perfectly reliable interactions (schema v3).
        pub omission: Option<f64> [omit_none],
        /// Starvation-window length in interactions of the epoch adversary —
        /// only emitted when the scheduler is `starve:*` (schema v3).
        pub starve_window: Option<u64> [omit_none],
    }

    /// A per-fault record.
    Fault = "fault",
    /// One fault injected during a chaos/soak trial (`kind = "fault"`, schema
    /// v2). Each fired fault becomes one line next to its trial's `"trial"` line,
    /// so recovery distributions can be re-analyzed per `(action, agents)` cell
    /// without re-running the experiment.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultRecord {
        /// Name of the experiment that produced this record.
        pub experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        pub protocol: String,
        /// Population size.
        pub n: u64,
        /// Depth parameter `H`, if the protocol has one.
        pub h: Option<u64>,
        /// Trial index the fault fired in.
        pub trial: u64,
        /// Base seed of the experiment.
        pub seed: u64,
        /// Action label (see `FaultAction::label` in [`crate::fault`]).
        pub action: String,
        /// Number of agent states the fault overwrote.
        pub agents: u64,
        /// Total interaction count at injection.
        pub injected_at: u64,
        /// Total interaction count at the next stable ranking, or `None` if the
        /// run ended before recovering (censored).
        pub recovered_at: Option<u64> => recovery_parallel_time = recovery_parallel_time,
    }

    /// A backend-throughput measurement from the scaling frontier bench.
    Frontier = "frontier",
    /// One backend-throughput measurement at a single population size
    /// (`kind = "frontier"`, schema v2), emitted by the `scaling_frontier`
    /// bench. Unlike a [`RunRecord`], a frontier record names the **backend**
    /// that executed the run (`"agents"` or `"counts"`), so agent-array and
    /// count-based throughput can be compared per `(workload, n)` cell, and it
    /// carries the count-backend compression evidence (`support`, the number of
    /// distinct states) where available.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FrontierRecord {
        /// Name of the experiment that produced this record (e.g. `"frontier"`).
        pub experiment: String,
        /// Workload short-name (e.g. `"epidemic"`, `"loose"`).
        pub protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size.
        pub n: u64,
        /// Trial index within the experiment.
        pub trial: u64,
        /// Base seed of the experiment (per-trial seeds derive from it).
        pub seed: u64,
        /// How the run ended.
        pub outcome: RunOutcome => parallel_time = parallel_time,
        /// Wall-clock seconds the run took.
        pub wall_s: f64 => ips = interactions_per_second,
        /// Final number of distinct states (count backend only): the quantity
        /// that decides whether counting compresses the configuration at all.
        pub support: Option<u64>,
        /// Final number of leaders, for leader-election workloads.
        pub leaders: Option<u64>,
    }

    /// A within-run trajectory checkpoint.
    Timeline = "timeline",
    /// One within-run trajectory checkpoint (`kind = "timeline"`, schema v4),
    /// emitted by `ssle simulate --timeline`. A run's timeline is the sequence
    /// of its checkpoint lines ordered by `interactions`; see
    /// [`crate::timeline`] for how checkpoints are decimated to a bounded
    /// count. The flat `phases` string encodes the per-phase occupancy map as
    /// `name:count,name:count` (sorted by name) because the record reader is
    /// deliberately scalar-only.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TimelineRecord {
        /// Name of the experiment that produced this record (e.g. `"simulate"`).
        pub experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        pub protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size.
        pub n: u64,
        /// Trial index within the experiment.
        pub trial: u64,
        /// Base seed of the experiment.
        pub seed: u64,
        /// Interaction count the checkpoint was taken at.
        pub interactions: u64 => parallel_time = parallel_time,
        /// Number of agents outputting leader (rank 1) at the checkpoint.
        pub leaders: u64,
        /// Number of ranks held by exactly one agent; equals `n` when ranked.
        pub ranks_ok: u64,
        /// Distinct states at the checkpoint (count backend only).
        pub support: Option<u64>,
        /// Flat `name:count,name:count` phase-occupancy encoding, absent for
        /// protocols without phase structure.
        pub phases: Option<String>,
    }

    /// An engine-telemetry summary.
    Metrics = "metrics",
    /// One engine-telemetry summary (`kind = "metrics"`, schema v5), emitted by
    /// `ssle simulate/soak --metrics` and the `perf_baseline` bench. Where every
    /// other record describes what the *protocol* did, a metrics record
    /// describes what the *simulator* did: batch sizes, exact-fallback and
    /// memo-hit counters, compactions, RNG draws, and coarse per-section wall
    /// time (see [`crate::metrics`]). `trial = None` marks a merged cross-trial
    /// row. The flat `batch_hist` string encodes the log-bucketed batch-size
    /// histogram as `bound:count,…` (overflow bucket as `inf:count`) because the
    /// record reader is deliberately scalar-only.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsRecord {
        /// Name of the experiment that produced this record (e.g. `"simulate"`).
        pub experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"epidemic"`).
        pub protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size.
        pub n: u64,
        /// Trial index, or `None` for a merged cross-trial row.
        pub trial: Option<u64>,
        /// Base seed of the experiment.
        pub seed: u64,
        /// Wall-clock seconds of the summarized run(s).
        pub wall_s: f64,
        /// Total interactions performed.
        pub interactions: u64 => ips = interactions_per_second,
        /// Collision-free batches completed (counts backend).
        pub batches: u64,
        /// Interactions performed inside collision-free batches.
        pub batched_pairs: u64,
        /// Interactions that went through the exact per-interaction fallback.
        pub exact_steps: u64,
        /// Uniform draws consumed from the execution RNG.
        pub rng_draws: u64,
        /// Memoized-transition lookups that hit.
        pub memo_hits: u64,
        /// Memoized-transition lookups that missed.
        pub memo_misses: u64,
        /// CountConfig compactions performed.
        pub compactions: u64,
        /// Distinct live states after the most recent compaction (0 = never
        /// compacted).
        pub support: u64,
        /// Raw count-table length after the most recent compaction.
        pub raw_len: u64,
        /// Batch-boundary flushes observed.
        pub flushes: u64,
        /// Flat `bound:count,…` batch-size histogram, absent when no batch ran.
        pub batch_hist: Option<String>,
        /// Wall seconds in the sampling section (schedule draws).
        pub sample_s: f64,
        /// Wall seconds in the transition section (applying interactions).
        pub transition_s: f64,
        /// Wall seconds in the probe section (convergence checks).
        pub probe_s: f64,
        /// Wall seconds in the observe section (snapshots, observers).
        pub observe_s: f64,
    }

    /// A dynamic-population (churn / Byzantine) trial summary.
    Churn = "churn",
    /// One dynamic-population trial (`kind = "churn"`, schema v6), emitted by
    /// `ssle simulate/soak --churn` and the `churn_resilience` bench. Each line
    /// summarizes a whole trial under membership churn and/or Byzantine agents:
    /// how much the population changed, how often the adversary struck, and the
    /// availability/recovery statistics from the shared [`crate::fault`]
    /// recovery clock. Fired membership events additionally appear as ordinary
    /// `"fault"` lines next to their trial, so per-event recovery distributions
    /// stay re-analyzable.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChurnRecord {
        /// Name of the experiment that produced this record (e.g. `"churn"`).
        pub experiment: String,
        /// Protocol short-name (e.g. `"ciw"`, `"oss"`, `"sublinear"`).
        pub protocol: String,
        /// Simulation backend that executed the run (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size the protocol was configured for (the size ranking is
        /// judged against; churn moves the live size away from it).
        pub n: u64,
        /// Live population size when the trial ended.
        pub final_n: u64,
        /// Depth parameter `H`, if the protocol has one.
        pub h: Option<u64>,
        /// Trial index within the experiment.
        pub trial: u64,
        /// Base seed of the experiment (per-trial seeds derive from it).
        pub seed: u64,
        /// Churn spec string the trial ran under (e.g. `"2.0"` or
        /// `"join:4@8,leave:4@16"`); `"none"` when only Byzantine agents were
        /// active.
        pub churn: String,
        /// Byzantine fraction `t` in `[0, 1)`.
        pub byzantine: f64,
        /// Agents that joined (grew the population) during the trial.
        pub joins: u64,
        /// Agents that left (shrank the population) during the trial.
        pub leaves: u64,
        /// Agents replaced in place (departure + fresh join, size unchanged).
        pub replacements: u64,
        /// Byzantine state overwrites applied during the trial.
        pub byz_strikes: u64,
        /// Membership/fault events that opened a recovery clock.
        pub faults: u64,
        /// Fraction of observed steps with exactly one leader.
        pub availability: f64,
        /// Fraction of observed steps with the full ranking in place.
        pub ranked_availability: f64,
        /// Recovery clocks that closed before the trial ended.
        pub recovered: u64,
        /// Mean recovery time in parallel time across recovered clocks (`None`
        /// when nothing recovered).
        pub mean_recovery_pt: Option<f64>,
        /// Parallel time of the first stable full ranking, if reached.
        pub first_ranked_pt: Option<f64>,
        /// Total interactions executed.
        pub interactions: u64,
        /// Total parallel time executed (piecewise `1/n_live` per interaction,
        /// so it stays meaningful while `n` varies).
        pub parallel_time: f64,
        /// Wall-clock seconds the trial took.
        pub wall_s: f64 => ips = interactions_per_second,
    }

    /// A service-throughput measurement.
    Service = "service",
    /// One service-throughput measurement (`kind = "service"`, schema v7),
    /// emitted by the `service_throughput` bench: `clients` concurrent wire
    /// clients hammering one `ssle serve` daemon hosting a population of size
    /// `n`, mixing queries and event injections. Latency is per complete
    /// request (write line, read response) in microseconds.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServiceRecord {
        /// Name of the experiment that produced this record (e.g. `"service"`).
        pub experiment: String,
        /// Protocol short-name the hosted population runs.
        pub protocol: String,
        /// Simulation backend hosting the population (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size of the hosted population.
        pub n: u64,
        /// Concurrent client connections issuing requests.
        pub clients: u64,
        /// Total requests completed across all clients.
        pub requests: u64,
        /// Sustained requests per second across the whole run.
        pub rps: f64,
        /// Median per-request latency, microseconds.
        pub p50_us: f64,
        /// 99th-percentile per-request latency, microseconds.
        pub p99_us: f64,
        /// Base seed of the bench cell.
        pub seed: u64,
        /// Wall-clock seconds the cell took.
        pub wall_s: f64,
    }

    /// A crash-recovery measurement.
    Crash = "crash",
    /// One crash-recovery measurement (`kind = "crash"`, schema v8), emitted by
    /// the `crash_recovery` bench: a journaled population is driven through
    /// `events_applied` mutating commands, its journal is truncated to the bytes
    /// durable at a simulated `kill -9` (the `kill_point` fraction of the run),
    /// and recovery replays snapshot + journal tail. `lost_events` is the
    /// tail the crash discarded — bounded by the fsync policy's window — and
    /// `replay_identical` records whether the recovered population was
    /// bit-identical to a never-crashed replay of the surviving prefix.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CrashRecord {
        /// Name of the experiment that produced this record (e.g. `"crash"`).
        pub experiment: String,
        /// Protocol short-name the journaled population runs.
        pub protocol: String,
        /// Simulation backend hosting the population (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size of the journaled population.
        pub n: u64,
        /// Fsync policy spec (`"always"`, `"every:N"`, `"never"`).
        pub fsync: String,
        /// Fraction of the command stream after which the crash fired.
        pub kill_point: f64,
        /// Mutating commands applied (and journaled) before the crash.
        pub events_applied: u64,
        /// Commands recovered from snapshot + journal tail after the crash.
        pub events_recovered: u64,
        /// Commands lost to the crash (`events_applied - events_recovered`).
        pub lost_events: u64,
        /// Wall-clock milliseconds the boot-time recovery took.
        pub recovery_ms: f64,
        /// Whether the recovered state matched a never-crashed replay of the
        /// surviving prefix bit-for-bit (snapshot-serialization equality).
        pub replay_identical: bool,
        /// Base seed of the bench cell.
        pub seed: u64,
        /// Wall-clock seconds the cell took.
        pub wall_s: f64,
    }

    /// A served-population liveness/journal-lag row.
    Health = "health",
    /// One per-population liveness row (`kind = "health"`, schema v8), as
    /// reported by the `health` wire command of `ssle serve`: protocol identity,
    /// live-agent count, journal position (`seq`) versus the last snapshot
    /// (`snapshot_seq`), the resulting replay `lag`, and how many times the
    /// watchdog has quarantined-and-healed a poisoned population since boot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HealthRecord {
        /// Name of the experiment that produced this record (e.g. `"health"`).
        pub experiment: String,
        /// Served population name.
        pub pop: String,
        /// Protocol short-name the population runs.
        pub protocol: String,
        /// Simulation backend (`"agents"` / `"counts"`).
        pub backend: String,
        /// Population size.
        pub n: u64,
        /// Live (non-tombstoned) agents.
        pub live: u64,
        /// Interactions simulated so far.
        pub interactions: u64,
        /// Whether the population currently has a unique ranked leader.
        pub ranked: bool,
        /// Journal sequence number of the last applied mutating command.
        pub seq: u64,
        /// Journal sequence number covered by the last snapshot.
        pub snapshot_seq: u64,
        /// Journaled-but-unsnapshotted commands (`seq - snapshot_seq`): the
        /// replay work a crash-restart would have to redo.
        pub lag: u64,
        /// Fsync policy spec the journal runs under (`"none"` if undurable).
        pub fsync: String,
        /// Poison-quarantine heals performed by the registry since boot.
        pub quarantines: u64,
    }

    /// A per-wire-command server latency aggregate.
    ServerStats = "server_stats",
    /// One per-wire-command latency aggregate (`kind = "server_stats"`,
    /// schema v9), emitted by the `stats` wire command from the daemon's
    /// request tracer. `count`/`rps` cover the window since boot or the last
    /// `stats` reset; the `*_us` span fields are *mean* per-request
    /// microseconds attributing where a request's time went; `hist` is the
    /// end-to-end latency histogram in the shared `bound:count,…,inf:count`
    /// log₂-bucket encoding (bounds in microseconds), empty when no request
    /// landed. The pool/journal gauges (`busy`, `queue_depth`, `journal_lag`)
    /// are daemon-global, repeated on every row of one `stats` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServerStatsRecord {
        /// Name of the experiment/run that produced this record.
        pub experiment: String,
        /// The wire command this row aggregates (`"other"` for the rest).
        pub cmd: String,
        /// Requests served in the window.
        pub count: u64,
        /// Requests answered with `ok:false`.
        pub errors: u64,
        /// Sustained requests per second over the window.
        pub rps: f64,
        /// Median end-to-end latency (histogram bucket upper bound), µs.
        pub p50_us: f64,
        /// 95th-percentile end-to-end latency, µs.
        pub p95_us: f64,
        /// 99th-percentile end-to-end latency, µs.
        pub p99_us: f64,
        /// Mean end-to-end latency, µs.
        pub mean_us: f64,
        /// Mean pool-queue wait per request, µs.
        pub queue_us: f64,
        /// Mean request-parse time per request, µs.
        pub parse_us: f64,
        /// Mean registry-map lock wait per request, µs.
        pub registry_lock_us: f64,
        /// Mean per-population lock wait per request, µs.
        pub pop_lock_us: f64,
        /// Mean engine work per request, µs.
        pub engine_us: f64,
        /// Mean journal append (excluding fsync) per request, µs.
        pub journal_us: f64,
        /// Mean journal fsync per request, µs.
        pub fsync_us: f64,
        /// Mean response write+flush per request, µs.
        pub write_us: f64,
        /// End-to-end latency histogram (`bound:count,…`); empty if massless.
        pub hist: String,
        /// Seconds the window covers.
        pub window_s: f64,
        /// Busy-envelope refusals at the accept loop (daemon-global).
        pub busy: u64,
        /// Pool queue depth at the last accept (daemon-global gauge).
        pub queue_depth: u64,
        /// Requests past the `--slow-ms` threshold (daemon-global).
        pub slow: u64,
        /// Max journaled-but-unsnapshotted lag across populations
        /// (daemon-global).
        pub journal_lag: u64,
    }

    /// A flight-recorder request trace.
    Trace = "trace",
    /// One request trace (`kind = "trace"`, schema v9) from the daemon's
    /// flight recorder — dumped to JSONL on worker panic/quarantine or via
    /// the `dump-trace` admin command. Span fields are microseconds; spans
    /// are non-overlapping (`journal_us` excludes the fsync it triggered),
    /// so they sum to at most `total_us`. `id` is the client request id
    /// (retry dedup), letting retried requests correlate across traces.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TraceRecord {
        /// The wire command (`"other"` for unparseable requests).
        pub cmd: String,
        /// Target population name; empty for population-less commands.
        pub pop: String,
        /// Client request id; empty when the client sent none.
        pub id: String,
        /// Whether the response carried `ok:true`.
        pub ok: bool,
        /// End-to-end microseconds (queue wait through response flush).
        pub total_us: u64,
        /// Pool-queue wait, µs (connection's first request only).
        pub queue_us: u64,
        /// Request-line parse, µs.
        pub parse_us: u64,
        /// Registry-map lock wait, µs.
        pub registry_lock_us: u64,
        /// Per-population lock wait, µs.
        pub pop_lock_us: u64,
        /// Engine work under the cell lock, µs.
        pub engine_us: u64,
        /// Journal append excluding fsync, µs.
        pub journal_us: u64,
        /// Journal fsync, µs.
        pub fsync_us: u64,
        /// Response write+flush, µs.
        pub write_us: u64,
    }
}

/// Interactions per wall-clock second (0 if no wall time was recorded).
fn per_second(interactions: u64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        interactions as f64 / wall_s
    } else {
        0.0
    }
}

impl RunRecord {
    /// Parallel time (interactions / n) at convergence or exhaustion.
    pub fn parallel_time(&self) -> f64 {
        self.outcome.parallel_time(self.n as usize)
    }

    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.outcome.interactions(), self.wall_s)
    }

    /// Attaches the schema-v3 robustness metadata (scheduler spec, omission
    /// probability, starvation window) to a record builder-style. `None`s
    /// and an `omission` of exactly 0 are normalized to absent fields, so
    /// the uniform/perfect baseline serializes identically to pre-v3
    /// records.
    pub fn with_robustness(
        mut self,
        scheduler: Option<String>,
        omission: Option<f64>,
        starve_window: Option<u64>,
    ) -> Self {
        self.scheduler = scheduler.filter(|s| s != "uniform");
        self.omission = omission.filter(|&o| o > 0.0);
        self.starve_window = starve_window;
        self
    }
}

impl FaultRecord {
    /// Interactions from injection to recovery, if recovery happened.
    pub fn recovery_interactions(&self) -> Option<u64> {
        self.recovered_at.map(|r| r.saturating_sub(self.injected_at))
    }

    /// Parallel time from injection to recovery, if recovery happened.
    pub fn recovery_parallel_time(&self) -> Option<f64> {
        self.recovery_interactions().map(|i| i as f64 / self.n as f64)
    }
}

impl FrontierRecord {
    /// Parallel time (interactions / n) at the end of the run.
    pub fn parallel_time(&self) -> f64 {
        self.outcome.parallel_time(self.n as usize)
    }

    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.outcome.interactions(), self.wall_s)
    }
}

/// Decodes a flat `label:count,label:count` string into pairs, naming the
/// field (`what`) in errors; `None` decodes to no pairs.
fn decode_pairs(text: Option<&str>, what: &str) -> Result<Vec<(String, u64)>, String> {
    let Some(text) = text else {
        return Ok(Vec::new());
    };
    text.split(',')
        .map(|entry| {
            let (label, count) = entry
                .rsplit_once(':')
                .ok_or_else(|| format!("{what} entry {entry:?} has no ':'"))?;
            let count: u64 =
                count.parse().map_err(|_| format!("{what} entry {entry:?} has a bad count"))?;
            Ok((label.to_string(), count))
        })
        .collect()
}

impl TimelineRecord {
    /// Parallel time (interactions / n) of the checkpoint.
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.n as f64
    }

    /// Decodes the flat `phases` string back into `(name, count)` pairs.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed entry.
    pub fn phase_counts(&self) -> Result<Vec<(String, u64)>, String> {
        decode_pairs(self.phases.as_deref(), "phase")
    }
}

impl MetricsRecord {
    /// Fraction of interactions that went through the exact fallback.
    pub fn fallback_rate(&self) -> f64 {
        let total = self.exact_steps + self.batched_pairs;
        if total == 0 {
            0.0
        } else {
            self.exact_steps as f64 / total as f64
        }
    }

    /// Fraction of memo lookups that hit; 0 when never consulted.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.interactions, self.wall_s)
    }

    /// Decodes the flat `batch_hist` string back into
    /// `(bound-label, count)` pairs, in encoded order.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed entry.
    pub fn batch_hist_counts(&self) -> Result<Vec<(String, u64)>, String> {
        decode_pairs(self.batch_hist.as_deref(), "batch_hist")
    }
}

impl ChurnRecord {
    /// Interactions per wall-clock second (0 if no wall time was recorded).
    pub fn interactions_per_second(&self) -> f64 {
        per_second(self.interactions, self.wall_s)
    }
}

/// Serializes records as JSONL: one [`RunRecord::to_json`] line per record.
pub fn to_jsonl(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Serializes a mixed trial/fault stream as JSONL, one line per record.
pub fn to_jsonl_mixed(lines: &[RecordLine]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(&l.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document (blank lines skipped) into **trial** records,
/// skipping fault and frontier lines — the historical contract of every
/// trial-level consumer. Use [`from_jsonl_mixed`] to see the other kinds.
///
/// The error names the offending line number.
pub fn from_jsonl(text: &str) -> Result<Vec<RunRecord>, String> {
    let lines = from_jsonl_mixed(text)?;
    Ok(lines
        .into_iter()
        .filter_map(|l| match l {
            RecordLine::Trial(r) => Some(r),
            _ => None,
        })
        .collect())
}

/// Parses a JSONL document (blank lines skipped) into a mixed stream of
/// trial and fault records, preserving line order.
///
/// The error names the offending line number.
pub fn from_jsonl_mixed(text: &str) -> Result<Vec<RecordLine>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = RecordLine::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Result of a lenient mixed-stream parse: the lines this reader understood,
/// plus a tally of the ones it had to set aside. See [`from_jsonl_lenient`].
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// Lines parsed into known record kinds, in stream order.
    pub records: Vec<RecordLine>,
    /// Set-aside lines as `(line_number, reason)` pairs — e.g.
    /// `(12, "kind \"galaxy\"")` or `(3, "version 7")`. Line numbers are
    /// 1-based.
    pub skipped: Vec<(usize, String)>,
}

/// Parses a JSONL document like [`from_jsonl_mixed`], but instead of erroring
/// on lines a *newer* writer could legitimately produce — an unknown `kind`,
/// or a version above [`SCHEMA_VERSION`] — it sets them aside in
/// [`LenientParse::skipped`] so the caller can warn with counts. Lines that
/// no writer should produce (malformed JSON, versions below
/// [`MIN_SCHEMA_VERSION`], known kinds with broken fields) still hard-error.
pub fn from_jsonl_lenient(text: &str) -> Result<LenientParse, String> {
    let mut out = LenientParse { records: Vec::new(), skipped: Vec::new() };
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let fields = parse_flat_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let version = u64::require(&fields, "v").map_err(|e| format!("line {lineno}: {e}"))?;
        if version > SCHEMA_VERSION as u64 {
            out.skipped.push((lineno, format!("version {version}")));
            continue;
        }
        if version < MIN_SCHEMA_VERSION as u64 {
            return Err(format!(
                "line {lineno}: unsupported record version {version} (reader supports \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        match RecordLine::from_known_fields(&fields).map_err(|e| format!("line {lineno}: {e}"))? {
            Some(record) => out.records.push(record),
            None => {
                let kind = record_kind(&fields).map_err(|e| format!("line {lineno}: {e}"))?;
                out.skipped.push((lineno, format!("kind {kind:?}")));
            }
        }
    }
    Ok(out)
}

/// Incremental builder for a single-line JSON object.
///
/// Exists so that the CLI's `--format json` output and [`RunRecord::to_json`]
/// share one escaping implementation.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field. Non-finite values serialize as `null` (JSON has
    /// no NaN/Infinity).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a `null` field.
    pub fn field_null(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// Adds a field whose value is pre-rendered JSON (e.g. a nested array
    /// built by the caller). The caller is responsible for its validity.
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number — exact for every integer up to 2⁵³.
    Num(f64),
    /// An integer literal above 2⁵³ (up to `u64::MAX`), which `Num` would
    /// round; read it as a `u64` with [`JsonValue`].
    Int(u64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// Parses a flat JSON object — string/number/bool/null values only, no
/// nesting — into a key → scalar map.
///
/// This is the subset [`RunRecord::to_json`] emits; nested values are
/// rejected with an error rather than skipped.
pub fn parse_flat_json(input: &str) -> Result<BTreeMap<String, JsonScalar>, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_scalar()?;
            map.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {:?}", byte_desc(other))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data after object at byte {}", p.pos));
    }
    Ok(map)
}

/// The `u64` a number literal denotes exactly, or `None` when it denotes a
/// fraction, a negative number, or a value above `u64::MAX`. The literal
/// has already parsed as an `f64`, so it is digits with an optional sign,
/// point and exponent.
fn exact_integer(text: &str) -> Option<u64> {
    let (mantissa, exponent) = match text.split_once(['e', 'E']) {
        Some((mantissa, exponent)) => (mantissa, exponent.parse::<i64>().ok()?),
        None => (text, 0),
    };
    let mantissa = mantissa.strip_prefix('+').unwrap_or(mantissa);
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let digits = [int, frac].concat();
    let digits = digits.trim_start_matches('0');
    let significant = digits.trim_end_matches('0');
    if significant.is_empty() {
        return Some(0);
    }
    // value = significant × 10^scale
    let scale = exponent - frac.len() as i64 + (digits.len() - significant.len()) as i64;
    if scale < 0 || significant.len() as i64 + scale > 20 {
        return None;
    }
    significant.parse::<u64>().ok()?.checked_mul(10u64.checked_pow(scale as u32)?)
}

fn byte_desc(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("{:?}", b as char),
        None => "end of input".to_string(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {}", want as char, byte_desc(other))),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("unterminated \\u escape")? as char;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {d:?} in \\u escape"))?;
                        }
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {}", byte_desc(other))),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy the remaining continuation bytes.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err("invalid UTF-8 in string".to_string()),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".to_string());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<JsonScalar, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonScalar::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonScalar::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonScalar::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonScalar::Null),
            Some(b'{' | b'[') => Err("nested values are not supported".to_string()),
            Some(_) => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                let x = text.parse::<f64>().map_err(|_| format!("bad number {text:?}"))?;
                // Every integer above 2⁵³ parses to an `x` of at least 2⁵³, so
                // only literals up there need the exact reading.
                if x >= MAX_EXACT_F64 as f64 {
                    if let Some(v) = exact_integer(text).filter(|&v| v > MAX_EXACT_F64) {
                        return Ok(JsonScalar::Int(v));
                    }
                }
                Ok(JsonScalar::Num(x))
            }
            None => Err("expected a value, got end of input".to_string()),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonScalar) -> Result<JsonScalar, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            experiment: "table1".to_string(),
            protocol: "oss".to_string(),
            n: 64,
            h: None,
            trial: 3,
            seed: 1,
            outcome: RunOutcome::Converged { interactions: 12_345 },
            wall_s: 0.25,
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
        }
    }

    fn sample_fault_record() -> FaultRecord {
        FaultRecord {
            experiment: "recovery".to_string(),
            protocol: "oss".to_string(),
            n: 256,
            h: None,
            trial: 3,
            seed: 1,
            action: "corrupt_random".to_string(),
            agents: 16,
            injected_at: 250_000,
            recovered_at: Some(280_000),
        }
    }

    fn sample_frontier_record() -> FrontierRecord {
        FrontierRecord {
            experiment: "frontier".to_string(),
            protocol: "epidemic".to_string(),
            backend: "counts".to_string(),
            n: 100_000_000,
            trial: 0,
            seed: 1,
            outcome: RunOutcome::Converged { interactions: 3_700_000_000 },
            wall_s: 12.5,
            support: Some(2),
            leaders: None,
        }
    }

    #[test]
    fn frontier_record_round_trips() {
        let f = sample_frontier_record();
        let json = f.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"frontier\","), "{json}");
        assert!(json.contains("\"backend\":\"counts\""), "{json}");
        assert!(json.contains("\"support\":2"), "{json}");
        assert!(json.contains("\"leaders\":null"), "{json}");
        assert_eq!(FrontierRecord::from_json(&json).unwrap(), f);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Frontier(f.clone()));
        let bounded = FrontierRecord {
            backend: "agents".to_string(),
            support: None,
            leaders: Some(1),
            outcome: RunOutcome::Exhausted { interactions: 42 },
            ..f
        };
        assert_eq!(FrontierRecord::from_json(&bounded.to_json()).unwrap(), bounded);
    }

    fn sample_timeline_record() -> TimelineRecord {
        TimelineRecord {
            experiment: "simulate".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 1000,
            trial: 0,
            seed: 1,
            interactions: 4096,
            leaders: 17,
            ranks_ok: 921,
            support: None,
            phases: Some("propagate:12,reset:3".to_string()),
        }
    }

    #[test]
    fn timeline_record_round_trips() {
        let t = sample_timeline_record();
        let json = t.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"timeline\","), "{json}");
        assert!(json.contains("\"parallel_time\":4.096"), "{json}");
        assert!(json.contains("\"phases\":\"propagate:12,reset:3\""), "{json}");
        assert_eq!(TimelineRecord::from_json(&json).unwrap(), t);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Timeline(t.clone()));
        let bare = TimelineRecord { phases: None, support: Some(5), ..t };
        assert_eq!(TimelineRecord::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn timeline_phases_decode() {
        let t = sample_timeline_record();
        assert_eq!(
            t.phase_counts().unwrap(),
            vec![("propagate".to_string(), 12), ("reset".to_string(), 3)]
        );
        let none = TimelineRecord { phases: None, ..t.clone() };
        assert!(none.phase_counts().unwrap().is_empty());
        let bad = TimelineRecord { phases: Some("oops".to_string()), ..t };
        assert!(bad.phase_counts().is_err());
    }

    fn sample_metrics_record() -> MetricsRecord {
        MetricsRecord {
            experiment: "simulate".to_string(),
            protocol: "epidemic".to_string(),
            backend: "counts".to_string(),
            n: 1_000_000,
            trial: Some(0),
            seed: 1,
            wall_s: 0.5,
            interactions: 2_000_000,
            batches: 4_000,
            batched_pairs: 1_999_000,
            exact_steps: 1_000,
            rng_draws: 4_010_000,
            memo_hits: 1_990_000,
            memo_misses: 10_000,
            compactions: 3,
            support: 2,
            raw_len: 5,
            flushes: 4_000,
            batch_hist: Some("256:12,512:3988".to_string()),
            sample_s: 0.1,
            transition_s: 0.3,
            probe_s: 0.05,
            observe_s: 0.0,
        }
    }

    #[test]
    fn metrics_record_round_trips() {
        let m = sample_metrics_record();
        let json = m.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"metrics\","), "{json}");
        assert!(json.contains("\"batch_hist\":\"256:12,512:3988\""), "{json}");
        assert!(json.contains("\"ips\":4000000"), "{json}");
        assert_eq!(MetricsRecord::from_json(&json).unwrap(), m);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Metrics(m.clone()));
        let merged = MetricsRecord { trial: None, batch_hist: None, ..m };
        let json = merged.to_json();
        assert!(json.contains("\"trial\":null"), "{json}");
        assert_eq!(MetricsRecord::from_json(&json).unwrap(), merged);
    }

    #[test]
    fn metrics_rates_and_histogram_decode() {
        let m = sample_metrics_record();
        assert!((m.fallback_rate() - 1_000.0 / 2_000_000.0).abs() < 1e-12);
        assert!((m.memo_hit_rate() - 0.995).abs() < 1e-12);
        assert_eq!(
            m.batch_hist_counts().unwrap(),
            vec![("256".to_string(), 12), ("512".to_string(), 3988)]
        );
        let none = MetricsRecord { batch_hist: None, ..m.clone() };
        assert!(none.batch_hist_counts().unwrap().is_empty());
        let bad = MetricsRecord { batch_hist: Some("oops".to_string()), ..m };
        assert!(bad.batch_hist_counts().is_err());
    }

    #[test]
    fn metrics_lines_are_invisible_to_the_trial_reader() {
        let text =
            format!("{}\n{}\n", sample_record().to_json(), sample_metrics_record().to_json());
        assert_eq!(from_jsonl(&text).unwrap().len(), 1);
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].to_json(), sample_metrics_record().to_json());
    }

    #[test]
    fn metrics_kind_mismatch_is_an_error() {
        let err = MetricsRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("metrics"), "{err}");
        let err = RunRecord::from_json(&sample_metrics_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
    }

    #[test]
    fn timeline_lines_are_invisible_to_the_trial_reader() {
        let text =
            format!("{}\n{}\n", sample_record().to_json(), sample_timeline_record().to_json());
        assert_eq!(from_jsonl(&text).unwrap().len(), 1);
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].to_json(), sample_timeline_record().to_json());
    }

    #[test]
    fn timeline_kind_mismatch_is_an_error() {
        let err = TimelineRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("timeline"), "{err}");
        let err = RunRecord::from_json(&sample_timeline_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
    }

    #[test]
    fn frontier_lines_are_invisible_to_the_trial_reader() {
        let text =
            format!("{}\n{}\n", sample_record().to_json(), sample_frontier_record().to_json());
        let trials = from_jsonl(&text).unwrap();
        assert_eq!(trials.len(), 1);
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].to_json(), sample_frontier_record().to_json());
    }

    #[test]
    fn frontier_kind_mismatch_is_an_error() {
        let err = FrontierRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
        let err = RunRecord::from_json(&sample_frontier_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample_record();
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        let with_h = RunRecord {
            protocol: "sublinear".to_string(),
            h: Some(2),
            outcome: RunOutcome::Exhausted { interactions: 999 },
            ..r
        };
        let parsed = RunRecord::from_json(&with_h.to_json()).unwrap();
        assert_eq!(parsed, with_h);
    }

    #[test]
    fn jsonl_round_trips_and_skips_blank_lines() {
        let records = vec![sample_record(), RunRecord { trial: 4, ..sample_record() }];
        let mut text = to_jsonl(&records);
        text.push('\n'); // trailing blank line
        assert_eq!(from_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn derived_fields_are_emitted() {
        let json = sample_record().to_json();
        assert!(json.contains("\"parallel_time\":"), "{json}");
        assert!(json.contains("\"ips\":49380"), "{json}");
        assert!(json.starts_with("{\"v\":9,\"kind\":\"trial\","), "version leads: {json}");
        assert!(
            !json.contains("availability") && !json.contains("faults"),
            "chaos fields only appear when set: {json}"
        );
    }

    #[test]
    fn chaos_fields_round_trip_when_set() {
        let r = RunRecord { availability: Some(0.9921875), faults: Some(4), ..sample_record() };
        let json = r.to_json();
        assert!(json.contains("\"availability\":0.9921875"), "{json}");
        assert!(json.contains("\"faults\":4"), "{json}");
        assert_eq!(RunRecord::from_json(&json).unwrap(), r);
        // `null` reads like an absent field, as for every optional field.
        let null = json.replace("\"faults\":4", "\"faults\":null");
        assert_eq!(RunRecord::from_json(&null).unwrap(), RunRecord { faults: None, ..r });
    }

    #[test]
    fn integers_read_exactly_over_the_whole_u64_range() {
        let seed = |literal: &str| {
            RunRecord::from_json(
                &sample_record().to_json().replace("\"seed\":1,", &format!("\"seed\":{literal},")),
            )
            .map(|r| r.seed)
        };
        assert_eq!(seed("9007199254740992"), Ok(1 << 53));
        assert_eq!(seed("9007199254740993"), Ok((1 << 53) + 1));
        assert_eq!(seed("18446744073709551615"), Ok(u64::MAX));
        // Any spelling of an exact integer reads as that integer.
        assert_eq!(seed("9007199254740993.000"), Ok((1 << 53) + 1));
        assert_eq!(seed("9.007199254740993e15"), Ok((1 << 53) + 1));
        assert_eq!(seed("1e19"), Ok(10_000_000_000_000_000_000));
        assert_eq!(seed("64.0"), Ok(64));
        assert_eq!(seed("6.4e1"), Ok(64));
        assert_eq!(seed("-0"), Ok(0));
        // Anything else is rejected, never rounded.
        for literal in ["18446744073709551616", "1e20", "9007199254740993.5", "1.5", "-1", "1e400"]
        {
            let err = seed(literal).unwrap_err();
            assert!(err.contains("\"seed\": expected a non-negative integer"), "{literal}: {err}");
        }
        // Float fields read big integer literals as the nearest f64.
        let json =
            sample_record().to_json().replace("\"wall_s\":0.25", "\"wall_s\":18446744073709551615");
        assert_eq!(RunRecord::from_json(&json).unwrap().wall_s, u64::MAX as f64);
    }

    proptest::proptest! {
        #[test]
        fn any_seed_round_trips(seed in proptest::any::<u64>(), faults in proptest::any::<u64>()) {
            let r = RunRecord { seed, faults: Some(faults), ..sample_record() };
            proptest::prop_assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn v1_lines_without_kind_still_parse() {
        // A line exactly as the v1 writer emitted it.
        let json = "{\"v\":1,\"experiment\":\"table1\",\"protocol\":\"oss\",\"n\":64,\
                    \"h\":null,\"trial\":3,\"seed\":1,\"outcome\":\"converged\",\
                    \"interactions\":12345,\"parallel_time\":192.890625,\"wall_s\":0.25,\
                    \"ips\":49380}";
        assert_eq!(RunRecord::from_json(json).unwrap(), sample_record());
        assert_eq!(RecordLine::from_json(json).unwrap(), RecordLine::Trial(sample_record()));
    }

    #[test]
    fn fault_record_round_trips() {
        let f = sample_fault_record();
        let json = f.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"fault\","), "{json}");
        assert!(json.contains("\"recovery_parallel_time\":"), "{json}");
        assert_eq!(FaultRecord::from_json(&json).unwrap(), f);
        assert_eq!(f.recovery_interactions(), Some(30_000));
        let censored = FaultRecord { recovered_at: None, ..f };
        let parsed = FaultRecord::from_json(&censored.to_json()).unwrap();
        assert_eq!(parsed, censored);
        assert_eq!(parsed.recovery_parallel_time(), None);
    }

    #[test]
    fn mixed_streams_parse_and_trial_reader_skips_faults() {
        let text = format!(
            "{}\n{}\n{}\n",
            sample_record().to_json(),
            sample_fault_record().to_json(),
            RunRecord { trial: 4, ..sample_record() }.to_json()
        );
        let mixed = from_jsonl_mixed(&text).unwrap();
        assert_eq!(mixed.len(), 3);
        assert_eq!(mixed[1], RecordLine::Fault(sample_fault_record()));
        assert_eq!(mixed[1].to_json(), sample_fault_record().to_json());
        let trials = from_jsonl(&text).unwrap();
        assert_eq!(trials.len(), 2, "fault lines are invisible to the trial reader");
        assert_eq!(trials[1].trial, 4);
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let err = RunRecord::from_json(&sample_fault_record().to_json()).unwrap_err();
        assert!(err.contains("trial"), "{err}");
        let err = FaultRecord::from_json(&sample_record().to_json()).unwrap_err();
        assert!(err.contains("fault"), "{err}");
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let mut json = sample_record().to_json();
        json.insert_str(json.len() - 1, ",\"future_field\":\"yes\"");
        assert_eq!(RunRecord::from_json(&json).unwrap(), sample_record());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let json = sample_record().to_json().replace("\"v\":9", "\"v\":10");
        let err = RunRecord::from_json(&json).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let json = sample_record().to_json().replace("\"v\":9", "\"v\":0");
        assert!(RunRecord::from_json(&json).is_err());
    }

    #[test]
    fn robustness_fields_round_trip_when_set() {
        let r = sample_record().with_robustness(
            Some("starve:4:256".to_string()),
            Some(0.25),
            Some(256),
        );
        let json = r.to_json();
        assert!(json.contains("\"scheduler\":\"starve:4:256\""), "{json}");
        assert!(json.contains("\"omission\":0.25"), "{json}");
        assert!(json.contains("\"starve_window\":256"), "{json}");
        assert_eq!(RunRecord::from_json(&json).unwrap(), r);
    }

    #[test]
    fn uniform_perfect_robustness_normalizes_to_absent_fields() {
        let r = sample_record().with_robustness(Some("uniform".to_string()), Some(0.0), None);
        assert_eq!(r, sample_record());
        assert!(!r.to_json().contains("scheduler"), "baseline serializes as pre-v3");
    }

    #[test]
    fn missing_field_is_an_error_with_line_number() {
        let good = sample_record().to_json();
        let bad = good.replace("\"seed\":1,", "");
        let text = format!("{good}\n{bad}\n");
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn string_escaping_round_trips() {
        let r = RunRecord {
            experiment: "weird \"name\"\twith\nnewline\\slash".to_string(),
            ..sample_record()
        };
        assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn parser_rejects_nesting_and_trailing_garbage() {
        assert!(parse_flat_json("{\"a\":[1]}").unwrap_err().contains("nested"));
        assert!(parse_flat_json("{\"a\":1} extra").unwrap_err().contains("trailing"));
        assert!(parse_flat_json("{\"a\":1").is_err());
    }

    #[test]
    fn json_object_builder_emits_all_types() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "x");
        obj.field_u64("u", 7);
        obj.field_f64("f", 1.5);
        obj.field_f64("nan", f64::NAN);
        obj.field_bool("b", true);
        obj.field_null("z");
        obj.field_raw("arr", "[1,2]");
        assert_eq!(
            obj.finish(),
            "{\"s\":\"x\",\"u\":7,\"f\":1.5,\"nan\":null,\"b\":true,\"z\":null,\"arr\":[1,2]}"
        );
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_json(" { } ").unwrap().is_empty());
    }

    fn sample_churn_record() -> ChurnRecord {
        ChurnRecord {
            experiment: "churn".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 64,
            final_n: 66,
            h: None,
            trial: 3,
            seed: 9,
            churn: "2.0".to_string(),
            byzantine: 0.05,
            joins: 4,
            leaves: 2,
            replacements: 11,
            byz_strikes: 310,
            faults: 17,
            availability: 0.82,
            ranked_availability: 0.64,
            recovered: 15,
            mean_recovery_pt: Some(12.5),
            first_ranked_pt: Some(30.0),
            interactions: 200_000,
            parallel_time: 3101.6,
            wall_s: 0.4,
        }
    }

    fn sample_service_record() -> ServiceRecord {
        ServiceRecord {
            experiment: "service".to_string(),
            protocol: "oss".to_string(),
            backend: "counts".to_string(),
            n: 10_000,
            clients: 8,
            requests: 4_000,
            rps: 1_234.5,
            p50_us: 210.0,
            p99_us: 1_900.0,
            seed: 5,
            wall_s: 3.24,
        }
    }

    #[test]
    fn service_record_round_trips() {
        let s = sample_service_record();
        let json = s.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"service\","), "{json}");
        assert!(json.contains("\"clients\":8"), "{json}");
        assert!(json.contains("\"p99_us\":1900"), "{json}");
        assert_eq!(ServiceRecord::from_json(&json).unwrap(), s);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Service(s.clone()));
        // Mixed streams carry service lines; the trial-only reader skips them.
        let lines = vec![RecordLine::Trial(sample_record()), RecordLine::Service(s)];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    fn sample_crash_record() -> CrashRecord {
        CrashRecord {
            experiment: "crash".to_string(),
            protocol: "ciw".to_string(),
            backend: "agents".to_string(),
            n: 256,
            fsync: "every:16".to_string(),
            kill_point: 0.5,
            events_applied: 200,
            events_recovered: 192,
            lost_events: 8,
            recovery_ms: 4.75,
            replay_identical: true,
            seed: 11,
            wall_s: 0.9,
        }
    }

    fn sample_health_record() -> HealthRecord {
        HealthRecord {
            experiment: "health".to_string(),
            pop: "alpha".to_string(),
            protocol: "oss".to_string(),
            backend: "counts".to_string(),
            n: 1_000,
            live: 998,
            interactions: 500_000,
            ranked: true,
            seq: 73,
            snapshot_seq: 64,
            lag: 9,
            fsync: "always".to_string(),
            quarantines: 1,
        }
    }

    #[test]
    fn crash_record_round_trips() {
        let c = sample_crash_record();
        let json = c.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"crash\","), "{json}");
        assert!(json.contains("\"fsync\":\"every:16\""), "{json}");
        assert!(json.contains("\"lost_events\":8"), "{json}");
        assert!(json.contains("\"replay_identical\":true"), "{json}");
        assert_eq!(CrashRecord::from_json(&json).unwrap(), c);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Crash(c.clone()));
        // The trial-only reader skips crash lines.
        let lines = vec![RecordLine::Trial(sample_record()), RecordLine::Crash(c)];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    #[test]
    fn health_record_round_trips() {
        let h = sample_health_record();
        let json = h.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"health\","), "{json}");
        assert!(json.contains("\"lag\":9"), "{json}");
        assert!(json.contains("\"ranked\":true"), "{json}");
        assert!(json.contains("\"quarantines\":1"), "{json}");
        assert_eq!(HealthRecord::from_json(&json).unwrap(), h);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Health(h.clone()));
        let lines = vec![RecordLine::Trial(sample_record()), RecordLine::Health(h)];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    #[test]
    fn bool_fields_reject_non_bools() {
        let json = sample_crash_record().to_json().replace("true", "\"yes\"");
        let err = CrashRecord::from_json(&json).unwrap_err();
        assert!(err.contains("replay_identical"), "{err}");
    }

    #[test]
    fn churn_record_round_trips() {
        let c = sample_churn_record();
        let json = c.to_json();
        assert!(json.starts_with("{\"v\":9,\"kind\":\"churn\","), "{json}");
        assert!(json.contains("\"churn\":\"2.0\""), "{json}");
        assert!(json.contains("\"byzantine\":0.05"), "{json}");
        assert!(json.contains("\"final_n\":66"), "{json}");
        assert_eq!(ChurnRecord::from_json(&json).unwrap(), c);
        assert_eq!(RecordLine::from_json(&json).unwrap(), RecordLine::Churn(c.clone()));
        let bare = ChurnRecord {
            h: Some(4),
            mean_recovery_pt: None,
            first_ranked_pt: None,
            churn: "none".to_string(),
            ..c
        };
        let json = bare.to_json();
        assert!(json.contains("\"mean_recovery_pt\":null"), "{json}");
        assert_eq!(ChurnRecord::from_json(&json).unwrap(), bare);
    }

    #[test]
    fn churn_lines_survive_mixed_round_trip() {
        let lines =
            vec![RecordLine::Trial(sample_record()), RecordLine::Churn(sample_churn_record())];
        let text = to_jsonl_mixed(&lines);
        assert_eq!(from_jsonl_mixed(&text).unwrap(), lines);
        // The trial-only reader keeps its historical contract.
        assert_eq!(from_jsonl(&text).unwrap(), vec![sample_record()]);
    }

    #[test]
    fn lenient_parse_sets_aside_future_lines() {
        let known = sample_churn_record().to_json();
        let future_version = known.replace("\"v\":9", "\"v\":10");
        let future_kind = known.replace("\"kind\":\"churn\"", "\"kind\":\"galaxy\"");
        let text = format!("{known}\n{future_version}\n{future_kind}\n");
        let parsed = from_jsonl_lenient(&text).unwrap();
        assert_eq!(parsed.records, vec![RecordLine::Churn(sample_churn_record())]);
        assert_eq!(
            parsed.skipped,
            vec![(2, "version 10".to_string()), (3, "kind \"galaxy\"".to_string())]
        );
        // Strict mixed parsing still rejects the same stream.
        assert!(from_jsonl_mixed(&text).is_err());
    }

    /// The codec oracle: every line of every checked-in stream re-encodes to
    /// its own bytes, except that `"v"` becomes [`SCHEMA_VERSION`].
    #[test]
    fn checked_in_streams_reencode_byte_identically() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        paths.sort();
        let mut lines = 0;
        let mut kinds = std::collections::BTreeSet::new();
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            for (idx, line) in text.lines().enumerate() {
                let rest = line.strip_prefix("{\"v\":").expect("lines lead with the version");
                let rest = rest.trim_start_matches(|c: char| c.is_ascii_digit());
                let expected = format!("{{\"v\":{SCHEMA_VERSION}{rest}");
                let record = RecordLine::from_json(line)
                    .unwrap_or_else(|e| panic!("{}:{}: {e}", path.display(), idx + 1));
                assert_eq!(record.to_json(), expected, "{}:{}", path.display(), idx + 1);
                let kind = line.split("\"kind\":\"").nth(1).unwrap().split('"').next().unwrap();
                kinds.insert(kind.to_string());
                lines += 1;
            }
        }
        assert_eq!(paths.len(), 9, "{paths:?}");
        assert_eq!(lines, 10_949);
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            ["churn", "crash", "fault", "frontier", "metrics", "server_stats", "service", "trial"]
        );
    }

    fn sample_server_stats_record() -> ServerStatsRecord {
        ServerStatsRecord {
            experiment: "serve".to_string(),
            cmd: "step".to_string(),
            count: 120,
            errors: 2,
            rps: 40.5,
            p50_us: 256.0,
            p95_us: 1024.0,
            p99_us: 2048.0,
            mean_us: 310.25,
            queue_us: 1.5,
            parse_us: 0.75,
            registry_lock_us: 0.125,
            pop_lock_us: 3.0,
            engine_us: 280.0,
            journal_us: 12.5,
            fsync_us: 0.0,
            write_us: 9.375,
            hist: "256:60,512:40,2048:19,inf:1".to_string(),
            window_s: 2.962962962962963,
            busy: 1,
            queue_depth: 0,
            slow: 3,
            journal_lag: 7,
        }
    }

    fn sample_trace_record() -> TraceRecord {
        TraceRecord {
            cmd: "create".to_string(),
            pop: "alpha \"one\"".to_string(),
            id: String::new(),
            ok: false,
            total_us: 812,
            queue_us: 40,
            parse_us: 3,
            registry_lock_us: 1,
            pop_lock_us: 0,
            engine_us: 701,
            journal_us: 22,
            fsync_us: 31,
            write_us: 14,
        }
    }

    /// Exact bytes of the kinds no checked-in stream carries.
    #[test]
    fn kinds_without_a_stream_encode_pinned_bytes() {
        let pinned = [
            (
                RecordLine::Timeline(sample_timeline_record()),
                "{\"v\":9,\"kind\":\"timeline\",\"experiment\":\"simulate\",\"protocol\":\"ciw\",\
                 \"backend\":\"agents\",\"n\":1000,\"trial\":0,\"seed\":1,\"interactions\":4096,\
                 \"parallel_time\":4.096,\"leaders\":17,\"ranks_ok\":921,\"support\":null,\
                 \"phases\":\"propagate:12,reset:3\"}",
            ),
            (
                RecordLine::Health(sample_health_record()),
                "{\"v\":9,\"kind\":\"health\",\"experiment\":\"health\",\"pop\":\"alpha\",\
                 \"protocol\":\"oss\",\"backend\":\"counts\",\"n\":1000,\"live\":998,\
                 \"interactions\":500000,\"ranked\":true,\"seq\":73,\"snapshot_seq\":64,\"lag\":9,\
                 \"fsync\":\"always\",\"quarantines\":1}",
            ),
            (
                RecordLine::ServerStats(sample_server_stats_record()),
                "{\"v\":9,\"kind\":\"server_stats\",\"experiment\":\"serve\",\"cmd\":\"step\",\
                 \"count\":120,\"errors\":2,\"rps\":40.5,\"p50_us\":256,\"p95_us\":1024,\
                 \"p99_us\":2048,\"mean_us\":310.25,\"queue_us\":1.5,\"parse_us\":0.75,\
                 \"registry_lock_us\":0.125,\"pop_lock_us\":3,\"engine_us\":280,\
                 \"journal_us\":12.5,\"fsync_us\":0,\"write_us\":9.375,\
                 \"hist\":\"256:60,512:40,2048:19,inf:1\",\"window_s\":2.962962962962963,\
                 \"busy\":1,\"queue_depth\":0,\"slow\":3,\"journal_lag\":7}",
            ),
            (
                RecordLine::Trace(sample_trace_record()),
                "{\"v\":9,\"kind\":\"trace\",\"cmd\":\"create\",\"pop\":\"alpha \\\"one\\\"\",\
                 \"id\":\"\",\"ok\":false,\"total_us\":812,\"queue_us\":40,\"parse_us\":3,\
                 \"registry_lock_us\":1,\"pop_lock_us\":0,\"engine_us\":701,\"journal_us\":22,\
                 \"fsync_us\":31,\"write_us\":14}",
            ),
        ];
        for (record, bytes) in pinned {
            assert_eq!(record.to_json(), bytes);
            assert_eq!(RecordLine::from_json(bytes).unwrap(), record);
        }
    }

    #[test]
    fn lenient_parse_still_hard_errors_on_garbage() {
        // Below MIN_SCHEMA_VERSION: no writer should produce this.
        let stale = sample_churn_record().to_json().replace("\"v\":9", "\"v\":0");
        assert!(from_jsonl_lenient(&stale).unwrap_err().contains("version"));
        // Malformed JSON is a hard error too.
        assert!(from_jsonl_lenient("{\"v\":8,").is_err());
        // A known kind with broken fields is a hard error, not a skip.
        let broken = "{\"v\":9,\"kind\":\"churn\",\"experiment\":\"x\"}";
        assert!(from_jsonl_lenient(broken).is_err());
    }
}
