//! The benchmark's output: one human-readable line per metric (with its
//! sample count) and, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `op_ms.p50`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// A workload's results: the metrics plus the outcome of its checks.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (trials, or requests plus checks).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out, plus failed
    /// checks.
    pub failed: u64,
    /// One message per failure, printed before the result line.
    pub failures: Vec<String>,
    /// Metrics in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Extra `key value` lines: simulated statistics and digests that are
    /// not metrics but let a reader see when the execution changed.
    pub notes: Vec<String>,
    /// One line per trial (simulated interactions and host times), written
    /// to a file beside the spans rather than printed.
    pub trial_log: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Counts one attempted check; records `failure` when it is `Err`.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Records one failure against an already-counted attempt.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full output: human-readable lines for every metric, then the
    /// JSON result line carrying the metrics named in `keys`.
    pub fn render(&self, workload: &str, keys: &[String]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("note   {workload:<16} {note}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("FAILED {workload:<16} {f}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {workload:<16} {:<36} {:>16} {:<6} (samples {})\n",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            ));
        }
        let error_rate =
            if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        out.push_str(&format!(
            "metric {workload:<16} {:<36} {:>16} {:<6} (samples {}, {} failed)\n",
            "error_rate",
            format_value(error_rate),
            "ratio",
            self.attempted,
            self.failed
        ));
        out.push_str(&self.json_line(keys));
        out.push('\n');
        out
    }

    /// The machine-readable result line, with the metrics named in `keys`
    /// in that order.
    pub fn json_line(&self, keys: &[String]) -> String {
        let metrics: Vec<String> = keys
            .iter()
            .filter_map(|k| self.metrics.iter().find(|m| &m.name == k))
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which a correct run never produces) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_last_and_carries_every_metric() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.metric("setup_s", 0.25, "s", 3);
        r.metric("ips", 1.5e7, "1/s", 10);
        r.metric("not_listed", 1.0, "s", 1);
        let out = r.render("w", &["setup_s".to_string(), "ips".to_string()]);
        assert!(out.contains("not_listed"), "every metric is printed");
        let last = out.lines().last().expect("output has lines");
        assert_eq!(
            last,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\"ips\":{\"value\":15000000.0,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("two leaders".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.render("w", &[]).contains("FAILED w"));
    }
}
