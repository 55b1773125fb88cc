//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! layer's public functions; nothing inside the measured crates is
//! instrumented. They stay in memory until the run ends, are written out
//! as JSON lines, and give each layer's self time: a span's duration minus
//! the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name, e.g. `scheduler.sample_pair`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial (or rate step) the span belongs to.
    pub trial: u64,
    /// Units of work done inside the span (draws, interactions, requests).
    pub work: u64,
}

/// Collects spans for one workload run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Tracer { workload, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, trial: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trial, work: 0 });
        self.spans.len() - 1
    }

    /// Closes span `id`, crediting it with `work` units.
    pub fn exit(&mut self, id: usize, work: u64) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.work = work;
    }

    /// Records a span measured elsewhere (e.g. a section total reported by
    /// the engine's metrics sink), placed at the start of `parent`.
    pub fn record(&mut self, name: &'static str, parent: usize, nanos: u64, work: u64) {
        let (start_ns, trial) = (self.spans[parent].start_ns, self.spans[parent].trial);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + nanos,
            parent: Some(parent),
            trial,
            work,
        });
    }

    /// Records a span between two instants taken elsewhere (e.g. a
    /// request's due time and its reply) and returns its index.
    pub fn record_interval(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trial: u64,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> usize {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (ns(start), ns(end).max(ns(start)));
        self.spans.push(Span { name, start_ns, end_ns, parent, trial, work });
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds per span name: each span's duration minus its
    /// children's, floored at 0, summed over the spans with that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\",\"trial\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, self.workload, s.trial, s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        let root = t.enter("trial", None, 0);
        let run = t.enter("run", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(run, 5);
        t.exit(root, 1);
        t.record("section", 1, 1_000_000, 0);
        let own = t.self_seconds();
        let run = &t.spans()[1];
        let run_s = (run.end_ns - run.start_ns) as f64 * 1e-9;
        assert!((run_s - own["run"] - 1e-3).abs() < 1e-9, "the section is the run's child");
        assert!(own["trial"] < 2e-3, "the run covers nearly all of the trial");
        assert!((own["section"] - 1e-3).abs() < 1e-12);
        assert_eq!(run.work, 5);
    }
}
