//! The `serve-mixed` workload: the election daemon (`ssle serve`, the
//! CLI's own entry point run as a separate process) hosting one
//! Optimal-Silent-SSR population on the agent array, under an open-loop
//! mix of 6 `status` : 1 `leader` : 1 `step` requests.
//!
//! Each request is timed from the moment it was due, so a stall also
//! counts against the requests queued behind it. The mix runs at two fixed
//! rates and then up a rate ladder until the tail exceeds the latency
//! limit.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use population::runner::{derive_seed, rng_from_seed};
use rand::Rng;

use crate::host::Calibration;
use crate::report::Report;
use crate::sim;
use crate::stats::{median, peak_rss_mb, quantile, secs_since, supported_quantile};
use crate::trace::Tracer;

/// Population size hosted by the daemon.
pub const SERVE_N: usize = 1_000_000;
/// Interactions per `step` request.
pub(crate) const STEP_INTERACTIONS: u64 = 10_000;
/// `step` requests issued during warm-up.
const WARMUP_STEPS: u64 = 10;
/// Daemon boots per run; the last one is measured, `setup_s` is their
/// median.
const BOOTS: usize = 5;
/// Kernel repetitions per calibration burst.
const CALIBRATION_REPS: usize = 20;
/// Requests per second of the low fixed rate.
pub(crate) const LOW_RPS: f64 = 10.0;
/// The main fixed rate, at which every latency metric is reported. Low
/// enough that most `status` requests find the population lock free, so
/// the median is the read path's own cost rather than a coin flip between
/// it and a wait behind a `leader` or `step`.
pub(crate) const MAIN_RPS: f64 = 20.0;
/// The rate ladder walked after the fixed rates.
pub(crate) const LADDER_RPS: [f64; 5] = [25.0, 50.0, 100.0, 150.0, 200.0];
/// Tail latency limit of the ladder, microseconds.
pub(crate) const LIMIT_US: f64 = 50_000.0;
/// How long a rate step may take to drain after its last request was due.
const DRAIN: Duration = Duration::from_secs(5);

/// The three commands of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmd {
    /// Read the population's status (lock-bound).
    Status,
    /// Read the leader (an O(n) rank-tracker rebuild in the engine).
    Leader,
    /// Advance the population by [`STEP_INTERACTIONS`] (journaled).
    Step,
}

impl Cmd {
    /// All commands, in report order.
    pub(crate) const ALL: [Cmd; 3] = [Cmd::Status, Cmd::Leader, Cmd::Step];

    /// The wire name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Cmd::Status => "status",
            Cmd::Leader => "leader",
            Cmd::Step => "step",
        }
    }

    fn line(self) -> String {
        match self {
            Cmd::Step => format!(
                "{{\"cmd\":\"step\",\"name\":\"{POP}\",\"interactions\":{STEP_INTERACTIONS}}}\n"
            ),
            c => format!("{{\"cmd\":\"{}\",\"name\":\"{POP}\"}}\n", c.name()),
        }
    }

    /// Draws a command with weights 6 : 1 : 1.
    fn draw(rng: &mut impl Rng) -> Cmd {
        match rng.gen_range(0..8) {
            0 => Cmd::Leader,
            1 => Cmd::Step,
            _ => Cmd::Status,
        }
    }
}

const POP: &str = "bench";

/// Run parameters.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Population size.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Worker threads of the daemon and the cap on client connections.
    pub threads: usize,
    /// Directory for the daemon's journals and snapshots.
    pub state_dir: PathBuf,
    /// The executable that runs the daemon (this benchmark's own binary).
    pub exe: PathBuf,
}

/// Extracts the number following `"key":` in a JSON text (first match).
fn json_num(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = text.find(&pat)? + pat.len();
    let len = text[start..].find('"')?;
    Some(&text[start..start + len])
}

fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    fn boot(p: &ServeParams, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
        let mut child = Command::new(&p.exe)
            .args(["daemon", "serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(p.threads.to_string())
            .arg("--snapshot-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the daemon's stderr for its whole life, so log lines can
        // never fill the pipe and block it.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon { child, addr: String::new(), stderr: Some(reader) };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => {
                daemon.stop();
                Err("the daemon did not report its address".to_string())
            }
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Kills the daemon and waits for it and its log reader to end. The
    /// measured state is discarded, so no shutdown snapshot is taken.
    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Sends one request and waits for its reply.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        self.stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let t0 = Instant::now();
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(format!("no reply within 30 s to {}", line.trim_end()));
            }
            self.fill()?;
        }
    }

    fn take_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=pos).collect();
        Some(String::from_utf8_lossy(&line[..pos]).into_owned())
    }

    /// Reads what is available into the buffer; `Ok(false)` when nothing
    /// arrived before the socket's timeout (or, non-blocking, at once).
    fn fill(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(k) => {
                self.buf.extend_from_slice(&chunk[..k]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One request's fate.
#[derive(Debug, Clone, Copy)]
struct Sample {
    cmd: Cmd,
    due: Instant,
    /// Microseconds from due to reply; `None` when it failed or timed out.
    latency_us: Option<f64>,
    /// Microseconds from send to reply.
    service_us: f64,
    /// Microseconds the generator sent late.
    lag_us: f64,
    performed: u64,
}

/// Longest sleep of the generator between polls of its socket: replies
/// are timestamped within this of their arrival. (A socket read timeout
/// would be rounded up to the kernel's tick, which is far coarser.)
const POLL: Duration = Duration::from_micros(100);

/// Drives one connection through its share of the schedule, open loop:
/// requests go out when due whether or not earlier replies have come back.
fn drive(conn: &mut Conn, plan: &[(Instant, Cmd)]) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::with_capacity(plan.len());
    let mut errors = Vec::new();
    let mut inflight: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let deadline = plan.last().map_or_else(Instant::now, |(due, _)| *due) + DRAIN;
    let mut next = 0;
    let fail = |samples: &mut Vec<Sample>, i: usize, due: Instant| {
        samples.push(Sample {
            cmd: plan[i].1,
            due,
            latency_us: None,
            service_us: 0.0,
            lag_us: 0.0,
            performed: 0,
        });
    };
    if let Err(e) = conn.stream.set_nonblocking(true) {
        errors.push(format!("non-blocking mode: {e}"));
        for (i, &(due, _)) in plan.iter().enumerate() {
            fail(&mut samples, i, due);
        }
        return (samples, errors);
    }
    loop {
        let now = Instant::now();
        while next < plan.len() && plan[next].0 <= now {
            let (due, cmd) = plan[next];
            if let Err(e) = write_all_nonblocking(&mut conn.stream, cmd.line().as_bytes()) {
                errors.push(format!("send: {e}"));
                fail(&mut samples, next, due);
            } else {
                inflight.push_back((next, due, Instant::now()));
            }
            next += 1;
        }
        let mut broken = None;
        loop {
            match conn.fill() {
                Ok(false) => break,
                Err(e) => {
                    broken = Some(e);
                    break;
                }
                Ok(true) => {}
            }
            let recv = Instant::now();
            while let Some(line) = conn.take_line() {
                let Some((i, due, sent)) = inflight.pop_front() else {
                    errors.push("reply without a request".to_string());
                    continue;
                };
                let cmd = plan[i].1;
                if !is_ok(&line) {
                    errors.push(format!("{} failed: {line}", cmd.name()));
                    fail(&mut samples, i, due);
                    continue;
                }
                let performed = json_num(&line, "performed").unwrap_or(0.0) as u64;
                if cmd == Cmd::Step && performed != STEP_INTERACTIONS {
                    errors.push(format!("step performed {performed} interactions"));
                    fail(&mut samples, i, due);
                    continue;
                }
                samples.push(Sample {
                    cmd,
                    due,
                    latency_us: Some((recv - due).as_secs_f64() * 1e6),
                    service_us: (recv - sent).as_secs_f64() * 1e6,
                    lag_us: (sent - due).as_secs_f64() * 1e6,
                    performed,
                });
            }
        }
        let now = Instant::now();
        let timed_out = next == plan.len() && now >= deadline;
        if broken.is_some() || timed_out {
            errors
                .push(broken.unwrap_or_else(|| format!("{} request(s) timed out", inflight.len())));
            for (i, due, _) in inflight.drain(..) {
                fail(&mut samples, i, due);
            }
            for (i, &(due, _)) in plan.iter().enumerate().skip(next) {
                fail(&mut samples, i, due);
            }
            break;
        }
        if next == plan.len() && inflight.is_empty() {
            break;
        }
        let until = if next < plan.len() { plan[next].0 } else { deadline };
        let wait = until.saturating_duration_since(now).min(POLL);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    if let Err(e) = conn.stream.set_nonblocking(false) {
        errors.push(format!("blocking mode: {e}"));
    }
    (samples, errors)
}

/// `write_all` on a non-blocking socket: retries while the send buffer is
/// full (requests are a few dozen bytes, so this practically never waits).
fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Outcome of one rate step.
struct RateStep {
    rps: f64,
    samples: Vec<Sample>,
    errors: Vec<String>,
    /// The daemon's `stats` rows for the step (traced runs only).
    server: Option<String>,
    /// Journal sequence advance during the step (traced runs only).
    seq_delta: Option<f64>,
}

impl RateStep {
    fn latencies(&self, cmd: Option<Cmd>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| cmd.is_none_or(|c| s.cmd == c))
            .filter_map(|s| s.latency_us)
            .collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.latency_us.is_none()).count() as u64
    }

    fn performed(&self) -> u64 {
        self.samples.iter().map(|s| s.performed).sum()
    }

    /// Whether the step met the limit: every request answered and the
    /// pooled p99 within [`LIMIT_US`]. Latency is counted from the due
    /// time, so a growing backlog shows as a growing tail.
    fn meets_limit(&self) -> bool {
        self.failed() == 0 && quantile(&self.latencies(None), 0.99) <= LIMIT_US
    }
}

/// Runs one open-loop rate step over `conns`: Poisson arrivals at `rps`
/// for `seconds`, dealt round-robin to the connections.
fn rate_step(conns: &mut [Conn], rps: f64, seconds: f64, seed: u64) -> RateStep {
    let mut rng = rng_from_seed(seed);
    let start = Instant::now() + Duration::from_millis(5);
    let mut plans: Vec<Vec<(Instant, Cmd)>> = vec![Vec::new(); conns.len()];
    let mut t = 0.0f64;
    let mut k = 0usize;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rps;
        if t >= seconds {
            break;
        }
        plans[k % conns.len()].push((start + Duration::from_secs_f64(t), Cmd::draw(&mut rng)));
        k += 1;
    }
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plans)
            .map(|(conn, plan)| scope.spawn(move || drive(conn, plan)))
            .collect();
        for h in handles {
            let (s, e) = h.join().expect("a generator thread panicked");
            samples.extend(s);
            errors.extend(e);
        }
    });
    samples.sort_by_key(|s| s.due);
    RateStep { rps, samples, errors, server: None, seq_delta: None }
}

/// Boots a daemon, creates the population and warms it up; returns the
/// daemon, its connections and the set-up seconds.
fn setup(p: &ServeParams, boot: usize, conns: usize) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let t0 = Instant::now();
    let dir = p.state_dir.join(format!("boot{boot}"));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::boot(p, &dir)?;
    let mut conns: Vec<Conn> = (0..conns).map(|_| daemon.connect()).collect::<Result<_, _>>()?;
    let c = &mut conns[0];
    let create = format!(
        "{{\"cmd\":\"create\",\"name\":\"{POP}\",\"protocol\":\"oss\",\"backend\":\"agents\",\"n\":{},\"seed\":{}}}\n",
        p.n,
        derive_seed(p.seed, 0) % (1 << 52)
    );
    let resp = c.call(&create)?;
    if !is_ok(&resp) {
        return Err(format!("create failed: {resp}"));
    }
    for i in 0..WARMUP_STEPS {
        for cmd in [Cmd::Step, Cmd::Status, Cmd::Leader] {
            if cmd == Cmd::Leader && i % 4 != 0 {
                continue;
            }
            let resp = c.call(&cmd.line())?;
            if !is_ok(&resp) {
                return Err(format!("warm-up {} failed: {resp}", cmd.name()));
            }
        }
    }
    Ok((daemon, conns, secs_since(t0)))
}

/// Checks that the population holds the warm-up's interactions plus those
/// of every `step` acknowledged during `steps`, all run on `conn`'s daemon.
fn check_interactions(conn: &mut Conn, steps: &[(&str, RateStep)]) -> Result<(), String> {
    let acked: u64 = steps.iter().map(|(_, st)| st.performed()).sum();
    let expected = WARMUP_STEPS * STEP_INTERACTIONS + acked;
    let resp = conn.call(&Cmd::Status.line())?;
    match json_num(&resp, "interactions") {
        Some(got) if got as u64 == expected => Ok(()),
        Some(got) => Err(format!("final status reports {got} interactions, expected {expected}")),
        None => Err(format!("final status unreadable: {resp}")),
    }
}

fn stats_reset(conn: &mut Conn) -> Result<String, String> {
    conn.call("{\"cmd\":\"stats\",\"reset\":true}\n")
}

fn journal_seq(conn: &mut Conn) -> Result<f64, String> {
    let resp = conn.call("{\"cmd\":\"health\"}\n")?;
    json_num(&resp, "seq").ok_or_else(|| format!("health reply without seq: {resp}"))
}

/// Runs `rate_step`, bracketed by `stats` resets and journal reads when
/// `traced`.
fn measured_step(
    conns: &mut [Conn],
    rps: f64,
    seconds: f64,
    seed: u64,
    traced: bool,
    report: &mut Report,
) -> RateStep {
    let before = if traced {
        match stats_reset(&mut conns[0]).and_then(|_| journal_seq(&mut conns[0])) {
            Ok(seq) => Some(seq),
            Err(e) => {
                report.check(Err(e));
                None
            }
        }
    } else {
        None
    };
    let mut step = rate_step(conns, rps, seconds, seed);
    if let Some(before) = before {
        match stats_reset(&mut conns[0]) {
            Ok(stats) => step.server = Some(stats),
            Err(e) => report.check(Err(e)),
        }
        match journal_seq(&mut conns[0]) {
            Ok(after) => step.seq_delta = Some(after - before),
            Err(e) => report.check(Err(e)),
        }
    }
    step
}

/// The whole workload. `tracer` is `Some` for the traced run.
pub fn run(p: &ServeParams, mut tracer: Option<&mut Tracer>) -> Report {
    let mut report = Report::default();
    let conns_n = p.threads.max(1);
    let traced = tracer.is_some();
    let s = p.seconds;
    let mut setups = Vec::new();
    let mut steps: Vec<(&'static str, RateStep)> = Vec::new();
    let mut seed_k = 1;
    let mut next_seed = || {
        seed_k += 1;
        derive_seed(p.seed, seed_k)
    };
    // The calibration kernel only records the host's speed here: it
    // tracks the daemon's O(n) passes too loosely to scale by (see
    // README.md). Its bursts run while no daemon works: between boots and
    // between rate steps.
    let mut cal = Calibration::default();
    // The untraced run spreads the main rate over every boot, so its
    // samples pool over several daemon processes and stretches of time.
    let main_slice = (0.55 * s / BOOTS as f64).max(0.5);
    let mut booted = None;
    for boot in 0..BOOTS {
        cal.burst(CALIBRATION_REPS);
        let (mut daemon, mut conns, secs) = match setup(p, boot, conns_n) {
            Ok(b) => b,
            Err(e) => {
                report.check(Err(format!("boot {boot}: {e}")));
                return report;
            }
        };
        setups.push(secs);
        let first = steps.len();
        if !traced {
            let step =
                measured_step(&mut conns, MAIN_RPS, main_slice, next_seed(), false, &mut report);
            steps.push(("main", step));
        }
        if boot + 1 == BOOTS {
            booted = Some((daemon, conns, first));
        } else {
            report.check(check_interactions(&mut conns[0], &steps[first..]));
            drop(conns);
            daemon.stop();
        }
    }
    let (mut daemon, mut conns, first) = booted.expect("the last boot is kept");
    // The traced run first repeats the main rate untraced, for the
    // overhead ratio.
    let plan: Vec<(&'static str, f64, f64)> = if traced {
        vec![
            ("main-untraced", MAIN_RPS, 0.2 * s),
            ("low", LOW_RPS, 0.1 * s),
            ("main", MAIN_RPS, 0.4 * s),
        ]
    } else {
        vec![("low", LOW_RPS, 0.15 * s)]
    };
    let ladder = LADDER_RPS.iter().map(|&r| ("ladder", r, 0.3 * s / LADDER_RPS.len() as f64));
    for (label, rps, secs) in plan.into_iter().chain(ladder) {
        cal.burst(CALIBRATION_REPS);
        let bracket = traced && label != "main-untraced";
        let span = tracer.as_deref_mut().map(|t| t.enter("rate_step", None, steps.len() as u64));
        let step = measured_step(&mut conns, rps, secs.max(0.5), next_seed(), bracket, &mut report);
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.exit(span, step.samples.len() as u64);
            for smp in &step.samples {
                let end = smp.due + Duration::from_secs_f64(smp.latency_us.unwrap_or(0.0) * 1e-6);
                t.record_interval(smp.cmd.name(), Some(span), steps.len() as u64, smp.due, end, 1);
            }
        }
        steps.push((label, step));
    }

    // Every request must have succeeded; then each daemon's final
    // interaction count must equal warm-up plus its acknowledged steps.
    for (label, step) in &steps {
        report.attempted += step.samples.len() as u64;
        for e in &step.errors {
            report.failures.push(format!("{label} at {} rps: {e}", step.rps));
        }
        report.failed += step.failed();
    }
    report.check(check_interactions(&mut conns[0], &steps[first..]));
    cal.burst(CALIBRATION_REPS);
    let rss = daemon.peak_rss_mb().unwrap_or(0.0);
    drop(conns);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&p.state_dir);

    let acked: u64 = steps.iter().map(|(_, st)| st.performed()).sum();
    cal.record(&mut report);
    if let Some(t) = tracer {
        per_layer(&mut report, p, &steps, t);
    } else {
        let main = |cmd: Option<Cmd>| -> Vec<f64> {
            steps
                .iter()
                .filter(|(l, _)| *l == "main")
                .flat_map(|(_, st)| st.latencies(cmd))
                .collect()
        };
        let pooled = main(None);
        let steps_ok = main(Some(Cmd::Step));
        let k = pooled.len() as u64;
        report.metric("setup_s", median(&setups), "s", setups.len() as u64);
        // A writer's view of simulation speed: interactions per second of
        // the median `step` latency.
        report.metric(
            "ips",
            STEP_INTERACTIONS as f64 / (median(&steps_ok) * 1e-6).max(1e-12),
            "1/s",
            steps_ok.len() as u64,
        );
        report.metric("op_ms.p50", median(&pooled) / 1e3, "ms", k);
        report.metric("op_ms.p90", quantile(&pooled, 0.9) / 1e3, "ms", k);
        report.metric("peak_rss_mb", rss, "MB", 1);
        for cmd in Cmd::ALL {
            let lat = main(Some(cmd));
            // p50 and p99 by name, plus the highest percentile with ten
            // samples beyond it when that is neither.
            let top = supported_quantile(lat.len(), &[0.5, 0.9, 0.99]);
            let mut qs = vec![0.5, 0.99];
            if top == 0.9 {
                qs.insert(1, top);
            }
            for q in qs {
                let name = format!("{}_us.p{}", cmd.name(), (q * 100.0).round());
                report.metric(name, quantile(&lat, q), "us", lat.len() as u64);
            }
        }
        // The ladder stops counting at its first rung that misses the limit.
        let slo = steps
            .iter()
            .filter(|(l, _)| *l == "ladder")
            .take_while(|(_, st)| st.meets_limit())
            .map(|(_, st)| st.rps)
            .fold(0.0, f64::max);
        report.metric("slo_rps", slo, "1/s", steps.len() as u64);
    }
    let mut table = String::from("rate steps (rps, requests, pooled p50/p99 us, failed):");
    for (label, st) in &steps {
        let lat = st.latencies(None);
        table.push_str(&format!(
            " [{label} {} {} {:.0}/{:.0} {}]",
            st.rps,
            st.samples.len(),
            median(&lat),
            quantile(&lat, 0.99),
            st.failed()
        ));
    }
    report.notes.push(table);
    report.notes.push(format!(
        "n {} seed {} threads {} set-ups {:?} acknowledged step interactions {acked}",
        p.n, p.seed, p.threads, setups
    ));
    report
}

/// Spans the daemon attributes a request's time across.
pub(crate) const SPANS: [&str; 8] =
    ["queue", "parse", "registry_lock", "pop_lock", "engine", "journal", "fsync", "write"];

fn per_layer(
    report: &mut Report,
    p: &ServeParams,
    steps: &[(&'static str, RateStep)],
    tracer: &mut Tracer,
) {
    // The engine layers the daemon runs, timed in this process at the
    // daemon's n on a configuration from the same start family.
    let (protocol, initial, exec) = sim::oss_inputs(p.n, p.seed, 0);
    report.metric("scheduler.ns_per_draw", sim::probe_scheduler(tracer, p.n, exec), "ns", 1);
    report.metric(
        "protocol.ns_per_interact",
        sim::probe_interact(tracer, &protocol, initial.clone(), exec),
        "ns",
        1,
    );
    report.metric("tracker.rebuild_us", sim::probe_rebuild(tracer, &protocol, &initial), "us", 1);
    let main = &steps.iter().find(|(l, _)| *l == "main").expect("the main rate always runs").1;
    let untraced =
        &steps.iter().find(|(l, _)| *l == "main-untraced").expect("traced runs repeat main").1;
    let server = main.server.clone().unwrap_or_default();
    let rows: Vec<&str> = server.split("\"kind\":\"server_stats\"").skip(1).collect();
    let row_of = |cmd: &str| rows.iter().find(|r| json_str(r, "cmd") == Some(cmd)).copied();
    for cmd in Cmd::ALL {
        for span in SPANS {
            let v =
                row_of(cmd.name()).and_then(|r| json_num(r, &format!("{span}_us"))).unwrap_or(0.0);
            report.metric(format!("serve.{}.{span}_us", cmd.name()), v, "us", 1);
        }
    }
    let busy: f64 = steps
        .iter()
        .filter_map(|(_, st)| st.server.as_deref())
        .filter_map(|s| json_num(s, "busy"))
        .sum();
    report.metric("serve.busy", busy, "count", 1);
    let acked_steps = main.latencies(Some(Cmd::Step)).len() as f64;
    report.metric(
        "serve.fsyncs_per_step",
        main.seq_delta.unwrap_or(0.0) / acked_steps.max(1.0),
        "ratio",
        1,
    );
    report.metric("serve.steps", acked_steps, "count", 1);
    // The agent backend draws one pair per interaction.
    report.metric("scheduler.draws", main.performed() as f64, "count", 1);
    let lags: Vec<f64> = main.samples.iter().map(|s| s.lag_us).collect();
    report.metric("client.lag_us.p99", quantile(&lags, 0.99), "us", lags.len() as u64);
    let service: Vec<f64> = main
        .samples
        .iter()
        .filter(|s| s.cmd == Cmd::Status && s.latency_us.is_some())
        .map(|s| s.service_us)
        .collect();
    let server_status = row_of("status").and_then(|r| json_num(r, "mean_us")).unwrap_or(0.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.metric(
        "client.transport_us.mean",
        mean(&service) - server_status,
        "us",
        service.len() as u64,
    );
    report.metric(
        "trace.overhead",
        mean(&untraced.latencies(None)) / mean(&main.latencies(None)).max(1e-9),
        "ratio",
        1,
    );
    report.metric("trace.spans", tracer.spans().len() as f64, "count", 1);
}
