//! The two simulation workloads: Optimal-Silent-SSR to a stable ranking on
//! the agent array (`rank-agents`) and on the counts backend
//! (`rank-counts`). The traced run of `rank-counts` also probes the counts
//! backend's batch path with a one-way epidemic, which the ranked trials
//! never take.
//!
//! Every trial's inputs derive from the workload seed and the trial index
//! alone, so a run that gets through more trials in its time budget still
//! executes the same first trials as a slower run with the same seed.

use std::hint::black_box;
use std::time::Instant;

use population::counts::{BatchSimulation, CountConfig};
use population::epidemic::{Infection, OneWayEpidemic};
use population::runner::{derive_seed, rng_from_seed};
use population::{
    InteractionGraph, Metrics, MetricsSink, NoopMetrics, Protocol, RankTracker, RankingProtocol,
    RunOutcome, Scheduler, Section, Simulation,
};
use ssle::adversary;
use ssle::optimal_silent::{OptimalSilentSsr, OssState};

use crate::host::Calibration;
use crate::report::Report;
use crate::stats::{digest, median, peak_rss_mb, quantile, secs_since};
use crate::trace::Tracer;

/// Population size of both ranked workloads. Small enough that the counts
/// backend, whose exact draws cost O(support) ≈ O(n) each, finishes dozens
/// of trials per run; the same n on both backends makes their `ips`
/// directly comparable.
pub const RANK_N: usize = 400;

/// Population size of the batch-path probe.
const EPIDEMIC_N: usize = 1_000_000;

/// Trials every run completes whatever its time budget: the simulated
/// statistics digest covers exactly these, so it is comparable across runs
/// and builds.
pub(crate) const DIGEST_TRIALS: u64 = 4;

/// Kernel repetitions per calibration burst.
const CALIBRATION_REPS: usize = 2;

/// Seconds of trials between calibration bursts.
const CALIBRATE_EVERY_S: f64 = 0.1;

/// Pairs drawn per block in the layer replay.
const REPLAY_BLOCK: usize = 4096;

/// Which simulation workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Optimal-Silent-SSR on the agent array.
    RankAgents,
    /// Optimal-Silent-SSR on the counts backend.
    RankCounts,
}

impl SimWorkload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::RankAgents => "rank-agents",
            SimWorkload::RankCounts => "rank-counts",
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// The workload.
    pub workload: SimWorkload,
    /// Population size.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
}

/// Interaction cap per ranked trial: Θ(n) parallel time is Θ(n²)
/// interactions; 400 n² leaves room for repeated resets.
fn rank_cap(n: usize) -> u64 {
    400 * (n as u64).pow(2)
}

/// Confirmation window of the ranked loop (4n interactions).
fn rank_window(n: usize) -> u64 {
    4 * n as u64
}

/// Interaction cap of the epidemic: full infection takes about 2 n ln n.
fn epidemic_cap(n: usize) -> u64 {
    8 * n as u64 * ((n as f64).ln().ceil() as u64).max(1)
}

/// The generated inputs of ranked trial `t`: an adversarial random
/// configuration and the execution seed.
pub(crate) fn oss_inputs(n: usize, seed: u64, t: u64) -> (OptimalSilentSsr, Vec<OssState>, u64) {
    let trial_seed = derive_seed(seed, t);
    let protocol = OptimalSilentSsr::new(n);
    let initial = adversary::random_oss_configuration(
        &protocol,
        &mut rng_from_seed(derive_seed(trial_seed, 0)),
    );
    (protocol, initial, derive_seed(trial_seed, 1))
}

fn epidemic_start(n: usize) -> CountConfig<Infection> {
    let mut config = CountConfig::new();
    config.add(Infection::Infected, 1);
    config.add(Infection::Susceptible, n as u64 - 1);
    config
}

/// Fails unless `outcome` converged.
pub(crate) fn check_converged(outcome: &RunOutcome, cap: u64) -> Result<(), String> {
    if outcome.is_converged() {
        Ok(())
    } else {
        Err(format!("did not converge within {cap} interactions"))
    }
}

/// Independent scan of an agent array: exactly one leader and every rank
/// `1..=n` output by exactly one agent.
pub(crate) fn check_ranked_states<P: RankingProtocol>(
    p: &P,
    states: &[P::State],
) -> Result<(), String> {
    check_rank_histogram(p, states.iter().map(|s| (s, 1)))
}

/// Independent scan of a counts configuration, with the same conditions as
/// [`check_ranked_states`].
pub(crate) fn check_ranked_counts<P: RankingProtocol>(
    p: &P,
    counts: &CountConfig<P::State>,
) -> Result<(), String>
where
    P::State: Clone + std::fmt::Debug + Eq + std::hash::Hash,
{
    check_rank_histogram(p, counts.iter())
}

fn check_rank_histogram<'a, P: RankingProtocol>(
    p: &P,
    entries: impl Iterator<Item = (&'a P::State, u64)>,
) -> Result<(), String>
where
    P::State: 'a,
{
    let n = p.population_size();
    let mut seen = vec![0u64; n];
    let (mut agents, mut leaders) = (0u64, 0u64);
    for (state, k) in entries {
        agents += k;
        if p.is_leader(state) {
            leaders += k;
        }
        match p.rank_of(state) {
            Some(r) if (1..=n).contains(&r) => seen[r - 1] += k,
            Some(r) => return Err(format!("rank {r} outside 1..={n}")),
            None => return Err("an agent outputs no rank".to_string()),
        }
    }
    if agents != n as u64 {
        return Err(format!("{agents} agents, expected {n}"));
    }
    if leaders != 1 {
        return Err(format!("{leaders} leaders, expected exactly 1"));
    }
    if let Some(r) = seen.iter().position(|&c| c != 1) {
        return Err(format!("rank {} output by {} agents", r + 1, seen[r]));
    }
    Ok(())
}

/// The epidemic's final configuration: nobody susceptible, n conserved.
pub(crate) fn check_epidemic(counts: &CountConfig<Infection>, n: usize) -> Result<(), String> {
    let susceptible = counts.count_of(&Infection::Susceptible);
    let infected = counts.count_of(&Infection::Infected);
    if susceptible != 0 {
        return Err(format!("{susceptible} agents still susceptible"));
    }
    if infected != n as u64 || counts.population() != n as u64 {
        return Err(format!("{infected} infected of {} agents, expected {n}", counts.population()));
    }
    Ok(())
}

/// One finished trial and the instants that bound its phases.
struct Trial {
    start: Instant,
    built: Instant,
    ran: Instant,
    checked: Instant,
    interactions: u64,
    check: Result<(), String>,
}

impl Trial {
    /// Input generation plus backend construction.
    fn setup_s(&self) -> f64 {
        (self.built - self.start).as_secs_f64()
    }

    /// The engine's run to convergence.
    fn run_s(&self) -> f64 {
        (self.ran - self.built).as_secs_f64()
    }
}

/// Runs trial `t` with `sink` attached to the engine. The untraced runs
/// pass `NoopMetrics`, the engine's own default, which compiles every
/// metrics hook away.
fn run_trial<M: MetricsSink>(p: &SimParams, t: u64, sink: M) -> Trial {
    let n = p.n;
    let start = Instant::now();
    let (built, ran, interactions, check) = match p.workload {
        SimWorkload::RankAgents => {
            let (protocol, initial, exec) = oss_inputs(n, p.seed, t);
            let mut sim = Simulation::new(protocol, initial, exec).with_metrics(sink);
            let built = Instant::now();
            let out = sim.run_until_stably_ranked(rank_cap(n), rank_window(n));
            let ran = Instant::now();
            let check = check_converged(&out, rank_cap(n))
                .and_then(|()| check_ranked_states(sim.protocol(), sim.states()));
            (built, ran, out.interactions(), check)
        }
        SimWorkload::RankCounts => {
            let (protocol, initial, exec) = oss_inputs(n, p.seed, t);
            let mut sim = BatchSimulation::new(protocol, initial, exec).with_metrics(sink);
            let built = Instant::now();
            let out = sim.run_until_stably_ranked(rank_cap(n), rank_window(n));
            let ran = Instant::now();
            let check = check_converged(&out, rank_cap(n))
                .and_then(|()| check_ranked_counts(sim.protocol(), sim.counts()));
            (built, ran, out.interactions(), check)
        }
    };
    Trial { start, built, ran, checked: Instant::now(), interactions, check }
}

/// Runs uninstrumented trials until `seconds` have passed (and at least
/// `min` trials), with a calibration burst before the first trial and
/// after any trial that ends [`CALIBRATE_EVERY_S`] or more after the last
/// burst.
fn run_trials(p: &SimParams, seconds: f64, min: u64, cal: &mut Calibration) -> Vec<Trial> {
    let started = Instant::now();
    let mut trials = Vec::new();
    cal.burst(CALIBRATION_REPS);
    let mut calibrated = Instant::now();
    while (trials.len() as u64) < min || secs_since(started) < seconds {
        trials.push(run_trial(p, trials.len() as u64, NoopMetrics));
        if secs_since(calibrated) >= CALIBRATE_EVERY_S {
            cal.burst(CALIBRATION_REPS);
            calibrated = Instant::now();
        }
    }
    trials
}

/// Median over trials of each trial's interactions per host second. On the
/// counts backend a trial's rate depends on how long it spends at high
/// support, and a pooled rate would be dominated by the few longest trials.
fn throughput(trials: &[Trial]) -> f64 {
    median(&trials.iter().map(trial_ips).collect::<Vec<f64>>())
}

/// A trial's simulated interactions per host second.
fn trial_ips(t: &Trial) -> f64 {
    t.interactions as f64 / t.run_s().max(1e-12)
}

/// Records the trials' checks and simulated statistics in `report`.
fn record_checks(p: &SimParams, report: &mut Report, trials: &[Trial]) {
    for (t, trial) in trials.iter().enumerate() {
        report.check(
            trial.check.clone().map_err(|e| format!("{} trial {t}: {e}", p.workload.name())),
        );
    }
    report.trial_log.extend(trials.iter().enumerate().map(|(t, trial)| {
        format!(
            "trial {t} interactions {} setup_s {} run_s {} ok {}",
            trial.interactions,
            trial.setup_s(),
            trial.run_s(),
            trial.check.is_ok()
        )
    }));
    let first: Vec<u64> =
        trials.iter().take(DIGEST_TRIALS as usize).map(|t| t.interactions).collect();
    let interactions: Vec<f64> = trials.iter().map(|t| t.interactions as f64).collect();
    report.notes.push(format!(
        "n {} seed {} trials {} sim.interactions.p50 {} sim.interactions.first{DIGEST_TRIALS} {:?} sim.digest {:016x}",
        p.n,
        p.seed,
        trials.len(),
        median(&interactions),
        first,
        digest(first.iter().copied())
    ));
}

/// The untraced run: every end-to-end metric.
pub fn run(p: &SimParams) -> Report {
    let mut report = Report::default();
    let mut cal = Calibration::default();
    let trials = run_trials(p, p.seconds, DIGEST_TRIALS, &mut cal);
    record_checks(p, &mut report, &trials);
    let k = trials.len() as u64;
    // Each trial at reference host speed, by the kernel's time around it;
    // rates scale the other way.
    let slow: Vec<f64> = trials.iter().map(|t| cal.near(t.start, t.checked)).collect();
    let at_ref = |f: fn(&Trial) -> f64, rate: bool| -> Vec<f64> {
        trials.iter().zip(&slow).map(|(t, s)| if rate { f(t) * s } else { f(t) / s }).collect()
    };
    let measured = |f: fn(&Trial) -> f64| -> Vec<f64> { trials.iter().map(f).collect() };
    let op_ms = |t: &Trial| t.run_s() * 1e3;
    let (ref_ms, raw_ms) = (at_ref(op_ms, false), measured(op_ms));
    report.metric("setup_s", median(&at_ref(Trial::setup_s, false)), "s", k);
    report.metric("setup_s.raw", median(&measured(Trial::setup_s)), "s", k);
    report.metric("ips", median(&at_ref(trial_ips, true)), "1/s", k);
    report.metric("ips.raw", median(&measured(trial_ips)), "1/s", k);
    report.metric("op_ms.p50", median(&ref_ms), "ms", k);
    report.metric("op_ms.p50.raw", median(&raw_ms), "ms", k);
    report.metric("op_ms.p90", quantile(&ref_ms, 0.9), "ms", k);
    report.metric("op_ms.p90.raw", quantile(&raw_ms, 0.9), "ms", k);
    report.metric("peak_rss_mb", peak_rss_mb(std::process::id()).unwrap_or(0.0), "MB", 1);
    report.metric("stabilize_s.p50", median(&ref_ms) / 1e3, "s", k);
    cal.record(&mut report);
    report
}

/// Per-layer totals gathered by the traced phases.
#[derive(Default)]
struct Layers {
    metrics: Metrics,
    support_max: u64,
    metric_trials: u64,
    metric_ips: f64,
    replay_ips: f64,
    replay_mismatches: u64,
    replay_trials: u64,
    replay_draws: u64,
    step_exact_us: f64,
    sched_ns: f64,
    interact_ns: f64,
    tracker_update_ns: f64,
    tracker_rebuild_us: f64,
    batch_ips: f64,
    batch_metrics: Metrics,
    batch_check: Option<Result<(), String>>,
}

/// The traced run: an untraced reference phase, a phase with the engine's
/// `Metrics` sink attached and spans around each trial's set-up, run and
/// check, and a phase that times each layer's public calls directly.
/// Reports every per-layer metric (0 where the workload bypasses the
/// layer); the spans stay in `tracer`.
pub fn run_traced(p: &SimParams, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let phase = p.seconds / 3.0;
    let mut cal = Calibration::default();
    let reference = run_trials(p, phase, 2, &mut cal);
    cal.record(&mut report);
    record_checks(p, &mut report, &reference);
    let base_ips = throughput(&reference);

    let mut layers = Layers::default();
    metrics_phase(p, phase, tracer, &mut layers, &mut report);
    probe_phase(p, phase, &reference, tracer, &mut layers);

    let own = tracer.self_seconds();
    let trials = layers.metric_trials.max(1) as f64;
    let m = std::mem::take(&mut layers.metrics);
    let per_trial = |name: &str| own.get(name).map_or(0.0, |s| s / trials);
    let agents = p.workload == SimWorkload::RankAgents;
    let counts = !agents;
    let z = |on: bool, v: f64| if on { v } else { 0.0 };

    report.metric("scheduler.ns_per_draw", layers.sched_ns, "ns", 1);
    report.metric("scheduler.draws", z(agents, m.total_interactions() as f64 / trials), "count", 1);
    report.metric("protocol.ns_per_interact", layers.interact_ns, "ns", 1);
    report.metric("tracker.update_ns", z(agents, layers.tracker_update_ns), "ns", 1);
    report.metric("tracker.rebuild_us", layers.tracker_rebuild_us, "us", 1);
    report.metric("simulation.sample_s", m.section_seconds(Section::Sample) / trials, "s", 1);
    report.metric(
        "simulation.transition_s",
        m.section_seconds(Section::Transition) / trials,
        "s",
        1,
    );
    report.metric("simulation.probe_s", m.section_seconds(Section::Probe) / trials, "s", 1);
    report.metric("simulation.unattributed_s", per_trial("run"), "s", 1);
    report.metric("counts.step_exact_us", z(counts, layers.step_exact_us), "us", 1);
    report.metric("counts.fallback_rate", z(counts, m.fallback_rate()), "ratio", 1);
    report.metric("counts.exact_steps", z(counts, m.exact_steps.get() as f64 / trials), "count", 1);
    report.metric("counts.support.max", z(counts, layers.support_max as f64), "count", 1);
    report.metric("counts.memo_hit_rate", z(counts, m.memo_hit_rate()), "ratio", 1);
    report.metric("counts.compactions", z(counts, m.compactions.get() as f64 / trials), "count", 1);
    let b = &layers.batch_metrics;
    report.metric("batch.ips", layers.batch_ips, "1/s", 1);
    report.metric("batch.batches", b.batches.get() as f64, "count", 1);
    report.metric("batch.batched_pairs", b.batched_pairs.get() as f64, "count", 1);
    report.metric("batch.memo_hit_rate", b.memo_hit_rate(), "ratio", 1);
    report.metric("batch.compactions", b.compactions.get() as f64, "count", 1);
    if let Some(check) = layers.batch_check.take() {
        report.check(check.map_err(|e| format!("batch-path probe: {e}")));
    }
    report.metric("self.setup_s", per_trial("setup"), "s", 1);
    report.metric("self.check_s", per_trial("check"), "s", 1);
    report.metric("trace.overhead", layers.metric_ips / base_ips, "ratio", 1);
    report.metric("trace.replay_overhead", z(agents, layers.replay_ips / base_ips), "ratio", 1);
    report.metric("trace.replay_mismatches", layers.replay_mismatches as f64, "count", 1);
    report.metric("trace.spans", tracer.spans().len() as f64, "count", 1);
    report.notes.push(format!(
        "traced: reference {} trials at {base_ips:.4e} ips; metrics phase {} trials at {:.4e} ips; replay {} trials, {} draws",
        reference.len(),
        layers.metric_trials,
        layers.metric_ips,
        layers.replay_trials,
        layers.replay_draws
    ));
    report
}

/// Phase B: trials with the `Metrics` sink attached, inside spans.
fn metrics_phase(
    p: &SimParams,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) {
    let n = p.n as u64;
    let started = Instant::now();
    let mut trials = Vec::new();
    while trials.len() < 2 || secs_since(started) < seconds {
        let t = trials.len() as u64;
        let mut m = Metrics::new();
        let trial = run_trial(p, t, &mut m);
        let root = tracer.record_interval("trial", None, t, trial.start, trial.checked, 1);
        tracer.record_interval("setup", Some(root), t, trial.start, trial.built, n);
        let run = tracer.record_interval(
            "run",
            Some(root),
            t,
            trial.built,
            trial.ran,
            trial.interactions,
        );
        tracer.record_interval("check", Some(root), t, trial.ran, trial.checked, n);
        for (section, name) in [
            (Section::Sample, "simulation.sample"),
            (Section::Transition, "simulation.transition"),
            (Section::Probe, "simulation.probe"),
        ] {
            tracer.record(name, run, m.section_nanos[section.index()], 0);
        }
        report.check(trial.check.clone().map_err(|e| format!("traced trial {t}: {e}")));
        layers.support_max = layers.support_max.max(m.support);
        layers.metrics.merge_from(&m);
        trials.push(trial);
    }
    layers.metric_trials = trials.len() as u64;
    layers.metric_ips = throughput(&trials);
}

/// Phase C: direct timing of each layer's public calls.
fn probe_phase(
    p: &SimParams,
    seconds: f64,
    reference: &[Trial],
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let n = p.n;
    match p.workload {
        SimWorkload::RankAgents => {
            let started = Instant::now();
            let (mut sched_s, mut interact_s, mut tracker_s, mut replay_s) = (0.0, 0.0, 0.0, 0.0);
            let (mut draws, mut interactions) = (0u64, 0u64);
            let mut t = 0u64;
            while t < 1 || secs_since(started) < seconds {
                let r = replay_agents(tracer, n, p.seed, t);
                if let Some(reference) = reference.get(t as usize) {
                    if r.converged_at != Some(reference.interactions) {
                        layers.replay_mismatches += 1;
                    }
                }
                sched_s += r.sample_s;
                interact_s += r.interact_s;
                tracker_s += r.update_s;
                replay_s += r.total_s;
                draws += r.draws;
                interactions += r.converged_at.unwrap_or(r.draws);
                layers.tracker_rebuild_us += r.rebuild_s * 1e6;
                t += 1;
            }
            let d = draws.max(1) as f64;
            layers.sched_ns = sched_s * 1e9 / d;
            layers.interact_ns = interact_s * 1e9 / d;
            layers.tracker_update_ns = tracker_s * 1e9 / d;
            layers.tracker_rebuild_us /= t as f64;
            layers.replay_ips = interactions as f64 / replay_s.max(1e-12);
            layers.replay_trials = t;
            layers.replay_draws = draws;
        }
        SimWorkload::RankCounts => {
            let (protocol, initial, exec) = oss_inputs(n, p.seed, 0);
            layers.sched_ns = probe_scheduler(tracer, n, exec);
            layers.interact_ns = probe_interact(tracer, &protocol, initial.clone(), exec);
            layers.tracker_rebuild_us = probe_rebuild(tracer, &protocol, &initial);
            let mut sim = BatchSimulation::new(protocol, initial, exec);
            sim.run_until_stably_ranked(rank_cap(n), rank_window(n));
            layers.step_exact_us = probe_step_exact(tracer, &mut sim);
            probe_batch_path(tracer, derive_seed(exec, 1), layers);
        }
    }
}

/// The counts backend's batch path, which ranked trials never take (every
/// interaction is an exact step): a one-way epidemic from one infected
/// agent to full infection at [`EPIDEMIC_N`], where support stays at 2 and
/// hypergeometric batches and the transition memo do all the work.
fn probe_batch_path(tracer: &mut Tracer, seed: u64, layers: &mut Layers) {
    let n = EPIDEMIC_N;
    let cap = epidemic_cap(n);
    let mut m = Metrics::new();
    let span = tracer.enter("batch.epidemic", None, 0);
    let t0 = Instant::now();
    let mut sim =
        BatchSimulation::from_counts(OneWayEpidemic, epidemic_start(n), seed).with_metrics(&mut m);
    let out = sim.run_until(cap, |c| c.count_of(&Infection::Susceptible) == 0);
    let s = secs_since(t0);
    let check = check_converged(&out, cap).and_then(|()| check_epidemic(sim.counts(), n));
    drop(sim);
    tracer.exit(span, out.interactions());
    layers.batch_ips = out.interactions() as f64 / s.max(1e-12);
    layers.batch_metrics = m;
    layers.batch_check = Some(check);
}

/// Draws to time per probe.
const PROBE_CALLS: usize = 1 << 20;

/// Mean nanoseconds per `Scheduler::sample_pair` at population `n`.
pub(crate) fn probe_scheduler(tracer: &mut Tracer, n: usize, seed: u64) -> f64 {
    let sched = Scheduler::new(n, InteractionGraph::Complete);
    let mut rng = rng_from_seed(seed);
    let span = tracer.enter("probe.scheduler", None, 0);
    let t0 = Instant::now();
    let mut acc = 0usize;
    for _ in 0..PROBE_CALLS {
        let (i, j) = sched.sample_pair(&mut rng);
        acc = acc.wrapping_add(i ^ j);
    }
    black_box(acc);
    let s = secs_since(t0);
    tracer.exit(span, PROBE_CALLS as u64);
    s * 1e9 / PROBE_CALLS as f64
}

/// Mean nanoseconds per `Protocol::interact` over pre-drawn uniform pairs
/// starting from `states`.
pub(crate) fn probe_interact<P: Protocol>(
    tracer: &mut Tracer,
    p: &P,
    mut states: Vec<P::State>,
    seed: u64,
) -> f64 {
    let n = states.len();
    let sched = Scheduler::new(n, InteractionGraph::Complete);
    let mut rng = rng_from_seed(seed);
    let calls = PROBE_CALLS / 4;
    let pairs: Vec<(usize, usize)> = (0..calls).map(|_| sched.sample_pair(&mut rng)).collect();
    let span = tracer.enter("probe.protocol", None, 0);
    let t0 = Instant::now();
    for &(i, j) in &pairs {
        let (a, b) = pair_mut(&mut states, i, j);
        p.interact(a, b, &mut rng);
    }
    let s = secs_since(t0);
    tracer.exit(span, calls as u64);
    black_box(&states);
    s * 1e9 / calls as f64
}

/// Microseconds for `RankTracker::new` plus one `add` per agent.
pub(crate) fn probe_rebuild<P: RankingProtocol>(
    tracer: &mut Tracer,
    p: &P,
    states: &[P::State],
) -> f64 {
    let span = tracer.enter("tracker.rebuild", None, 0);
    let t0 = Instant::now();
    let mut tracker = RankTracker::new(p.population_size());
    for s in states {
        tracker.add(p.rank_of(s));
    }
    black_box(tracker.is_correct());
    let s = secs_since(t0);
    tracer.exit(span, states.len() as u64);
    s * 1e6
}

/// Mean microseconds per `BatchSimulation::step_exact` at the simulation's
/// current (final) configuration, over about 0.2 s of calls.
fn probe_step_exact<P: Protocol>(tracer: &mut Tracer, sim: &mut BatchSimulation<P>) -> f64
where
    P::State: Clone + std::fmt::Debug + Eq + std::hash::Hash,
{
    let span = tracer.enter("counts.step_exact", None, 0);
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < 64 || secs_since(t0) < 0.2 {
        for _ in 0..64 {
            sim.step_exact();
        }
        calls += 64;
    }
    let s = secs_since(t0);
    tracer.exit(span, calls);
    s * 1e6 / calls as f64
}

fn pair_mut<T>(xs: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert!(i != j, "an agent cannot interact with itself");
    if i < j {
        let (lo, hi) = xs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// One layer-timed replay of a ranked agent trial.
struct Replay {
    converged_at: Option<u64>,
    draws: u64,
    rebuild_s: f64,
    sample_s: f64,
    interact_s: f64,
    update_s: f64,
    total_s: f64,
}

/// Replays ranked trial `t` on the agent array from outside the engine,
/// in blocks: draw a block of pairs with `Scheduler::sample_pair`, apply
/// them with `Protocol::interact`, then feed the rank changes to
/// `RankTracker::update`. The protocol draws no randomness and the uniform
/// scheduler's draws do not depend on the configuration, so this is the
/// same execution `Simulation::run_until_stably_ranked` performs; the
/// convergence point must match the untraced run's.
fn replay_agents(tracer: &mut Tracer, n: usize, seed: u64, t: u64) -> Replay {
    let t_all = Instant::now();
    let root = tracer.enter("replay", None, t);
    let (p, mut states, exec) = oss_inputs(n, seed, t);
    let sched = Scheduler::new(n, InteractionGraph::Complete);
    let mut rng = rng_from_seed(exec);
    let (cap, window) = (rank_cap(n), rank_window(n));

    let t0 = Instant::now();
    let rb = tracer.enter("tracker.rebuild", Some(root), t);
    let mut tracker = RankTracker::new(n);
    for s in &states {
        tracker.add(p.rank_of(s));
    }
    tracer.exit(rb, n as u64);
    let rebuild_s = secs_since(t0);

    let mut pairs = vec![(0usize, 0usize); REPLAY_BLOCK];
    type Ranks = (Option<usize>, Option<usize>, Option<usize>, Option<usize>);
    let mut ranks: Vec<Ranks> = vec![(None, None, None, None); REPLAY_BLOCK];
    let (mut sample_s, mut interact_s, mut update_s) = (0.0, 0.0, 0.0);
    let mut interactions = 0u64;
    let mut converged_at: Option<u64> = None;
    let mut draws = 0u64;
    // The ranked loop's test at the top of each iteration.
    let settle = |tracker: &RankTracker, at: u64, converged_at: &mut Option<u64>| -> Option<u64> {
        match *converged_at {
            Some(t0) if at - t0 >= window => Some(t0),
            Some(_) => None,
            None if tracker.is_correct() => {
                *converged_at = Some(at);
                (window == 0).then_some(at)
            }
            None => None,
        }
    };
    let mut result = settle(&tracker, 0, &mut converged_at);
    while result.is_none() && interactions < cap {
        let k = REPLAY_BLOCK.min((cap - interactions) as usize);
        let t1 = Instant::now();
        let s = tracer.enter("scheduler.sample_pair", Some(root), t);
        for slot in &mut pairs[..k] {
            *slot = sched.sample_pair(&mut rng);
        }
        tracer.exit(s, k as u64);
        let t2 = Instant::now();
        let s = tracer.enter("protocol.interact", Some(root), t);
        for (&(i, j), r) in pairs[..k].iter().zip(&mut ranks[..k]) {
            let (bi, bj) = (p.rank_of(&states[i]), p.rank_of(&states[j]));
            let (a, b) = pair_mut(&mut states, i, j);
            p.interact(a, b, &mut rng);
            *r = (bi, bj, p.rank_of(a), p.rank_of(b));
        }
        tracer.exit(s, k as u64);
        let t3 = Instant::now();
        let s = tracer.enter("tracker.update", Some(root), t);
        let mut used = 0;
        for &(bi, bj, ai, aj) in &ranks[..k] {
            tracker.update(bi, ai);
            tracker.update(bj, aj);
            interactions += 1;
            used += 1;
            if converged_at.is_some() && !tracker.is_correct() {
                converged_at = None;
            }
            result = settle(&tracker, interactions, &mut converged_at);
            if result.is_some() {
                break;
            }
        }
        tracer.exit(s, used);
        let t4 = Instant::now();
        draws += k as u64;
        sample_s += (t2 - t1).as_secs_f64();
        interact_s += (t3 - t2).as_secs_f64();
        update_s += (t4 - t3).as_secs_f64();
    }
    tracer.exit(root, interactions);
    Replay {
        converged_at: result,
        draws,
        rebuild_s,
        sample_s,
        interact_s,
        update_s,
        total_s: secs_since(t_all),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replay_reproduces_the_engines_execution() {
        let p = SimParams { workload: SimWorkload::RankAgents, n: 40, seed: 3, seconds: 0.0 };
        for t in 0..3 {
            let engine = run_trial(&p, t, NoopMetrics);
            assert!(engine.check.is_ok(), "{:?}", engine.check);
            let r = replay_agents(&mut Tracer::new("test"), p.n, p.seed, t);
            assert_eq!(r.converged_at, Some(engine.interactions), "trial {t}");
        }
    }

    #[test]
    fn two_leaders_fail_the_ranking_check() {
        let p = OptimalSilentSsr::new(8);
        let mut states = adversary::ranked_oss_configuration(&p);
        assert_eq!(check_ranked_states(&p, &states), Ok(()));
        states[3] = states[0];
        let err = check_ranked_states(&p, &states).expect_err("two rank-1 agents must fail");
        assert!(err.contains("2 leaders"), "{err}");
        let counts = CountConfig::from_states(&states);
        assert!(check_ranked_counts(&p, &counts).is_err());
    }

    #[test]
    fn a_surviving_susceptible_fails_the_epidemic_check() {
        let mut c = CountConfig::new();
        c.add(Infection::Infected, 9);
        assert_eq!(check_epidemic(&c, 9), Ok(()));
        c.add(Infection::Susceptible, 1);
        assert!(check_epidemic(&c, 10).is_err());
        assert!(check_epidemic(&c, 9).is_err());
    }
}
