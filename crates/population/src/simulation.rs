//! Executions of a protocol under the random scheduler.

use std::time::Instant;

use rand::rngs::SmallRng;

use crate::fault::{FaultSchedule, NoFaults};
use crate::graph::InteractionGraph;
use crate::metrics::{MetricsSink, NoopMetrics, Section, AGENT_FLUSH_EVERY};
use crate::observer::{NoopObserver, Observer};
use crate::protocol::{Protocol, RankingProtocol};
use crate::runner::rng_from_seed;
use crate::scheduler::{Reliability, Scheduler, SchedulerPolicy};
use crate::timeline::{snapshot_states, TimelineCheckpoint, TimelineObserver};
use crate::tracker::RankTracker;

/// The result of running a simulation toward a goal with a bounded budget of
/// interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The goal was reached after this many interactions (counted from the
    /// start of the execution, not from the start of the call).
    Converged {
        /// Total interactions at the moment of convergence.
        interactions: u64,
    },
    /// The interaction budget was exhausted before the goal was reached.
    Exhausted {
        /// Total interactions performed.
        interactions: u64,
    },
}

impl RunOutcome {
    /// Whether the goal was reached.
    pub fn is_converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// Total interactions at convergence/exhaustion.
    pub fn interactions(&self) -> u64 {
        match *self {
            RunOutcome::Converged { interactions } | RunOutcome::Exhausted { interactions } => {
                interactions
            }
        }
    }

    /// Interactions divided by `n`: the paper's parallel time.
    pub fn parallel_time(&self, n: usize) -> f64 {
        self.interactions() as f64 / n as f64
    }
}

/// An execution in progress: a protocol, a configuration (one state per
/// agent), a scheduler, and a seeded RNG.
///
/// The RNG drives both the scheduler's pair choices and the protocol's
/// randomized transitions, so a `(protocol, initial configuration, seed)`
/// triple fully determines the execution — trials are reproducible.
///
/// The second type parameter is an [`Observer`] receiving execution events;
/// it defaults to [`NoopObserver`], so `Simulation<P>` is the uninstrumented
/// simulation. Observers never touch the RNG, so attaching one cannot change
/// the execution (see [`Simulation::observe`]).
///
/// The third type parameter is a [`FaultSchedule`] injecting mid-run faults
/// (see [`crate::fault`]); it defaults to [`NoFaults`], whose
/// `ACTIVE = false` gate folds every injection point out of the hot loop, so
/// a simulation without a fault plan compiles to the same code as before the
/// chaos harness existed. Fault schedules draw from their **own** RNG, so a
/// given `(protocol, plan, seed)` triple replays bit-identically.
///
/// The fourth type parameter is the [`SchedulerPolicy`] choosing interaction
/// pairs; it defaults to the paper's uniform [`Scheduler`], so existing code
/// monomorphizes to exactly the pre-policy hot loop. Non-uniform and
/// adversarial policies ([`crate::scheduler::Zipf`],
/// [`crate::scheduler::EpochStarvation`], …) plug in via
/// [`Simulation::with_policy`]; unreliable interactions via
/// [`Simulation::with_reliability`].
///
/// The fifth type parameter is a [`MetricsSink`] receiving **engine**
/// telemetry (interaction counts, RNG draws, per-section wall time); it
/// defaults to [`NoopMetrics`], whose `ENABLED = false` gate folds every
/// instrumentation site out of the hot loop. Sinks flush at batch
/// boundaries ([`AGENT_FLUSH_EVERY`] interactions on this backend) and
/// never touch the RNG, so attaching one cannot change the execution (see
/// [`Simulation::with_metrics`]).
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Simulation<
    P: Protocol,
    O: Observer<P> = NoopObserver,
    F: FaultSchedule<P> = NoFaults,
    S: SchedulerPolicy = Scheduler,
    M: MetricsSink = NoopMetrics,
> {
    pub(crate) protocol: P,
    pub(crate) scheduler: S,
    pub(crate) states: Vec<P::State>,
    pub(crate) rng: SmallRng,
    pub(crate) interactions: u64,
    pub(crate) observer: O,
    pub(crate) faults: F,
    pub(crate) reliability: Reliability,
    pub(crate) metrics: M,
}

impl<P: Protocol> Simulation<P> {
    /// Creates an execution on the complete interaction graph (the paper's
    /// setting) from an explicit initial configuration.
    ///
    /// In the self-stabilizing model the initial configuration is chosen by
    /// an adversary, so it is always supplied explicitly.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn new(protocol: P, initial: Vec<P::State>, seed: u64) -> Self {
        Self::with_graph(protocol, initial, InteractionGraph::Complete, seed)
    }

    /// Rebuilds an execution at an exact checkpoint: agent states,
    /// interaction count, and RNG stream position — the snapshot/restore
    /// constructor (see [`crate::snapshot`]). The interaction graph is the
    /// complete graph and plug-ins are reset to the zero-cost defaults;
    /// continuing the restored execution is bit-identical to continuing
    /// the original.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn from_checkpoint(
        protocol: P,
        states: Vec<P::State>,
        interactions: u64,
        rng: SmallRng,
    ) -> Self {
        let scheduler = Scheduler::new(states.len(), InteractionGraph::Complete);
        Simulation {
            protocol,
            scheduler,
            states,
            rng,
            interactions,
            observer: NoopObserver,
            faults: NoFaults,
            reliability: Reliability::perfect(),
            metrics: NoopMetrics,
        }
    }

    /// Creates an execution on an arbitrary interaction graph.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied, or if the graph was
    /// validated for a different population size.
    pub fn with_graph(
        protocol: P,
        initial: Vec<P::State>,
        graph: InteractionGraph,
        seed: u64,
    ) -> Self {
        let scheduler = Scheduler::new(initial.len(), graph);
        Simulation {
            protocol,
            scheduler,
            states: initial,
            rng: rng_from_seed(seed),
            interactions: 0,
            observer: NoopObserver,
            faults: NoFaults,
            reliability: Reliability::perfect(),
            metrics: NoopMetrics,
        }
    }
}

impl<P: Protocol, S: SchedulerPolicy> Simulation<P, NoopObserver, NoFaults, S> {
    /// Creates an execution driven by an explicit [`SchedulerPolicy`] — the
    /// entry point for the non-uniform/adversarial schedulers of
    /// [`crate::scheduler`].
    ///
    /// # Panics
    ///
    /// Panics if the policy was built for a different population size.
    pub fn with_policy(protocol: P, initial: Vec<P::State>, policy: S, seed: u64) -> Self {
        assert_eq!(
            policy.population_size(),
            initial.len(),
            "scheduler policy was built for a different population size"
        );
        Simulation {
            protocol,
            scheduler: policy,
            states: initial,
            rng: rng_from_seed(seed),
            interactions: 0,
            observer: NoopObserver,
            faults: NoFaults,
            reliability: Reliability::perfect(),
            metrics: NoopMetrics,
        }
    }
}

impl<P: Protocol, O: Observer<P>, F: FaultSchedule<P>, S: SchedulerPolicy, M: MetricsSink>
    Simulation<P, O, F, S, M>
{
    /// Attaches an observer, replacing the current one.
    ///
    /// Because observers only *watch* — the simulation's RNG stream and state
    /// transitions never depend on them — the observed execution is
    /// bit-identical to the unobserved one from the same `(protocol, initial
    /// configuration, seed)` triple (with or without a fault schedule
    /// attached). Interaction counts already performed are preserved.
    pub fn observe<O2: Observer<P>>(self, observer: O2) -> Simulation<P, O2, F, S, M> {
        Simulation {
            protocol: self.protocol,
            scheduler: self.scheduler,
            states: self.states,
            rng: self.rng,
            interactions: self.interactions,
            observer,
            faults: self.faults,
            reliability: self.reliability,
            metrics: self.metrics,
        }
    }

    /// Attaches a metrics sink, replacing the current one.
    ///
    /// Sinks only *count* — they never draw from the simulation's RNG — so
    /// the instrumented execution is bit-identical to the uninstrumented one
    /// from the same `(protocol, initial configuration, seed)` triple.
    /// Interaction counts already performed are preserved. Lend a sink with
    /// `with_metrics(&mut sink)` to keep ownership for reading afterwards.
    pub fn with_metrics<M2: MetricsSink>(self, metrics: M2) -> Simulation<P, O, F, S, M2> {
        Simulation {
            protocol: self.protocol,
            scheduler: self.scheduler,
            states: self.states,
            rng: self.rng,
            interactions: self.interactions,
            observer: self.observer,
            faults: self.faults,
            reliability: self.reliability,
            metrics,
        }
    }

    /// The attached metrics sink.
    pub fn metrics(&self) -> &M {
        &self.metrics
    }

    /// Consumes the simulation and returns the metrics sink with whatever it
    /// accumulated.
    pub fn into_metrics(self) -> M {
        self.metrics
    }

    /// Sets the interaction-reliability model (omission probability and/or
    /// one-way application) for all subsequent interactions.
    ///
    /// With the default [`Reliability::perfect`] no extra randomness is
    /// consumed, so attaching it is unobservable; any non-perfect model
    /// changes the execution (that is its purpose).
    pub fn with_reliability(mut self, reliability: Reliability) -> Self {
        self.reliability = reliability;
        self
    }

    /// The interaction-reliability model in effect.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }

    /// The scheduler policy driving pair selection.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably (e.g. to reset its counters).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the simulation and returns the observer with whatever it
    /// accumulated.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The number of agents.
    pub fn population_size(&self) -> usize {
        self.states.len()
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Interactions performed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The simulation RNG's current stream position, for checkpointing
    /// (restore with [`Simulation::from_checkpoint`]).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Overwrites one agent's state in place — **fault injection**.
    ///
    /// This models a transient memory fault hitting a live system (the
    /// scenario self-stabilization exists for): the execution continues from
    /// the corrupted configuration with the same RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn inject_fault(&mut self, agent: usize, state: P::State) {
        assert!(agent < self.states.len(), "agent index {agent} out of range");
        self.states[agent] = state;
    }

    /// Consumes the simulation and returns the final configuration.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }

    /// Parallel time elapsed so far (interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.states.len() as f64
    }

    /// Performs one scheduler-chosen interaction and returns the ordered pair
    /// of agent indices that interacted.
    pub fn step(&mut self) -> (usize, usize) {
        let (i, j) = self.scheduler.sample_at(&mut self.rng, self.interactions);
        self.apply(i, j);
        if M::ENABLED {
            self.note_step_metrics();
        }
        (i, j)
    }

    /// Per-interaction metric bookkeeping: counters every step, a flush at
    /// every [`AGENT_FLUSH_EVERY`] boundary. Call sites gate on `M::ENABLED`
    /// so the disabled sink compiles this away entirely.
    #[inline]
    pub(crate) fn note_step_metrics(&mut self) {
        self.metrics.on_interactions(1);
        // One ordered pair per interaction: two uniform draws.
        self.metrics.on_rng_draws(2);
        if self.interactions.is_multiple_of(AGENT_FLUSH_EVERY) {
            self.metrics.on_flush(self.interactions);
        }
    }

    /// Forces an interaction between a specific ordered pair of agents.
    ///
    /// This bypasses the random scheduler; it exists to replay the scripted
    /// executions of the paper's Figure 2 and for tests that need a
    /// particular interaction sequence. The forced interaction still counts
    /// toward [`Simulation::interactions`].
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn force_pair(&mut self, i: usize, j: usize) {
        assert!(i != j, "agents cannot interact with themselves");
        assert!(i < self.states.len() && j < self.states.len(), "agent index out of range");
        self.apply(i, j);
    }

    /// One observed interaction between `i` and `j`: the transition plus all
    /// gated observer hooks, **without** polling the fault schedule — run
    /// loops that keep their own incremental bookkeeping (rank tracking,
    /// chaos recovery) poll separately so they can react to the corruption.
    pub(crate) fn interact_observed(&mut self, i: usize, j: usize) {
        if self.reliability.drops(&mut self.rng) {
            // The pair met but the transition was silently dropped. The
            // meeting still counts: parallel time measures scheduled
            // encounters, and an omitted one wastes exactly its share of it.
            self.interactions += 1;
            self.observer.on_interaction(i, j, self.interactions);
            return;
        }
        // The observer gates are associated consts, so for `NoopObserver`
        // every branch below folds away and this compiles to the original
        // uninstrumented body.
        let phases_before = if O::WATCHES_PHASES {
            (self.protocol.phase_of(&self.states[i]), self.protocol.phase_of(&self.states[j]))
        } else {
            (None, None)
        };
        let effective = O::WATCHES_STATE_CHANGES
            && !self.protocol.is_null_pair(&self.states[i], &self.states[j]);
        let (a, b) = pair_mut(&mut self.states, i, j);
        if self.reliability.one_way {
            // Only the initiator's update lands; the responder's half of the
            // transition is discarded.
            let saved = b.clone();
            self.protocol.interact(a, b, &mut self.rng);
            *b = saved;
        } else {
            self.protocol.interact(a, b, &mut self.rng);
        }
        self.interactions += 1;
        self.observer.on_interaction(i, j, self.interactions);
        if O::WATCHES_STATE_CHANGES && effective {
            self.observer.on_state_change(i, j, self.interactions);
        }
        if O::WATCHES_PHASES {
            let after_i = self.protocol.phase_of(&self.states[i]);
            if after_i != phases_before.0 {
                self.observer.on_phase_transition(i, phases_before.0, after_i, self.interactions);
            }
            let after_j = self.protocol.phase_of(&self.states[j]);
            if after_j != phases_before.1 {
                self.observer.on_phase_transition(j, phases_before.1, after_j, self.interactions);
            }
        }
    }

    /// Polls the fault schedule at the current interaction count, reporting
    /// any fired fault to the observer. Returns whether a fault fired. With
    /// [`NoFaults`] this is a no-op that the compiler removes — the
    /// `F::ACTIVE` gate is an associated const.
    pub(crate) fn poll_faults(&mut self) -> bool {
        if !F::ACTIVE {
            return false;
        }
        let fired_before = self.faults.fired_count();
        let corrupted = self.faults.poll(&self.protocol, &mut self.states, self.interactions);
        let fired = self.faults.fired_count() != fired_before;
        if fired {
            self.observer.on_fault(corrupted, self.interactions);
        }
        fired
    }

    fn apply(&mut self, i: usize, j: usize) {
        self.interact_observed(i, j);
        if F::ACTIVE {
            self.poll_faults();
        }
    }

    /// Runs exactly `k` interactions.
    pub fn run(&mut self, k: u64) {
        if M::ENABLED {
            let started = Instant::now();
            for _ in 0..k {
                self.step();
            }
            self.metrics.on_section(Section::Transition, started.elapsed().as_nanos() as u64);
        } else {
            for _ in 0..k {
                self.step();
            }
        }
        self.observer.on_batch(k, self.interactions);
    }

    /// Steps until `goal` holds for the configuration, or until the *total*
    /// interaction count reaches `max_interactions`.
    ///
    /// `goal` is evaluated on the initial configuration too, so a
    /// configuration that already satisfies it converges after 0
    /// interactions. The predicate receives the full state slice; for the
    /// O(1)-per-step ranking goal use
    /// [`run_until_stably_ranked`](Simulation::run_until_stably_ranked).
    pub fn run_until(
        &mut self,
        max_interactions: u64,
        mut goal: impl FnMut(&[P::State]) -> bool,
    ) -> RunOutcome {
        loop {
            let probe_started = if M::ENABLED { Some(Instant::now()) } else { None };
            let reached = goal(&self.states);
            if let Some(t0) = probe_started {
                self.metrics.on_section(Section::Probe, t0.elapsed().as_nanos() as u64);
            }
            if reached {
                self.observer.on_converged(self.interactions);
                if F::ACTIVE {
                    self.faults.notify_converged(self.interactions);
                }
                return RunOutcome::Converged { interactions: self.interactions };
            }
            if self.interactions >= max_interactions {
                self.observer.on_exhausted(self.interactions);
                return RunOutcome::Exhausted { interactions: self.interactions };
            }
            self.step();
        }
    }
}

impl<
        P: RankingProtocol,
        O: Observer<P>,
        F: FaultSchedule<P>,
        S: SchedulerPolicy,
        M: MetricsSink,
    > Simulation<P, O, F, S, M>
{
    /// Runs until the configuration is correctly ranked (each rank `1..=n`
    /// output by exactly one agent) **and stays ranked** for
    /// `confirm_window` further interactions.
    ///
    /// Returns the interaction count at the moment the final (confirmed)
    /// convergence occurred. The confirmation window guards against
    /// mistaking a transiently-correct configuration for a stable one; for
    /// the paper's protocols a correct configuration is stable (silent
    /// protocols) or safe (Sublinear-Time-SSR's no-false-positive
    /// guarantee), so confirmed convergence coincides with stabilization.
    ///
    /// Rank bookkeeping is incremental — O(1) per interaction — via
    /// [`RankTracker`].
    pub fn run_until_stably_ranked(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
    ) -> RunOutcome {
        ranked_loop(self, max_interactions, confirm_window, None)
    }

    /// Like [`Simulation::run_until_stably_ranked`], but additionally
    /// records a convergence-dynamics timeline: whenever `timeline` reports
    /// a checkpoint due, the current configuration is snapshotted
    /// ([`crate::timeline::snapshot_states`]), and the end-of-run
    /// configuration is sealed as the final checkpoint.
    ///
    /// Snapshots never touch the simulation RNG, so the interaction
    /// sequence — and therefore the outcome — is identical to an
    /// uninstrumented run with the same seed.
    pub fn run_until_stably_ranked_timeline(
        &mut self,
        max_interactions: u64,
        confirm_window: u64,
        timeline: &mut TimelineObserver,
    ) -> RunOutcome {
        ranked_loop(self, max_interactions, confirm_window, Some(timeline))
    }

    /// Number of agents currently outputting leader (rank 1).
    pub fn leader_count(&self) -> usize {
        self.states.iter().filter(|s| self.protocol.is_leader(s)).count()
    }

    /// Whether the configuration is currently correctly ranked.
    pub fn is_ranked(&self) -> bool {
        self.build_tracker().is_correct()
    }
}

impl<P, O, F, S, M> RankedStep<P> for Simulation<P, O, F, S, M>
where
    P: RankingProtocol,
    O: Observer<P>,
    F: FaultSchedule<P>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    type Observer = O;
    type Faults = F;
    type Metrics = M;

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn build_tracker(&self) -> RankTracker {
        RankTracker::from_counts(&self.protocol, self.states.iter().map(|s| (s, 1)))
    }

    #[inline]
    fn step_ranked(&mut self, tracker: &mut RankTracker) -> bool {
        let (i, j) = self.scheduler.sample_at(&mut self.rng, self.interactions);
        // Rank tracking needs before/after snapshots around the transition
        // alone, so this drives `interact_observed` directly instead of
        // `apply` and polls faults after the tracker update.
        let before_i = self.protocol.rank_of(&self.states[i]);
        let before_j = self.protocol.rank_of(&self.states[j]);
        self.interact_observed(i, j);
        tracker.update(before_i, self.protocol.rank_of(&self.states[i]));
        tracker.update(before_j, self.protocol.rank_of(&self.states[j]));
        if M::ENABLED {
            self.note_step_metrics();
        }
        self.poll_faults()
    }

    fn checkpoint(&self) -> TimelineCheckpoint {
        snapshot_states(&self.protocol, &self.states, self.interactions)
    }

    fn plugins(&mut self) -> (&mut O, &mut F, &mut M) {
        (&mut self.observer, &mut self.faults, &mut self.metrics)
    }
}

/// The per-backend half of a stable-ranking run: one interaction reporting
/// both participants' rank changes and any fault, the tracker rebuild, and
/// the plug-ins [`ranked_loop`] notifies. Implemented by the agent
/// array, by the count backend's exact step, and by the count backend's
/// materialized-agent view for non-uniform schedulers.
pub(crate) trait RankedStep<P: RankingProtocol> {
    /// The observer told about convergence or exhaustion.
    type Observer: Observer<P>;
    /// The fault schedule armed on convergence.
    type Faults: FaultSchedule<P>;
    /// The sink timing the loop's sections.
    type Metrics: MetricsSink;

    /// Interactions performed so far.
    fn interactions(&self) -> u64;

    /// The rank histogram of the current configuration against the
    /// protocol's configured size — the backend's one tracker rebuild.
    fn build_tracker(&self) -> RankTracker;

    /// Performs one scheduled interaction, reports both participants'
    /// rank changes to `tracker`, then polls the fault schedule (reporting
    /// a fired fault to the observer). Returns whether a fault fired, which
    /// leaves `tracker` stale.
    fn step_ranked(&mut self, tracker: &mut RankTracker) -> bool;

    /// A timeline checkpoint of the current configuration.
    fn checkpoint(&self) -> TimelineCheckpoint;

    /// The observer, fault schedule and metrics sink.
    fn plugins(&mut self) -> (&mut Self::Observer, &mut Self::Faults, &mut Self::Metrics);
}

/// The stable-ranking loop of both backends (see
/// [`Simulation::run_until_stably_ranked`]): steps until the tracker
/// reports a correct ranking that survives `confirm_window` further
/// interactions, recording `timeline` checkpoints when they fall due and
/// sealing the end-of-run configuration into it.
pub(crate) fn ranked_loop<P: RankingProtocol, B: RankedStep<P>>(
    sim: &mut B,
    max_interactions: u64,
    confirm_window: u64,
    mut timeline: Option<&mut TimelineObserver>,
) -> RunOutcome {
    let metered = <B::Metrics as MetricsSink>::ENABLED;
    let mut tracker = sim.build_tracker();
    assert_eq!(
        tracker.agents(),
        tracker.rank_count(),
        "protocol configured for a different population size"
    );
    let mut converged_at: Option<u64> = None;
    let mut window = if metered { Some(Instant::now()) } else { None };
    let outcome = loop {
        let now = sim.interactions();
        if let Some(tl) = timeline.as_deref_mut() {
            if tl.is_due(now) {
                let observe_started = if metered { Some(Instant::now()) } else { None };
                tl.record(sim.checkpoint());
                if let Some(t0) = observe_started {
                    sim.plugins().2.on_section(Section::Observe, t0.elapsed().as_nanos() as u64);
                }
            }
        }
        match converged_at {
            Some(t0) if now - t0 >= confirm_window => {
                break RunOutcome::Converged { interactions: t0 };
            }
            None if tracker.is_correct() => {
                if confirm_window == 0 {
                    break RunOutcome::Converged { interactions: now };
                }
                converged_at = Some(now);
            }
            _ => {}
        }
        if now >= max_interactions {
            break RunOutcome::Exhausted { interactions: now };
        }
        let fired = sim.step_ranked(&mut tracker);
        if metered && sim.interactions().is_multiple_of(AGENT_FLUSH_EVERY) {
            if let Some(w) = window.as_mut() {
                sim.plugins().2.on_section(Section::Transition, w.elapsed().as_nanos() as u64);
                *w = Instant::now();
            }
        }
        if fired {
            // A fault overwrote arbitrary agents: the incremental histogram
            // is stale, and any in-progress confirmation window no longer
            // describes this configuration.
            tracker = sim.build_tracker();
            converged_at = None;
        }
        if converged_at.is_some() && !tracker.is_correct() {
            // The "stable" configuration broke inside the confirmation
            // window — it was not stable after all; keep searching.
            converged_at = None;
        }
    };
    let (observer, faults, _) = sim.plugins();
    match outcome {
        RunOutcome::Converged { interactions } => {
            observer.on_converged(interactions);
            faults.notify_converged(interactions);
        }
        RunOutcome::Exhausted { interactions } => observer.on_exhausted(interactions),
    }
    if let Some(tl) = timeline {
        tl.seal(sim.checkpoint());
    }
    outcome
}

/// Borrows two distinct elements of a slice mutably.
///
/// # Panics
///
/// Panics if `i == j` or either index is out of bounds.
pub(crate) fn pair_mut<T>(xs: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert!(i != j, "pair_mut requires distinct indices");
    if i < j {
        let (lo, hi) = xs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Counter(u32);

    /// Every interaction increments the responder.
    struct Inc;
    impl Protocol for Inc {
        type State = Counter;
        fn interact(&self, _a: &mut Counter, b: &mut Counter, _rng: &mut SmallRng) {
            b.0 += 1;
        }
    }

    #[test]
    fn pair_mut_returns_both_orders() {
        let mut v = vec![1, 2, 3];
        {
            let (a, b) = pair_mut(&mut v, 0, 2);
            *a = 10;
            *b = 30;
        }
        {
            let (a, b) = pair_mut(&mut v, 2, 1);
            assert_eq!((*a, *b), (30, 2));
        }
        assert_eq!(v, vec![10, 2, 30]);
    }

    #[test]
    #[should_panic(expected = "distinct indices")]
    fn pair_mut_rejects_equal_indices() {
        let mut v = vec![1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }

    #[test]
    fn interactions_and_parallel_time_accumulate() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 11);
        sim.run(8);
        assert_eq!(sim.interactions(), 8);
        assert!((sim.parallel_time() - 2.0).abs() < 1e-12);
        let total: u32 = sim.states().iter().map(|c| c.0).sum();
        assert_eq!(total, 8, "each interaction increments exactly one agent");
    }

    #[test]
    fn run_until_checks_initial_configuration() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        let outcome = sim.run_until(100, |_| true);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 0 });
    }

    #[test]
    fn run_until_exhausts_budget() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        let outcome = sim.run_until(25, |_| false);
        assert_eq!(outcome, RunOutcome::Exhausted { interactions: 25 });
        assert!(!outcome.is_converged());
        assert!((outcome.parallel_time(3) - 25.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn force_pair_applies_the_transition() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.force_pair(0, 2);
        assert_eq!(sim.states()[2], Counter(1));
        assert_eq!(sim.interactions(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn force_pair_rejects_bad_index() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.force_pair(0, 3);
    }

    #[test]
    fn inject_fault_overwrites_one_agent() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.inject_fault(1, Counter(99));
        assert_eq!(sim.states()[1], Counter(99));
        assert_eq!(sim.states()[0], Counter(0));
        assert_eq!(sim.interactions(), 0, "fault injection is not an interaction");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_fault_rejects_bad_index() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.inject_fault(3, Counter(1));
    }

    #[test]
    fn into_states_returns_final_configuration() {
        let mut sim = Simulation::new(Inc, vec![Counter(0); 3], 1);
        sim.run(5);
        let states = sim.into_states();
        assert_eq!(states.iter().map(|c| c.0).sum::<u32>(), 5);
    }

    #[test]
    fn identical_seeds_give_identical_executions() {
        let mut a = Simulation::new(Inc, vec![Counter(0); 6], 99);
        let mut b = Simulation::new(Inc, vec![Counter(0); 6], 99);
        a.run(500);
        b.run(500);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Simulation::new(Inc, vec![Counter(0); 6], 1);
        let mut b = Simulation::new(Inc, vec![Counter(0); 6], 2);
        a.run(500);
        b.run(500);
        assert_ne!(a.states(), b.states(), "astronomically unlikely to coincide");
    }

    #[test]
    fn omission_drops_that_fraction_of_transitions() {
        use crate::scheduler::Reliability;
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 11)
            .with_reliability(Reliability::with_omission(0.5));
        sim.run(10_000);
        assert_eq!(sim.interactions(), 10_000, "omitted meetings still count");
        let total: u32 = sim.states().iter().map(|c| c.0).sum();
        let frac = f64::from(total) / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "applied fraction {frac} should be ≈0.5");
    }

    #[test]
    fn one_way_application_never_touches_the_responder() {
        use crate::scheduler::Reliability;
        // Inc only updates the responder, so one-way application freezes the
        // whole configuration.
        let mut sim = Simulation::new(Inc, vec![Counter(0); 4], 3)
            .with_reliability(Reliability::perfect().and_one_way());
        sim.run(1_000);
        assert!(sim.states().iter().all(|c| c.0 == 0));
        assert_eq!(sim.interactions(), 1_000);
    }

    #[test]
    fn perfect_reliability_is_bit_identical_to_the_default() {
        use crate::scheduler::Reliability;
        let mut plain = Simulation::new(Inc, vec![Counter(0); 6], 42);
        let mut wrapped =
            Simulation::new(Inc, vec![Counter(0); 6], 42).with_reliability(Reliability::perfect());
        plain.run(2_000);
        wrapped.run(2_000);
        assert_eq!(plain.states(), wrapped.states());
    }

    #[test]
    fn with_policy_drives_pair_selection() {
        use crate::scheduler::{AnyScheduler, SchedulerPolicy};
        let policy = AnyScheduler::from_spec("clustered:2:0.5", 8).unwrap();
        let mut sim = Simulation::with_policy(Inc, vec![Counter(0); 8], policy, 9);
        sim.run(500);
        assert_eq!(sim.interactions(), 500);
        assert_eq!(sim.states().iter().map(|c| c.0).sum::<u32>(), 500);
        assert_eq!(sim.scheduler().label(), "clustered");
    }

    #[test]
    #[should_panic(expected = "different population size")]
    fn with_policy_rejects_size_mismatch() {
        let policy = crate::scheduler::AnyScheduler::uniform(4);
        Simulation::with_policy(Inc, vec![Counter(0); 5], policy, 1);
    }

    /// Leaders fight (`ℓ,ℓ → ℓ,f`); only leader/leader pairs are effective.
    #[derive(Clone, Copy)]
    struct Fight;
    impl Protocol for Fight {
        type State = bool;
        fn interact(&self, a: &mut bool, b: &mut bool, _rng: &mut SmallRng) {
            if *a && *b {
                *b = false;
            }
        }
        fn is_null_pair(&self, a: &bool, b: &bool) -> bool {
            !(*a && *b)
        }
        fn phase_of(&self, state: &bool) -> Option<&'static str> {
            Some(if *state { "leader" } else { "follower" })
        }
    }

    impl RankingProtocol for Fight {
        fn population_size(&self) -> usize {
            2 // only meaningful for the n = 2 tests below
        }
        fn rank_of(&self, state: &bool) -> Option<usize> {
            Some(if *state { 1 } else { 2 })
        }
    }

    /// Test observer: counts every hook and logs phase transitions, with
    /// both opt-in gates set so per-step null-pair and phase evaluation run.
    #[derive(Default)]
    struct EventLog {
        interactions: u64,
        effective: u64,
        batches: u64,
        converged: u64,
        exhausted: u64,
        effective_gaps: Vec<u64>,
        last_effective_at: u64,
        phase_transitions: Vec<(Option<&'static str>, Option<&'static str>)>,
    }

    impl<P: Protocol> Observer<P> for EventLog {
        const WATCHES_STATE_CHANGES: bool = true;
        const WATCHES_PHASES: bool = true;

        fn on_interaction(&mut self, _i: usize, _j: usize, _interactions: u64) {
            self.interactions += 1;
        }

        fn on_batch(&mut self, _len: u64, _interactions: u64) {
            self.batches += 1;
        }

        fn on_state_change(&mut self, _i: usize, _j: usize, interactions: u64) {
            self.effective += 1;
            self.effective_gaps.push(interactions - self.last_effective_at);
            self.last_effective_at = interactions;
        }

        fn on_phase_transition(
            &mut self,
            _agent: usize,
            from: Option<&'static str>,
            to: Option<&'static str>,
            _interactions: u64,
        ) {
            self.phase_transitions.push((from, to));
        }

        fn on_converged(&mut self, _interactions: u64) {
            self.converged += 1;
        }

        fn on_exhausted(&mut self, _interactions: u64) {
            self.exhausted += 1;
        }
    }

    #[test]
    fn observer_does_not_perturb_the_execution() {
        // Acceptance check for the zero-cost observer: the same (protocol,
        // initial configuration, seed) triple must give bit-identical states
        // and interaction counts with and without a full observer attached —
        // including one whose gates force per-step phase and null-pair
        // evaluation.
        let mut plain = Simulation::new(Fight, vec![true; 16], 99);
        let mut observed = Simulation::new(Fight, vec![true; 16], 99).observe(EventLog::default());
        plain.run(500);
        observed.run(500);
        assert_eq!(plain.states(), observed.states());
        assert_eq!(plain.interactions(), observed.interactions());

        let mut plain = Simulation::new(Fight, vec![true; 2], 7);
        let mut observed = Simulation::new(Fight, vec![true; 2], 7).observe(EventLog::default());
        let a = plain.run_until_stably_ranked(10_000, 8);
        let b = observed.run_until_stably_ranked(10_000, 8);
        assert_eq!(a, b, "goal-directed outcomes must match too");
        assert_eq!(plain.states(), observed.states());
    }

    #[test]
    fn telemetry_observer_counts_the_event_stream() {
        let n = 16;
        let mut sim = Simulation::new(Fight, vec![true; n], 5).observe(EventLog::default());
        sim.run(2_000);
        sim.run(2_000);
        let leaders = sim.states().iter().filter(|&&s| s).count();
        let telemetry = sim.into_observer();
        assert_eq!(telemetry.interactions, 4_000);
        assert_eq!(telemetry.batches, 2);
        // Each effective interaction demotes exactly one leader.
        assert_eq!(telemetry.effective, (n - leaders) as u64);
        assert_eq!(telemetry.effective_gaps.len() as u64, telemetry.effective);
        // Each demotion is one leader → follower phase transition.
        assert_eq!(telemetry.phase_transitions.len(), n - leaders);
        for &(from, to) in &telemetry.phase_transitions {
            assert_eq!(from, Some("leader"));
            assert_eq!(to, Some("follower"));
        }
    }

    #[test]
    fn convergence_hooks_fire() {
        let mut sim = Simulation::new(Fight, vec![true; 8], 3).observe(EventLog::default());
        let outcome = sim.run_until(100_000, |s| s.iter().filter(|&&x| x).count() == 1);
        assert!(outcome.is_converged());
        let exhausted = sim.run_until(0, |s| s.iter().all(|&x| !x));
        assert!(!exhausted.is_converged());
        let telemetry = sim.into_observer();
        assert_eq!(telemetry.converged, 1);
        assert_eq!(telemetry.exhausted, 1);
    }
}
