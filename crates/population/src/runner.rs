//! Multi-trial experiment driver.
//!
//! Expected-time rows of the paper's Table 1 are estimated by running many
//! independent executions; WHP rows by high quantiles of the same sample.
//! [`Runner::run`] is the one trial loop every experiment goes through: it
//! derives per-trial seeds deterministically from a base seed
//! ([`trial_seeds`]) and stripes trials over worker threads, so every
//! experiment in the repository is reproducible bit-for-bit at any thread
//! count.
//!
//! Each trial is reported as a [`TrialOutcome`] carrying the full
//! [`RunOutcome`] plus wall-clock timing, convertible to a versioned
//! [`RunRecord`] for JSONL experiment logs;
//! [`ConvergenceSample`] is the statistical view the tables summarize.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::backend::SimulationBackend;
use crate::protocol::RankingProtocol;
use crate::record::RunRecord;
use crate::simulation::RunOutcome;
use crate::telemetry::Throughput;

/// Creates the crate's standard RNG from a 64-bit seed.
///
/// The seed is diffused through SplitMix64 first so that structured seeds
/// (0, 1, 2, …) produce unrelated streams.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed))
}

/// Derives the seed for trial `trial` of an experiment from a base seed.
///
/// Uses two rounds of SplitMix64 mixing, so `(base, trial)` pairs map to
/// well-separated seeds.
pub fn derive_seed(base: u64, trial: u64) -> u64 {
    splitmix64(splitmix64(base).wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(trial + 1)))
}

/// The two seeds of trial `trial`: the RNG that builds the trial's
/// protocol and initial configuration, from `derive_seed(base, 2·trial)`,
/// and the execution seed `derive_seed(base, 2·trial + 1)`.
///
/// Keeping the two streams apart means a trial's initial configuration
/// does not depend on how its execution consumes randomness, so the same
/// trial index starts from the same configuration on every backend,
/// scheduler, and fault plan.
pub fn trial_seeds(base_seed: u64, trial: u64) -> (SmallRng, u64) {
    (rng_from_seed(derive_seed(base_seed, 2 * trial)), derive_seed(base_seed, 2 * trial + 1))
}

/// Runs `f` and returns its result with the wall-clock time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed())
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The machine's available parallelism, or 1 if that cannot be
/// determined — the worker count `--threads auto` asks [`Runner::run`] for.
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Settings shared by all trials of one measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSettings {
    /// Number of independent executions.
    pub trials: u64,
    /// Base seed; trial `i` draws its seeds from [`trial_seeds`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Per-trial interaction budget; executions that exceed it are recorded
    /// as exhausted rather than aborting the experiment.
    pub max_interactions: u64,
    /// Extra interactions a ranked configuration must survive to count as
    /// converged (see
    /// [`Simulation::run_until_stably_ranked`](crate::Simulation::run_until_stably_ranked)).
    pub confirm_window: u64,
}

impl TrialSettings {
    /// Conventional settings: `trials` runs with a budget of
    /// `max_interactions` and a confirmation window of one parallel time unit
    /// per `n` agents chosen by the caller (pass the window explicitly if a
    /// different one is needed).
    pub fn new(trials: u64, base_seed: u64, max_interactions: u64, confirm_window: u64) -> Self {
        TrialSettings { trials, base_seed, max_interactions, confirm_window }
    }
}

/// One completed trial: its index, population size, full outcome, and
/// wall-clock duration.
///
/// The outcome and population size are deterministic in `(settings, trial)`;
/// the wall time is a measurement of this machine, carried along so
/// experiment records can report throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Trial index within the experiment.
    pub trial: u64,
    /// Population size of this trial.
    pub n: usize,
    /// How the execution ended (converged or exhausted, with interaction
    /// counts either way).
    pub outcome: RunOutcome,
    /// Wall-clock time the execution took.
    pub wall: Duration,
}

impl TrialOutcome {
    /// Runs `sim` to a stable ranking within the settings' interaction
    /// budget and confirmation window (see
    /// [`Simulation::run_until_stably_ranked`](crate::Simulation::run_until_stably_ranked)),
    /// timing the execution — the body of a ranked trial on either backend.
    pub fn ranked<P, B>(trial: u64, mut sim: B, settings: &TrialSettings) -> Self
    where
        P: RankingProtocol,
        B: SimulationBackend<P>,
    {
        let n = sim.population_size();
        let (outcome, wall) = timed(|| {
            sim.run_until_stably_ranked(settings.max_interactions, settings.confirm_window)
        });
        TrialOutcome { trial, n, outcome, wall }
    }

    /// Parallel time (interactions / n) at convergence or exhaustion.
    pub fn parallel_time(&self) -> f64 {
        self.outcome.parallel_time(self.n)
    }

    /// Wall-clock throughput of this trial.
    pub fn throughput(&self) -> Throughput {
        Throughput { interactions: self.outcome.interactions(), wall: self.wall }
    }

    /// Converts to a versioned experiment record (see [`crate::record`]).
    ///
    /// `experiment` and `protocol` name what was measured; `h` is the depth
    /// parameter for protocols that have one; `base_seed` is the
    /// experiment-level seed the trial's seeds were derived from.
    pub fn to_record(
        &self,
        experiment: &str,
        protocol: &str,
        h: Option<u64>,
        base_seed: u64,
    ) -> RunRecord {
        RunRecord {
            experiment: experiment.to_string(),
            protocol: protocol.to_string(),
            n: self.n as u64,
            h,
            trial: self.trial,
            seed: base_seed,
            outcome: self.outcome,
            wall_s: self.wall.as_secs_f64(),
            availability: None,
            faults: None,
            scheduler: None,
            omission: None,
            starve_window: None,
        }
    }
}

/// The outcome of a batch of trials: per-trial parallel stabilization times
/// of converged trials, plus the interaction counts reached by trials that
/// exhausted their budget.
///
/// Exhausted trials keep their interaction counts (rather than being reduced
/// to a tally) so that censored-data diagnostics remain possible: a trial
/// that died at 99% of a tight budget and one that was nowhere close are
/// different facts about a protocol.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceSample {
    /// Parallel time (interactions / n) of each converged trial.
    pub parallel_times: Vec<f64>,
    /// Total interactions performed by each trial that did not converge
    /// within the interaction budget.
    pub exhausted_interactions: Vec<u64>,
}

impl ConvergenceSample {
    /// Builds the statistical view of a batch of [`TrialOutcome`]s.
    pub fn from_trials(trials: &[TrialOutcome]) -> Self {
        let mut parallel_times = Vec::new();
        let mut exhausted_interactions = Vec::new();
        for t in trials {
            match t.outcome {
                RunOutcome::Converged { .. } => parallel_times.push(t.parallel_time()),
                RunOutcome::Exhausted { interactions } => exhausted_interactions.push(interactions),
            }
        }
        ConvergenceSample { parallel_times, exhausted_interactions }
    }

    /// Number of trials that did not converge within the interaction budget.
    pub fn exhausted(&self) -> u64 {
        self.exhausted_interactions.len() as u64
    }

    /// Whether every trial converged.
    pub fn all_converged(&self) -> bool {
        self.exhausted_interactions.is_empty()
    }

    /// Number of converged trials.
    pub fn len(&self) -> usize {
        self.parallel_times.len()
    }

    /// Whether no trial converged.
    pub fn is_empty(&self) -> bool {
        self.parallel_times.is_empty()
    }
}

/// Runs batches of independent, seeded trials through [`Runner::run`].
///
/// What a trial *does* (backend, scheduler, faults, churn, instruments) is
/// the body closure's business; the runner owns the trial range, per-trial
/// seeding, the worker threads, and trial order.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    settings: TrialSettings,
}

impl Runner {
    /// Creates a runner with the given settings.
    pub fn new(settings: TrialSettings) -> Self {
        Runner { settings }
    }

    /// The runner's settings.
    pub fn settings(&self) -> &TrialSettings {
        &self.settings
    }

    /// Runs trials `0..settings.trials` striped over `threads` worker
    /// threads and returns their outcomes in trial order.
    ///
    /// `body(trial, config_rng, exec_seed)` runs one trial: it builds the
    /// protocol and initial configuration from `config_rng`, runs an
    /// execution seeded with `exec_seed` (see [`trial_seeds`]), and returns
    /// whatever the trial measured. `on_trial` sees every outcome in trial
    /// order, as soon as it and all earlier trials are done — a live
    /// progress hook. Outcomes do not depend on `threads`: per-trial seeds
    /// are a function of the base seed and the trial index only.
    ///
    /// # Examples
    ///
    /// ```
    /// use population::{ConvergenceSample, Runner, Simulation, TrialOutcome, TrialSettings};
    /// use population::{Protocol, RankingProtocol};
    /// use rand::rngs::SmallRng;
    ///
    /// // Protocol 1 of the paper in miniature: rank collision bumps the responder.
    /// struct ModRank { n: usize }
    /// impl Protocol for ModRank {
    ///     type State = usize;
    ///     fn interact(&self, a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
    ///         if a == b { *b = (*b + 1) % self.n; }
    ///     }
    /// }
    /// impl RankingProtocol for ModRank {
    ///     fn population_size(&self) -> usize { self.n }
    ///     fn rank_of(&self, s: &usize) -> Option<usize> { Some(s + 1) }
    /// }
    ///
    /// let settings = TrialSettings::new(5, 42, 1_000_000, 0);
    /// let trials = Runner::new(settings).run(
    ///     2,
    ///     |trial, _config_rng, seed| {
    ///         let sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], seed);
    ///         TrialOutcome::ranked(trial, sim, &settings)
    ///     },
    ///     |_| {},
    /// );
    /// let sample = ConvergenceSample::from_trials(&trials);
    /// assert!(sample.all_converged());
    /// assert_eq!(sample.len(), 5);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or if `body` or `on_trial` panics.
    pub fn run<T, B, G>(&self, threads: usize, body: B, mut on_trial: G) -> Vec<T>
    where
        T: Send,
        B: Fn(u64, &mut SmallRng, u64) -> T + Sync,
        G: FnMut(&T),
    {
        assert!(threads > 0, "at least one worker thread is required");
        let TrialSettings { trials, base_seed, .. } = self.settings;
        let body = &body;
        let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            // Workers take strided slices of the trial range and send each
            // outcome back as it finishes; this thread slots them in trial
            // order and reports the completed prefix.
            let handles: Vec<_> = (0..threads as u64)
                .map(|worker| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        for trial in (worker..trials).step_by(threads) {
                            let (mut config_rng, exec_seed) = trial_seeds(base_seed, trial);
                            let outcome = body(trial, &mut config_rng, exec_seed);
                            if tx.send((trial, outcome)).is_err() {
                                return;
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = 0;
            for (trial, outcome) in rx {
                slots[trial as usize] = Some(outcome);
                while let Some(Some(done)) = slots.get(next) {
                    on_trial(done);
                    next += 1;
                }
            }
            for handle in handles {
                handle.join().expect("worker thread panicked");
            }
        });
        slots.into_iter().map(|slot| slot.expect("every trial reports an outcome")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, RankingProtocol};
    use crate::scheduler::{AnyScheduler, Reliability};
    use crate::simulation::Simulation;

    struct ModRank {
        n: usize,
    }
    impl Protocol for ModRank {
        type State = usize;
        fn interact(&self, a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
            if a == b {
                *b = (*b + 1) % self.n;
            }
        }
    }
    impl RankingProtocol for ModRank {
        fn population_size(&self) -> usize {
            self.n
        }
        fn rank_of(&self, s: &usize) -> Option<usize> {
            Some(s + 1)
        }
    }

    /// Ranked ModRank trials from `initial` on the agent backend.
    fn modrank_trials(
        settings: TrialSettings,
        threads: usize,
        initial: &[usize],
    ) -> Vec<TrialOutcome> {
        let n = initial.len();
        Runner::new(settings).run(
            threads,
            |trial, _, seed| {
                let sim = Simulation::new(ModRank { n }, initial.to_vec(), seed);
                TrialOutcome::ranked(trial, sim, &settings)
            },
            |_| {},
        )
    }

    fn modrank_sample(settings: TrialSettings, threads: usize, n: usize) -> ConvergenceSample {
        ConvergenceSample::from_trials(&modrank_trials(settings, threads, &vec![0; n]))
    }

    /// The deterministic part of a trial outcome (wall time excluded).
    fn key(trials: &[TrialOutcome]) -> Vec<(u64, usize, RunOutcome)> {
        trials.iter().map(|t| (t.trial, t.n, t.outcome)).collect()
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn measurements_are_reproducible() {
        let settings = TrialSettings::new(4, 7, 500_000, 0);
        let a = modrank_sample(settings, 1, 6);
        let b = modrank_sample(settings, 1, 6);
        assert_eq!(a, b);
        assert!(a.all_converged());
    }

    #[test]
    fn budget_exhaustion_is_counted_not_fatal() {
        // An interaction budget of 1 cannot rank 6 agents from all-zero.
        let sample = modrank_sample(TrialSettings::new(3, 7, 1, 0), 1, 6);
        assert_eq!(sample.exhausted(), 3);
        assert!(sample.is_empty());
        assert!(!sample.all_converged());
    }

    #[test]
    fn exhausted_trials_retain_interaction_counts() {
        // Budget 17: every trial burns the whole budget and the sample must
        // say so exactly, not just count casualties.
        let sample = modrank_sample(TrialSettings::new(3, 7, 17, 0), 1, 6);
        assert_eq!(sample.exhausted_interactions, vec![17, 17, 17]);
        assert_eq!(sample.exhausted(), 3);
    }

    #[test]
    fn trial_outcomes_carry_wall_time_and_records() {
        let trials = modrank_trials(TrialSettings::new(2, 7, 1_000_000, 0), 1, &[0; 6]);
        assert_eq!(trials.len(), 2);
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.trial, i as u64);
            assert_eq!(t.n, 6);
            assert!(t.outcome.is_converged());
            let record = t.to_record("test-exp", "modrank", None, 7);
            assert_eq!(record.n, 6);
            assert_eq!(record.trial, i as u64);
            assert_eq!(record.seed, 7);
            assert_eq!(record.outcome, t.outcome);
            assert!((record.parallel_time() - t.parallel_time()).abs() < 1e-12);
        }
    }

    #[test]
    fn already_correct_configuration_converges_immediately() {
        let trials = modrank_trials(TrialSettings::new(2, 7, 1000, 10), 1, &[0, 1, 2, 3]);
        let sample = ConvergenceSample::from_trials(&trials);
        assert!(sample.all_converged());
        assert!(sample.parallel_times.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn parallel_runner_matches_sequential_sample() {
        // The one trial loop: for any worker count, the same outcomes in
        // the same order, and `on_trial` sees the trials in order.
        let trials = 9;
        let settings = TrialSettings::new(trials, 13, 1_000_000, 5);
        let sequential = modrank_trials(settings, 1, &[0; 8]);
        for threads in [1, 2, 3, trials as usize + 1] {
            let mut seen = Vec::new();
            let outcomes = Runner::new(settings).run(
                threads,
                |trial, _, seed| {
                    let sim = Simulation::new(ModRank { n: 8 }, vec![0usize; 8], seed);
                    TrialOutcome::ranked(trial, sim, &settings)
                },
                |t| seen.push(t.trial),
            );
            assert_eq!(key(&outcomes), key(&sequential), "{threads} threads");
            assert_eq!(seen, (0..trials).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn auto_runner_matches_sequential_sample() {
        assert!(auto_threads() >= 1);
        let settings = TrialSettings::new(6, 13, 1_000_000, 5);
        assert_eq!(modrank_sample(settings, auto_threads(), 8), modrank_sample(settings, 1, 8));
    }

    #[test]
    fn bodies_see_the_trial_seeds() {
        // Configuration RNG from derive_seed(base, 2t), execution seed
        // derive_seed(base, 2t + 1): the derivation every checked-in stream
        // was recorded with.
        use rand::Rng;
        let runner = Runner::new(TrialSettings::new(5, 21, 0, 0));
        let seeds = runner.run(2, |trial, config, exec| (trial, config.gen::<u64>(), exec), |_| {});
        for (trial, config, exec) in seeds {
            let expected_config = rng_from_seed(derive_seed(21, 2 * trial)).gen::<u64>();
            assert_eq!((config, exec), (expected_config, derive_seed(21, 2 * trial + 1)));
        }
    }

    #[test]
    fn zero_trials_run_no_body() {
        let out: Vec<u64> =
            Runner::new(TrialSettings::new(0, 1, 10, 0)).run(3, |t, _, _| t, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        modrank_trials(TrialSettings::new(1, 1, 10, 0), 0, &[0; 4]);
    }

    #[test]
    fn scheduled_runner_with_uniform_matches_plain_runner() {
        let settings = TrialSettings::new(6, 13, 1_000_000, 5);
        let plain = modrank_trials(settings, 1, &[0; 8]);
        let scheduled = Runner::new(settings).run(
            2,
            |trial, _, seed| {
                let sim = Simulation::with_policy(
                    ModRank { n: 8 },
                    vec![0; 8],
                    AnyScheduler::uniform(8),
                    seed,
                )
                .with_reliability(Reliability::perfect());
                TrialOutcome::ranked(trial, sim, &settings)
            },
            |_| {},
        );
        assert_eq!(key(&plain), key(&scheduled));
    }

    #[test]
    fn scheduled_runner_converges_under_adversarial_policies() {
        let settings = TrialSettings::new(3, 17, 2_000_000, 5);
        for spec in ["zipf:1", "starve:2:64", "clustered:2:0.1"] {
            let trials = Runner::new(settings).run(
                2,
                |trial, _, seed| {
                    let policy = AnyScheduler::from_spec(spec, 8).unwrap();
                    let sim = Simulation::with_policy(ModRank { n: 8 }, vec![0; 8], policy, seed)
                        .with_reliability(Reliability::with_omission(0.1));
                    TrialOutcome::ranked(trial, sim, &settings)
                },
                |_| {},
            );
            assert!(trials.iter().all(|t| t.outcome.is_converged()), "{spec} failed to converge");
        }
    }

    #[test]
    fn trial_seeds_differ_across_trials() {
        // From an all-zero start, different trials should take different times.
        let sample = modrank_sample(TrialSettings::new(8, 3, 1_000_000, 0), 1, 8);
        let first = sample.parallel_times[0];
        assert!(
            sample.parallel_times.iter().any(|&t| (t - first).abs() > 1e-9),
            "all trials identical — per-trial seeding is broken"
        );
    }
}
