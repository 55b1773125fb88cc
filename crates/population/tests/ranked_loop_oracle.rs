//! Pins the stable-ranking loops and the counts chaos loop bit for bit.
//!
//! Every run below is a pure function of `(protocol, initial configuration,
//! seed, fault plan)`, so its outcome, final interaction count, RNG stream
//! position, final configuration, timeline checkpoints and observer events
//! are fixed literals. Any rewrite of these loops must replay them exactly:
//!
//! * `BatchSimulation::run_until_stably_ranked` and `_timeline`;
//! * `BatchSimulation::run_until_stably_ranked_scheduled`, on the uniform
//!   policy (the lumped loop) and on zipf with 20 % omission (the
//!   materialized-agent fallback);
//! * `BatchSimulation::run_chaos`;
//! * `Simulation::run_until_stably_ranked` and `_timeline`.
//!
//! Each runs at small `n` for two seeds, with no fault schedule and with a
//! [`FaultPlan`], on a deterministic protocol (memoized by the counts
//! backend) and on a randomized one (whose coin flips pin how much of the
//! simulation RNG the loop consumes).

use std::fmt::Debug;
use std::hash::Hash;

use population::fault::FaultSchedule;
use population::{
    AnyScheduler, BatchSimulation, Corruptor, FaultAction, FaultPlan, FaultSize, Observer,
    Protocol, RankingProtocol, Reliability, RunOutcome, Simulation, TimelineObserver,
};
use rand::rngs::SmallRng;
use rand::Rng;

const N: usize = 8;
const BUDGET: u64 = 200_000;
const WINDOW: u64 = 4 * N as u64;

/// Ranks mod `n`: a collision bumps the responder to the next rank.
#[derive(Clone)]
struct ModRank;

impl Protocol for ModRank {
    type State = usize;
    const DETERMINISTIC_INTERACT: bool = true;
    fn interact(&self, a: &mut usize, b: &mut usize, _rng: &mut SmallRng) {
        if a == b {
            *b = (*b + 1) % N;
        }
    }
}

impl RankingProtocol for ModRank {
    fn population_size(&self) -> usize {
        N
    }
    fn rank_of(&self, s: &usize) -> Option<usize> {
        Some(s + 1)
    }
}

impl Corruptor for ModRank {
    fn random_state(&self, rng: &mut SmallRng) -> usize {
        rng.gen_range(0..N)
    }
}

/// Like [`ModRank`], but a collision bumps the responder by one or two
/// ranks at random, and the top half of the ranks is a named phase.
#[derive(Clone)]
struct CoinRank;

impl Protocol for CoinRank {
    type State = usize;
    fn interact(&self, a: &mut usize, b: &mut usize, rng: &mut SmallRng) {
        if a == b {
            *b = (*b + rng.gen_range(1..3usize)) % N;
        }
    }
    fn phase_of(&self, s: &usize) -> Option<&'static str> {
        Some(if *s < N / 2 { "low" } else { "high" })
    }
}

impl RankingProtocol for CoinRank {
    fn population_size(&self) -> usize {
        N
    }
    fn rank_of(&self, s: &usize) -> Option<usize> {
        Some(s + 1)
    }
}

impl Corruptor for CoinRank {
    fn random_state(&self, rng: &mut SmallRng) -> usize {
        rng.gen_range(0..N)
    }
}

/// Records the aggregate observer events with their interaction counts,
/// and how many per-interaction and per-batch hooks fired.
#[derive(Default)]
struct Log {
    events: Vec<(&'static str, u64)>,
    interaction_hooks: u64,
    batch_hooks: u64,
}

impl<P: Protocol> Observer<P> for Log {
    fn on_interaction(&mut self, _i: usize, _j: usize, _interactions: u64) {
        self.interaction_hooks += 1;
    }
    fn on_batch(&mut self, _len: u64, _interactions: u64) {
        self.batch_hooks += 1;
    }
    fn on_fault(&mut self, _agents: usize, interactions: u64) {
        self.events.push(("fault", interactions));
    }
    fn on_converged(&mut self, interactions: u64) {
        self.events.push(("converged", interactions));
    }
    fn on_exhausted(&mut self, interactions: u64) {
        self.events.push(("exhausted", interactions));
    }
}

impl Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} hooks={}/{}", self.events, self.interaction_hooks, self.batch_hooks)
    }
}

/// A plan that fires twice during stabilization and once after it.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .at_interaction(40, FaultAction::CorruptRandom(FaultSize::Exact(2)))
        .at_parallel_time(30.0, FaultAction::DuplicateLeader)
        .after_convergence(5, FaultAction::Collide(FaultSize::Exact(3)))
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Ranked,
    Timeline,
    Uniform,
    Zipf,
    Chaos,
}

/// `(interactions, leaders, ranks_with_one, support, phases)` per checkpoint.
type Point = (u64, u64, u64, Option<u64>, Vec<(&'static str, u64)>);

fn points(tl: TimelineObserver) -> Vec<Point> {
    tl.finish(N as u64)
        .checkpoints
        .into_iter()
        .map(|c| (c.interactions, c.leaders, c.ranks_with_one, c.support, c.phases))
        .collect()
}

fn run_counts<P, F>(mut sim: BatchSimulation<P, Log, F>, mode: Mode) -> String
where
    P: Corruptor,
    P::State: Eq + Hash + Debug,
    F: FaultSchedule<P>,
{
    let mut tl = TimelineObserver::new(8);
    let result = match mode {
        Mode::Ranked => format!("{:?}", sim.run_until_stably_ranked(BUDGET, WINDOW)),
        Mode::Timeline => {
            format!("{:?}", sim.run_until_stably_ranked_timeline(BUDGET, WINDOW, &mut tl))
        }
        Mode::Uniform => {
            let policy = AnyScheduler::uniform(N);
            format!("{:?}", sim.run_until_stably_ranked_scheduled(&policy, BUDGET, WINDOW))
        }
        Mode::Zipf => {
            let policy = AnyScheduler::from_spec("zipf:1", N).unwrap();
            sim = sim.with_reliability(Reliability::with_omission(0.2));
            format!("{:?}", sim.run_until_stably_ranked_scheduled(&policy, BUDGET, WINDOW))
        }
        Mode::Chaos => format!("{:?}", sim.run_chaos(BUDGET)),
    };
    let counts: Vec<(&P::State, u64)> = sim.counts().iter().collect();
    format!(
        "{result} at={} rng={:?} counts={counts:?} log={:?} tl={:?}",
        sim.interactions(),
        sim.rng_state(),
        sim.observer(),
        points(tl)
    )
}

fn run_agents<P, F>(mut sim: Simulation<P, Log, F>, mode: Mode) -> String
where
    P: RankingProtocol,
    P::State: Debug,
    F: FaultSchedule<P>,
{
    let mut tl = TimelineObserver::new(8);
    let outcome: RunOutcome = match mode {
        Mode::Ranked => sim.run_until_stably_ranked(BUDGET, WINDOW),
        Mode::Timeline => sim.run_until_stably_ranked_timeline(BUDGET, WINDOW, &mut tl),
        _ => unreachable!("agent runs pin the ranked loops only"),
    };
    format!(
        "{outcome:?} at={} rng={:?} states={:?} log={:?} tl={:?}",
        sim.interactions(),
        sim.rng_state(),
        sim.states(),
        sim.observer(),
        points(tl)
    )
}

/// Every pinned run of `protocol` for `seed`, labelled, with and without
/// the fault plan.
fn pin<P: Corruptor<State = usize> + Clone>(protocol: P, name: &str, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    let counts =
        || BatchSimulation::new(protocol.clone(), vec![0; N], seed).observe(Log::default());
    let agents = || Simulation::new(protocol.clone(), vec![0; N], seed).observe(Log::default());
    for mode in [Mode::Ranked, Mode::Timeline, Mode::Uniform, Mode::Zipf, Mode::Chaos] {
        out.push(format!("counts {mode:?} {name} {seed}: {}", run_counts(counts(), mode)));
        let faulty = counts().with_fault_plan(&plan(seed));
        out.push(format!("counts {mode:?} {name}+plan {seed}: {}", run_counts(faulty, mode)));
    }
    for mode in [Mode::Ranked, Mode::Timeline] {
        out.push(format!("agents {mode:?} {name} {seed}: {}", run_agents(agents(), mode)));
        let faulty = agents().with_fault_plan(&plan(seed));
        out.push(format!("agents {mode:?} {name}+plan {seed}: {}", run_agents(faulty, mode)));
    }
    out
}

fn fingerprints() -> Vec<String> {
    let mut out = Vec::new();
    for seed in [1u64, 2] {
        out.extend(pin(ModRank, "ModRank", seed));
        out.extend(pin(CoinRank, "CoinRank", seed));
    }
    out
}

const PINNED: &[&str] = &[
    "counts Ranked ModRank 1: Converged { interactions: 188 } at=220 rng=[809058640363635280, 12504401001747288305, 10416784592157668817, 17492979887725741283] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 188)] hooks=0/0 tl=[]",
    "counts Ranked ModRank+plan 1: Converged { interactions: 455 } at=487 rng=[8575971652518633619, 8866496936194856165, 6138535647880486195, 15734061293038866577] counts=[(4, 1), (7, 1), (1, 1), (5, 1), (3, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 455)] hooks=0/0 tl=[]",
    "counts Timeline ModRank 1: Converged { interactions: 188 } at=220 rng=[809058640363635280, 12504401001747288305, 10416784592157668817, 17492979887725741283] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 188)] hooks=0/0 tl=[(0, 8, 0, Some(1), []), (32, 2, 1, Some(4), []), (64, 1, 3, Some(5), []), (96, 1, 4, Some(6), []), (128, 1, 5, Some(6), []), (160, 1, 6, Some(7), []), (192, 1, 8, Some(8), []), (220, 1, 8, Some(8), [])]",
    "counts Timeline ModRank+plan 1: Converged { interactions: 455 } at=487 rng=[8575971652518633619, 8866496936194856165, 6138535647880486195, 15734061293038866577] counts=[(4, 1), (7, 1), (1, 1), (5, 1), (3, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 455)] hooks=0/0 tl=[(0, 8, 0, Some(1), []), (128, 0, 2, Some(5), []), (256, 0, 4, Some(6), []), (384, 1, 6, Some(7), []), (487, 1, 8, Some(8), [])]",
    "counts Uniform ModRank 1: Converged { interactions: 188 } at=220 rng=[809058640363635280, 12504401001747288305, 10416784592157668817, 17492979887725741283] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 188)] hooks=0/0 tl=[]",
    "counts Uniform ModRank+plan 1: Converged { interactions: 455 } at=487 rng=[8575971652518633619, 8866496936194856165, 6138535647880486195, 15734061293038866577] counts=[(4, 1), (7, 1), (1, 1), (5, 1), (3, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 455)] hooks=0/0 tl=[]",
    "counts Zipf ModRank 1: Converged { interactions: 588 } at=620 rng=[10072799135777878963, 10205639794067223976, 6906181830495326585, 850100187774953268] counts=[(4, 1), (6, 1), (7, 1), (1, 1), (3, 1), (5, 1), (2, 1), (0, 1)] log=[(\"converged\", 588)] hooks=0/0 tl=[]",
    "counts Zipf ModRank+plan 1: Converged { interactions: 1152 } at=1184 rng=[13382787051323358844, 2486297260781943659, 6664632057739869268, 1391843113766660624] counts=[(0, 1), (7, 1), (5, 1), (1, 1), (2, 1), (4, 1), (6, 1), (3, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 1152)] hooks=0/0 tl=[]",
    "counts Chaos ModRank 1: ChaosReport { n: 8, interactions: 143, first_ranked: Some(143), faults: [], leader_steps: 121, ranked_steps: 3, observed_steps: 143 } at=143 rng=[11719908950952505271, 3379801278289486087, 17910620021881283461, 15700150937339974876] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 143)] hooks=0/0 tl=[]",
    "counts Chaos ModRank+plan 1: ChaosReport { n: 8, interactions: 717, first_ranked: Some(485), faults: [FaultOutcome { action: \"corrupt_random\", agents: 2, at: 40, recovered_at: Some(485) }, FaultOutcome { action: \"duplicate_leader\", agents: 1, at: 240, recovered_at: Some(485) }, FaultOutcome { action: \"collide\", agents: 3, at: 490, recovered_at: Some(717) }], leader_steps: 455, ranked_steps: 7, observed_steps: 717 } at=717 rng=[5771062457445292240, 18177561182760027257, 2056305306480471762, 16697508083015622525] counts=[(0, 1), (2, 1), (5, 1), (6, 1), (4, 1), (1, 1), (3, 1), (7, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"fault\", 490), (\"converged\", 717)] hooks=0/0 tl=[]",
    "agents Ranked ModRank 1: Converged { interactions: 182 } at=214 rng=[6507382498563382363, 17372654630871734202, 9080980908015571520, 13950418123618702810] states=[1, 6, 2, 3, 7, 0, 5, 4] log=[(\"converged\", 182)] hooks=214/0 tl=[]",
    "agents Ranked ModRank+plan 1: Converged { interactions: 130 } at=162 rng=[12142200957781820535, 8828187163160738063, 16139523956888996329, 247326093743788588] states=[5, 7, 1, 3, 6, 0, 4, 2] log=[(\"fault\", 40), (\"converged\", 130)] hooks=162/0 tl=[]",
    "agents Timeline ModRank 1: Converged { interactions: 182 } at=214 rng=[6507382498563382363, 17372654630871734202, 9080980908015571520, 13950418123618702810] states=[1, 6, 2, 3, 7, 0, 5, 4] log=[(\"converged\", 182)] hooks=214/0 tl=[(0, 8, 0, None, []), (32, 2, 1, None, []), (64, 1, 2, None, []), (96, 1, 3, None, []), (128, 1, 4, None, []), (160, 1, 6, None, []), (192, 1, 8, None, []), (214, 1, 8, None, [])]",
    "agents Timeline ModRank+plan 1: Converged { interactions: 130 } at=162 rng=[12142200957781820535, 8828187163160738063, 16139523956888996329, 247326093743788588] states=[5, 7, 1, 3, 6, 0, 4, 2] log=[(\"fault\", 40), (\"converged\", 130)] hooks=162/0 tl=[(0, 8, 0, None, []), (32, 2, 1, None, []), (64, 1, 6, None, []), (96, 1, 6, None, []), (128, 1, 6, None, []), (160, 1, 8, None, []), (162, 1, 8, None, [])]",
    "counts Ranked CoinRank 1: Converged { interactions: 194 } at=226 rng=[6892775592045704089, 1817633053737270264, 11326010730193690491, 8370223633206061513] counts=[(0, 1), (2, 1), (1, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 194)] hooks=0/0 tl=[]",
    "counts Ranked CoinRank+plan 1: Converged { interactions: 411 } at=443 rng=[7035686523623826384, 5845322726580686855, 15785535898888625323, 15537652604964491211] counts=[(4, 1), (7, 1), (5, 1), (1, 1), (3, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 411)] hooks=0/0 tl=[]",
    "counts Timeline CoinRank 1: Converged { interactions: 194 } at=226 rng=[6892775592045704089, 1817633053737270264, 11326010730193690491, 8370223633206061513] counts=[(0, 1), (2, 1), (1, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 194)] hooks=0/0 tl=[(0, 8, 0, Some(1), [(\"low\", 8)]), (64, 1, 4, Some(6), [(\"high\", 3), (\"low\", 5)]), (128, 1, 4, Some(6), [(\"high\", 4), (\"low\", 4)]), (192, 1, 6, Some(7), [(\"high\", 4), (\"low\", 4)]), (226, 1, 8, Some(8), [(\"high\", 4), (\"low\", 4)])]",
    "counts Timeline CoinRank+plan 1: Converged { interactions: 411 } at=443 rng=[7035686523623826384, 5845322726580686855, 15785535898888625323, 15537652604964491211] counts=[(4, 1), (7, 1), (5, 1), (1, 1), (3, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 411)] hooks=0/0 tl=[(0, 8, 0, Some(1), [(\"low\", 8)]), (64, 0, 4, Some(6), [(\"high\", 4), (\"low\", 4)]), (128, 0, 6, Some(7), [(\"high\", 5), (\"low\", 3)]), (192, 0, 6, Some(7), [(\"high\", 5), (\"low\", 3)]), (256, 0, 4, Some(6), [(\"high\", 6), (\"low\", 2)]), (320, 1, 6, Some(7), [(\"high\", 5), (\"low\", 3)]), (384, 1, 6, Some(7), [(\"high\", 4), (\"low\", 4)]), (443, 1, 8, Some(8), [(\"high\", 4), (\"low\", 4)])]",
    "counts Uniform CoinRank 1: Converged { interactions: 194 } at=226 rng=[6892775592045704089, 1817633053737270264, 11326010730193690491, 8370223633206061513] counts=[(0, 1), (2, 1), (1, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 194)] hooks=0/0 tl=[]",
    "counts Uniform CoinRank+plan 1: Converged { interactions: 411 } at=443 rng=[7035686523623826384, 5845322726580686855, 15785535898888625323, 15537652604964491211] counts=[(4, 1), (7, 1), (5, 1), (1, 1), (3, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 411)] hooks=0/0 tl=[]",
    "counts Zipf CoinRank 1: Converged { interactions: 1670 } at=1702 rng=[3848356486185569525, 3427524947370151213, 1922926070572493496, 493170953279962640] counts=[(2, 1), (6, 1), (3, 1), (4, 1), (7, 1), (0, 1), (1, 1), (5, 1)] log=[(\"converged\", 1670)] hooks=0/0 tl=[]",
    "counts Zipf CoinRank+plan 1: Converged { interactions: 2548 } at=2580 rng=[2204572011148420060, 14358934868861464538, 2725421069586709279, 3308797810243042612] counts=[(2, 1), (1, 1), (7, 1), (6, 1), (0, 1), (4, 1), (3, 1), (5, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 2548)] hooks=0/0 tl=[]",
    "counts Chaos CoinRank 1: ChaosReport { n: 8, interactions: 157, first_ranked: Some(157), faults: [], leader_steps: 104, ranked_steps: 2, observed_steps: 157 } at=157 rng=[14952855843325099443, 7014527520196080282, 5087068385401677367, 8524894942484124479] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 157)] hooks=0/0 tl=[]",
    "counts Chaos CoinRank+plan 1: ChaosReport { n: 8, interactions: 545, first_ranked: Some(350), faults: [FaultOutcome { action: \"corrupt_random\", agents: 2, at: 40, recovered_at: Some(350) }, FaultOutcome { action: \"duplicate_leader\", agents: 1, at: 240, recovered_at: Some(350) }, FaultOutcome { action: \"collide\", agents: 3, at: 355, recovered_at: Some(545) }], leader_steps: 160, ranked_steps: 11, observed_steps: 545 } at=545 rng=[4449558290284052006, 3233244503555014731, 6083594393627921742, 11940803442050580393] counts=[(4, 1), (7, 1), (2, 1), (6, 1), (3, 1), (5, 1), (0, 1), (1, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"fault\", 355), (\"converged\", 545)] hooks=0/0 tl=[]",
    "agents Ranked CoinRank 1: Converged { interactions: 137 } at=169 rng=[11839956448624106801, 4528284478515983664, 3441977147614823178, 8388500603268759177] states=[0, 1, 6, 7, 5, 2, 4, 3] log=[(\"converged\", 137)] hooks=169/0 tl=[]",
    "agents Ranked CoinRank+plan 1: Converged { interactions: 185 } at=217 rng=[13467184484281883080, 1406743597116824377, 9915985688842759836, 113023483998944960] states=[5, 7, 2, 6, 1, 0, 4, 3] log=[(\"fault\", 40), (\"converged\", 185)] hooks=217/0 tl=[]",
    "agents Timeline CoinRank 1: Converged { interactions: 137 } at=169 rng=[11839956448624106801, 4528284478515983664, 3441977147614823178, 8388500603268759177] states=[0, 1, 6, 7, 5, 2, 4, 3] log=[(\"converged\", 137)] hooks=169/0 tl=[(0, 8, 0, None, [(\"low\", 8)]), (32, 3, 3, None, [(\"high\", 1), (\"low\", 7)]), (64, 1, 3, None, [(\"high\", 2), (\"low\", 6)]), (96, 1, 3, None, [(\"high\", 3), (\"low\", 5)]), (128, 1, 6, None, [(\"high\", 4), (\"low\", 4)]), (160, 1, 8, None, [(\"high\", 4), (\"low\", 4)]), (169, 1, 8, None, [(\"high\", 4), (\"low\", 4)])]",
    "agents Timeline CoinRank+plan 1: Converged { interactions: 185 } at=217 rng=[13467184484281883080, 1406743597116824377, 9915985688842759836, 113023483998944960] states=[5, 7, 2, 6, 1, 0, 4, 3] log=[(\"fault\", 40), (\"converged\", 185)] hooks=217/0 tl=[(0, 8, 0, None, [(\"low\", 8)]), (32, 3, 3, None, [(\"high\", 1), (\"low\", 7)]), (64, 1, 4, None, [(\"high\", 3), (\"low\", 5)]), (96, 1, 4, None, [(\"high\", 3), (\"low\", 5)]), (128, 1, 6, None, [(\"high\", 4), (\"low\", 4)]), (160, 1, 6, None, [(\"high\", 4), (\"low\", 4)]), (192, 1, 8, None, [(\"high\", 4), (\"low\", 4)]), (217, 1, 8, None, [(\"high\", 4), (\"low\", 4)])]",
    "counts Ranked ModRank 2: Converged { interactions: 199 } at=231 rng=[16734816228199359693, 5583921027039662132, 7698896576590899914, 11639383241408731607] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 199)] hooks=0/0 tl=[]",
    "counts Ranked ModRank+plan 2: Converged { interactions: 399 } at=431 rng=[13310301357836189712, 5888929676770136607, 16083900564093091825, 16884566608597092779] counts=[(7, 1), (1, 1), (4, 1), (3, 1), (5, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 399)] hooks=0/0 tl=[]",
    "counts Timeline ModRank 2: Converged { interactions: 199 } at=231 rng=[16734816228199359693, 5583921027039662132, 7698896576590899914, 11639383241408731607] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 199)] hooks=0/0 tl=[(0, 8, 0, Some(1), []), (64, 1, 3, Some(5), []), (128, 1, 4, Some(6), []), (192, 1, 6, Some(7), []), (231, 1, 8, Some(8), [])]",
    "counts Timeline ModRank+plan 2: Converged { interactions: 399 } at=431 rng=[13310301357836189712, 5888929676770136607, 16083900564093091825, 16884566608597092779] counts=[(7, 1), (1, 1), (4, 1), (3, 1), (5, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 399)] hooks=0/0 tl=[(0, 8, 0, Some(1), []), (64, 0, 3, Some(5), []), (128, 0, 4, Some(6), []), (192, 0, 6, Some(7), []), (256, 0, 4, Some(6), []), (320, 1, 6, Some(7), []), (384, 2, 6, Some(7), []), (431, 1, 8, Some(8), [])]",
    "counts Uniform ModRank 2: Converged { interactions: 199 } at=231 rng=[16734816228199359693, 5583921027039662132, 7698896576590899914, 11639383241408731607] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 199)] hooks=0/0 tl=[]",
    "counts Uniform ModRank+plan 2: Converged { interactions: 399 } at=431 rng=[13310301357836189712, 5888929676770136607, 16083900564093091825, 16884566608597092779] counts=[(7, 1), (1, 1), (4, 1), (3, 1), (5, 1), (6, 1), (0, 1), (2, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 399)] hooks=0/0 tl=[]",
    "counts Zipf ModRank 2: Converged { interactions: 776 } at=808 rng=[15219131732370540996, 6169050614517209423, 7065693717927705096, 15411998201799295337] counts=[(0, 1), (7, 1), (6, 1), (4, 1), (3, 1), (1, 1), (5, 1), (2, 1)] log=[(\"converged\", 776)] hooks=0/0 tl=[]",
    "counts Zipf ModRank+plan 2: Converged { interactions: 439 } at=471 rng=[1404189383547061296, 2580281827311367876, 3190308324945842361, 12647383279631569757] counts=[(7, 1), (6, 1), (3, 1), (2, 1), (5, 1), (0, 1), (4, 1), (1, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 439)] hooks=0/0 tl=[]",
    "counts Chaos ModRank 2: ChaosReport { n: 8, interactions: 209, first_ranked: Some(209), faults: [], leader_steps: 184, ranked_steps: 3, observed_steps: 209 } at=209 rng=[11992832828825272835, 9254725434521007718, 17978241959033266859, 5923757459496811964] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 209)] hooks=0/0 tl=[]",
    "counts Chaos ModRank+plan 2: ChaosReport { n: 8, interactions: 469, first_ranked: Some(214), faults: [FaultOutcome { action: \"corrupt_random\", agents: 2, at: 40, recovered_at: Some(214) }, FaultOutcome { action: \"collide\", agents: 3, at: 219, recovered_at: Some(469) }, FaultOutcome { action: \"duplicate_leader\", agents: 1, at: 240, recovered_at: Some(469) }], leader_steps: 204, ranked_steps: 9, observed_steps: 469 } at=469 rng=[14097374049215364960, 778991598405040502, 17015143777870492395, 18219218199904287751] counts=[(7, 1), (1, 1), (0, 1), (5, 1), (4, 1), (6, 1), (2, 1), (3, 1)] log=[(\"fault\", 40), (\"fault\", 219), (\"fault\", 240), (\"converged\", 469)] hooks=0/0 tl=[]",
    "agents Ranked ModRank 2: Converged { interactions: 217 } at=249 rng=[7456534986686541383, 12817563051568179769, 9792999729218256008, 15238633913429161575] states=[2, 0, 1, 3, 5, 6, 4, 7] log=[(\"converged\", 217)] hooks=249/0 tl=[]",
    "agents Ranked ModRank+plan 2: Converged { interactions: 175 } at=207 rng=[12916763360633296271, 1640818957513511310, 6476708165631200997, 15170427332679747612] states=[7, 0, 1, 5, 3, 6, 4, 2] log=[(\"fault\", 40), (\"converged\", 175)] hooks=207/0 tl=[]",
    "agents Timeline ModRank 2: Converged { interactions: 217 } at=249 rng=[7456534986686541383, 12817563051568179769, 9792999729218256008, 15238633913429161575] states=[2, 0, 1, 3, 5, 6, 4, 7] log=[(\"converged\", 217)] hooks=249/0 tl=[(0, 8, 0, None, []), (64, 1, 3, None, []), (128, 1, 4, None, []), (192, 1, 6, None, []), (249, 1, 8, None, [])]",
    "agents Timeline ModRank+plan 2: Converged { interactions: 175 } at=207 rng=[12916763360633296271, 1640818957513511310, 6476708165631200997, 15170427332679747612] states=[7, 0, 1, 5, 3, 6, 4, 2] log=[(\"fault\", 40), (\"converged\", 175)] hooks=207/0 tl=[(0, 8, 0, None, []), (32, 2, 0, None, []), (64, 1, 4, None, []), (96, 1, 4, None, []), (128, 1, 6, None, []), (160, 1, 6, None, []), (192, 1, 8, None, []), (207, 1, 8, None, [])]",
    "counts Ranked CoinRank 2: Converged { interactions: 562 } at=594 rng=[13514383356663951710, 14575980061034341553, 5813843846023390867, 15916278321877026385] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 562)] hooks=0/0 tl=[]",
    "counts Ranked CoinRank+plan 2: Converged { interactions: 207 } at=239 rng=[3392029537789959697, 18184098332005303324, 5855470319324106213, 7438396583085970659] counts=[(7, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (0, 1)] log=[(\"fault\", 40), (\"converged\", 207)] hooks=0/0 tl=[]",
    "counts Timeline CoinRank 2: Converged { interactions: 562 } at=594 rng=[13514383356663951710, 14575980061034341553, 5813843846023390867, 15916278321877026385] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 562)] hooks=0/0 tl=[(0, 8, 0, Some(1), [(\"low\", 8)]), (128, 1, 4, Some(6), [(\"high\", 3), (\"low\", 5)]), (256, 2, 6, Some(7), [(\"high\", 3), (\"low\", 5)]), (384, 2, 6, Some(7), [(\"high\", 3), (\"low\", 5)]), (512, 1, 6, Some(7), [(\"high\", 3), (\"low\", 5)]), (594, 1, 8, Some(8), [(\"high\", 4), (\"low\", 4)])]",
    "counts Timeline CoinRank+plan 2: Converged { interactions: 207 } at=239 rng=[3392029537789959697, 18184098332005303324, 5855470319324106213, 7438396583085970659] counts=[(7, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (0, 1)] log=[(\"fault\", 40), (\"converged\", 207)] hooks=0/0 tl=[(0, 8, 0, Some(1), [(\"low\", 8)]), (64, 0, 3, Some(5), [(\"high\", 2), (\"low\", 6)]), (128, 0, 4, Some(6), [(\"high\", 4), (\"low\", 4)]), (192, 0, 6, Some(7), [(\"high\", 5), (\"low\", 3)]), (239, 1, 8, Some(8), [(\"high\", 4), (\"low\", 4)])]",
    "counts Uniform CoinRank 2: Converged { interactions: 562 } at=594 rng=[13514383356663951710, 14575980061034341553, 5813843846023390867, 15916278321877026385] counts=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)] log=[(\"converged\", 562)] hooks=0/0 tl=[]",
    "counts Uniform CoinRank+plan 2: Converged { interactions: 207 } at=239 rng=[3392029537789959697, 18184098332005303324, 5855470319324106213, 7438396583085970659] counts=[(7, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (0, 1)] log=[(\"fault\", 40), (\"converged\", 207)] hooks=0/0 tl=[]",
    "counts Zipf CoinRank 2: Converged { interactions: 847 } at=879 rng=[14519997794728138798, 4178346301470159328, 14371191706403304244, 16583670584856280711] counts=[(0, 1), (4, 1), (2, 1), (1, 1), (7, 1), (6, 1), (3, 1), (5, 1)] log=[(\"converged\", 847)] hooks=0/0 tl=[]",
    "counts Zipf CoinRank+plan 2: Converged { interactions: 982 } at=1014 rng=[14792650275227927148, 9112666082860724217, 17300842445632398334, 12767173338475961557] counts=[(5, 1), (6, 1), (2, 1), (4, 1), (7, 1), (1, 1), (3, 1), (0, 1)] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 982)] hooks=0/0 tl=[]",
    "counts Chaos CoinRank 2: ChaosReport { n: 8, interactions: 146, first_ranked: Some(146), faults: [], leader_steps: 117, ranked_steps: 4, observed_steps: 146 } at=146 rng=[10324223915592636793, 14478462588590496280, 14714472487125911935, 15962516285473951553] counts=[(0, 1), (2, 1), (1, 1), (3, 1), (5, 1), (4, 1), (6, 1), (7, 1)] log=[(\"converged\", 146)] hooks=0/0 tl=[]",
    "counts Chaos CoinRank+plan 2: ChaosReport { n: 8, interactions: 519, first_ranked: Some(199), faults: [FaultOutcome { action: \"corrupt_random\", agents: 2, at: 40, recovered_at: Some(199) }, FaultOutcome { action: \"collide\", agents: 3, at: 204, recovered_at: Some(519) }, FaultOutcome { action: \"duplicate_leader\", agents: 1, at: 240, recovered_at: Some(519) }], leader_steps: 311, ranked_steps: 7, observed_steps: 519 } at=519 rng=[9532304612260959435, 17995907970131409812, 11940541399049074396, 14820721465378797285] counts=[(7, 1), (0, 1), (4, 1), (5, 1), (1, 1), (2, 1), (3, 1), (6, 1)] log=[(\"fault\", 40), (\"fault\", 204), (\"fault\", 240), (\"converged\", 519)] hooks=0/0 tl=[]",
    "agents Ranked CoinRank 2: Converged { interactions: 194 } at=226 rng=[10140179903600523362, 571230936825798570, 4943176141504819577, 16887762088109888091] states=[7, 0, 3, 5, 4, 2, 6, 1] log=[(\"converged\", 194)] hooks=226/0 tl=[]",
    "agents Ranked CoinRank+plan 2: Converged { interactions: 371 } at=403 rng=[3139038098789552825, 6273505101582380880, 9189998310079852174, 878280341609826465] states=[7, 0, 3, 5, 6, 4, 1, 2] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 371)] hooks=403/0 tl=[]",
    "agents Timeline CoinRank 2: Converged { interactions: 194 } at=226 rng=[10140179903600523362, 571230936825798570, 4943176141504819577, 16887762088109888091] states=[7, 0, 3, 5, 4, 2, 6, 1] log=[(\"converged\", 194)] hooks=226/0 tl=[(0, 8, 0, None, [(\"low\", 8)]), (64, 1, 1, None, [(\"low\", 8)]), (128, 1, 4, None, [(\"high\", 3), (\"low\", 5)]), (192, 1, 6, None, [(\"high\", 4), (\"low\", 4)]), (226, 1, 8, None, [(\"high\", 4), (\"low\", 4)])]",
    "agents Timeline CoinRank+plan 2: Converged { interactions: 371 } at=403 rng=[3139038098789552825, 6273505101582380880, 9189998310079852174, 878280341609826465] states=[7, 0, 3, 5, 6, 4, 1, 2] log=[(\"fault\", 40), (\"fault\", 240), (\"converged\", 371)] hooks=403/0 tl=[(0, 8, 0, None, [(\"low\", 8)]), (64, 1, 4, None, [(\"high\", 2), (\"low\", 6)]), (128, 1, 6, None, [(\"high\", 3), (\"low\", 5)]), (192, 1, 6, None, [(\"high\", 3), (\"low\", 5)]), (256, 2, 6, None, [(\"high\", 3), (\"low\", 5)]), (320, 1, 6, None, [(\"high\", 3), (\"low\", 5)]), (384, 1, 8, None, [(\"high\", 4), (\"low\", 4)]), (403, 1, 8, None, [(\"high\", 4), (\"low\", 4)])]",
];

#[test]
fn ranked_and_chaos_loops_replay_the_pinned_executions() {
    let got = fingerprints();
    for (i, line) in got.iter().enumerate() {
        assert_eq!(Some(line.as_str()), PINNED.get(i).copied(), "run {i}");
    }
    assert_eq!(got.len(), PINNED.len());
}
