//! Extension experiment — re-stabilization under sustained churn and
//! Byzantine agents.
//!
//! For each SSR protocol (and each backend that can represent it) this
//! binary runs soak-style trials over a churn-rate × Byzantine-fraction
//! grid: the population starts in an adversarial random configuration, a
//! `ChurnPlan` replaces agents at the given rate (one departure plus one
//! adversarial join per event, so `n` drifts only through clamping), and a
//! `ByzantineSet` pins the given fraction of agents to an adversarial
//! transition. The report is an availability surface: what fraction of the
//! execution each protocol spent with a unique leader (and with the full
//! ranking in place), and how fast it re-stabilized after each membership
//! event.
//!
//! The `(0, 0)` cell is the undisturbed baseline, anchoring the
//! availability scale (a sentinel event holds it open to the full budget
//! so every cell measures the same window). The governing ratio turns out
//! to be re-stabilization time over churn period: Sublinear-Time-SSR, the
//! fastest stabilizer, retains most of its ranked availability under mild
//! churn, while Silent-n-state-SSR's in-place repair is *slower* than a
//! full reset at these sizes and collapses first. Any nonzero Byzantine
//! fraction denies full ranking outright — a pinned adversary is an
//! unbounded fault rate.
//!
//! With `--json-out <path>` the per-trial measurements are written as a
//! schema-v6 JSONL stream of `kind = "churn"` rows plus per-event
//! `kind = "fault"` rows (see `results/README.md`), which `ssle report`
//! re-analyzes without re-running anything.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ssle-bench --bin churn_resilience -- \
//!     [--trials 6] [--seed 1] [--n 32] [--h 2] [--time 2000] \
//!     [--threads auto] [--progress 1] [--quick 1] \
//!     [--json-out results/churn.jsonl]
//! ```
//!
//! `--quick 1` shrinks the grid and trial count for CI smoke runs.
//! `--progress 1` emits a stderr heartbeat after each grid cell; trial
//! batches run in parallel inside a cell, so the cell is the natural
//! granularity. The heartbeat does not touch any run.

use std::hash::Hash;

use population::record::{to_jsonl_mixed, RecordLine};
use population::{
    timed, BatchSimulation, ByzantineSet, ChurnPlan, Corruptor, DynamicsTrialOutcome, FaultPlan,
    Progress, Runner, Simulation, TrialSettings,
};
use rand::rngs::SmallRng;
use rand::Rng;
use ssle::adversary;
use ssle::{CaiIzumiWada, OptimalSilentSsr, SublinearTimeSsr};
use ssle_bench::cli::Flags;

const EXPERIMENT: &str = "churn";

/// The grid axes: replacement churn rates (events per unit of parallel
/// time) and Byzantine fractions. The rates bracket the protocols'
/// re-stabilization times at the default n = 32 (E\[stab\] ≈ 433 for
/// Silent-n-state-SSR, ≈ 108 for Optimal-Silent-SSR): 0.005 leaves ~200
/// time units between membership events — enough for the faster protocols
/// to re-rank — while 0.05 (one event per 20 units) outpaces every reset.
fn grid(quick: bool) -> (Vec<f64>, Vec<f64>) {
    if quick {
        (vec![0.0, 0.05], vec![0.0, 0.1])
    } else {
        (vec![0.0, 0.005, 0.05], vec![0.0, 0.05, 0.15])
    }
}

/// Means over the trials of one grid cell.
struct CellStats {
    availability: f64,
    ranked_availability: f64,
    replacements: f64,
    strikes: f64,
    faults: u64,
    recovered: u64,
    mean_recovery: Option<f64>,
}

fn summarize(outcomes: &[DynamicsTrialOutcome]) -> CellStats {
    let trials = outcomes.len().max(1) as f64;
    let recoveries: Vec<f64> =
        outcomes.iter().filter_map(|o| o.report.chaos.mean_recovery_parallel_time()).collect();
    CellStats {
        availability: outcomes.iter().map(|o| o.report.chaos.availability()).sum::<f64>() / trials,
        ranked_availability: outcomes
            .iter()
            .map(|o| o.report.chaos.ranked_availability())
            .sum::<f64>()
            / trials,
        replacements: outcomes.iter().map(|o| o.report.replacements).sum::<u64>() as f64 / trials,
        strikes: outcomes.iter().map(|o| o.report.byz_strikes).sum::<u64>() as f64 / trials,
        faults: outcomes.iter().map(|o| o.report.chaos.faults.len() as u64).sum(),
        recovered: outcomes.iter().map(|o| o.report.chaos.recovered() as u64).sum(),
        mean_recovery: (!recoveries.is_empty())
            .then(|| recoveries.iter().sum::<f64>() / recoveries.len() as f64),
    }
}

/// The churn plan for one cell. Undisturbed cells (`rate == 0`, no
/// Byzantine agents) get a one-shot replacement scheduled far past the
/// trial horizon: it never fires, but it keeps the run open to the full
/// interaction budget, so every cell measures availability over the same
/// window. (An empty plan would let the run exit at the first full
/// ranking, making "fraction of time ranked" ≈ 0 by construction.)
fn cell_plan(rate: f64, byz: f64, budget: u64, seed: u64) -> ChurnPlan {
    let plan = ChurnPlan::new(seed).rate(rate);
    if rate == 0.0 && byz == 0.0 {
        // Parallel time after `budget` interactions is budget / n ≤ budget.
        plan.replace_at(budget as f64 * 4.0, 1)
    } else {
        plan
    }
}

/// One trial's protocol, adversarial random start, churn plan, and
/// Byzantine set for the `(rate, byz)` cell, drawn from the trial's config
/// RNG so the grid is deterministic in the base seed.
fn cell_start<P: Corruptor>(
    make_protocol: impl Fn() -> P,
    rate: f64,
    byz: f64,
    budget: u64,
    rng: &mut SmallRng,
) -> (P, Vec<P::State>, ChurnPlan, ByzantineSet) {
    let protocol = make_protocol();
    let initial = adversary::random_configuration(&protocol, rng);
    let churn = cell_plan(rate, byz, budget, rng.gen());
    let byzset = ByzantineSet { fraction: byz, seed: rng.gen() };
    (protocol, initial, churn, byzset)
}

/// Runs one grid cell on the agent-array backend: `trials` soak-style runs
/// under sustained replacement churn at `rate` and Byzantine fraction
/// `byz`.
fn cell<P, M>(
    make_protocol: M,
    rate: f64,
    byz: f64,
    settings: TrialSettings,
    threads: usize,
) -> Vec<DynamicsTrialOutcome>
where
    P: Corruptor + Send,
    P::State: Send,
    M: Fn() -> P + Sync,
{
    let budget = settings.max_interactions;
    let body = |trial, rng: &mut SmallRng, seed| {
        let (protocol, initial, churn, byzset) = cell_start(&make_protocol, rate, byz, budget, rng);
        let n = initial.len();
        let mut sim = Simulation::new(protocol, initial, seed).with_fault_plan(&FaultPlan::none());
        let (report, wall) = timed(|| sim.run_dynamics(&churn, &byzset, budget));
        DynamicsTrialOutcome { trial, n, report, wall }
    };
    Runner::new(settings).run(threads, body, |_| {})
}

/// [`cell`] on the count-based backend (lumped Byzantine model).
fn cell_counts<P, M>(
    make_protocol: M,
    rate: f64,
    byz: f64,
    settings: TrialSettings,
    threads: usize,
) -> Vec<DynamicsTrialOutcome>
where
    P: Corruptor + Send,
    P::State: Eq + Hash + Send,
    M: Fn() -> P + Sync,
{
    let budget = settings.max_interactions;
    let body = |trial, rng: &mut SmallRng, seed| {
        let (protocol, initial, churn, byzset) = cell_start(&make_protocol, rate, byz, budget, rng);
        let n = initial.len();
        let mut sim =
            BatchSimulation::new(protocol, initial, seed).with_fault_plan(&FaultPlan::none());
        let (report, wall) = timed(|| sim.run_dynamics(&churn, &byzset, budget));
        DynamicsTrialOutcome { trial, n, report, wall }
    };
    Runner::new(settings).run(threads, body, |_| {})
}

/// Runs the full churn × Byzantine grid for one (protocol, backend) pair
/// and prints its table; `measure` executes one cell.
#[allow(clippy::too_many_arguments)]
fn run_grid<F>(
    label: &str,
    protocol: &str,
    backend: &str,
    n: usize,
    h: Option<u64>,
    seed: u64,
    quick: bool,
    records: &mut Vec<RecordLine>,
    meter: &mut Progress,
    cells_done: &mut u64,
    measure: F,
) where
    F: Fn(f64, f64) -> Vec<DynamicsTrialOutcome>,
{
    let (rates, fractions) = grid(quick);
    println!("{label}  (n = {n}, backend {backend})");
    println!(
        "{:>7} {:>6} {:>8} {:>8} {:>10} {:>9} {:>11} {:>12}",
        "churn", "byz", "avail", "ranked", "replaced", "strikes", "recovered", "E[recovery]"
    );
    for &rate in &rates {
        for &byz in &fractions {
            let outcomes = measure(rate, byz);
            *cells_done += 1;
            meter.tick(*cells_done, &format!("{protocol}/{backend} churn={rate} byz={byz} done"));
            let spec = format!("{rate}");
            for o in &outcomes {
                records.push(RecordLine::Churn(
                    o.churn_record(EXPERIMENT, protocol, backend, h, seed, &spec, byz),
                ));
                records.extend(
                    o.fault_records(EXPERIMENT, protocol, h, seed)
                        .into_iter()
                        .map(RecordLine::Fault),
                );
            }
            let s = summarize(&outcomes);
            let rec = s.mean_recovery.map_or("-".to_string(), |r| format!("{r:.1}"));
            println!(
                "{:>7} {:>6} {:>8.3} {:>8.3} {:>10.1} {:>9.1} {:>8}/{:<2} {:>12}",
                rate,
                byz,
                s.availability,
                s.ranked_availability,
                s.replacements,
                s.strikes,
                s.recovered,
                s.faults,
                rec,
            );
        }
    }
    println!();
}

fn main() {
    let flags = Flags::parse(&[
        "trials", "seed", "n", "h", "time", "threads", "json-out", "progress", "quick",
    ]);
    let quick = flags.get::<u64>("quick", 0) != 0;
    let trials: u64 = flags.get("trials", if quick { 2 } else { 6 });
    let seed: u64 = flags.get("seed", 1);
    let n: usize = flags.get("n", if quick { 16 } else { 32 });
    let h: u32 = flags.get("h", 2);
    // Long enough that the undisturbed baseline spends most of the trial
    // ranked (Silent-n-state-SSR stabilizes around 433 at n = 32), so the
    // availability surface has a meaningful ceiling to collapse from.
    let time: f64 = flags.get("time", if quick { 600.0 } else { 2_000.0 });
    let threads = flags.threads();
    let budget = (time * n as f64).ceil() as u64;
    let settings = TrialSettings::new(trials, seed, budget, 0);
    let (rates, fractions) = grid(quick);
    // ciw/oss run on both backends; sublinear states are unhashable, so it
    // runs on the agent array only.
    let total_cells = (rates.len() * fractions.len() * 5) as u64;
    let mut meter = if flags.get::<u64>("progress", 0) != 0 {
        Progress::new("churn grid", total_cells, "cells")
    } else {
        Progress::disabled()
    };
    let mut cells_done = 0u64;
    let mut records: Vec<RecordLine> = Vec::new();

    println!("Churn resilience — sustained replacement churn × Byzantine fraction");
    println!(
        "{trials} trial(s) per cell, seed {seed}, {time} parallel-time units per trial; \
         churn in replacements per time unit\n"
    );

    run_grid(
        "Silent-n-state-SSR [Cai–Izumi–Wada]",
        "ciw",
        "agents",
        n,
        None,
        seed,
        quick,
        &mut records,
        &mut meter,
        &mut cells_done,
        |rate, byz| cell(|| CaiIzumiWada::new(n), rate, byz, settings, threads),
    );
    run_grid(
        "Silent-n-state-SSR [Cai–Izumi–Wada]",
        "ciw",
        "counts",
        n,
        None,
        seed,
        quick,
        &mut records,
        &mut meter,
        &mut cells_done,
        |rate, byz| cell_counts(|| CaiIzumiWada::new(n), rate, byz, settings, threads),
    );
    run_grid(
        "Optimal-Silent-SSR",
        "oss",
        "agents",
        n,
        None,
        seed,
        quick,
        &mut records,
        &mut meter,
        &mut cells_done,
        |rate, byz| cell(|| OptimalSilentSsr::new(n), rate, byz, settings, threads),
    );
    run_grid(
        "Optimal-Silent-SSR",
        "oss",
        "counts",
        n,
        None,
        seed,
        quick,
        &mut records,
        &mut meter,
        &mut cells_done,
        |rate, byz| cell_counts(|| OptimalSilentSsr::new(n), rate, byz, settings, threads),
    );
    run_grid(
        &format!("Sublinear-Time-SSR, H = {h}"),
        "sublinear",
        "agents",
        n,
        Some(h as u64),
        seed,
        quick,
        &mut records,
        &mut meter,
        &mut cells_done,
        |rate, byz| cell(|| SublinearTimeSsr::new(n, h), rate, byz, settings, threads),
    );
    meter.finish(cells_done, "grid complete");

    println!("reading: churn tolerance tracks re-stabilization speed — a protocol keeps its");
    println!("ranking only while E[stabilize] stays below the churn period, so the fastest");
    println!("stabilizer degrades last; any pinned Byzantine agent denies full ranking.");

    if let Some(path) = flags.try_get_str("json-out") {
        std::fs::write(path, to_jsonl_mixed(&records))
            .unwrap_or_else(|e| panic!("cannot write --json-out {path:?}: {e}"));
        println!("\nwrote {} records to {path} (schema: results/README.md)", records.len());
    }
}
