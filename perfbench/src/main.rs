//! Command-line entry point; see the crate documentation.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::Report;
use perfbench::serve::{self, ServeParams};
use perfbench::sim::{self, SimParams, SimWorkload};
use perfbench::trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    n: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, n: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--n" => out.n = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !perfbench::WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            perfbench::WORKLOADS.join(", "),
            out.workload
        ));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// Share of the traced `rank-agents` run given to the daemon probe.
const SERVE_PROBE_SHARE: f64 = 0.5;

/// Folds the traced daemon probe into the traced `rank-agents` report: its
/// checks, its notes and its `serve.*` and `client.*` layers. Its engine
/// probes (`scheduler.*`, `protocol.*`, `tracker.*`) and trace totals
/// would repeat names the simulation already reports, so they are left
/// out.
fn absorb_serve_probe(report: &mut Report, probe: Report) {
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.failures.extend(probe.failures.into_iter().map(|f| format!("serve probe: {f}")));
    report.notes.extend(probe.notes.into_iter().map(|n| format!("serve probe: {n}")));
    report.metrics.extend(
        probe
            .metrics
            .into_iter()
            .filter(|m| m.name.starts_with("serve.") || m.name.starts_with("client.")),
    );
}

/// Where runs leave their scratch state and span files: the Cargo target
/// directory, which lies inside the checkout.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-work")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The serve workload starts this same binary as its daemon: the `ssle`
    // executable's whole `main` is this call.
    if argv.first().map(String::as_str) == Some("daemon") {
        return match ssle_cli::run(&argv[1..]) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(1))
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name: &'static str =
        perfbench::WORKLOADS.iter().copied().find(|w| *w == args.workload).expect("validated");
    let work = work_dir();
    let mut tracer = Tracer::new(name);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report: Report = if name == "serve-mixed" {
        let p = ServeParams {
            n: args.n.unwrap_or(serve::SERVE_N),
            seed: args.seed,
            seconds: args.seconds,
            threads,
            state_dir: work.join(format!("serve-state-{}", std::process::id())),
            exe: std::env::current_exe().expect("the running executable has a path"),
        };
        serve::run(&p, args.trace.then_some(&mut tracer))
    } else {
        let workload =
            if name == "rank-agents" { SimWorkload::RankAgents } else { SimWorkload::RankCounts };
        let mut p = SimParams {
            workload,
            n: args.n.unwrap_or(sim::RANK_N),
            seed: args.seed,
            seconds: args.seconds,
        };
        if !args.trace {
            sim::run(&p)
        } else if workload == SimWorkload::RankAgents {
            // The traced run of `rank-agents` also hosts the daemon's
            // layers: the same protocol and backend, served.
            p.seconds = args.seconds * (1.0 - SERVE_PROBE_SHARE);
            let mut report = sim::run_traced(&p, &mut tracer);
            let probe = ServeParams {
                n: args.n.unwrap_or(serve::SERVE_N),
                seed: args.seed,
                seconds: args.seconds * SERVE_PROBE_SHARE,
                threads,
                state_dir: work.join(format!("serve-state-{}", std::process::id())),
                exe: std::env::current_exe().expect("the running executable has a path"),
            };
            absorb_serve_probe(&mut report, serve::run(&probe, Some(&mut tracer)));
            report
        } else {
            sim::run_traced(&p, &mut tracer)
        }
    };
    if args.trace {
        let path = work.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        report.notes.push(match tracer.write_jsonl(&path) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("could not write {}: {e}", path.display()),
        });
    }
    if !report.trial_log.is_empty() {
        let path =
            work.join(format!("trials-{name}-seed{}-trace{}.txt", args.seed, u8::from(args.trace)));
        let written = std::fs::create_dir_all(&work)
            .and_then(|()| std::fs::write(&path, report.trial_log.join("\n") + "\n"));
        report.notes.push(match written {
            Ok(()) => format!("per-trial simulated statistics written to {}", path.display()),
            Err(e) => format!("could not write {}: {e}", path.display()),
        });
    }
    let keys: Vec<String> = if args.trace {
        let layers = perfbench::per_layer();
        for (name, unit) in &layers {
            if report.get(name).is_none() {
                report.metric(name.clone(), 0.0, unit, 0);
            }
        }
        layers.into_iter().map(|(name, _)| name).collect()
    } else {
        perfbench::END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("note   {name:<16} cores {cores}");
    print!("{}", report.render(name, &keys));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
