//! `ledger` — the HCG benchmark: cold compiles, served requests and
//! edit-recompiles, measured end to end and layer by layer.
//!
//! ```text
//! ledger run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! ledger compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! `run` sets the workload up three times, measures it for `--seconds`,
//! sets it up three times more (reporting the median of the six as
//! `setup_s`; a traced run skips this), checks every output, prints each
//! metric with its unit, writes the result document (and, traced, a Chrome
//! trace) under `--out` (default `target/ledger`), and prints a one-line
//! JSON summary last. The workloads and metrics are those of
//! `BENCHMARK.json`; see `README.md` next to this crate.

mod alloc;
mod cold;
mod compare;
mod compile;
mod edit;
mod json;
mod oracle;
mod report;
mod run;
mod serve;
mod spec;
mod stats;
mod streams;
mod trace;

use crate::cold::Cold;
use crate::edit::Edit;
use crate::report::{in_spec_order, Host, RunResult};
use crate::run::Outcome;
use crate::serve::Serve;
use crate::spec::Spec;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: ledger run --workload W [--seed S] [--seconds N] \
                     [--trace 0|1] [--out DIR]\n       \
                     ledger compare PARENT.json... -- CHANGE.json...";

/// Set-ups before the timed window, and again after it; `setup_s` is the
/// median of all of them, so one slow phase of a shared host does not
/// decide it.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        traced: false,
        out: PathBuf::from("target/ledger"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => a.traced = number(value()?)? != 0,
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// A workload's inputs and running state.
enum State {
    Cold(Cold),
    Serve(Serve),
    Edit(Edit),
}

impl State {
    /// Set the workload up; also returns how long that took, in seconds.
    fn setup(workload: &str, seed: u64) -> Result<(State, f64), String> {
        let started = Instant::now();
        let state = match workload {
            "paper-cold" => Cold::setup(true, seed).map(State::Cold),
            "corpus-cold" => Cold::setup(false, seed).map(State::Cold),
            "serve-zipf" => Serve::setup(false, seed).map(State::Serve),
            "serve-cold" => Serve::setup(true, seed).map(State::Serve),
            "edit-replay" => Edit::setup(seed).map(State::Edit),
            other => Err(format!("unknown workload {other}")),
        };
        state
            .map(|s| (s, started.elapsed().as_secs_f64()))
            .map_err(|e| format!("set-up: {e}"))
    }

    fn run(&mut self, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
        let traced_run = |(o, t): (Outcome, Tracer)| (o, Some(t));
        match (self, traced) {
            (State::Cold(w), false) => (w.run(seconds), None),
            (State::Cold(w), true) => traced_run(w.run_traced(seconds)),
            (State::Serve(w), false) => (w.run(seconds), None),
            (State::Serve(w), true) => traced_run(w.run_traced(seconds)),
            (State::Edit(w), false) => (w.run(seconds), None),
            (State::Edit(w), true) => traced_run(w.run_traced(seconds)),
        }
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let spec = Spec::embedded();
    if !spec.workloads.contains(&a.workload) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            a.workload, spec.workloads
        ));
    }

    let mut setup_s = Vec::with_capacity(2 * SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Release the previous set-up (its daemon, its corpus) first.
        drop(state.take());
        let (s, seconds) = State::setup(&a.workload, a.seed)?;
        setup_s.push(seconds);
        state = Some(s);
    }
    let mut state = state.expect("set up at least once");
    // A traced run measures for half as long: its per-layer metrics carry
    // no bound, and it does twice the work per op (traced and plain).
    let seconds = if a.traced {
        a.seconds as f64 / 2.0
    } else {
        a.seconds as f64
    };
    let (mut out, tracer) = state.run(seconds, a.traced);
    drop(state);
    if !a.traced {
        for _ in 0..SETUPS {
            setup_s.push(State::setup(&a.workload, a.seed)?.1);
        }
        out.set("setup_s", stats::median(&setup_s));
    }

    let mut bad = Vec::new();
    for (name, value) in out.metrics.iter_mut() {
        if !value.is_finite() {
            bad.push(name.clone());
            *value = 0.0;
        }
    }
    for name in bad {
        out.verdicts.fail(format!("{name} is not a finite number"));
    }

    let tag = format!("{}-seed{}", a.workload, a.seed);
    let mut files = Vec::new();
    if let Some(t) = &tracer {
        let trace = t.chrome_trace();
        match hcg_obs::json::validate(&trace) {
            Ok(()) => files.push((format!("{tag}.trace.json"), trace)),
            Err(e) => out
                .verdicts
                .fail(format!("Chrome trace does not validate: {e}")),
        }
    }
    let result = RunResult {
        workload: a.workload.clone(),
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        attempted: out.attempted.max(1),
        failed: out.verdicts.failed,
        c_digest: format!(
            "{:016x}",
            oracle::digest_of(std::mem::take(&mut out.digests))
        ),
        metrics: in_spec_order(spec.metrics(a.traced), out.metrics, !a.traced),
    };
    let document = result.to_json(&Host::detect());
    hcg_obs::json::validate(&document).map_err(|e| format!("result document: {e}"))?;
    let mode = if a.traced { "traced" } else { "plain" };
    files.push((format!("{tag}-{mode}.json"), document));
    let written = std::fs::create_dir_all(&a.out).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, text)| std::fs::write(a.out.join(name), text))
    });
    if let Err(e) = written {
        eprintln!(
            "ledger: could not write results under {}: {e}",
            a.out.display()
        );
    }

    for (name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!(
        "{:<44} {:>16} ({} ops attempted, {} failed)",
        "c_digest", result.c_digest, result.attempted, result.failed
    );
    for note in &out.verdicts.notes {
        eprintln!("ledger: check failed: {note}");
    }
    println!("{}", result.summary_line());
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or_else(|| format!("compare needs `--` between the two sets\n{USAGE}"))?;
    let load = |paths: &[String]| -> Result<Vec<RunResult>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                RunResult::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (parent, change) = (load(&args[..split])?, load(&args[split + 1..])?);
    if parent.is_empty() || change.is_empty() {
        return Err(format!("both sets need at least one run\n{USAGE}"));
    }
    let (report, regressed) = compare::compare(&parent, &change);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
