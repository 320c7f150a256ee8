//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Everything printed to the console is also written to a transcript file,
//! `target/repro_output.txt` by default (`--out PATH` overrides) — the
//! source tree stays clean.
//!
//! ```text
//! cargo run -p hcg-bench --bin repro --release -- all
//! cargo run -p hcg-bench --bin repro --release -- table2
//! cargo run -p hcg-bench --bin repro --release -- fig1 [--wall-clock]
//! cargo run -p hcg-bench --bin repro --release -- fig5
//! cargo run -p hcg-bench --bin repro --release -- fig2 | fig4 | table1
//! cargo run -p hcg-bench --bin repro --release -- memory | gentime | consistency
//! cargo run -p hcg-bench --bin repro --release -- ablation-threshold | ablation-history
//! cargo run -p hcg-bench --bin repro --release -- incremental [--seed S] [--edits N] [--json PATH]
//! cargo run -p hcg-bench --bin repro --release -- fuzz [--seed S] [--iters N] [--threads T] [--beam W] [--json PATH]
//! cargo run -p hcg-bench --bin repro --release -- search [--beam W] [--calibrate] [--seed S] [--iters N] [--json PATH]
//! cargo run -p hcg-bench --bin repro --release -- profile [--model M] [--json PATH] [--trace PATH]
//! cargo run -p hcg-bench --bin repro --release -- verify [--json PATH]
//! cargo run -p hcg-bench --bin repro --release -- lint
//! cargo run -p hcg-bench --bin repro --release -- serve [--port P] [--threads N] [--access-log PATH]
//! cargo run -p hcg-bench --bin repro --release -- serve-smoke
//! cargo run -p hcg-bench --bin repro --release -- obs-bench [--requests N] [--clients C] [--corpus-size M] [--seed S] [--threads N] [--access-log PATH] [--json PATH]
//! ```

use hcg_baselines::SimulinkCoderGen;
use hcg_bench::*;
use hcg_core::{emit::to_c_source, CodeGenerator, HcgGen};
use hcg_isa::Arch;
use hcg_model::{library, ActorKind, KindClass};
use hcg_vm::{Compiler, CostModel};
use std::sync::Mutex;

/// Transcript of everything printed, flushed to disk at exit.
static CAPTURE: Mutex<String> = Mutex::new(String::new());

/// Like `print!`, but also appends to the transcript buffer.
macro_rules! out {
    ($($arg:tt)*) => {{
        let s = format!($($arg)*);
        print!("{s}");
        CAPTURE.lock().unwrap().push_str(&s);
    }};
}

/// Like `println!`, but also appends to the transcript buffer.
macro_rules! outln {
    () => { outln!("") };
    ($($arg:tt)*) => {{
        let s = format!($($arg)*);
        println!("{s}");
        let mut c = CAPTURE.lock().unwrap();
        c.push_str(&s);
        c.push('\n');
    }};
}

fn main() {
    let args = match cli::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match args.cmd.as_deref().unwrap_or("all") {
        "all" => {
            table1_cmd();
            fig1_cmd(args.wall_clock);
            fig2_cmd();
            fig4_cmd();
            table2_cmd();
            fig5_cmd();
            memory_cmd();
            gentime_cmd(args.threads);
            consistency_cmd();
            ablation_threshold_cmd();
            ablation_history_cmd();
            ablation_greedy_cmd();
            fusion_cmd();
            incremental_cmd(&args);
            search_cmd(&args);
            fuzz_cmd(&args);
            profile_cmd(&args);
            lint_cmd();
            verify_cmd(&args);
        }
        "table1" => table1_cmd(),
        "fig1" => fig1_cmd(args.wall_clock),
        "fig2" => fig2_cmd(),
        "fig4" => fig4_cmd(),
        "table2" => table2_cmd(),
        "fig5" => fig5_cmd(),
        "memory" => memory_cmd(),
        "gentime" => gentime_cmd(args.threads),
        "consistency" => consistency_cmd(),
        "ablation-threshold" => ablation_threshold_cmd(),
        "ablation-history" => ablation_history_cmd(),
        "ablation-greedy" => ablation_greedy_cmd(),
        "fusion" => fusion_cmd(),
        "incremental" => incremental_cmd(&args),
        "search" => search_cmd(&args),
        "fuzz" => fuzz_cmd(&args),
        "profile" => profile_cmd(&args),
        "lint" => lint_cmd(),
        "verify" => verify_cmd(&args),
        "serve" => serve_cmd(&args),
        "serve-smoke" => serve_smoke_cmd(),
        "obs-bench" => obs_bench_cmd(&args),
        other => {
            eprintln!("unknown experiment {other:?}; see module docs for the list");
            std::process::exit(2);
        }
    }
    write_transcript(&args.out_path);
}

/// Write the captured console output under `target/` (or `--out PATH`).
fn write_transcript(path: &std::path::Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, CAPTURE.lock().unwrap().as_bytes()) {
        Ok(()) => eprintln!("\n(transcript written to {})", path.display()),
        Err(e) => eprintln!("\nwarning: could not write {}: {e}", path.display()),
    }
}

fn heading(title: &str) {
    outln!("\n================================================================");
    outln!("{title}");
    outln!("================================================================");
}

fn table1_cmd() {
    heading("Table 1 — supported intensive and batch computing actors");
    outln!("(a) intensive computing actors:");
    for k in ActorKind::ALL {
        if k.class() == KindClass::Intensive {
            outln!("    {k}");
        }
    }
    outln!("(b) batch computing actors:");
    for k in ActorKind::ALL {
        if k.class() == KindClass::Batch {
            outln!("    {k}");
        }
    }
}

fn fig1_cmd(wall_clock: bool) {
    let unit = if wall_clock { "ns" } else { "ops" };
    heading(&format!(
        "Figure 1 — FFT implementation cost vs input length ({unit}, lower is better)"
    ));
    let lengths = [
        4, 8, 16, 32, 64, 100, 128, 256, 500, 512, 1000, 1024, 2048, 4096,
    ];
    let rows = fig1(&lengths, wall_clock);
    let impls: Vec<String> = rows[0].costs.iter().map(|(n, _)| n.clone()).collect();
    out!("{:>6}", "n");
    for name in &impls {
        out!("{name:>12}");
    }
    outln!("{:>12}", "winner");
    for row in &rows {
        out!("{:>6}", row.n);
        let mut best: Option<(&str, u64)> = None;
        for (name, cost) in &row.costs {
            match cost {
                Some(c) => {
                    out!("{c:>12}");
                    if best.is_none_or(|(_, b)| *c < b) {
                        best = Some((name, *c));
                    }
                }
                None => out!("{:>12}", "-"),
            }
        }
        outln!("{:>12}", best.map(|(n, _)| n).unwrap_or("-"));
    }
    outln!("\nAlgorithm-1 winners (OpCount meter):");
    for (n, winner) in fig1_winners(&lengths) {
        outln!("    n={n:<5} -> {winner}");
    }
}

fn fig2_cmd() {
    heading("Figure 2 — sample batch model: Coder's unrolled code vs HCG's SIMD");
    let m = library::fig2_model();
    let coder = SimulinkCoderGen::new()
        .generate(&m, Arch::Neon128)
        .expect("generates");
    outln!("--- Simulink-Coder-like (ARM: scalar, expression-folded) ---");
    outln!("{}", to_c_source(&coder));
    let hcg = HcgGen::new()
        .generate(&m, Arch::Neon128)
        .expect("generates");
    outln!("--- HCG (fused SIMD) ---");
    outln!("{}", to_c_source(&hcg));
}

fn fig4_cmd() {
    heading("Figure 4 / Listing 1 — dataflow graph mapping on the sample model");
    let m = library::fig4_model();
    // Narrate the mapping like the paper's Figure 4 walk-through.
    let ctx = hcg_core::GenContext::new(&m, Arch::Neon128, "explain").expect("valid model");
    let dispatch = hcg_core::dispatch::classify_all(ctx.model, &ctx.types);
    let (set, index) = hcg_isa::sets::builtin_indexed(Arch::Neon128);
    let regions = hcg_core::batch::form_regions_indexed(&ctx, &dispatch, set, index);
    let order = hcg_core::MatchOrder::LargestFirst;
    for trace in hcg_core::explain_region(&ctx, &regions[0], set, index, order).expect("maps") {
        outln!(
            "  from {:<5} candidates: {:?}",
            trace.start,
            trace.candidates
        );
        outln!(
            "        matched {:<28} -> {}",
            trace.chosen,
            trace.instruction
        );
    }
    outln!();
    let hcg = HcgGen::new()
        .generate(&m, Arch::Neon128)
        .expect("generates");
    outln!("{}", to_c_source(&hcg));
}

fn print_exec_rows(rows: &[ExecRow]) {
    outln!(
        "{:>10} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "Model",
        "Simulink(s)",
        "DFSynth(s)",
        "HCG(s)",
        "vs Simulink",
        "vs DFSynth"
    );
    for r in rows {
        outln!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3} {:>13.1}% {:>13.1}%",
            r.model,
            r.simulink_s,
            r.dfsynth_s,
            r.hcg_s,
            r.improvement_vs_simulink(),
            r.improvement_vs_dfsynth()
        );
    }
    let range = |f: fn(&ExecRow) -> f64| {
        let lo = rows.iter().map(f).fold(f64::MAX, f64::min);
        let hi = rows.iter().map(f).fold(f64::MIN, f64::max);
        (lo, hi)
    };
    let (ls, hs) = range(ExecRow::improvement_vs_simulink);
    let (ld, hd) = range(ExecRow::improvement_vs_dfsynth);
    outln!("  improvement ranges: {ls:.1}%-{hs:.1}% vs Simulink, {ld:.1}%-{hd:.1}% vs DFSynth");
}

fn table2_cmd() {
    heading(
        "Table 2 — execution time on ARM (Cortex-A72-like) with GCC-like compiler, 10 000 iterations",
    );
    print_exec_rows(&table2(0));
    outln!("  (paper reports 41.3%-71.9% vs Simulink Coder, 41.2%-75.4% vs DFSynth)");
}

fn fig5_cmd() {
    heading("Figure 5 — six benchmarks on ARM/Intel x GCC/Clang");
    for (platform, rows) in fig5(0) {
        outln!(
            "\n  ({}) {} + {} [{} iterations]",
            match (platform.arch, platform.compiler) {
                (Arch::Neon128, Compiler::GccLike) => "a",
                (Arch::Avx256, Compiler::GccLike) => "b",
                (Arch::Neon128, Compiler::ClangLike) => "c",
                _ => "d",
            },
            platform.arch,
            platform.compiler,
            iterations_for(platform.arch)
        );
        print_exec_rows(&rows);
    }
}

fn memory_cmd() {
    heading("Section 4.1 — memory usage of generated code (paper: within 1%)");
    outln!(
        "{:>10} {:>12} {:>12} {:>12} {:>8}",
        "Model",
        "Simulink(B)",
        "DFSynth(B)",
        "HCG(B)",
        "spread"
    );
    for r in memory_table(Arch::Neon128) {
        let (a, b, c) = r.bytes;
        let max = a.max(b).max(c) as f64;
        let min = a.min(b).min(c) as f64;
        outln!(
            "{:>10} {:>12} {:>12} {:>12} {:>7.2}%",
            r.model,
            a,
            b,
            c,
            (max - min) / max * 100.0
        );
    }
}

fn gentime_cmd(threads: usize) {
    heading("Section 4.1 — code generation time (paper: 1-2 s for all tools)");
    outln!(
        "{:>10} {:>14} {:>14} {:>14}",
        "Model",
        "Simulink(us)",
        "DFSynth(us)",
        "HCG(us)"
    );
    // `--threads 0` (the default) keeps the historical sequential timing.
    for r in gentime_threads(Arch::Neon128, threads.max(1)) {
        outln!(
            "{:>10} {:>14} {:>14} {:>14}",
            r.model,
            r.micros.0,
            r.micros.1,
            r.micros.2
        );
    }

    outln!("\nPer-stage breakdown (one CompileSession per model, NEON):");
    let t0 = hcg_model::stats::type_inference_runs();
    let s0 = hcg_model::stats::schedule_runs();
    let reports = gentime_reports(Arch::Neon128);
    let pipelines: usize = reports.iter().map(|(_, rs)| rs.len()).sum();
    for (model, reports) in &reports {
        outln!("\n  -- {model} --");
        for report in reports {
            for line in report.render().lines() {
                outln!("  {line}");
            }
        }
    }
    outln!(
        "\n  front-end reuse: {} scheduling run(s) served {} generator pipelines \
         ({} type-inference runs, incl. one per model at construction)",
        hcg_model::stats::schedule_runs() - s0,
        pipelines,
        hcg_model::stats::type_inference_runs() - t0
    );
}

fn consistency_cmd() {
    heading("Section 4.1 — computation results consistent across generators");
    for m in benchmark_models() {
        for arch in Arch::ALL {
            let c = check_consistency(&m, arch, 3, 99);
            outln!(
                "  {:>10} on {:>8}: max relative diff {:.3e}",
                c.model,
                format!("{}", c.arch),
                c.max_diff
            );
        }
    }
}

fn ablation_threshold_cmd() {
    heading("Section 4.3 ablation — SIMD threshold: chains of N batch Adds (i32*1024), ARM+GCC");
    let rows = ablation_threshold(1024, 6, CostModel::new(Arch::Neon128, Compiler::GccLike));
    outln!(
        "{:>8} {:>14} {:>14} {:>10}",
        "actors",
        "SIMD cycles",
        "scalar cycles",
        "speedup"
    );
    for r in rows {
        outln!(
            "{:>8} {:>14} {:>14} {:>9.2}x",
            r.region_size,
            r.simd_cycles,
            r.scalar_cycles,
            r.scalar_cycles as f64 / r.simd_cycles as f64
        );
    }
}

fn ablation_history_cmd() {
    heading("Algorithm 1 ablation — selection-history cache (wall-clock meter)");
    let a = ablation_history(1024);
    outln!(
        "  cold synthesis (pre-calculation runs): {:>8} us",
        a.cold_micros
    );
    outln!(
        "  warm synthesis (history hit):          {:>8} us",
        a.warm_micros
    );
    outln!(
        "  speedup: {:.1}x",
        a.cold_micros as f64 / a.warm_micros.max(1) as f64
    );
}

fn ablation_greedy_cmd() {
    heading("Greedy-order ablation — largest-first vs smallest-first subgraph matching (ARM+GCC)");
    outln!(
        "{:>10} {:>22} {:>22}",
        "Model",
        "largest (vops/cyc)",
        "smallest (vops/cyc)"
    );
    for r in ablation_greedy_order(CostModel::new(Arch::Neon128, Compiler::GccLike)) {
        outln!(
            "{:>10} {:>13}/{:<8} {:>13}/{:<8}",
            r.model,
            r.largest_first.0,
            r.largest_first.1,
            r.smallest_first.0,
            r.smallest_first.1
        );
    }
}

fn fusion_cmd() {
    heading("Instruction mix — batch dataflow nodes vs SIMD instructions HCG emitted (NEON)");
    outln!("{:>10} {:>12} {:>8}", "Model", "batch nodes", "vops");
    for r in fusion_report(Arch::Neon128) {
        outln!("{:>10} {:>12} {:>8}", r.model, r.batch_nodes, r.vops);
    }
}

fn incremental_cmd(args: &cli::CommonArgs) {
    heading("Incremental recompilation — edit-recompile vs from-scratch, data patching");
    let cfg = IncrementalBenchConfig {
        edits: args.edits,
        seed: args.seed,
    };
    let rows = run_incremental_bench(&cfg);
    outln!(
        "  {} edits per model, {} generators x {} arches checked per edit",
        cfg.edits,
        fleet::FLEET_GENERATORS.len(),
        fleet::FLEET_ARCHES.len()
    );
    outln!(
        "  {:>10} {:>6} {:>14} {:>14} {:>9} {:>9}",
        "Model",
        "edits",
        "incr(ms)",
        "scratch(ms)",
        "speedup",
        "patched"
    );
    let all_identical = rows.iter().all(|r| r.identical);
    let (mut inc_total, mut scratch_total) = (0.0f64, 0.0f64);
    for r in &rows {
        inc_total += r.incremental.as_secs_f64();
        scratch_total += r.scratch.as_secs_f64();
        outln!(
            "  {:>10} {:>6} {:>14.2} {:>14.2} {:>8.2}x {:>9}",
            r.model,
            r.edits,
            r.incremental.as_secs_f64() * 1e3,
            r.scratch.as_secs_f64() * 1e3,
            r.speedup(),
            r.programs_patched
        );
    }
    let overall = overall_speedup(&rows);
    outln!("  overall speedup: {overall:.2}x (scratch {scratch_total:.3}s / incremental {inc_total:.3}s)");
    outln!("  incremental programs identical to scratch: {all_identical}");
    outln!(
        "  metrics: {} edits applied, {} programs patched",
        rows.iter().map(|r| r.edits).sum::<usize>(),
        rows.iter().map(|r| r.programs_patched).sum::<u64>()
    );
    if let Some(path) = &args.json {
        write_report_file(path, &incremental_json(&cfg, &rows), "incremental bench");
    }
    assert!(
        all_identical,
        "incremental recompilation diverged from scratch output"
    );
}

fn search_cmd(args: &cli::CommonArgs) {
    heading("Search-based mapping — greedy vs beam region tilings, profile-guided calibration");
    let before = hcg_core::search::stats();
    let report = run_search(args.beam, args.calibrate, args.seed, args.iters);
    let after = hcg_core::search::stats();
    for line in render_search(&report).lines() {
        outln!("  {line}");
    }
    outln!(
        "  search metrics: {} run(s), {} state(s) expanded, {} pruned by lower bound, \
         {} tiling(s) completed, memo {} hit(s) / {} miss(es)",
        after.runs - before.runs,
        after.states_expanded - before.states_expanded,
        after.pruned_lb - before.pruned_lb,
        after.tilings_completed - before.tilings_completed,
        after.memo_hits - before.memo_hits,
        after.memo_misses - before.memo_misses
    );
    if let Some(path) = &args.json {
        write_report_file(path, &search_json(&report), "search report");
    }
    assert!(
        report.gate.all_proved(),
        "beam-mapped programs failed the verification gate; see the table above"
    );
    if report.calibrated {
        assert!(
            !report.strictly_better().is_empty(),
            "calibrated beam search found no strict improvement over greedy"
        );
    }
}

fn fuzz_cmd(args: &cli::CommonArgs) {
    heading("Differential fuzzing — random models through every generator, arch and oracle");
    let mut cfg = hcg_fuzz::FuzzConfig {
        threads: args.threads,
        ..hcg_fuzz::FuzzConfig::new(args.seed, args.iters)
    };
    if args.beam > 0 {
        cfg.oracle.mapping = hcg_core::MappingStrategy::Beam { width: args.beam };
    }
    let report = hcg_fuzz::run_fuzz(&cfg);
    outln!(
        "  {} cases (seed {}), {} actors total, digest {:016x}",
        report.iters,
        report.seed,
        report.total_actors,
        report.cases_digest
    );
    outln!("  hcg mapping strategy: {}", cfg.oracle.mapping.label());
    outln!(
        "  passed: {}/{}  divergences: {}  shrink steps: {}",
        report.passed,
        report.iters,
        report.divergence_count(),
        report.shrink_steps()
    );
    outln!(
        "  corpus: {} committed repro(s) replayed clean",
        report.corpus_replayed
    );
    outln!(
        "  {:.1} cases/s on {} worker(s) ({:.2} s total)",
        report.cases_per_sec(),
        report.threads,
        report.elapsed.as_secs_f64()
    );
    for (key, value) in report.telemetry.iter() {
        if let (Some(stage), hcg_obs::MetricValue::Gauge(secs)) =
            (key.strip_prefix("fuzz.stage_seconds."), value)
        {
            outln!("    {:>18}: {:>9.1} ms", stage, secs * 1e3);
        }
    }
    for f in &report.failures {
        outln!(
            "  FAILURE seed {:016x}: {} divergence(s), shrunk {} -> {} actors{}",
            f.seed,
            f.divergences.len(),
            f.shrink.initial_actors,
            f.shrink.final_actors,
            f.repro
                .as_deref()
                .map(|p| format!(", repro at {p}"))
                .unwrap_or_default()
        );
        for d in &f.divergences {
            outln!("      [{}] {}", d.check, d.detail);
        }
    }
    if let Some(path) = &args.json {
        write_report_file(path, &report.to_json(), "fuzz report");
    }
    assert_eq!(
        report.divergence_count(),
        0,
        "fuzzing found divergences; see the report above"
    );
}

fn profile_cmd(args: &cli::CommonArgs) {
    heading("Execution profile — cost-model cycles attributed to source actors and SIMD regions");
    // Trace the whole matrix: pipeline/pass/session spans light up inside
    // the generators while the profiler prices their output.
    hcg_obs::clear_events();
    hcg_obs::set_tracing(true);
    let entries = profile_matrix(args.model.as_deref());
    hcg_obs::set_tracing(false);
    let events = hcg_obs::take_events();
    if entries.is_empty() {
        outln!(
            "  no benchmark model matches --model {:?}",
            args.model.as_deref().unwrap_or("")
        );
        return;
    }
    for e in &entries {
        // Conservation: per-actor attribution must sum to the VM total.
        assert_eq!(
            e.profile.attributed_cycles(),
            e.profile.total_cycles,
            "cycle attribution diverged from the VM total"
        );
        for line in e.profile.render(5).lines() {
            outln!("  {line}");
        }
        outln!();
    }
    outln!(
        "  conservation: attributed == total cycles for all {} profiles",
        entries.len()
    );
    let spans_of = |cat: &str| events.iter().filter(|e| e.cat == cat).count();
    outln!(
        "  metrics: {} pipeline run(s), {} pass(es) timed; {} trace span(s) captured",
        spans_of("pipeline"),
        spans_of("pass"),
        events.len()
    );
    outln!("\n  span tree (head):");
    for line in hcg_obs::render_tree(&events).lines().take(12) {
        outln!("  {line}");
    }
    if let Some(path) = &args.trace {
        write_report_file(path, &hcg_obs::chrome_trace_json(&events), "trace");
    }
    if let Some(path) = &args.json {
        write_report_file(path, &profile_json(&entries), "profile");
    }
}

/// The model set the static gates cover: the six paper benchmarks plus the
/// bundled example models (the same set `lint --dump-examples` writes out).
fn gate_models() -> Vec<hcg_model::Model> {
    let mut models = benchmark_models();
    models.push(library::fig2_model());
    models.push(library::fig4_model());
    models.push(library::switch_model(256));
    models.push(library::mixed_width_model(256));
    models
}

fn gate_generators() -> Vec<Box<dyn CodeGenerator>> {
    vec![
        Box::new(HcgGen::new()),
        Box::new(SimulinkCoderGen::new()),
        Box::new(hcg_baselines::DfSynthGen::new()),
    ]
}

fn lint_cmd() {
    heading("Static analysis — model and generated-program lints over the bundled models");
    let lib = hcg_kernels::CodeLibrary::new();
    let mut reports = Vec::new();
    let mut programs = 0usize;
    for m in gate_models() {
        reports.push(hcg_analysis::lint_model(&m));
        for generator in gate_generators() {
            for arch in Arch::ALL {
                let prog = generator.generate(&m, arch).unwrap_or_else(|e| {
                    panic!("{} on {arch} failed on {}: {e}", generator.name(), m.name)
                });
                programs += 1;
                reports.push(hcg_analysis::lint_program(&prog, &lib));
            }
        }
    }
    // One shared formatter for every diagnostics consumer; quiet subjects
    // are elided from the transcript.
    let noisy: Vec<&hcg_analysis::LintReport> = reports
        .iter()
        .filter(|r| !r.diagnostics.is_empty())
        .collect();
    let (text, has_errors) = hcg_analysis::format_reports(noisy.iter().copied());
    for line in text.lines() {
        outln!("  {line}");
    }
    let warnings: usize = reports
        .iter()
        .map(|r| r.of_severity(hcg_analysis::Severity::Warning).len())
        .sum();
    outln!(
        "  {} model(s), {} generated program(s) linted: {} finding report(s), {} warning(s)",
        gate_models().len(),
        programs,
        noisy.len(),
        warnings
    );
    assert!(!has_errors, "lint gate found error-severity diagnostics");
}

fn verify_cmd(args: &cli::CommonArgs) {
    heading("Static verification — symbolic equivalence proof for every generated program");
    let arches = [Arch::Neon128, Arch::Avx256];
    let mut rows = Vec::new();
    let mut lint_reports = Vec::new();
    hcg_obs::clear_events();
    hcg_obs::set_tracing(true);
    for m in gate_models() {
        for generator in gate_generators() {
            for arch in arches {
                let prog = generator.generate(&m, arch).unwrap_or_else(|e| {
                    panic!("{} on {arch} failed on {}: {e}", generator.name(), m.name)
                });
                let outcome = hcg_verify::verify_program(&m, &prog).unwrap_or_else(|e| {
                    panic!(
                        "verifier rejected {} {} on {arch}: {e}",
                        m.name,
                        generator.name()
                    )
                });
                let ranges = hcg_verify::range_lint(&prog);
                rows.push(VerifyRow {
                    model: m.name.clone(),
                    generator: generator.name(),
                    arch,
                    outcome,
                    range_findings: ranges.diagnostics.len(),
                });
                lint_reports.push(ranges);
            }
        }
    }
    hcg_obs::set_tracing(false);
    let spans = hcg_obs::take_events();

    outln!(
        "  {:>12} {:>16} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Model",
        "Generator",
        "Arch",
        "proved",
        "elems",
        "exprs",
        "rlints"
    );
    for row in &rows {
        let outcome = &row.outcome;
        outln!(
            "  {:>12} {:>16} {:>8} {:>8} {:>8} {:>8} {:>8}",
            row.model,
            row.generator,
            format!("{}", row.arch),
            if outcome.equivalent { "yes" } else { "NO" },
            outcome.elems,
            outcome.exprs,
            row.range_findings
        );
        if let Some(w) = &outcome.witness {
            outln!("      divergence: {w}");
        }
    }
    // Same shared formatter as the lint front end; value-range findings on
    // the bundled models are advisory warnings, shown but non-fatal.
    let noisy: Vec<&hcg_analysis::LintReport> = lint_reports
        .iter()
        .filter(|r| !r.diagnostics.is_empty())
        .collect();
    let (text, range_errors) = hcg_analysis::format_reports(noisy.iter().copied());
    if !noisy.is_empty() {
        outln!("\n  value-range findings:");
        for line in text.lines() {
            outln!("  {line}");
        }
    }
    let verify_spans = spans.iter().filter(|e| e.cat == "verify").count();
    let proved = rows.iter().filter(|row| row.outcome.equivalent).count();
    outln!(
        "\n  {} program(s) verified, {} proved, {} divergent; {} expression node(s) interned",
        rows.len(),
        proved,
        rows.len() - proved,
        rows.iter().map(|row| row.outcome.exprs).sum::<usize>()
    );
    outln!("  {verify_spans} verify span(s) captured in the tracer");

    if let Some(path) = &args.json {
        write_report_file(path, &verify_json(&rows, range_errors), "verify report");
    }
    assert!(
        proved == rows.len(),
        "static verification found divergent programs; see the table above"
    );
    assert!(
        !range_errors,
        "value-range analysis found error-severity findings on bundled models"
    );
}

fn serve_cmd(args: &cli::CommonArgs) {
    heading("Compile service — hcg-serve daemon in the foreground (POST /shutdown to stop)");
    let handle = hcg_serve::spawn(hcg_serve::ServeConfig {
        addr: format!("127.0.0.1:{}", args.port),
        workers: args.threads,
        access_log: args.access_log.clone(),
        ..hcg_serve::ServeConfig::default()
    })
    .expect("daemon binds");
    outln!("  listening on {}", handle.addr());
    outln!(
        "  POST /compile?generator=hcg|simulink-coder|dfsynth&arch=neon128|sse128|avx256&beam=W"
    );
    outln!(
        "  GET /metrics[?format=prometheus] | GET /health | GET /debug/requests | POST /shutdown"
    );
    if let Some(path) = &args.access_log {
        outln!("  access log: {}", path.display());
    }
    handle.wait();
    outln!("  daemon stopped");
}

fn serve_smoke_cmd() {
    heading("Compile service smoke — two bundled models, twice each, over real TCP");
    for line in run_serve_smoke().lines() {
        outln!("  {line}");
    }
}

fn obs_bench_cmd(args: &cli::CommonArgs) {
    heading("Observability overhead — the serve workload with telemetry layered on");
    let defaults = ObsBenchConfig::default();
    let config = ObsBenchConfig {
        requests: args.requests,
        clients: args.clients,
        corpus_size: args.corpus_size,
        seed: args.seed,
        workers: args.threads,
        access_log: args.access_log.clone().unwrap_or(defaults.access_log),
        ..defaults
    };
    let report = run_obs_bench(&config);
    for line in render_obs_bench(&report).lines() {
        outln!("  {line}");
    }
    if let Some(path) = &args.json {
        write_report_file(
            path,
            &obs_bench_json(&report),
            "observability overhead report",
        );
    }
}

/// Check that `body` is well-formed JSON, then write it and a trailing
/// newline to `path`, creating parent directories.
fn write_report_file(path: &std::path::Path, body: &str, what: &str) {
    if let Err(e) = hcg_obs::json::validate(body) {
        panic!(
            "{what} is not valid JSON ({e}); not writing {}",
            path.display()
        );
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, format!("{body}\n")) {
        Ok(()) => outln!("  ({what} written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
