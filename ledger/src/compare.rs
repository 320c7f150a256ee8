//! `ledger compare A.json… -- B.json…`: two sets of runs (parent and
//! change), one verdict per workload × end-to-end metric, plus exact
//! checks of C digests and generated-code metrics between runs of one seed.
//!
//! A metric is *worse* when the change's median is worse than the parent's
//! by more than the metric's bound; *unresolved* when either side's
//! quartile spread exceeds the bound (unless every change run beats every
//! parent run); *better* when the change wins at least nine in ten paired
//! runs and the medians differ by more than the parent's quartile spread;
//! otherwise *no worse*.

use crate::report::RunResult;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    NoWorse,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Quartile spread as a share of the median (0 for a single run).
fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs().max(1e-12)
}

/// The verdict on the change's runs `b` against the parent's runs `a`.
pub fn judge(a: &[f64], b: &[f64], m: &MetricSpec) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let better = |new: f64, old: f64| {
        if m.higher_is_better {
            new > old
        } else {
            new < old
        }
    };
    let (ma, mb) = (median(a), median(b));
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    if !all_better && (spread(a) > bound || spread(b) > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if m.higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(1e-12);
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let parent_iqr = if a.len() >= 2 {
        let (q1, q3) = quartiles(a);
        q3 - q1
    } else {
        0.0
    };
    if pairs > 0 && 10 * wins >= 9 * pairs && better(mb, ma) && (mb - ma).abs() > parent_iqr {
        Verdict::Better
    } else {
        Verdict::NoWorse
    }
}

/// Whether a per-layer metric measures the generated code: exact for a
/// given commit and seed, so compared for equality rather than a bound.
fn is_generated_code(name: &str) -> bool {
    name.starts_with("cycles.")
        || matches!(
            name,
            "hcg_cycles_geomean" | "speedup_vs_coder_geomean" | "hcg_data_bytes"
        )
}

/// Compare the generated-code metrics of two traced runs of one seed:
/// `NoWorse` when identical, `Better` when some improved and none
/// worsened, `Worse` when any worsened (with the names that changed).
fn generated_code(a: &RunResult, b: &RunResult, per_layer: &[MetricSpec]) -> (Verdict, String) {
    let (mut better, mut worse) = (Vec::new(), Vec::new());
    for m in per_layer.iter().filter(|m| is_generated_code(&m.name)) {
        let (Some(x), Some(y)) = (a.metric(&m.name), b.metric(&m.name)) else {
            continue;
        };
        if x != y {
            let improved = if m.higher_is_better { y > x } else { y < x };
            if improved { &mut better } else { &mut worse }.push(m.name.as_str());
        }
    }
    let verdict = match (better.is_empty(), worse.is_empty()) {
        (true, true) => return (Verdict::NoWorse, " (identical)".to_owned()),
        (_, false) => Verdict::Worse,
        (false, true) => Verdict::Better,
    };
    (verdict, format!(" (better: {better:?}; worse: {worse:?})"))
}

fn fmt_quartiles(v: &[f64]) -> String {
    if v.len() < 2 {
        return format!("{:.4}", v[0]);
    }
    let (q1, q3) = quartiles(v);
    format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
}

/// Compare the runs; returns the report and whether the change regressed
/// (a worse metric or an incorrect run).
pub fn compare(parent: &[RunResult], change: &[RunResult]) -> (String, bool) {
    let spec = Spec::embedded();
    let mut report = String::new();
    let mut regressed = false;
    let mut line = |s: String| {
        report.push_str(&s);
        report.push('\n');
    };
    for r in change.iter().filter(|r| !r.correct()) {
        regressed = true;
        line(format!(
            "{} seed {}: {} failed ops",
            r.workload, r.seed, r.failed
        ));
    }
    for workload in &spec.workloads {
        let pick = |runs: &[RunResult], traced: bool| -> Vec<RunResult> {
            runs.iter()
                .filter(|r| &r.workload == workload && r.traced == traced)
                .cloned()
                .collect()
        };
        let (a, b) = (pick(parent, false), pick(change, false));
        if !a.is_empty() && !b.is_empty() {
            line(format!(
                "{workload}: {} parent run(s), {} change run(s)",
                a.len(),
                b.len()
            ));
            for m in &spec.end_to_end {
                let values = |runs: &[RunResult]| -> Vec<f64> {
                    runs.iter().filter_map(|r| r.metric(&m.name)).collect()
                };
                let (va, vb) = (values(&a), values(&b));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let verdict = judge(&va, &vb, m);
                regressed |= verdict == Verdict::Worse;
                line(format!(
                    "  {:<16} {:>8}  parent {}  change {}  (bound {:.0}%, {} is better)",
                    m.name,
                    verdict.to_string(),
                    fmt_quartiles(&va),
                    fmt_quartiles(&vb),
                    100.0 * m.bound.unwrap_or(0.0),
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                ));
            }
        }
        for traced in [false, true] {
            for ra in pick(parent, traced) {
                let same_seed = pick(change, traced)
                    .into_iter()
                    .find(|rb| rb.seed == ra.seed);
                if let Some(rb) = same_seed {
                    line(format!(
                        "  c_digest seed {}{}: {}",
                        ra.seed,
                        if traced { " (traced)" } else { "" },
                        if ra.c_digest == rb.c_digest {
                            "identical"
                        } else {
                            "DIFFERS"
                        }
                    ));
                }
            }
        }
        for ra in pick(parent, true) {
            let same_seed = pick(change, true).into_iter().find(|rb| rb.seed == ra.seed);
            if let Some(rb) = same_seed {
                let (verdict, notes) = generated_code(&ra, &rb, &spec.per_layer);
                regressed |= verdict == Verdict::Worse;
                line(format!(
                    "  generated code seed {}: {verdict}{notes}",
                    ra.seed
                ));
            }
        }
        let (ta, tb) = (pick(parent, true), pick(change, true));
        if !ta.is_empty() && !tb.is_empty() {
            line("  per-layer medians (traced), parent -> change:".to_owned());
            for m in &spec.per_layer {
                let med = |runs: &[RunResult]| {
                    let v: Vec<f64> = runs.iter().filter_map(|r| r.metric(&m.name)).collect();
                    (!v.is_empty()).then(|| median(&v))
                };
                if let (Some(x), Some(y)) = (med(&ta), med(&tb)) {
                    if x != 0.0 || y != 0.0 {
                        line(format!(
                            "    {:<48} {x:>14.4} -> {y:<14.4} {}",
                            m.name, m.unit
                        ));
                    }
                }
            }
        }
    }
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let lower = metric(false, 0.1);
        assert_eq!(judge(&base, &base, &lower), Verdict::NoWorse);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&base, &slower, &lower), Verdict::Worse);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge(&base, &faster, &lower), Verdict::Better);
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 100.0, 90.0, 110.0,
        ];
        assert_eq!(judge(&base, &noisy, &lower), Verdict::Unresolved);
        // Higher-is-better mirrors it.
        let higher = metric(true, 0.1);
        assert_eq!(judge(&base, &slower, &higher), Verdict::Better);
        let scaled = |f: f64| base.iter().map(|v| v * f).collect::<Vec<_>>();
        assert_eq!(judge(&base, &scaled(0.95), &higher), Verdict::NoWorse);
        assert_eq!(judge(&base, &scaled(0.8), &higher), Verdict::Worse);
    }

    #[test]
    fn compare_flags_regressions_and_digest_changes() {
        let spec = Spec::embedded();
        let run = |seed: u64, scale: f64, digest: &str| RunResult {
            workload: "paper-cold".into(),
            seed,
            seconds: 10,
            traced: false,
            attempted: 1000,
            failed: 0,
            c_digest: digest.into(),
            metrics: spec
                .end_to_end
                .iter()
                .map(|m| {
                    let v = if m.higher_is_better {
                        100.0 / scale
                    } else {
                        100.0 * scale
                    };
                    (m.name.clone(), v + seed as f64 * 0.01, m.unit.clone())
                })
                .collect(),
        };
        let parent: Vec<_> = (0..5).map(|s| run(s, 1.0, "aa")).collect();
        let same: Vec<_> = (0..5).map(|s| run(s, 1.0, "aa")).collect();
        let (text, regressed) = compare(&parent, &same);
        assert!(!regressed, "{text}");
        assert!(text.contains("identical"));
        let slow: Vec<_> = (0..5).map(|s| run(s, 1.5, "bb")).collect();
        let (text, regressed) = compare(&parent, &slow);
        assert!(regressed);
        assert!(text.contains("worse") && text.contains("DIFFERS"), "{text}");
    }

    #[test]
    fn generated_code_is_compared_exactly() {
        let spec = Spec::embedded();
        let traced = |cycles: f64| RunResult {
            workload: "paper-cold".into(),
            seed: 1,
            seconds: 10,
            traced: true,
            attempted: 240,
            failed: 0,
            c_digest: "aa".into(),
            metrics: vec![
                ("hcg_cycles_geomean".into(), cycles, "cycles".into()),
                ("hcg_data_bytes".into(), 100.0, "B".into()),
            ],
        };
        let same = generated_code(&traced(10.0), &traced(10.0), &spec.per_layer);
        assert_eq!(same.0, Verdict::NoWorse);
        assert_eq!(
            generated_code(&traced(10.0), &traced(9.0), &spec.per_layer).0,
            Verdict::Better
        );
        let (verdict, notes) = generated_code(&traced(10.0), &traced(11.0), &spec.per_layer);
        assert_eq!(verdict, Verdict::Worse);
        assert!(notes.contains("hcg_cycles_geomean"));
        let (_, regressed) = compare(&[traced(10.0)], &[traced(11.0)]);
        assert!(regressed);
    }
}
