//! `flexbench compare A B`: reads two sets of result files and judges
//! every workload × end-to-end metric pair by the metric's own bound and
//! direction.
//!
//! Verdicts, one row each:
//!
//! * `same` / `MISMATCH` — the metric is a pure function of the seed on
//!   this workload (simulated clock, byte counts), both sides ran the
//!   same seed, and the values are / are not identical. A mismatch is a
//!   behaviour change the PR must declare, however small.
//! * `ok` — B is no worse than A by more than the bound.
//! * `REGRESSED` — B is worse than A by more than the bound.
//! * `unresolved` — either side's own repetitions spread wider than the
//!   bound, so this pair of runs cannot tell.
//! * `missing` — one side has no value.

use crate::json::{self, Value};
use crate::spec::{Better, EndToEnd, Workload, END_TO_END, WORKLOADS};
use crate::stats;
use std::path::Path;

/// How one row came out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Exact metric, identical.
    Same,
    /// Exact metric, different.
    Mismatch,
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Repetition spread exceeds the bound.
    Unresolved,
    /// No value on one side.
    Missing,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }

    /// True for the verdicts that fail a comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Mismatch | Verdict::Regressed | Verdict::Missing
        )
    }
}

/// One side's reading of one metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reading {
    /// The reported value (a median over repetitions, or a count).
    pub value: Option<f64>,
    /// The raw per-repetition values behind it, when the file has them.
    pub reps: Vec<f64>,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// Judges one metric on one workload. `symmetric` also fails a B that is
/// *better* than A by more than the bound — what `selfcheck` needs, since
/// two runs of one commit differing either way means "does not repeat".
pub fn judge(
    m: &EndToEnd,
    w: &Workload,
    same_seed: bool,
    a: &Reading,
    b: &Reading,
    symmetric: bool,
) -> Verdict {
    let (Some(va), Some(vb)) = (a.value, b.value) else {
        return Verdict::Missing;
    };
    if m.exact_when_simulated && w.simulated() && same_seed {
        return if va == vb {
            Verdict::Same
        } else {
            Verdict::Mismatch
        };
    }
    let spread = [&a.reps, &b.reps]
        .into_iter()
        .filter_map(|r| stats::spread(r))
        .fold(0.0, f64::max);
    if spread > m.bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(m.better, va, vb);
    if worse > m.bound || (symmetric && -worse > m.bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One result file, reduced to what `compare` needs.
#[derive(Clone, Debug)]
pub struct Side {
    /// The run's seed.
    pub seed: Option<f64>,
    /// Whether the run's own output checks passed.
    pub correct: bool,
    metrics: Value,
    reps: Value,
}

impl Side {
    /// Parses a result file's text.
    pub fn parse(text: &str) -> Result<Side, String> {
        let v = json::parse(text)?;
        Ok(Side {
            seed: v.get("seed").and_then(Value::as_f64),
            correct: v.get("correct") == Some(&Value::Bool(true)),
            metrics: v.get("metrics").cloned().unwrap_or(Value::Null),
            reps: v.get("reps").cloned().unwrap_or(Value::Null),
        })
    }

    /// This side's reading of `metric`.
    pub fn reading(&self, metric: &str) -> Reading {
        Reading {
            value: self
                .metrics
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            reps: self
                .reps
                .get(metric)
                .and_then(|r| r.get("values"))
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default(),
        }
    }
}

/// Loads the end-to-end result file of `workload` inside `dir`, if there.
fn load(dir: &Path, workload: &str) -> Option<Result<Side, String>> {
    let path = dir.join(format!("{workload}.e2e.json"));
    let text = std::fs::read_to_string(&path).ok()?;
    Some(Side::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
}

/// Compares the result sets in directories `a` and `b`, printing one row
/// per workload × metric. Returns whether nothing failed; a workload
/// absent from both sides is skipped, absent from one side fails.
pub fn compare_dirs(a: &Path, b: &Path, symmetric: bool) -> Result<bool, String> {
    println!(
        "{:<13} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%"
    );
    let mut all_ok = true;
    let mut compared = 0;
    for w in &WORKLOADS {
        let (sa, sb) = match (load(a, w.name), load(b, w.name)) {
            (None, None) => continue,
            (Some(sa), Some(sb)) => (sa?, sb?),
            _ => {
                println!("{:<13} present on one side only", w.name);
                all_ok = false;
                continue;
            }
        };
        compared += 1;
        if !(sa.correct && sb.correct) {
            println!("{:<13} a run's own output checks failed", w.name);
            all_ok = false;
        }
        let same_seed = sa.seed.is_some() && sa.seed == sb.seed;
        for m in &END_TO_END {
            let (ra, rb) = (sa.reading(m.name), sb.reading(m.name));
            let verdict = judge(m, w, same_seed, &ra, &rb, symmetric);
            all_ok &= !verdict.fails();
            let show = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.6}"));
            let worse = match (ra.value, rb.value) {
                (Some(x), Some(y)) => format!("{:+.2}", 100.0 * worsening(m.better, x, y)),
                _ => "-".to_string(),
            };
            println!(
                "{:<13} {:<24} {:>14} {:>14} {:>9} {:>7.1}  {}",
                w.name,
                m.name,
                show(ra.value),
                show(rb.value),
                worse,
                100.0 * m.bound,
                verdict.word()
            );
        }
    }
    if compared == 0 {
        return Err(format!(
            "no result files (<workload>.e2e.json) under {} and {}",
            a.display(),
            b.display()
        ));
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{end_to_end, workload};

    fn reading(value: f64, reps: &[f64]) -> Reading {
        Reading {
            value: Some(value),
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn wall_clock_metrics_use_bound_direction_and_spread() {
        let m = end_to_end("host_ops_per_s").unwrap();
        let w = workload("wan12").unwrap();
        let tight = [99.0, 100.0, 101.0, 100.0];
        let a = reading(100.0, &tight);
        // Values placed relative to the metric's own bound.
        let slightly_worse = reading(100.0 * (1.0 - m.bound / 2.0), &tight);
        let much_worse = reading(100.0 * (1.0 - m.bound * 1.5), &tight);
        let much_better = reading(100.0 * (1.0 + m.bound * 1.5), &tight);
        assert_eq!(judge(m, w, true, &a, &slightly_worse, false), Verdict::Ok);
        assert_eq!(
            judge(m, w, true, &a, &much_worse, false),
            Verdict::Regressed
        );
        // Better by a lot: fine one-sided, a failure to repeat two-sided.
        assert_eq!(judge(m, w, true, &a, &much_better, false), Verdict::Ok);
        assert_eq!(
            judge(m, w, true, &a, &much_better, true),
            Verdict::Regressed
        );
        // One side's repetitions spread wider than the bound.
        let wild = [50.0, 100.0, 150.0, 100.0];
        let noisy = reading(much_worse.value.unwrap(), &wild);
        assert_eq!(judge(m, w, true, &a, &noisy, false), Verdict::Unresolved);
        let none = Reading::default();
        assert_eq!(judge(m, w, true, &a, &none, false), Verdict::Missing);
    }

    #[test]
    fn deterministic_metrics_must_match_exactly_on_the_same_seed() {
        let m = end_to_end("model_lat_p50_ms").unwrap();
        let sim = workload("scale128").unwrap();
        let tcp = workload("tcp3").unwrap();
        let (a, b) = (reading(26.46, &[]), reading(26.47, &[]));
        assert_eq!(judge(m, sim, true, &a, &a.clone(), false), Verdict::Same);
        assert_eq!(judge(m, sim, true, &a, &b, false), Verdict::Mismatch);
        // Different seeds, or a wall-clock workload: back to the bound.
        assert_eq!(judge(m, sim, false, &a, &b, false), Verdict::Ok);
        assert_eq!(judge(m, tcp, true, &a, &b, false), Verdict::Ok);
    }

    #[test]
    fn reads_a_result_file() {
        let text = r#"{"seed": 3, "correct": true,
            "metrics": {"host_ops_per_s": {"value": 1234.5, "unit": "1/s"},
                        "peak_rss_mb": {"value": null, "unit": "MiB"}},
            "reps": {"host_ops_per_s": {"values": [1200, 1234.5, 1300], "quartiles": [1, 2, 3]}}}"#;
        let side = Side::parse(text).unwrap();
        assert_eq!(side.seed, Some(3.0));
        assert!(side.correct);
        let r = side.reading("host_ops_per_s");
        assert_eq!(r.value, Some(1234.5));
        assert_eq!(r.reps, vec![1200.0, 1234.5, 1300.0]);
        assert_eq!(side.reading("peak_rss_mb"), Reading::default());
        assert_eq!(side.reading("nonesuch"), Reading::default());
        assert!(Side::parse("{oops").is_err());
    }
}
