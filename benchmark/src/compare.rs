//! `compare a.json b.json`: one row per metric and workload with both
//! medians, the ratio with its base, the bound, and a verdict.
//!
//! A result file is what `run --out` appended: one JSON record per
//! line (`run.sh` writes one file per set of runs).

use crate::harness::{median, quantile};
use crate::json::{self, Value};
use crate::spec::{self, Better};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Values by `(workload, trace, metric)`, failure shares by workload,
/// digests by `(workload, trace, seed)`.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, u8, String), Vec<f64>>,
    failed_share: BTreeMap<(String, u8), f64>,
    digests: BTreeMap<(String, u8, u64), Vec<(String, String)>>,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| record.get(k).ok_or(format!("{path}:{}: no `{k}`", n + 1));
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        let trace = field("trace")?.num().unwrap_or(0.0) as u8;
        let seed = field("seed")?.num().unwrap_or(0.0) as u64;
        let result = field("result")?;
        let count = |k: &str| result.get(k).and_then(Value::num).unwrap_or(0.0);
        let share = count("failed") / count("attempted").max(1.0);
        let worst = set
            .failed_share
            .entry((workload.clone(), trace))
            .or_insert(0.0);
        *worst = worst.max(share);
        for (name, m) in result.get("metrics").map_or(&[][..], Value::fields) {
            if let Some(v) = m.get("value").and_then(Value::num) {
                set.values
                    .entry((workload.clone(), trace, name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        let digests = field("digests")?
            .fields()
            .iter()
            .map(|(k, v)| (k.clone(), v.str().unwrap_or_default().to_string()))
            .collect();
        set.digests.insert((workload, trace, seed), digests);
    }
    Ok(set)
}

/// Interquartile range as a share of the median; 0 below four runs.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs.to_vec()).abs().max(f64::MIN_POSITIVE)
}

pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0;
    println!(
        "{:18} {:40} {:>6} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "a (base)", "b", "b/a", "bound"
    );
    for ((workload, trace, name), a_values) in &a.values {
        let Some(b_values) = b.values.get(&(workload.clone(), *trace, name.clone())) else {
            continue;
        };
        let (am, bm) = (median(a_values.clone()), median(b_values.clone()));
        let ratio = if am == 0.0 { f64::NAN } else { bm / am };
        let meta = spec::metric(name);
        let unit = meta.map_or("", |m| m.unit);
        let (bound, verdict) = match spec::end_to_end(name) {
            Some(m) => {
                let worse = match m.better {
                    Better::Lower => (bm - am) / am,
                    Better::Higher => (am - bm) / am,
                };
                let b_all_better = match m.better {
                    Better::Lower => quantile(b_values, 1.0) < quantile(a_values, 0.0),
                    Better::Higher => quantile(b_values, 0.0) > quantile(a_values, 1.0),
                };
                let noisy = spread(a_values).max(spread(b_values)) > m.bound;
                let verdict = if worse > m.bound {
                    bad += 1;
                    "regressed"
                } else if noisy && !b_all_better {
                    "unresolved"
                } else {
                    "ok"
                };
                (format!("{:.0}%", m.bound * 100.0), verdict)
            }
            None if matches!(unit, "count" | "B") && am != bm => ("-".to_string(), "changed"),
            None => ("-".to_string(), "-"),
        };
        println!("{workload:18} {name:40} {unit:>6} {am:>16.6} {bm:>16.6} {ratio:>8.4} {bound:>6}  {verdict}");
    }
    for (key, a_share) in &a.failed_share {
        let b_share = b.failed_share.get(key).copied().unwrap_or(0.0);
        if b_share > *a_share {
            bad += 1;
            println!(
                "{:18} ops_failed/ops_attempted rose from {a_share:.6} to {b_share:.6} (trace {})",
                key.0, key.1
            );
        }
    }
    for (key, a_digests) in &a.digests {
        if b.digests.get(key).is_some_and(|d| d != a_digests) {
            bad += 1;
            println!(
                "{:18} output digests differ at seed {} (trace {})",
                key.0, key.2, key.1
            );
        }
    }
    if bad == 0 {
        println!("no regression");
        ExitCode::SUCCESS
    } else {
        println!("{bad} regression(s)");
        ExitCode::FAILURE
    }
}
