//! `compare A.json B.json`: for every end-to-end metric × workload,
//! B's median against A's under the bound `BENCHMARK.json` fixes. Each
//! file holds the records of one set of untraced runs (one JSON object
//! per line, as `run --out` appends them).

use crate::json::{self, Value};
use crate::registry::Better;
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// The declared end-to-end metrics as (name, better, bound), in file
/// order, read from the repo's `BENCHMARK.json` (the file a reviewer
/// sees), not from the harness's own tables.
fn declared() -> Result<Vec<(String, Better, f64)>, String> {
    let path = crate::env::benchmark_dir().join("..").join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let root = json::parse(&text)?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut end_to_end = Vec::new();
    for item in list {
        let name =
            item.get("name").and_then(Value::as_str).ok_or("end_to_end entry without a name")?;
        let better = match item.get("better").and_then(Value::as_str) {
            Some("higher") => Better::Higher,
            Some("lower") => Better::Lower,
            other => return Err(format!("{name}: better must be higher or lower, got {other:?}")),
        };
        let bound =
            item.get("bound").and_then(Value::as_f64).ok_or_else(|| format!("{name}: no bound"))?;
        end_to_end.push((name.to_string(), better, bound));
    }
    Ok(end_to_end)
}

/// workload → metric → one value per untraced, correct run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Samples, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut samples = Samples::new();
    let records = json::parse_stream(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let flat = records.iter().flat_map(|v| match v {
        Value::Arr(items) => items.iter().collect::<Vec<_>>(),
        one => vec![one],
    });
    for record in flat {
        if record.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(workload) = record.get("workload").and_then(Value::as_str) else { continue };
        if record.get("correct") != Some(&Value::Bool(true)) {
            eprintln!("{}: skipping an incorrect {workload} run", path.display());
            continue;
        }
        let Some(metrics) = record.get("metrics").and_then(Value::as_obj) else { continue };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                samples
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The rule of the choosing-metrics guide: worse than the bound is a
/// regression; where either side's own spread is wider than the bound the
/// medians cannot be told apart, so the answer is `unresolved` unless
/// every run of one side beats every run of the other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let is_better = |x: f64, y: f64| if better == Better::Lower { x < y } else { x > y };
    let noisy = a.len() > 1 && b.len() > 1 && spread(a).max(spread(b)) > bound;
    if noisy {
        let b_wins = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
        let a_wins = a.iter().all(|&x| b.iter().all(|&y| is_better(x, y)));
        return match (b_wins, a_wins && worse_by > bound) {
            (true, _) => Verdict::Ok,
            (_, true) => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let declared = declared()?;
    let (a, b) = (load(Path::new(a_path))?, load(Path::new(b_path))?);
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict   (base = A: {a_path})",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    );
    let mut counts = (0, 0, 0);
    for (workload, metrics_a) in &a {
        for (name, better, bound) in &declared {
            let (Some(va), Some(vb)) =
                (metrics_a.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                println!("{workload:<16} {name:<24} missing on one side");
                counts.2 += 1;
                continue;
            };
            let v = verdict(va, vb, *better, *bound);
            match v {
                Verdict::Ok => counts.0 += 1,
                Verdict::Regressed => counts.1 += 1,
                Verdict::Unresolved => counts.2 += 1,
            }
            println!(
                "{workload:<16} {name:<24} {:>14.6} {:>14.6} {:>8.4} {:>6.1}% {:>6.1}% {:>5.0}%  {}  (n={}/{})",
                median(va),
                median(vb),
                median(vb) / median(va),
                spread(va) * 100.0,
                spread(vb) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len()
            );
        }
    }
    println!("{} ok, {} regressed, {} unresolved", counts.0, counts.1, counts.2);
    Ok(counts.1 == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_runs_resolve_by_the_bound() {
        let a = [100.0, 101.0, 99.5];
        assert_eq!(verdict(&a, &[102.0, 103.0, 101.0], Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(verdict(&a, &[110.0, 111.0, 109.0], Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&a, &[110.0, 111.0, 109.0], Better::Higher, 0.05), Verdict::Ok);
    }

    #[test]
    fn noisy_interleaved_runs_are_unresolved() {
        let a = [100.0, 140.0, 80.0, 120.0];
        let b = [110.0, 90.0, 150.0, 95.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
        // Every B run beats every A run: resolved despite the noise.
        assert_eq!(verdict(&a, &[50.0, 70.0, 60.0, 40.0], Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&a, &[250.0, 170.0, 160.0, 240.0], Better::Lower, 0.05),
            Verdict::Regressed
        );
    }
}
