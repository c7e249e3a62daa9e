//! `check [RESULT.json ...]`: `BENCHMARK.json` against the builder
//! contract's limits and against this crate's own declarations; the names
//! result files actually emitted against the names declared; and, inside a
//! git checkout, the change confined to the benchmark's own paths.

use crate::json::{self, Value};
use crate::registry::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;

fn name_ok(name: &str) -> bool {
    let body = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(body)
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(value: &Value) -> Vec<&str> {
    value.as_obj().map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect()).unwrap_or_default()
}

struct Report {
    problems: Vec<String>,
}

impl Report {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// One metric list of `BENCHMARK.json` against the contract's limits.
fn check_metrics(r: &mut Report, root: &Value, list: &str, with_bound: bool, max: usize) {
    let items = root.get(list).and_then(Value::as_arr).unwrap_or_default();
    r.require((1..=max).contains(&items.len()), || {
        format!("{list}: {} entries, allowed 1..={max}", items.len())
    });
    let expected_keys: &[&str] =
        if with_bound { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    for item in items {
        let name = item.get("name").and_then(Value::as_str).unwrap_or("");
        r.require(keys(item) == expected_keys, || {
            format!("{list}/{name}: keys {:?}, expected {expected_keys:?}", keys(item))
        });
        r.require(name_ok(name), || format!("{list}: bad name '{name}'"));
        let unit = item.get("unit").and_then(Value::as_str).unwrap_or("");
        r.require(unit_ok(unit), || format!("{list}/{name}: bad unit '{unit}'"));
        let better = item.get("better").and_then(Value::as_str).unwrap_or("");
        r.require(matches!(better, "higher" | "lower"), || {
            format!("{list}/{name}: better is '{better}'")
        });
        let bound = item.get("bound").and_then(Value::as_f64);
        if with_bound {
            r.require(bound.is_some_and(|b| b > 0.0 && b <= 0.25), || {
                format!("{list}/{name}: bound {bound:?} not in (0, 0.25]")
            });
        }
    }
    let names: BTreeSet<&str> =
        items.iter().filter_map(|i| i.get("name").and_then(Value::as_str)).collect();
    r.require(names.len() == items.len(), || format!("{list}: a name is used twice"));
}

fn check_benchmark_json(r: &mut Report, root: &Value) {
    let expected = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    let mut have = keys(root);
    have.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    r.require(have == want, || format!("BENCHMARK.json keys {have:?}, expected exactly {want:?}"));

    let paths: Vec<&str> = root
        .get("paths")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    r.require((1..=16).contains(&paths.len()), || "paths: 1 to 16 directories".to_string());
    for p in &paths {
        let ok = p.len() <= 200
            && !p.starts_with('/')
            && !p.split('/').any(|part| part == "..")
            && p.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'));
        r.require(ok, || format!("paths: '{p}' is not a plain relative path"));
    }
    let command: Vec<&str> = root
        .get("command")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    r.require((1..=32).contains(&command.len()), || "command: 1 to 32 strings".to_string());
    for arg in &command {
        r.require(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.split('/').any(|p| p == ".."),
            || format!("command: '{arg}' is too long, absolute, or leaves the repo"),
        );
    }
    let seconds = root.get("run_seconds").and_then(Value::as_f64);
    r.require(seconds.is_some_and(|s| s.fract() == 0.0 && (1.0..=60.0).contains(&s)), || {
        format!("run_seconds {seconds:?} is not a whole number in 1..=60")
    });

    let workloads = root.get("workloads").and_then(Value::as_arr).unwrap_or_default();
    r.require((2..=8).contains(&workloads.len()), || {
        format!("{} workloads, allowed 2..=8", workloads.len())
    });
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap_or("");
        let why = w.get("why").and_then(Value::as_str).unwrap_or("");
        r.require(keys(w) == ["name", "why"], || format!("workload {name}: keys {:?}", keys(w)));
        r.require(name_ok(name), || format!("workload: bad name '{name}'"));
        r.require(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), || {
            format!(
                "workload {name}: why must be one line of at most 200 characters ({} now)",
                why.len()
            )
        });
    }

    check_metrics(r, root, "end_to_end", true, 16);
    check_metrics(r, root, "per_layer", false, 128);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    r.require(setup.is_some_and(|m| m.unit == "s" && m.better.as_str() == "lower"), || {
        "end_to_end must include setup_s in s, lower is better".to_string()
    });
    let mut all = BTreeSet::new();
    let unique = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .all(|n| all.insert(n));
    r.require(unique, || "a name is used for two things".to_string());
}

/// The names a result file's records emitted against the declared names.
fn check_result_file(r: &mut Report, path: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    for (i, record) in json::parse_stream(&text)?.iter().enumerate() {
        let traced = record.get("trace") == Some(&Value::Bool(true));
        let declared: BTreeSet<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let emitted: BTreeSet<&str> =
            record.get("metrics").map(keys).unwrap_or_default().into_iter().collect();
        let kind = if traced { "per_layer" } else { "end_to_end" };
        r.require(emitted == declared, || {
            let missing: Vec<_> = declared.difference(&emitted).collect();
            let extra: Vec<_> = emitted.difference(&declared).collect();
            format!("{} record {i}: emitted names differ from {kind}: missing {missing:?}, undeclared {extra:?}", path.display())
        });
        r.require(emitted.iter().all(|n| name_ok(n)), || {
            format!("{} record {i}: a bad metric name", path.display())
        });
    }
    Ok(())
}

/// Inside a git checkout: everything changed against `HEAD` lies under the
/// benchmark's paths or is one of the files the driver itself maintains.
fn check_confined(r: &mut Report, repo: &Path, paths: &[String]) {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
    };
    let (Some(diff), Some(untracked)) = (
        git(&["diff", "--name-only", "HEAD"]),
        git(&["ls-files", "--others", "--exclude-standard"]),
    ) else {
        eprintln!("check: not a git checkout (or no git): change confinement not checked");
        return;
    };
    const DRIVER_FILES: [&str; 5] =
        [".gitignore", "BENCHMARK.json", "CHANGES.md", "ISSUE.md", "REVIEW.md"];
    let changed = String::from_utf8_lossy(&diff.stdout).into_owned()
        + &String::from_utf8_lossy(&untracked.stdout);
    for file in changed.lines().filter(|l| !l.is_empty()) {
        let inside =
            paths.iter().any(|p| file.starts_with(&format!("{}/", p.trim_end_matches('/'))));
        r.require(inside || DRIVER_FILES.contains(&file), || {
            format!("'{file}' is changed but lies outside {paths:?}")
        });
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let repo = crate::env::benchmark_dir().join("..");
    let path = repo.join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut r = Report { problems: Vec::new() };
    // The file is what `declare` prints from `src/registry.rs`, to the
    // byte: names, units, directions, bounds, rationales, command.
    r.require(text == crate::registry::benchmark_json(), || {
        "BENCHMARK.json differs from what `declare` prints from src/registry.rs".to_string()
    });
    r.require(text.len() <= 64 * 1024, || {
        format!("BENCHMARK.json is {} bytes, limit 64 KiB", text.len())
    });
    let root = json::parse(&text)?;
    check_benchmark_json(&mut r, &root);
    for file in args {
        check_result_file(&mut r, Path::new(file))?;
    }
    let paths: Vec<String> = root
        .get("paths")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|p| p.as_str().map(str::to_string))
        .collect();
    check_confined(&mut r, &repo, &paths);
    for p in &r.problems {
        println!("check: {p}");
    }
    println!(
        "check: {} workloads, {} end-to-end, {} per-layer metrics; {} problem(s)",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        r.problems.len()
    );
    Ok(r.problems.is_empty())
}
