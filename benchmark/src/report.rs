//! What a run leaves behind: the trace file, one record appended to the
//! result file (`benchmark/out/results.jsonl` unless `--out` names
//! another), a human-readable table on stderr, and — last line of stdout —
//! the one-object summary the builder contract reads.

use crate::env::Scratch;
use crate::json::Value;
use crate::measure::Metrics;
use crate::registry::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::Output;
use std::io::Write;
use std::path::Path;

pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub wall_s: f64,
    pub scrubbed_env: &'a [String],
    pub output: &'a Output,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The contract's metrics object: every declared name of the run's kind,
/// in declaration order. A declared metric the run did not produce (or
/// produced as NaN) is a failure of the run, reported as such.
fn contract_metrics(
    names: &[&'static str],
    produced: &Metrics,
    missing: &mut Vec<String>,
) -> Value {
    Value::Obj(
        names
            .iter()
            .map(|name| {
                let value = produced.get(name).filter(|v| v.is_finite());
                if value.is_none() {
                    missing.push((*name).to_string());
                }
                let fields = vec![
                    ("value", Value::Num(value.unwrap_or(0.0))),
                    ("unit", Value::str(unit_of(name))),
                ];
                ((*name).to_string(), Value::obj(fields))
            })
            .collect(),
    )
}

/// Writes everything and prints the summary line.
pub fn emit(
    run: &Run<'_>,
    tracer: &Tracer,
    scratch: &Scratch,
    out: Option<&Path>,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let out_dir = crate::env::out_dir().map_err(|e| io("create benchmark/out", e))?;
    let output = run.output;

    let mut spans = 0;
    if run.trace {
        let path = out_dir.join(format!("trace.{}.json", run.workload));
        spans = tracer.write(&path, run.workload).map_err(|e| io("write trace file", e))?;
        eprintln!("trace: {spans} spans -> {}", path.display());
    }

    let (names, produced): (Vec<&'static str>, &Metrics) = if run.trace {
        (PER_LAYER.iter().map(|m| m.name).collect(), &output.per_layer)
    } else {
        (END_TO_END.iter().map(|m| m.name).collect(), &output.end_to_end)
    };
    let mut missing = Vec::new();
    let metrics = contract_metrics(&names, produced, &mut missing);
    let failed = output.ops.failed + missing.len() as u64;
    let attempted = output.ops.attempted.max(1) + missing.len() as u64;
    let correct = failed == 0;

    eprintln!(
        "{} seed={} trace={} wall={:.1}s",
        run.workload,
        run.seed,
        u8::from(run.trace),
        run.wall_s
    );
    for name in &names {
        if let Some(v) = produced.get(name) {
            eprintln!("  {name:<42} {v:>16.6} {}", unit_of(name));
        }
    }
    for f in &output.ops.failures {
        eprintln!("  FAILED: {f}");
    }
    for name in &missing {
        eprintln!("  FAILED: metric {name} was not produced");
    }

    // Everything set anywhere: this process gets TMPDIR, the durable
    // server its flush policy, the serving server nothing.
    let mut env_set: Vec<(String, Value)> =
        vec![("TMPDIR".to_string(), Value::str(scratch.path().to_string_lossy()))];
    for (k, v) in &output.ingest_server_env {
        env_set.push((format!("ingest server: {k}"), Value::str(v.as_str())));
    }
    let record = Value::obj(vec![
        ("workload", Value::str(run.workload)),
        ("seed", Value::Num(run.seed as f64)),
        ("seconds", Value::Num(run.seconds)),
        ("trace", Value::Bool(run.trace)),
        ("scale", Value::str(if run.smoke { "smoke" } else { "full" })),
        ("wall_s", Value::Num(run.wall_s)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "failures",
            Value::Arr(output.ops.failures.iter().map(|f| Value::str(f.as_str())).collect()),
        ),
        ("metrics", produced.to_json(unit_of, |n| names.contains(&n))),
        // Measured on the way, declared for the other kind of run.
        ("also_measured", produced.to_json(unit_of, |n| !names.contains(&n))),
        ("trace_spans", Value::Num(spans as f64)),
        ("fingerprint", crate::env::fingerprint(scratch.path())),
        (
            "env_removed",
            Value::Arr(run.scrubbed_env.iter().map(|n| Value::str(n.as_str())).collect()),
        ),
        ("env_set", Value::Obj(env_set)),
        ("claim", Value::Null),
    ]);
    let results = out.map_or_else(|| out_dir.join("results.jsonl"), Path::to_path_buf);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .map_err(|e| io("open result file", e))?;
    writeln!(file, "{}", record.to_json()).map_err(|e| io("append result record", e))?;

    let summary = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", summary.to_json());
    Ok(())
}
