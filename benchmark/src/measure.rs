//! Timing loops and the bookkeeping every phase shares: repetitions of a
//! fixed unit of work until a time budget is spent, micro-probe loops
//! sized so one timed unit is long enough to trust, the attempted/failed
//! operation count, and the set of metrics a run emits.

use crate::json::Value;
use crate::stats::{median, Summary};
use std::time::{Duration, Instant};

/// Repetitions of a micro-probe's timed unit.
pub const MIN_REPS: usize = 3;

/// Share of a repetition budget spent on untimed warm-up repetitions.
const WARM_UP_SHARE: f64 = 0.2;

/// Repeats `unit` (which returns its own measurement, usually seconds)
/// until `budget` is spent, at least once (a workload calls this once per
/// round, so a metric still rests on three repetitions or more). With
/// `warm_up`,
/// untimed repetitions (at least one) come first: they fill caches, fault
/// mappings in and settle the allocator. The unit is fixed work, so counts
/// inside it repeat exactly; only the repetition count depends on the
/// clock.
pub fn repeat_for<T>(budget: Duration, warm_up: bool, mut unit: impl FnMut() -> T) -> Vec<T> {
    if warm_up {
        let warming = Instant::now();
        loop {
            unit();
            if warming.elapsed() >= budget.mul_f64(WARM_UP_SHARE) {
                break;
            }
        }
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed() < budget {
        samples.push(unit());
    }
    samples
}

/// Times `f` as [`MIN_REPS`] units of at least `unit` each: the inner
/// iteration count is doubled until one unit is long enough (that
/// calibration doubles as warm-up). Returns seconds per call, one sample
/// per unit.
pub fn time_looped(unit: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= unit || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    (0..MIN_REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect()
}

/// Wall time of one call, in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Operations attempted and failed. A refused, timed-out, errored or
/// wrong answer is a failure, and so is a violated correctness check.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the result file and stderr.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what.into());
        }
    }

    /// One correctness check: counted as an attempted operation, failed
    /// when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 16 {
                self.failures.push(f);
            }
        }
    }
}

/// One emitted metric: the reported value plus, where it is a median of
/// repetitions, the repetitions themselves.
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// What `value` is the median of (empty for a single measurement).
    samples: Vec<f64>,
    /// Free-form note (sample count of a latency, percentile actually used).
    note: Option<String>,
}

/// The metrics a run has produced so far, in insertion order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// A single measured value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.items.push(Metric { name: name.to_string(), value, samples: Vec::new(), note: None });
    }

    /// A value with a note on how it was obtained.
    pub fn put_noted(&mut self, name: &str, value: f64, note: String) {
        self.items.push(Metric {
            name: name.to_string(),
            value,
            samples: Vec::new(),
            note: Some(note),
        });
    }

    /// The median of `samples` after mapping each through `f` (for
    /// example seconds → rows/s); the mapped samples are kept.
    pub fn put_median(&mut self, name: &str, samples: &[f64], f: impl Fn(f64) -> f64) {
        let samples: Vec<f64> = samples.iter().map(|&s| f(s)).collect();
        self.items.push(Metric {
            name: name.to_string(),
            value: median(&samples),
            samples,
            note: None,
        });
    }

    /// One value per metric from several rounds of the same phase: the
    /// median of every repetition of every round (a single measurement
    /// counts as one repetition). A slow stretch of a shared box then
    /// moves a minority of the repetitions, not the metric. Metrics
    /// missing from any round are dropped.
    pub fn pool(rounds: Vec<Metrics>) -> Metrics {
        let mut out = Metrics::default();
        let Some(first) = rounds.first() else { return out };
        for metric in &first.items {
            let found: Vec<&Metric> = rounds
                .iter()
                .filter_map(|r| r.items.iter().find(|m| m.name == metric.name))
                .collect();
            if found.len() < rounds.len() {
                continue;
            }
            let samples: Vec<f64> = found
                .iter()
                .flat_map(|m| if m.samples.is_empty() { vec![m.value] } else { m.samples.clone() })
                .collect();
            out.items.push(Metric {
                name: metric.name.clone(),
                value: median(&samples),
                samples,
                note: metric
                    .note
                    .as_ref()
                    .map(|n| format!("{} rounds pooled; round 1: {n}", rounds.len())),
            });
        }
        out
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn merge(&mut self, other: Metrics) {
        self.items.extend(other.items);
    }

    /// Detailed form for the result file of the metrics `keep` selects:
    /// value, unit, and for a median its quartiles and repetition count.
    pub fn to_json(
        &self,
        unit_of: impl Fn(&str) -> &'static str,
        keep: impl Fn(&str) -> bool,
    ) -> Value {
        Value::Obj(
            self.items
                .iter()
                .filter(|m| keep(&m.name))
                .map(|m| {
                    let mut fields = vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(unit_of(&m.name))),
                    ];
                    if !m.samples.is_empty() {
                        fields.push(("reps", Summary::of(&m.samples).to_json()));
                    }
                    if let Some(n) = &m.note {
                        fields.push(("note", Value::str(n.as_str())));
                    }
                    (m.name.clone(), Value::obj(fields))
                })
                .collect(),
        )
    }
}
