//! The four workloads. Each runs all four phases; the phase a workload is
//! named for gets its full size and the run's `--seconds`, the other three
//! run at one small fixed "canary" size that is the same on every
//! workload. A traced run spends its time on the focus phase (half
//! untraced, half traced, which gives the tracer's overhead), the
//! statement decomposition, the server- and durability-layer metrics and
//! the probe battery instead.

use crate::env::Scratch;
use crate::measure::{time_once, Metrics, Ops};
use crate::phases::{ingest, serve, store, train};
use crate::registry::Better;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` numbers are measured at.
    Full,
    /// A tenth of the data: all four workloads inside a minute, for a CI
    /// smoke job. Its numbers are never written down as a baseline.
    Smoke,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    TrainSqlDense,
    TrainOocWide,
    ServeRead,
    IngestDurable,
}

impl Focus {
    pub fn parse(name: &str) -> Option<Focus> {
        match name {
            "train_sql_dense" => Some(Focus::TrainSqlDense),
            "train_ooc_wide" => Some(Focus::TrainOocWide),
            "serve_read" => Some(Focus::ServeRead),
            "ingest_durable" => Some(Focus::IngestDurable),
            _ => None,
        }
    }
}

pub struct Config<'a> {
    pub focus: Focus,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub server_exe: &'a Path,
    pub scratch: &'a Scratch,
}

pub struct Output {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub ops: Ops,
    /// The `BOLTON_*` variables handed to the durable server (the serving
    /// server and this process get none).
    pub ingest_server_env: Vec<(&'static str, String)>,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

impl Config<'_> {
    fn shrink(&self, n: usize) -> usize {
        if self.scale == Scale::Smoke {
            n / 10
        } else {
            n
        }
    }

    fn train_plan(&self, dense_store: &Path) -> train::Plan {
        let s = self.seconds;
        match self.focus {
            // Paper Fig 5 + 2a as a SQL user sees them: narrow rows in memory.
            Focus::TrainSqlDense => train::Plan {
                rows: self.shrink(400_000),
                dim: 50,
                source: train::Source::Synth,
                passes: 1,
                rep_budget: secs(0.6 * s),
                eval_budget: secs(0.1 * s),
            },
            // Fig 2b: wide rows on the disk page heap, ≈ 1 % resident.
            Focus::TrainOocWide => train::Plan {
                rows: self.shrink(48_000),
                dim: 510,
                source: train::Source::StoreOnDisk(dense_store.to_path_buf()),
                passes: 2,
                rep_budget: secs(0.4 * s),
                eval_budget: secs(0.12 * s),
            },
            // Small, but not so small that the bare engine's run fits
            // the caches: at 8 MB (20 000 rows) the ratio against it swung
            // between 2.8 and 4.2 with the box's mood, and at d = 8 a loop
            // is so short that where the allocator puts the model makes
            // it bimodal.
            _ => train::Plan {
                rows: 100_000,
                dim: 50,
                source: train::Source::Synth,
                passes: 1,
                rep_budget: secs(1.8),
                eval_budget: secs(0.3),
            },
        }
    }

    fn store_plan(&self) -> store::Plan {
        if self.focus == Focus::TrainOocWide {
            store::Plan {
                dense_rows: self.shrink(48_000),
                dense_dim: 510,
                dense_chunk_rows: 128,
                dense_passes: 2,
                sparse_rows: self.shrink(200_000),
                sparse_dim: 100_000,
                sparse_nnz: 50,
                sparse_chunk_rows: 1024,
                sparse_passes: 1,
                budget: secs(0.16 * self.seconds),
            }
        } else {
            store::Plan {
                dense_rows: 20_000,
                dense_dim: 64,
                dense_chunk_rows: 256,
                dense_passes: 10,
                sparse_rows: 20_000,
                sparse_dim: 10_000,
                sparse_nnz: 20,
                sparse_chunk_rows: 256,
                sparse_passes: 4,
                budget: secs(0.75),
            }
        }
    }

    fn serve_plan(&self) -> serve::Plan {
        if self.focus == Focus::ServeRead {
            let s = self.seconds;
            // All of the budget at the 44 ms v1 round trip.
            serve::Plan { v1_round_trips: (s / 0.044) as usize, layer_secs: 1.0 }
        } else {
            serve::Plan { v1_round_trips: 24, layer_secs: 1.0 }
        }
    }

    fn ingest_plan(&self) -> ingest::Plan {
        if self.focus == Focus::IngestDurable {
            // Four checkpoint cycles and two fifths of a cycle of log tail,
            // sized for `--seconds` at ≈ 3 000 durable inserts a second.
            let per_cycle = self.shrink((self.seconds * 700.0) as usize).max(200);
            let inserts = per_cycle * 4 + per_cycle * 2 / 5;
            ingest::Plan { inserts, checkpoint_every: per_cycle }
        } else {
            ingest::Plan { inserts: 4_000, checkpoint_every: 900 }
        }
    }
}

/// Rounds the phases of an untraced run take turns for.
const ROUNDS: usize = 3;

/// Sets a phase up `reps` times and keeps the last; returns it with the
/// median set-up time.
fn set_up_median<T>(
    reps: usize,
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let (phase, secs) = time_once(|| set_up(rep));
        last = Some(phase?);
        times.push(secs);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// `primary` of the traced half over the untraced half, oriented so that
/// a value above 1 means tracing cost time.
fn overhead(untraced: &Metrics, traced: &Metrics, primary: &str, better: Better) -> f64 {
    match (untraced.get(primary), traced.get(primary)) {
        (Some(u), Some(t)) if better == Better::Higher => u / t,
        (Some(u), Some(t)) => t / u,
        _ => f64::NAN,
    }
}

/// Prints how long each step of a run took, to stderr.
struct Steps(std::time::Instant);

impl Steps {
    fn done(&mut self, what: &str) {
        eprintln!("  [{:>6.2}s] {what}", self.0.elapsed().as_secs_f64());
        self.0 = std::time::Instant::now();
    }
}

pub fn run(cfg: &Config<'_>, trace: bool) -> Result<(Output, Tracer), String> {
    let mut steps = Steps(std::time::Instant::now());
    let mut ops = Ops::default();
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    let tracer = Tracer::new(trace);
    let off = Tracer::new(false);
    let dir = cfg.scratch.path();
    let focus = cfg.focus;
    let ingest_server_env = ingest::server_env(&cfg.ingest_plan());
    // Big set-ups repeat less: their cost is data volume, which is steady.
    let train_reps =
        if matches!(focus, Focus::TrainSqlDense | Focus::TrainOocWide) { 2 } else { 3 };
    let store_reps = if focus == Focus::TrainOocWide { 1 } else { 3 };

    // ---- set-up (timed; cargo builds happened before) ----
    let (mut store_phase, store_setup) =
        set_up_median(store_reps, |_| store::Phase::set_up(cfg.store_plan(), cfg.seed, dir))?;
    steps.done("store set-up");
    let (mut train_phase, train_setup) = set_up_median(train_reps, |_| {
        let plan = cfg.train_plan(&store_phase.dense_path);
        Ok(train::Phase::set_up(plan, cfg.seed, &dir.join("models"), &mut ops))
    })?;
    steps.done("train set-up");
    let (mut serve_phase, serve_setup) = set_up_median(3, |_| {
        serve::Phase::set_up(cfg.server_exe, cfg.serve_plan(), cfg.seed, &mut ops)
    })?;
    steps.done("serve set-up");
    let (mut ingest_phase, ingest_setup) = set_up_median(3, |rep| {
        let data = cfg.scratch.subdir(&format!("data-{rep}"));
        ingest::Phase::set_up(cfg.server_exe, cfg.ingest_plan(), cfg.seed, data, &mut ops)
    })?;
    steps.done("ingest set-up");
    e2e.put("setup_s", store_setup + train_setup + serve_setup + ingest_setup);

    let share = 1.0 / ROUNDS as f64;
    if !trace {
        // ---- the untraced run: every end-to-end metric ----
        // Train, store and serve take turns for ROUNDS rounds, each
        // spending a share of its budget per round; a metric is the median
        // of all of its repetitions in all rounds. Ingest follows in one
        // piece: its bounded metric is a byte count, which needs no
        // rounds, and the kernel goes on flushing after its fsyncs, which
        // keeps a vCPU awake and makes the open loop's wake-ups — and so
        // `read_p50_ms` — look better than an idle server's.
        let mut rounds: [Vec<Metrics>; 3] = Default::default();
        for _ in 0..ROUNDS {
            rounds[0].push(train_phase.run(&mut ops, &off, share));
            rounds[1].push(store_phase.run(&mut ops, &off, share));
            rounds[2].push(serve_phase.run(&mut ops, &off, share));
        }
        steps.done("train, store and serve phases in rounds");
        drop((train_phase, store_phase, serve_phase));
        for phase in rounds {
            e2e.merge(Metrics::pool(phase));
        }
        e2e.merge(ingest_phase.run(&mut ops, &off, 1.0));
        steps.done("ingest phase");
        // Seven restarts that must each find every acknowledged insert.
        e2e.merge(ingest_phase.kill_and_recover(&mut ops));
        steps.done("kill + recovery");
        return Ok((Output { end_to_end: e2e, per_layer: layer, ops, ingest_server_env }, tracer));
    }

    // ---- the traced run: every per-layer metric ----
    // One round of every phase, traced. The focus phase runs a round
    // untraced first: the ratio of the two is the tracer's own cost.
    let (untraced, primary, better) = match focus {
        Focus::TrainSqlDense | Focus::TrainOocWide => {
            (train_phase.run(&mut ops, &off, share), "train_rows_per_s", Better::Higher)
        }
        Focus::ServeRead => (serve_phase.run(&mut ops, &off, share), "v1_rtt_ms", Better::Lower),
        Focus::IngestDurable => {
            (ingest_phase.run(&mut ops, &off, share), "insert_rows_per_s", Better::Higher)
        }
    };
    let mut traced = train_phase.run(&mut ops, &tracer, share);
    traced.merge(store_phase.run(&mut ops, &tracer, share));
    drop(store_phase);
    traced.merge(serve_phase.run(&mut ops, &tracer, share));
    traced.merge(ingest_phase.run(&mut ops, &tracer, share));
    let ratio = overhead(&untraced, &traced, primary, better);
    layer.merge(traced);
    steps.done("one round of every phase, traced");
    // This workload's own TRAIN statement taken apart.
    layer.merge(train_phase.decompose(&mut ops, &tracer));
    drop(train_phase);
    steps.done("TRAIN decomposition");
    layer.merge(serve_phase.layer_metrics(&mut ops, &tracer));
    drop(serve_phase);
    steps.done("server layer");
    layer.merge(ingest_phase.kill_and_recover(&mut ops));
    drop(ingest_phase);
    steps.done("durability layer");
    layer.merge(crate::probes::run_all(cfg.seed, dir, Duration::from_millis(25), &mut ops));
    steps.done("probe battery");
    layer.put("trace_overhead_ratio", ratio);
    Ok((Output { end_to_end: e2e, per_layer: layer, ops, ingest_server_env }, tracer))
}
