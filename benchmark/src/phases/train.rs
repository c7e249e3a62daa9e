//! The training phase: an analyst's `TRAIN … EPS` through an in-process
//! [`Session`]. One repetition is a noiseless `TRAIN`, a bolt-on `TRAIN`
//! (paper Fig 5) and the bare engine on an in-memory copy of the same
//! rows, back to back, so the two ratios the paper and the roadmap care
//! about are taken between neighbours in time. When tracing, the bolt-on
//! statement is also taken apart by re-issuing its parts through each
//! layer's public API.

use crate::measure::{repeat_for, Metrics, Ops};
use crate::trace::Tracer;
use bolton::output_perturbation::{calibrate_sensitivity, paper_step_size, BoltOnConfig};
use bolton::Budget;
use bolton_bismarck::sql::QueryResult;
use bolton_bismarck::{score_batch, Db, EnginePool, Session, Table};
use bolton_privacy::mechanisms::NoiseMechanism;
use bolton_sgd::{run_psgd, InMemoryDataset, Logistic, SgdConfig, TrainSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub const LAMBDA: f64 = 0.01;
pub const BATCH: usize = 10;

/// Where the training table's rows come from.
pub enum Source {
    /// `CREATE TABLE t (DIM d)` + `SYNTH t ROWS n` in memory.
    Synth,
    /// `CREATE TABLE t FROM STORE '<path>' DISK`: the page heap on a temp
    /// file behind the default 256-page pool.
    StoreOnDisk(PathBuf),
}

pub struct Plan {
    pub rows: usize,
    pub dim: usize,
    pub source: Source,
    pub passes: usize,
    /// Time to spend on repetitions, over all rounds.
    pub rep_budget: Duration,
    /// Time to spend on `EVAL` repetitions, over all rounds.
    pub eval_budget: Duration,
}

pub struct Phase {
    session: Session,
    plan: Plan,
    seed: u64,
    /// The table's rows in memory, copied on first use: what the bare
    /// engine runs on.
    memory: Option<InMemoryDataset>,
}

fn run(session: &mut Session, ops: &mut Ops, sql: &str) -> Option<QueryResult> {
    ops.attempt(1);
    match session.run(sql) {
        Ok(result) => Some(result),
        Err(e) => {
            ops.fail(format!("{sql}: {e}"));
            None
        }
    }
}

/// The `SgdConfig` a bolt-on `TRAIN … LAMBDA λ PASSES k BATCH b` runs.
fn engine_config(loss: &Logistic, rows: usize, passes: usize) -> SgdConfig {
    SgdConfig::new(paper_step_size(loss, rows))
        .with_passes(passes)
        .with_batch_size(BATCH)
        .with_projection(1.0 / LAMBDA)
}

/// One repetition's measurements.
struct Rep {
    noiseless_secs: f64,
    private_secs: f64,
    engine_secs: f64,
    private_acc: f64,
    noiseless_model: Option<Arc<Vec<f64>>>,
}

impl Phase {
    /// Loads the table (timed by the caller as set-up) and warms up: one
    /// single-pass `TRAIN` spawns the pool threads, parses the statement
    /// shape and touches every page once.
    pub fn set_up(plan: Plan, seed: u64, registry: &Path, ops: &mut Ops) -> Phase {
        let _ = std::fs::remove_dir_all(registry);
        let db = Arc::new(Db::with_registry(registry).expect("open model registry"));
        let mut session = Session::new(db);
        match &plan.source {
            Source::Synth => {
                run(&mut session, ops, &format!("CREATE TABLE t (DIM {})", plan.dim));
                run(
                    &mut session,
                    ops,
                    &format!("SYNTH t ROWS {} SEED {seed} NOISE 0.05", plan.rows),
                );
            }
            Source::StoreOnDisk(path) => {
                run(
                    &mut session,
                    ops,
                    &format!("CREATE TABLE t FROM STORE '{}' DISK", path.display()),
                );
            }
        }
        let counted = run(&mut session, ops, "SELECT COUNT(*) FROM t");
        ops.check(counted == Some(QueryResult::Count(plan.rows)), || {
            format!("COUNT(*) after load is {counted:?}, expected {}", plan.rows)
        });
        run(
            &mut session,
            ops,
            &format!(
                "TRAIN warm ON t ALGO noiseless LAMBDA {LAMBDA} PASSES 1 BATCH {BATCH} SEED {seed}"
            ),
        );
        Phase { session, plan, seed, memory: None }
    }

    fn train_sql(&self, model: &str, algo: &str) -> String {
        format!(
            "TRAIN {model} ON t ALGO {algo} LAMBDA {LAMBDA} PASSES {} BATCH {BATCH} SEED {}",
            self.plan.passes, self.seed
        )
    }

    /// Runs one `TRAIN`, returning its wall time and training accuracy.
    fn train(&mut self, ops: &mut Ops, tracer: &Tracer, sql: &str, request: u64) -> (f64, f64) {
        let session = &mut self.session;
        let (result, secs, _) =
            tracer.span("session.run:TRAIN", None, request, || run(session, ops, sql));
        match result {
            Some(QueryResult::Trained { accuracy, .. }) => (secs, accuracy),
            other => {
                if other.is_some() {
                    ops.fail(format!("{sql}: unexpected result {other:?}"));
                }
                (secs, f64::NAN)
            }
        }
    }

    /// One timed round, spending `share` of the plan's budgets; the first
    /// round warms up. Returns `private_overhead_ratio`,
    /// `sql_train_overhead_ratio`, `private_acc` and the raw rates.
    pub fn run(&mut self, ops: &mut Ops, tracer: &Tracer, share: f64) -> Metrics {
        let warm_up = self.memory.is_none();
        if warm_up {
            let handle = self.session.db().table("t").expect("training table");
            self.memory = Some(copy_to_memory(&handle.read().expect("table lock")));
        }
        let memory = self.memory.take().expect("copied above");
        let noiseless_sql = self.train_sql("mn", "noiseless");
        let private_sql = self.train_sql("mp", "bolton EPS 1");
        let loss = Logistic::regularized(LAMBDA, 1.0 / LAMBDA);
        let config = engine_config(&loss, self.plan.rows, self.plan.passes);
        let visited = (self.plan.rows * self.plan.passes) as f64;

        let mut rep = 0u64;
        let reps = repeat_for(self.plan.rep_budget.mul_f64(share), warm_up, || {
            // Alternate which statement of the pair goes first.
            let noiseless_first = rep.is_multiple_of(2);
            let mut noiseless_secs = 0.0;
            let mut private = (0.0, 0.0);
            for is_private in [!noiseless_first, noiseless_first] {
                if is_private {
                    private = self.train(ops, tracer, &private_sql, rep * 3 + 1);
                } else {
                    noiseless_secs = self.train(ops, tracer, &noiseless_sql, rep * 3).0;
                }
            }
            ops.attempt(1);
            let (_, engine_secs, _) =
                tracer.span("sgd.run_psgd(memory copy)", None, rep * 3 + 2, || {
                    std::hint::black_box(
                        run_psgd(&memory, &loss, &config, &mut bolton_rng::seeded(self.seed))
                            .updates,
                    )
                });
            rep += 1;
            Rep {
                noiseless_secs,
                private_secs: private.0,
                engine_secs,
                private_acc: private.1,
                noiseless_model: self.session.db().model("mn").ok(),
            }
        });
        self.memory = Some(memory);
        // The noiseless model is a pure function of (table, seed), and so
        // is the private model's training accuracy.
        ops.check(reps[0].noiseless_model.is_some(), || {
            "noiseless TRAIN published no model".to_string()
        });
        ops.check(reps.iter().all(|r| r.noiseless_model == reps[0].noiseless_model), || {
            "noiseless models differ across repetitions at the same seed".to_string()
        });
        ops.check(
            reps.iter().all(|r| r.private_acc.to_bits() == reps[0].private_acc.to_bits()),
            || "private training accuracy is not repeatable at a fixed seed".to_string(),
        );
        let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();

        let session = &mut self.session;
        let rows = self.plan.rows;
        let mut eval_no = 0u64;
        let eval_secs = repeat_for(self.plan.eval_budget.mul_f64(share), warm_up, || {
            eval_no += 1;
            let (result, secs, _) =
                tracer.span("session.run:EVAL", None, 1_000_000 + eval_no, || {
                    run(session, ops, "EVAL mp ON t")
                });
            if !matches!(result, Some(QueryResult::Scores { rows: r, .. }) if r == rows) {
                ops.fail(format!("EVAL mp ON t: unexpected result {result:?}"));
            }
            secs
        });
        if warm_up {
            run(session, ops, "SAVE MODEL mp");
        }

        let mut m = Metrics::default();
        m.put_median(
            "private_overhead_ratio",
            &column(|r| r.private_secs / r.noiseless_secs),
            |r| r,
        );
        m.put_median(
            "sql_train_overhead_ratio",
            &column(|r| r.private_secs / r.engine_secs),
            |r| r,
        );
        m.put("private_acc", reps[0].private_acc);
        m.put_median("train_rows_per_s", &column(|r| r.private_secs), |s| visited / s);
        m.put_median("noiseless_rows_per_s", &column(|r| r.noiseless_secs), |s| visited / s);
        m.put_median("eval_rows_per_s", &eval_secs, |s| rows as f64 / s);
        m
    }

    /// Takes one bolt-on `TRAIN` apart (traced runs only): the statement
    /// as a parent span, then its parts re-issued through each layer's
    /// public API on the same inputs as child spans. Self time of the
    /// parent is what no probe accounts for; it is negative when the
    /// parts overlap (the engine on the memory copy scans too).
    pub fn decompose(&mut self, ops: &mut Ops, tracer: &Tracer) -> Metrics {
        const REQUEST: u64 = 2_000_000;
        let sql = self.train_sql("mp", "bolton EPS 1");
        let session = &mut self.session;
        let (_, statement_secs, parent) =
            tracer.span("session.run:TRAIN(decomposed)", None, REQUEST, || run(session, ops, &sql));

        let handle = self.session.db().table("t").expect("training table");
        let table = handle.read().expect("table lock");
        let (rows, dim, passes) = (self.plan.rows, self.plan.dim, self.plan.passes);

        let engines = EnginePool::new(1, 0);
        let (_, parse_secs, _) =
            tracer.span("engine.parse", parent, REQUEST, || engines.parse(&sql).map(|_| ()));

        // The order TRAIN scans in: one shared permutation of all rows.
        let order = bolton_rng::random_permutation(&mut bolton_rng::seeded(self.seed), rows);
        let (_, scan_secs, _) = tracer.span("table.scan_order", parent, REQUEST, || {
            for _ in 0..passes {
                TrainSet::scan_order(&*table, &order, &mut |_, x, y| {
                    std::hint::black_box((x.len(), y));
                });
            }
        });

        let copy = self.memory.take().unwrap_or_else(|| copy_to_memory(&table));
        let loss = Logistic::regularized(LAMBDA, 1.0 / LAMBDA);
        let config = engine_config(&loss, rows, passes);
        let (outcome, compute_secs, _) =
            tracer.span("sgd.run_psgd(memory copy)", parent, REQUEST, || {
                run_psgd(&copy, &loss, &config, &mut bolton_rng::seeded(self.seed))
            });
        drop(copy);

        let bolt_on = BoltOnConfig::new(Budget::pure(1.0).expect("eps = 1"))
            .with_passes(passes)
            .with_batch_size(BATCH)
            .with_projection(1.0 / LAMBDA);
        let mut model = outcome.model;
        let (_, noise_secs, _) = tracer.span("privacy.calibrate+perturb", parent, REQUEST, || {
            let delta2 = calibrate_sensitivity(&loss, &bolt_on, rows).expect("calibrate");
            let mechanism =
                NoiseMechanism::for_budget(&bolt_on.budget, dim, delta2).expect("mechanism");
            mechanism.perturb(&mut bolton_rng::seeded(self.seed ^ 1), &mut model);
        });

        let (_, score_secs, _) = tracer.span("session.score_batch", parent, REQUEST, || {
            std::hint::black_box(score_batch(&model, &table).len());
        });

        let parts = parse_secs + scan_secs + compute_secs + noise_secs + score_secs;
        let mut m = Metrics::default();
        m.put("session.train_overhead_ratio", statement_secs / compute_secs);
        m.put("session.unattributed_share", 1.0 - parts / statement_secs);
        m
    }
}

/// Copies a table's rows into an [`InMemoryDataset`].
fn copy_to_memory(table: &Table) -> InMemoryDataset {
    let mut features = Vec::with_capacity(table.row_count() * table.dim());
    let mut labels = Vec::with_capacity(table.row_count());
    table
        .scan_rows(&mut |_, x, y| {
            features.extend_from_slice(x);
            labels.push(y);
        })
        .expect("scan table");
    InMemoryDataset::from_flat(features, labels, table.dim())
}
