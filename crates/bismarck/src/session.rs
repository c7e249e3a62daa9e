//! Per-connection sessions over a shared [`Db`], plus the batch-scoring
//! entry point.
//!
//! A [`Session`] executes the full SQL surface of [`crate::sql`]: the
//! single-session statements (CREATE/SYNTH/INSERT/SELECT/…) and the
//! serving statements (TRAIN/EVAL/SAVE MODEL/LOAD MODEL/LIST MODELS/
//! PREPARE/EXECUTE). Any number of sessions run concurrently against one
//! `Db`; the locking discipline lives in [`crate::db`].
//!
//! Prepared statements are session-local: `PREPARE q AS SELECT AVG($1)
//! FROM t` stores a token template, `EXECUTE q (3)` substitutes `$1…$n`
//! token-exactly and runs the resulting statement.

use crate::db::Db;
use crate::error::{DbError, DbResult};
use crate::heap::Backing;
use crate::limits::{CancelToken, CancelUnwind};
use crate::sql::{self, QueryResult, Statement, TrainAlgo, TrainStmt};
use crate::synth::{synthesize, SynthSpec};
use crate::table::{Table, DEFAULT_POOL_PAGES};
use crate::wal::WalRecord;
use bolton::api::{AlgorithmKind, LossKind, TrainPlan};
use bolton::Budget;
use bolton_sgd::metrics;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Rows between cancellation checks inside the hot scan loops — cheap
/// enough to be invisible, frequent enough that a deadline or disconnect
/// aborts within microseconds of work.
const CANCEL_STRIDE: usize = 512;

/// Scores every row of `table` against a linear model, in parallel on the
/// process-global worker pool ([`bolton_sgd::pool`]). Returns the margin
/// `⟨w, x_i⟩` per row, in row order — the Rust-level batch-scoring entry
/// point behind `EVAL MODEL … ON …`.
///
/// # Panics
/// Panics if `model.len() != table.dim()` or on storage errors mid-scan
/// (the established scan contract).
pub fn score_batch(model: &[f64], table: &Table) -> Vec<f64> {
    score_batch_with_labels(model, table).0
}

/// [`score_batch`], also returning the label per row (one parallel pass
/// feeds accuracy and AUC without re-scanning).
///
/// # Panics
/// See [`score_batch`].
pub fn score_batch_with_labels(model: &[f64], table: &Table) -> (Vec<f64>, Vec<f64>) {
    score_batch_cancellable(model, table, None)
}

/// The cancellation-aware scoring pass behind both public entry points and
/// the TRAIN/EVAL statements. With a token, every worker polls it each
/// [`CANCEL_STRIDE`] rows and bails by unwinding with the crate-private
/// marker; the pool re-raises the payload on the calling thread, where
/// [`Session::execute`] turns it into [`DbError::Cancelled`].
pub(crate) fn score_batch_cancellable(
    model: &[f64],
    table: &Table,
    cancel: Option<&CancelToken>,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        model.len(),
        table.dim(),
        "model dim {} does not match table dim {}",
        model.len(),
        table.dim()
    );
    let n = table.row_count();
    let runner = bolton_sgd::pool::runner();
    // The caller participates, so threads+1 ranges keep everyone busy.
    // Each range scans page-wise via scan_range: rows are scored in place,
    // and only a file-backed table has a pool latch to contend on — once
    // per page, not per row.
    let chunks = runner.run_ranges(n, runner.threads() + 1, |lo, hi| {
        let mut scores = Vec::with_capacity(hi - lo);
        let mut labels = Vec::with_capacity(hi - lo);
        let mut countdown = CANCEL_STRIDE;
        table
            .scan_range(lo, hi, &mut |_, x, y| {
                if let Some(token) = cancel {
                    countdown -= 1;
                    if countdown == 0 {
                        countdown = CANCEL_STRIDE;
                        token.bail_point();
                    }
                }
                scores.push(metrics::score(model, x));
                labels.push(y);
            })
            .unwrap_or_else(|e| panic!("score_batch: rows [{lo}, {hi}): {e}"));
        (scores, labels)
    });
    let mut scores = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for (s, l) in chunks {
        scores.extend_from_slice(&s);
        labels.extend_from_slice(&l);
    }
    (scores, labels)
}

/// A [`bolton_sgd::TrainSet`] view of a table that plants a cancellation
/// point every [`CANCEL_STRIDE`] rows of every training scan. The epoch
/// loop in `bolton_sgd` needs no changes: it already drives training
/// through `scan_order`, so wrapping the dataset is enough to make a
/// multi-pass TRAIN abort within a stride of its deadline.
struct CancelScan<'a> {
    inner: &'a Table,
    cancel: &'a CancelToken,
}

impl bolton_sgd::TrainSet for CancelScan<'_> {
    fn len(&self) -> usize {
        bolton_sgd::TrainSet::len(self.inner)
    }

    fn dim(&self) -> usize {
        bolton_sgd::TrainSet::dim(self.inner)
    }

    fn scan_order(&self, order: &[usize], visit: &mut dyn FnMut(usize, &[f64], f64)) {
        self.cancel.bail_point();
        let mut countdown = CANCEL_STRIDE;
        bolton_sgd::TrainSet::scan_order(self.inner, order, &mut |i, x, y| {
            countdown -= 1;
            if countdown == 0 {
                countdown = CANCEL_STRIDE;
                self.cancel.bail_point();
            }
            visit(i, x, y);
        });
    }

    fn scan(&self, visit: &mut dyn FnMut(usize, &[f64], f64)) {
        self.cancel.bail_point();
        let mut countdown = CANCEL_STRIDE;
        bolton_sgd::TrainSet::scan(self.inner, &mut |i, x, y| {
            countdown -= 1;
            if countdown == 0 {
                countdown = CANCEL_STRIDE;
                self.cancel.bail_point();
            }
            visit(i, x, y);
        });
    }
}

fn algorithm_kind(algo: TrainAlgo) -> AlgorithmKind {
    match algo {
        TrainAlgo::Noiseless => AlgorithmKind::Noiseless,
        TrainAlgo::BoltOn => AlgorithmKind::BoltOn,
        TrainAlgo::Scs13 => AlgorithmKind::Scs13,
        TrainAlgo::Bst14 => AlgorithmKind::Bst14,
        TrainAlgo::ObjectivePerturbation => AlgorithmKind::ObjectivePerturbation,
    }
}

/// The connection-scoped state forks of one session share: the prepared
/// statements and the trained-but-never-saved model names. Behind a mutex
/// because a pipelined (v2) connection executes statements concurrently on
/// several executor threads, all of which must see one `PREPARE`.
struct SessionShared {
    prepared: BTreeMap<String, (String, usize)>,
    unsaved: BTreeSet<String>,
}

/// One client's connection state: a handle on the shared [`Db`], the
/// session-local prepared statements, a [`CancelToken`] every statement
/// polls, and the set of trained-but-never-saved model names (used by the
/// server to warn when a disconnect would lose work — the TRAIN→SAVE
/// crash window documented in REPRODUCING.md).
///
/// A pipelined connection runs several [`Session::fork`]s concurrently:
/// forks share the prepared-statement and unsaved-model state (they are
/// *one* client session) but each carries its own cancellation token, so
/// one request's deadline never aborts its pipelined neighbours.
pub struct Session {
    db: Arc<Db>,
    shared: Arc<Mutex<SessionShared>>,
    cancel: CancelToken,
}

impl Session {
    /// Opens a session over `db` with a private cancellation token.
    pub fn new(db: Arc<Db>) -> Self {
        Self::with_cancel(db, CancelToken::new())
    }

    /// Opens a session whose statements poll `cancel` — the server hands
    /// every connection a shared token so its reader thread (disconnect)
    /// and the drain logic can abort in-flight work.
    pub fn with_cancel(db: Arc<Db>, cancel: CancelToken) -> Self {
        Self {
            db,
            shared: Arc::new(Mutex::new(SessionShared {
                prepared: BTreeMap::new(),
                unsaved: BTreeSet::new(),
            })),
            cancel,
        }
    }

    /// A concurrent view of the *same* client session: shares the prepared
    /// statements and unsaved-model set, executes under its own `cancel`
    /// token. The v2 server gives each per-connection executor thread one
    /// fork.
    pub fn fork(&self, cancel: CancelToken) -> Session {
        Session { db: Arc::clone(&self.db), shared: Arc::clone(&self.shared), cancel }
    }

    /// The shared database.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// This session's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Models trained in this session and never saved to the registry —
    /// they live only in the shared in-memory model map and are lost on
    /// server exit.
    pub fn unsaved_models(&self) -> Vec<String> {
        self.shared.lock().expect("session state").unsaved.iter().cloned().collect()
    }

    /// Parses and executes one statement.
    ///
    /// # Errors
    /// Parse or execution errors.
    pub fn run(&mut self, input: &str) -> DbResult<QueryResult> {
        let stmt = sql::parse(input)?;
        self.execute(&stmt)
    }

    /// Executes one parsed statement.
    ///
    /// A statement past its deadline (or on a cancelled token) fails
    /// up-front; mid-statement, the read-side cancellation points unwind
    /// with a crate-private marker that is caught here — table locks
    /// release on the way out (read guards do not poison), and no table or
    /// registry state has changed because write statements carry no
    /// mid-write cancellation points: they check the deadline only before
    /// starting.
    ///
    /// # Errors
    /// Catalog/storage/model errors; [`DbError::Cancelled`] on deadline
    /// expiry or disconnect.
    pub fn execute(&mut self, stmt: &Statement) -> DbResult<QueryResult> {
        let (result, lsn) = self.execute_unsynced(stmt)?;
        if lsn.is_some() {
            self.db.sync_lsn(lsn)?;
            self.db.maybe_checkpoint()?;
        }
        Ok(result)
    }

    /// [`Session::execute`] minus the wait for durability: also returns the
    /// LSN of the last record the statement logged. The caller must not
    /// acknowledge until `Db::sync_lsn` covers it — `execute` waits inline,
    /// the v2 server parks the response on its committer.
    pub(crate) fn execute_unsynced(
        &mut self,
        stmt: &Statement,
    ) -> DbResult<(QueryResult, Option<u64>)> {
        self.cancel.check()?;
        let mut logged = None;
        let run = std::panic::AssertUnwindSafe(|| self.execute_inner(stmt, &mut logged));
        match std::panic::catch_unwind(run) {
            Ok(result) => result.map(|r| (r, logged)),
            Err(payload) => match payload.downcast::<CancelUnwind>() {
                Ok(marker) => Err(DbError::Cancelled(marker.0)),
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }

    /// The statement bodies; SYNTH, INSERT, SHUFFLE and COPY FROM leave the
    /// LSN to wait for in `logged` instead of syncing.
    fn execute_inner(
        &mut self,
        stmt: &Statement,
        logged: &mut Option<u64>,
    ) -> DbResult<QueryResult> {
        match stmt {
            Statement::CreateTable { name, dim, disk } => {
                let backing = if *disk { Backing::TempFile } else { Backing::Memory };
                self.db.create_table(name, *dim, backing, DEFAULT_POOL_PAGES)?;
                self.db.maybe_checkpoint()?;
                Ok(QueryResult::Ok)
            }
            Statement::CreateTableFromStore { name, path, disk } => {
                let rows =
                    self.db.create_table_from_store(name, path, *disk, DEFAULT_POOL_PAGES)?;
                self.db.maybe_checkpoint()?;
                Ok(QueryResult::Count(rows))
            }
            Statement::Synth { name, rows, seed, noise } => {
                // Hold the table's write lock for the whole rebuild: the
                // emptiness check, synthesis, and swap are one atomic
                // write, so no concurrent INSERT/DROP can interleave
                // (check-then-act through the same guard). The WAL record
                // carries the seed spec, so recovery re-synthesizes
                // bit-identically instead of replaying rows.
                let handle = self.db.table(name)?;
                let mut table = handle.write().expect("table lock");
                if table.row_count() != 0 {
                    return Err(DbError::Parse(format!("SYNTH target '{name}' is not empty")));
                }
                let spec = SynthSpec {
                    rows: *rows,
                    dim: table.dim(),
                    label_noise: *noise,
                    feature_scale: 1.0,
                };
                let backing = table.backing().clone();
                let mut rng = bolton_rng::seeded(*seed);
                // Synthesize first (fallible), log only once the swap is
                // certain — the table write lock keeps log order equal to
                // apply order.
                let rebuilt = synthesize(name, &spec, backing, DEFAULT_POOL_PAGES, &mut rng)?;
                let lsn = self.db.log_record(&WalRecord::Synth {
                    name: name.clone(),
                    rows: *rows as u64,
                    seed: *seed,
                    noise: *noise,
                })?;
                *table = rebuilt;
                if let Some(l) = lsn {
                    table.note_lsn(l);
                }
                drop(table);
                *logged = lsn;
                Ok(QueryResult::Ok)
            }
            Statement::Insert { name, values } => {
                let handle = self.db.table(name)?;
                let mut table = handle.write().expect("table lock");
                if values.len() != table.dim() + 1 {
                    return Err(DbError::SchemaMismatch {
                        expected: table.dim() + 1,
                        got: values.len(),
                    });
                }
                let (features, label) = values.split_at(values.len() - 1);
                let lsn = self.db.log_apply_insert(&mut table, name, features, label[0])?;
                drop(table);
                *logged = lsn;
                Ok(QueryResult::Ok)
            }
            Statement::Count { name } => {
                let handle = self.db.table(name)?;
                let table = handle.read().expect("table lock");
                Ok(QueryResult::Count(table.row_count()))
            }
            Statement::Avg { name, column } => {
                let handle = self.db.table(name)?;
                let table = handle.read().expect("table lock");
                sql::avg_column(&table, *column)
            }
            Statement::PrivateCount { name, eps, seed } => {
                let handle = self.db.table(name)?;
                let table = handle.read().expect("table lock");
                sql::private_count(&table, *eps, *seed)
            }
            Statement::PrivateHistogram { name, eps, seed } => {
                let handle = self.db.table(name)?;
                let table = handle.read().expect("table lock");
                sql::private_histogram(&table, *eps, *seed)
            }
            Statement::Shuffle { name, seed } => {
                let handle = self.db.table(name)?;
                let mut table = handle.write().expect("table lock");
                let mut rng = bolton_rng::seeded(*seed);
                table.shuffle(&mut rng)?;
                let lsn =
                    self.db.log_record(&WalRecord::Shuffle { name: name.clone(), seed: *seed })?;
                if let Some(l) = lsn {
                    table.note_lsn(l);
                }
                drop(table);
                *logged = lsn;
                Ok(QueryResult::Ok)
            }
            Statement::DropTable { name } => {
                self.db.drop_table(name)?;
                self.db.maybe_checkpoint()?;
                Ok(QueryResult::Ok)
            }
            Statement::CopyFrom { name, path } => {
                let handle = self.db.table(name)?;
                let mut table = handle.write().expect("table lock");
                // Parse (and width-check) the whole file before touching the
                // table, then log+apply each row under the one write lock;
                // waiting on the last LSN covers them all with one fsync.
                let rows = sql::read_csv_rows(path, table.dim())?;
                let mut last_lsn = None;
                for (features, label) in &rows {
                    last_lsn = self.db.log_apply_insert(&mut table, name, features, *label)?;
                }
                table.flush()?;
                drop(table);
                *logged = last_lsn;
                Ok(QueryResult::Count(rows.len()))
            }
            Statement::CopyTo { name, path } => {
                let handle = self.db.table(name)?;
                let table = handle.read().expect("table lock");
                sql::copy_to(&table, path)
            }
            Statement::Analyze { name } => {
                let handle = self.db.table(name)?;
                let table = handle.read().expect("table lock");
                sql::analyze(&table)
            }
            Statement::ShowTables => Ok(QueryResult::Names(self.db.table_names())),
            Statement::Train(train) => self.train(train),
            Statement::Eval { model, table } => {
                let w = self.db.model(model)?;
                self.eval(&w, table)
            }
            Statement::EvalModel { model, version, table } => {
                let (_, w) = self.db.registry_required()?.load_versioned(model, *version)?;
                self.eval(&w, table)
            }
            Statement::SaveModel { model, version } => {
                let w = self.db.model(model)?;
                let version = self.db.registry_required()?.save(model, *version, &w)?;
                self.shared.lock().expect("session state").unsaved.remove(model);
                Ok(QueryResult::ModelVersioned { model: model.clone(), version, dim: w.len() })
            }
            Statement::LoadModel { model, version } => {
                // load_versioned resolves "latest" and reads the weights
                // under one registry snapshot, so the reported version
                // always matches the loaded weights even against a
                // concurrent SAVE MODEL.
                let (version, w) = self.db.registry_required()?.load_versioned(model, *version)?;
                let dim = w.len();
                self.db.put_model(model, w.as_ref().clone());
                // The registry copy now matches the in-memory copy, so the
                // name is no longer at risk of being lost on exit.
                self.shared.lock().expect("session state").unsaved.remove(model);
                Ok(QueryResult::ModelVersioned { model: model.clone(), version, dim })
            }
            Statement::ListModels => Ok(QueryResult::Models(self.db.registry_required()?.list())),
            Statement::Prepare { name, template, params } => {
                self.shared
                    .lock()
                    .expect("session state")
                    .prepared
                    .insert(name.clone(), (template.clone(), *params));
                Ok(QueryResult::Ok)
            }
            Statement::Execute { name, args } => {
                let (template, params) = self
                    .shared
                    .lock()
                    .expect("session state")
                    .prepared
                    .get(name)
                    .cloned()
                    .ok_or_else(|| DbError::Parse(format!("no prepared statement '{name}'")))?;
                let concrete = sql::substitute_placeholders(&template, params, args)?;
                let inner = sql::parse(&concrete)?;
                if matches!(
                    inner,
                    Statement::Prepare { .. }
                        | Statement::Execute { .. }
                        | Statement::Shutdown
                        | Statement::ShowLimits
                ) {
                    return Err(DbError::Parse(
                        "prepared statements cannot nest PREPARE/EXECUTE/SHUTDOWN/SHOW LIMITS"
                            .to_string(),
                    ));
                }
                let (result, lsn) = self.execute_unsynced(&inner)?;
                *logged = lsn;
                Ok(result)
            }
            Statement::Shutdown => Err(DbError::Parse(
                "SHUTDOWN is only available over a server connection".to_string(),
            )),
            Statement::ShowLimits => Err(DbError::Parse(
                "SHOW LIMITS is only available over a server connection".to_string(),
            )),
            Statement::Checkpoint => {
                let (tables, lsn) = self.db.checkpoint()?;
                Ok(QueryResult::Checkpointed { tables, lsn })
            }
        }
    }

    /// `TRAIN`: fit (privately) on the table under its *read* lock — the
    /// engine samples via permutation schemes, never by mutating the table
    /// — then publish the model to the shared Db.
    fn train(&mut self, stmt: &TrainStmt) -> DbResult<QueryResult> {
        let algo = algorithm_kind(stmt.algo);
        let budget = match (algo, stmt.eps) {
            (AlgorithmKind::Noiseless, _) => None,
            (_, Some(eps)) => Some(match stmt.delta {
                Some(delta) => {
                    Budget::approx(eps, delta).map_err(|e| DbError::Model(e.to_string()))?
                }
                None => Budget::pure(eps).map_err(|e| DbError::Model(e.to_string()))?,
            }),
            (_, None) => {
                return Err(DbError::Model(format!(
                    "algorithm '{:?}' is private and needs EPS",
                    stmt.algo
                )))
            }
        };
        let handle = self.db.table(&stmt.table)?;
        let table = handle.read().expect("table lock");
        if table.row_count() == 0 {
            return Err(DbError::Model(format!("table '{}' is empty", stmt.table)));
        }
        let plan = TrainPlan::new(LossKind::Logistic { lambda: stmt.lambda }, algo, budget)
            .with_passes(stmt.passes)
            .with_batch_size(stmt.batch);
        // The CancelScan wrapper threads this session's token through every
        // epoch scan, so a deadline or disconnect aborts the loop with the
        // table untouched (TRAIN holds only the read lock).
        let scan = CancelScan { inner: &table, cancel: &self.cancel };
        let model = plan
            .train(&scan, &mut bolton_rng::seeded(stmt.seed))
            .map_err(|e| DbError::Model(e.to_string()))?;
        let (scores, labels) = score_batch_cancellable(&model, &table, Some(&self.cancel));
        let accuracy = metrics::accuracy_from_scores(&scores, &labels);
        drop(table);
        self.db.put_model(&stmt.model, model);
        self.shared.lock().expect("session state").unsaved.insert(stmt.model.clone());
        Ok(QueryResult::Trained { model: stmt.model.clone(), accuracy })
    }

    /// `EVAL`: one parallel scoring pass feeds both accuracy and AUC.
    fn eval(&mut self, w: &[f64], table_name: &str) -> DbResult<QueryResult> {
        let handle = self.db.table(table_name)?;
        let table = handle.read().expect("table lock");
        if w.len() != table.dim() {
            return Err(DbError::SchemaMismatch { expected: table.dim(), got: w.len() });
        }
        let (scores, labels) = score_batch_cancellable(w, &table, Some(&self.cancel));
        Ok(QueryResult::Scores {
            rows: scores.len(),
            accuracy: metrics::accuracy_from_scores(&scores, &labels),
            auc: metrics::auc_from_scores(&scores, &labels),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bolton-session-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn session_with_data() -> Session {
        let db = Arc::new(Db::new());
        let mut s = Session::new(db);
        s.run("CREATE TABLE t (DIM 4)").unwrap();
        s.run("SYNTH t ROWS 600 SEED 7 NOISE 0.05").unwrap();
        s
    }

    #[test]
    fn classic_statements_run_through_a_session() {
        let mut s = session_with_data();
        assert_eq!(s.run("SELECT COUNT(*) FROM t").unwrap(), QueryResult::Count(600));
        assert!(matches!(s.run("SELECT AVG(0) FROM t").unwrap(), QueryResult::Scalar(Some(_))));
        assert_eq!(s.run("SHOW TABLES").unwrap(), QueryResult::Names(vec!["t".into()]));
        s.run("SHUFFLE t SEED 3").unwrap();
        s.run("DROP TABLE t").unwrap();
        assert!(s.run("SELECT COUNT(*) FROM t").is_err());
    }

    #[test]
    fn train_then_eval_in_memory() {
        let mut s = session_with_data();
        let QueryResult::Trained { model, accuracy } =
            s.run("TRAIN m ON t ALGO noiseless PASSES 4 BATCH 10 SEED 1").unwrap()
        else {
            panic!("expected Trained");
        };
        assert_eq!(model, "m");
        assert!(accuracy > 0.8, "train accuracy {accuracy}");
        let QueryResult::Scores { rows, accuracy: eval_acc, auc } = s.run("EVAL m ON t").unwrap()
        else {
            panic!("expected Scores");
        };
        assert_eq!(rows, 600);
        assert_eq!(eval_acc, accuracy, "EVAL on the training table matches TRAIN's accuracy");
        assert!(auc > 0.8, "AUC {auc}");
        // Private training works through the same statement.
        assert!(matches!(
            s.run("TRAIN mp ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 2 SEED 2").unwrap(),
            QueryResult::Trained { .. }
        ));
        // Private algorithms without EPS are rejected.
        assert!(matches!(s.run("TRAIN bad ON t ALGO bolton"), Err(DbError::Model(_))));
        // Unknown model / table errors are clean.
        assert!(matches!(s.run("EVAL ghost ON t"), Err(DbError::ModelNotFound(_))));
        assert!(matches!(s.run("EVAL m ON ghost"), Err(DbError::TableNotFound(_))));
    }

    #[test]
    fn registry_statements_roundtrip() {
        let dir = temp_dir("registry");
        let db = Arc::new(Db::with_registry(&dir).unwrap());
        let mut s = Session::new(db);
        s.run("CREATE TABLE t (DIM 3)").unwrap();
        s.run("SYNTH t ROWS 400 SEED 11 NOISE 0.05").unwrap();
        s.run("TRAIN m ON t ALGO noiseless PASSES 3 SEED 5").unwrap();
        let QueryResult::ModelVersioned { model, version, dim } = s.run("SAVE MODEL m").unwrap()
        else {
            panic!("expected ModelVersioned");
        };
        assert_eq!((model.as_str(), version, dim), ("m", 1, 3));
        // EVAL MODEL serves the committed artifact; same table ⇒ same
        // scores as the in-memory model.
        let mem = s.run("EVAL m ON t").unwrap();
        let reg = s.run("EVAL MODEL m VERSION 1 ON t").unwrap();
        assert_eq!(mem, reg);
        // LOAD republishes under the same name (bit-identical).
        s.run("LOAD MODEL m VERSION 1").unwrap();
        assert_eq!(s.run("EVAL m ON t").unwrap(), mem);
        let QueryResult::Models(list) = s.run("LIST MODELS").unwrap() else {
            panic!("expected Models");
        };
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "m");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_statements_need_a_registry() {
        let mut s = session_with_data();
        s.run("TRAIN m ON t ALGO noiseless PASSES 1").unwrap();
        assert!(matches!(s.run("SAVE MODEL m"), Err(DbError::Model(_))));
        assert!(matches!(s.run("LIST MODELS"), Err(DbError::Model(_))));
    }

    #[test]
    fn prepared_statements_substitute_and_execute() {
        let mut s = session_with_data();
        s.run("PREPARE q AS SELECT AVG($1) FROM t").unwrap();
        let direct = s.run("SELECT AVG(2) FROM t").unwrap();
        assert_eq!(s.run("EXECUTE q (2)").unwrap(), direct);
        // Param-count mismatches and unknown names error cleanly.
        assert!(matches!(s.run("EXECUTE q"), Err(DbError::Parse(_))));
        assert!(matches!(s.run("EXECUTE nope (1)"), Err(DbError::Parse(_))));
        // Prepared statements are session-local.
        let mut other = Session::new(Arc::clone(s.db()));
        assert!(matches!(other.run("EXECUTE q (2)"), Err(DbError::Parse(_))));
        // Parameterless prepared statements run too.
        s.run("PREPARE c AS SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(s.run("EXECUTE c").unwrap(), QueryResult::Count(600));
    }

    #[test]
    fn score_batch_matches_sequential_metrics() {
        let mut s = session_with_data();
        s.run("TRAIN m ON t ALGO noiseless PASSES 2 SEED 3").unwrap();
        let w = s.db().model("m").unwrap();
        let handle = s.db().table("t").unwrap();
        let table = handle.read().expect("table lock");
        let scores = score_batch(&w, &table);
        assert_eq!(scores.len(), 600);
        // Spot-check against the sequential scan metric path.
        assert_eq!(
            metrics::accuracy_from_scores(&scores, &score_batch_with_labels(&w, &table).1),
            metrics::accuracy(w.as_slice(), &*table)
        );
        let mut buf = vec![0.0; 4];
        for rid in [0usize, 17, 599] {
            table.read_row(rid, &mut buf).unwrap();
            assert_eq!(scores[rid], metrics::score(&w, &buf), "row {rid}");
        }
    }

    #[test]
    fn a_deadline_cancelled_train_releases_locks_with_state_unchanged() {
        use crate::limits::CancelCause;
        let db = Arc::new(Db::new());
        let token = CancelToken::new();
        let mut s = Session::with_cancel(Arc::clone(&db), token.clone());
        s.run("CREATE TABLE t (DIM 4)").unwrap();
        s.run("SYNTH t ROWS 600 SEED 7 NOISE 0.05").unwrap();
        // A deadline far shorter than a 100k-pass TRAIN (which would take
        // minutes if cancellation failed): the statement starts, then the
        // first cancellation point past the deadline unwinds it.
        token.arm(Some(std::time::Duration::from_millis(20)));
        let err = s.run("TRAIN m ON t ALGO noiseless PASSES 100000 BATCH 10 SEED 1").unwrap_err();
        assert!(matches!(err, DbError::Cancelled(CancelCause::Deadline)), "got {err}");
        token.disarm();
        // The table read lock is released: a writer gets in immediately.
        let handle = db.table("t").unwrap();
        assert!(handle.try_write().is_ok(), "cancelled TRAIN leaked the table lock");
        // State unchanged: no model published, rows intact, the session
        // keeps working.
        assert!(matches!(db.model("m"), Err(DbError::ModelNotFound(_))));
        assert!(s.unsaved_models().is_empty());
        assert_eq!(s.run("SELECT COUNT(*) FROM t").unwrap(), QueryResult::Count(600));
        assert!(matches!(
            s.run("TRAIN m ON t ALGO noiseless PASSES 2 SEED 1").unwrap(),
            QueryResult::Trained { .. }
        ));
    }

    #[test]
    fn a_cancelled_token_rejects_statements_before_any_work() {
        use crate::limits::CancelCause;
        let db = Arc::new(Db::new());
        let token = CancelToken::new();
        let mut s = Session::with_cancel(Arc::clone(&db), token.clone());
        s.run("CREATE TABLE t (DIM 2)").unwrap();
        token.cancel();
        // Reads and writes alike fail up-front with the disconnect cause.
        for stmt in ["SELECT COUNT(*) FROM t", "INSERT INTO t VALUES (1, 2, 1)"] {
            let err = s.run(stmt).unwrap_err();
            assert!(matches!(err, DbError::Cancelled(CancelCause::Disconnect)), "{stmt}: {err}");
        }
        // Nothing was applied.
        let handle = db.table("t").unwrap();
        assert_eq!(handle.read().unwrap().row_count(), 0);
    }

    #[test]
    fn unsaved_models_track_train_save_and_load() {
        let dir = temp_dir("unsaved");
        let db = Arc::new(Db::with_registry(&dir).unwrap());
        let mut s = Session::new(db);
        s.run("CREATE TABLE t (DIM 3)").unwrap();
        s.run("SYNTH t ROWS 200 SEED 9 NOISE 0.05").unwrap();
        s.run("TRAIN m ON t ALGO noiseless PASSES 1").unwrap();
        s.run("TRAIN m2 ON t ALGO noiseless PASSES 1").unwrap();
        assert_eq!(s.unsaved_models(), vec!["m".to_string(), "m2".to_string()]);
        s.run("SAVE MODEL m").unwrap();
        assert_eq!(s.unsaved_models(), vec!["m2".to_string()]);
        // LOAD also clears the flag: the in-memory copy now equals a
        // registry artifact.
        s.run("TRAIN m2 ON t ALGO noiseless PASSES 2").unwrap();
        s.run("SAVE MODEL m2").unwrap();
        s.run("LOAD MODEL m2").unwrap();
        assert!(s.unsaved_models().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_is_server_only() {
        let mut s = session_with_data();
        assert!(matches!(s.run("SHUTDOWN"), Err(DbError::Parse(_))));
    }

    #[test]
    fn checkpoint_needs_a_durable_db() {
        let mut s = session_with_data();
        assert!(matches!(s.run("CHECKPOINT"), Err(DbError::Wal(_))));
    }

    #[test]
    fn durable_session_statements_survive_reopen() {
        let dir = temp_dir("durable");
        let csv = dir.join("rows.csv");
        let reference;
        {
            let db = Arc::new(Db::open(&dir).unwrap());
            let mut s = Session::new(Arc::clone(&db));
            s.run("CREATE TABLE t (DIM 3)").unwrap();
            s.run("SYNTH t ROWS 100 SEED 4 NOISE 0.1").unwrap();
            s.run("SHUFFLE t SEED 8").unwrap();
            s.run("INSERT INTO t VALUES (0.5, -0.25, 0.125, 1)").unwrap();
            std::fs::write(&csv, "1,2,3,1\n4,5,6,-1\n").unwrap();
            assert_eq!(
                s.run(&format!("COPY t FROM '{}'", csv.display())).unwrap(),
                QueryResult::Count(2)
            );
            let QueryResult::Checkpointed { tables, .. } = s.run("CHECKPOINT").unwrap() else {
                panic!("expected Checkpointed");
            };
            assert_eq!(tables, 1);
            // A post-checkpoint tail exercises replay-past-snapshot.
            s.run("INSERT INTO t VALUES (9, 9, 9, -1)").unwrap();
            reference = s.run("SELECT AVG(0) FROM t").unwrap();
            assert_eq!(s.run("SELECT COUNT(*) FROM t").unwrap(), QueryResult::Count(104));
        }
        let db = Arc::new(Db::open(&dir).unwrap());
        let mut s = Session::new(db);
        assert_eq!(s.run("SELECT COUNT(*) FROM t").unwrap(), QueryResult::Count(104));
        assert_eq!(s.run("SELECT AVG(0) FROM t").unwrap(), reference, "recovery is bit-exact");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
