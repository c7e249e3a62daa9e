//! The shared database: one process-wide [`Db`] that any number of
//! [`crate::session::Session`]s drive concurrently.
//!
//! Concurrency model (two-level locking, always acquired catalog → table):
//!
//! * The **catalog map** is an `RwLock` over `name → Arc<RwLock<Table>>`.
//!   Lookups take the read lock just long enough to clone the `Arc`;
//!   CREATE/DROP take the write lock for a map edit only — never while any
//!   table work runs.
//! * Each **table** is its own `RwLock`. Scans (`SELECT`, `EVAL`, `TRAIN`
//!   — training never mutates the table: sampling orders come from the
//!   engine's permutation schemes, not an in-place shuffle) share the read
//!   lock, so any number of readers overlap with one long-running trainer.
//!   `INSERT`/`SHUFFLE`/`SYNTH` take the table write lock.
//! * Below both, the table's buffer pool has its own page latch
//!   ([`crate::table::Table`]), so concurrent readers of one table
//!   interleave at page granularity without torn reads.
//!
//! Shared **models** live in a third map (`name → Arc<[f64]>`): `TRAIN`
//! publishes, `EVAL` reads, `SAVE MODEL` commits to the optional on-disk
//! [`ModelRegistry`], and `LOAD MODEL` republishes a committed version.
//!
//! # Durability
//!
//! A `Db` opened on a data directory ([`Db::open`]) makes tables
//! crash-safe. Every mutation appends a [`WalRecord`] to the write-ahead
//! log *while holding the same lock that serializes the mutation*, so the
//! log order equals the apply order; the record is fsynced (group commit)
//! after the lock drops and **before** the statement is acknowledged —
//! inline by the caller, or by the server's committer for pipelined
//! connections ([`crate::server`]).
//! [`Db::checkpoint`] freezes the catalog under read locks, snapshots
//! every table into the `bolton_data` row-store chunk format inside a
//! `checkpoint-N/` directory, commits it by atomically rewriting the
//! `CURRENT` pointer file, then truncates the log. Recovery in `Db::open`
//! loads the `CURRENT` checkpoint and replays only records with
//! `lsn > checkpoint_lsn`, stopping cleanly at a torn log tail — so a
//! second recovery of the same directory is bit-identical (idempotent).
//!
//! ```text
//! data-dir/
//!   CURRENT            → "checkpoint-3"   (atomically swapped pointer)
//!   checkpoint-3/
//!     CATALOG          lsn + one line per table
//!     <table>.rowstore PR-4 chunked row store, one per non-empty table
//!   wal-000004.log     log segments; checkpoints delete covered ones
//!   wal-000005.log     (the highest segment is the one being appended)
//! ```
//!
//! All write-side I/O goes through the [`Vfs`], so the
//! crash tests drive every window of this protocol deterministically with
//! [`FaultVfs`](crate::fault::FaultVfs).

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::fault::{StdVfs, Vfs};
use crate::heap::Backing;
use crate::page::Page;
use crate::registry::ModelRegistry;
use crate::synth::SynthSpec;
use crate::table::{Table, DEFAULT_POOL_PAGES};
use crate::wal::{Wal, WalConfig, WalRecord, WAL_TMP_FILE};
use bolton_data::row_store::{RowStoreWriter, StoredDataset};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Pointer file naming the committed checkpoint directory.
pub const CURRENT_FILE: &str = "CURRENT";
const CURRENT_TMP: &str = "CURRENT.tmp";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
const CATALOG_FILE: &str = "CATALOG";

/// How a durable [`Db`] is opened — directory, vfs, and the WAL knobs the
/// `bismarck_serve` binary exposes as `BOLTON_WAL_*`.
#[derive(Clone)]
pub struct DurabilityOptions {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    sync_wal: bool,
    checkpoint_every: u64,
    registry: Option<PathBuf>,
    registry_keep: usize,
    segment_bytes: u64,
    sync_window: Duration,
}

impl DurabilityOptions {
    /// Options for `dir` with production defaults: [`StdVfs`], fsync on
    /// every commit, no automatic checkpoints, no model registry, default
    /// WAL segment size, no fsync batching window.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            vfs: Arc::new(StdVfs),
            sync_wal: true,
            checkpoint_every: 0,
            registry: None,
            registry_keep: 0,
            segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            sync_window: Duration::ZERO,
        }
    }

    /// Routes write-side I/O through `vfs` (fault injection in tests).
    #[must_use]
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Whether commits fsync the WAL (`false` trades crash safety of the
    /// latest writes for speed — the `BOLTON_WAL_SYNC=off` knob).
    #[must_use]
    pub fn sync_wal(mut self, on: bool) -> Self {
        self.sync_wal = on;
        self
    }

    /// Auto-checkpoint after this many WAL records (0 = manual
    /// `CHECKPOINT` only — the `BOLTON_WAL_CHECKPOINT_EVERY` knob).
    #[must_use]
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Also attach a [`ModelRegistry`] rooted at `dir`.
    #[must_use]
    pub fn registry(mut self, dir: impl Into<PathBuf>) -> Self {
        self.registry = Some(dir.into());
        self
    }

    /// Registry retention: keep at most this many newest versions per
    /// model name, GCing superseded artifacts at commit time (0 = keep
    /// everything — the `BOLTON_REGISTRY_KEEP` knob).
    #[must_use]
    pub fn registry_keep(mut self, keep: usize) -> Self {
        self.registry_keep = keep;
        self
    }

    /// WAL segment size before rotation ([`crate::wal::WalConfig::segment_bytes`]).
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Group-commit fsync batching window
    /// ([`crate::wal::WalConfig::sync_window`] — the
    /// `BOLTON_WAL_SYNC_WINDOW_US` knob).
    #[must_use]
    pub fn sync_window(mut self, window: Duration) -> Self {
        self.sync_window = window;
        self
    }
}

/// The durable state of a [`Db`] opened on a data directory.
struct Durable {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    wal: Wal,
    checkpoint_every: u64,
    /// Sequence number the next checkpoint directory gets.
    checkpoint_seq: AtomicU64,
    /// LSN the committed checkpoint covers (records ≤ this are obsolete).
    checkpoint_lsn: AtomicU64,
    /// Serializes checkpoints (they share the `checkpoint.tmp` staging
    /// directory and the `CURRENT` swap).
    checkpoint_lock: Mutex<()>,
}

/// The catalog map: table name → shared table handle.
type TableMap = BTreeMap<String, Arc<RwLock<Table>>>;

/// A shared, thread-safe database: tables, in-memory models, and an
/// optional versioned on-disk model registry.
#[derive(Default)]
pub struct Db {
    tables: RwLock<TableMap>,
    models: RwLock<BTreeMap<String, Arc<Vec<f64>>>>,
    registry: Option<ModelRegistry>,
    durable: Option<Durable>,
}

impl Db {
    /// An empty database without a model registry (`SAVE MODEL` /
    /// `LOAD MODEL` will error until one is attached).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database with a [`ModelRegistry`] rooted at `dir`
    /// (created if needed, replayed if it already holds versions).
    ///
    /// # Errors
    /// Registry open failures.
    pub fn with_registry(dir: impl AsRef<Path>) -> DbResult<Self> {
        Self::with_registry_keep(dir, 0)
    }

    /// [`Db::with_registry`] with a retention policy: keep at most `keep`
    /// newest versions per model name (0 = keep everything).
    ///
    /// # Errors
    /// Registry open failures.
    pub fn with_registry_keep(dir: impl AsRef<Path>, keep: usize) -> DbResult<Self> {
        let registry = ModelRegistry::open(dir.as_ref())?;
        registry.set_keep(keep);
        Ok(Self {
            tables: RwLock::default(),
            models: RwLock::default(),
            registry: Some(registry),
            durable: None,
        })
    }

    /// Opens a durable database on `dir` (created if needed), recovering
    /// tables from the committed checkpoint plus the write-ahead log. See
    /// the module docs for the directory layout and recovery protocol.
    ///
    /// # Errors
    /// I/O failures; [`DbError::Corrupt`] when the checkpoint fails
    /// validation (a torn *log* tail is expected crash debris and recovers
    /// cleanly, but a damaged checkpoint does not).
    pub fn open(dir: impl Into<PathBuf>) -> DbResult<Self> {
        Self::open_with(DurabilityOptions::new(dir))
    }

    /// [`Db::open`] with explicit [`DurabilityOptions`].
    ///
    /// # Errors
    /// As [`Db::open`].
    pub fn open_with(opts: DurabilityOptions) -> DbResult<Self> {
        let dir = opts.dir;
        fs::create_dir_all(&dir)?;
        // Crash debris from interrupted checkpoints / log truncations:
        // anything still named *.tmp never committed and is dead.
        let _ = fs::remove_file(dir.join(CURRENT_TMP));
        let _ = fs::remove_file(dir.join(WAL_TMP_FILE));
        let _ = fs::remove_dir_all(dir.join(CHECKPOINT_TMP));

        let current = match fs::read_to_string(dir.join(CURRENT_FILE)) {
            Ok(s) => {
                let name = s.trim().to_string();
                if name.is_empty() {
                    return Err(DbError::Corrupt("empty CURRENT pointer file".to_string()));
                }
                Some(name)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        // Checkpoint directories CURRENT does not reference are either a
        // commit that crashed before the pointer swap or a superseded
        // snapshot whose deletion crashed; both are garbage.
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let fname = entry.file_name().to_string_lossy().into_owned();
            if fname.starts_with("checkpoint-") && current.as_deref() != Some(fname.as_str()) {
                let _ = fs::remove_dir_all(entry.path());
            }
        }

        let (mut tables, checkpoint_lsn, next_seq) = match &current {
            Some(name) => {
                let seq: u64 =
                    name.strip_prefix("checkpoint-").and_then(|s| s.parse().ok()).ok_or_else(
                        || DbError::Corrupt(format!("CURRENT names invalid checkpoint '{name}'")),
                    )?;
                let (tables, lsn) = load_checkpoint(&dir.join(name), opts.vfs.injects_faults())?;
                (tables, lsn, seq + 1)
            }
            None => (BTreeMap::new(), 0, 1),
        };

        let (wal, records) = Wal::open_with(
            &dir,
            Arc::clone(&opts.vfs),
            WalConfig {
                sync_on_commit: opts.sync_wal,
                min_next_lsn: checkpoint_lsn + 1,
                segment_bytes: opts.segment_bytes,
                sync_window: opts.sync_window,
            },
        )?;
        for (lsn, record) in &records {
            // Records the checkpoint already covers replay as no-ops by
            // being skipped — this is what makes recovery idempotent when
            // a crash lands between the CURRENT swap and the log reset.
            if *lsn <= checkpoint_lsn {
                continue;
            }
            apply_record(&mut tables, *lsn, record)?;
        }

        let registry = match &opts.registry {
            Some(reg_dir) => {
                let registry = ModelRegistry::open(reg_dir)?;
                registry.set_keep(opts.registry_keep);
                Some(registry)
            }
            None => None,
        };
        Ok(Self {
            tables: RwLock::new(tables),
            models: RwLock::default(),
            registry,
            durable: Some(Durable {
                dir,
                vfs: opts.vfs,
                wal,
                checkpoint_every: opts.checkpoint_every,
                checkpoint_seq: AtomicU64::new(next_seq),
                checkpoint_lsn: AtomicU64::new(checkpoint_lsn),
                checkpoint_lock: Mutex::new(()),
            }),
        })
    }

    /// Moves a single-session [`Catalog`]'s tables into a shared `Db`.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let tables = catalog
            .into_tables()
            .into_iter()
            .map(|(name, table)| (name, Arc::new(RwLock::new(table))))
            .collect();
        Self {
            tables: RwLock::new(tables),
            models: RwLock::default(),
            registry: None,
            durable: None,
        }
    }

    /// The durable data directory, when opened with [`Db::open`].
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Whether mutations are logged and crash-safe.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The write-ahead log, when durable (tests and telemetry).
    pub fn wal(&self) -> Option<&Wal> {
        self.durable.as_ref().map(|d| &d.wal)
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&ModelRegistry> {
        self.registry.as_ref()
    }

    /// The attached registry, or a helpful error.
    ///
    /// # Errors
    /// [`DbError::Model`] when the Db was opened without a registry.
    pub fn registry_required(&self) -> DbResult<&ModelRegistry> {
        self.registry.as_ref().ok_or_else(|| {
            DbError::Model(
                "no model registry attached (open the Db with Db::with_registry)".to_string(),
            )
        })
    }

    /// Creates an empty table (WAL-logged and fsynced when durable).
    ///
    /// # Errors
    /// [`DbError::TableExists`] on a name collision; storage failures.
    pub fn create_table(
        &self,
        name: &str,
        dim: usize,
        backing: Backing,
        pool_pages: usize,
    ) -> DbResult<()> {
        let disk = !matches!(backing, Backing::Memory);
        let lsn;
        {
            let mut tables = self.tables.write().expect("catalog lock");
            if tables.contains_key(name) {
                return Err(DbError::TableExists(name.to_string()));
            }
            let mut table = Table::create(name, dim, backing, pool_pages)?;
            lsn = self.log_record(&WalRecord::CreateTable {
                name: name.to_string(),
                dim: dim as u32,
                disk,
            })?;
            if let Some(l) = lsn {
                table.note_lsn(l);
            }
            tables.insert(name.to_string(), Arc::new(RwLock::new(table)));
        }
        self.sync_lsn(lsn)
    }

    /// Registers an already-built table (synthesizer / store loader
    /// output). When durable this logs the table as a CREATE plus one
    /// INSERT per row — correct for any source, at the cost of walking
    /// the rows once; `CREATE TABLE … FROM STORE` goes through the
    /// compact [`Db::create_table_from_store`] instead.
    ///
    /// # Errors
    /// [`DbError::TableExists`] on a name collision.
    pub fn register_table(&self, table: Table) -> DbResult<()> {
        let name = table.name().to_string();
        let mut last_lsn = None;
        {
            let mut tables = self.tables.write().expect("catalog lock");
            if tables.contains_key(&name) {
                return Err(DbError::TableExists(name));
            }
            let mut table = table;
            if let Some(d) = &self.durable {
                let disk = !matches!(table.backing(), Backing::Memory);
                last_lsn = Some(d.wal.append(&WalRecord::CreateTable {
                    name: name.clone(),
                    dim: table.dim() as u32,
                    disk,
                })?);
                let mut log_err = None;
                table.scan_rows(&mut |_, x, y| {
                    if log_err.is_none() {
                        let record = WalRecord::Insert {
                            name: name.clone(),
                            features: x.to_vec(),
                            label: y,
                        };
                        match d.wal.append(&record) {
                            Ok(l) => last_lsn = Some(l),
                            Err(e) => log_err = Some(e),
                        }
                    }
                })?;
                if let Some(e) = log_err {
                    return Err(e);
                }
            }
            if let Some(l) = last_lsn {
                table.note_lsn(l);
            }
            tables.insert(name, Arc::new(RwLock::new(table)));
        }
        self.sync_lsn(last_lsn)
    }

    /// Loads a `bolton_data` row store as a new table, logging the compact
    /// `CREATE … FROM STORE` record. Until the next checkpoint, recovery
    /// re-reads `path` — a checkpoint snapshots the rows and drops that
    /// external dependency.
    ///
    /// # Errors
    /// [`DbError::TableExists`] on a collision; [`DbError::Corrupt`] for a
    /// bad or empty store.
    pub fn create_table_from_store(
        &self,
        name: &str,
        path: &str,
        disk: bool,
        pool_pages: usize,
    ) -> DbResult<usize> {
        // Load outside the catalog lock (the store may be large), then
        // re-check the name under the lock.
        let mut table = crate::sql::table_from_store(name, path, disk, pool_pages)?;
        let rows = table.row_count();
        let lsn;
        {
            let mut tables = self.tables.write().expect("catalog lock");
            if tables.contains_key(name) {
                return Err(DbError::TableExists(name.to_string()));
            }
            lsn = self.log_record(&WalRecord::CreateFromStore {
                name: name.to_string(),
                path: path.to_string(),
                disk,
            })?;
            if let Some(l) = lsn {
                table.note_lsn(l);
            }
            tables.insert(name.to_string(), Arc::new(RwLock::new(table)));
        }
        self.sync_lsn(lsn)?;
        Ok(rows)
    }

    /// Shared handle to a table. Callers take the table's read lock to
    /// scan and the write lock to mutate; the catalog map lock is released
    /// before this returns, so holding the handle never blocks CREATE/DROP
    /// of *other* tables.
    ///
    /// # Errors
    /// [`DbError::TableNotFound`] when absent.
    pub fn table(&self, name: &str) -> DbResult<Arc<RwLock<Table>>> {
        let tables = self.tables.read().expect("catalog lock");
        tables.get(name).cloned().ok_or_else(|| DbError::TableNotFound(name.to_string()))
    }

    /// Drops a table from the catalog. Sessions still holding the handle
    /// keep a usable table until the last `Arc` drops (MVCC-by-refcount).
    ///
    /// # Errors
    /// [`DbError::TableNotFound`] when absent.
    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let lsn;
        {
            let mut tables = self.tables.write().expect("catalog lock");
            if !tables.contains_key(name) {
                return Err(DbError::TableNotFound(name.to_string()));
            }
            lsn = self.log_record(&WalRecord::DropTable { name: name.to_string() })?;
            tables.remove(name);
        }
        self.sync_lsn(lsn)
    }

    /// Inserts one row into table `name`, WAL-first when durable: the
    /// record is appended under the table's write lock (so log order is
    /// apply order) and fsynced after the lock drops — an `Ok` return
    /// means the row survives a crash.
    ///
    /// # Errors
    /// [`DbError::TableNotFound`] / [`DbError::SchemaMismatch`]; storage
    /// and log failures.
    pub fn insert_row(&self, name: &str, features: &[f64], label: f64) -> DbResult<()> {
        let handle = self.table(name)?;
        let lsn = {
            let mut table = handle.write().expect("table lock");
            self.log_apply_insert(&mut table, name, features, label)?
        };
        self.sync_lsn(lsn)
    }

    /// The shared INSERT body: validate, log, apply, stamp — under the
    /// caller's table write lock. Returns the LSN to sync (None when not
    /// durable). `COPY FROM` loops this and syncs once at the end.
    pub(crate) fn log_apply_insert(
        &self,
        table: &mut Table,
        name: &str,
        features: &[f64],
        label: f64,
    ) -> DbResult<Option<u64>> {
        if features.len() != table.dim() {
            return Err(DbError::SchemaMismatch { expected: table.dim(), got: features.len() });
        }
        match &self.durable {
            Some(d) => {
                let lsn = d.wal.append(&WalRecord::Insert {
                    name: name.to_string(),
                    features: features.to_vec(),
                    label,
                })?;
                table.insert_at_lsn(features, label, lsn)?;
                Ok(Some(lsn))
            }
            None => {
                table.insert(features, label)?;
                Ok(None)
            }
        }
    }

    /// Appends `record` to the WAL (no fsync). Callers must hold the lock
    /// that serializes the mutation the record describes, and must call
    /// [`Db::sync_lsn`] after releasing it, before acknowledging.
    ///
    /// # Errors
    /// Log I/O failures.
    pub(crate) fn log_record(&self, record: &WalRecord) -> DbResult<Option<u64>> {
        match &self.durable {
            Some(d) => Ok(Some(d.wal.append(record)?)),
            None => Ok(None),
        }
    }

    /// Group-commits the log through `lsn` (no-op for `None` / non-durable).
    ///
    /// # Errors
    /// Fsync failures — the caller must not acknowledge the write.
    pub(crate) fn sync_lsn(&self, lsn: Option<u64>) -> DbResult<()> {
        match (&self.durable, lsn) {
            (Some(d), Some(lsn)) => d.wal.sync_to(lsn),
            _ => Ok(()),
        }
    }

    /// Snapshots every table into a fresh `checkpoint-N/` directory (the
    /// `bolton_data` row-store format), commits it via the `CURRENT`
    /// pointer swap, and truncates the WAL. Returns the number of tables
    /// snapshotted and the LSN the checkpoint covers.
    ///
    /// Holds the catalog read lock plus every table's read lock while the
    /// snapshot is written, so writers stall but readers keep scanning.
    ///
    /// # Errors
    /// [`DbError::Wal`] when the db is not durable; I/O failures.
    pub fn checkpoint(&self) -> DbResult<(usize, u64)> {
        let d = self.durable.as_ref().ok_or_else(|| {
            DbError::Wal(
                "CHECKPOINT requires a durable data directory (open the Db with Db::open)"
                    .to_string(),
            )
        })?;
        let _serial = d.checkpoint_lock.lock().expect("checkpoint lock");
        let tables = self.tables.read().expect("catalog lock");
        let guards: Vec<(&String, std::sync::RwLockReadGuard<'_, Table>)> =
            tables.iter().map(|(n, t)| (n, t.read().expect("table lock"))).collect();
        let n_tables = guards.len();
        // The snapshot must never get ahead of the durable log: sync first,
        // then everything ≤ lsn is both applied (locks held) and durable.
        // Sealing while the guards exclude appends makes `lsn` a segment
        // boundary, so the reset below drops the covered log whole even
        // when writers never pause.
        let lsn = d.wal.seal()?;

        let tmp = d.dir.join(CHECKPOINT_TMP);
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp)?;
        let mut catalog_text = format!("bolton-checkpoint v1\nlsn {lsn}\n");
        for (name, t) in &guards {
            if matches!(t.backing(), Backing::File(_)) {
                // Named heap files are user-visible artifacts: leave them
                // bytewise complete alongside the snapshot.
                t.flush_durable()?;
            }
            let disk = u8::from(!matches!(t.backing(), Backing::Memory));
            catalog_text.push_str(&format!("table {name} {} {disk} {}\n", t.dim(), t.row_count()));
            if t.row_count() > 0 {
                let store_path = tmp.join(format!("{name}.rowstore"));
                let chunk_rows = Page::rows_per_page(t.dim()).max(1);
                let mut writer = RowStoreWriter::create_dense(&store_path, t.dim(), chunk_rows)
                    .map_err(checkpoint_err)?;
                let mut write_err = None;
                t.scan_rows(&mut |_, x, y| {
                    if write_err.is_none() {
                        if let Err(e) = writer.push_dense(x, y) {
                            write_err = Some(e);
                        }
                    }
                })?;
                if let Some(e) = write_err {
                    return Err(checkpoint_err(e));
                }
                writer.finish().map_err(checkpoint_err)?;
                d.vfs.sync_file(&store_path)?;
            }
        }
        drop(guards);
        drop(tables);

        let catalog_file = d.vfs.create(&tmp.join(CATALOG_FILE))?;
        catalog_file.write_all(catalog_text.as_bytes())?;
        catalog_file.sync()?;
        drop(catalog_file);
        d.vfs.sync_dir(&tmp)?;

        // Commit: name the staged directory, swap CURRENT, truncate log.
        let seq = d.checkpoint_seq.fetch_add(1, Ordering::SeqCst);
        let ckpt_name = format!("checkpoint-{seq}");
        let ckpt_dir = d.dir.join(&ckpt_name);
        let _ = fs::remove_dir_all(&ckpt_dir);
        d.vfs.rename(&tmp, &ckpt_dir)?;
        d.vfs.sync_dir(&d.dir)?;
        let cur_tmp = d.dir.join(CURRENT_TMP);
        let cur = d.vfs.create(&cur_tmp)?;
        cur.write_all(format!("{ckpt_name}\n").as_bytes())?;
        cur.sync()?;
        drop(cur);
        d.vfs.rename(&cur_tmp, &d.dir.join(CURRENT_FILE))?;
        d.vfs.sync_dir(&d.dir)?;
        d.checkpoint_lsn.store(lsn, Ordering::SeqCst);
        // The checkpoint is committed; the records it covers are obsolete.
        // Records past `lsn` (appended after the snapshot guards dropped)
        // are carried over, never truncated.
        d.wal.reset(lsn)?;
        // Best-effort removal of superseded snapshots; a crash here just
        // leaves directories the next open garbage-collects.
        if let Ok(entries) = fs::read_dir(&d.dir) {
            for entry in entries.flatten() {
                let fname = entry.file_name().to_string_lossy().into_owned();
                if fname.starts_with("checkpoint-") && fname != ckpt_name {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
        Ok((n_tables, lsn))
    }

    /// Runs [`Db::checkpoint`] if the auto-checkpoint threshold is set and
    /// the WAL has accumulated that many records. Sessions call this after
    /// a mutation commits, with no locks held.
    ///
    /// # Errors
    /// Checkpoint failures.
    pub fn maybe_checkpoint(&self) -> DbResult<()> {
        if let Some(d) = &self.durable {
            if d.checkpoint_every > 0 && d.wal.records_since_checkpoint() >= d.checkpoint_every {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().expect("catalog lock").keys().cloned().collect()
    }

    /// Publishes a model under `name` in shared memory (visible to every
    /// session immediately).
    pub fn put_model(&self, name: &str, w: Vec<f64>) {
        let mut models = self.models.write().expect("model map lock");
        models.insert(name.to_string(), Arc::new(w));
    }

    /// A shared handle to an in-memory model.
    ///
    /// # Errors
    /// [`DbError::ModelNotFound`] when absent.
    pub fn model(&self, name: &str) -> DbResult<Arc<Vec<f64>>> {
        let models = self.models.read().expect("model map lock");
        models.get(name).cloned().ok_or_else(|| DbError::ModelNotFound(name.to_string()))
    }

    /// Names of all in-memory models, sorted.
    pub fn model_names(&self) -> Vec<String> {
        self.models.read().expect("model map lock").keys().cloned().collect()
    }
}

fn checkpoint_err(e: impl std::fmt::Display) -> DbError {
    DbError::Wal(format!("checkpoint: {e}"))
}

/// Loads a committed checkpoint directory: parses `CATALOG`, streams each
/// non-empty table's row store back into a fresh [`Table`].
///
/// `copy_mode` forces [`StoredDataset::open_copying`] so recovery reads stay
/// on the plain-`read` path when the active [`Vfs`](crate::fault::Vfs)
/// injects faults — mmap would bypass the vfs and hide injected errors.
fn load_checkpoint(ckpt_dir: &Path, copy_mode: bool) -> DbResult<(TableMap, u64)> {
    use bolton_sgd::TrainSet;
    let corrupt =
        |msg: String| DbError::Corrupt(format!("checkpoint {}: {msg}", ckpt_dir.display()));
    let text = fs::read_to_string(ckpt_dir.join(CATALOG_FILE))
        .map_err(|e| corrupt(format!("read CATALOG: {e}")))?;
    let mut lines = text.lines();
    if lines.next() != Some("bolton-checkpoint v1") {
        return Err(corrupt("bad CATALOG header".to_string()));
    }
    let lsn: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("lsn "))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| corrupt("bad CATALOG lsn line".to_string()))?;
    let mut tables = BTreeMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let (name, dim, disk, rows) = match parts.as_slice() {
            ["table", name, dim, disk, rows] => {
                let dim: usize =
                    dim.parse().map_err(|_| corrupt(format!("bad dim in '{line}'")))?;
                let rows: usize =
                    rows.parse().map_err(|_| corrupt(format!("bad rows in '{line}'")))?;
                (*name, dim, *disk == "1", rows)
            }
            _ => return Err(corrupt(format!("bad CATALOG line '{line}'"))),
        };
        let backing = if disk { Backing::TempFile } else { Backing::Memory };
        let mut table = Table::create(name, dim, backing, DEFAULT_POOL_PAGES)?;
        if rows > 0 {
            let store_path = ckpt_dir.join(format!("{name}.rowstore"));
            let store = if copy_mode {
                StoredDataset::open_copying(&store_path)
            } else {
                StoredDataset::open(&store_path)
            }
            .map_err(|e| corrupt(format!("row store for '{name}': {e}")))?;
            if TrainSet::dim(&store) != dim {
                return Err(corrupt(format!(
                    "row store for '{name}' has dim {}, CATALOG says {dim}",
                    TrainSet::dim(&store)
                )));
            }
            let mut insert_err = None;
            store.scan(&mut |_, x, y| {
                if insert_err.is_none() {
                    if let Err(e) = table.insert(x, y) {
                        insert_err = Some(e);
                    }
                }
            });
            if let Some(e) = insert_err {
                return Err(e);
            }
        }
        if table.row_count() != rows {
            return Err(corrupt(format!(
                "row store for '{name}' holds {} rows, CATALOG says {rows}",
                table.row_count()
            )));
        }
        table.note_lsn(lsn);
        table.flush()?;
        tables.insert(name.to_string(), Arc::new(RwLock::new(table)));
    }
    Ok((tables, lsn))
}

/// Applies one replayed WAL record to the recovering catalog. Replay runs
/// single-threaded inside `Db::open`, so the table locks are uncontended.
fn apply_record(tables: &mut TableMap, lsn: u64, record: &WalRecord) -> DbResult<()> {
    let missing =
        |name: &str| DbError::Corrupt(format!("wal replay (lsn {lsn}): table '{name}' not found"));
    let collides = |name: &str| {
        DbError::Corrupt(format!("wal replay (lsn {lsn}): table '{name}' already exists"))
    };
    match record {
        WalRecord::CreateTable { name, dim, disk } => {
            if tables.contains_key(name) {
                return Err(collides(name));
            }
            let backing = if *disk { Backing::TempFile } else { Backing::Memory };
            let mut table =
                Table::create(name.as_str(), *dim as usize, backing, DEFAULT_POOL_PAGES)?;
            table.note_lsn(lsn);
            tables.insert(name.clone(), Arc::new(RwLock::new(table)));
        }
        WalRecord::CreateFromStore { name, path, disk } => {
            if tables.contains_key(name) {
                return Err(collides(name));
            }
            let mut table = crate::sql::table_from_store(name, path, *disk, DEFAULT_POOL_PAGES)
                .map_err(|e| {
                    DbError::Wal(format!(
                        "replay CREATE FROM STORE '{path}' (lsn {lsn}): {e}; \
                         a CHECKPOINT snapshots such tables and drops the external dependency"
                    ))
                })?;
            table.note_lsn(lsn);
            tables.insert(name.clone(), Arc::new(RwLock::new(table)));
        }
        WalRecord::DropTable { name } => {
            tables.remove(name).ok_or_else(|| missing(name))?;
        }
        WalRecord::Insert { name, features, label } => {
            let handle = tables.get(name).ok_or_else(|| missing(name))?;
            handle.write().expect("table lock").insert_at_lsn(features, *label, lsn)?;
        }
        WalRecord::Synth { name, rows, seed, noise } => {
            // SYNTH logs its spec, not its rows: re-synthesizing with the
            // same seed is deterministic and bit-identical.
            let handle = tables.get(name).ok_or_else(|| missing(name))?;
            let mut table = handle.write().expect("table lock");
            let spec = SynthSpec {
                rows: *rows as usize,
                dim: table.dim(),
                label_noise: *noise,
                feature_scale: 1.0,
            };
            let backing = table.backing().clone();
            let mut rng = bolton_rng::seeded(*seed);
            *table = crate::synth::synthesize(name, &spec, backing, DEFAULT_POOL_PAGES, &mut rng)?;
            table.note_lsn(lsn);
        }
        WalRecord::Shuffle { name, seed } => {
            let handle = tables.get(name).ok_or_else(|| missing(name))?;
            let mut table = handle.write().expect("table lock");
            table.shuffle(&mut bolton_rng::seeded(*seed))?;
            table.note_lsn(lsn);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_drop_cycle() {
        let db = Db::new();
        db.create_table("t", 3, Backing::Memory, 8).unwrap();
        assert!(matches!(
            db.create_table("t", 3, Backing::Memory, 8),
            Err(DbError::TableExists(_))
        ));
        {
            let handle = db.table("t").unwrap();
            let mut table = handle.write().expect("table lock");
            table.insert(&[1.0, 2.0, 3.0], 1.0).unwrap();
        }
        assert_eq!(db.table("t").unwrap().read().expect("table lock").row_count(), 1);
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        db.drop_table("t").unwrap();
        assert!(matches!(db.table("t"), Err(DbError::TableNotFound(_))));
    }

    #[test]
    fn dropped_table_survives_for_holders() {
        let db = Db::new();
        db.create_table("t", 2, Backing::Memory, 8).unwrap();
        db.table("t").unwrap().write().expect("lock").insert(&[1.0, 2.0], -1.0).unwrap();
        let held = db.table("t").unwrap();
        db.drop_table("t").unwrap();
        // The session that grabbed the handle before the drop still scans.
        assert_eq!(held.read().expect("lock").row_count(), 1);
    }

    #[test]
    fn models_are_shared() {
        let db = Db::new();
        assert!(matches!(db.model("m"), Err(DbError::ModelNotFound(_))));
        db.put_model("m", vec![0.5, -0.5]);
        assert_eq!(*db.model("m").unwrap(), vec![0.5, -0.5]);
        assert_eq!(db.model_names(), vec!["m".to_string()]);
    }

    #[test]
    fn registry_requirement_is_explicit() {
        let db = Db::new();
        assert!(matches!(db.registry_required(), Err(DbError::Model(_))));
        assert!(db.registry().is_none());
    }

    #[test]
    fn from_catalog_migrates_tables() {
        let mut catalog = Catalog::new();
        catalog.create_table("a", 2, Backing::Memory, 8).unwrap();
        catalog.get_mut("a").unwrap().insert(&[1.0, 2.0], 1.0).unwrap();
        let db = Db::from_catalog(catalog);
        assert_eq!(db.table("a").unwrap().read().expect("lock").row_count(), 1);
    }

    fn data_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bolton-db-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Bit-exact scan snapshot of every table: name → (feature bits, label
    /// bits) per row.
    fn scan_bits(db: &Db) -> BTreeMap<String, Vec<(Vec<u64>, u64)>> {
        let mut out = BTreeMap::new();
        for name in db.table_names() {
            let handle = db.table(&name).unwrap();
            let table = handle.read().expect("table lock");
            let mut rows = Vec::new();
            table
                .scan_rows(&mut |_, x, y| {
                    rows.push((x.iter().map(|v| v.to_bits()).collect(), y.to_bits()));
                })
                .unwrap();
            out.insert(name, rows);
        }
        out
    }

    #[test]
    fn non_durable_db_rejects_checkpoint() {
        let db = Db::new();
        assert!(!db.is_durable());
        assert!(db.wal().is_none());
        assert!(matches!(db.checkpoint(), Err(DbError::Wal(_))));
    }

    #[test]
    fn durable_writes_survive_reopen() {
        let dir = data_dir("reopen");
        {
            let db = Db::open(&dir).unwrap();
            assert!(db.is_durable());
            assert_eq!(db.data_dir(), Some(dir.as_path()));
            db.create_table("t", 3, Backing::Memory, 8).unwrap();
            db.insert_row("t", &[1.0, 2.5, -0.125], 1.0).unwrap();
            db.insert_row("t", &[4.0, 5.0, 6.0], -1.0).unwrap();
            db.create_table("gone", 2, Backing::TempFile, 8).unwrap();
            db.drop_table("gone").unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        let handle = db.table("t").unwrap();
        let table = handle.read().expect("lock");
        assert_eq!(table.row_count(), 2);
        let mut buf = vec![0.0; 3];
        assert_eq!(table.read_row(0, &mut buf).unwrap(), 1.0);
        assert_eq!(buf, vec![1.0, 2.5, -0.125]);
        assert!(table.last_lsn() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_log_and_replays_only_the_tail() {
        let dir = data_dir("ckpt");
        let reference;
        {
            let db = Db::open(&dir).unwrap();
            db.create_table("t", 2, Backing::Memory, 8).unwrap();
            for i in 0..30 {
                db.insert_row("t", &[i as f64, -(i as f64)], 1.0).unwrap();
            }
            let (n_tables, lsn) = db.checkpoint().unwrap();
            assert_eq!(n_tables, 1);
            assert_eq!(lsn, 31);
            assert_eq!(db.wal().unwrap().records_since_checkpoint(), 0);
            // Every covered segment was deleted; what remains is empty.
            let live_wal_bytes: u64 = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| {
                    let e = e.unwrap();
                    e.file_name()
                        .to_str()
                        .and_then(crate::wal::parse_segment_seq)
                        .map(|_| e.metadata().unwrap().len())
                })
                .sum();
            assert_eq!(live_wal_bytes, 0);
            // Post-checkpoint tail: three more rows in the log only.
            for i in 30..33 {
                db.insert_row("t", &[i as f64, -(i as f64)], -1.0).unwrap();
            }
            reference = scan_bits(&db);
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.wal().unwrap().records_since_checkpoint(), 3);
        assert_eq!(scan_bits(&db), reference);
        // Recovery is idempotent: a second reopen is bit-identical too.
        drop(db);
        let db = Db::open(&dir).unwrap();
        assert_eq!(scan_bits(&db), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_under_a_running_writer_leaves_only_the_uncovered_tail_on_disk() {
        let dir = data_dir("ckpt-live");
        let db = Arc::new(Db::open(&dir).unwrap());
        db.create_table("t", 1, Backing::Memory, 8).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (progress_tx, progress) = std::sync::mpsc::channel();
        let writer = {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut rows = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    db.insert_row("t", &[rows as f64], 1.0).unwrap();
                    rows += 1;
                    let _ = progress_tx.send(rows);
                }
                rows
            })
        };
        // The writer is mid-stream before the checkpoint starts and still
        // going after it returns: records land on both sides of the cut.
        while progress.recv().unwrap() < 50 {}
        let (_, lsn) = db.checkpoint().unwrap();
        let seen = progress.recv().unwrap();
        while progress.recv().unwrap() < seen + 50 {}
        stop.store(true, Ordering::SeqCst);
        let rows = writer.join().unwrap();
        drop(db);

        // On disk: no record the checkpoint covers, every record after it.
        let mut segments: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_str().and_then(crate::wal::parse_segment_seq).is_some())
            .map(|e| e.path())
            .collect();
        segments.sort();
        let mut lsns = Vec::new();
        for path in segments {
            let (records, _) = crate::wal::decode_frames(&fs::read(path).unwrap());
            lsns.extend(records.into_iter().map(|(l, _)| l));
        }
        let last = 1 + rows as u64; // CREATE TABLE is LSN 1
        assert!(lsn < last, "the writer outran the checkpoint");
        assert_eq!(lsns, (lsn + 1..=last).collect::<Vec<_>>());

        // Reopen replays exactly that tail onto the snapshot.
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.wal().unwrap().records_since_checkpoint(), last - lsn);
        assert_eq!(db.table("t").unwrap().read().expect("lock").row_count(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn synth_and_shuffle_replay_bit_identically() {
        let dir = data_dir("synth");
        let reference;
        {
            let db = Db::open(&dir).unwrap();
            db.create_table("t", 4, Backing::Memory, 8).unwrap();
            let handle = db.table("t").unwrap();
            {
                let mut table = handle.write().expect("lock");
                let lsn = db
                    .log_record(&WalRecord::Synth {
                        name: "t".into(),
                        rows: 50,
                        seed: 9,
                        noise: 0.1,
                    })
                    .unwrap();
                let spec = SynthSpec { rows: 50, dim: 4, label_noise: 0.1, feature_scale: 1.0 };
                let mut rng = bolton_rng::seeded(9);
                *table = crate::synth::synthesize(
                    "t",
                    &spec,
                    Backing::Memory,
                    DEFAULT_POOL_PAGES,
                    &mut rng,
                )
                .unwrap();
                if let Some(l) = lsn {
                    table.note_lsn(l);
                }
                let lsn2 =
                    db.log_record(&WalRecord::Shuffle { name: "t".into(), seed: 3 }).unwrap();
                table.shuffle(&mut bolton_rng::seeded(3)).unwrap();
                if let Some(l) = lsn2 {
                    table.note_lsn(l);
                }
            }
            db.sync_lsn(Some(db.wal().unwrap().appended_lsn())).unwrap();
            reference = scan_bits(&db);
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(scan_bits(&db), reference, "seeded SYNTH+SHUFFLE replay is deterministic");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_fires_at_the_threshold() {
        let dir = data_dir("auto");
        let db = Db::open_with(DurabilityOptions::new(&dir).checkpoint_every(5)).unwrap();
        db.create_table("t", 2, Backing::Memory, 8).unwrap();
        for i in 0..3 {
            db.insert_row("t", &[i as f64, 0.0], 1.0).unwrap();
            db.maybe_checkpoint().unwrap();
        }
        assert!(!dir.join(CURRENT_FILE).exists(), "4 records < threshold 5");
        db.insert_row("t", &[9.0, 9.0], 1.0).unwrap();
        db.maybe_checkpoint().unwrap();
        assert!(dir.join(CURRENT_FILE).exists(), "threshold reached");
        assert_eq!(db.wal().unwrap().records_since_checkpoint(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn register_table_logs_rows_when_durable() {
        let dir = data_dir("register");
        let reference;
        {
            let db = Db::open(&dir).unwrap();
            let mut t = Table::in_memory("pre", 2);
            t.insert(&[0.5, -0.5], 1.0).unwrap();
            t.insert(&[1.5, -1.5], -1.0).unwrap();
            db.register_table(t).unwrap();
            reference = scan_bits(&db);
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(scan_bits(&db), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_discards_stale_checkpoint_dirs_and_tmp_debris() {
        let dir = data_dir("debris");
        {
            let db = Db::open(&dir).unwrap();
            db.create_table("t", 2, Backing::Memory, 8).unwrap();
            db.insert_row("t", &[1.0, 2.0], 1.0).unwrap();
            db.checkpoint().unwrap();
        }
        // Simulate crash debris: an orphan staged checkpoint, a stale
        // unreferenced snapshot, and tmp pointer files.
        fs::create_dir_all(dir.join(CHECKPOINT_TMP)).unwrap();
        fs::write(dir.join(CHECKPOINT_TMP).join(CATALOG_FILE), "garbage").unwrap();
        fs::create_dir_all(dir.join("checkpoint-99")).unwrap();
        fs::write(dir.join(CURRENT_TMP), "checkpoint-99\n").unwrap();
        fs::write(dir.join(WAL_TMP_FILE), "junk").unwrap();
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table("t").unwrap().read().expect("lock").row_count(), 1);
        assert!(!dir.join(CHECKPOINT_TMP).exists());
        assert!(!dir.join("checkpoint-99").exists());
        assert!(!dir.join(CURRENT_TMP).exists());
        assert!(!dir.join(WAL_TMP_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
