//! The per-layer probe battery (traced runs only): each layer's public
//! functions timed from outside on fixed inputs, and the counters the
//! layers already expose read around those calls. The inputs are the same
//! on every workload, so a layer number means the same thing wherever it
//! is printed; what differs per workload is the trace and the metrics the
//! phases derive from their own statements.

use crate::measure::{time_looped, time_once, Metrics, Ops};
use crate::stats::median;
use bolton::output_perturbation::{calibrate_sensitivity, train_private, BoltOnConfig};
use bolton::Budget;
use bolton_bismarck::protocol;
use bolton_bismarck::sql::{self, QueryResult};
use bolton_bismarck::wal::{encode_frame, Wal, WalRecord};
use bolton_bismarck::{
    Backing, Db, DurabilityOptions, EnginePool, ModelRegistry, Session, StdVfs, SynthSpec, Table,
};
use bolton_data::generator::{linear_binary, sparse_linear_binary};
use bolton_data::row_store::{RowStoreWriter, StoredDataset};
use bolton_linalg::{simd, vector};
use bolton_privacy::mechanisms::NoiseMechanism;
use bolton_sgd::{
    run_parallel_psgd, run_psgd, run_sparse_psgd, InMemoryDataset, Logistic, SgdConfig,
    SparseTrainSet, TrainSet,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::phases::train::{BATCH, LAMBDA};

const GB: f64 = 1e9;

/// Runs every probe. `unit` is the least time one timed unit may take
/// (each probe runs three such units and reports the median).
pub fn run_all(seed: u64, scratch: &Path, unit: Duration, ops: &mut Ops) -> Metrics {
    let mut m = Metrics::default();
    linalg(&mut m, seed, unit);
    noise(&mut m, seed, unit);
    let d50 = linear_binary(&mut bolton_rng::seeded(seed ^ 0x50), 50_000, 50, 0.05);
    let d510 = linear_binary(&mut bolton_rng::seeded(seed ^ 0x510), 6_000, 510, 0.05);
    engine(&mut m, seed, unit, &d50, &d510);
    row_store(&mut m, seed, scratch, unit, &d510, ops);
    table(&mut m, seed, unit, &d510, ops);
    parse(&mut m, unit);
    session(&mut m, seed, unit, ops);
    wire(&mut m, unit);
    wal(&mut m, scratch, unit, ops);
    db(&mut m, seed, scratch, ops);
    m
}

/// Median of the three units, in seconds per call.
fn secs(unit: Duration, f: impl FnMut()) -> f64 {
    median(&time_looped(unit, f))
}

fn linalg(m: &mut Metrics, seed: u64, unit: Duration) {
    let mut rng = bolton_rng::seeded(seed ^ 0x11);
    for d in [50usize, 510] {
        // A row matrix that fits the last-level cache the way a pinned
        // chunk does (≈ 2 MB), one model vector.
        let rows = (2 << 20) / (d * 8);
        let matrix: Vec<f64> =
            (0..rows * d).map(|_| bolton_rng::Rng::next_range(&mut rng, -0.1, 0.1)).collect();
        let mut w: Vec<f64> =
            (0..d).map(|_| bolton_rng::Rng::next_range(&mut rng, -0.1, 0.1)).collect();
        let per_pass = secs(unit, || {
            let mut acc = 0.0;
            for row in matrix.chunks_exact(d) {
                acc += vector::dot(&w, row);
            }
            black_box(acc);
        });
        m.put(&format!("linalg.dot_gbps.d{d}"), (rows * 2 * d * 8) as f64 / per_pass / GB);
        let per_pass = secs(unit, || {
            for row in matrix.chunks_exact(d) {
                black_box(vector::axpy_project_l2(1e-6, row, &mut w, 100.0));
            }
        });
        m.put(&format!("linalg.axpy_project_gbps.d{d}"), (rows * 3 * d * 8) as f64 / per_pass / GB);
        if d == 510 {
            let per_call = secs(unit, || {
                vector::scale(1.000_000_1, &mut w);
                vector::scale(0.999_999_9, &mut w);
            });
            m.put("linalg.scale_gbps.d510", (2 * 2 * d * 8) as f64 / per_call / GB);
        }
    }

    let sparse = sparse_linear_binary(&mut rng, 2_000, 100_000, 50.0 / 100_000.0, 0.0);
    let w = vec![0.01; 100_000];
    let per_pass = secs(unit, || {
        let mut acc = 0.0;
        for i in 0..2_000 {
            acc += sparse.row(i).dot_dense(&w);
        }
        black_box(acc);
    });
    m.put("linalg.sparse_dot_ns_per_nnz", per_pass * 1e9 / sparse.total_nnz() as f64);

    // Same-box baselines over 64 MiB buffers: the memory system's rate,
    // against which the kernels' GB/s are read.
    let n = (64 << 20) / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let triad = secs(unit, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(a[n / 2]);
    });
    m.put("linalg.triad_gbps", (3 * n * 8) as f64 / triad / GB);
    let copy = secs(unit, || {
        a.copy_from_slice(&b);
        black_box(a[n / 2]);
    });
    m.put("linalg.memcpy_gbps", (2 * n * 8) as f64 / copy / GB);
    m.put("linalg.simd_lanes", simd::active().lane_width() as f64);
}

fn bolt_on(passes: usize) -> BoltOnConfig {
    BoltOnConfig::new(Budget::pure(1.0).expect("eps = 1"))
        .with_passes(passes)
        .with_batch_size(BATCH)
        .with_projection(1.0 / LAMBDA)
}

fn noise(m: &mut Metrics, seed: u64, unit: Duration) {
    let mut rng = bolton_rng::seeded(seed ^ 0x22);
    let n = 100_000;
    let per_call = secs(unit, || {
        black_box(bolton_rng::random_permutation(&mut rng, n).len());
    });
    m.put("rng.permutation_ns_per_elem", per_call * 1e9 / n as f64);

    let budget = Budget::pure(1.0).expect("eps = 1");
    for d in [50usize, 510] {
        let mechanism = NoiseMechanism::for_budget(&budget, d, 0.01).expect("mechanism");
        let mut w = vec![0.0; d];
        let per_call = secs(unit, || mechanism.perturb(&mut rng, &mut w));
        m.put(&format!("privacy.noise_draw_us.d{d}"), per_call * 1e6);
    }
    let loss = Logistic::regularized(LAMBDA, 1.0 / LAMBDA);
    let config = bolt_on(10);
    let per_call = secs(unit, || {
        black_box(calibrate_sensitivity(&loss, &config, black_box(400_000)).expect("calibrate"));
    });
    m.put("core.calibrate_sensitivity_us", per_call * 1e6);
}

fn engine(
    m: &mut Metrics,
    seed: u64,
    unit: Duration,
    d50: &InMemoryDataset,
    d510: &InMemoryDataset,
) {
    let loss = Logistic::regularized(LAMBDA, 1.0 / LAMBDA);
    let config = |rows: usize, passes: usize| {
        SgdConfig::new(bolton::output_perturbation::paper_step_size(&loss, rows))
            .with_passes(passes)
            .with_batch_size(BATCH)
            .with_projection(1.0 / LAMBDA)
    };
    let visited = |data: &InMemoryDataset, passes: usize| (TrainSet::len(data) * passes) as f64;

    let c50 = config(TrainSet::len(d50), 2);
    let per_run = secs(unit, || {
        black_box(run_psgd(d50, &loss, &c50, &mut bolton_rng::seeded(seed)).updates);
    });
    m.put("sgd.engine_rows_per_s.mem_d50", visited(d50, 2) / per_run);
    let c510 = config(TrainSet::len(d510), 4);
    let per_run = secs(unit, || {
        black_box(run_psgd(d510, &loss, &c510, &mut bolton_rng::seeded(seed)).updates);
    });
    m.put("sgd.engine_rows_per_s.mem_d510", visited(d510, 4) / per_run);

    let private = bolt_on(2);
    let per_run = secs(unit, || {
        black_box(
            train_private(d50, &loss, &private, &mut bolton_rng::seeded(seed))
                .expect("train")
                .updates,
        );
    });
    m.put("core.train_private_rows_per_s.mem_d50", visited(d50, 2) / per_run);

    // Two shards on the process pool. On a one-thread box this is two
    // shards run back to back: a rate, never a speed-up.
    let per_run = secs(unit, || {
        black_box(run_parallel_psgd(d50, &loss, &c50, 2, &mut bolton_rng::seeded(seed)).updates);
    });
    m.put("sgd.parallel_rows_per_s.w2", visited(d50, 2) / per_run);
    let runner = bolton_sgd::pool::runner();
    let parts = runner.threads() + 1;
    let per_call = secs(unit, || {
        black_box(runner.run_ranges(parts, parts, |lo, hi| hi - lo).len());
    });
    m.put("sgd.pool_dispatch_us", per_call * 1e6);

    let sparse = sparse_linear_binary(
        &mut bolton_rng::seeded(seed ^ 0x5),
        20_000,
        100_000,
        50.0 / 100_000.0,
        0.05,
    );
    let cs = config(20_000, 2);
    let per_run = secs(unit, || {
        black_box(run_sparse_psgd(&sparse, &loss, &cs, &mut bolton_rng::seeded(seed)).updates);
    });
    m.put("sgd.sparse_nnz_per_s.mem", (sparse.total_nnz() * 2) as f64 / per_run);
}

/// The row store and its chunk cache on a d = 510 store a quarter of
/// which fits the budget, scanned in the chunk-local order out-of-core
/// training uses, with a visitor that does nothing.
fn row_store(
    m: &mut Metrics,
    seed: u64,
    scratch: &Path,
    unit: Duration,
    d510: &InMemoryDataset,
    ops: &mut Ops,
) {
    const CHUNK_ROWS: usize = 128;
    let rows = TrainSet::len(d510);
    let path = scratch.join("probe-dense.rowstore");
    let (_, write_secs) = time_once(|| {
        let mut writer =
            RowStoreWriter::create_dense(&path, 510, CHUNK_ROWS).expect("create store");
        for i in 0..rows {
            writer.push_dense(d510.features_of(i), d510.label_of(i)).expect("push row");
        }
        writer.finish().expect("finish store");
    });
    let file_bytes = std::fs::metadata(&path).map_or(0, |md| md.len()) as f64;
    let user_bytes = (rows * 511 * 8) as f64;
    m.put("data.store_write_mb_per_s", file_bytes / 1e6 / write_secs);
    m.put("data.file_bytes_per_user_byte", file_bytes / user_bytes);

    let budget = (file_bytes * 0.25) as usize;
    let order = bolton_rng::chunked_permutation(&mut bolton_rng::seeded(seed), rows, CHUNK_ROWS);
    let mapped = StoredDataset::open_with_budget(&path, budget).expect("open store");
    let per_scan = secs(unit, || {
        TrainSet::scan_order(&mapped, &order, &mut |_, x, y| {
            black_box((x.len(), y));
        });
    });
    m.put("data.scan_rows_per_s.store_mmap", rows as f64 / per_scan);
    // Counters of exactly one scan from a cold cache: they repeat exactly.
    let cold = StoredDataset::open_with_budget(&path, budget).expect("open store");
    TrainSet::scan_order(&cold, &order, &mut |_, x, y| {
        black_box((x.len(), y));
    });
    TrainSet::scan_order(&cold, &order, &mut |_, x, y| {
        black_box((x.len(), y));
    });
    let stats = cold.cache_stats();
    ops.check(stats.peak_resident_bytes <= budget, || {
        "probe store exceeded its cache budget".to_string()
    });
    m.put("data.chunk_hit_rate", stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64);
    m.put("data.chunk_evictions", stats.evictions as f64);
    m.put("data.borrowed_hits", stats.borrowed_mmap_hits as f64);
    m.put("data.copied_hits", stats.copied_hits as f64);
    m.put("data.peak_resident_bytes", stats.peak_resident_bytes as f64);

    let copying =
        StoredDataset::open_copying_with_budget(&path, budget).expect("open store (copy)");
    let per_scan = secs(unit, || {
        TrainSet::scan_order(&copying, &order, &mut |_, x, y| {
            black_box((x.len(), y));
        });
    });
    m.put("data.scan_rows_per_s.store_copy", rows as f64 / per_scan);

    let sparse = sparse_linear_binary(
        &mut bolton_rng::seeded(seed ^ 0x6),
        20_000,
        100_000,
        50.0 / 100_000.0,
        0.05,
    );
    let sparse_path = scratch.join("probe-sparse.rowstore");
    let mut writer =
        RowStoreWriter::create_sparse(&sparse_path, 100_000, 512).expect("create sparse store");
    for i in 0..20_000 {
        writer.push_sparse(sparse.row(i), sparse.label_of(i)).expect("push sparse row");
    }
    writer.finish().expect("finish sparse store");
    let sparse_bytes = std::fs::metadata(&sparse_path).map_or(0, |md| md.len());
    let stored = StoredDataset::open_with_budget(&sparse_path, (sparse_bytes / 4) as usize)
        .expect("open sparse");
    let order = bolton_rng::chunked_permutation(&mut bolton_rng::seeded(seed), 20_000, 512);
    let per_scan = secs(unit, || {
        SparseTrainSet::scan_order_sparse(&stored, &order, &mut |_, row, y| {
            black_box((row.nnz(), y));
        });
    });
    m.put("data.scan_rows_per_s.store_sparse", 20_000.0 / per_scan);

    // The same store loaded into a DISK table the way
    // `CREATE TABLE … FROM STORE … DISK` does.
    let db = Db::new();
    let (loaded, load_secs) =
        time_once(|| db.create_table_from_store("probe", &path.to_string_lossy(), true, 256));
    ops.check(loaded.as_ref().ok() == Some(&rows), || format!("load from store: {loaded:?}"));
    m.put("table.load_from_store_rows_per_s", rows as f64 / load_secs);
}

fn table(m: &mut Metrics, seed: u64, unit: Duration, d510: &InMemoryDataset, ops: &mut Ops) {
    let noop = &mut |_: usize, x: &[f64], y: f64| {
        black_box((x.len(), y));
    };
    // In memory, d = 50: the `train_sql_dense` table shape.
    let rows = 50_000;
    let spec = SynthSpec { rows, dim: 50, label_noise: 0.05, feature_scale: 1.0 };
    let mem = bolton_bismarck::synthesize(
        "probe_mem",
        &spec,
        Backing::Memory,
        256,
        &mut bolton_rng::seeded(seed),
    )
    .expect("synthesize");
    let order = bolton_rng::random_permutation(&mut bolton_rng::seeded(seed), rows);
    let per_scan = secs(unit, || mem.scan_rows(noop).expect("scan"));
    m.put("table.scan_rows_per_s.mem_d50", rows as f64 / per_scan);
    let per_scan = secs(unit, || TrainSet::scan_order(&mem, &order, noop));
    m.put("table.scan_order_rows_per_s.mem_d50", rows as f64 / per_scan);

    // On disk, d = 510, two rows a page, 256-page pool: ≈ 8 % resident.
    let rows = TrainSet::len(d510);
    let mut disk =
        Table::create("probe_disk", 510, Backing::TempFile, 256).expect("create disk table");
    let (inserted, insert_secs) = time_once(|| {
        (0..rows).try_for_each(|i| disk.insert(d510.features_of(i), d510.label_of(i)))
    });
    ops.check(inserted.is_ok(), || format!("disk table insert: {inserted:?}"));
    disk.flush().expect("flush");
    m.put("table.insert_rows_per_s", rows as f64 / insert_secs);
    let per_scan = secs(unit, || disk.scan_rows(noop).expect("scan"));
    m.put("table.scan_rows_per_s.disk_d510", rows as f64 / per_scan);
    let order = bolton_rng::random_permutation(&mut bolton_rng::seeded(seed), rows);
    let per_scan = secs(unit, || TrainSet::scan_order(&disk, &order, noop));
    m.put("table.scan_order_rows_per_s.disk_d510", rows as f64 / per_scan);
    // Pool counters of exactly one permuted scan.
    disk.reset_pool_stats();
    TrainSet::scan_order(&disk, &order, noop);
    let stats = disk.pool_stats();
    m.put("buffer.hit_rate", stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64);
    m.put("buffer.misses", stats.misses as f64);
    m.put("buffer.evictions", stats.evictions as f64);
}

const COUNT_SQL: &str = "SELECT COUNT(*) FROM t";
const INSERT_SQL: &str =
    "INSERT INTO w VALUES (0.125, -0.25, 0.0625, 0.3, -0.11, 0.2, 0.05, -0.3, 1)";
const TRAIN_SQL: &str = "TRAIN m ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 10 BATCH 10 SEED 7";

fn parse(m: &mut Metrics, unit: Duration) {
    for (name, text) in [("count", COUNT_SQL), ("insert", INSERT_SQL), ("train", TRAIN_SQL)] {
        let per_call = secs(unit, || {
            black_box(sql::parse(black_box(text)).is_ok());
        });
        m.put(&format!("sql.parse_us.{name}"), per_call * 1e6);
    }
    // The server's defaults: 4 engines × 256 cached statements.
    let pool = EnginePool::new(4, 256);
    let per_call = secs(unit, || {
        black_box(pool.parse(COUNT_SQL).is_ok());
    });
    m.put("engine.parse_hit_us", per_call * 1e6);
    // More distinct texts than the pool caches, visited round robin.
    let texts: Vec<String> =
        (0..4096).map(|s| format!("SELECT PRIVATE COUNT(*) FROM t EPS 0.1 SEED {s}")).collect();
    let mut next = 0;
    let per_call = secs(unit, || {
        black_box(pool.parse(&texts[next % texts.len()]).is_ok());
        next += 1;
    });
    m.put("engine.parse_miss_us", per_call * 1e6);
}

/// `Session::execute` on parsed statements: statement cost without the
/// parser or the wire.
fn session(m: &mut Metrics, seed: u64, unit: Duration, ops: &mut Ops) {
    let mut s = Session::new(Arc::new(Db::new()));
    for text in [
        "CREATE TABLE t (DIM 8)".to_string(),
        format!("SYNTH t ROWS 1000 SEED {seed} NOISE 0.05"),
        format!("TRAIN m ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 10 BATCH 10 SEED {seed}"),
        "PREPARE q AS SELECT AVG($1) FROM t".to_string(),
    ] {
        ops.attempt(1);
        if let Err(e) = s.run(&text) {
            ops.fail(format!("session probe {text}: {e}"));
            return;
        }
    }
    let mut probe = |name: &str, text: &str, scale: f64| {
        let stmt = sql::parse(text).expect("probe statement parses");
        ops.check(s.execute(&stmt).is_ok(), || format!("session probe {text} failed"));
        let per_call = secs(unit, || {
            black_box(matches!(s.execute(&stmt), Ok(QueryResult::Ok)));
        });
        m.put(name, per_call * scale);
    };
    probe("session.count_us", COUNT_SQL, 1e6);
    probe("session.execute_prepared_us", "EXECUTE q (3)", 1e6);
    probe("session.eval_us_per_krow", "EVAL m ON t", 1e6);
    probe("session.private_count_us", "SELECT PRIVATE COUNT(*) FROM t EPS 0.1 SEED 5", 1e6);
}

fn wire(m: &mut Metrics, unit: Duration) {
    for size in [64usize, 4096] {
        let payload = vec![b'x'; size];
        let mut buf = Vec::with_capacity(size + protocol::HEADER_LEN);
        let encode = secs(unit, || {
            buf.clear();
            protocol::encode_into(&mut buf, 0, 7, black_box(&payload));
            black_box(buf.len());
        });
        let decode = secs(unit, || {
            black_box(protocol::decode(black_box(&buf), protocol::MAX_FRAME_PAYLOAD).is_ok());
        });
        m.put(&format!("protocol.encode_ns.b{size}"), encode * 1e9);
        m.put(&format!("protocol.decode_ns.b{size}"), decode * 1e9);
        m.put(&format!("protocol.frame_mb_per_s.b{size}"), size as f64 / 1e6 / (encode + decode));
    }
}

fn insert_record() -> WalRecord {
    WalRecord::Insert {
        name: "w".to_string(),
        features: vec![0.125, -0.25, 0.0625, 0.3, -0.11, 0.2, 0.05, -0.3],
        label: 1.0,
    }
}

fn wal(m: &mut Metrics, scratch: &Path, unit: Duration, ops: &mut Ops) {
    let dir = scratch.join("probe-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    let record = insert_record();
    m.put("wal.bytes_per_row", encode_frame(1, &record).len() as f64);
    let opened = Wal::open(&dir, Arc::new(StdVfs), true, 0);
    let Ok((log, _)) = opened else {
        ops.fail("wal probe: open failed");
        return;
    };
    let per_call = secs(unit, || {
        black_box(log.append(&record).expect("append"));
    });
    m.put("wal.append_us", per_call * 1e6);
    // One append then the fsync that makes it durable; the append's own
    // cost (just measured) is subtracted.
    let both = secs(unit, || {
        let lsn = log.append(&record).expect("append");
        log.sync_to(lsn).expect("sync");
    });
    m.put("wal.fsync_us", (both - per_call).max(0.0) * 1e6);
    ops.check(log.durable_lsn() == log.appended_lsn(), || {
        "wal probe: durable LSN lags".to_string()
    });
    let records = log.appended_lsn();
    drop(log);
    let (reopened, replay_secs) = time_once(|| Wal::open(&dir, Arc::new(StdVfs), true, 0));
    match reopened {
        Ok((_, replayed)) => {
            ops.check(replayed.len() as u64 == records, || {
                format!("wal probe: replayed {} of {records} records", replayed.len())
            });
            m.put("wal.replay_rows_per_s", records as f64 / replay_secs);
        }
        Err(e) => ops.fail(format!("wal probe: reopen failed: {e}")),
    }
}

/// Checkpoint and recovery of a 100 000-row table in process, and the
/// model registry's save/load.
fn db(m: &mut Metrics, seed: u64, scratch: &Path, ops: &mut Ops) {
    const ROWS: usize = 100_000;
    const TAIL: usize = 10_000;
    let dir = scratch.join("probe-db");
    let _ = std::fs::remove_dir_all(&dir);
    // Syncing off: these probes time checkpoint and replay, not fsync.
    let open = || Db::open_with(DurabilityOptions::new(&dir).sync_wal(false));
    let db = match open() {
        Ok(db) => Arc::new(db),
        Err(e) => {
            ops.fail(format!("db probe: open failed: {e}"));
            return;
        }
    };
    let mut s = Session::new(Arc::clone(&db));
    for text in [
        "CREATE TABLE w (DIM 8)".to_string(),
        format!("SYNTH w ROWS {ROWS} SEED {seed} NOISE 0.05"),
    ] {
        ops.attempt(1);
        if let Err(e) = s.run(&text) {
            ops.fail(format!("db probe {text}: {e}"));
            return;
        }
    }
    let checkpoints: Vec<f64> = (0..3)
        .map(|_| {
            ops.attempt(1);
            let (done, secs) = time_once(|| db.checkpoint());
            if let Err(e) = done {
                ops.fail(format!("db probe: CHECKPOINT failed: {e}"));
            }
            secs
        })
        .collect();
    let checkpoint_s = median(&checkpoints);
    m.put("db.checkpoint_s", checkpoint_s);
    m.put("db.checkpoint_mb_per_s", (ROWS * 72) as f64 / 1e6 / checkpoint_s);
    drop(s);
    drop(db);

    let reopen = |expect: usize, ops: &mut Ops| -> f64 {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let (db, secs) = time_once(open);
                let rows = db.ok().and_then(|db| {
                    let handle = db.table("w").ok()?;
                    let n = handle.read().expect("table lock").row_count();
                    Some(n)
                });
                ops.check(rows == Some(expect), || {
                    format!("db probe: recovered {rows:?} of {expect} rows")
                });
                secs
            })
            .collect();
        median(&samples)
    };
    m.put("db.recovery_s.checkpoint_only", reopen(ROWS, ops));
    match open() {
        Ok(db) => {
            let x = [0.125, -0.25, 0.0625, 0.3, -0.11, 0.2, 0.05, -0.3];
            let inserted = (0..TAIL).try_for_each(|_| db.insert_row("w", &x, 1.0));
            ops.check(inserted.is_ok(), || format!("db probe: tail insert failed: {inserted:?}"));
        }
        Err(e) => ops.fail(format!("db probe: reopen failed: {e}")),
    }
    m.put("db.recovery_s.log_tail_10k", reopen(ROWS + TAIL, ops));

    let registry_dir = scratch.join("probe-registry");
    let _ = std::fs::remove_dir_all(&registry_dir);
    match ModelRegistry::open(&registry_dir) {
        Ok(registry) => {
            let w = vec![0.25; 50];
            let saves: Vec<f64> =
                (0..5).map(|_| time_once(|| registry.save("m", None, &w)).1).collect();
            let loads: Vec<f64> =
                (0..5).map(|_| time_once(|| registry.load("m", None)).1).collect();
            ops.check(registry.load("m", None).ok().as_deref() == Some(&w[..]), || {
                "registry probe: loaded model differs".to_string()
            });
            m.put("registry.save_us", median(&saves) * 1e6);
            m.put("registry.load_us", median(&loads) * 1e6);
        }
        Err(e) => ops.fail(format!("registry probe: open failed: {e}")),
    }
}
