//! Crash-recovery tests for the bismarck table write-ahead log.
//!
//! The deterministic fault harness (`bolton_bismarck::fault`) counts every
//! filesystem operation a workload performs, then replays the identical
//! workload once per operation index with an injected crash at that index.
//! After each crash the data directory is reopened on the real filesystem
//! and the recovered state must be an *ack-prefix* of the pre-crash run:
//! every acknowledged statement survives bit-identically, the statement
//! in flight at the crash is either fully present or fully absent, and
//! nothing else exists. A second reopen must be bit-identical to the
//! first (replay idempotence).

use bolton_bismarck::fault::FaultVfs;
use bolton_bismarck::{Backing, Db, DurabilityOptions, Session};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bolton-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit-exact snapshot of every table: name → `(feature bits, label bits)`
/// per row, in scan order.
type Snapshot = BTreeMap<String, Vec<(Vec<u64>, u64)>>;

fn snapshot(db: &Db) -> Snapshot {
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

/// Applies `ops` through one session, stopping at the injected crash.
/// Returns the number of acknowledged statements and the snapshot after
/// each ack (`snaps[i]` = state once `i` statements were acked; `snaps[0]`
/// = the state the Db opened with).
fn run_ops(db: &Arc<Db>, ops: &[String], vfs: &FaultVfs) -> (usize, Vec<Snapshot>) {
    let mut session = Session::new(Arc::clone(db));
    let mut snaps = vec![snapshot(db)];
    for (i, op) in ops.iter().enumerate() {
        match session.run(op) {
            Ok(_) => snaps.push(snapshot(db)),
            Err(e) => {
                assert!(vfs.crashed(), "op {i} '{op}' failed without an injected crash: {e}");
                break;
            }
        }
    }
    (snaps.len() - 1, snaps)
}

fn open_faulted(dir: &PathBuf, vfs: &FaultVfs) -> Result<Arc<Db>, bolton_bismarck::DbError> {
    Db::open_with(DurabilityOptions::new(dir).vfs(Arc::new(vfs.clone()))).map(Arc::new)
}

/// Runs `ops` to completion under a counting vfs, returning the total
/// filesystem-operation count and the per-ack snapshots.
fn probe(tag: &str, ops: &[String]) -> (u64, Vec<Snapshot>) {
    let dir = temp_dir(tag);
    let vfs = FaultVfs::counting();
    let db = open_faulted(&dir, &vfs).unwrap();
    let (acked, snaps) = run_ops(&db, ops, &vfs);
    assert_eq!(acked, ops.len(), "probe run must complete");
    drop(db);
    let total = vfs.ops();
    std::fs::remove_dir_all(&dir).unwrap();
    (total, snaps)
}

/// Crashes `ops` at filesystem operation `k`, reopens on the real
/// filesystem twice, and asserts ack-prefix recovery plus idempotence.
fn assert_prefix_recovery(tag: &str, ops: &[String], k: u64, snaps: &[Snapshot]) {
    let dir = temp_dir(tag);
    let vfs = FaultVfs::crash_at(k);
    let acked = match open_faulted(&dir, &vfs) {
        Ok(db) => run_ops(&db, ops, &vfs).0,
        Err(_) => {
            assert!(vfs.crashed(), "open failed without an injected crash");
            0
        }
    };
    assert!(vfs.crashed(), "crash index {k} was never reached");
    let db = Db::open(&dir).unwrap();
    let recovered = snapshot(&db);
    assert!(
        recovered == snaps[acked] || (acked + 1 < snaps.len() && recovered == snaps[acked + 1]),
        "crash at fs-op {k}: recovered state is not an ack-prefix ({acked} acked)"
    );
    drop(db);
    let db = Db::open(&dir).unwrap();
    assert_eq!(snapshot(&db), recovered, "crash at fs-op {k}: second replay diverged");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A workload touching every WAL record kind plus both checkpoint flavors
/// (mid-log and log-tail), so the exhaustive matrix below crosses every
/// record kind with every crash window — pre-fsync, post-fsync, and each
/// step of the checkpoint rename dance.
fn workload() -> Vec<String> {
    [
        "CREATE TABLE t (DIM 3)",
        "INSERT INTO t VALUES (1, 2, 3, 1)",
        "INSERT INTO t VALUES (4.5, -5.25, 6e-3, -1)",
        "CHECKPOINT",
        "INSERT INTO t VALUES (7, 8, 9, 1)",
        "CREATE TABLE s (DIM 2)",
        "SYNTH s ROWS 20 SEED 5 NOISE 0.1",
        "SHUFFLE t SEED 11",
        "INSERT INTO t VALUES (-10, 0.5, 12, -1)",
        "CHECKPOINT",
        "DROP TABLE s",
        "INSERT INTO t VALUES (13, -14, 0.15, 1)",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// The exhaustive crash matrix: every filesystem operation of the full
/// workload, crashed exactly once each.
#[test]
fn every_crash_point_recovers_an_ack_prefix() {
    let ops = workload();
    let (total, snaps) = probe("matrix-probe", &ops);
    assert!(total > 20, "workload too small to be a meaningful matrix ({total} fs-ops)");
    for k in 0..total {
        assert_prefix_recovery("matrix", &ops, k, &snaps);
    }
}

/// Torn tail record: the crash tears the final WAL append, leaving a
/// partial frame on disk. Recovery must drop exactly that record, keep
/// everything before it, and leave a log that accepts new appends.
#[test]
fn torn_tail_record_is_dropped_and_log_stays_usable() {
    // Probe the fs-op index of the second insert's WAL append.
    let probe_dir = temp_dir("torn-probe");
    let counting = FaultVfs::counting();
    {
        let db = open_faulted(&probe_dir, &counting).unwrap();
        db.create_table("t", 2, Backing::Memory, 8).unwrap();
        db.insert_row("t", &[1.5, -2.5], 1.0).unwrap();
    }
    let write_op = counting.ops(); // the next op is insert #2's append
    std::fs::remove_dir_all(&probe_dir).unwrap();

    // Tear that append at several cut points: nothing, a partial frame
    // header, and a partial payload.
    for keep in [0usize, 3, 11, 27] {
        let dir = temp_dir(&format!("torn-{keep}"));
        let vfs = FaultVfs::crash_torn(write_op, keep);
        {
            let db = open_faulted(&dir, &vfs).unwrap();
            db.create_table("t", 2, Backing::Memory, 8).unwrap();
            db.insert_row("t", &[1.5, -2.5], 1.0).unwrap();
            assert!(db.insert_row("t", &[9.0, 9.0], -1.0).is_err(), "keep={keep}");
            assert!(vfs.crashed());
        }
        {
            let db = Db::open(&dir).unwrap();
            let handle = db.table("t").unwrap();
            let table = handle.read().expect("table lock");
            assert_eq!(table.row_count(), 1, "keep={keep}: torn record must vanish");
            let mut buf = vec![0.0; 2];
            assert_eq!(table.read_row(0, &mut buf).unwrap(), 1.0);
            assert_eq!(
                (buf[0].to_bits(), buf[1].to_bits()),
                (1.5f64.to_bits(), (-2.5f64).to_bits()),
                "keep={keep}: surviving row must be bit-identical"
            );
            drop(table);
            // The truncated log accepts new appends...
            db.insert_row("t", &[7.0, -7.0], 1.0).unwrap();
        }
        // ...and they replay on the next open.
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table("t").unwrap().read().expect("lock").row_count(), 2, "keep={keep}");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Readers hammer COUNT/EVAL while two writers INSERT under group commit
/// and a third thread checkpoints; the injected crash lands somewhere in
/// the middle of the race. On reopen, every acknowledged row must survive
/// bit-identically, each writer's rows must form a gapless prefix of its
/// insert sequence (at most one unacknowledged row may ride in on another
/// committer's fsync), and no torn/partial row may exist.
#[test]
fn concurrent_writers_and_readers_crash_cleanly() {
    fn row_for(writer: usize, seq: u64) -> (Vec<f64>, f64) {
        let x = vec![writer as f64, seq as f64, (seq as f64) * 0.0625 - writer as f64 / 3.0];
        (x, if seq.is_multiple_of(2) { 1.0 } else { -1.0 })
    }

    let dir = temp_dir("race");
    let vfs = FaultVfs::crash_at(240);
    let db = open_faulted(&dir, &vfs).unwrap();
    db.create_table("t", 3, Backing::Memory, 64).unwrap();
    db.put_model("m", vec![0.5, -0.25, 0.125]);
    // Seed one acked row per writer so EVAL never sees an empty table.
    let mut seeded = [0u64; 2];
    for (w, acked) in seeded.iter_mut().enumerate() {
        let (x, y) = row_for(w, 0);
        db.insert_row("t", &x, y).unwrap();
        *acked = 1;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut acked = 1u64;
                for seq in 1..2000u64 {
                    let (x, y) = row_for(w, seq);
                    match db.insert_row("t", &x, y) {
                        Ok(()) => acked += 1,
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();
    let checkpointer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if db.checkpoint().is_err() {
                    break; // the crash reached the checkpoint path
                }
                std::thread::yield_now();
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut session = Session::new(db);
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Reads must never panic or see a torn row; errors
                    // (e.g. post-crash) are fine.
                    let _ = session.run("SELECT COUNT(*) FROM t");
                    let _ = session.run("EVAL m ON t");
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    let acked: Vec<u64> = writers.into_iter().map(|h| h.join().expect("writer")).collect();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader") > 0, "readers must have made progress");
    }
    checkpointer.join().expect("checkpointer");
    assert!(vfs.crashed(), "the workload never reached the crash index");
    drop(db);

    // Reopen on the real filesystem and audit every recovered row.
    let db = Db::open(&dir).unwrap();
    let handle = db.table("t").unwrap();
    let table = handle.read().expect("table lock");
    let mut seqs: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    table
        .scan_rows(&mut |_, x, y| {
            assert_eq!(x.len(), 3, "torn row: wrong width");
            let w = x[0] as usize;
            assert!(w < 2, "torn row: unknown writer tag {}", x[0]);
            let seq = x[1] as u64;
            let (ex, ey) = row_for(w, seq);
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u64> = ex.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, expect, "writer {w} seq {seq}: features not bit-identical");
            assert_eq!(y.to_bits(), ey.to_bits(), "writer {w} seq {seq}: label mutated");
            seqs[w].push(seq);
        })
        .unwrap();
    for (w, mut got) in seqs.into_iter().enumerate() {
        got.sort_unstable();
        let n = got.len() as u64;
        assert!(n >= acked[w], "writer {w}: acked {} rows, recovered {n}", acked[w]);
        assert!(n <= acked[w] + 1, "writer {w}: more than one unacked row survived");
        let expect: Vec<u64> = (0..n).collect();
        assert_eq!(got, expect, "writer {w}: recovered rows are not a gapless prefix");
    }
}

/// The crash matrix over the *served* path: one v2 connection keeps eight
/// inserts in flight against a server whose filesystem dies at op `k`, for
/// every `k` of the whole run (set-up, pipelined commit, drain-time
/// checkpoint). Whatever the committer acknowledged must be on disk, and
/// nothing beyond what was in flight may have ridden in unacknowledged.
#[test]
fn pipelined_served_writer_crashed_at_every_op_keeps_every_acked_row() {
    use bolton_bismarck::server::{serve, Client};
    use bolton_bismarck::ServerConfig;
    use std::collections::{BTreeSet, HashMap};
    const DEPTH: usize = 8;
    const INSERTS: usize = 24;

    /// Serves `dir` over `vfs`, streams the inserts, drains; returns the
    /// row values whose insert was answered `ok`.
    fn serve_and_insert(dir: &PathBuf, vfs: &FaultVfs) -> BTreeSet<usize> {
        let mut acked = BTreeSet::new();
        let Ok(db) = open_faulted(dir, vfs) else { return acked };
        let server = serve(db, &ServerConfig::default()).unwrap();
        let mut client = Client::connect_v2(server.addr()).unwrap();
        if client.expect_ok("CREATE TABLE t (DIM 1)").is_ok() {
            let mut in_flight: HashMap<u32, usize> = HashMap::new();
            let mut next = 0;
            loop {
                while next < INSERTS && in_flight.len() < DEPTH {
                    let sql = format!("INSERT INTO t VALUES ({next}, 1)");
                    in_flight.insert(client.send_request(&sql).unwrap(), next);
                    next += 1;
                }
                if in_flight.is_empty() {
                    break;
                }
                let (id, response) = client.recv_response().unwrap();
                let value = in_flight.remove(&id).expect("a response for a request in flight");
                if response.is_ok() {
                    acked.insert(value);
                }
            }
        }
        drop(client);
        server.stop();
        acked
    }

    let probe_dir = temp_dir("served-probe");
    let counting = FaultVfs::counting();
    assert_eq!(serve_and_insert(&probe_dir, &counting).len(), INSERTS, "probe run must complete");
    std::fs::remove_dir_all(&probe_dir).unwrap();
    // How the statements group onto fsyncs differs from run to run, so a
    // late `k` may lie past the end of its own run: then nothing crashes
    // and everything must simply be there.
    for k in 0..counting.ops() {
        let dir = temp_dir("served");
        let acked = serve_and_insert(&dir, &FaultVfs::crash_at(k));
        let mut recovered = Vec::new();
        for _ in 0..2 {
            let db = Db::open(&dir).unwrap();
            let mut rows = BTreeSet::new();
            if let Ok(handle) = db.table("t") {
                let table = handle.read().expect("table lock");
                table.scan_rows(&mut |_, x, _| assert!(rows.insert(x[0] as usize))).unwrap();
            }
            recovered.push(rows);
        }
        assert!(
            recovered[0].is_superset(&acked),
            "crash at fs-op {k}: acked {acked:?}, recovered {:?}",
            recovered[0]
        );
        assert!(
            recovered[0].len() <= acked.len() + DEPTH,
            "crash at fs-op {k}: {} rows recovered, {} acked",
            recovered[0].len(),
            acked.len()
        );
        assert_eq!(recovered[0], recovered[1], "crash at fs-op {k}: second replay diverged");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes a byte string into a workload over table `t` (plus
    /// synth-target side tables), covering INSERT, SYNTH, SHUFFLE, and
    /// CHECKPOINT in arbitrary orders.
    fn decode_ops(codes: &[u8]) -> Vec<String> {
        let mut ops = vec!["CREATE TABLE t (DIM 2)".to_string()];
        for (i, c) in codes.iter().enumerate() {
            match c % 5 {
                0 | 1 => ops.push(format!(
                    "INSERT INTO t VALUES ({}, {}, {})",
                    i as f64 * 1.25,
                    -(i as f64) / 3.0,
                    if c % 2 == 0 { 1 } else { -1 }
                )),
                2 => ops.push("CHECKPOINT".to_string()),
                3 => ops.push(format!("SHUFFLE t SEED {i}")),
                _ => {
                    ops.push(format!("CREATE TABLE s{i} (DIM 2)"));
                    ops.push(format!("SYNTH s{i} ROWS {} SEED {i} NOISE 0.1", 5 + i));
                }
            }
        }
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_interleavings_recover_to_an_ack_prefix(
            codes in proptest::collection::vec(0u8..=255, 1..10),
            crash_seed in any::<u64>(),
        ) {
            let ops = decode_ops(&codes);
            let (total, snaps) = probe("prop-probe", &ops);
            let k = crash_seed % total;
            assert_prefix_recovery("prop-crash", &ops, k, &snaps);
        }
    }
}
