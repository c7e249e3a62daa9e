//! Serving-layer resilience tests: the network fault matrix (a client
//! disconnecting at *every* protocol operation of a scripted workload must
//! never wedge a session thread, leak a connection slot or table lock, or
//! corrupt another session's results), graceful-drain durability
//! (acknowledged writes survive a drain + restart bit-identically), and
//! overload shedding (shed clients get `err busy`; admitted sessions'
//! results stay bit-identical to an unloaded run).

use bolton_bismarck::fault::{FaultStream, StreamFault};
use bolton_bismarck::server::{serve, Client};
use bolton_bismarck::{Db, Limits, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bolton-resil-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends `stmt` over the fault-wrapped socket and reads until a terminator
/// (`ok …` / `err …`) line arrives. Any error (including the injected
/// disconnect) aborts the script.
fn faulty_exchange(s: &mut FaultStream<TcpStream>, stmt: &str) -> std::io::Result<()> {
    s.write_all(stmt.as_bytes())?;
    s.write_all(b"\n")?;
    s.flush()?;
    let mut buf = Vec::new();
    loop {
        let mut chunk = [0u8; 4096];
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        let done = buf
            .split(|&b| b == b'\n')
            .any(|line| line.starts_with(b"ok") || line.starts_with(b"err"));
        if done {
            return Ok(());
        }
    }
}

/// The scripted client workload the fault matrix replays: a read, a
/// training write, and a model evaluation — so disconnect indices land
/// mid-statement-write, between request and response, and mid-response
/// over both read-only and write statements.
fn scripted_workload(addr: &str, fault: StreamFault) -> u64 {
    let sock = TcpStream::connect(addr).expect("connect");
    let mut s = FaultStream::new(sock, fault);
    let _ = faulty_exchange(&mut s, "SELECT COUNT(*) FROM t");
    let _ = faulty_exchange(&mut s, "TRAIN tmp ON t ALGO noiseless PASSES 1 SEED 3");
    let _ = faulty_exchange(&mut s, "EVAL base ON t");
    s.ops()
}

/// The every-op disconnect matrix. Probe the scripted workload once in
/// counting mode to learn its operation count `T`; then for every
/// `k in 0..T`, replay it with a mid-frame disconnect injected at op `k`
/// and assert full server health afterwards: the table's write lock is
/// free again, a fresh session sees the baseline answers bit-identically,
/// and no connection slot has leaked (the full `max_connections` budget
/// is still grantable at the end). `server.stop()` returning proves no
/// session thread wedged.
#[test]
fn disconnect_at_every_op_never_wedges_leaks_or_corrupts() {
    let db = Arc::new(Db::new());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 4,
        limits: Limits::default(),
    };
    let server = serve(Arc::clone(&db), &config).unwrap();
    let addr = server.addr().to_string();

    let mut setup = Client::connect(&addr).unwrap();
    setup.expect_ok("CREATE TABLE t (DIM 6)").unwrap();
    setup.expect_ok("SYNTH t ROWS 600 SEED 21 NOISE 0.05").unwrap();
    setup.expect_ok("TRAIN base ON t ALGO noiseless PASSES 1 SEED 2").unwrap();
    let baseline_count = setup.request("SELECT COUNT(*) FROM t").unwrap();
    let baseline_eval = setup.request("EVAL base ON t").unwrap();
    drop(setup);

    // Phase 1: probe.
    let total_ops = scripted_workload(&addr, StreamFault::Counting);
    assert!(total_ops >= 6, "script too short to be a meaningful matrix: {total_ops} ops");

    // Phase 2: the matrix.
    for k in 0..total_ops {
        scripted_workload(&addr, StreamFault::DisconnectAt { op: k, torn_prefix: Some(7) });

        // The dead session's cancellation is asynchronous; poll until the
        // table write lock is free again (a leak never frees it).
        let handle = db.table("t").unwrap();
        let mut freed = false;
        for _ in 0..1_000 {
            if handle.try_write().is_ok() {
                freed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(freed, "disconnect at op {k} leaked the table lock");

        // A fresh session sees the baseline answers bit-identically.
        let mut probe = Client::connect(&addr).unwrap();
        assert_eq!(
            probe.request("SELECT COUNT(*) FROM t").unwrap(),
            baseline_count,
            "disconnect at op {k} corrupted the table"
        );
        assert_eq!(
            probe.request("EVAL base ON t").unwrap(),
            baseline_eval,
            "disconnect at op {k} corrupted another session's results"
        );
    }

    // No connection slot leaked anywhere in the matrix: the full budget is
    // still grantable simultaneously.
    let mut fleet = Vec::new();
    for i in 0..config.max_connections {
        let mut c = Client::connect(&addr).unwrap();
        c.expect_ok("SELECT COUNT(*) FROM t")
            .unwrap_or_else(|e| panic!("slot {i} unavailable after the matrix: {e}"));
        fleet.push(c);
    }
    drop(fleet);

    // And no session thread wedged: stop() joins every one of them.
    server.stop();
}

/// Graceful drain preserves acknowledged writes durably: a writer streams
/// INSERTs at a draining durable server; every acknowledged row must be
/// present bit-identically after a restart, and recovery is idempotent.
#[test]
fn graceful_drain_preserves_acked_writes_after_restart() {
    let dir = temp_dir("drain");
    let acked: Vec<Vec<f64>>;
    {
        let db = Arc::new(Db::open(&dir).unwrap());
        let server = serve(
            Arc::clone(&db),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                max_connections: 8,
                limits: Limits::default(),
            },
        )
        .unwrap();
        let addr = server.addr().to_string();

        let mut setup = Client::connect(&addr).unwrap();
        setup.expect_ok("CREATE TABLE t (DIM 3)").unwrap();
        drop(setup);

        let writer = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut acked = Vec::new();
                for i in 0..2_000u32 {
                    let row =
                        vec![f64::from(i), f64::from(i) * 0.5, -f64::from(i), f64::from(i % 2)];
                    let stmt = format!(
                        "INSERT INTO t VALUES ({}, {}, {}, {})",
                        row[0], row[1], row[2], row[3]
                    );
                    match c.expect_ok(&stmt) {
                        Ok(_) => acked.push(row),
                        // The drain cut us off mid-stream; everything
                        // acked so far is the durability contract.
                        Err(_) => break,
                    }
                }
                acked
            })
        };

        // Let some writes land, then drain while the stream is live.
        std::thread::sleep(Duration::from_millis(100));
        server.begin_drain();
        acked = writer.join().expect("writer thread");
        server.wait();
        assert!(!acked.is_empty(), "no write was acknowledged before the drain");
    }

    // Restart: every acked row survives bit-identically, in order, as a
    // prefix of whatever the WAL recovered (the statement in flight at the
    // cut may or may not have landed).
    for _ in 0..2 {
        let db = Db::open(&dir).unwrap();
        let handle = db.table("t").unwrap();
        let table = handle.read().expect("table lock");
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        table.scan_rows(&mut |_, x, y| rows.push((x.to_vec(), y))).unwrap();
        assert!(
            rows.len() >= acked.len() && rows.len() <= acked.len() + 1,
            "recovered {} rows, acked {}",
            rows.len(),
            acked.len()
        );
        for (i, want) in acked.iter().enumerate() {
            let (x, y) = &rows[i];
            for (a, b) in want[..3].iter().zip(x.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} feature mismatch after recovery");
            }
            assert_eq!(want[3].to_bits(), y.to_bits(), "row {i} label mismatch after recovery");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload shedding: with a single-statement admission cap and a flood of
/// competing clients, shed statements answer `err busy retry_after_ms=…`
/// (never hang), and an admitted session retrying through the busy
/// responses gets answers bit-identical to an unloaded run.
#[test]
fn overload_sheds_with_busy_while_admitted_results_stay_bit_identical() {
    let db = Arc::new(Db::new());
    let server = serve(
        Arc::clone(&db),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 16,
            limits: Limits { max_active_statements: 1, ..Limits::default() },
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Baseline answers on an idle server. SHOW LIMITS and table setup are
    // not gated by admission in a meaningful way here because statements
    // run one at a time anyway.
    let mut setup = Client::connect(&addr).unwrap();
    setup.expect_ok("CREATE TABLE t (DIM 6)").unwrap();
    setup.expect_ok("SYNTH t ROWS 400 SEED 11 NOISE 0.05").unwrap();
    setup.expect_ok("TRAIN base ON t ALGO noiseless PASSES 1 SEED 2").unwrap();
    let baseline: Vec<Vec<String>> =
        ["SELECT COUNT(*) FROM t", "SELECT AVG(2) FROM t", "EVAL base ON t"]
            .iter()
            .map(|stmt| setup.request(stmt).unwrap())
            .collect();
    drop(setup);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooders: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut busy = 0usize;
                // Alternate a cheap read with a slow TRAIN so the single
                // admission permit is held long enough to force collisions.
                let mut flip = false;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    flip = !flip;
                    let stmt = if flip {
                        "TRAIN flood ON t ALGO noiseless PASSES 5 SEED 7"
                    } else {
                        "SELECT COUNT(*) FROM t"
                    };
                    match c.request(stmt) {
                        Ok(lines) => {
                            let last = lines.last().unwrap();
                            if last.starts_with("err busy") {
                                assert!(
                                    last.contains("retry_after_ms="),
                                    "busy response missing retry hint: {last}"
                                );
                                busy += 1;
                            }
                        }
                        Err(e) => panic!("flooder must be shed, not dropped: {e}"),
                    }
                }
                busy
            })
        })
        .collect();

    // The admitted session: retry through busy, compare bit-identically.
    let mut c = Client::connect(&addr).unwrap();
    for round in 0..30 {
        for (stmt, want) in ["SELECT COUNT(*) FROM t", "SELECT AVG(2) FROM t", "EVAL base ON t"]
            .iter()
            .zip(&baseline)
        {
            let mut got = None;
            for _ in 0..10_000 {
                let lines = c.request(stmt).unwrap();
                if lines.last().unwrap().starts_with("err busy") {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                got = Some(lines);
                break;
            }
            let got = got.expect("statement never admitted under load");
            assert_eq!(&got, want, "round {round}: load changed the answer for {stmt}");
        }
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let shed_total: usize = flooders.into_iter().map(|f| f.join().expect("flooder")).sum();
    // With 4 flooders against a 1-statement cap, somebody must have shed.
    assert!(shed_total > 0, "the flood never triggered admission shedding");
    server.stop();
}

// ---------------------------------------------------------------------------
// Pipelined commit: who may be acknowledged, and when
// ---------------------------------------------------------------------------

mod pipelined_commit {
    use super::temp_dir;
    use bolton_bismarck::fault::{StdVfs, Vfs, VfsFile};
    use bolton_bismarck::protocol::{self, Response};
    use bolton_bismarck::server::{serve, Client, RunningServer};
    use bolton_bismarck::{Db, DbError, DurabilityOptions, ServerConfig};
    use std::collections::HashMap;
    use std::io::Write;
    use std::net::{Shutdown, TcpStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// What the tests do to every file `sync` of a [`ControlledVfs`]: slow
    /// it, hold it at a gate, fail it.
    #[derive(Default)]
    struct SyncControl {
        delay: Duration,
        held: Mutex<bool>,
        released: Condvar,
        fail: AtomicBool,
    }

    impl SyncControl {
        fn hold(&self) {
            *self.held.lock().unwrap() = true;
        }

        fn release(&self) {
            *self.held.lock().unwrap() = false;
            self.released.notify_all();
        }
    }

    /// The real filesystem, with `fsync` under the test's control.
    struct ControlledVfs(Arc<SyncControl>);

    struct ControlledFile {
        inner: Arc<dyn VfsFile>,
        control: Arc<SyncControl>,
    }

    impl VfsFile for ControlledFile {
        fn write_all(&self, buf: &[u8]) -> Result<(), DbError> {
            self.inner.write_all(buf)
        }

        fn sync(&self) -> Result<(), DbError> {
            std::thread::sleep(self.control.delay);
            let mut held = self.control.held.lock().unwrap();
            while *held {
                held = self.control.released.wait(held).unwrap();
            }
            drop(held);
            if self.control.fail.load(Ordering::SeqCst) {
                return Err(DbError::Io(std::io::Error::other("injected fsync failure")));
            }
            self.inner.sync()
        }
    }

    impl Vfs for ControlledVfs {
        fn create(&self, path: &Path) -> Result<Arc<dyn VfsFile>, DbError> {
            let inner = StdVfs.create(path)?;
            Ok(Arc::new(ControlledFile { inner, control: Arc::clone(&self.0) }))
        }

        fn open_append(&self, path: &Path) -> Result<Arc<dyn VfsFile>, DbError> {
            let inner = StdVfs.open_append(path)?;
            Ok(Arc::new(ControlledFile { inner, control: Arc::clone(&self.0) }))
        }

        fn rename(&self, from: &Path, to: &Path) -> Result<(), DbError> {
            StdVfs.rename(from, to)
        }

        fn truncate(&self, path: &Path, len: u64) -> Result<(), DbError> {
            StdVfs.truncate(path, len)
        }

        fn sync_file(&self, path: &Path) -> Result<(), DbError> {
            StdVfs.sync_file(path)
        }

        fn sync_dir(&self, dir: &Path) -> Result<(), DbError> {
            StdVfs.sync_dir(dir)
        }

        fn remove_file(&self, path: &Path) -> Result<(), DbError> {
            StdVfs.remove_file(path)
        }
    }

    /// A durable server over a [`ControlledVfs`], with `CREATE TABLE t (DIM
    /// 1)` acknowledged.
    fn served(dir: &Path, control: &Arc<SyncControl>) -> (RunningServer, Arc<Db>) {
        let vfs = Arc::new(ControlledVfs(Arc::clone(control)));
        let db = Arc::new(Db::open_with(DurabilityOptions::new(dir).vfs(vfs)).unwrap());
        let server = serve(Arc::clone(&db), &ServerConfig::default()).unwrap();
        Client::connect_v2(server.addr()).unwrap().expect_ok("CREATE TABLE t (DIM 1)").unwrap();
        (server, db)
    }

    fn insert(value: usize) -> String {
        format!("INSERT INTO t VALUES ({value}, 1)")
    }

    /// Blocks until `SHOW LIMITS` (answered by the dispatcher, never
    /// queued) reports `n` acknowledgements parked on the committer.
    fn wait_for_parked(addr: &str, n: usize) {
        let mut probe = Client::connect_v2(addr).unwrap();
        let want = format!("commit_parked={n}");
        while !probe.query("SHOW LIMITS").unwrap().rows().contains(&want) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The first feature of every row of `t`, in scan (= log) order.
    fn recovered_values(dir: &Path) -> Vec<usize> {
        let db = Db::open(dir).unwrap();
        let handle = db.table("t").unwrap();
        let mut values = Vec::new();
        handle.read().unwrap().scan_rows(&mut |_, x, _| values.push(x[0] as usize)).unwrap();
        values
    }

    /// (a) An fsync error fails its whole batch: every statement parked
    /// behind it answers `err`, none `ok` — and nothing answered `ok`
    /// earlier is missing after a reopen.
    #[test]
    fn a_failed_fsync_answers_err_to_every_parked_statement_and_ok_to_none() {
        let dir = temp_dir("fsync-fail");
        let control = Arc::new(SyncControl::default());
        let (server, db) = served(&dir, &control);
        let mut c = Client::connect_v2(server.addr()).unwrap();
        c.expect_ok(&insert(1)).unwrap();
        c.expect_ok(&insert(2)).unwrap();

        // Hold the next fsync until all eight are parked, then fail it.
        control.hold();
        for value in 100..108 {
            c.send_request(&insert(value)).unwrap();
        }
        wait_for_parked(server.addr(), 8);
        control.fail.store(true, Ordering::SeqCst);
        control.release();
        for _ in 0..8 {
            let (_, response) = c.recv_response().unwrap();
            assert!(matches!(response, Response::Err { .. }), "acknowledged: {response:?}");
        }
        drop(c);
        server.stop();
        drop(db);

        let values = recovered_values(&dir);
        assert!(values.contains(&1) && values.contains(&2), "an acked row is gone: {values:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// (b) Behind a 2 ms fsync, 64 inserts kept 8 deep on one connection
    /// share fsyncs (an executor sleeping in its own fsync would need about
    /// one each), and no acknowledgement precedes the fsync that covers it.
    #[test]
    fn pipelined_inserts_share_fsyncs_and_are_never_acknowledged_early() {
        let dir = temp_dir("fsync-slow");
        let control =
            Arc::new(SyncControl { delay: Duration::from_millis(2), ..SyncControl::default() });
        let (server, db) = served(&dir, &control);
        let wal = db.wal().unwrap();
        let fsyncs_before = wal.fsyncs();
        let mut c = Client::connect_v2(server.addr()).unwrap();
        let mut in_flight: HashMap<u32, usize> = HashMap::new();
        let mut durable_at_ack: HashMap<usize, u64> = HashMap::new();
        let mut next = 0;
        while durable_at_ack.len() < 64 {
            while next < 64 && in_flight.len() < 8 {
                in_flight.insert(c.send_request(&insert(next)).unwrap(), next);
                next += 1;
            }
            let (id, response) = c.recv_response().unwrap();
            assert!(response.is_ok(), "{response:?}");
            durable_at_ack.insert(in_flight.remove(&id).unwrap(), wal.durable_lsn());
        }
        let fsyncs = wal.fsyncs() - fsyncs_before;
        assert!(fsyncs <= 32, "64 pipelined inserts cost {fsyncs} fsyncs");
        assert_eq!(wal.records_synced(), wal.durable_lsn(), "every record is counted once");

        // Log order is apply order: the row at position p is LSN 2 + p
        // (CREATE TABLE is LSN 1).
        let handle = db.table("t").unwrap();
        let mut position = 0u64;
        handle
            .read()
            .unwrap()
            .scan_rows(&mut |_, x, _| {
                let (lsn, seen) = (2 + position, durable_at_ack[&(x[0] as usize)]);
                assert!(seen >= lsn, "row {} (lsn {lsn}) acknowledged at durable_lsn {seen}", x[0]);
                position += 1;
            })
            .unwrap();
        assert_eq!(position, 64);
        drop(c);
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sends eight inserts as one write on a raw v2 socket.
    fn send_eight(addr: &str, first: usize) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        for i in 0..8 {
            protocol::encode_into(&mut bytes, 0, i + 1, insert(first + i as usize).as_bytes());
        }
        stream.write_all(&bytes).unwrap();
        stream
    }

    /// Reads response frames until the server closes the connection.
    fn read_acks(stream: &mut TcpStream) -> Vec<Response> {
        let mut acks = Vec::new();
        while let Some(frame) = protocol::read_frame(stream, protocol::MAX_FRAME_PAYLOAD).unwrap() {
            acks.push(Response::from_payload(&frame.payload));
        }
        acks
    }

    /// (c) Parked statements are in flight: a client that half-closes
    /// after its last request still gets every acknowledgement before the
    /// server closes its side, and so does one caught by a drain.
    #[test]
    fn teardown_and_drain_wait_for_parked_acknowledgements() {
        let dir = temp_dir("parked-teardown");
        let control = Arc::new(SyncControl::default());
        let (server, db) = served(&dir, &control);

        control.hold();
        let mut stream = send_eight(server.addr(), 0);
        wait_for_parked(server.addr(), 8);
        stream.shutdown(Shutdown::Write).unwrap();
        // Long enough for the server to see the EOF and start tearing the
        // connection down with all eight still parked; a teardown that did
        // not wait would close the socket before any of them is answered.
        std::thread::sleep(Duration::from_millis(150));
        control.release();
        let acks = read_acks(&mut stream);
        assert_eq!(acks.len(), 8, "{acks:?}");
        assert!(acks.iter().all(Response::is_ok), "{acks:?}");

        control.hold();
        let mut stream = send_eight(server.addr(), 8);
        wait_for_parked(server.addr(), 8);
        server.begin_drain();
        std::thread::sleep(Duration::from_millis(150));
        control.release();
        let acks = read_acks(&mut stream);
        assert_eq!(acks.len(), 8, "{acks:?}");
        assert!(acks.iter().all(Response::is_ok), "{acks:?}");
        server.stop();
        drop(db);

        let mut values = recovered_values(&dir);
        values.sort_unstable();
        assert_eq!(values, (0..16).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
