//! The durable-ingest phase: a `bismarck_serve --data` subprocess under a
//! stated flush policy takes acknowledged-durable inserts from one
//! pipelined writer while one reader scans the same table; then the bytes
//! the server made the kernel write per byte of user data, `SIGKILL`,
//! restarts on the same directory, and the wait until the first
//! `COUNT(*)` answers.

use crate::measure::{time_once, Metrics, Ops};
use crate::proc::{ProcSample, Server};
use crate::stats::{median, windowed_tail};
use crate::trace::Tracer;
use bolton_bismarck::server::Client;
use bolton_rng::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const DIM: usize = 8;
/// Statements the writer keeps in flight.
const DEPTH: usize = 8;
const WARM_UP_INSERTS: usize = 16;
/// Slices the writer's batch is cut into; the rate is their median.
const WRITE_SLICES: usize = 8;
/// The reader's pause between one answer and its next statement.
const READER_THINK_TIME: Duration = Duration::from_millis(1);
/// Times the kill → restart → first answer cycle is repeated.
const RECOVERY_REPS: usize = 7;
/// Bytes of user data per row: `DIM` features and a label.
const USER_BYTES_PER_ROW: f64 = ((DIM + 1) * 8) as f64;

pub struct Plan {
    /// Inserts the writer sends.
    pub inserts: usize,
    /// `BOLTON_WAL_CHECKPOINT_EVERY`.
    pub checkpoint_every: usize,
}

/// The flush policy, identical on both sides of any comparison: fsync
/// before every acknowledgement, no group-commit window.
pub fn server_env(plan: &Plan) -> Vec<(&'static str, String)> {
    vec![
        ("BOLTON_WAL_SYNC", "always".to_string()),
        ("BOLTON_WAL_SYNC_WINDOW_US", "0".to_string()),
        ("BOLTON_WAL_CHECKPOINT_EVERY", plan.checkpoint_every.to_string()),
    ]
}

pub struct Phase {
    exe: PathBuf,
    data_dir: PathBuf,
    server: Option<Server>,
    plan: Plan,
    statements: Vec<String>,
    /// Statements handed to the writer so far.
    sent: usize,
    /// Rows acknowledged so far, warm-up included.
    acked: usize,
    before: ProcSample,
}

/// `INSERT` statements for rows in the unit ball labelled by a hidden
/// hyperplane, all derived from the seed.
fn insert_statements(seed: u64, n: usize) -> Vec<String> {
    let mut rng = bolton_rng::seeded(seed ^ 0x1257);
    let truth: Vec<f64> = (0..DIM).map(|_| rng.next_range(-1.0, 1.0)).collect();
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..DIM).map(|_| rng.next_range(-0.35, 0.35)).collect();
            let score: f64 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            let mut sql = String::from("INSERT INTO w VALUES (");
            for v in &x {
                sql.push_str(&format!("{v:.6}, "));
            }
            sql.push_str(if score >= 0.0 { "1)" } else { "-1)" });
            sql
        })
        .collect()
}

impl Phase {
    /// Spawns the durable server, creates the table and warms the insert
    /// and read paths with a few acknowledged statements.
    pub fn set_up(
        exe: &Path,
        plan: Plan,
        seed: u64,
        data_dir: PathBuf,
        ops: &mut Ops,
    ) -> Result<Phase, String> {
        let server = Server::spawn(exe, Some(&data_dir), &server_env(&plan))?;
        let mut c = Client::connect_v2(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let statements = insert_statements(seed, plan.inserts + WARM_UP_INSERTS);
        let create = format!("CREATE TABLE w (DIM {DIM})");
        for sql in std::iter::once(&create).chain(&statements[plan.inserts..]) {
            ops.attempt(1);
            c.expect_ok(sql).map_err(|e| format!("{sql}: {e}"))?;
        }
        ops.attempt(1);
        c.expect_ok("SELECT AVG(3) FROM w").map_err(|e| format!("warm-up read: {e}"))?;
        let before = server.sample();
        Ok(Phase {
            exe: exe.to_path_buf(),
            data_dir,
            server: Some(server),
            plan,
            statements,
            sent: 0,
            acked: WARM_UP_INSERTS,
            before,
        })
    }

    /// One round: `share` of the plan's inserts, pipelined at depth 8 on
    /// one connection, beside a closed-loop `SELECT AVG(3) FROM w` reader
    /// (1 ms think time) on another. Returns `insert_rows_per_s` (checkpoints included) and
    /// `db.insert_p99_ms`, `db.reader_p50_ms`, `db.reader_p99_ms`.
    pub fn run(&mut self, ops: &mut Ops, tracer: &Tracer, share: f64) -> Metrics {
        let count =
            ((self.plan.inserts as f64 * share) as usize).min(self.plan.inserts - self.sent);
        let batch = &self.statements[self.sent..self.sent + count];
        let addr = self.server.as_ref().expect("server is running").addr();
        let writer_done = AtomicBool::new(false);
        let (mut wrote, (read_ms, read_ops)) = std::thread::scope(|scope| {
            let writer_done = &writer_done;
            let reader = scope.spawn(move || {
                let mut ops = Ops::default();
                let mut latencies = Vec::new();
                ops.attempt(1);
                let Ok(mut client) = Client::connect_v2(addr) else {
                    ops.fail("reader connect failed");
                    return (latencies, ops);
                };
                while !writer_done.load(Ordering::SeqCst) {
                    // A reader that never pauses can keep inserts off the
                    // table's write lock for a minute at a time.
                    std::thread::sleep(READER_THINK_TIME);
                    ops.attempt(1);
                    let (answer, secs) = time_once(|| client.query("SELECT AVG(3) FROM w"));
                    match answer {
                        Ok(r) if r.is_ok() => latencies.push(secs * 1e3),
                        Ok(r) => ops.fail(format!("reader: {r:?}")),
                        Err(e) => {
                            ops.fail(format!("reader: {e}"));
                            break;
                        }
                    }
                }
                (latencies, ops)
            });
            let wrote = pipelined_inserts(addr, batch, tracer);
            writer_done.store(true, Ordering::SeqCst);
            (wrote, reader.join().expect("reader thread"))
        });
        ops.merge(std::mem::take(&mut wrote.ops));
        ops.merge(read_ops);
        self.sent += wrote.sent;
        self.acked += wrote.acked;

        let mut m = Metrics::default();
        if wrote.latencies_ms.is_empty() || read_ms.is_empty() {
            ops.fail("ingest round completed no insert or no read");
            return m;
        }
        // The rate is the median over equal slices of the batch, by the
        // times their acknowledgements arrived.
        m.put_median("insert_rows_per_s", &wrote.slice_rates(WRITE_SLICES), |r| r);
        let (p99, how) = windowed_tail(&wrote.latencies_ms);
        m.put_noted("db.insert_p99_ms", p99, how);
        let (read_p99, how) = windowed_tail(&read_ms);
        m.put_noted("db.reader_p50_ms", median(&read_ms), format!("n={}", read_ms.len()));
        m.put_noted("db.reader_p99_ms", read_p99, how);
        m
    }

    /// After the last acknowledgement nothing is in flight: `SIGKILL` the
    /// durable server, restart it on the same directory and time spawn →
    /// first `COUNT(*)` answer, which must equal the rows acknowledged.
    /// Returns `db.recovery_s.subprocess`, and `write_amplification` (bytes
    /// the server caused to be written to storage ÷ user bytes
    /// acknowledged) with its relatives, read just before the kill.
    pub fn kill_and_recover(&mut self, ops: &mut Ops) -> Metrics {
        let server = self.server.take().expect("server is running");
        let acked = self.acked;
        let after = server.sample();
        server.kill();
        let dir_bytes = crate::env::dir_bytes(&self.data_dir);

        // Nothing is written between restarts and recovery does not
        // checkpoint, so every repetition replays the same checkpoint and
        // log tail. Dropping a restarted server kills it again.
        let mut secs = Vec::with_capacity(RECOVERY_REPS);
        for _ in 0..RECOVERY_REPS {
            ops.attempt(1);
            let start = Instant::now();
            let restarted = Server::spawn(&self.exe, Some(&self.data_dir), &server_env(&self.plan));
            let counted = restarted.as_ref().map_err(Clone::clone).and_then(|s| {
                Client::connect_v2(s.addr())
                    .and_then(|mut c| c.query("SELECT COUNT(*) FROM w"))
                    .map_err(|e| e.to_string())
            });
            secs.push(start.elapsed().as_secs_f64());
            match counted {
                Ok(r) => ops.check(r.get("count") == Some(acked.to_string().as_str()), || {
                    format!("after SIGKILL + restart COUNT(*) is {r:?}, {acked} inserts were acknowledged")
                }),
                Err(e) => ops.fail(format!("recovery: {e}")),
            }
        }
        let mut layer = Metrics::default();
        layer.put_median("db.recovery_s.subprocess", &secs, |s| s);

        // `/proc/<pid>/io` of the killed server against its reading
        // after set-up. Unreadable counters leave the metric out, which
        // the run then reports as a failure: never a guess.
        let delta = |b: Option<u64>, a: Option<u64>| Some(a?.saturating_sub(b?) as f64);
        if let Some(written) = delta(self.before.write_bytes, after.write_bytes) {
            layer.put("write_amplification", written / (acked as f64 * USER_BYTES_PER_ROW));
        }
        layer.put(
            "db.dir_bytes_per_user_byte",
            dir_bytes as f64 / (acked as f64 * USER_BYTES_PER_ROW),
        );
        if let Some(calls) = delta(self.before.syscw, after.syscw) {
            layer.put("wal.syscw_per_row", calls / acked as f64);
        }
        layer
    }
}

/// What the writer did.
struct Written {
    sent: usize,
    acked: usize,
    /// Seconds since the writer started at which each acknowledgement
    /// arrived, in arrival order.
    acked_at: Vec<f64>,
    /// Send → acknowledgement per insert, in ms, in arrival order.
    latencies_ms: Vec<f64>,
    ops: Ops,
}

impl Written {
    /// Acknowledged inserts per second over each of `slices` equal runs
    /// of consecutive acknowledgements.
    fn slice_rates(&self, slices: usize) -> Vec<f64> {
        let per = (self.acked_at.len() / slices).max(1);
        let mut from = 0.0;
        self.acked_at
            .chunks_exact(per)
            .map(|chunk| {
                let until = chunk[chunk.len() - 1];
                let rate = chunk.len() as f64 / (until - from);
                from = until;
                rate
            })
            .collect()
    }
}

/// One v2 connection keeping [`DEPTH`] inserts in flight until every
/// statement is acknowledged — or, since the servers set no
/// `TCP_NODELAY` and a pipelined connection can fall into a 40 ms
/// delayed-ACK lockstep per statement, until a time limit sized for
/// less than half the usual rate has passed, after which nothing more is sent
/// and the statements not sent simply stay unsent.
fn pipelined_inserts(addr: &str, statements: &[String], tracer: &Tracer) -> Written {
    let mut w = Written {
        sent: 0,
        acked: 0,
        acked_at: Vec::new(),
        latencies_ms: Vec::new(),
        ops: Ops::default(),
    };
    w.ops.attempt(1);
    let Ok(mut client) = Client::connect_v2(addr) else {
        w.ops.fail("writer connect failed");
        return w;
    };
    let limit = Duration::from_secs_f64(1.0 + statements.len() as f64 / 2500.0);
    let mut sent_at: HashMap<u32, Instant> = HashMap::with_capacity(DEPTH * 2);
    let start = Instant::now();
    loop {
        while w.sent < statements.len() && sent_at.len() < DEPTH && start.elapsed() < limit {
            w.ops.attempt(1);
            match client.send_request(&statements[w.sent]) {
                Ok(id) => {
                    sent_at.insert(id, Instant::now());
                }
                Err(e) => {
                    w.ops.fail(format!("send insert: {e}"));
                    return w;
                }
            }
            w.sent += 1;
        }
        if sent_at.is_empty() {
            return w;
        }
        match client.recv_response() {
            Ok((id, response)) => {
                let now = Instant::now();
                let Some(sent) = sent_at.remove(&id) else {
                    w.ops.fail(format!("ack for unknown request {id}"));
                    continue;
                };
                tracer.record("client.insert:send→ack", sent, now, None, u64::from(id));
                if response.is_ok() {
                    w.acked += 1;
                    w.acked_at.push((now - start).as_secs_f64());
                    w.latencies_ms.push((now - sent).as_secs_f64() * 1e3);
                } else {
                    w.ops.fail(format!("insert refused: {response:?}"));
                }
            }
            Err(e) => {
                w.ops.fail(format!("recv ack: {e}"));
                return w;
            }
        }
    }
}
