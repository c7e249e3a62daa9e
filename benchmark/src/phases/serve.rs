//! The serving phase: a real `bismarck_serve` subprocess with a tiny
//! table, one trained model, and a seeded statement mix, driven open loop
//! (one v2 connection, a sender paced by due times and a receiver) and
//! closed loop (v2 at depth 1 and depth 8, v1 line protocol).

use crate::measure::{Metrics, Ops};
use crate::proc::Server;
use crate::stats::{median, percentile, windowed_tail};
use crate::trace::Tracer;
use bolton_bismarck::protocol::{self, Response};
use bolton_bismarck::server::Client;
use bolton_rng::Rng;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const TABLE_ROWS: usize = 1000;
const TABLE_DIM: usize = 8;
/// `TABLE_ROWS` as the server prints it.
const ROWS_TEXT: &str = "1000";
/// Distinct `SEED s` values in the private-count statements: more texts
/// than the 4 × 256 parse cache holds, so these always miss.
const PRIVATE_SEEDS: u64 = 4096;
/// The open-loop rate an idle-ish server's latency is read at.
const READ_RATE: u32 = 2000;
/// Seconds per closed-loop slice; the throughput is the median slice's.
const CLOSED_SLICE_SECS: f64 = 0.1;
/// Latency limit a ladder rung must meet at p99 to count as sustained.
const LIMIT_MS: f64 = 10.0;

pub struct Plan {
    /// Round trips per v1 connection (2 connections).
    pub v1_round_trips: usize,
    /// Traced runs only: seconds per ladder rung and per closed loop.
    pub layer_secs: f64,
}

/// One statement of the mix and what a correct answer looks like.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Count,
    ExecuteAvg,
    Eval,
    PrivateCount,
}

fn statement(rng: &mut impl Rng) -> (String, Kind) {
    let roll = rng.next_index(10);
    match roll {
        0..=3 => ("SELECT COUNT(*) FROM t".to_string(), Kind::Count),
        4..=6 => (format!("EXECUTE q ({})", rng.next_index(TABLE_DIM)), Kind::ExecuteAvg),
        7..=8 => ("EVAL m ON t".to_string(), Kind::Eval),
        _ => (
            format!(
                "SELECT PRIVATE COUNT(*) FROM t EPS 0.1 SEED {}",
                rng.next_index(PRIVATE_SEEDS as usize)
            ),
            Kind::PrivateCount,
        ),
    }
}

/// 40 % `COUNT(*)`, 30 % prepared `AVG`, 20 % `EVAL`, 10 % private count.
fn schedule(seed: u64, n: usize) -> Vec<(String, Kind)> {
    let mut rng = bolton_rng::seeded(seed);
    (0..n).map(|_| statement(&mut rng)).collect()
}

fn answer_ok(kind: Kind, response: &Response) -> bool {
    if !response.is_ok() {
        return false;
    }
    match kind {
        Kind::Count => response.get("count") == Some(ROWS_TEXT),
        Kind::Eval => response.get("rows") == Some(ROWS_TEXT),
        Kind::ExecuteAvg => response.get("scalar").is_some(),
        Kind::PrivateCount => response.get("count").is_some(),
    }
}

pub struct Phase {
    server: Server,
    plan: Plan,
    seed: u64,
}

fn connect_v2(addr: &str, ops: &mut Ops) -> Option<Client> {
    ops.attempt(1);
    match Client::connect_v2(addr) {
        Ok(mut c) => {
            // Prepared statements are per connection.
            match c.expect_ok("PREPARE q AS SELECT AVG($1) FROM t") {
                Ok(_) => Some(c),
                Err(e) => {
                    ops.fail(format!("PREPARE: {e}"));
                    None
                }
            }
        }
        Err(e) => {
            ops.fail(format!("connect {addr}: {e}"));
            None
        }
    }
}

/// Result of one closed-loop client.
struct ClosedLoop {
    latencies_ms: Vec<f64>,
    ops: Ops,
}

impl Phase {
    /// Spawns the server (no data directory), loads the table, trains the
    /// model and warms the parse cache and both protocol paths.
    pub fn set_up(exe: &Path, plan: Plan, seed: u64, ops: &mut Ops) -> Result<Phase, String> {
        let server = Server::spawn(exe, None, &[])?;
        let mut c = Client::connect_v2(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let statements = [
            format!("CREATE TABLE t (DIM {TABLE_DIM})"),
            format!("SYNTH t ROWS {TABLE_ROWS} SEED {seed} NOISE 0.05"),
            format!("TRAIN m ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 10 BATCH 10 SEED {seed}"),
            "PREPARE q AS SELECT AVG($1) FROM t".to_string(),
        ];
        for sql in &statements {
            ops.attempt(1);
            c.expect_ok(sql).map_err(|e| format!("{sql}: {e}"))?;
        }
        for (sql, kind) in schedule(seed ^ 0xAA, 200) {
            ops.attempt(1);
            let response = c.query(&sql).map_err(|e| format!("{sql}: {e}"))?;
            if !answer_ok(kind, &response) {
                ops.fail(format!("warm-up {sql}: {response:?}"));
            }
        }
        let mut v1 = Client::connect(server.addr()).map_err(|e| format!("connect v1: {e}"))?;
        ops.attempt(1);
        v1.expect_ok("SELECT COUNT(*) FROM t").map_err(|e| format!("v1 warm-up: {e}"))?;
        Ok(Phase { server, plan, seed })
    }

    /// Closed loop over v2 in `slices` rounds of `secs / slices` seconds,
    /// each on fresh connections (so each round gets its own server
    /// threads, wherever the scheduler puts them). Returns (statements per
    /// second of each round, every latency in ms).
    fn closed_v2_d1(
        &self,
        conns: usize,
        secs: f64,
        slices: usize,
        ops: &mut Ops,
        tracer: &Tracer,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut rates = Vec::with_capacity(slices);
        let mut latencies = Vec::new();
        for slice in 0..slices {
            let (rate, l) =
                self.closed_v2_d1_round(conns, secs / slices as f64, slice as u64, ops, tracer);
            rates.push(rate);
            latencies.extend(l);
        }
        (rates, latencies)
    }

    /// One round: `conns` connections, each sending its next statement
    /// when the previous answer arrives, for `secs` seconds.
    fn closed_v2_d1_round(
        &self,
        conns: usize,
        secs: f64,
        round: u64,
        ops: &mut Ops,
        tracer: &Tracer,
    ) -> (f64, Vec<f64>) {
        let addr = self.server.addr();
        let deadline = Duration::from_secs_f64(secs);
        let start = Instant::now();
        let results: Vec<ClosedLoop> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|conn| {
                    let seed = self.seed ^ (0xC0 + conn as u64) ^ (round << 8);
                    scope.spawn(move || {
                        let mut out = ClosedLoop { latencies_ms: Vec::new(), ops: Ops::default() };
                        let Some(mut client) = connect_v2(addr, &mut out.ops) else { return out };
                        let mut rng = bolton_rng::seeded(seed);
                        let mut request = (round << 8 | conn as u64) << 32;
                        while start.elapsed() < deadline {
                            let (sql, kind) = statement(&mut rng);
                            request += 1;
                            out.ops.attempt(1);
                            let (answer, secs, _) =
                                tracer.span("client.request:v2_d1", None, request, || {
                                    client.query(&sql)
                                });
                            match answer {
                                Ok(r) if answer_ok(kind, &r) => {}
                                Ok(r) => out.ops.fail(format!("{sql}: {r:?}")),
                                Err(e) => {
                                    out.ops.fail(format!("{sql}: {e}"));
                                    break;
                                }
                            }
                            out.latencies_ms.push(secs * 1e3);
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("closed-loop client")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut all = Vec::new();
        for r in results {
            all.extend(r.latencies_ms);
            ops.merge(r.ops);
        }
        (all.len() as f64 / wall, all)
    }

    /// Closed loop over v2 on one connection keeping `depth` statements
    /// in flight. Returns statements per second.
    fn closed_v2_depth(&self, depth: usize, secs: f64, ops: &mut Ops) -> f64 {
        let Some(mut client) = connect_v2(self.server.addr(), ops) else { return f64::NAN };
        let mut rng = bolton_rng::seeded(self.seed ^ 0xD8);
        let mut kinds = std::collections::HashMap::new();
        let deadline = Duration::from_secs_f64(secs);
        let start = Instant::now();
        let mut done = 0u64;
        let mut in_flight = 0usize;
        loop {
            let sending = start.elapsed() < deadline;
            while sending && in_flight < depth {
                let (sql, kind) = statement(&mut rng);
                ops.attempt(1);
                match client.send_request(&sql) {
                    Ok(id) => {
                        kinds.insert(id, kind);
                        in_flight += 1;
                    }
                    Err(e) => {
                        ops.fail(format!("send {sql}: {e}"));
                        return f64::NAN;
                    }
                }
            }
            if in_flight == 0 {
                break;
            }
            match client.recv_response() {
                Ok((id, response)) => {
                    in_flight -= 1;
                    done += 1;
                    if !kinds.remove(&id).is_some_and(|k| answer_ok(k, &response)) {
                        ops.fail(format!("request {id}: {response:?}"));
                    }
                }
                Err(e) => {
                    ops.fail(format!("recv: {e}"));
                    return f64::NAN;
                }
            }
        }
        done as f64 / start.elapsed().as_secs_f64()
    }

    /// Closed loop over the v1 line protocol with the repo's own client:
    /// 2 connections, `round_trips` each. Returns round-trip times in ms.
    fn closed_v1(&self, round_trips: usize, ops: &mut Ops, tracer: &Tracer) -> Vec<f64> {
        let addr = self.server.addr();
        let results: Vec<(Vec<f64>, Ops)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|conn| {
                    scope.spawn(move || {
                        let mut ops = Ops::default();
                        let mut rtts = Vec::with_capacity(round_trips);
                        ops.attempt(1);
                        let mut client = match Client::connect(addr) {
                            Ok(c) => c,
                            Err(e) => {
                                ops.fail(format!("connect v1: {e}"));
                                return (rtts, ops);
                            }
                        };
                        for i in 0..round_trips {
                            ops.attempt(1);
                            let request = (0x100 + conn) << 32 | i as u64;
                            let (answer, secs, _) =
                                tracer.span("client.request:v1", None, request, || {
                                    client.query("SELECT COUNT(*) FROM t")
                                });
                            match answer {
                                Ok(r) if answer_ok(Kind::Count, &r) => rtts.push(secs * 1e3),
                                Ok(r) => ops.fail(format!("v1 COUNT: {r:?}")),
                                Err(e) => {
                                    ops.fail(format!("v1 COUNT: {e}"));
                                    break;
                                }
                            }
                        }
                        (rtts, ops)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("v1 client")).collect()
        });
        let mut all = Vec::new();
        for (rtts, o) in results {
            all.extend(rtts);
            ops.merge(o);
        }
        all
    }

    /// The timed phase: closed loop over the v1 line protocol. Every
    /// sub-millisecond latency of this server — open loop or closed, one
    /// connection or two — follows the box's idle states and thread
    /// placement and lives in [`Phase::layer_metrics`]; the v1 round trip
    /// is a 40 ms protocol stall no box hides.
    pub fn run(&mut self, ops: &mut Ops, tracer: &Tracer, share: f64) -> Metrics {
        let mut m = Metrics::default();
        let round_trips = ((self.plan.v1_round_trips as f64 * share) as usize).max(3);
        let rtts = self.closed_v1(round_trips, ops, tracer);
        if rtts.is_empty() {
            ops.fail("no v1 round trip completed");
        } else {
            m.put_noted("v1_rtt_ms", median(&rtts), format!("n={}", rtts.len()));
        }
        m
    }

    /// Server-layer metrics (traced runs only): the rest of the rate
    /// ladder, depth 8, depth-1 round trip, connection cost, CPU per
    /// statement, and the parse-cache hit rate over the whole phase.
    pub fn layer_metrics(&mut self, ops: &mut Ops, tracer: &Tracer) -> Metrics {
        let mut m = Metrics::default();
        let addr = self.server.addr().to_string();
        let secs = self.plan.layer_secs;
        let limits_before = show_limits(&addr, ops);
        let cpu_before = self.server.sample();
        let mut served = 0usize;

        // The ladder: fixed rates, latency from due time.
        let mut max_ok = 0.0;
        let mut shed = 0usize;
        for rate in [1000u32, READ_RATE, 4000, 8000] {
            let rung = open_loop(&addr, rate, secs, self.seed ^ u64::from(rate), ops, tracer);
            let p99 = percentile(&rung.due_ms, 99.0);
            if p99 <= LIMIT_MS && !rung.backlog_growing {
                max_ok = f64::from(rate);
            }
            let (windowed, how) = windowed_tail(&rung.due_ms);
            m.put_noted(&format!("server.p99_ms.r{rate}"), windowed, how);
            if rate == READ_RATE {
                // The rung an idle-ish server is read at: its median, after
                // the first third has settled the box's idle behaviour, and
                // the generator's own share of the lateness.
                let settled = &rung.due_ms[rung.due_ms.len() / 3..];
                m.put_noted("server.p50_ms.r2000", median(settled), format!("n={}", settled.len()));
                m.put("server.queue_wait_p99_ms", percentile(&rung.queue_wait_ms, 99.0));
                m.put("server.gen_lateness_p99_ms", percentile(&rung.gen_late_ms, 99.0));
            }
            shed += rung.shed;
            served += rung.due_ms.len();
        }
        m.put("server.max_rate_ok", max_ok);
        // So far `served` counts the ladder's answers only.
        m.put("server.shed_share", shed as f64 / served.max(1) as f64);

        // Closed loops get half a rung's time each. Two connections ×
        // depth 1 first, in slices on fresh connections.
        let secs = secs / 2.0;
        let slices = ((secs / CLOSED_SLICE_SECS) as usize).max(3);
        let (rates, both) = self.closed_v2_d1(2, secs, slices, ops, tracer);
        served += both.len();
        m.put_median("server.stmts_per_s.v2_d1x2", &rates, |r| r);
        let (_, d1) = self.closed_v2_d1(1, secs, 1, ops, tracer);
        served += d1.len();
        m.put_noted("server.rtt_us.v2_d1", median(&d1) * 1e3, format!("n={}", d1.len()));
        let d8 = self.closed_v2_depth(8, secs, ops);
        served += (d8 * secs) as usize;
        m.put("server.stmts_per_s.v2_d8", d8);
        let v1 = self.closed_v1(12, ops, tracer);
        served += v1.len();
        m.put_noted("server.rtt_us.v1", median(&v1) * 1e3, format!("n={}", v1.len()));

        // `/proc` counters that cannot be read leave their metric out, which
        // the run reports as a failure: never a guess.
        if let (Some(b), Some(a)) = (cpu_before.cpu_us, self.server.sample().cpu_us) {
            m.put("server.cpu_us_per_stmt", a.saturating_sub(b) as f64 / served.max(1) as f64);
        }
        let limits_after = show_limits(&addr, ops);
        let hits = limits_after.0.saturating_sub(limits_before.0) as f64;
        let misses = limits_after.1.saturating_sub(limits_before.1) as f64;
        m.put("engine.parse_hit_rate", hits / (hits + misses).max(1.0));

        // What a connection costs: connect + first answer, then the
        // threads and resident memory of 60 idle v2 connections (the server
        // caps connections at 64; the harness keeps a few for itself).
        let connects: Vec<f64> = (0..20)
            .filter_map(|_| {
                ops.attempt(1);
                let start = Instant::now();
                let mut c = Client::connect_v2(&addr).ok()?;
                c.expect_ok("SELECT COUNT(*) FROM t").ok()?;
                Some(start.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        m.put("server.connect_us", if connects.is_empty() { 0.0 } else { median(&connects) });
        if let Some((threads, rss)) = idle_connection_cost(&self.server, 60, ops) {
            m.put("server.threads_per_conn", threads);
            m.put("server.rss_kb_per_idle_conn", rss);
        }
        m
    }
}

/// `(parse_cache_hits, parse_cache_misses)` from `SHOW LIMITS`.
fn show_limits(addr: &str, ops: &mut Ops) -> (u64, u64) {
    ops.attempt(1);
    let rows = Client::connect_v2(addr).and_then(|mut c| c.query("SHOW LIMITS"));
    let Ok(response) = rows else {
        ops.fail("SHOW LIMITS failed");
        return (0, 0);
    };
    let field = |key: &str| {
        response
            .rows()
            .iter()
            .find_map(|row| row.strip_prefix(key))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("parse_cache_hits="), field("parse_cache_misses="))
}

/// Opens `n` v2 connections that each answer one statement and then sit
/// idle; returns (threads, resident kB) added per connection.
fn idle_connection_cost(server: &Server, n: usize, ops: &mut Ops) -> Option<(f64, f64)> {
    let before = server.sample();
    let idle: Vec<Client> = (0..n)
        .filter_map(|_| {
            ops.attempt(1);
            let mut c = Client::connect_v2(server.addr()).ok()?;
            c.expect_ok("SELECT COUNT(*) FROM t").ok()?;
            Some(c)
        })
        .collect();
    if idle.len() < n {
        ops.fail(format!("only {} of {n} idle connections opened", idle.len()));
    }
    let after = server.sample();
    drop(idle);
    let per = |b: Option<u64>, a: Option<u64>| Some(a?.saturating_sub(b?) as f64 / n as f64);
    Some((per(before.threads, after.threads)?, per(before.rss_kb, after.rss_kb)?))
}

/// What one open-loop rung measured.
pub struct OpenLoop {
    /// Latency from each request's *due* time to its answer, in ms.
    pub due_ms: Vec<f64>,
    /// How long after its due time each request was actually written
    /// (generator lateness plus time blocked behind earlier writes).
    pub queue_wait_ms: Vec<f64>,
    /// The part of that lateness that is the generator's own: how long
    /// after `max(due, previous write done)` it woke up.
    pub gen_late_ms: Vec<f64>,
    /// Answers that were `err busy`.
    pub shed: usize,
    /// The last quarter's median latency is more than twice the first
    /// quarter's (and above 1 ms): the queue was still growing.
    pub backlog_growing: bool,
}

/// One v2 connection driven open loop at `rate` statements per second
/// for `secs`: a sender thread writes request `i` at `start + i / rate`
/// whatever the server is doing, a receiver thread timestamps answers.
pub fn open_loop(
    addr: &str,
    rate: u32,
    secs: f64,
    seed: u64,
    ops: &mut Ops,
    tracer: &Tracer,
) -> OpenLoop {
    let n = (f64::from(rate) * secs).round().max(1.0) as usize;
    let plan = schedule(seed, n);
    let mut out = OpenLoop {
        due_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        gen_late_ms: Vec::new(),
        shed: 0,
        backlog_growing: false,
    };
    ops.attempt(1);
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            ops.fail(format!("open-loop connect: {e}"));
            return out;
        }
    };
    // A lost answer must not hang the run: the receiver gives up instead.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(20)));
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = std::io::BufReader::new(stream);
    // Request 0 prepares `q` on this connection before the clock starts.
    let prepared = protocol::write_frame(&mut writer, 0, 0, b"PREPARE q AS SELECT AVG($1) FROM t")
        .and_then(|()| protocol::read_frame(&mut reader, protocol::MAX_FRAME_PAYLOAD));
    if !matches!(prepared, Ok(Some(_))) {
        ops.fail("open-loop PREPARE failed");
        return out;
    }

    let interval = Duration::from_secs_f64(1.0 / f64::from(rate));
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval * i as u32;
    let sender_failed = AtomicBool::new(false);
    // (woke, written) per request, and (received, ok) per request.
    let (sent, received) = std::thread::scope(|scope| {
        let plan = &plan;
        let sender_failed = &sender_failed;
        let sender = scope.spawn(move || {
            let mut sent: Vec<(Instant, Instant)> = Vec::with_capacity(n);
            for (i, (sql, _)) in plan.iter().enumerate() {
                // Sleep, never spin: a spinning sender keeps one of two
                // vCPUs half awake, and the server's wake-up latency then
                // depends on which one. The lateness this costs is
                // measured (`gen_lateness`) and, being timed from the due
                // time, counted.
                let due_at = due(i);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let woke = Instant::now();
                if protocol::write_frame(&mut writer, 0, i as u32 + 1, sql.as_bytes()).is_err() {
                    sender_failed.store(true, Ordering::SeqCst);
                    break;
                }
                sent.push((woke, Instant::now()));
            }
            sent
        });
        let receiver = scope.spawn(move || {
            let mut received: Vec<Option<(Instant, Response)>> = (0..n).map(|_| None).collect();
            let mut got = 0;
            while got < n && !sender_failed.load(Ordering::SeqCst) {
                match protocol::read_frame(&mut reader, protocol::MAX_FRAME_PAYLOAD) {
                    Ok(Some(frame)) => {
                        let at = Instant::now();
                        let slot = (frame.request_id as usize).wrapping_sub(1);
                        if let Some(entry) = received.get_mut(slot) {
                            *entry = Some((at, Response::from_payload(&frame.payload)));
                            got += 1;
                        }
                    }
                    _ => break,
                }
            }
            received
        });
        (sender.join().expect("open-loop sender"), receiver.join().expect("open-loop receiver"))
    });

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut previous_written = start;
    for (i, (_, kind)) in plan.iter().enumerate() {
        ops.attempt(1);
        let (Some((woke, written)), Some(Some((at, response)))) = (sent.get(i), received.get(i))
        else {
            // Never sent or never answered: misses every latency limit.
            ops.fail(format!("open-loop request {i} at {rate}/s got no answer"));
            continue;
        };
        if response.err_kind() == Some(protocol::ErrKind::Busy) {
            out.shed += 1;
        }
        if !answer_ok(*kind, response) {
            ops.fail(format!("open-loop request {i}: {response:?}"));
            continue;
        }
        let due_at = due(i);
        out.due_ms.push(ms(at.saturating_duration_since(due_at)));
        out.queue_wait_ms.push(ms(woke.saturating_duration_since(due_at)));
        out.gen_late_ms.push(ms(woke.saturating_duration_since(due_at.max(previous_written))));
        previous_written = *written;
        let request = u64::from(rate) << 32 | i as u64;
        let parent = tracer.record("client.request:open", due_at, *at, None, request);
        tracer.record("client.send", *woke, *written, parent, request);
        tracer.record("client.wait+recv", *written, *at, parent, request);
    }
    if out.due_ms.is_empty() {
        ops.fail(format!("open loop at {rate}/s completed nothing"));
        out.due_ms.push(f64::NAN);
        out.queue_wait_ms.push(f64::NAN);
        out.gen_late_ms.push(f64::NAN);
        return out;
    }
    let quarter = (out.due_ms.len() / 4).max(1);
    let head = median(&out.due_ms[..quarter]);
    let tail_end = median(&out.due_ms[out.due_ms.len() - quarter..]);
    out.backlog_growing = tail_end > 2.0 * head && tail_end > 1.0;
    out
}
