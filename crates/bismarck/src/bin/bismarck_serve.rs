//! The long-lived Bismarck serving process.
//!
//! ```text
//! # serve (env knobs below; flags override env)
//! $ bismarck_serve [--addr 127.0.0.1:5433] [--registry DIR] [--data DIR] [--max-conn N]
//! listening on 127.0.0.1:5433
//!
//! # client: statements from stdin, responses to stdout. --client speaks
//! # the v1 line protocol, --client-v2 the binary v2 framing (same
//! # listener; the server auto-detects). Both classify errors through the
//! # typed Response API and retry `err busy` with the server's backoff.
//! $ echo "SELECT COUNT(*) FROM t" | bismarck_serve --client 127.0.0.1:5433
//! $ echo "SELECT COUNT(*) FROM t" | bismarck_serve --client-v2 127.0.0.1:5433
//!
//! # self-contained concurrency + registry smoke (exits non-zero on failure)
//! $ bismarck_serve --smoke
//!
//! # wire-protocol smoke: v1 and v2 answers bit-identical on one listener,
//! # pipelined responses matched to their request IDs
//! $ bismarck_serve --smoke-wire
//! ```
//!
//! Environment knobs:
//!
//! * `BOLTON_SERVE_ADDR` — listen address (`host:port` or `unix:/path`);
//!   default `127.0.0.1:5433`.
//! * `BOLTON_SERVE_REGISTRY` — model-registry directory; unset ⇒ no
//!   registry (SAVE/LOAD MODEL error).
//! * `BOLTON_REGISTRY_KEEP` — keep at most this many newest versions per
//!   model name, GCing superseded artifacts at commit time; `0`
//!   (default) keeps every version forever.
//! * `BOLTON_SERVE_DATA` — durable table data directory (write-ahead log +
//!   checkpoints); unset ⇒ tables are in-process only and `CHECKPOINT`
//!   errors. On start the server replays the log and recovers every table.
//! * `BOLTON_WAL_SYNC` — `always` (default; fsync before every ack) or
//!   `off` (fsync only at CHECKPOINT — crash may lose the unsynced tail).
//! * `BOLTON_WAL_CHECKPOINT_EVERY` — auto-CHECKPOINT after this many
//!   logged records; `0` (default) = manual `CHECKPOINT` only.
//! * `BOLTON_WAL_SYNC_WINDOW_US` — group-commit window in µs: a syncing
//!   committer waits this long so concurrent acks share one fsync;
//!   `0` (default) = sync immediately. Never weakens acked durability.
//!   Rarely needed: a v2 connection's acknowledgements park on the
//!   server's one committer thread and batch while the previous fsync runs.
//! * `BOLTON_WAL_SEGMENT_BYTES` — WAL segment rotation threshold;
//!   default 4 MiB.
//! * `BOLTON_SERVE_MAX_CONN` — connection limit; default 64.
//! * `BOLTON_THREADS` — worker-pool width for TRAIN / batch scoring.
//!
//! Resilience knobs (see `SHOW LIMITS` and docs/REPRODUCING.md; all
//! default off except the drain window):
//!
//! * `BOLTON_STMT_TIMEOUT_MS` — per-statement deadline (`err timeout …`).
//! * `BOLTON_RATE_LIMIT` / `BOLTON_GLOBAL_RATE_LIMIT` — statements/sec
//!   per connection / server-wide (`err busy retry_after_ms=N`).
//! * `BOLTON_MAX_CONN_PER_IP` — connections per client address.
//! * `BOLTON_MAX_ACTIVE_STMTS` — admission cap on concurrently executing
//!   statements; excess sheds with `err busy retry_after_ms=N`.
//! * `BOLTON_IDLE_TIMEOUT_MS` — reap idle connections.
//! * `BOLTON_READ_TIMEOUT_MS` — cut slow-loris partial statement lines.
//! * `BOLTON_DRAIN_TIMEOUT_MS` — graceful-drain window (default 5000):
//!   on `SHUTDOWN`, SIGTERM, or SIGINT the server stops accepting, lets
//!   in-flight statements finish within the window, fsyncs the WAL, and
//!   attempts a final best-effort CHECKPOINT.
//!
//! Protocol-v2 pipelining knobs (defaults on; see docs/REPRODUCING.md):
//!
//! * `BOLTON_PIPELINE_EXECUTORS` — executor threads per v2 connection
//!   (default 4): how many pipelined statements one connection runs
//!   concurrently, answering out of order on their request IDs.
//! * `BOLTON_PIPELINE_DEPTH` — decoded frames buffered per v2 connection
//!   (default 64); a client pushing deeper blocks in TCP.
//! * `BOLTON_PARSE_ENGINES` — shards of the server-wide parse/plan engine
//!   pool (default 4), checked out round-robin by both protocols.
//! * `BOLTON_PARSE_CACHE` — parsed statements cached per engine (default
//!   256; `0` disables): hot statements skip the tokenizer. Live hit/miss
//!   counters surface in `SHOW LIMITS`.

use bolton_bismarck::protocol::{ErrKind, Response};
use bolton_bismarck::server::{serve, Client};
use bolton_bismarck::{Db, DurabilityOptions, Limits, ServerConfig};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

/// Minimal SIGTERM/SIGINT latch over the libc `signal()` entry point (no
/// crates): the handler only flips an atomic; a watcher thread does the
/// actual drain.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" fn latch(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the latch for SIGTERM (15) and SIGINT (2).
    pub fn install() {
        unsafe {
            signal(15, latch as extern "C" fn(i32) as usize);
            signal(2, latch as extern "C" fn(i32) as usize);
        }
    }

    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty()).unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = env_or("BOLTON_SERVE_ADDR", "127.0.0.1:5433");
    let mut registry = std::env::var("BOLTON_SERVE_REGISTRY").ok().filter(|v| !v.is_empty());
    let mut data = std::env::var("BOLTON_SERVE_DATA").ok().filter(|v| !v.is_empty());
    let sync_wal = match env_or("BOLTON_WAL_SYNC", "always").as_str() {
        "always" => true,
        "off" => false,
        other => panic!("BOLTON_WAL_SYNC: 'always' or 'off', got '{other}'"),
    };
    let checkpoint_every: u64 = env_or("BOLTON_WAL_CHECKPOINT_EVERY", "0")
        .parse()
        .expect("BOLTON_WAL_CHECKPOINT_EVERY: integer");
    let mut max_conn: usize =
        env_or("BOLTON_SERVE_MAX_CONN", "64").parse().expect("BOLTON_SERVE_MAX_CONN: integer");
    let registry_keep: usize =
        env_or("BOLTON_REGISTRY_KEEP", "0").parse().expect("BOLTON_REGISTRY_KEEP: integer");
    let mut client_addr: Option<(String, bool)> = None;
    let mut smoke = false;
    let mut smoke_wire = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().expect("--addr needs a value"),
            "--registry" => registry = Some(it.next().expect("--registry needs a value")),
            "--data" => data = Some(it.next().expect("--data needs a value")),
            "--max-conn" => {
                max_conn = it
                    .next()
                    .expect("--max-conn needs a value")
                    .parse()
                    .expect("--max-conn: integer")
            }
            "--client" => {
                client_addr = Some((it.next().expect("--client needs an address"), false))
            }
            "--client-v2" => {
                client_addr = Some((it.next().expect("--client-v2 needs an address"), true))
            }
            "--smoke" => smoke = true,
            "--smoke-wire" => smoke_wire = true,
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    if smoke {
        run_smoke();
        println!("smoke ok");
        return;
    }
    if smoke_wire {
        run_smoke_wire();
        println!("smoke-wire ok");
        return;
    }
    if let Some((addr, v2)) = client_addr {
        std::process::exit(run_client(&addr, v2));
    }

    let sync_window_us: u64 = env_or("BOLTON_WAL_SYNC_WINDOW_US", "0")
        .parse()
        .expect("BOLTON_WAL_SYNC_WINDOW_US: integer");
    let segment_bytes: u64 = env_or(
        "BOLTON_WAL_SEGMENT_BYTES",
        &bolton_bismarck::wal::DEFAULT_SEGMENT_BYTES.to_string(),
    )
    .parse()
    .expect("BOLTON_WAL_SEGMENT_BYTES: integer");
    let db = match (&data, &registry) {
        (Some(data_dir), registry) => {
            let mut opts = DurabilityOptions::new(data_dir)
                .sync_wal(sync_wal)
                .checkpoint_every(checkpoint_every)
                .sync_window(Duration::from_micros(sync_window_us))
                .segment_bytes(segment_bytes)
                .registry_keep(registry_keep);
            if let Some(dir) = registry {
                opts = opts.registry(dir);
            }
            Db::open_with(opts).expect("open durable data directory")
        }
        (None, Some(dir)) => {
            Db::with_registry_keep(dir, registry_keep).expect("open model registry")
        }
        (None, None) => Db::new(),
    };
    let config = ServerConfig { addr, max_connections: max_conn, limits: Limits::from_env() };
    let server = serve(Arc::new(db), &config).expect("bind server address");
    println!("listening on {}", server.addr());
    if let Some(dir) = &registry {
        println!("registry at {dir}");
    }
    if let Some(dir) = &data {
        println!("data at {dir}");
    }
    // SIGTERM/SIGINT start the graceful drain that `wait` completes.
    #[cfg(unix)]
    {
        sig::install();
        let drain = server.drainer();
        std::thread::Builder::new()
            .name("bismarck-signal".to_string())
            .spawn(move || loop {
                if sig::triggered() {
                    drain();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("spawn signal watcher");
    }
    // Serve until a client issues SHUTDOWN or a signal starts the drain.
    server.wait();
    println!("server stopped");
}

/// Forwards stdin statements, printing each full response. `v2` selects
/// the binary framing. Classifies errors through the typed [`Response`]
/// API: `err busy` retries with the server's `retry_after_ms` backoff (a
/// few times), anything else prints and sets exit code 1.
fn run_client(addr: &str, v2: bool) -> i32 {
    let connect = if v2 { Client::connect_v2 } else { Client::connect };
    let mut client = connect(addr).unwrap_or_else(|e| {
        eprintln!("connect {addr}: {e}");
        std::process::exit(1);
    });
    let stdin = std::io::stdin();
    let mut saw_err = false;
    for line in stdin.lock().lines() {
        let line = line.expect("read stdin");
        let statement = line.trim();
        if statement.is_empty() {
            continue;
        }
        if statement == "\\q" || statement.eq_ignore_ascii_case("quit") {
            // The server closes `quit` sessions without a response; don't
            // forward it and then misread the hang-up as a failure.
            break;
        }
        let mut retries = 3u32;
        loop {
            match client.request(statement) {
                Ok(lines) => {
                    let response = Response::from_lines(&lines);
                    if response.err_kind() == Some(ErrKind::Busy) && retries > 0 {
                        // The structured shed: back off exactly as long as
                        // the server asked, then retry.
                        retries -= 1;
                        let ms = response.retry_after_ms().unwrap_or(10);
                        std::thread::sleep(Duration::from_millis(ms));
                        continue;
                    }
                    saw_err |= !response.is_ok();
                    for l in lines {
                        println!("{l}");
                    }
                }
                Err(e) => {
                    // SHUTDOWN may race the connection teardown; anything
                    // else is a real failure.
                    if statement.eq_ignore_ascii_case("shutdown") {
                        println!("ok bye");
                        return i32::from(saw_err);
                    }
                    eprintln!("request failed: {e}");
                    return 1;
                }
            }
            break;
        }
    }
    i32::from(saw_err)
}

/// The end-to-end smoke the CI pipeline gates on: two concurrent client
/// sessions (one TRAIN writer, one EVAL reader) over one server, registry
/// round-trip of a versioned model, bit-identical scoring across a server
/// restart, clean shutdown. Panics (⇒ non-zero exit) on any violation.
fn run_smoke() {
    let dir = std::env::temp_dir().join(format!("bolton-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry_dir = dir.join("models");

    let db = Arc::new(Db::with_registry(&registry_dir).expect("open registry"));
    let server = serve(Arc::clone(&db), &ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // Session 0: set up data and a baseline private model in the registry.
    let mut setup = Client::connect(&addr).expect("connect setup");
    setup.expect_ok("CREATE TABLE t (DIM 8)").unwrap();
    setup.expect_ok("SYNTH t ROWS 3000 SEED 7 NOISE 0.05").unwrap();
    setup
        .expect_ok("TRAIN base ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 2 BATCH 10 SEED 3")
        .unwrap();
    let saved = setup.expect_ok("SAVE MODEL base").unwrap();
    assert_eq!(saved, "ok model=base version=1 dim=8", "unexpected SAVE response: {saved}");

    // Concurrent sessions: a writer TRAINs while a reader EVALs the
    // committed model through the registry. Both must succeed, and every
    // read must return the identical (deterministic) response.
    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut w = Client::connect(&addr).expect("connect writer");
            w.expect_ok("TRAIN heavy ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 6 BATCH 10 SEED 4")
                .expect("writer TRAIN");
            w.expect_ok("SAVE MODEL heavy").expect("writer SAVE")
        })
    };
    let reader = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut r = Client::connect(&addr).expect("connect reader");
            let first = r.expect_ok("EVAL MODEL base VERSION 1 ON t").expect("reader EVAL");
            for i in 0..14 {
                let again = r.expect_ok("EVAL MODEL base VERSION 1 ON t").expect("reader EVAL");
                assert_eq!(again, first, "read {i} diverged under a concurrent writer");
            }
            first
        })
    };
    let heavy_saved = writer.join().expect("writer thread");
    assert_eq!(heavy_saved, "ok model=heavy version=1 dim=8");
    let base_eval = reader.join().expect("reader thread");
    assert!(base_eval.starts_with("ok rows=3000 acc="), "{base_eval}");

    let listed = setup.request("LIST MODELS").expect("LIST MODELS");
    assert!(listed.iter().any(|l| l.starts_with("* base v1 dim=8 checksum=")), "{listed:?}");
    assert!(listed.iter().any(|l| l.starts_with("* heavy v1 dim=8 checksum=")), "{listed:?}");

    // Clean shutdown via the protocol.
    setup.expect_ok("SHUTDOWN").unwrap();
    server.wait();
    drop(db);

    // Restart on the same registry: the committed model must score the
    // deterministically rebuilt table bit-identically to before.
    let db = Arc::new(Db::with_registry(&registry_dir).expect("reopen registry"));
    let server = serve(db, &ServerConfig::default()).expect("rebind");
    let mut client2 = Client::connect(server.addr()).expect("reconnect");
    client2.expect_ok("CREATE TABLE t (DIM 8)").unwrap();
    client2.expect_ok("SYNTH t ROWS 3000 SEED 7 NOISE 0.05").unwrap();
    let eval_after = client2.expect_ok("EVAL MODEL base VERSION 1 ON t").unwrap();
    assert_eq!(eval_after, base_eval, "registry model must score bit-identically across a restart");
    client2.expect_ok("SHUTDOWN").unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The mixed-protocol smoke CI gates on: a v1 line client and a v2 binary
/// client on the *same* listener must get bit-identical answers for every
/// statement, and a pipelined v2 batch must come back matched to its
/// request IDs in request order. Panics (⇒ non-zero exit) on any
/// violation.
fn run_smoke_wire() {
    let db = Arc::new(Db::new());
    let server = serve(Arc::clone(&db), &ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // Set up deterministic state over v1, train a model so every statement
    // family (COUNT / EVAL / SHOW / LIST) has something to answer about.
    let mut setup = Client::connect(&addr).expect("connect v1 setup");
    setup.expect_ok("CREATE TABLE t (DIM 6)").unwrap();
    setup.expect_ok("SYNTH t ROWS 2000 SEED 11 NOISE 0.05").unwrap();
    setup.expect_ok("TRAIN m ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 2 BATCH 10 SEED 5").unwrap();

    // Bit-identity: both protocols carry the same textual response block,
    // so the raw line vectors must match exactly — including errors.
    let mut v1 = Client::connect(&addr).expect("connect v1");
    let mut v2 = Client::connect_v2(&addr).expect("connect v2");
    assert!(!v1.is_v2() && v2.is_v2(), "transport selection");
    let statements = [
        "SELECT COUNT(*) FROM t",
        "SHOW TABLES",
        "EVAL m ON t",
        "SELECT AVG(label) FROM t",
        "SELECT COUNT(*) FROM missing",
        "this is not sql",
    ];
    for stmt in statements {
        let a = v1.request(stmt).expect("v1 request");
        let b = v2.request(stmt).expect("v2 request");
        assert_eq!(a, b, "protocol answers diverged for {stmt:?}");
    }

    // Pipelining: distinguishable answers must land at their own index.
    v2.expect_ok("CREATE TABLE small (DIM 4)").unwrap();
    v2.expect_ok("SYNTH small ROWS 500 SEED 2 NOISE 0.05").unwrap();
    let batch = v2
        .pipeline(&[
            "SELECT COUNT(*) FROM t",
            "SELECT COUNT(*) FROM small",
            "SELECT COUNT(*) FROM missing",
            "SELECT COUNT(*) FROM t",
        ])
        .expect("pipeline");
    assert_eq!(batch.len(), 4);
    assert_eq!(batch[0].get("count"), Some("2000"), "{:?}", batch[0]);
    assert_eq!(batch[1].get("count"), Some("500"), "{:?}", batch[1]);
    assert_eq!(batch[2].err_kind(), Some(ErrKind::Other), "{:?}", batch[2]);
    assert_eq!(batch[3].get("count"), Some("2000"), "{:?}", batch[3]);

    // The shared engine pool served every repeated statement from cache by
    // now; the live counters must show it.
    let limits = v2.query("SHOW LIMITS").expect("SHOW LIMITS");
    let hits: u64 = limits
        .rows()
        .iter()
        .find_map(|row| row.strip_prefix("parse_cache_hits="))
        .and_then(|v| v.parse().ok())
        .expect("parse_cache_hits in SHOW LIMITS");
    assert!(hits > 0, "parse cache saw no hits: {limits:?}");

    // Clean shutdown over the binary protocol.
    v2.expect_ok("SHUTDOWN").unwrap();
    server.wait();
}
