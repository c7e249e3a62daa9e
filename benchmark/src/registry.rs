//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each is
//! expected to move. `BENCHMARK.json` repeats the names, units, directions
//! and bounds; `check` fails when the two disagree.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this layer metric should move.
    pub moves: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train_sql_dense",
        why: "Fig 5 + 2a through SQL: 400k x d=50 in memory; per-row cost of sql/session/table/heap/buffer/engine dominates, kernels, storage bandwidth, WAL and wire do little",
    },
    Workload {
        name: "train_ooc_wide",
        why: "Fig 2b: d=510 rows, data 4-100x the caches; one scan layer used as disk page heap, mmap dense chunks and decoded sparse chunks, so a gain for one that costs another shows",
    },
    Workload {
        name: "serve_read",
        why: "tiny table behind a real server: closed-loop reads over v2 and v1 (traced: an open-loop rate ladder), so server/protocol/parse-pool/session/limits do everything and queueing shows",
    },
    Workload {
        name: "ingest_durable",
        why: "fsynced inserts beside a reader against a volatile twin, auto-checkpoints, SIGKILL and recovery: wal, db::checkpoint and the table locks under the opposite read/write share",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "private_overhead_ratio", unit: "ratio", better: Lower, bound: 0.2 },
    EndToEnd { name: "sql_train_overhead_ratio", unit: "ratio", better: Lower, bound: 0.25 },
    EndToEnd { name: "private_acc", unit: "fraction", better: Higher, bound: 0.02 },
    EndToEnd { name: "store_slowdown_ratio", unit: "ratio", better: Lower, bound: 0.25 },
    EndToEnd { name: "sparse_slowdown_ratio", unit: "ratio", better: Lower, bound: 0.25 },
    EndToEnd { name: "v1_rtt_ms", unit: "ms", better: Lower, bound: 0.1 },
    EndToEnd { name: "write_amplification", unit: "ratio", better: Lower, bound: 0.25 },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const KERNELS: &str = "train_rows_per_s, store_rows_per_s on train_ooc_wide";
const NOISE: &str = "private_overhead_ratio on both train workloads";
const ENGINE: &str =
    "noiseless_rows_per_s; sql_train_overhead_ratio (its denominator) on both train workloads";
const STORE: &str = "store_slowdown_ratio, sparse_slowdown_ratio, setup_s on train_ooc_wide";
const TABLE: &str =
    "sql_train_overhead_ratio, train_rows_per_s, eval_rows_per_s on both train workloads";
const PARSE: &str =
    "server.rtt_us.v2_d1, server.p50_ms.r2000 on serve_read; insert_rows_per_s on ingest_durable";
const SESSION: &str = "server.rtt_us.v2_d1, server.p50_ms.r2000 on serve_read";
const WIRE: &str = "server.rtt_us.v2_d1, server.stmts_per_s.v2_d1x2 on serve_read";
const SERVER: &str = "v1_rtt_ms; server.p50_ms.r2000, server.stmts_per_s.v2_d1x2 on serve_read";
const WAL: &str =
    "write_amplification, insert_rows_per_s, db.recovery_s.subprocess on ingest_durable";
const DB: &str =
    "write_amplification, insert_rows_per_s, db.recovery_s.subprocess on ingest_durable";
/// A wait a user sees, measured end to end, but too unsteady on a shared
/// two-thread box to carry a bound (see the README's demotions).
const DEMOTED: &str = "demoted end-to-end metric: a user-visible wait, reported without a bound";

pub const PER_LAYER: &[PerLayer] = &[
    // the raw rates behind the end-to-end ratios
    pl("train_rows_per_s", "rows/s", Higher, DEMOTED),
    pl("noiseless_rows_per_s", "rows/s", Higher, DEMOTED),
    pl("eval_rows_per_s", "rows/s", Higher, DEMOTED),
    pl("store_rows_per_s", "rows/s", Higher, DEMOTED),
    pl("sparse_nnz_per_s", "nnz/s", Higher, DEMOTED),
    pl("insert_rows_per_s", "rows/s", Higher, DEMOTED),
    // linalg
    pl("linalg.dot_gbps.d50", "GB/s", Higher, KERNELS),
    pl("linalg.dot_gbps.d510", "GB/s", Higher, KERNELS),
    pl("linalg.axpy_project_gbps.d50", "GB/s", Higher, KERNELS),
    pl("linalg.axpy_project_gbps.d510", "GB/s", Higher, KERNELS),
    pl("linalg.scale_gbps.d510", "GB/s", Higher, KERNELS),
    pl("linalg.sparse_dot_ns_per_nnz", "ns", Lower, "sparse_nnz_per_s on train_ooc_wide"),
    pl("linalg.triad_gbps", "GB/s", Higher, "same-box baseline, moves nothing"),
    pl("linalg.memcpy_gbps", "GB/s", Higher, "same-box baseline, moves nothing"),
    pl("linalg.simd_lanes", "count", Higher, KERNELS),
    // rng / privacy / core
    pl("rng.permutation_ns_per_elem", "ns", Lower, NOISE),
    pl("privacy.noise_draw_us.d50", "us", Lower, NOISE),
    pl("privacy.noise_draw_us.d510", "us", Lower, NOISE),
    pl("core.calibrate_sensitivity_us", "us", Lower, NOISE),
    pl("core.train_private_rows_per_s.mem_d50", "rows/s", Higher, NOISE),
    // sgd
    pl("sgd.engine_rows_per_s.mem_d50", "rows/s", Higher, ENGINE),
    pl("sgd.engine_rows_per_s.mem_d510", "rows/s", Higher, ENGINE),
    pl("sgd.sparse_nnz_per_s.mem", "nnz/s", Higher, "sparse_nnz_per_s on train_ooc_wide"),
    pl("sgd.parallel_rows_per_s.w2", "rows/s", Higher, ENGINE),
    pl("sgd.pool_dispatch_us", "us", Lower, "eval_rows_per_s on both train workloads"),
    // data (row_store, mmap)
    pl("data.scan_rows_per_s.store_mmap", "rows/s", Higher, STORE),
    pl("data.scan_rows_per_s.store_copy", "rows/s", Higher, STORE),
    pl("data.scan_rows_per_s.store_sparse", "rows/s", Higher, STORE),
    pl("data.chunk_hit_rate", "ratio", Higher, STORE),
    pl("data.chunk_evictions", "count", Lower, STORE),
    pl("data.borrowed_hits", "count", Higher, STORE),
    pl("data.copied_hits", "count", Lower, STORE),
    pl("data.peak_resident_bytes", "bytes", Lower, STORE),
    pl("data.store_write_mb_per_s", "MB/s", Higher, "setup_s on train_ooc_wide"),
    pl("data.file_bytes_per_user_byte", "ratio", Lower, "setup_s on train_ooc_wide"),
    // bismarck table / heap / buffer
    pl("table.scan_rows_per_s.mem_d50", "rows/s", Higher, TABLE),
    pl("table.scan_rows_per_s.disk_d510", "rows/s", Higher, TABLE),
    pl("table.scan_order_rows_per_s.mem_d50", "rows/s", Higher, TABLE),
    pl("table.scan_order_rows_per_s.disk_d510", "rows/s", Higher, TABLE),
    pl("table.insert_rows_per_s", "rows/s", Higher, "setup_s; insert_rows_per_s on ingest_durable"),
    pl("table.load_from_store_rows_per_s", "rows/s", Higher, "setup_s on train_ooc_wide"),
    pl("buffer.hit_rate", "ratio", Higher, TABLE),
    pl("buffer.misses", "count", Lower, TABLE),
    pl("buffer.evictions", "count", Lower, TABLE),
    // bismarck sql / engine
    pl("sql.parse_us.count", "us", Lower, PARSE),
    pl("sql.parse_us.insert", "us", Lower, PARSE),
    pl("sql.parse_us.train", "us", Lower, PARSE),
    pl("engine.parse_hit_us", "us", Lower, PARSE),
    pl("engine.parse_miss_us", "us", Lower, PARSE),
    pl("engine.parse_hit_rate", "ratio", Higher, PARSE),
    // bismarck session
    pl("session.count_us", "us", Lower, SESSION),
    pl("session.execute_prepared_us", "us", Lower, SESSION),
    pl("session.eval_us_per_krow", "us", Lower, SESSION),
    pl("session.private_count_us", "us", Lower, SESSION),
    pl("session.train_overhead_ratio", "ratio", Lower, "train_rows_per_s on train_sql_dense"),
    pl("session.unattributed_share", "fraction", Lower, "train_rows_per_s on train_sql_dense"),
    // bismarck protocol
    pl("protocol.encode_ns.b64", "ns", Lower, WIRE),
    pl("protocol.encode_ns.b4096", "ns", Lower, WIRE),
    pl("protocol.decode_ns.b64", "ns", Lower, WIRE),
    pl("protocol.decode_ns.b4096", "ns", Lower, WIRE),
    pl("protocol.frame_mb_per_s.b64", "MB/s", Higher, WIRE),
    pl("protocol.frame_mb_per_s.b4096", "MB/s", Higher, WIRE),
    // bismarck server / limits
    pl("server.rtt_us.v2_d1", "us", Lower, DEMOTED),
    pl("server.rtt_us.v1", "us", Lower, "v1_rtt_ms on serve_read"),
    pl("server.stmts_per_s.v2_d1x2", "stmts/s", Higher, DEMOTED),
    pl("server.stmts_per_s.v2_d8", "stmts/s", Higher, SERVER),
    pl("server.max_rate_ok", "stmts/s", Higher, SERVER),
    pl("server.p50_ms.r2000", "ms", Lower, DEMOTED),
    pl("server.p99_ms.r1000", "ms", Lower, SERVER),
    pl("server.p99_ms.r2000", "ms", Lower, DEMOTED),
    pl("server.p99_ms.r4000", "ms", Lower, SERVER),
    pl("server.p99_ms.r8000", "ms", Lower, SERVER),
    pl("server.queue_wait_p99_ms", "ms", Lower, SERVER),
    pl("server.gen_lateness_p99_ms", "ms", Lower, "none: how late the generator itself ran"),
    pl("server.cpu_us_per_stmt", "us", Lower, SERVER),
    pl("server.threads_per_conn", "count", Lower, SERVER),
    pl("server.rss_kb_per_idle_conn", "kB", Lower, SERVER),
    pl("server.connect_us", "us", Lower, SERVER),
    pl("server.shed_share", "fraction", Lower, SERVER),
    // bismarck wal
    pl("wal.append_us", "us", Lower, WAL),
    pl("wal.fsync_us", "us", Lower, WAL),
    pl("wal.bytes_per_row", "bytes", Lower, WAL),
    pl("wal.syscw_per_row", "count", Lower, WAL),
    pl("wal.replay_rows_per_s", "rows/s", Higher, "recovery_s on ingest_durable"),
    // bismarck db / registry
    pl("db.checkpoint_s", "s", Lower, DB),
    pl("db.checkpoint_mb_per_s", "MB/s", Higher, DB),
    pl("db.recovery_s.subprocess", "s", Lower, DEMOTED),
    pl("db.recovery_s.checkpoint_only", "s", Lower, DB),
    pl("db.recovery_s.log_tail_10k", "s", Lower, DB),
    pl("db.insert_p99_ms", "ms", Lower, DEMOTED),
    pl("db.reader_p50_ms", "ms", Lower, DEMOTED),
    pl("db.reader_p99_ms", "ms", Lower, DEMOTED),
    pl("db.dir_bytes_per_user_byte", "ratio", Lower, DB),
    pl("registry.save_us", "us", Lower, "train_sql_dense SAVE MODEL (not timed end to end)"),
    pl("registry.load_us", "us", Lower, "EVAL MODEL (not timed end to end)"),
    // the tracer itself
    pl("trace_overhead_ratio", "ratio", Lower, "none: traced / untraced time of the focus phase"),
];

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
/// How long one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json` as these tables declare it (the `declare`
/// subcommand prints it; `check` compares the committed file against the
/// same tables).
pub fn benchmark_json() -> String {
    use crate::json::Value;
    let line = |fields: Vec<(&str, Value)>| format!("    {}", Value::obj(fields).to_json());
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| line(vec![("name", Value::str(w.name)), ("why", Value::str(w.why))]))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            line(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            line(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = Value::Arr(COMMAND.iter().map(|c| Value::str(*c)).collect()).to_json();
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The per-layer table of the README: which end-to-end metric each layer
/// metric should move (the `declare --layers` output).
pub fn layer_table() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}
