//! Spans recorded by benchmark code around its calls into each layer.
//! Kept in memory, written to `benchmark/out/trace.<workload>.json` when
//! the run ends. A disabled tracer records nothing, so the untraced run
//! pays one branch per call site.

use crate::json::Value;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its position in the trace file's array).
pub type SpanId = u32;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Shared by every span of one statement or request.
    request_id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request_id,
        });
        Some((spans.len() - 1) as SpanId)
    }

    /// Runs `f` inside a span, returning its result, its wall time in
    /// seconds, and the span's id (when tracing).
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64, Option<SpanId>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, start, end, parent, request_id);
        (out, (end - start).as_secs_f64(), id)
    }

    /// Writes every span plus each span's self time (duration minus the
    /// durations of its direct children).
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("tracer lock");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::with_capacity(spans.len() * 120 + 64);
        out.push_str(&format!("{{\"workload\": \"{workload}\", \"spans\": [\n"));
        for (i, s) in spans.iter().enumerate() {
            let line = Value::obj(vec![
                ("id", Value::Num(i as f64)),
                ("name", Value::str(s.name.as_str())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                ("request_id", Value::Num(s.request_id as f64)),
                ("self_ns", Value::Num((s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64)),
            ]);
            out.push_str(&line.to_json());
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}
