//! The table write-ahead log.
//!
//! Every mutation of durable [`Db`](crate::db::Db) state appends one
//! [`WalRecord`] here *before* it is applied, and a statement is only
//! acknowledged once its record is fsynced. Records are length-prefixed
//! and checksummed:
//!
//! ```text
//! frame    := len:u32 LE | checksum:u64 LE | payload[len]
//! payload  := lsn:u64 LE | kind:u8 | fields...
//! ```
//!
//! The checksum is FNV-1a over the payload (the same
//! [`model_io::checksum64`] the model registry uses). Replay walks frames
//! from the front and stops cleanly at the first short, torn,
//! checksum-mismatched, or non-monotonic frame — a torn tail is the
//! expected signature of a crash mid-append, not corruption, and the bytes
//! after it are garbage by definition.
//!
//! Commits use **group commit**. *Whoever executes a statement appends*:
//! [`Wal::append`] only buffers the frame under a short lock and hands back
//! its LSN. *One waiter fsyncs*: [`Wal::sync_to`] makes an LSN durable, any
//! one fsync covers every record appended before it started, and latecomers
//! return on the `durable_lsn` fast path without a syscall. *Nobody
//! acknowledges before that returns*: in-process callers and v1 connections
//! wait inline; a v2 connection's executors park their responses on the
//! server's one committer thread ([`crate::server`]), which fsyncs once for
//! everything parked and answers the whole batch — no executor sleeps in
//! `fsync`, and the group grows to the client's pipeline depth
//! ([`Wal::records_synced`] ÷ [`Wal::fsyncs`]). An optional batching window
//! ([`WalConfig::sync_window`], `BOLTON_WAL_SYNC_WINDOW_US`) makes the
//! syncing thread linger so more committers pile on — rarely needed now
//! that pipelined acknowledgements batch themselves; durability is
//! unchanged because the covered LSN is captured *after* the wait.
//!
//! The log is split into **segments** — `wal-000001.log`,
//! `wal-000002.log`, … — sealed once they exceed
//! [`WalConfig::segment_bytes`]. Recovery replays segments in sequence
//! order with the same torn-tail rules (a tear in one segment discards it
//! and every later segment). A checkpoint [`Wal::seal`]s the active
//! segment while no append can run, so its LSN is a segment boundary and
//! [`Wal::reset`] afterwards simply *deletes* every covered segment instead
//! of rewriting an unbounded tail. (A segment that survives a crash between
//! the two may still hold records at or below the checkpoint LSN;
//! [`Db::open`](crate::db::Db::open) skips those during replay.)
//!
//! Floats are encoded as their IEEE-754 bit patterns, so replayed rows are
//! bit-identical to what was logged.

use crate::error::DbResult;
use crate::fault::{Vfs, VfsFile};
use bolton::model_io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Legacy single-file WAL name; migrated to segment 1 on open.
pub const WAL_FILE: &str = "wal.log";
/// Temp name the pre-segment layout used while truncating the log; only
/// referenced by debris collection now.
pub const WAL_TMP_FILE: &str = "wal.log.tmp";
/// Segment size (bytes) at which the active segment is sealed and a new
/// one started, unless overridden via [`WalConfig::segment_bytes`].
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// The file name of WAL segment `seq` (`wal-000001.log`, …).
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// Parses a segment sequence number back out of a file name.
pub fn parse_segment_seq(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Upper bound on one record's payload; anything larger is treated as a
/// torn length prefix rather than an attempt to allocate gigabytes.
const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// Frame header: length prefix + checksum.
const FRAME_HEADER: usize = 4 + 8;

/// One logged mutation. Replaying records in LSN order onto an empty
/// catalog (or a checkpoint snapshot) reproduces the table state
/// bit-identically — which is why SYNTH and SHUFFLE log their seeds
/// instead of their outputs.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE name (DIM dim)`; `disk` mirrors the `DISK` flag.
    CreateTable { name: String, dim: u32, disk: bool },
    /// `CREATE TABLE name FROM STORE 'path'`; replay re-reads the store.
    CreateFromStore { name: String, path: String, disk: bool },
    /// `DROP TABLE name`.
    DropTable { name: String },
    /// One inserted row; floats are bit-exact.
    Insert { name: String, features: Vec<f64>, label: f64 },
    /// `SYNTH name ROWS rows SEED seed NOISE noise` — deterministic, so
    /// logging the spec suffices.
    Synth { name: String, rows: u64, seed: u64, noise: f64 },
    /// `SHUFFLE name SEED seed` — ditto.
    Shuffle { name: String, seed: u64 },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::CreateTable { .. } => 1,
            WalRecord::CreateFromStore { .. } => 2,
            WalRecord::DropTable { .. } => 3,
            WalRecord::Insert { .. } => 4,
            WalRecord::Synth { .. } => 5,
            WalRecord::Shuffle { .. } => 6,
        }
    }

    /// The table this record mutates.
    pub fn table(&self) -> &str {
        match self {
            WalRecord::CreateTable { name, .. }
            | WalRecord::CreateFromStore { name, .. }
            | WalRecord::DropTable { name }
            | WalRecord::Insert { name, .. }
            | WalRecord::Synth { name, .. }
            | WalRecord::Shuffle { name, .. } => name,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Encodes one record (with its LSN) into a complete frame.
pub fn encode_frame(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(record.kind());
    match record {
        WalRecord::CreateTable { name, dim, disk } => {
            put_str(&mut payload, name);
            payload.extend_from_slice(&dim.to_le_bytes());
            payload.push(u8::from(*disk));
        }
        WalRecord::CreateFromStore { name, path, disk } => {
            put_str(&mut payload, name);
            put_str(&mut payload, path);
            payload.push(u8::from(*disk));
        }
        WalRecord::DropTable { name } => put_str(&mut payload, name),
        WalRecord::Insert { name, features, label } => {
            put_str(&mut payload, name);
            put_f64(&mut payload, *label);
            payload.extend_from_slice(&(features.len() as u32).to_le_bytes());
            for v in features {
                put_f64(&mut payload, *v);
            }
        }
        WalRecord::Synth { name, rows, seed, noise } => {
            put_str(&mut payload, name);
            payload.extend_from_slice(&rows.to_le_bytes());
            payload.extend_from_slice(&seed.to_le_bytes());
            put_f64(&mut payload, *noise);
        }
        WalRecord::Shuffle { name, seed } => {
            put_str(&mut payload, name);
            payload.extend_from_slice(&seed.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&model_io::checksum64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// A little-endian cursor over one payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn decode_payload(payload: &[u8]) -> Option<(u64, WalRecord)> {
    let mut c = Cursor { buf: payload, at: 0 };
    let lsn = c.u64()?;
    let kind = c.u8()?;
    let record = match kind {
        1 => {
            let name = c.str()?;
            let dim = c.u32()?;
            let disk = c.u8()? != 0;
            WalRecord::CreateTable { name, dim, disk }
        }
        2 => {
            let name = c.str()?;
            let path = c.str()?;
            let disk = c.u8()? != 0;
            WalRecord::CreateFromStore { name, path, disk }
        }
        3 => WalRecord::DropTable { name: c.str()? },
        4 => {
            let name = c.str()?;
            let label = c.f64()?;
            let n = c.u32()? as usize;
            let mut features = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                features.push(c.f64()?);
            }
            WalRecord::Insert { name, features, label }
        }
        5 => {
            let name = c.str()?;
            let rows = c.u64()?;
            let seed = c.u64()?;
            let noise = c.f64()?;
            WalRecord::Synth { name, rows, seed, noise }
        }
        6 => {
            let name = c.str()?;
            let seed = c.u64()?;
            WalRecord::Shuffle { name, seed }
        }
        _ => return None,
    };
    c.done().then_some((lsn, record))
}

/// Decodes every intact frame from the front of `bytes`.
///
/// Returns the records and the byte length of the valid prefix. Decoding
/// stops — without erroring — at the first frame that is short, fails its
/// checksum, does not parse, or breaks LSN monotonicity: that is the torn
/// tail a crash mid-append leaves behind, and the log is truncated back to
/// the valid prefix before new appends go in.
pub fn decode_frames(bytes: &[u8]) -> (Vec<(u64, WalRecord)>, usize) {
    decode_frames_after(bytes, 0)
}

/// [`decode_frames`] with LSN monotonicity continuing from `after_lsn` —
/// how recovery chains the check across segment boundaries (the first
/// record of segment N+1 must exceed the last record of segment N).
pub fn decode_frames_after(bytes: &[u8], after_lsn: u64) -> (Vec<(u64, WalRecord)>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut last_lsn = after_lsn;
    while let Some(header) = bytes.get(at..at + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_BYTES {
            break;
        }
        let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(at + FRAME_HEADER..at + FRAME_HEADER + len as usize) else {
            break;
        };
        if model_io::checksum64(payload) != checksum {
            break;
        }
        let Some((lsn, record)) = decode_payload(payload) else { break };
        if lsn <= last_lsn {
            break;
        }
        last_lsn = lsn;
        records.push((lsn, record));
        at += FRAME_HEADER + len as usize;
    }
    (records, at)
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// How to open a [`Wal`]; see the field docs for the knobs.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// `false` ⇒ `sync_to` is a no-op (the `BOLTON_WAL_SYNC=off` knob):
    /// faster, but acknowledged writes may be lost on a crash.
    pub sync_on_commit: bool,
    /// Lets the caller account for a checkpoint taken after the last
    /// surviving record (covered segments may have been deleted since).
    pub min_next_lsn: u64,
    /// Seal the active segment and start a new one past this size
    /// (clamped to ≥ 1); checkpoints delete sealed segments they cover.
    pub segment_bytes: u64,
    /// Group-commit batching window (`BOLTON_WAL_SYNC_WINDOW_US`): the
    /// thread that wins the sync lock waits this long before fsyncing so
    /// concurrent committers coalesce onto its fsync. Zero = sync
    /// immediately.
    pub sync_window: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync_on_commit: true,
            min_next_lsn: 0,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            sync_window: Duration::ZERO,
        }
    }
}

/// A sealed (no longer written) segment and the range it holds.
#[derive(Clone, Debug)]
struct Segment {
    seq: u64,
    /// Highest LSN in the segment; a checkpoint at or past it makes the
    /// whole file redundant.
    last_lsn: u64,
}

struct AppendState {
    /// Handle to the active (highest-sequence) segment.
    file: Arc<dyn VfsFile>,
    /// Sequence number of the active segment.
    seq: u64,
    /// Bytes appended to the active segment so far.
    segment_len: u64,
    /// Sealed segments still on disk, ascending sequence order.
    sealed: Vec<Segment>,
    /// LSN the next append gets. LSNs start at 1 and never reset, even
    /// across checkpoints that delete covered segments.
    next_lsn: u64,
    /// Highest LSN written into the log (0 = none).
    appended_lsn: u64,
}

/// The write-ahead log of one durable data directory.
pub struct Wal {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    /// See [`WalConfig::sync_on_commit`].
    sync_on_commit: bool,
    /// See [`WalConfig::segment_bytes`].
    segment_bytes: u64,
    /// See [`WalConfig::sync_window`].
    sync_window: Duration,
    append: Mutex<AppendState>,
    /// Serializes fsyncs so concurrent committers coalesce onto one.
    sync: Mutex<()>,
    /// Highest LSN known durable; the lock-free fast path of `sync_to`.
    durable_lsn: AtomicU64,
    /// Fsyncs of the log issued, and records they made durable: the group
    /// size is their ratio. Statistics only, hence relaxed.
    fsyncs: AtomicU64,
    records_synced: AtomicU64,
    /// Appends since the last checkpoint, for the auto-checkpoint knob.
    records_since_checkpoint: AtomicU64,
}

impl Wal {
    /// [`Wal::open_with`] under default segmenting and no sync window —
    /// the signature most tests and the non-durable paths use.
    ///
    /// # Errors
    /// I/O failures.
    pub fn open(
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        sync_on_commit: bool,
        min_next_lsn: u64,
    ) -> DbResult<(Self, Vec<(u64, WalRecord)>)> {
        Self::open_with(
            dir,
            vfs,
            WalConfig { sync_on_commit, min_next_lsn, ..WalConfig::default() },
        )
    }

    /// Opens (creating if missing) the segmented log in `dir`, returning
    /// it together with the intact records found, in LSN order. Segments
    /// replay in sequence order under one global monotonicity check; the
    /// first short, torn, corrupt, or out-of-order frame truncates its
    /// segment back to the valid prefix and discards every later segment —
    /// that is the crash signature, and everything past it is garbage by
    /// definition. A legacy single-file `wal.log` is migrated to segment 1
    /// in place.
    ///
    /// # Errors
    /// I/O failures.
    pub fn open_with(
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        config: WalConfig,
    ) -> DbResult<(Self, Vec<(u64, WalRecord)>)> {
        let mut seqs: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            if let Some(seq) = name.to_str().and_then(parse_segment_seq) {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        let legacy = dir.join(WAL_FILE);
        if legacy.exists() && seqs.is_empty() {
            // Pre-segment layout: the whole log becomes segment 1.
            vfs.rename(&legacy, &dir.join(segment_file_name(1)))?;
            vfs.sync_dir(dir)?;
            seqs.push(1);
        }

        let mut records: Vec<(u64, WalRecord)> = Vec::new();
        let mut sealed: Vec<Segment> = Vec::new();
        let mut torn_from: Option<usize> = None;
        for (i, &seq) in seqs.iter().enumerate() {
            // A gap in the sequence means segments vanished out from under
            // us; nothing after the gap can be trusted to be contiguous.
            if i > 0 && seq != seqs[i - 1] + 1 {
                torn_from = Some(i);
                break;
            }
            let path = dir.join(segment_file_name(seq));
            let bytes = std::fs::read(&path)?;
            let last_lsn = records.last().map_or(0, |(lsn, _)| *lsn);
            let (found, valid_len) = decode_frames_after(&bytes, last_lsn);
            records.extend(found);
            sealed.push(Segment { seq, last_lsn: records.last().map_or(0, |(lsn, _)| *lsn) });
            if valid_len < bytes.len() {
                // Drop the torn tail before appending past it; otherwise
                // replay would stop at the tear and never see new records.
                // The truncated segment stays (and becomes the active one)
                // so its surviving records keep their place in the log.
                vfs.truncate(&path, valid_len as u64)?;
                torn_from = Some(i + 1);
                break;
            }
        }
        if let Some(from) = torn_from {
            for &seq in &seqs[from..] {
                vfs.remove_file(&dir.join(segment_file_name(seq)))?;
            }
        }

        // The highest surviving segment stays active; appends extend it.
        let active = sealed.pop().unwrap_or(Segment { seq: 1, last_lsn: 0 });
        let path = dir.join(segment_file_name(active.seq));
        let segment_len = std::fs::metadata(&path).map_or(0, |m| m.len());
        let file = vfs.open_append(&path)?;
        let last_lsn = records.last().map_or(0, |(lsn, _)| *lsn);
        let next_lsn = last_lsn.max(config.min_next_lsn.saturating_sub(1)) + 1;
        let covered = config.min_next_lsn.saturating_sub(1);
        let fresh = records.iter().filter(|(lsn, _)| *lsn > covered).count() as u64;
        let wal = Wal {
            dir: dir.to_path_buf(),
            vfs,
            sync_on_commit: config.sync_on_commit,
            segment_bytes: config.segment_bytes.max(1),
            sync_window: config.sync_window,
            append: Mutex::new(AppendState {
                file,
                seq: active.seq,
                segment_len,
                sealed,
                next_lsn,
                appended_lsn: last_lsn,
            }),
            sync: Mutex::new(()),
            durable_lsn: AtomicU64::new(last_lsn),
            fsyncs: AtomicU64::new(0),
            records_synced: AtomicU64::new(0),
            records_since_checkpoint: AtomicU64::new(fresh),
        };
        Ok((wal, records))
    }

    /// Appends `record`, assigning and returning its LSN. The record is
    /// *not* durable until a later [`Wal::sync_to`] covers it. Crossing
    /// the segment-size threshold seals the active segment (fsyncing it,
    /// so sealed segments are never torn) and starts the next one.
    ///
    /// # Errors
    /// I/O failures (a failed append leaves the log usable: replay stops
    /// at the torn frame and the next open truncates it).
    pub fn append(&self, record: &WalRecord) -> DbResult<u64> {
        let mut state = self.append.lock().expect("wal append lock");
        let lsn = state.next_lsn;
        let frame = encode_frame(lsn, record);
        state.file.write_all(&frame)?;
        state.next_lsn += 1;
        state.appended_lsn = lsn;
        state.segment_len += frame.len() as u64;
        self.records_since_checkpoint.fetch_add(1, Ordering::Relaxed);
        if state.segment_len >= self.segment_bytes {
            self.rotate(&mut state)?;
        }
        Ok(lsn)
    }

    /// Seals the active segment and opens the next one. The seal fsync
    /// runs *before* the new file exists, so recovery can only ever find a
    /// tear in the highest segment; the directory fsync makes the new
    /// file's entry durable before any record in it can be acknowledged.
    fn rotate(&self, state: &mut AppendState) -> DbResult<()> {
        state.file.sync()?;
        self.note_synced(state.appended_lsn);
        let next_seq = state.seq + 1;
        let file = self.vfs.create(&self.dir.join(segment_file_name(next_seq)))?;
        self.vfs.sync_dir(&self.dir)?;
        state.sealed.push(Segment { seq: state.seq, last_lsn: state.appended_lsn });
        state.seq = next_seq;
        state.segment_len = 0;
        state.file = file;
        Ok(())
    }

    /// Makes every record up to `lsn` durable (group commit). Returns
    /// immediately if a concurrent committer's fsync already covered it,
    /// or if the log was opened with `sync_on_commit = false`.
    ///
    /// # Errors
    /// I/O failures — the caller must *not* acknowledge the write.
    pub fn sync_to(&self, lsn: u64) -> DbResult<()> {
        if !self.sync_on_commit {
            return Ok(());
        }
        self.sync_to_force(lsn)
    }

    /// Like [`Wal::sync_to`] but unconditional — checkpoints use this so
    /// the snapshot never gets ahead of the log even with syncing off.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync_to_force(&self, lsn: u64) -> DbResult<()> {
        if self.durable_lsn.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let _guard = self.sync.lock().expect("wal sync lock");
        if self.durable_lsn.load(Ordering::Acquire) >= lsn {
            return Ok(()); // a committer we queued behind covered us
        }
        if !self.sync_window.is_zero() {
            // Batching window: linger so concurrent committers land their
            // appends before the fsync. Durability is unaffected — the
            // covered LSN is captured after the wait, and `lsn` itself was
            // appended before we were called.
            std::thread::sleep(self.sync_window);
        }
        let (file, covered) = {
            let state = self.append.lock().expect("wal append lock");
            (Arc::clone(&state.file), state.appended_lsn)
        };
        // `file` is the active segment; anything older was fsynced when
        // its segment was sealed, so syncing the active one covers
        // everything up to `covered`.
        file.sync()?;
        self.note_synced(covered);
        Ok(())
    }

    /// Records one successful fsync of the log that covered up to `covered`.
    fn note_synced(&self, covered: u64) {
        let was = self.durable_lsn.fetch_max(covered, Ordering::AcqRel);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.records_synced.fetch_add(covered.saturating_sub(was), Ordering::Relaxed);
    }

    /// Syncs everything appended so far and returns the covered LSN.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync_all(&self) -> DbResult<u64> {
        let appended = self.append.lock().expect("wal append lock").appended_lsn;
        self.sync_to_force(appended)?;
        Ok(appended)
    }

    /// Syncs everything appended so far and seals the active segment if it
    /// holds anything, returning the covered LSN. A checkpoint calls this
    /// while its guards exclude appends: the LSN is then a segment boundary
    /// and [`Wal::reset`] deletes the whole covered prefix.
    ///
    /// # Errors
    /// I/O failures.
    pub fn seal(&self) -> DbResult<u64> {
        let _sync = self.sync.lock().expect("wal sync lock");
        let mut state = self.append.lock().expect("wal append lock");
        if state.segment_len > 0 {
            self.rotate(&mut state)?;
        }
        Ok(state.appended_lsn)
    }

    /// Deletes log segments a checkpoint at `covered_lsn` made redundant:
    /// every sealed segment whose highest LSN the checkpoint covers, plus
    /// the active segment when it is fully covered (a fresh one is created
    /// — durably — before the old one goes). Records with a higher LSN —
    /// appended (and possibly acknowledged!) after the snapshot was cut
    /// but before this reset — stay in place, so group commit never loses
    /// an acked write to a concurrent checkpoint; recovery skips the
    /// covered records that share their segments. LSNs keep counting from
    /// where they were.
    ///
    /// # Errors
    /// I/O failures — deletion is idempotent, so a crash mid-reset just
    /// leaves some covered segments for the next checkpoint to reap.
    pub fn reset(&self, covered_lsn: u64) -> DbResult<()> {
        // Lock order matches `sync_to_force` (sync before append) — the
        // reverse order deadlocks against a concurrent group commit.
        let _sync = self.sync.lock().expect("wal sync lock");
        let mut state = self.append.lock().expect("wal append lock");
        // Flush buffered appends first (making the unacked tail durable
        // early is harmless) so nothing in a doomed page cache is lost.
        state.file.sync()?;
        self.note_synced(state.appended_lsn);
        let mut kept = Vec::new();
        for seg in state.sealed.drain(..) {
            if seg.last_lsn <= covered_lsn {
                self.vfs.remove_file(&self.dir.join(segment_file_name(seg.seq)))?;
            } else {
                kept.push(seg);
            }
        }
        state.sealed = kept;
        if state.appended_lsn <= covered_lsn && state.segment_len > 0 {
            // The active segment holds only covered records: swap in an
            // empty successor (created and made durable before the old
            // file goes, so there is always an active segment on disk).
            let old = self.dir.join(segment_file_name(state.seq));
            let next_seq = state.seq + 1;
            let file = self.vfs.create(&self.dir.join(segment_file_name(next_seq)))?;
            self.vfs.sync_dir(&self.dir)?;
            self.vfs.remove_file(&old)?;
            state.seq = next_seq;
            state.segment_len = 0;
            state.file = file;
        }
        self.records_since_checkpoint
            .store(state.appended_lsn.saturating_sub(covered_lsn), Ordering::Relaxed);
        Ok(())
    }

    /// Highest LSN appended so far (0 = none).
    pub fn appended_lsn(&self) -> u64 {
        self.append.lock().expect("wal append lock").appended_lsn
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Fsyncs of the log issued since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Records those fsyncs made durable; `÷ fsyncs` is the group size.
    pub fn records_synced(&self) -> u64 {
        self.records_synced.load(Ordering::Relaxed)
    }

    /// Records appended since the last checkpoint (or open).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seq = self.append.lock().expect("wal append lock").seq;
        write!(
            f,
            "Wal({}, segment={}, appended={}, durable={})",
            self.dir.display(),
            seq,
            self.appended_lsn(),
            self.durable_lsn()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultVfs, StdVfs};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bolton-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable { name: "t".into(), dim: 3, disk: false },
            WalRecord::CreateFromStore { name: "s".into(), path: "/tmp/x.rs".into(), disk: true },
            WalRecord::Insert {
                name: "t".into(),
                features: vec![1.5, -0.25, f64::MIN_POSITIVE],
                label: -1.0,
            },
            WalRecord::Synth { name: "t".into(), rows: 40, seed: 7, noise: 0.125 },
            WalRecord::Shuffle { name: "t".into(), seed: 9 },
            WalRecord::DropTable { name: "s".into() },
        ]
    }

    #[test]
    fn every_record_kind_roundtrips_bit_exactly() {
        for (i, record) in sample_records().into_iter().enumerate() {
            let lsn = (i + 1) as u64;
            let frame = encode_frame(lsn, &record);
            let (decoded, len) = decode_frames(&frame);
            assert_eq!(len, frame.len());
            assert_eq!(decoded, vec![(lsn, record)]);
        }
    }

    #[test]
    fn torn_tail_is_skipped_at_every_cut() {
        let mut bytes = Vec::new();
        for (i, record) in sample_records().into_iter().enumerate() {
            bytes.extend_from_slice(&encode_frame((i + 1) as u64, &record));
        }
        let (all, full_len) = decode_frames(&bytes);
        assert_eq!(all.len(), 6);
        assert_eq!(full_len, bytes.len());
        // Every possible truncation decodes to a clean prefix.
        for cut in 0..bytes.len() {
            let (records, valid) = decode_frames(&bytes[..cut]);
            assert!(valid <= cut);
            assert!(records.len() <= all.len());
            assert_eq!(records, all[..records.len()], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_previous_record() {
        let mut bytes = Vec::new();
        let records = sample_records();
        let mut starts = Vec::new();
        for (i, record) in records.iter().enumerate() {
            starts.push(bytes.len());
            bytes.extend_from_slice(&encode_frame((i + 1) as u64, record));
        }
        // Flip one payload byte in record 3 (index 2): records 0–1 survive.
        let mut corrupt = bytes.clone();
        corrupt[starts[2] + FRAME_HEADER + 9] ^= 0x40;
        let (decoded, valid) = decode_frames(&corrupt);
        assert_eq!(decoded.len(), 2);
        assert_eq!(valid, starts[2]);
    }

    #[test]
    fn non_monotonic_lsn_stops_replay() {
        let mut bytes = encode_frame(5, &WalRecord::DropTable { name: "a".into() });
        bytes.extend_from_slice(&encode_frame(5, &WalRecord::DropTable { name: "b".into() }));
        let (decoded, _) = decode_frames(&bytes);
        assert_eq!(decoded.len(), 1);
    }

    #[test]
    fn append_sync_reopen_replays_everything() {
        let dir = temp_dir("roundtrip");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (wal, existing) = Wal::open(&dir, Arc::clone(&vfs), true, 0).unwrap();
        assert!(existing.is_empty());
        let mut lsns = Vec::new();
        for record in sample_records() {
            lsns.push(wal.append(&record).unwrap());
        }
        assert_eq!(lsns, vec![1, 2, 3, 4, 5, 6]);
        wal.sync_to(*lsns.last().unwrap()).unwrap();
        assert_eq!(wal.durable_lsn(), 6);
        drop(wal);

        let (wal2, replayed) = Wal::open(&dir, vfs, true, 0).unwrap();
        assert_eq!(replayed.len(), 6);
        assert_eq!(replayed.iter().map(|(l, _)| *l).collect::<Vec<_>>(), lsns);
        assert_eq!(replayed.into_iter().map(|(_, r)| r).collect::<Vec<_>>(), sample_records());
        // LSNs continue past the replayed tail.
        assert_eq!(wal2.append(&WalRecord::DropTable { name: "t".into() }).unwrap(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_appends_vanish_on_crash() {
        let dir = temp_dir("unsynced");
        let vfs = FaultVfs::counting();
        {
            let (wal, _) = Wal::open(&dir, Arc::new(vfs.clone()) as Arc<dyn Vfs>, true, 0).unwrap();
            wal.append(&WalRecord::DropTable { name: "a".into() }).unwrap();
            wal.sync_all().unwrap();
            wal.append(&WalRecord::DropTable { name: "b".into() }).unwrap();
            // No sync: the append stays in the modelled page cache.
        }
        let (_, replayed) = Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 0).unwrap();
        assert_eq!(replayed.len(), 1, "only the synced record survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_truncates_then_new_appends_replay() {
        let dir = temp_dir("torn-append");
        {
            let (wal, _) = Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 0).unwrap();
            wal.append(&WalRecord::DropTable { name: "a".into() }).unwrap();
            wal.sync_all().unwrap();
        }
        // Crash with a 5-byte torn fragment of the second record: the
        // clean log needs no truncate, so op 0 is open_append and op 1 is
        // the torn append itself.
        {
            let vfs = FaultVfs::crash_torn(1, 5);
            let (wal, replayed) = Wal::open(&dir, Arc::new(vfs) as Arc<dyn Vfs>, true, 0).unwrap();
            assert_eq!(replayed.len(), 1);
            assert!(wal.append(&WalRecord::DropTable { name: "b".into() }).is_err());
        }
        // Recovery truncates the tear; a fresh record then lands cleanly.
        {
            let (wal, replayed) =
                Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 0).unwrap();
            assert_eq!(replayed.len(), 1);
            wal.append(&WalRecord::DropTable { name: "c".into() }).unwrap();
            wal.sync_all().unwrap();
        }
        let (_, replayed) = Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 0).unwrap();
        assert_eq!(
            replayed.iter().map(|(_, r)| r.table().to_string()).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_coalesces_fsyncs() {
        let dir = temp_dir("group");
        let vfs = FaultVfs::counting();
        let (wal, _) = Wal::open(&dir, Arc::new(vfs.clone()) as Arc<dyn Vfs>, true, 0).unwrap();
        let ops_before = vfs.ops();
        let l1 = wal.append(&WalRecord::DropTable { name: "a".into() }).unwrap();
        let l2 = wal.append(&WalRecord::DropTable { name: "b".into() }).unwrap();
        let l3 = wal.append(&WalRecord::DropTable { name: "c".into() }).unwrap();
        wal.sync_to(l3).unwrap();
        let ops_after_one_sync = vfs.ops() - ops_before;
        // One fsync covered l1 and l2 as well: their syncs hit the
        // durable_lsn fast path and issue no vfs ops at all.
        wal.sync_to(l1).unwrap();
        wal.sync_to(l2).unwrap();
        assert_eq!(vfs.ops() - ops_before, ops_after_one_sync);
        assert_eq!(wal.durable_lsn(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_but_lsns_continue() {
        let dir = temp_dir("reset");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (wal, _) = Wal::open(&dir, Arc::clone(&vfs), true, 0).unwrap();
        for name in ["a", "b", "c"] {
            wal.append(&WalRecord::DropTable { name: name.into() }).unwrap();
        }
        let covered = wal.sync_all().unwrap();
        wal.reset(covered).unwrap();
        assert_eq!(wal.records_since_checkpoint(), 0);
        // The fully-covered active segment was swapped for an empty one.
        assert!(!dir.join(segment_file_name(1)).exists());
        assert_eq!(fs::metadata(dir.join(segment_file_name(2))).unwrap().len(), 0);
        let lsn = wal.append(&WalRecord::DropTable { name: "d".into() }).unwrap();
        assert_eq!(lsn, 4, "LSNs never reset");
        wal.sync_to(lsn).unwrap();
        drop(wal);
        // min_next_lsn accounts for the checkpoint that emptied the log.
        let (wal2, replayed) = Wal::open(&dir, vfs, true, 0).unwrap();
        assert_eq!(replayed.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![4]);
        assert_eq!(wal2.append(&WalRecord::DropTable { name: "e".into() }).unwrap(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_carries_records_past_the_covered_lsn() {
        let dir = temp_dir("reset-tail");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (wal, _) = Wal::open(&dir, Arc::clone(&vfs), true, 0).unwrap();
        for name in ["a", "b"] {
            wal.append(&WalRecord::DropTable { name: name.into() }).unwrap();
        }
        let covered = wal.sync_all().unwrap();
        assert_eq!(covered, 2);
        // Records landing after the snapshot was cut (the checkpoint race)
        // must survive the truncation bit-for-bit — even unsynced ones.
        let tail = WalRecord::Insert { name: "t".into(), features: vec![1.5, -2.5], label: 1.0 };
        let l3 = wal.append(&tail).unwrap();
        wal.reset(covered).unwrap();
        assert_eq!(wal.records_since_checkpoint(), 1);
        assert_eq!(wal.durable_lsn(), l3, "reset syncs the carried tail");
        drop(wal);
        // The active segment survives whole (covered records and all);
        // replay hands everything back and the caller skips ≤ covered,
        // exactly as Db::open does against its checkpoint LSN.
        let (wal2, replayed) = Wal::open(&dir, vfs, true, covered + 1).unwrap();
        let fresh: Vec<_> = replayed.into_iter().filter(|(lsn, _)| *lsn > covered).collect();
        assert_eq!(fresh, vec![(l3, tail)]);
        assert_eq!(wal2.records_since_checkpoint(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn min_next_lsn_bridges_an_empty_log() {
        let dir = temp_dir("bridge");
        let (wal, replayed) = Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 42).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(wal.append(&WalRecord::DropTable { name: "a".into() }).unwrap(), 42);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_off_is_a_noop_but_force_still_syncs() {
        let dir = temp_dir("nosync");
        let vfs = FaultVfs::counting();
        let (wal, _) = Wal::open(&dir, Arc::new(vfs.clone()) as Arc<dyn Vfs>, false, 0).unwrap();
        let lsn = wal.append(&WalRecord::DropTable { name: "a".into() }).unwrap();
        let ops = vfs.ops();
        wal.sync_to(lsn).unwrap();
        assert_eq!(vfs.ops(), ops, "sync_to must not touch the vfs with syncing off");
        assert_eq!(wal.durable_lsn(), 0);
        wal.sync_to_force(lsn).unwrap();
        assert_eq!(wal.durable_lsn(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    fn segment_seqs(dir: &Path) -> Vec<u64> {
        let mut seqs: Vec<u64> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().to_str().and_then(parse_segment_seq))
            .collect();
        seqs.sort_unstable();
        seqs
    }

    fn tiny_config() -> WalConfig {
        // Every record overflows 1 byte, so each append seals a segment.
        WalConfig { segment_bytes: 1, ..WalConfig::default() }
    }

    #[test]
    fn appends_rotate_into_numbered_segments_and_replay_in_order() {
        let dir = temp_dir("segments");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (wal, _) = Wal::open_with(&dir, Arc::clone(&vfs), tiny_config()).unwrap();
        for name in ["a", "b", "c", "d"] {
            wal.append(&WalRecord::DropTable { name: name.into() }).unwrap();
        }
        wal.sync_all().unwrap();
        // Four appends, each rotating: segments 1–4 sealed, 5 active/empty.
        assert_eq!(segment_seqs(&dir), vec![1, 2, 3, 4, 5]);
        drop(wal);
        let (wal2, replayed) = Wal::open_with(&dir, vfs, tiny_config()).unwrap();
        assert_eq!(
            replayed.iter().map(|(l, r)| (*l, r.table().to_string())).collect::<Vec<_>>(),
            vec![(1, "a".into()), (2, "b".into()), (3, "c".into()), (4, "d".into())]
        );
        assert_eq!(wal2.append(&WalRecord::DropTable { name: "e".into() }).unwrap(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_segment_discards_every_later_segment() {
        let dir = temp_dir("torn-middle");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (wal, _) = Wal::open_with(&dir, Arc::clone(&vfs), tiny_config()).unwrap();
        for name in ["a", "b", "c"] {
            wal.append(&WalRecord::DropTable { name: name.into() }).unwrap();
        }
        wal.sync_all().unwrap();
        drop(wal);
        // Corrupt segment 2 mid-frame: replay keeps "a", truncates the
        // tear, and deletes segments 3 and 4 wholesale.
        let seg2 = dir.join(segment_file_name(2));
        let mut bytes = fs::read(&seg2).unwrap();
        let cut = bytes.len() - 3;
        bytes.truncate(cut);
        fs::write(&seg2, &bytes).unwrap();
        let (wal2, replayed) = Wal::open_with(&dir, Arc::clone(&vfs), tiny_config()).unwrap();
        assert_eq!(
            replayed.iter().map(|(_, r)| r.table().to_string()).collect::<Vec<_>>(),
            vec!["a"]
        );
        assert_eq!(segment_seqs(&dir), vec![1, 2], "later segments deleted");
        // Appends continue from the surviving prefix.
        assert_eq!(wal2.append(&WalRecord::DropTable { name: "x".into() }).unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_single_file_log_migrates_to_segment_one() {
        let dir = temp_dir("legacy");
        let mut bytes = Vec::new();
        for (i, record) in sample_records().into_iter().enumerate() {
            bytes.extend_from_slice(&encode_frame((i + 1) as u64, &record));
        }
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let (wal, replayed) = Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 0).unwrap();
        assert_eq!(replayed.len(), 6);
        assert!(!dir.join(WAL_FILE).exists(), "legacy file renamed away");
        assert_eq!(segment_seqs(&dir), vec![1]);
        assert_eq!(wal.append(&WalRecord::DropTable { name: "t".into() }).unwrap(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_deletes_covered_segments_and_keeps_the_rest() {
        let dir = temp_dir("reset-segments");
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (wal, _) = Wal::open_with(&dir, Arc::clone(&vfs), tiny_config()).unwrap();
        for name in ["a", "b", "c", "d"] {
            wal.append(&WalRecord::DropTable { name: name.into() }).unwrap();
        }
        wal.sync_all().unwrap();
        // Checkpoint at LSN 2: segments 1 and 2 are covered and deleted;
        // 3 and 4 hold live records and stay.
        wal.reset(2).unwrap();
        assert_eq!(segment_seqs(&dir), vec![3, 4, 5]);
        assert_eq!(wal.records_since_checkpoint(), 2);
        drop(wal);
        let (_, replayed) = Wal::open_with(&dir, vfs, tiny_config()).unwrap();
        assert_eq!(
            replayed.iter().map(|(_, r)| r.table().to_string()).collect::<Vec<_>>(),
            vec!["c", "d"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_window_preserves_acked_durability_at_every_setting() {
        for window_us in [0u64, 200, 2_000] {
            let dir = temp_dir(&format!("window-{window_us}"));
            let vfs = FaultVfs::counting();
            let config =
                WalConfig { sync_window: Duration::from_micros(window_us), ..WalConfig::default() };
            let (wal, _) =
                Wal::open_with(&dir, Arc::new(vfs.clone()) as Arc<dyn Vfs>, config).unwrap();
            let lsn = wal.append(&WalRecord::DropTable { name: "a".into() }).unwrap();
            wal.sync_to(lsn).unwrap();
            assert!(wal.durable_lsn() >= lsn, "sync_to returned ⇒ lsn durable");
            wal.append(&WalRecord::DropTable { name: "b".into() }).unwrap();
            // Crash (drop without sync): the unacked append must vanish,
            // the acked one must survive — at every window setting.
            drop(wal);
            let (_, replayed) = Wal::open(&dir, Arc::new(StdVfs) as Arc<dyn Vfs>, true, 0).unwrap();
            assert_eq!(
                replayed.iter().map(|(_, r)| r.table().to_string()).collect::<Vec<_>>(),
                vec!["a"],
                "window={window_us}µs"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sync_window_coalesces_concurrent_committers() {
        let dir = temp_dir("window-group");
        let vfs = FaultVfs::counting();
        let config = WalConfig { sync_window: Duration::from_millis(20), ..WalConfig::default() };
        let (wal, _) = Wal::open_with(&dir, Arc::new(vfs.clone()) as Arc<dyn Vfs>, config).unwrap();
        let wal = Arc::new(wal);
        let ops_before = vfs.ops();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    let lsn = wal.append(&WalRecord::DropTable { name: format!("t{i}") }).unwrap();
                    wal.sync_to(lsn).unwrap();
                    lsn
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_lsn(), 4);
        // 4 appends + fsyncs: without coalescing that is 8 ops; the window
        // lets late committers ride the first fsync (and its 20 ms linger
        // dwarfs thread-spawn skew, so at least one rides along).
        assert!(vfs.ops() - ops_before < 8, "expected coalescing, got {}", vfs.ops() - ops_before);
        let _ = fs::remove_dir_all(&dir);
    }
}
