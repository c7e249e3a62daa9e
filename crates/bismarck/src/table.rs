//! Tables: a schema (feature dimensionality) over a paged heap, with the
//! `ORDER BY RANDOM()` shuffle the Bismarck architecture performs before
//! training (Figure 1).
//!
//! A table implements [`bolton_sgd::TrainSet`], so the SGD engine and every
//! private algorithm run against it unchanged — that interchangeability *is*
//! the bolt-on integration story.
//!
//! # The read path: borrow the page, visit rows in place
//!
//! Every read — `read_row`, `scan_rows`/`scan_range`, the ordered
//! `TrainSet::scan_order` behind SQL `TRAIN`, `EVAL`, `CHECKPOINT`'s
//! copy-out — is one primitive: borrow page `pid` and hand the visitor each
//! row as a `&[f64]` lying in the page itself ([`Page::row`]); nothing is
//! decoded or copied. Where the page comes from follows from the [`Backing`]:
//!
//! * **Memory** — the table owns its `MemHeap` and borrows pages straight
//!   out of it: no pool, no latch. Every mutation takes `&mut Table` (the
//!   `Db` hands that out under the table's write lock), so pages cannot
//!   change under a reader, and a cache in front of pages already in RAM
//!   would only be a second copy.
//! * **TempFile / File** — a clock [`BufferPool`] behind a mutex (the
//!   *latch*), held just long enough to [`pin`](BufferPool::pin) the page.
//!   Rows are visited from the pin, whose bytes stay valid and unchanged
//!   whatever the pool does next: scans latch once per same-page run, never
//!   per row and never across a `visit` callback, so visitors may re-scan
//!   the table, sessions interleave per page, and no scan sees a torn page.

use crate::buffer::{BufferPool, PoolStats};
use crate::error::{DbError, DbResult};
use crate::heap::{Backing, HeapStorage, MemHeap};
use crate::page::Page;
use bolton_rng::Rng;
use bolton_sgd::chunked::ChunkedRows;
use bolton_sgd::TrainSet;
use std::sync::Mutex;

/// Default buffer-pool frames of a file-backed table (256 × 8 KiB = 2 MiB).
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Where a table's pages live (module docs): owned and read in place, or
/// in a file behind the pool latch and read through pins.
enum Heap {
    Memory(MemHeap),
    Pooled(Mutex<BufferPool>),
}

/// A table of `(features[dim], label)` rows.
pub struct Table {
    name: String,
    dim: usize,
    rows: usize,
    backing: Backing,
    heap: Heap,
    /// Highest WAL LSN applied to this table (0 = none / not durable).
    /// Maintained by the durability layer in `db.rs`; recovery uses it to
    /// know where replay left the table.
    last_lsn: u64,
}

impl Table {
    /// Creates an empty table. `pool_pages` sizes the buffer pool of a
    /// file-backed table; a `Backing::Memory` table has no pool.
    ///
    /// # Errors
    /// Propagates storage-open failures.
    ///
    /// # Panics
    /// Panics if `dim == 0`, a row would not fit in one page, or a
    /// file-backed table is given `pool_pages == 0`.
    pub fn create(
        name: impl Into<String>,
        dim: usize,
        backing: Backing,
        pool_pages: usize,
    ) -> DbResult<Self> {
        assert!(dim > 0, "tables need at least one feature column");
        assert!(Page::rows_per_page(dim) > 0, "row of dim {dim} does not fit in a page");
        let heap = match backing {
            Backing::Memory => Heap::Memory(MemHeap::new()),
            _ => Heap::Pooled(Mutex::new(BufferPool::new(backing.open()?, pool_pages))),
        };
        Ok(Self { name: name.into(), dim, rows: 0, backing, heap, last_lsn: 0 })
    }

    /// Convenience: an in-memory table.
    pub fn in_memory(name: impl Into<String>, dim: usize) -> Self {
        Self::create(name, dim, Backing::Memory, DEFAULT_POOL_PAGES)
            .expect("in-memory table creation cannot fail")
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The backing kind this table was created with.
    pub fn backing(&self) -> &Backing {
        &self.backing
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// The pool of a file-backed table, latched; `None` for a memory table.
    fn pool(&self) -> Option<std::sync::MutexGuard<'_, BufferPool>> {
        match &self.heap {
            Heap::Memory(_) => None,
            Heap::Pooled(pool) => Some(pool.lock().expect("pool latch")),
        }
    }

    /// Buffer-pool statistics (all zero for a memory table: it has no pool).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool().map(|p| p.stats()).unwrap_or_default()
    }

    /// Resets buffer-pool statistics.
    pub fn reset_pool_stats(&self) {
        if let Some(mut pool) = self.pool() {
            pool.reset_stats();
        }
    }

    /// Storage description (backing, and the pool if there is one).
    pub fn describe(&self) -> String {
        let storage = match &self.heap {
            Heap::Memory(heap) => heap.describe(),
            Heap::Pooled(pool) => pool.lock().expect("pool latch").describe(),
        };
        format!("table '{}' dim={} rows={} [{storage}]", self.name, self.dim, self.rows)
    }

    /// Inserts one row.
    ///
    /// # Errors
    /// [`DbError::SchemaMismatch`] if `features.len() != dim`.
    pub fn insert(&mut self, features: &[f64], label: f64) -> DbResult<()> {
        if features.len() != self.dim {
            return Err(DbError::SchemaMismatch { expected: self.dim, got: features.len() });
        }
        // Rows pack densely, so the next row's page follows from the count.
        let pid = self.rows / Page::rows_per_page(self.dim);
        match &mut self.heap {
            Heap::Memory(heap) => {
                if pid == heap.page_count() {
                    heap.append_page(&Page::new())?;
                }
                heap.page_mut(pid)?.push_row(features, label)?;
            }
            Heap::Pooled(pool) => {
                let pool = pool.get_mut().expect("pool latch");
                if pid == pool.page_count() {
                    pool.append_page(&Page::new())?;
                }
                pool.with_page_mut(pid, |p| p.push_row(features, label))??;
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Inserts one row and stamps it with the WAL position `lsn` — both
    /// the table-level watermark and the touched page's frame. The
    /// durability layer calls this so every applied change carries the
    /// log position that justifies it.
    ///
    /// # Errors
    /// [`DbError::SchemaMismatch`] if `features.len() != dim`.
    pub fn insert_at_lsn(&mut self, features: &[f64], label: f64, lsn: u64) -> DbResult<()> {
        self.insert(features, label)?;
        self.note_lsn(lsn);
        Ok(())
    }

    /// Records that this table's state now reflects WAL position `lsn`,
    /// stamping the tail page's frame for the dirty-page bookkeeping.
    pub fn note_lsn(&mut self, lsn: u64) {
        self.last_lsn = self.last_lsn.max(lsn);
        if let (Heap::Pooled(pool), Some(last)) = (&mut self.heap, self.rows.checked_sub(1)) {
            let tail_pid = last / Page::rows_per_page(self.dim);
            pool.get_mut().expect("pool latch").stamp_lsn(tail_pid, lsn);
        }
    }

    /// Highest WAL LSN applied to this table (0 = none recorded).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Bulk insert from an iterator of `(features, label)` rows.
    pub fn insert_all<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a [f64], f64)>,
    ) -> DbResult<()> {
        for (x, y) in rows {
            self.insert(x, y)?;
        }
        Ok(())
    }

    fn locate(&self, rid: usize) -> DbResult<(usize, usize)> {
        if rid >= self.rows {
            return Err(DbError::RowOutOfBounds { rid, rows: self.rows });
        }
        let rpp = Page::rows_per_page(self.dim);
        Ok((rid / rpp, rid % rpp))
    }

    /// The one read primitive: borrows page `pid` and runs `f` on it with
    /// no latch held (see the module docs).
    fn with_page<T>(&self, pid: usize, f: impl FnOnce(&Page) -> DbResult<T>) -> DbResult<T> {
        match &self.heap {
            Heap::Memory(heap) => f(heap.page(pid)?),
            Heap::Pooled(pool) => {
                // The guard is a temporary: the latch is released before `f`.
                let page = pool.lock().expect("pool latch").pin(pid)?;
                f(&page)
            }
        }
    }

    /// Reads row `rid` into `features_out`, returning the label.
    ///
    /// # Errors
    /// [`DbError::RowOutOfBounds`] for a bad row id.
    ///
    /// # Panics
    /// Panics if `features_out.len() != dim`.
    pub fn read_row(&self, rid: usize, features_out: &mut [f64]) -> DbResult<f64> {
        assert_eq!(features_out.len(), self.dim, "output buffer dimension mismatch");
        let (pid, slot) = self.locate(rid)?;
        self.with_page(pid, |p| {
            let (x, y) = p.row(slot, self.dim)?;
            features_out.copy_from_slice(x);
            Ok(y)
        })
    }

    /// Sequential full scan: `visit(rid, features, label)` per row, the
    /// features borrowed in place from the row's page.
    ///
    /// This is the access path of one Bismarck epoch: pages stream through
    /// the pool in order, so a pool far smaller than the table still scans
    /// at full speed. No latch is held while `visit` runs, so callbacks may
    /// themselves scan the table.
    pub fn scan_rows(&self, visit: &mut dyn FnMut(usize, &[f64], f64)) -> DbResult<()> {
        self.scan_range(0, self.rows, visit)
    }

    /// [`Table::scan_rows`] over the row range `[lo, hi)` — the shard
    /// shape parallel batch scoring fans out; a file-backed table latches
    /// and pins once per page, not per row.
    ///
    /// # Errors
    /// Propagates storage errors.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > row_count()`.
    pub fn scan_range(
        &self,
        lo: usize,
        hi: usize,
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) -> DbResult<()> {
        assert!(lo <= hi && hi <= self.rows, "range [{lo}, {hi}) out of {} rows", self.rows);
        if lo == hi {
            return Ok(());
        }
        let rpp = Page::rows_per_page(self.dim);
        for pid in (lo / rpp)..=((hi - 1) / rpp) {
            let page_base = pid * rpp;
            let slots = lo.saturating_sub(page_base)..(hi - page_base).min(rpp);
            self.with_page(pid, |p| {
                for slot in slots {
                    let (x, y) = p.row(slot, self.dim)?;
                    visit(page_base + slot, x, y);
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Rewrites the table in a uniformly random order — the engine-level
    /// equivalent of `SELECT * ... ORDER BY RANDOM()` that Bismarck issues
    /// before SGD. Returns the number of rows moved.
    ///
    /// The shuffled copy uses the same backing kind (a fresh temp file for
    /// disk tables) and replaces this table's heap atomically on success.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) -> DbResult<usize> {
        let order = bolton_rng::random_permutation(rng, self.rows);
        let backing = match &self.backing {
            Backing::Memory => Backing::Memory,
            // Named files shuffle into a temp file too: the original path
            // keeps the pre-shuffle data (mirrors CREATE TABLE AS SELECT).
            Backing::TempFile | Backing::File(_) => Backing::TempFile,
        };
        let pool_pages = self.pool().map_or(DEFAULT_POOL_PAGES, |p| p.capacity());
        let mut shuffled = Table::create(self.name.clone(), self.dim, backing, pool_pages)?;
        let mut buf = vec![0.0; self.dim];
        for &rid in &order {
            let label = self.read_row(rid, &mut buf)?;
            shuffled.insert(&buf, label)?;
        }
        shuffled.flush()?;
        let moved = shuffled.rows;
        // The rebuilt table holds the same logical state: keep the LSN
        // watermark rather than resetting it to "never logged".
        shuffled.last_lsn = self.last_lsn;
        *self = shuffled;
        Ok(moved)
    }

    /// Flushes dirty pages to storage (nothing to do for a memory table).
    pub fn flush(&self) -> DbResult<()> {
        self.pool().map_or(Ok(()), |mut p| p.flush())
    }

    /// Flushes dirty pages and fsyncs the heap — used by checkpoints on
    /// named-file tables so the heap file itself is never behind the
    /// snapshot taken from it.
    pub fn flush_durable(&self) -> DbResult<()> {
        self.pool().map_or(Ok(()), |mut p| p.flush_and_sync())
    }

    /// Highest LSN still sitting on a dirty (unflushed) page frame.
    pub fn max_dirty_lsn(&self) -> u64 {
        self.pool().map_or(0, |p| p.max_dirty_lsn())
    }
}

impl ChunkedRows for Table {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn chunk_len(&self) -> usize {
        // A table chunk *is* a heap page: each same-page run of an ordered
        // scan borrows its page once, so scans under a chunk-local
        // permutation stream pages exactly like the sequential Bismarck
        // epoch.
        Page::rows_per_page(self.dim)
    }

    fn visit_chunk_rows(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) {
        self.with_page(chunk, |p| {
            for (k, &slot) in locals.iter().enumerate() {
                let (x, y) = p.row(slot, self.dim)?;
                visit(k, x, y);
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("scan_order: page {chunk}: {e}"));
    }
}

impl TrainSet for Table {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn scan_order(&self, order: &[usize], visit: &mut dyn FnMut(usize, &[f64], f64)) {
        bolton_sgd::chunked::scan_order(self, order, visit);
    }

    fn scan(&self, visit: &mut dyn FnMut(usize, &[f64], f64)) {
        self.scan_rows(visit).unwrap_or_else(|e| panic!("scan: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(backing: Backing, pool_pages: usize, rows: usize, dim: usize) -> Table {
        let mut t = Table::create("t", dim, backing, pool_pages).unwrap();
        for i in 0..rows {
            let x: Vec<f64> = (0..dim).map(|j| (i * dim + j) as f64).collect();
            t.insert(&x, if i % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
        }
        t
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let t = filled(Backing::Memory, 8, 100, 3);
        assert_eq!(t.row_count(), 100);
        let mut buf = vec![0.0; 3];
        let label = t.read_row(17, &mut buf).unwrap();
        assert_eq!(buf, vec![51.0, 52.0, 53.0]);
        assert_eq!(label, -1.0);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut t = Table::in_memory("t", 3);
        assert!(matches!(
            t.insert(&[1.0], 1.0),
            Err(DbError::SchemaMismatch { expected: 3, got: 1 })
        ));
    }

    #[test]
    fn scan_visits_all_rows_in_order() {
        let t = filled(Backing::Memory, 8, 250, 2);
        let mut rids = Vec::new();
        t.scan_rows(&mut |rid, x, _| {
            assert_eq!(x[0], (rid * 2) as f64);
            rids.push(rid);
        })
        .unwrap();
        assert_eq!(rids, (0..250).collect::<Vec<_>>());
    }

    #[test]
    fn larger_than_memory_scan_is_correct() {
        // dim=100 ⇒ 10 rows/page; 500 rows = 50 pages; pool of 3 frames.
        let t = filled(Backing::TempFile, 3, 500, 100);
        let mut count = 0usize;
        t.scan_rows(&mut |rid, x, _| {
            assert_eq!(x[5], (rid * 100 + 5) as f64);
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 500);
        let stats = t.pool_stats();
        assert!(stats.evictions > 0, "pool must have evicted: {stats:?}");
    }

    #[test]
    fn random_access_matches_sequential() {
        let t = filled(Backing::TempFile, 4, 200, 10);
        let mut via_scan = vec![0.0; 200];
        t.scan_rows(&mut |rid, x, _| via_scan[rid] = x[0]).unwrap();
        let mut buf = vec![0.0; 10];
        for rid in [0, 7, 199, 42, 100] {
            t.read_row(rid, &mut buf).unwrap();
            assert_eq!(buf[0], via_scan[rid]);
        }
    }

    #[test]
    fn shuffle_is_a_permutation_of_rows() {
        let mut t = filled(Backing::Memory, 16, 300, 2);
        let mut before: Vec<f64> = Vec::new();
        t.scan_rows(&mut |_, x, _| before.push(x[0])).unwrap();
        let mut rng = bolton_rng::seeded(101);
        let moved = t.shuffle(&mut rng).unwrap();
        assert_eq!(moved, 300);
        let mut after: Vec<f64> = Vec::new();
        t.scan_rows(&mut |_, x, _| after.push(x[0])).unwrap();
        assert_ne!(before, after, "shuffle should change the order");
        let mut b = before.clone();
        let mut a = after.clone();
        b.sort_by(|p, q| p.partial_cmp(q).unwrap());
        a.sort_by(|p, q| p.partial_cmp(q).unwrap());
        assert_eq!(a, b, "shuffle must preserve the multiset of rows");
    }

    #[test]
    fn shuffle_disk_table() {
        let mut t = filled(Backing::TempFile, 3, 120, 40);
        let mut rng = bolton_rng::seeded(102);
        t.shuffle(&mut rng).unwrap();
        assert_eq!(t.row_count(), 120);
        let mut sum = 0.0;
        t.scan_rows(&mut |_, x, _| sum += x[0]).unwrap();
        // Sum of first-coordinates is invariant: Σ i·40 for i in 0..120.
        let expect: f64 = (0..120).map(|i| (i * 40) as f64).sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn trainset_impl_agrees_with_table_api() {
        let t = filled(Backing::Memory, 8, 50, 4);
        assert_eq!(TrainSet::len(&t), 50);
        assert_eq!(TrainSet::dim(&t), 4);
        let mut seen = Vec::new();
        t.scan_order(&[10, 0, 49], &mut |pos, x, _| seen.push((pos, x[0])));
        assert_eq!(seen, vec![(0, 40.0), (1, 0.0), (2, 196.0)]);
    }

    /// An ordered scan under the chunk-local permutation streams pages:
    /// even a 2-frame pool over a 50-page table misses each page only once
    /// per scan — the out-of-core access pattern Figure 2b needs.
    #[test]
    fn chunk_local_ordered_scan_streams_pages() {
        // dim=100 ⇒ 10 rows/page; 500 rows = 50 pages; pool of 2 frames.
        let t = filled(Backing::TempFile, 2, 500, 100);
        let rpp = ChunkedRows::chunk_len(&t);
        assert_eq!(rpp, 10);
        t.reset_pool_stats();
        let order = bolton_rng::chunked_permutation(&mut bolton_rng::seeded(77), 500, rpp);
        let mut count = 0usize;
        t.scan_order(&order, &mut |pos, x, _| {
            assert_eq!(x[0], (order[pos] * 100) as f64);
            count += 1;
        });
        assert_eq!(count, 500);
        let stats = t.pool_stats();
        assert_eq!(stats.misses, 50, "one fetch per page expected: {stats:?}");
    }

    /// scan_range visits exactly `[lo, hi)` for ranges that start/end
    /// mid-page, cover whole pages, or are empty — and agrees with the
    /// full scan.
    #[test]
    fn scan_range_matches_full_scan() {
        // dim=100 ⇒ 10 rows/page; 47 rows = 4 full pages + a 7-row tail.
        let t = filled(Backing::TempFile, 3, 47, 100);
        let mut full = Vec::new();
        t.scan_rows(&mut |rid, x, y| full.push((rid, x[0], y))).unwrap();
        for (lo, hi) in [(0, 47), (3, 17), (10, 20), (9, 11), (40, 47), (46, 47), (5, 5)] {
            let mut got = Vec::new();
            t.scan_range(lo, hi, &mut |rid, x, y| got.push((rid, x[0], y))).unwrap();
            assert_eq!(got, full[lo..hi], "range [{lo}, {hi})");
        }
    }

    #[test]
    #[should_panic(expected = "out of 10 rows")]
    fn scan_range_bounds_checked() {
        let t = filled(Backing::Memory, 4, 10, 2);
        let _ = t.scan_range(0, 11, &mut |_, _, _| {});
    }

    #[test]
    fn lsn_watermark_tracks_inserts_and_survives_shuffle() {
        // File-backed: only a pooled table has dirty frames to stamp.
        let mut t = Table::create("t", 2, Backing::TempFile, 4).unwrap();
        assert_eq!(t.last_lsn(), 0);
        t.insert_at_lsn(&[1.0, 2.0], 1.0, 5).unwrap();
        t.insert_at_lsn(&[3.0, 4.0], -1.0, 9).unwrap();
        assert_eq!(t.last_lsn(), 9);
        assert_eq!(t.max_dirty_lsn(), 9);
        t.flush_durable().unwrap();
        assert_eq!(t.max_dirty_lsn(), 0, "flushed frames carry no dirty LSN");
        assert_eq!(t.last_lsn(), 9, "the table watermark is not reset by a flush");
        let mut rng = bolton_rng::seeded(7);
        t.shuffle(&mut rng).unwrap();
        assert_eq!(t.last_lsn(), 9, "shuffle preserves the watermark");
        // A stale stamp never regresses the watermark.
        t.note_lsn(3);
        assert_eq!(t.last_lsn(), 9);
    }

    /// A 1-frame DISK table: every pin of another page reclaims the frame
    /// an outer scan is still reading from. A `scan_order` visitor that
    /// re-scans the table (reentrancy: no latch is held across `visit`)
    /// still sees its own row intact afterwards, and two threads scanning
    /// concurrently both finish with every row correct.
    #[test]
    fn one_frame_disk_table_scans_reentrantly_and_concurrently() {
        // dim=100 ⇒ 10 rows/page; 60 rows = 6 pages through 1 frame.
        let (n, dim) = (60, 100);
        let t = filled(Backing::TempFile, 1, n, dim);
        let row_ok =
            |rid: usize, x: &[f64]| x.iter().enumerate().all(|(j, &v)| v == (rid * dim + j) as f64);
        let order = bolton_rng::random_permutation(&mut bolton_rng::seeded(5), n);

        let mut outer = 0usize;
        t.scan_order(&order, &mut |pos, x, _| {
            let mut inner = 0usize;
            t.scan_order(&order, &mut |ipos, ix, _| {
                assert!(row_ok(order[ipos], ix), "inner row {}", order[ipos]);
                inner += 1;
            });
            assert_eq!(inner, n);
            assert!(row_ok(order[pos], x), "outer row {} changed under the inner scan", order[pos]);
            outer += 1;
        });
        assert_eq!(outer, n);
        assert!(t.pool_stats().evictions > 0, "the scans must fight over the frame");

        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        let mut seen = 0usize;
                        t.scan_order(&order, &mut |pos, x, _| {
                            assert!(row_ok(order[pos], x), "torn row {}", order[pos]);
                            seen += 1;
                        });
                        assert_eq!(seen, n);
                    }
                });
            }
        });
    }

    /// A memory table has no pool: its counters stay zero however it is
    /// read, the dirty-frame bookkeeping is empty, and `describe()` says
    /// so — while a file-backed table still reports its pool.
    #[test]
    fn memory_table_has_no_pool() {
        let t = filled(Backing::Memory, 8, 500, 10);
        t.scan_rows(&mut |_, _, _| {}).unwrap();
        t.scan_order(&[499, 0, 250], &mut |_, _, _| {});
        let mut buf = vec![0.0; 10];
        t.read_row(42, &mut buf).unwrap();
        t.reset_pool_stats();
        assert_eq!(t.pool_stats(), PoolStats::default());
        assert_eq!(t.max_dirty_lsn(), 0);
        t.flush_durable().unwrap();
        assert_eq!(t.describe(), "table 't' dim=10 rows=500 [memory (6 pages)]");

        let disk = filled(Backing::TempFile, 8, 500, 10);
        assert!(disk.describe().ends_with("(6 pages) via 8-frame pool]"), "{}", disk.describe());
        assert!(disk.pool_stats().hits > 0);
    }

    #[test]
    fn row_out_of_bounds() {
        let t = filled(Backing::Memory, 4, 10, 2);
        let mut buf = vec![0.0; 2];
        assert!(matches!(t.read_row(10, &mut buf), Err(DbError::RowOutOfBounds { .. })));
    }

    #[test]
    fn pool_stats_reflect_locality() {
        let t = filled(Backing::TempFile, 64, 1000, 10);
        t.reset_pool_stats();
        t.scan_rows(&mut |_, _, _| {}).unwrap();
        let stats = t.pool_stats();
        // 1000 rows at 203 rows/page (dim=10 ⇒ 88-byte rows) is 5 pages;
        // with 64 frames everything fits: sequential scan re-hits each page.
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert!(stats.hits > 0);
    }
}
