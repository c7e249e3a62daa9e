//! Fixed-size pages holding fixed-width training rows.
//!
//! A row is `dim` feature doubles followed by one label double, serialized
//! little-endian. The page header stores the row count; rows pack densely
//! after it. Fixed-width rows keep the row-id ↔ (page, slot) mapping a pure
//! arithmetic function, which the permuted scans rely on.
//!
//! The buffer is 8-byte aligned and the header and every row are multiples
//! of 8 bytes, so [`Page::row`] lends a row out as a `&[f64]` lying in the
//! page itself — the read path of every table scan — with nothing decoded.

use crate::error::{DbError, DbResult};

/// Page size in bytes (PostgreSQL's default, which Bismarck runs on).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the head of each page (row count + padding).
pub const PAGE_HEADER: usize = 8;

/// The page bytes, aligned so they can be read in place as `f64`s.
#[derive(Clone)]
#[repr(C, align(8))]
struct PageBuf([u8; PAGE_SIZE]);

// What the in-place view relies on: rows start on 8-byte boundaries of an
// 8-aligned buffer that is a whole number of doubles (`row_bytes` is
// `8·(dim+1)`; one value pins it), and — as for `bolton_data::mmap` — the
// stored little-endian doubles are the target's native ones.
const _: () = assert!(
    PAGE_HEADER.is_multiple_of(8)
        && Page::row_bytes(1).is_multiple_of(8)
        && std::mem::align_of::<PageBuf>().is_multiple_of(8)
        && std::mem::size_of::<PageBuf>() == PAGE_SIZE
        && cfg!(target_endian = "little")
);

/// One 8 KiB page.
#[derive(Clone)]
pub struct Page {
    data: Box<PageBuf>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page").field("rows", &self.row_count()).finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh empty page.
    pub fn new() -> Self {
        Self { data: Box::new(PageBuf([0u8; PAGE_SIZE])) }
    }

    /// Bytes one row occupies for a `dim`-feature schema (saturating, so
    /// an absurd `dim` yields a row no page can hold rather than wrapping).
    pub const fn row_bytes(dim: usize) -> usize {
        dim.saturating_add(1).saturating_mul(8)
    }

    /// Rows a page can hold for a `dim`-feature schema.
    pub const fn rows_per_page(dim: usize) -> usize {
        (PAGE_SIZE - PAGE_HEADER) / Self::row_bytes(dim)
    }

    /// Number of rows currently stored.
    pub fn row_count(&self) -> usize {
        let d = &self.data.0;
        u32::from_le_bytes([d[0], d[1], d[2], d[3]]) as usize
    }

    fn set_row_count(&mut self, n: usize) {
        self.data.0[0..4].copy_from_slice(&(n as u32).to_le_bytes());
    }

    /// Whether a row of the given schema still fits.
    pub fn has_room(&self, dim: usize) -> bool {
        self.row_count() < Self::rows_per_page(dim)
    }

    /// Appends a row. Returns the slot index.
    ///
    /// # Errors
    /// [`DbError::RowTooLarge`] if even an empty page cannot hold the row;
    /// [`DbError::SlotOutOfBounds`] if the page is full.
    pub fn push_row(&mut self, features: &[f64], label: f64) -> DbResult<usize> {
        let dim = features.len();
        let capacity = Self::rows_per_page(dim);
        if capacity == 0 {
            return Err(DbError::RowTooLarge { dim });
        }
        let slot = self.row_count();
        if slot >= capacity {
            return Err(DbError::SlotOutOfBounds { slot, rows: capacity });
        }
        let mut offset = PAGE_HEADER + slot * Self::row_bytes(dim);
        for &v in features {
            self.data.0[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
            offset += 8;
        }
        self.data.0[offset..offset + 8].copy_from_slice(&label.to_le_bytes());
        self.set_row_count(slot + 1);
        Ok(slot)
    }

    /// The whole page as doubles (word 0 is the header).
    fn f64s(&self) -> &[f64; PAGE_SIZE / 8] {
        // SAFETY: `PageBuf` is exactly `PAGE_SIZE` bytes at 8-byte alignment
        // (const assertion above), every bit pattern is a valid `f64`, and
        // the view borrows `self`, so the bytes cannot change while it lives.
        unsafe { &*(self.data.0.as_ptr() as *const [f64; PAGE_SIZE / 8]) }
    }

    /// Byte offset of the `dim`-feature row at `slot`. Pages are schema-less
    /// bytes: checking `slot` against both the stored count and what fits
    /// keeps a wrong `dim` (or a corrupt count) inside the page.
    fn row_offset(&self, slot: usize, dim: usize) -> DbResult<usize> {
        let rows = self.row_count().min(Self::rows_per_page(dim));
        if slot >= rows {
            return Err(DbError::SlotOutOfBounds { slot, rows });
        }
        Ok(PAGE_HEADER + slot * Self::row_bytes(dim))
    }

    /// Borrows the row at `slot` in place: `(features, label)`.
    ///
    /// # Errors
    /// [`DbError::SlotOutOfBounds`] if `slot` is past the stored row count
    /// or a `dim`-feature row at `slot` would not lie inside the page.
    pub fn row(&self, slot: usize, dim: usize) -> DbResult<(&[f64], f64)> {
        let start = self.row_offset(slot, dim)? / 8;
        let row = &self.f64s()[start..start + dim + 1];
        Ok((&row[..dim], row[dim]))
    }

    /// Decodes the row at `slot` into `features_out`, returning the label:
    /// the byte-by-byte reference [`Page::row`] is tested against.
    ///
    /// # Errors
    /// [`DbError::SlotOutOfBounds`] under the same rule as [`Page::row`],
    /// with `dim = features_out.len()`.
    pub fn read_row(&self, slot: usize, features_out: &mut [f64]) -> DbResult<f64> {
        let mut offset = self.row_offset(slot, features_out.len())?;
        let mut next = || {
            let bytes = self.data.0[offset..offset + 8].try_into().expect("8-byte slice");
            offset += 8;
            f64::from_le_bytes(bytes)
        };
        features_out.iter_mut().for_each(|v| *v = next());
        Ok(next())
    }

    /// Resets the page to empty (bytes retained, count zeroed).
    pub fn clear(&mut self) {
        self.set_row_count(0);
    }

    /// Raw bytes (for the heap file).
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data.0
    }

    /// Mutable raw bytes (for the heap file).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_capacity_math() {
        // dim=50: row = 408 bytes; (8192-8)/408 = 20 rows.
        assert_eq!(Page::row_bytes(50), 408);
        assert_eq!(Page::rows_per_page(50), 20);
        // Degenerate: a row wider than a page.
        assert_eq!(Page::rows_per_page(2000), 0);
    }

    #[test]
    fn push_then_read_roundtrip() {
        let mut page = Page::new();
        let rows = [
            (vec![1.0, -2.5, 3.25], 1.0),
            (vec![0.0, 0.5, -0.5], -1.0),
            (vec![f64::MIN_POSITIVE, 1e300, -1e-300], 1.0),
        ];
        for (i, (x, y)) in rows.iter().enumerate() {
            assert_eq!(page.push_row(x, *y).unwrap(), i);
        }
        assert_eq!(page.row_count(), 3);
        let mut buf = vec![0.0; 3];
        for (i, (x, y)) in rows.iter().enumerate() {
            let label = page.read_row(i, &mut buf).unwrap();
            assert_eq!(&buf, x);
            assert_eq!(label, *y);
        }
    }

    #[test]
    fn page_fills_to_exact_capacity() {
        let dim = 100;
        let cap = Page::rows_per_page(dim);
        let mut page = Page::new();
        let x = vec![0.25; dim];
        for _ in 0..cap {
            page.push_row(&x, 1.0).unwrap();
        }
        assert!(matches!(page.push_row(&x, 1.0), Err(DbError::SlotOutOfBounds { .. })));
    }

    #[test]
    fn oversized_row_is_rejected() {
        let mut page = Page::new();
        let x = vec![0.0; 2000];
        assert!(matches!(page.push_row(&x, 1.0), Err(DbError::RowTooLarge { .. })));
    }

    #[test]
    fn read_bad_slot_fails() {
        let page = Page::new();
        let mut buf = vec![0.0; 2];
        assert!(matches!(page.read_row(0, &mut buf), Err(DbError::SlotOutOfBounds { .. })));
    }

    /// Pages are schema-less: a reader with the wrong `dim` (or an absurd
    /// one) gets `SlotOutOfBounds` for every slot whose bytes would leave
    /// the page — from both the borrowed and the decoding read.
    #[test]
    fn wrong_dim_never_reads_past_the_page() {
        let mut page = Page::new();
        let cap = Page::rows_per_page(1);
        for i in 0..cap {
            page.push_row(&[i as f64], 1.0).unwrap();
        }
        // dim=1022 fits exactly one row per page: slot 0 is in range (it
        // reinterprets the narrow rows' bytes), slot 1 is not.
        assert_eq!(Page::rows_per_page(1022), 1);
        assert!(page.row(0, 1022).is_ok());
        let mut wide = vec![0.0; 1022];
        assert!(page.read_row(0, &mut wide).is_ok());
        for (slot, dim) in [(1, 1022), (cap - 1, 2), (0, 1023), (0, 1 << 40), (0, usize::MAX)] {
            assert!(
                matches!(page.row(slot, dim), Err(DbError::SlotOutOfBounds { .. })),
                "row({slot}, {dim})"
            );
        }
        assert!(matches!(page.read_row(1, &mut wide), Err(DbError::SlotOutOfBounds { .. })));
        let mut too_wide = vec![0.0; 1023];
        assert!(matches!(page.read_row(0, &mut too_wide), Err(DbError::SlotOutOfBounds { .. })));
        // The stored count still bounds a reader with the right schema.
        assert!(matches!(page.row(cap, 1), Err(DbError::SlotOutOfBounds { .. })));
    }

    #[test]
    fn clear_resets_count() {
        let mut page = Page::new();
        page.push_row(&[1.0], 1.0).unwrap();
        page.clear();
        assert_eq!(page.row_count(), 0);
        assert!(page.has_room(1));
    }

    #[test]
    fn bytes_roundtrip_through_copy() {
        let mut page = Page::new();
        page.push_row(&[7.0, 8.0], -1.0).unwrap();
        let mut copy = Page::new();
        copy.bytes_mut().copy_from_slice(page.bytes());
        let mut buf = vec![0.0; 2];
        assert_eq!(copy.read_row(0, &mut buf).unwrap(), -1.0);
        assert_eq!(buf, vec![7.0, 8.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any batch of rows that fits in one page round-trips exactly,
        /// including non-finite and subnormal values (pages are raw bits).
        #[test]
        fn page_roundtrips_arbitrary_rows(
            dim in 1usize..64,
            raw_rows in proptest::collection::vec(
                (proptest::collection::vec(proptest::num::f64::ANY, 0..64), proptest::num::f64::ANY),
                1..12,
            ),
        ) {
            let mut page = Page::new();
            let capacity = Page::rows_per_page(dim);
            let mut written: Vec<(Vec<f64>, f64)> = Vec::new();
            for (values, label) in raw_rows {
                if written.len() == capacity.min(12) {
                    break;
                }
                // Resize the row to the page's schema width.
                let mut row = values;
                row.resize(dim, 0.0);
                page.push_row(&row, label).unwrap();
                written.push((row, label));
            }
            prop_assert_eq!(page.row_count(), written.len());
            let mut buf = vec![0.0; dim];
            for (slot, (row, label)) in written.iter().enumerate() {
                let got_label = page.read_row(slot, &mut buf).unwrap();
                // Bit-exact comparison (NaN-safe).
                prop_assert_eq!(got_label.to_bits(), label.to_bits());
                for (a, b) in buf.iter().zip(row.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// The borrowed read is the decoding read: for every schema width a
        /// page can hold and any fill level, `row()` and `read_row()` agree
        /// bit for bit on every slot and reject the same slots — also when
        /// the reader's `dim` is not the writer's.
        #[test]
        fn borrowed_row_equals_decoded_row(
            dim in 1usize..=1022,
            reader_dim in 1usize..=1022,
            fill in 0.0f64..=1.0,
            values in proptest::collection::vec(proptest::num::f64::ANY, 1..64),
        ) {
            let capacity = Page::rows_per_page(dim);
            let rows = (fill * capacity as f64).ceil() as usize;
            let mut page = Page::new();
            let mut x = vec![0.0; dim];
            for i in 0..rows {
                for (j, v) in x.iter_mut().enumerate() {
                    *v = values[(i * 31 + j) % values.len()];
                }
                page.push_row(&x, values[i % values.len()]).unwrap();
            }
            for d in [dim, reader_dim] {
                let mut buf = vec![0.0; d];
                // One slot past what this reader may touch, too.
                for slot in 0..=rows.min(Page::rows_per_page(d)) {
                    match (page.row(slot, d), page.read_row(slot, &mut buf)) {
                        (Ok((bx, by)), Ok(dy)) => {
                            prop_assert!(slot < rows);
                            prop_assert_eq!(by.to_bits(), dy.to_bits());
                            prop_assert_eq!(bx.len(), d);
                            for (a, b) in bx.iter().zip(&buf) {
                                prop_assert_eq!(a.to_bits(), b.to_bits());
                            }
                        }
                        (Err(DbError::SlotOutOfBounds { .. }), Err(DbError::SlotOutOfBounds { .. })) => {
                            prop_assert_eq!(slot, rows.min(Page::rows_per_page(d)));
                        }
                        (a, b) => panic!("row() and read_row() disagree at slot {slot}: {a:?} vs {b:?}"),
                    }
                }
            }
        }

        /// Capacity arithmetic: rows_per_page never overflows the page.
        #[test]
        fn capacity_fits_in_page(dim in 1usize..2000) {
            let capacity = Page::rows_per_page(dim);
            prop_assert!(PAGE_HEADER + capacity * Page::row_bytes(dim) <= PAGE_SIZE);
            // One more row would overflow.
            prop_assert!(PAGE_HEADER + (capacity + 1) * Page::row_bytes(dim) > PAGE_SIZE);
        }
    }
}
