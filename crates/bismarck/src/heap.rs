//! Heap files: ordered collections of pages, in memory or on disk.
//!
//! The disk implementation is a plain file of `PAGE_SIZE`-aligned pages with
//! explicit positional `read/write_page`, which is what the buffer pool
//! manages. Temp files are unlinked on drop so scalability experiments clean
//! up after themselves. The in-memory heap also lends its pages out in place
//! ([`MemHeap::page`]): how a `Backing::Memory` table reads them, pool-free.

use crate::error::{DbError, DbResult};
use crate::page::{Page, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a heap file's pages live.
///
/// `Send` so tables (and the buffer pools that own the storage) can be
/// shared across server sessions behind locks.
pub trait HeapStorage: Send {
    /// Number of pages.
    fn page_count(&self) -> usize;

    /// Reads page `pid` into `page`.
    fn read_page(&mut self, pid: usize, page: &mut Page) -> DbResult<()>;

    /// Writes `page` at `pid`.
    fn write_page(&mut self, pid: usize, page: &Page) -> DbResult<()>;

    /// Appends a page, returning its id.
    fn append_page(&mut self, page: &Page) -> DbResult<usize>;

    /// Makes every written page durable (fsync for file-backed heaps;
    /// a no-op in memory). Checkpoints call this through
    /// [`BufferPool::flush_and_sync`](crate::buffer::BufferPool::flush_and_sync)
    /// so a named heap file is never left behind a snapshot it feeds.
    fn sync(&mut self) -> DbResult<()> {
        Ok(())
    }

    /// Human-readable backing description (for EXPLAIN-style output).
    fn describe(&self) -> String;
}

/// In-memory heap: a vector of pages.
#[derive(Default)]
pub struct MemHeap {
    pages: Vec<Page>,
}

impl MemHeap {
    /// An empty in-memory heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows page `pid` in place.
    pub fn page(&self, pid: usize) -> DbResult<&Page> {
        self.pages.get(pid).ok_or(DbError::PageOutOfBounds { pid, pages: self.pages.len() })
    }

    /// Mutably borrows page `pid` in place.
    pub fn page_mut(&mut self, pid: usize) -> DbResult<&mut Page> {
        let pages = self.pages.len();
        self.pages.get_mut(pid).ok_or(DbError::PageOutOfBounds { pid, pages })
    }
}

impl HeapStorage for MemHeap {
    fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn read_page(&mut self, pid: usize, page: &mut Page) -> DbResult<()> {
        page.bytes_mut().copy_from_slice(self.page(pid)?.bytes());
        Ok(())
    }

    fn write_page(&mut self, pid: usize, page: &Page) -> DbResult<()> {
        self.page_mut(pid)?.bytes_mut().copy_from_slice(page.bytes());
        Ok(())
    }

    fn append_page(&mut self, page: &Page) -> DbResult<usize> {
        self.pages.push(page.clone());
        Ok(self.pages.len() - 1)
    }

    fn describe(&self) -> String {
        format!("memory ({} pages)", self.pages.len())
    }
}

/// Disk heap: one file of consecutive pages.
pub struct FileHeap {
    file: File,
    pages: usize,
    path: PathBuf,
    delete_on_drop: bool,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FileHeap {
    /// Opens (creating if missing) a heap file at `path`.
    pub fn open(path: &Path) -> DbResult<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DbError::Corrupt(format!(
                "heap file {} has length {len}, not a multiple of the page size",
                path.display()
            )));
        }
        Ok(Self {
            file,
            pages: (len / PAGE_SIZE as u64) as usize,
            path: path.to_path_buf(),
            delete_on_drop: false,
        })
    }

    /// Creates a fresh heap in the system temp directory, unlinked on drop.
    pub fn temp() -> DbResult<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("bolton-heap-{}-{n}.bin", std::process::id()));
        let mut heap = Self::open(&path)?;
        heap.delete_on_drop = true;
        // A pre-existing file from a crashed run would corrupt page counts.
        heap.file.set_len(0)?;
        heap.pages = 0;
        Ok(heap)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for FileHeap {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl HeapStorage for FileHeap {
    fn page_count(&self) -> usize {
        self.pages
    }

    fn read_page(&mut self, pid: usize, page: &mut Page) -> DbResult<()> {
        if pid >= self.pages {
            return Err(DbError::PageOutOfBounds { pid, pages: self.pages });
        }
        self.file.read_exact_at(page.bytes_mut(), (pid * PAGE_SIZE) as u64)?;
        Ok(())
    }

    fn write_page(&mut self, pid: usize, page: &Page) -> DbResult<()> {
        if pid >= self.pages {
            return Err(DbError::PageOutOfBounds { pid, pages: self.pages });
        }
        self.file.write_all_at(page.bytes(), (pid * PAGE_SIZE) as u64)?;
        Ok(())
    }

    fn append_page(&mut self, page: &Page) -> DbResult<usize> {
        self.file.write_all_at(page.bytes(), (self.pages * PAGE_SIZE) as u64)?;
        self.pages += 1;
        Ok(self.pages - 1)
    }

    fn sync(&mut self) -> DbResult<()> {
        self.file.sync_all()?;
        Ok(())
    }

    fn describe(&self) -> String {
        format!("disk {} ({} pages)", self.path.display(), self.pages)
    }
}

/// How a table's heap is backed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Backing {
    /// Pages held in RAM.
    Memory,
    /// Pages in an unlinked temp file (the "larger than memory" experiments).
    TempFile,
    /// Pages in a named file.
    File(PathBuf),
}

impl Backing {
    /// Instantiates the storage.
    pub fn open(&self) -> DbResult<Box<dyn HeapStorage>> {
        Ok(match self {
            Backing::Memory => Box::new(MemHeap::new()),
            Backing::TempFile => Box::new(FileHeap::temp()?),
            Backing::File(path) => Box::new(FileHeap::open(path)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(storage: &mut dyn HeapStorage) {
        let mut page = Page::new();
        page.push_row(&[1.0, 2.0], 1.0).unwrap();
        let pid = storage.append_page(&page).unwrap();
        assert_eq!(pid, 0);
        let mut page2 = Page::new();
        page2.push_row(&[3.0, 4.0], -1.0).unwrap();
        assert_eq!(storage.append_page(&page2).unwrap(), 1);
        assert_eq!(storage.page_count(), 2);

        let mut read = Page::new();
        storage.read_page(1, &mut read).unwrap();
        let mut buf = vec![0.0; 2];
        assert_eq!(read.read_row(0, &mut buf).unwrap(), -1.0);
        assert_eq!(buf, vec![3.0, 4.0]);

        // Overwrite page 0 and read it back.
        storage.write_page(0, &page2).unwrap();
        storage.read_page(0, &mut read).unwrap();
        assert_eq!(read.read_row(0, &mut buf).unwrap(), -1.0);

        assert!(matches!(storage.read_page(9, &mut read), Err(DbError::PageOutOfBounds { .. })));
    }

    #[test]
    fn mem_heap_roundtrip() {
        roundtrip(&mut MemHeap::new());
    }

    #[test]
    fn file_heap_roundtrip() {
        let mut heap = FileHeap::temp().unwrap();
        roundtrip(&mut heap);
    }

    #[test]
    fn temp_file_is_deleted_on_drop() {
        let path;
        {
            let heap = FileHeap::temp().unwrap();
            path = heap.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn file_heap_persists_across_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bolton-test-heap-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut heap = FileHeap::open(&path).unwrap();
            let mut page = Page::new();
            page.push_row(&[9.0], 1.0).unwrap();
            heap.append_page(&page).unwrap();
        }
        {
            let mut heap = FileHeap::open(&path).unwrap();
            assert_eq!(heap.page_count(), 1);
            let mut page = Page::new();
            heap.read_page(0, &mut page).unwrap();
            let mut buf = vec![0.0; 1];
            assert_eq!(page.read_row(0, &mut buf).unwrap(), 1.0);
            assert_eq!(buf[0], 9.0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_length_detected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bolton-corrupt-{}.bin", std::process::id()));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(FileHeap::open(&path), Err(DbError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn backing_open_variants() {
        assert!(Backing::Memory.open().is_ok());
        assert!(Backing::TempFile.open().is_ok());
    }

    #[test]
    fn sync_succeeds_on_both_backings() {
        let mut mem = MemHeap::new();
        mem.sync().unwrap();
        let mut file = FileHeap::temp().unwrap();
        let mut page = Page::new();
        page.push_row(&[1.0], 1.0).unwrap();
        file.append_page(&page).unwrap();
        file.sync().unwrap();
    }
}
