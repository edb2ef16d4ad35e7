//! A counting [`Vfs`]: every call passes through to [`StdVfs`] and is
//! counted, and, when tracing, recorded as a folded child span of
//! whatever span is open (a `store.*` or `persist.*` call).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amnesia_columnar::persist::vfs::{SharedVfs, StdVfs, Vfs, VfsFile};
use amnesia_util::Result;

use crate::trace;

/// Device-level counters. Relaxed atomics: every VFS call of a run comes
/// from the benchmark's one client thread, and the counters are read
/// only after that thread's calls have returned.
#[derive(Debug, Default)]
pub struct VfsCounters {
    bytes_written: AtomicU64,
    write_calls: AtomicU64,
    fsyncs: AtomicU64,
    dir_fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    files_created: AtomicU64,
    files_removed: AtomicU64,
    bytes_read: AtomicU64,
}

/// A point-in-time copy of [`VfsCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsTotals {
    pub bytes_written: u64,
    pub write_calls: u64,
    pub fsyncs: u64,
    pub dir_fsyncs: u64,
    pub fsync_ns: u64,
    pub files_created: u64,
    pub files_removed: u64,
    pub bytes_read: u64,
}

fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

impl VfsCounters {
    pub fn totals(&self) -> VfsTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        VfsTotals {
            bytes_written: get(&self.bytes_written),
            write_calls: get(&self.write_calls),
            fsyncs: get(&self.fsyncs),
            dir_fsyncs: get(&self.dir_fsyncs),
            fsync_ns: get(&self.fsync_ns),
            files_created: get(&self.files_created),
            files_removed: get(&self.files_removed),
            bytes_read: get(&self.bytes_read),
        }
    }

    fn write(&self, bytes: usize) {
        add(&self.bytes_written, bytes as u64);
        add(&self.write_calls, 1);
    }
}

/// Time an fsync-class call into `fsync_ns`.
fn timed_sync<T>(c: &VfsCounters, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = trace::leaf(name, f);
    add(&c.fsync_ns, t.elapsed().as_nanos() as u64);
    out
}

/// Passthrough VFS with counters.
#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: StdVfs,
    counters: Arc<VfsCounters>,
}

impl CountingVfs {
    /// A shareable counting VFS plus a handle on its counters.
    pub fn shared() -> (SharedVfs, Arc<VfsCounters>) {
        let vfs = CountingVfs::default();
        let counters = vfs.counters.clone();
        (Arc::new(vfs), counters)
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<VfsCounters>,
}

impl VfsFile for CountingFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.counters.write(bytes.len());
        trace::leaf("vfs.append", || self.inner.append(bytes))
    }

    fn sync(&mut self) -> Result<()> {
        add(&self.counters.fsyncs, 1);
        timed_sync(&self.counters, "vfs.fsync", || self.inner.sync())
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        trace::leaf("vfs.create_dir_all", || self.inner.create_dir_all(path))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let bytes = trace::leaf("vfs.read", || self.inner.read(path))?;
        add(&self.counters.bytes_read, bytes.len() as u64);
        Ok(bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        if !self.inner.exists(path) {
            add(&self.counters.files_created, 1);
        }
        self.counters.write(bytes.len());
        trace::leaf("vfs.write_file", || self.inner.write_file(path, bytes))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        if !self.inner.exists(path) {
            add(&self.counters.files_created, 1);
        }
        let inner = trace::leaf("vfs.open_append", || self.inner.open_append(path))?;
        Ok(Box::new(CountingFile {
            inner,
            counters: self.counters.clone(),
        }))
    }

    fn sync_file(&self, path: &Path) -> Result<()> {
        add(&self.counters.fsyncs, 1);
        timed_sync(&self.counters, "vfs.fsync", || self.inner.sync_file(path))
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        add(&self.counters.dir_fsyncs, 1);
        timed_sync(&self.counters, "vfs.sync_dir", || self.inner.sync_dir(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        trace::leaf("vfs.rename", || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        add(&self.counters.files_removed, 1);
        trace::leaf("vfs.remove_file", || self.inner.remove_file(path))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.counters.write(0);
        trace::leaf("vfs.truncate", || self.inner.truncate(path, len))
    }

    fn overwrite(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.counters.write(bytes.len());
        trace::leaf("vfs.overwrite", || self.inner.overwrite(path, bytes))
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        self.inner.file_len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        trace::leaf("vfs.list_dir", || self.inner.list_dir(path))
    }
}
