//! A minimal durable-storage interface under the write-ahead journal
//! ([`journal`](crate::journal)), so the same protocol code runs over the
//! real filesystem in production and over [`SimDisk`](crate::SimDisk)
//! under the crash-point explorer.
//!
//! The contract is deliberately narrow — flat names, whole-file and
//! append writes, an idempotent remove, and an explicit [`barrier`]
//! (fsync) — because the commit protocol must only rely on what both a
//! POSIX filesystem and the crash model can honor.  In particular:
//! nothing written is assumed durable until a `barrier` returns, and
//! un-barriered writes may land torn or not at all.
//!
//! [`barrier`]: Store::barrier

use crate::simdisk::SimDisk;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Flat-namespace durable storage with explicit durability barriers.
pub trait Store {
    /// Read the whole file `name`.
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>>;
    /// Does `name` exist?
    fn exists(&self, name: &str) -> bool;
    /// Create-or-truncate `name` with `bytes`.
    fn write_file(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()>;
    /// Append `bytes` to `name`, creating it if missing.
    fn append(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()>;
    /// Remove `name`; succeeds if it does not exist (idempotent, so
    /// crash-retried sweeps are safe).
    fn remove(&mut self, name: &str) -> std::io::Result<()>;
    /// All existing names starting with `prefix`, sorted.
    fn list_prefix(&self, prefix: &str) -> std::io::Result<Vec<String>>;
    /// Durability barrier: on success, every prior write on this store
    /// has reached stable storage.
    fn barrier(&mut self) -> std::io::Result<()>;
}

/// [`Store`] over the real filesystem.  Names are full paths; `barrier`
/// fsyncs every file touched since the last barrier plus its parent
/// directory (for renames/creates to be findable after a crash).
#[derive(Debug, Default)]
pub struct FsStore {
    touched: BTreeSet<PathBuf>,
}

impl FsStore {
    /// A new filesystem store with an empty dirty set.
    pub fn new() -> FsStore {
        FsStore::default()
    }

    fn mark(&mut self, name: &str) {
        let path = PathBuf::from(name);
        if let Some(parent) = path.parent() {
            self.touched.insert(parent.to_path_buf());
        }
        self.touched.insert(path);
    }
}

impl Store for FsStore {
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        std::fs::read(name)
    }

    fn exists(&self, name: &str) -> bool {
        Path::new(name).exists()
    }

    fn write_file(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(name, bytes)?;
        self.mark(name);
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(name)?;
        f.write_all(bytes)?;
        self.mark(name);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> std::io::Result<()> {
        match std::fs::remove_file(name) {
            Ok(()) => {
                self.mark(name);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list_prefix(&self, prefix: &str) -> std::io::Result<Vec<String>> {
        let p = Path::new(prefix);
        let dir = p.parent().filter(|d| !d.as_os_str().is_empty());
        let dir = dir.map_or_else(|| PathBuf::from("."), Path::to_path_buf);
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            let name = path.to_string_lossy().into_owned();
            if name.starts_with(prefix) {
                out.push(name);
            }
        }
        out.sort();
        Ok(out)
    }

    fn barrier(&mut self) -> std::io::Result<()> {
        for path in std::mem::take(&mut self.touched) {
            // Removed files and (on some platforms) directories cannot be
            // opened for sync; skip what is gone, best-effort the dirs.
            if let Ok(f) = std::fs::File::open(&path) {
                f.sync_all()?;
            }
        }
        Ok(())
    }
}

/// [`Store`] over a shared [`SimDisk`] — the explorer's storage.  Every
/// mutation lands in the disk's recorded schedule; `barrier` maps to the
/// disk barrier.
#[derive(Debug, Clone)]
pub struct SimStore {
    disk: Arc<Mutex<SimDisk>>,
}

impl SimStore {
    /// Wrap a shared simulated disk.
    pub fn new(disk: Arc<Mutex<SimDisk>>) -> SimStore {
        SimStore { disk }
    }

    /// The underlying disk handle.
    pub fn disk(&self) -> Arc<Mutex<SimDisk>> {
        Arc::clone(&self.disk)
    }

    fn lock(&self) -> MutexGuard<'_, SimDisk> {
        self.disk
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Store for SimStore {
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.lock().read(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.lock().exists(name)
    }

    fn write_file(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.lock().write_file(name, bytes);
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.lock().append(name, bytes);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> std::io::Result<()> {
        self.lock().remove(name);
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> std::io::Result<Vec<String>> {
        Ok(self.lock().list_prefix(prefix))
    }

    fn barrier(&mut self) -> std::io::Result<()> {
        self.lock().barrier();
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::simdisk::DEFAULT_SECTOR;

    fn scratch(tag: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("cholcomm-store-{tag}-{}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn fs_store_roundtrip_append_remove_list() {
        let base = scratch("rt");
        let mut s = FsStore::new();
        s.write_file(&format!("{base}.a"), b"one").unwrap();
        s.append(&format!("{base}.a"), b"+two").unwrap();
        s.write_file(&format!("{base}.b"), b"x").unwrap();
        s.barrier().unwrap();
        assert_eq!(s.read(&format!("{base}.a")).unwrap(), b"one+two");
        let listed = s.list_prefix(&base).unwrap();
        assert_eq!(listed.len(), 2, "listed: {listed:?}");
        s.remove(&format!("{base}.a")).unwrap();
        s.remove(&format!("{base}.a")).unwrap(); // idempotent
        assert!(!s.exists(&format!("{base}.a")));
        s.remove(&format!("{base}.b")).unwrap();
        s.barrier().unwrap();
    }

    #[test]
    fn sim_store_records_schedule_and_honors_barriers() {
        let disk = Arc::new(Mutex::new(SimDisk::new(DEFAULT_SECTOR)));
        let mut s = SimStore::new(Arc::clone(&disk));
        s.write_file("j", b"intent\n").unwrap();
        s.append("j", b"commit\n").unwrap();
        s.barrier().unwrap();
        assert_eq!(s.read("j").unwrap(), b"intent\ncommit\n");
        assert_eq!(s.list_prefix("j").unwrap(), vec!["j".to_string()]);
        let guard = disk.lock().unwrap();
        assert_eq!(guard.schedule().len(), 3, "two writes + one barrier");
        assert_eq!(guard.pending_ops(), 0);
    }
}
