//! Virtual file-system layer: every file operation the I/O path performs
//! goes through the [`Storage`] trait, so the checkpoint and output code
//! can run against the real file system ([`RealFs`]) or a seeded
//! fault-injecting backend ([`FaultFs`]) — the storage analog of
//! `mpisim::FaultPlan`.
//!
//! ## Fault model
//!
//! [`FaultFs`] wraps the real file system and injects faults from a
//! deterministic plan ([`StorageFault`], mirroring `mpisim`'s one-shot
//! planned faults):
//!
//! * **transient `EIO`** — the *n*-th write-class op fails once, cleanly
//!   (nothing reaches disk); a retry sails through;
//! * **persistent `ENOSPC`** — from the *n*-th write-class op on, every
//!   write fails with "no space left on device";
//! * **torn writes** — the *n*-th write-class op persists only the first
//!   `keep` bytes, then fails (a partially-flushed page at process death);
//! * **fsync lies** — the *n*-th fsync-class op returns `Ok` without
//!   making anything durable (a volatile write cache), observable only
//!   via [`FaultFs::simulate_power_loss`];
//! * **rename failures** — the *n*-th rename fails with `EIO`;
//! * **read failures** — the *n*-th read-class op fails once with `EIO`;
//! * **crash points** — after the *k*-th operation of any kind, every
//!   subsequent op fails ([`FaultFs::crash_after`]), simulating process
//!   death at an arbitrary point in the op stream. The op counter
//!   ([`FaultFs::ops`]) and log ([`FaultFs::op_log`]) let a harness
//!   *enumerate* every crash point in an I/O sequence.
//!
//! ## Durability model
//!
//! `FaultFs` additionally tracks what a power loss would destroy, with
//! deliberately pessimistic POSIX crash semantics:
//!
//! * file **content** is durable up to the length at the last honest
//!   `fsync` of that file (`0` for never-synced writes);
//! * a **directory entry** (a freshly created or renamed name) is durable
//!   only after an honest `fsync_dir` of its parent directory;
//! * files that existed before `FaultFs` first touched them are fully
//!   durable; `remove` is treated as immediately durable.
//!
//! [`FaultFs::simulate_power_loss`] applies the model to the real
//! directory tree: non-durable entries are deleted and surviving files
//! are truncated to their durable length. A recovery path that survives
//! this pessimistic model survives any real crash ordering.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Every file operation the I/O path performs. Object-safe so drivers can
/// hold an `Arc<dyn Storage>` chosen at run time.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Create `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Create (or truncate) `path` and write `bytes`. Not durable until
    /// [`Storage::fsync`].
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path`, creating it if missing.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flush `path`'s content to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Flush `dir`'s entries (creations, renames) to stable storage.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (same directory in practice).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Read the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// All *file* paths directly inside `dir`, sorted.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Remove the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Wait `wait` before retrying a failed operation. Not a file
    /// operation: no fault plan or op log sees it.
    fn backoff(&self, wait: Duration);
}

/// The real file system. `fsync`/`fsync_dir` map to `File::sync_all` on
/// the opened file or directory handle.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl RealFs {
    /// A shareable trait object of the real backend.
    pub fn shared() -> Arc<dyn Storage> {
        Arc::new(RealFs)
    }
}

impl Storage for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.flush()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::options().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.flush()
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directories open read-only; sync_all flushes the entries.
        File::open(dir)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .map(|e| e.path())
            .collect();
        out.sort();
        Ok(out)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn backoff(&self, wait: Duration) {
        std::thread::sleep(wait);
    }
}

/// Kind of one storage operation, for the op log and fault matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    CreateDirAll,
    Write,
    Append,
    Fsync,
    FsyncDir,
    Rename,
    Read,
    List,
    Remove,
}

/// One recorded operation: global 1-based index, kind, and path(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    pub index: u64,
    pub kind: OpKind,
    pub path: PathBuf,
    /// Destination of a rename; `None` for every other kind.
    pub dest: Option<PathBuf>,
}

/// One planned storage fault. All `nth` counters are 1-based and count
/// *matching* operations (write-class, fsync-class, rename, read-class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageFault {
    /// The `nth` write-class op fails once with `EIO`; nothing is written.
    TransientIo { nth_write: u64 },
    /// From the `nth` write-class op on, every write fails with `ENOSPC`.
    NoSpace { nth_write: u64 },
    /// The `nth` write-class op persists only the first `keep` bytes,
    /// then fails with `EIO`.
    TornWrite { nth_write: u64, keep: usize },
    /// The `nth` fsync-class op returns `Ok` without making anything
    /// durable.
    FsyncLie { nth_fsync: u64 },
    /// The `nth` rename fails once with `EIO`.
    RenameFail { nth_rename: u64 },
    /// The `nth` read-class op fails once with `EIO`.
    ReadFail { nth_read: u64 },
}

/// Counters of storage faults actually injected, for post-run assertions
/// (the analog of `mpisim::FaultReport`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaultReport {
    pub transient_io: u64,
    pub no_space: u64,
    pub torn_writes: u64,
    pub fsync_lies: u64,
    pub rename_failures: u64,
    pub read_failures: u64,
    /// Operations refused because the crash point had been reached.
    pub crashed_ops: u64,
}

impl StorageFaultReport {
    /// Faults injected, not counting post-crash refusals.
    pub fn total(&self) -> u64 {
        self.transient_io
            + self.no_space
            + self.torn_writes
            + self.fsync_lies
            + self.rename_failures
            + self.read_failures
    }
}

/// Durability tracking of one file the `FaultFs` has touched.
#[derive(Debug, Clone)]
struct FileDurability {
    /// Content bytes guaranteed on media (length at the last honest fsync).
    durable_len: u64,
    /// Current content length.
    cur_len: u64,
    /// Whether the directory entry would survive power loss.
    entry_durable: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    reads: u64,
    faults: Vec<StorageFault>,
    crash_after: Option<u64>,
    no_space: bool,
    log: Vec<OpRecord>,
    report: StorageFaultReport,
    files: HashMap<PathBuf, FileDurability>,
}

/// Seeded fault-injecting [`Storage`] backend over the real file system.
pub struct FaultFs {
    inner: RealFs,
    state: Mutex<FaultState>,
}

// Manual impl: the shim `parking_lot::Mutex` has no `Debug`.
impl std::fmt::Debug for FaultFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FaultFs")
            .field("ops", &st.ops)
            .field("pending", &st.faults)
            .field("crash_after", &st.crash_after)
            .field("report", &st.report)
            .finish()
    }
}

impl Default for FaultFs {
    fn default() -> FaultFs {
        FaultFs::new()
    }
}

fn eio(context: &str) -> io::Error {
    io::Error::other(format!("injected I/O error: {context}"))
}

fn enospc() -> io::Error {
    // Raw ENOSPC so callers see the real error kind ("No space left on
    // device") rather than a synthetic message.
    io::Error::from_raw_os_error(28)
}

fn crashed() -> io::Error {
    io::Error::other("simulated crash: storage unreachable")
}

impl FaultFs {
    /// A fault-free `FaultFs` — still counts and logs every op, so a
    /// probe run can enumerate crash points.
    pub fn new() -> FaultFs {
        FaultFs {
            inner: RealFs,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Deterministically generate `n_faults` *transient* faults from
    /// `seed` (torn writes, one-shot write errors, fsync lies, rename
    /// failures — never `ENOSPC` or crashes, which are persistent and
    /// scheduled explicitly). The same seed always yields the same plan.
    pub fn seeded(seed: u64, n_faults: usize) -> FaultFs {
        let plan = FaultFs::new();
        let mut rng = mpisim::Splitmix64::new(seed);
        {
            let mut st = plan.state.lock();
            for _ in 0..n_faults {
                let nth = 1 + rng.next_u64() % 20;
                let fault = match rng.next_u64() % 4 {
                    0 => StorageFault::TransientIo { nth_write: nth },
                    1 => StorageFault::TornWrite {
                        nth_write: nth,
                        keep: (rng.next_u64() % 64) as usize,
                    },
                    2 => StorageFault::FsyncLie { nth_fsync: nth },
                    _ => StorageFault::RenameFail { nth_rename: nth },
                };
                st.faults.push(fault);
            }
        }
        plan
    }

    /// Add one explicit fault (builder style).
    pub fn fault(self, fault: StorageFault) -> FaultFs {
        self.state.lock().faults.push(fault);
        self
    }

    /// Crash after the `k`-th operation: ops `1..=k` proceed (subject to
    /// other faults), every later op fails. `k = 0` means storage is dead
    /// from the first op.
    pub fn crash_after(self, k: u64) -> FaultFs {
        self.state.lock().crash_after = Some(k);
        self
    }

    /// Reschedule (or clear) the crash point on a live instance.
    pub fn set_crash_after(&self, k: Option<u64>) {
        self.state.lock().crash_after = k;
    }

    /// Total operations attempted so far (including refused ones).
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// The full operation log.
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.state.lock().log.clone()
    }

    /// What has been injected so far.
    pub fn report(&self) -> StorageFaultReport {
        self.state.lock().report.clone()
    }

    /// The faults still pending (not yet fired).
    pub fn pending(&self) -> Vec<StorageFault> {
        self.state.lock().faults.clone()
    }

    /// Apply the durability model to the real directory tree: delete
    /// every file whose directory entry was never made durable, truncate
    /// every surviving tracked file to its durable content length, and
    /// reset the tracking (the disk now *is* the durable state). Returns
    /// the number of files removed and truncated.
    pub fn simulate_power_loss(&self) -> io::Result<(usize, usize)> {
        let files: Vec<(PathBuf, FileDurability)> = {
            let mut st = self.state.lock();
            let drained = st.files.drain().collect();
            drained
        };
        let (mut removed, mut truncated) = (0, 0);
        for (path, d) in files {
            if !path.exists() {
                continue;
            }
            if !d.entry_durable {
                fs::remove_file(&path)?;
                removed += 1;
            } else if d.durable_len < d.cur_len {
                let f = File::options().write(true).open(&path)?;
                f.set_len(d.durable_len)?;
                f.sync_all()?;
                truncated += 1;
            }
        }
        Ok((removed, truncated))
    }

    /// Record an op attempt; `Err` if the crash point has been reached.
    fn begin(&self, st: &mut FaultState, kind: OpKind, path: &Path, dest: Option<&Path>) -> io::Result<()> {
        st.ops += 1;
        st.log.push(OpRecord {
            index: st.ops,
            kind,
            path: path.to_path_buf(),
            dest: dest.map(Path::to_path_buf),
        });
        if let Some(k) = st.crash_after {
            if st.ops > k {
                st.report.crashed_ops += 1;
                return Err(crashed());
            }
        }
        Ok(())
    }

    /// Consume the first pending fault matched by `pick`.
    fn take<F: Fn(&StorageFault) -> bool>(st: &mut FaultState, pick: F) -> Option<StorageFault> {
        let idx = st.faults.iter().position(pick)?;
        Some(st.faults.remove(idx))
    }

    /// Fault gate for a write-class op. Returns the byte budget: `None`
    /// for a full write, `Some(keep)` for a torn one (caller persists
    /// `keep` bytes then reports `EIO`).
    fn write_gate(&self, st: &mut FaultState, path: &Path) -> io::Result<Option<usize>> {
        st.writes += 1;
        let nth = st.writes;
        if st.no_space {
            st.report.no_space += 1;
            return Err(enospc());
        }
        if Self::take(st, |f| matches!(f, StorageFault::NoSpace { nth_write } if *nth_write <= nth))
            .is_some()
        {
            st.no_space = true;
            st.report.no_space += 1;
            return Err(enospc());
        }
        if Self::take(st, |f| matches!(f, StorageFault::TransientIo { nth_write } if *nth_write == nth))
            .is_some()
        {
            st.report.transient_io += 1;
            return Err(eio(&format!("transient write failure on {}", path.display())));
        }
        if let Some(StorageFault::TornWrite { keep, .. }) =
            Self::take(st, |f| matches!(f, StorageFault::TornWrite { nth_write, .. } if *nth_write == nth))
        {
            st.report.torn_writes += 1;
            return Ok(Some(keep));
        }
        Ok(None)
    }

    /// True if this fsync-class op should lie (report success, sync
    /// nothing).
    fn fsync_lies(&self, st: &mut FaultState) -> bool {
        st.fsyncs += 1;
        let nth = st.fsyncs;
        if Self::take(st, |f| matches!(f, StorageFault::FsyncLie { nth_fsync } if *nth_fsync == nth))
            .is_some()
        {
            st.report.fsync_lies += 1;
            true
        } else {
            false
        }
    }

    fn read_gate(&self, st: &mut FaultState, path: &Path) -> io::Result<()> {
        st.reads += 1;
        let nth = st.reads;
        if Self::take(st, |f| matches!(f, StorageFault::ReadFail { nth_read } if *nth_read == nth))
            .is_some()
        {
            st.report.read_failures += 1;
            return Err(eio(&format!("transient read failure on {}", path.display())));
        }
        Ok(())
    }

    /// Current tracked state of `path`, adopting pre-existing files as
    /// fully durable.
    fn track(st: &mut FaultState, path: &Path) -> FileDurability {
        if let Some(d) = st.files.get(path) {
            return d.clone();
        }
        let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let existed = path.exists();
        let d = FileDurability {
            durable_len: if existed { len } else { 0 },
            cur_len: len,
            entry_durable: existed,
        };
        st.files.insert(path.to_path_buf(), d.clone());
        d
    }
}

impl Storage for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::CreateDirAll, dir, None)?;
        drop(st);
        // Directory creation is treated as durable: the interesting crash
        // surface is files and their entries, not mkdir.
        self.inner.create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::Write, path, None)?;
        let torn = self.write_gate(&mut st, path)?;
        let mut d = Self::track(&mut st, path);
        match torn {
            Some(keep) => {
                let keep = keep.min(bytes.len());
                self.inner.write(path, &bytes[..keep])?;
                d.cur_len = keep as u64;
                d.durable_len = 0;
                st.files.insert(path.to_path_buf(), d);
                Err(eio(&format!(
                    "torn write on {} ({} of {} bytes persisted)",
                    path.display(),
                    keep,
                    bytes.len()
                )))
            }
            None => {
                self.inner.write(path, bytes)?;
                // An overwrite rewrites the content in the cache: nothing
                // of the new content is durable until the next fsync.
                d.cur_len = bytes.len() as u64;
                d.durable_len = 0;
                st.files.insert(path.to_path_buf(), d);
                Ok(())
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::Append, path, None)?;
        let torn = self.write_gate(&mut st, path)?;
        let mut d = Self::track(&mut st, path);
        match torn {
            Some(keep) => {
                let keep = keep.min(bytes.len());
                self.inner.append(path, &bytes[..keep])?;
                d.cur_len += keep as u64;
                st.files.insert(path.to_path_buf(), d);
                Err(eio(&format!(
                    "torn append on {} ({} of {} bytes persisted)",
                    path.display(),
                    keep,
                    bytes.len()
                )))
            }
            None => {
                self.inner.append(path, bytes)?;
                d.cur_len += bytes.len() as u64;
                st.files.insert(path.to_path_buf(), d);
                Ok(())
            }
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::Fsync, path, None)?;
        if self.fsync_lies(&mut st) {
            return Ok(());
        }
        let mut d = Self::track(&mut st, path);
        d.durable_len = d.cur_len;
        st.files.insert(path.to_path_buf(), d);
        drop(st);
        self.inner.fsync(path)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::FsyncDir, dir, None)?;
        if self.fsync_lies(&mut st) {
            return Ok(());
        }
        for (path, d) in st.files.iter_mut() {
            if path.parent() == Some(dir) {
                d.entry_durable = true;
            }
        }
        drop(st);
        self.inner.fsync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::Rename, from, Some(to))?;
        st.renames += 1;
        let nth = st.renames;
        if Self::take(&mut st, |f| matches!(f, StorageFault::RenameFail { nth_rename } if *nth_rename == nth))
            .is_some()
        {
            st.report.rename_failures += 1;
            return Err(eio(&format!(
                "rename failure {} -> {}",
                from.display(),
                to.display()
            )));
        }
        let d = Self::track(&mut st, from);
        self.inner.rename(from, to)?;
        st.files.remove(from);
        st.files.insert(
            to.to_path_buf(),
            FileDurability {
                durable_len: d.durable_len,
                cur_len: d.cur_len,
                // The new name is a fresh directory entry: volatile until
                // the parent directory is fsynced.
                entry_durable: false,
            },
        );
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::Read, path, None)?;
        self.read_gate(&mut st, path)?;
        drop(st);
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::List, dir, None)?;
        self.read_gate(&mut st, dir)?;
        drop(st);
        self.inner.list(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        self.begin(&mut st, OpKind::Remove, path, None)?;
        st.files.remove(path);
        drop(st);
        self.inner.remove(path)
    }

    /// A simulated device has nothing to wait for: returns at once and
    /// logs no op, so crash points keep their op indices.
    fn backoff(&self, _wait: Duration) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restart::scratch_dir;

    #[test]
    fn realfs_roundtrip_and_list() {
        let dir = scratch_dir("vfs_real");
        let s = RealFs;
        s.create_dir_all(&dir).unwrap();
        s.write(&dir.join("a.bin"), b"hello").unwrap();
        s.append(&dir.join("a.bin"), b" world").unwrap();
        s.fsync(&dir.join("a.bin")).unwrap();
        s.fsync_dir(&dir).unwrap();
        assert_eq!(s.read(&dir.join("a.bin")).unwrap(), b"hello world");
        s.rename(&dir.join("a.bin"), &dir.join("b.bin")).unwrap();
        assert_eq!(s.list(&dir).unwrap(), vec![dir.join("b.bin")]);
        s.remove(&dir.join("b.bin")).unwrap();
        assert!(s.list(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulated_backoff_returns_at_once_and_logs_no_op() {
        let s = FaultFs::new().crash_after(1);
        let t0 = std::time::Instant::now();
        s.backoff(Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(s.ops(), 0);
        assert!(s.op_log().is_empty());
        assert_eq!(s.report().crashed_ops, 0);
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultFs::seeded(42, 8);
        let b = FaultFs::seeded(42, 8);
        assert_eq!(a.pending(), b.pending());
        let c = FaultFs::seeded(43, 8);
        assert_ne!(a.pending(), c.pending());
    }

    #[test]
    fn transient_write_fault_fires_once() {
        let dir = scratch_dir("vfs_transient");
        let s = FaultFs::new().fault(StorageFault::TransientIo { nth_write: 1 });
        s.create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        assert!(s.write(&p, b"data").is_err(), "first write fails");
        assert!(!p.exists(), "a transient failure writes nothing");
        s.write(&p, b"data").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"data");
        assert_eq!(s.report().transient_io, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_is_persistent() {
        let dir = scratch_dir("vfs_enospc");
        let s = FaultFs::new().fault(StorageFault::NoSpace { nth_write: 2 });
        s.create_dir_all(&dir).unwrap();
        s.write(&dir.join("a"), b"ok").unwrap();
        for i in 0..3 {
            let err = s.write(&dir.join("b"), b"fails").unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28), "attempt {i}: {err}");
        }
        assert_eq!(s.report().no_space, 3);
        // Reads keep working under ENOSPC.
        assert_eq!(s.read(&dir.join("a")).unwrap(), b"ok");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_persists_a_prefix() {
        let dir = scratch_dir("vfs_torn");
        let s = FaultFs::new().fault(StorageFault::TornWrite { nth_write: 1, keep: 3 });
        s.create_dir_all(&dir).unwrap();
        let p = dir.join("t.bin");
        assert!(s.write(&p, b"abcdef").is_err());
        assert_eq!(fs::read(&p).unwrap(), b"abc", "exactly `keep` bytes persisted");
        assert_eq!(s.report().torn_writes, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_point_kills_all_later_ops() {
        let dir = scratch_dir("vfs_crash");
        let s = FaultFs::new().crash_after(2);
        s.create_dir_all(&dir).unwrap(); // op 1
        s.write(&dir.join("a"), b"x").unwrap(); // op 2
        assert!(s.write(&dir.join("b"), b"y").is_err()); // op 3: dead
        assert!(s.read(&dir.join("a")).is_err()); // op 4: dead
        assert_eq!(s.report().crashed_ops, 2);
        assert_eq!(s.ops(), 4, "refused ops are still counted");
        s.set_crash_after(None);
        assert_eq!(s.read(&dir.join("a")).unwrap(), b"x");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn op_log_records_kinds_and_paths() {
        let dir = scratch_dir("vfs_log");
        let s = FaultFs::new();
        s.create_dir_all(&dir).unwrap();
        s.write(&dir.join("a"), b"1").unwrap();
        s.rename(&dir.join("a"), &dir.join("b")).unwrap();
        s.fsync_dir(&dir).unwrap();
        let log = s.op_log();
        let kinds: Vec<OpKind> = log.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![OpKind::CreateDirAll, OpKind::Write, OpKind::Rename, OpKind::FsyncDir]
        );
        assert_eq!(log[2].dest.as_deref(), Some(dir.join("b").as_path()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn power_loss_drops_unsynced_content_and_volatile_entries() {
        let dir = scratch_dir("vfs_power");
        let s = FaultFs::new();
        s.create_dir_all(&dir).unwrap();

        // Fully durable: write + fsync + dir fsync.
        s.write(&dir.join("durable"), b"keep me").unwrap();
        s.fsync(&dir.join("durable")).unwrap();
        // Entry made durable by the dir fsync, but the appended tail is
        // never synced: truncated back on power loss.
        s.write(&dir.join("partial"), b"12345").unwrap();
        s.fsync(&dir.join("partial")).unwrap();
        s.fsync_dir(&dir).unwrap();
        s.append(&dir.join("partial"), b"6789").unwrap();
        // Created after the dir fsync: content synced but the entry is
        // volatile, so the whole file vanishes.
        s.write(&dir.join("volatile"), b"bye").unwrap();
        s.fsync(&dir.join("volatile")).unwrap();

        s.simulate_power_loss().unwrap();
        assert_eq!(fs::read(dir.join("durable")).unwrap(), b"keep me");
        assert_eq!(fs::read(dir.join("partial")).unwrap(), b"12345", "unsynced tail truncated");
        assert!(!dir.join("volatile").exists(), "volatile entry lost");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_lie_leaves_content_volatile() {
        let dir = scratch_dir("vfs_lie");
        let s = FaultFs::new().fault(StorageFault::FsyncLie { nth_fsync: 1 });
        s.create_dir_all(&dir).unwrap();
        s.write(&dir.join("f"), b"abcdef").unwrap();
        s.fsync(&dir.join("f")).unwrap(); // lies
        s.fsync_dir(&dir).unwrap(); // honest: entry durable
        assert_eq!(s.report().fsync_lies, 1);
        s.simulate_power_loss().unwrap();
        assert_eq!(
            fs::metadata(dir.join("f")).unwrap().len(),
            0,
            "the lying fsync made nothing durable"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rename_entry_is_volatile_until_dir_fsync() {
        let dir = scratch_dir("vfs_rename");
        let s = FaultFs::new();
        s.create_dir_all(&dir).unwrap();
        s.write(&dir.join("t.tmp"), b"payload").unwrap();
        s.fsync(&dir.join("t.tmp")).unwrap();
        s.rename(&dir.join("t.tmp"), &dir.join("final")).unwrap();
        // No fsync_dir: the renamed entry does not survive power loss.
        s.simulate_power_loss().unwrap();
        assert!(!dir.join("final").exists(), "rename without dir fsync is lost");

        // Same sequence with the dir fsync: survives with full content.
        s.write(&dir.join("t.tmp"), b"payload").unwrap();
        s.fsync(&dir.join("t.tmp")).unwrap();
        s.rename(&dir.join("t.tmp"), &dir.join("final")).unwrap();
        s.fsync_dir(&dir).unwrap();
        s.simulate_power_loss().unwrap();
        assert_eq!(fs::read(dir.join("final")).unwrap(), b"payload");
        fs::remove_dir_all(&dir).ok();
    }
}
