//! Synchronous multi-file checkpoint/restart with integrity checking and
//! generation fallback.
//!
//! ## `.esmr` v2 format (per file, little-endian)
//!
//! ```text
//! magic        b"ESMR"
//! version      u32 = 2
//! file_index   u32            which round-robin shard this file is
//! n_files      u32            how many shards the generation has
//! nvars        u32            variable records in this file
//! record*      name_len u32 | name | count u64 | f64 payload | var_crc u32
//! trailer      file_crc u32 | b"RMSE"
//! ```
//!
//! `var_crc` is the CRC-32 of the record bytes from `name_len` through the
//! payload, so corruption is reported per variable; `file_crc` covers every
//! byte before the trailer, so truncation and header damage are always
//! caught. The `(file_index, n_files)` pair lets the reader prove a
//! generation is complete rather than silently reassembling a partial one.
//!
//! Writes are **atomic**: each shard is written to `<name>.tmp`, synced,
//! and renamed into place, so a writer killed mid-checkpoint never leaves
//! a file the reader would select as valid. [`CheckpointRing`] stacks
//! generation-numbered checkpoints (`restart.g0001_000.esmr`, …), keeps
//! the newest K, and on read falls back generation by generation until an
//! intact one is found.
//!
//! Variables are distributed round-robin over `n_files` files; reading
//! opens the files with a stagger (each reader group starts at a different
//! file), the scheme the paper uses to reach 615 GiB/s. Only version 2
//! is read: an older file carries no checksum, and the restore path hands
//! back verified state only.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::crc::{self, crc32};
use crate::error::RestartError;
use crate::vfs::{RealFs, Storage};

const MAGIC: &[u8; 4] = b"ESMR";
const TRAILER_MAGIC: &[u8; 4] = b"RMSE";
const VERSION: u32 = 2;

/// A named collection of state variables — the unit of checkpointing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub vars: Vec<(String, Vec<f64>)>,
}

impl Snapshot {
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Add a variable. Duplicate names are a real, propagated error (a
    /// duplicate would silently shadow state on restore).
    pub fn push(&mut self, name: impl Into<String>, data: Vec<f64>) -> Result<(), RestartError> {
        let name = name.into();
        if self.get(&name).is_some() {
            return Err(RestartError::DuplicateVariable { name });
        }
        self.vars.push((name, data));
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.vars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    pub fn expect(&self, name: &str) -> &[f64] {
        self.get(name)
            .unwrap_or_else(|| panic!("missing checkpoint variable '{name}'"))
    }

    /// Total payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.vars.iter().map(|(_, d)| d.len() * 8).sum()
    }
}

/// Encode the shard `f` of `n_files` as a complete v2 file image.
fn encode_file_v2(snapshot: &Snapshot, f: usize, n_files: usize) -> Vec<u8> {
    let mine: Vec<&(String, Vec<f64>)> = snapshot
        .vars
        .iter()
        .enumerate()
        .filter(|(i, _)| i % n_files == f)
        .map(|(_, v)| v)
        .collect();

    let payload: usize = mine.iter().map(|(n, d)| 4 + n.len() + 8 + d.len() * 8 + 4).sum();
    let mut out = Vec::with_capacity(20 + payload + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(f as u32).to_le_bytes());
    out.extend_from_slice(&(n_files as u32).to_le_bytes());
    out.extend_from_slice(&(mine.len() as u32).to_le_bytes());
    // The file CRC is combined from the header's and the records' CRCs,
    // so every payload byte is hashed once, not twice.
    let mut file_crc = crc32(&out);
    for (name, data) in mine {
        let record_start = out.len();
        let nb = name.as_bytes();
        out.extend_from_slice(&(nb.len() as u32).to_le_bytes());
        out.extend_from_slice(nb);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let var_crc = crc32(&out[record_start..]);
        let var_crc_bytes = var_crc.to_le_bytes();
        file_crc = crc::combine(file_crc, var_crc, out.len() - record_start);
        file_crc = crc::combine(file_crc, crc32(&var_crc_bytes), 4);
        out.extend_from_slice(&var_crc_bytes);
    }
    out.extend_from_slice(&file_crc.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
    out
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename, then **fsync the parent directory** so the rename itself
/// is durable. A crash at any point leaves either the old file or no file
/// — never a torn one under the final name — and once this returns, the
/// new name survives power loss (without the dir fsync a completed
/// generation can vanish with the unsynced directory entry).
fn atomic_write_with(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> Result<(), RestartError> {
    let tmp = path.with_extension("esmr.tmp");
    storage.write(&tmp, bytes)?;
    storage.fsync(&tmp)?;
    storage.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        storage.fsync_dir(parent)?;
    }
    Ok(())
}

/// The file of shard `f` of checkpoint `stem` in `dir`.
fn shard_path(dir: &Path, stem: &str, f: usize) -> PathBuf {
    dir.join(format!("{stem}_{f:03}.esmr"))
}

/// Write `snapshot` as `n_files` files named `<stem>_NNN.esmr` in `dir`.
/// Variables are assigned round-robin, mirroring ICON's "subset of ranks
/// collects the variables and writes them to one file each". Every shard
/// is checksummed and written atomically.
pub fn write_checkpoint(
    dir: &Path,
    stem: &str,
    snapshot: &Snapshot,
    n_files: usize,
) -> Result<Vec<PathBuf>, RestartError> {
    write_checkpoint_with(&RealFs, dir, stem, snapshot, n_files)
}

/// [`write_checkpoint`] over an explicit [`Storage`] backend.
pub fn write_checkpoint_with(
    storage: &dyn Storage,
    dir: &Path,
    stem: &str,
    snapshot: &Snapshot,
    n_files: usize,
) -> Result<Vec<PathBuf>, RestartError> {
    assert!(n_files >= 1);
    storage.create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(n_files);
    for f in 0..n_files {
        let path = shard_path(dir, stem, f);
        atomic_write_with(storage, &path, &encode_file_v2(snapshot, f, n_files))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Bounds-checked parse cursor over an in-memory file image.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], RestartError> {
        if self.pos + n > self.bytes.len() {
            return Err(RestartError::Truncated {
                path: self.path.to_path_buf(),
                context,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, RestartError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().unwrap()))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, RestartError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().unwrap()))
    }
}

/// One parsed shard: the `(file_index, n_files)` it declares, plus its
/// variable records in file order.
struct ParsedFile {
    shard: (usize, usize),
    vars: Vec<(String, Vec<f64>)>,
}

fn parse_file(path: &Path, bytes: &[u8]) -> Result<ParsedFile, RestartError> {
    let mut c = Cursor { bytes, pos: 0, path };

    let magic: [u8; 4] = c.take(4, "magic")?.try_into().unwrap();
    if &magic != MAGIC {
        return Err(RestartError::BadMagic {
            path: path.to_path_buf(),
            found: magic,
        });
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(RestartError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }

    // The file is fully checksummed; verify the file-level CRC up front
    // so any damage — header, records, trailer — is caught even if record
    // parsing would happen to succeed.
    let fi = c.u32("file index")? as usize;
    let nf = c.u32("file count")? as usize;
    if nf == 0 || fi >= nf {
        return Err(RestartError::Corrupt {
            path: path.to_path_buf(),
            context: format!("shard index {fi} out of range for {nf} file(s)"),
        });
    }
    if bytes.len() < 8 || &bytes[bytes.len() - 4..] != TRAILER_MAGIC {
        return Err(RestartError::Truncated {
            path: path.to_path_buf(),
            context: "file trailer",
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().unwrap());
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(RestartError::ChecksumMismatch {
            path: path.to_path_buf(),
            var: None,
            stored,
            computed,
        });
    }

    let nvars = c.u32("variable count")? as usize;
    // A record is at least 16 bytes; a count that cannot fit is corrupt
    // (and would otherwise drive a huge allocation).
    if nvars > (body_end - c.pos.min(body_end)) / 12 + 1 {
        return Err(RestartError::Corrupt {
            path: path.to_path_buf(),
            context: format!("implausible variable count {nvars}"),
        });
    }

    let mut vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let record_start = c.pos;
        let name_len = c.u32("variable name length")? as usize;
        if name_len > body_end - c.pos.min(body_end) {
            return Err(RestartError::Corrupt {
                path: path.to_path_buf(),
                context: format!("variable name length {name_len} exceeds file"),
            });
        }
        let name_bytes = c.take(name_len, "variable name")?;
        let name = String::from_utf8(name_bytes.to_vec()).map_err(|e| RestartError::Corrupt {
            path: path.to_path_buf(),
            context: format!("variable name is not UTF-8: {e}"),
        })?;
        let count = c.u64("element count")? as usize;
        if count.checked_mul(8).map(|b| b > body_end - c.pos.min(body_end)).unwrap_or(true) {
            return Err(RestartError::Corrupt {
                path: path.to_path_buf(),
                context: format!("element count {count} for '{name}' exceeds file"),
            });
        }
        let payload = c.take(count * 8, "variable payload")?;
        let data: Vec<f64> = payload
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let computed = crc32(&bytes[record_start..c.pos]);
        let stored = c.u32("variable checksum")?;
        if stored != computed {
            return Err(RestartError::ChecksumMismatch {
                path: path.to_path_buf(),
                var: Some(name),
                stored,
                computed,
            });
        }
        vars.push((name, data));
    }

    if c.pos != body_end {
        return Err(RestartError::Corrupt {
            path: path.to_path_buf(),
            context: format!(
                "record region ends at byte {} but should end at {body_end}",
                c.pos
            ),
        });
    }

    Ok(ParsedFile { shard: (fi, nf), vars })
}

/// Read a multi-file checkpoint back. `n_readers` groups open the files
/// with a stagger (group `r` starts at file `r * files/n_readers`), which
/// is what spreads metadata and OST load in the paper's staggered-reading
/// scheme; the result is independent of `n_readers`.
///
/// Every failure mode — missing files, torn writes, flipped bits, an
/// incomplete generation — returns a typed [`RestartError`]; this path
/// never panics on bad input.
pub fn read_checkpoint(dir: &Path, stem: &str, n_readers: usize) -> Result<Snapshot, RestartError> {
    read_checkpoint_with(&RealFs, dir, stem, n_readers)
}

/// [`read_checkpoint`] over an explicit [`Storage`] backend.
pub fn read_checkpoint_with(
    storage: &dyn Storage,
    dir: &Path,
    stem: &str,
    n_readers: usize,
) -> Result<Snapshot, RestartError> {
    assert!(n_readers >= 1);
    // Discover the files (`list` returns them sorted).
    let files: Vec<PathBuf> = storage
        .list(dir)?
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with(&format!("{stem}_")) && n.ends_with(".esmr"))
                .unwrap_or(false)
        })
        .collect();
    if files.is_empty() {
        return Err(RestartError::NotFound {
            dir: dir.to_path_buf(),
            stem: stem.to_string(),
        });
    }

    // Staggered order: reader r begins at offset r*len/n, wrapping.
    let n = files.len();
    let mut order = Vec::with_capacity(n);
    for r in 0..n_readers.min(n) {
        let start = r * n / n_readers.min(n);
        let mut i = start;
        loop {
            if !order.contains(&(i % n)) {
                order.push(i % n);
            }
            i += 1;
            if i % n == start {
                break;
            }
        }
    }
    for i in 0..n {
        if !order.contains(&i) {
            order.push(i);
        }
    }

    let mut pieces: Vec<(usize, String, Vec<f64>)> = Vec::new();
    let mut declared_n_files: Option<usize> = None;
    let mut seen_shards: Vec<usize> = Vec::new();
    for &fi in order.iter().take(n) {
        let bytes = storage.read(&files[fi])?;
        let parsed = parse_file(&files[fi], &bytes)?;
        let (shard_index, shard_count) = parsed.shard;
        if let Some(prev) = declared_n_files {
            if prev != shard_count {
                return Err(RestartError::Corrupt {
                    path: files[fi].clone(),
                    context: format!(
                        "shard count {shard_count} disagrees with {prev} from sibling files"
                    ),
                });
            }
        }
        declared_n_files = Some(shard_count);
        if seen_shards.contains(&shard_index) {
            return Err(RestartError::Corrupt {
                path: files[fi].clone(),
                context: format!("duplicate shard index {shard_index}"),
            });
        }
        seen_shards.push(shard_index);
        for (v, (name, data)) in parsed.vars.into_iter().enumerate() {
            // Original index = shard_index + v * n_files (round-robin).
            pieces.push((shard_index + v * shard_count, name, data));
        }
    }

    // A generation is only valid if every shard it declares is present —
    // a writer killed between renames must not yield a silently smaller
    // snapshot.
    let expected = declared_n_files.unwrap_or(n);
    if seen_shards.len() != expected {
        return Err(RestartError::Corrupt {
            path: dir.to_path_buf(),
            context: format!(
                "incomplete generation: found {} of {expected} shard file(s) for stem '{stem}'",
                seen_shards.len()
            ),
        });
    }

    pieces.sort_by_key(|(i, _, _)| *i);
    let mut snap = Snapshot::new();
    for (_, name, data) in pieces {
        snap.push(name, data)?;
    }
    Ok(snap)
}

/// Bounded retry with linear backoff for transient storage errors on the
/// checkpoint write path. `attempts` is the number of *re*-tries after the
/// first failure; attempt `i` (1-based) waits `i * backoff` first
/// ([`Storage::backoff`]: a sleep on [`RealFs`], none on a simulated device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    pub attempts: u32,
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// No retries at all — every storage error surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// Generation-numbered checkpoint ring: `stem.g0001_000.esmr`, keeping the
/// newest `keep` generations and falling back on read until an intact one
/// is found.
#[derive(Debug)]
pub struct CheckpointRing {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    stem: String,
    keep: usize,
    next_gen: u64,
    retry: RetryPolicy,
    io_retries: u64,
}

impl CheckpointRing {
    /// Open (or start) a ring in `dir` on the real file system. Scans for
    /// existing generations so a restarted writer continues the numbering
    /// instead of overwriting.
    pub fn new(
        dir: impl Into<PathBuf>,
        stem: impl Into<String>,
        keep: usize,
    ) -> Result<CheckpointRing, RestartError> {
        CheckpointRing::new_with(RealFs::shared(), dir, stem, keep)
    }

    /// [`CheckpointRing::new`] over an explicit [`Storage`] backend.
    pub fn new_with(
        storage: Arc<dyn Storage>,
        dir: impl Into<PathBuf>,
        stem: impl Into<String>,
        keep: usize,
    ) -> Result<CheckpointRing, RestartError> {
        assert!(keep >= 1, "must keep at least one generation");
        let mut ring = CheckpointRing {
            storage,
            dir: dir.into(),
            stem: stem.into(),
            keep,
            next_gen: 1,
            retry: RetryPolicy::default(),
            io_retries: 0,
        };
        if let Some(&newest) = ring.generations()?.last() {
            ring.next_gen = newest + 1;
        }
        Ok(ring)
    }

    /// Replace the write retry policy (builder style).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Write attempts that failed and were retried so far.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Whether `generation` is still among the newest `keep` this ring
    /// has written — not yet pruned by a later [`CheckpointRing::write`].
    pub fn keeps(&self, generation: u64) -> bool {
        generation < self.next_gen && generation + self.keep as u64 >= self.next_gen
    }

    fn gen_stem(&self, generation: u64) -> String {
        format!("{}.g{generation:04}", self.stem)
    }

    /// The file shard `shard` of `generation` is written to.
    pub fn shard_path(&self, generation: u64, shard: usize) -> PathBuf {
        shard_path(&self.dir, &self.gen_stem(generation), shard)
    }

    /// Generation numbers currently on disk, sorted ascending.
    pub fn generations(&self) -> Result<Vec<u64>, RestartError> {
        let mut gens: Vec<u64> = Vec::new();
        let entries = match self.storage.list(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(gens),
            Err(e) => return Err(e.into()),
        };
        let prefix = format!("{}.g", self.stem);
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.starts_with(&prefix) || !name.ends_with(".esmr") {
                continue;
            }
            let rest = &name[prefix.len()..];
            if let Some((gen_str, _)) = rest.split_once('_') {
                if let Ok(g) = gen_str.parse::<u64>() {
                    if !gens.contains(&g) {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Write the next generation atomically, retrying transient storage
    /// errors per the [`RetryPolicy`], then prune down to the newest
    /// `keep` generations. Returns the generation number written. On
    /// persistent failure the generation number is **not** consumed and
    /// any partial shards are cleaned up best-effort, so the ring still
    /// holds its previous intact generations — the caller can fall back a
    /// generation and continue.
    pub fn write(&mut self, snapshot: &Snapshot, n_files: usize) -> Result<u64, RestartError> {
        let generation = self.next_gen;
        let stem = self.gen_stem(generation);
        let mut attempt = 0u32;
        loop {
            match write_checkpoint_with(self.storage.as_ref(), &self.dir, &stem, snapshot, n_files)
            {
                Ok(_) => break,
                Err(e) => {
                    if attempt >= self.retry.attempts {
                        self.cleanup_generation(generation);
                        return Err(e);
                    }
                    attempt += 1;
                    self.io_retries += 1;
                    self.storage.backoff(self.retry.backoff * attempt);
                }
            }
        }
        self.next_gen += 1;

        // Prune only after the new generation is fully in place.
        let gens = self.generations()?;
        if gens.len() > self.keep {
            for &old in &gens[..gens.len() - self.keep] {
                self.cleanup_generation(old);
            }
        }
        Ok(generation)
    }

    /// Best-effort removal of every shard (and temp file) of `generation`.
    /// Used for pruning and for clearing the debris of a failed write so a
    /// later `read_latest_intact` never considers a partial generation.
    fn cleanup_generation(&self, generation: u64) {
        let stem = self.gen_stem(generation);
        let Ok(paths) = self.storage.list(&self.dir) else {
            return;
        };
        for path in paths {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with(&format!("{stem}_"))
                && (name.ends_with(".esmr") || name.ends_with(".tmp"))
            {
                // Best-effort: a vanished file is already pruned.
                let _ = self.storage.remove(&path);
            }
        }
    }

    /// Read one *specific* generation, with full integrity checking but
    /// no fallback. This is the localized-recovery path: a supervisor
    /// restoring a single rank needs the generation that matches a known
    /// coupling window, not whatever is newest.
    pub fn read_generation(
        &self,
        generation: u64,
        n_readers: usize,
    ) -> Result<Snapshot, RestartError> {
        read_checkpoint_with(self.storage.as_ref(), &self.dir, &self.gen_stem(generation), n_readers)
    }

    /// Read back the newest generation that passes every integrity check,
    /// walking backwards over damaged ones. Returns the generation number
    /// actually loaded alongside the snapshot.
    pub fn read_latest_intact(&self, n_readers: usize) -> Result<(u64, Snapshot), RestartError> {
        let gens = self.generations()?;
        if gens.is_empty() {
            return Err(RestartError::NotFound {
                dir: self.dir.clone(),
                stem: self.stem.clone(),
            });
        }
        let mut tried = Vec::new();
        for &g in gens.iter().rev() {
            tried.push(g);
            match read_checkpoint_with(self.storage.as_ref(), &self.dir, &self.gen_stem(g), n_readers) {
                Ok(snap) => return Ok((g, snap)),
                Err(_) => continue,
            }
        }
        Err(RestartError::NoIntactGeneration {
            dir: self.dir.clone(),
            stem: self.stem.clone(),
            tried,
        })
    }
}

/// A unique scratch directory for tests/examples.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("icon_esm_{tag}_{pid}_{t}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, StorageFault};
    use std::fs;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push("atm.delta", (0..1000).map(|i| i as f64 * 0.5).collect()).unwrap();
        s.push("atm.vn", vec![-1.5; 777]).unwrap();
        s.push("oce.temp", (0..500).map(|i| (i as f64).sin()).collect()).unwrap();
        s.push("oce.salt", vec![35.0; 500]).unwrap();
        s.push("land.pools", (0..231).map(|i| 1.0 / (i + 1) as f64).collect()).unwrap();
        s
    }

    #[test]
    fn roundtrip_is_bit_exact_single_file() {
        let dir = scratch_dir("rt1");
        let snap = sample();
        write_checkpoint(&dir, "restart", &snap, 1).unwrap();
        let back = read_checkpoint(&dir, "restart", 1).unwrap();
        assert_eq!(back, snap);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_multi_file_any_reader_count() {
        let dir = scratch_dir("rtn");
        let snap = sample();
        write_checkpoint(&dir, "restart", &snap, 3).unwrap();
        for readers in [1, 2, 3, 7] {
            let back = read_checkpoint(&dir, "restart", readers).unwrap();
            assert_eq!(back, snap, "readers={readers}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_count_distributes_variables() {
        let dir = scratch_dir("dist");
        let snap = sample();
        let paths = write_checkpoint(&dir, "restart", &snap, 4).unwrap();
        assert_eq!(paths.len(), 4);
        // Every file exists and has content beyond the header.
        for p in &paths {
            assert!(fs::metadata(p).unwrap().len() >= 12);
        }
        // Total size ~ payload + headers.
        let total: u64 = paths.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        assert!(total as usize > snap.payload_bytes());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_errors() {
        let dir = scratch_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            read_checkpoint(&dir, "nope", 1),
            Err(RestartError::NotFound { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn special_values_roundtrip() {
        let dir = scratch_dir("special");
        let mut snap = Snapshot::new();
        snap.push(
            "weird",
            vec![0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, 1e-300, -1e300],
        )
        .unwrap();
        write_checkpoint(&dir, "restart", &snap, 2).unwrap();
        let back = read_checkpoint(&dir, "restart", 2).unwrap();
        for (a, b) in back.expect("weird").iter().zip(snap.expect("weird")) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exactness");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_variable_is_a_real_error() {
        let mut s = Snapshot::new();
        s.push("x", vec![1.0]).unwrap();
        assert!(matches!(
            s.push("x", vec![2.0]),
            Err(RestartError::DuplicateVariable { name }) if name == "x"
        ));
        // The snapshot is unchanged by the failed push.
        assert_eq!(s.vars.len(), 1);
        assert_eq!(s.expect("x"), &[1.0]);
    }

    #[test]
    fn no_tmp_files_survive_a_write() {
        let dir = scratch_dir("atomic");
        write_checkpoint(&dir, "restart", &sample(), 3).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_bit_flip_is_detected_per_variable() {
        let dir = scratch_dir("flip");
        let paths = write_checkpoint(&dir, "restart", &sample(), 2).unwrap();
        // Flip one bit in the middle of the first file's payload region.
        let mut bytes = fs::read(&paths[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&paths[0], &bytes).unwrap();
        match read_checkpoint(&dir, "restart", 1) {
            Err(RestartError::ChecksumMismatch { stored, computed, .. }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_detected() {
        let dir = scratch_dir("trunc");
        let paths = write_checkpoint(&dir, "restart", &sample(), 1).unwrap();
        let bytes = fs::read(&paths[0]).unwrap();
        // Simulate torn writes of every severity: cut anywhere from the
        // magic through one byte short of complete.
        for cut in [2, 10, 19, 40, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&paths[0], &bytes[..cut]).unwrap();
            let err = read_checkpoint(&dir, "restart", 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    RestartError::Truncated { .. } | RestartError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let dir = scratch_dir("magic");
        let paths = write_checkpoint(&dir, "restart", &sample(), 1).unwrap();
        let good = fs::read(&paths[0]).unwrap();

        let mut bad = good.clone();
        bad[..4].copy_from_slice(b"JUNK");
        fs::write(&paths[0], &bad).unwrap();
        assert!(matches!(
            read_checkpoint(&dir, "restart", 1),
            Err(RestartError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&paths[0], &bad).unwrap();
        assert!(matches!(
            read_checkpoint(&dir, "restart", 1),
            Err(RestartError::UnsupportedVersion { version: 99, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_corruption_is_detected() {
        let dir = scratch_dir("hdr");
        let paths = write_checkpoint(&dir, "restart", &sample(), 2).unwrap();
        // Corrupt the declared variable count (header is CRC-covered too).
        let mut bytes = fs::read(&paths[0]).unwrap();
        bytes[16] = bytes[16].wrapping_add(1);
        fs::write(&paths[0], &bytes).unwrap();
        assert!(read_checkpoint(&dir, "restart", 1).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    /// Old v1 files (no shard header, no checksums) are refused: nothing
    /// in them can be verified.
    #[test]
    fn v1_files_are_refused_as_unsupported() {
        let dir = scratch_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let snap = sample();
        let n_files = 2usize;
        for f in 0..n_files {
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            out.extend_from_slice(&1u32.to_le_bytes());
            let mine: Vec<&(String, Vec<f64>)> = snap
                .vars
                .iter()
                .enumerate()
                .filter(|(i, _)| i % n_files == f)
                .map(|(_, v)| v)
                .collect();
            out.extend_from_slice(&(mine.len() as u32).to_le_bytes());
            for (name, data) in mine {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(&(data.len() as u64).to_le_bytes());
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            fs::write(dir.join(format!("restart_{f:03}.esmr")), &out).unwrap();
        }
        assert!(matches!(
            read_checkpoint(&dir, "restart", 2),
            Err(RestartError::UnsupportedVersion { version: 1, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_generation_is_rejected() {
        let dir = scratch_dir("partial");
        let paths = write_checkpoint(&dir, "restart", &sample(), 3).unwrap();
        // A writer killed between renames leaves fewer shards than declared.
        fs::remove_file(&paths[1]).unwrap();
        match read_checkpoint(&dir, "restart", 1) {
            Err(RestartError::Corrupt { context, .. }) => {
                assert!(context.contains("incomplete"), "{context}");
            }
            other => panic!("expected incomplete-generation error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_keeps_newest_generations_and_prunes() {
        let dir = scratch_dir("ring");
        let mut ring = CheckpointRing::new(&dir, "restart", 3).unwrap();
        for i in 0..5u64 {
            let mut s = Snapshot::new();
            s.push("v", vec![i as f64]).unwrap();
            assert_eq!(ring.write(&s, 2).unwrap(), i + 1);
        }
        assert_eq!(ring.generations().unwrap(), vec![3, 4, 5]);
        let kept: Vec<u64> = (0..8).filter(|&g| ring.keeps(g)).collect();
        assert_eq!(kept, [3, 4, 5], "keeps() names what is on disk");
        let (g, snap) = ring.read_latest_intact(1).unwrap();
        assert_eq!(g, 5);
        assert_eq!(snap.expect("v"), &[4.0]);
        // A reopened ring continues the numbering.
        let ring2 = CheckpointRing::new(&dir, "restart", 3).unwrap();
        assert_eq!(ring2.next_gen, 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_reads_specific_generations_without_fallback() {
        let dir = scratch_dir("ringgen");
        let mut ring = CheckpointRing::new(&dir, "restart", 3).unwrap();
        for i in 0..3u64 {
            let mut s = Snapshot::new();
            s.push("v", vec![i as f64]).unwrap();
            ring.write(&s, 2).unwrap();
        }
        assert_eq!(ring.read_generation(2, 1).unwrap().expect("v"), &[1.0]);
        // A damaged target generation is a typed error, not a silent
        // fallback to a different window.
        let shard = dir.join("restart.g0002_000.esmr");
        let mut bytes = fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&shard, &bytes).unwrap();
        assert!(ring.read_generation(2, 1).is_err());
        // Other generations are unaffected.
        assert_eq!(ring.read_generation(3, 1).unwrap().expect("v"), &[2.0]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_falls_back_over_corrupt_generations() {
        let dir = scratch_dir("ringfb");
        let mut ring = CheckpointRing::new(&dir, "restart", 3).unwrap();
        for i in 0..3u64 {
            let mut s = Snapshot::new();
            s.push("v", vec![i as f64]).unwrap();
            ring.write(&s, 2).unwrap();
        }
        // Corrupt the newest generation (bit flip) and tear the middle one
        // (drop a shard): the ring must fall back to generation 1.
        let flip = dir.join("restart.g0003_001.esmr");
        let mut bytes = fs::read(&flip).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&flip, &bytes).unwrap();
        fs::remove_file(dir.join("restart.g0002_000.esmr")).unwrap();

        let (g, snap) = ring.read_latest_intact(1).unwrap();
        assert_eq!(g, 1);
        assert_eq!(snap.expect("v"), &[0.0]);

        // Destroy generation 1 too: now every generation fails, typed.
        fs::remove_file(dir.join("restart.g0001_000.esmr")).unwrap();
        fs::remove_file(dir.join("restart.g0001_001.esmr")).unwrap();
        match ring.read_latest_intact(1) {
            Err(RestartError::NoIntactGeneration { tried, .. }) => {
                assert_eq!(tried, vec![3, 2]);
            }
            other => panic!("expected NoIntactGeneration, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_retries_transient_write_faults() {
        let dir = scratch_dir("ring_retry");
        let storage = Arc::new(
            FaultFs::new()
                .fault(StorageFault::TransientIo { nth_write: 1 })
                .fault(StorageFault::RenameFail { nth_rename: 2 }),
        );
        let mut ring = CheckpointRing::new_with(storage.clone(), &dir, "restart", 3).unwrap();
        ring.set_retry(RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(100),
        });
        let mut s = Snapshot::new();
        s.push("v", vec![1.0, 2.0]).unwrap();
        assert_eq!(ring.write(&s, 2).unwrap(), 1, "faults absorbed by retry");
        assert!(ring.io_retries() >= 2, "both faults retried: {}", ring.io_retries());
        assert_eq!(storage.report().transient_io, 1);
        assert_eq!(storage.report().rename_failures, 1);
        let (g, back) = ring.read_latest_intact(1).unwrap();
        assert_eq!((g, back), (1, s));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_write_failure_preserves_previous_generations() {
        let dir = scratch_dir("ring_fail");
        let storage = Arc::new(FaultFs::new());
        let mut ring = CheckpointRing::new_with(storage.clone(), &dir, "restart", 3).unwrap();
        ring.set_retry(RetryPolicy::none());
        let mut s1 = Snapshot::new();
        s1.push("v", vec![1.0]).unwrap();
        ring.write(&s1, 2).unwrap();

        // Storage goes dark: the next write fails, but generation 1 must
        // stay intact and the ring must not leave partial-gen debris.
        storage.set_crash_after(Some(storage.ops()));
        let mut s2 = Snapshot::new();
        s2.push("v", vec![2.0]).unwrap();
        assert!(ring.write(&s2, 2).is_err());
        storage.set_crash_after(None);

        assert_eq!(ring.generations().unwrap(), vec![1]);
        let (g, back) = ring.read_latest_intact(1).unwrap();
        assert_eq!(g, 1);
        assert_eq!(back, s1);
        // The failed generation number is reusable once storage recovers.
        assert_eq!(ring.write(&s2, 2).unwrap(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_fsyncs_parent_directory() {
        let dir = scratch_dir("ring_dirsync");
        let storage = Arc::new(FaultFs::new());
        let mut ring = CheckpointRing::new_with(storage.clone(), &dir, "restart", 2).unwrap();
        let mut s = Snapshot::new();
        s.push("v", vec![7.0]).unwrap();
        ring.write(&s, 2).unwrap();
        // A completed generation must survive power loss — this is exactly
        // the dir-fsync-after-rename guarantee.
        storage.simulate_power_loss().unwrap();
        let (g, back) = ring.read_latest_intact(1).unwrap();
        assert_eq!((g, back), (1, s));
        fs::remove_dir_all(&dir).ok();
    }
}
