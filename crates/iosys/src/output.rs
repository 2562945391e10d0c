//! Asynchronous output server with a self-healing record path.
//!
//! The model thread posts fields to a bounded channel and keeps
//! integrating; a server thread applies the requested reduction
//! (instantaneous values or running time means) and writes records to
//! disk. Mirrors ICON's asynchronous scheme (§6.4): "Disk I/O takes place
//! concurrently to the model integration … I/O does not appreciably
//! impact tau."
//!
//! ## `.rec` v2 framing (per record, little-endian)
//!
//! ```text
//! magic    b"RC02"
//! time     f64
//! len      u64            number of f64 payload values
//! payload  len * f64
//! crc      u32            CRC-32 of magic..payload
//! ```
//!
//! The trailing CRC makes every record self-validating: a torn append, a
//! flipped bit, or a hostile length is a typed [`OutputError`], never a
//! panic, and [`recover_records`] truncates a damaged stream back to its
//! longest intact prefix. A stream that does not open with the magic is
//! [`OutputError::Corrupt`]: nothing is ever parsed without its checksum.
//!
//! ## Failure policy
//!
//! Diagnostics are *expendable*; the model run is not. Under disk
//! pressure the server **sheds** rather than stalls or dies:
//!
//! * a full queue with [`FullPolicy::Shed`] drops the sample at `post`
//!   time (counted in [`OutputStats::shed_queue_full`]);
//! * a failed append is retried a bounded number of times, with the file
//!   healed back to its intact prefix between attempts; a record that
//!   still cannot be written is shed (`shed_write_failure`) and the
//!   server keeps going;
//! * the server thread never panics on I/O; if it does exit (only when
//!   [`OutputPolicy::give_up_after`] consecutive records fail), the death
//!   surfaces as a typed [`OutputError::ServerDied`] on the next `post`/
//!   `flush` and from `finish` — not as a poisoned `expect`.

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::crc::crc32;
use crate::error::OutputError;
use crate::vfs::{RealFs, Storage};

/// Record frame magic, version 2.
const REC_MAGIC: &[u8; 4] = b"RC02";
/// Frame header bytes: magic + time + len.
const REC_HEADER: usize = 4 + 8 + 8;

/// How the server reduces a stream of samples per variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Write every posted sample.
    Instantaneous,
    /// Accumulate and write the time mean on flush.
    TimeMean,
}

/// One posted field sample.
#[derive(Debug)]
pub struct OutputRequest {
    pub name: &'static str,
    pub time_s: f64,
    pub data: Vec<f64>,
    pub reduction: Reduction,
}

/// What `post` does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FullPolicy {
    /// Block the model thread until the server catches up (back-pressure).
    #[default]
    Block,
    /// Drop the sample and count it — diagnostics never stall the model.
    Shed,
}

/// Retry/shed policy for the output path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputPolicy {
    /// Re-tries per record after the first failed append.
    pub write_retries: u32,
    /// Wait before retry `i` (1-based) is `i * backoff`
    /// ([`Storage::backoff`]: a sleep on [`RealFs`], none on a simulated
    /// device).
    pub backoff: Duration,
    /// Queue-full behavior at `post`.
    pub on_full: FullPolicy,
    /// Consecutive failed *records* after which the server thread gives
    /// up and exits with an error. `None` (default): shed forever.
    pub give_up_after: Option<u32>,
}

impl Default for OutputPolicy {
    fn default() -> OutputPolicy {
        OutputPolicy {
            write_retries: 2,
            backoff: Duration::from_millis(1),
            on_full: FullPolicy::Block,
            give_up_after: None,
        }
    }
}

/// Counters of everything the output path did, for `ResilienceReport`
/// roll-up and post-run assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputStats {
    /// Samples handed to `post` (accepted or shed).
    pub posted: u64,
    /// Records that reached the file (after reduction).
    pub records_written: u64,
    /// Samples dropped at `post` because the queue was full.
    pub shed_queue_full: u64,
    /// Records dropped because every write attempt failed.
    pub shed_write_failure: u64,
    /// Failed appends that were retried.
    pub write_retries: u64,
    /// Times a damaged file was healed back to its intact prefix.
    pub recoveries: u64,
    /// Storage errors observed (appends, fsyncs), including retried ones.
    pub write_errors: u64,
}

/// Whether a `post` was queued or shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    Accepted,
    Shed,
}

enum Msg {
    Sample(OutputRequest),
    Flush,
    Shutdown,
}

/// Handle owned by the model side.
pub struct OutputServer {
    tx: Sender<Msg>,
    handle: Mutex<Option<JoinHandle<Result<(), String>>>>,
    pub dir: PathBuf,
    stats: Arc<Mutex<OutputStats>>,
    deferred: Mutex<Option<String>>,
    on_full: FullPolicy,
}

/// Encode one v2 record frame.
pub fn encode_record(time_s: f64, data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER + data.len() * 8 + 4);
    out.extend_from_slice(REC_MAGIC);
    out.extend_from_slice(&time_s.to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The server thread's writing state: shared storage, policy, stats.
struct Writer {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    policy: OutputPolicy,
    stats: Arc<Mutex<OutputStats>>,
    /// Files appended since the last sync, in first-touch order.
    dirty: Vec<PathBuf>,
    consecutive_failures: u32,
}

impl Writer {
    /// Append one framed record with bounded retry and self-healing.
    /// `Err` only when the give-up threshold is crossed.
    fn write_record(&mut self, name: &str, time_s: f64, data: &[f64]) -> Result<(), String> {
        let path = self.dir.join(format!("{name}.rec"));
        let frame = encode_record(time_s, data);
        let mut attempt = 0u32;
        loop {
            match self.storage.append(&path, &frame) {
                Ok(()) => {
                    self.stats.lock().records_written += 1;
                    self.consecutive_failures = 0;
                    if !self.dirty.contains(&path) {
                        self.dirty.push(path);
                    }
                    return Ok(());
                }
                Err(e) => {
                    self.stats.lock().write_errors += 1;
                    // A torn append may have left a partial frame under
                    // the final name: heal back to the intact prefix
                    // before anything else touches the file.
                    match recover_records_with(self.storage.as_ref(), &self.dir, name) {
                        Ok(r) if r.repaired => self.stats.lock().recoveries += 1,
                        Ok(_) => {}
                        Err(_) => {
                            // Recovery itself failed (storage still down);
                            // count the error, the next attempt or reader
                            // will retry the repair.
                            self.stats.lock().write_errors += 1;
                        }
                    }
                    if attempt < self.policy.write_retries {
                        attempt += 1;
                        self.stats.lock().write_retries += 1;
                        self.storage.backoff(self.policy.backoff * attempt);
                        continue;
                    }
                    // Out of retries: shed this record, keep serving.
                    self.stats.lock().shed_write_failure += 1;
                    self.consecutive_failures += 1;
                    if let Some(limit) = self.policy.give_up_after {
                        if self.consecutive_failures >= limit {
                            return Err(format!(
                                "gave up after {limit} consecutive failed records (last: {e})"
                            ));
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Make everything appended since the last sync durable: fsync each
    /// dirty file, then the directory. Best-effort — a failed sync is
    /// counted, not fatal (the data is still readable, just volatile).
    fn sync(&mut self) {
        for path in std::mem::take(&mut self.dirty) {
            if self.storage.fsync(&path).is_err() {
                self.stats.lock().write_errors += 1;
            }
        }
        if self.storage.fsync_dir(&self.dir).is_err() {
            self.stats.lock().write_errors += 1;
        }
    }
}

impl OutputServer {
    /// Spawn a server writing to `dir` on the real file system with the
    /// default policy. `queue` bounds the in-flight samples
    /// (back-pressure if the disk cannot keep up).
    pub fn spawn(dir: PathBuf, queue: usize) -> std::io::Result<OutputServer> {
        OutputServer::spawn_with(RealFs::shared(), dir, queue, OutputPolicy::default())
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// [`OutputServer::spawn`] over an explicit [`Storage`] backend and
    /// failure policy.
    pub fn spawn_with(
        storage: Arc<dyn Storage>,
        dir: PathBuf,
        queue: usize,
        policy: OutputPolicy,
    ) -> Result<OutputServer, OutputError> {
        storage.create_dir_all(&dir).map_err(|e| OutputError::Io {
            path: dir.clone(),
            source: e,
        })?;
        let (tx, rx) = bounded::<Msg>(queue.max(1));
        let stats = Arc::new(Mutex::new(OutputStats::default()));
        let mut writer = Writer {
            storage,
            dir: dir.clone(),
            policy,
            stats: stats.clone(),
            dirty: Vec::new(),
            consecutive_failures: 0,
        };
        let handle = std::thread::spawn(move || -> Result<(), String> {
            let mut means: HashMap<&'static str, (Vec<f64>, u64)> = HashMap::new();
            let mut last_time = 0.0;
            for msg in rx.iter() {
                match msg {
                    Msg::Sample(s) => {
                        last_time = s.time_s;
                        match s.reduction {
                            Reduction::Instantaneous => {
                                writer.write_record(s.name, s.time_s, &s.data)?;
                            }
                            Reduction::TimeMean => {
                                let e = means
                                    .entry(s.name)
                                    .or_insert_with(|| (vec![0.0; s.data.len()], 0));
                                for (a, b) in e.0.iter_mut().zip(&s.data) {
                                    *a += b;
                                }
                                e.1 += 1;
                            }
                        }
                    }
                    Msg::Flush | Msg::Shutdown => {
                        let mut pending: Vec<(&'static str, (Vec<f64>, u64))> =
                            means.drain().collect();
                        pending.sort_by_key(|(name, _)| *name);
                        for (name, (acc, n)) in pending {
                            if n > 0 {
                                let mean: Vec<f64> =
                                    acc.iter().map(|v| v / n as f64).collect();
                                writer.write_record(name, last_time, &mean)?;
                            }
                        }
                        writer.sync();
                        if matches!(msg, Msg::Shutdown) {
                            break;
                        }
                    }
                }
            }
            Ok(())
        });
        Ok(OutputServer {
            tx,
            handle: Mutex::new(Some(handle)),
            dir,
            stats,
            deferred: Mutex::new(None),
            on_full: policy.on_full,
        })
    }

    /// Counters so far (the server updates them concurrently).
    pub fn stats(&self) -> OutputStats {
        self.stats.lock().clone()
    }

    /// Join a dead server thread and remember why it died. Every later
    /// call sees the same cause.
    fn server_died(&self) -> OutputError {
        let mut deferred = self.deferred.lock();
        if deferred.is_none() {
            let cause = match self.handle.lock().take() {
                Some(h) => match h.join() {
                    Ok(Ok(())) => "server exited cleanly but channel closed".to_string(),
                    Ok(Err(cause)) => cause,
                    Err(_) => "server thread panicked".to_string(),
                },
                None => "server already joined".to_string(),
            };
            *deferred = Some(cause);
        }
        OutputError::ServerDied {
            cause: deferred.clone().unwrap(),
        }
    }

    fn check_deferred(&self) -> Result<(), OutputError> {
        if let Some(cause) = self.deferred.lock().clone() {
            return Err(OutputError::ServerDied { cause });
        }
        Ok(())
    }

    /// Post a sample. With [`FullPolicy::Block`] this blocks while the
    /// queue is full; with [`FullPolicy::Shed`] it returns
    /// [`PostOutcome::Shed`] instead. A dead server is a typed error, not
    /// a panic — and the error that killed it is carried in the variant.
    pub fn post(&self, req: OutputRequest) -> Result<PostOutcome, OutputError> {
        self.check_deferred()?;
        self.stats.lock().posted += 1;
        match self.on_full {
            FullPolicy::Block => match self.tx.send(Msg::Sample(req)) {
                Ok(()) => Ok(PostOutcome::Accepted),
                Err(_) => Err(self.server_died()),
            },
            FullPolicy::Shed => match self.tx.try_send(Msg::Sample(req)) {
                Ok(()) => Ok(PostOutcome::Accepted),
                Err(TrySendError::Full(_)) => {
                    self.stats.lock().shed_queue_full += 1;
                    Ok(PostOutcome::Shed)
                }
                Err(TrySendError::Disconnected(_)) => Err(self.server_died()),
            },
        }
    }

    /// Flush pending time means and fsync everything written so far.
    pub fn flush(&self) -> Result<(), OutputError> {
        self.check_deferred()?;
        match self.tx.send(Msg::Flush) {
            Ok(()) => Ok(()),
            Err(_) => Err(self.server_died()),
        }
    }

    /// Shut down, make the stream durable, and return the final counters.
    /// `Err` only if the server thread died (its cause is the variant) or
    /// panicked — shed records are a *counter*, not an error.
    pub fn finish(self) -> Result<OutputStats, OutputError> {
        let _ = self.tx.send(Msg::Shutdown);
        let handle = self.handle.lock().take();
        match handle {
            Some(h) => match h.join() {
                Ok(Ok(())) => Ok(self.stats.lock().clone()),
                Ok(Err(cause)) => Err(OutputError::ServerDied { cause }),
                Err(_) => Err(OutputError::ServerDied {
                    cause: "server thread panicked".to_string(),
                }),
            },
            None => Err(self.check_deferred().expect_err("handle gone implies deferred cause")),
        }
    }
}

impl Drop for OutputServer {
    fn drop(&mut self) {
        // Best-effort shutdown for handles dropped without `finish`. Any
        // terminal error was already surfaced (or is surfaceable) through
        // the deferred-error path; there is nothing useful to do with it
        // in a destructor.
        if let Some(h) = self.handle.lock().take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = h.join();
        }
    }
}

/// Result of scanning (and possibly repairing) a `.rec` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRecords {
    /// Every intact record, in file order.
    pub records: Vec<(f64, Vec<f64>)>,
    /// Bytes of the longest intact prefix.
    pub intact_bytes: u64,
    /// Damaged/torn bytes beyond the intact prefix.
    pub dropped_bytes: u64,
    /// Whether the file was rewritten to drop the damaged tail.
    pub repaired: bool,
}

/// Parse one v2 frame at `off`. `Ok(None)` ends an exactly-consumed file.
fn parse_frame(
    path: &Path,
    bytes: &[u8],
    off: usize,
) -> Result<Option<(f64, Vec<f64>, usize)>, OutputError> {
    if off == bytes.len() {
        return Ok(None);
    }
    let rest = &bytes[off..];
    // Magic first, on however much of it is there: anything that is not
    // (the start of) a frame is corrupt, however short.
    let magic = &rest[..rest.len().min(4)];
    if !REC_MAGIC.starts_with(magic) {
        return Err(OutputError::Corrupt {
            path: path.to_path_buf(),
            offset: off as u64,
            context: format!("bad record magic {magic:02x?}"),
        });
    }
    if rest.len() < REC_HEADER + 4 {
        return Err(OutputError::Truncated {
            path: path.to_path_buf(),
            offset: off as u64,
            context: "record header",
        });
    }
    let time = f64::from_le_bytes(rest[4..12].try_into().unwrap());
    let len = u64::from_le_bytes(rest[12..20].try_into().unwrap());
    // Compared against the room left, so a hostile length cannot overflow.
    let payload_bytes = match (len as usize).checked_mul(8) {
        Some(b) if b <= rest.len() - (REC_HEADER + 4) => b,
        _ => {
            return Err(OutputError::Truncated {
                path: path.to_path_buf(),
                offset: off as u64,
                context: "record payload",
            })
        }
    };
    let frame_end = REC_HEADER + payload_bytes;
    let stored = u32::from_le_bytes(rest[frame_end..frame_end + 4].try_into().unwrap());
    let computed = crc32(&rest[..frame_end]);
    if stored != computed {
        return Err(OutputError::ChecksumMismatch {
            path: path.to_path_buf(),
            offset: off as u64,
            stored,
            computed,
        });
    }
    let data: Vec<f64> = rest[REC_HEADER..frame_end]
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    Ok(Some((time, data, off + frame_end + 4)))
}

/// Read back all records of a variable: `(time, data)` pairs. Strict: any
/// damage anywhere in the stream is a typed [`OutputError`] (use
/// [`recover_records`] to salvage the intact prefix instead).
pub fn read_records(dir: &Path, name: &str) -> Result<Vec<(f64, Vec<f64>)>, OutputError> {
    read_records_with(&RealFs, dir, name)
}

/// [`read_records`] over an explicit [`Storage`] backend.
pub fn read_records_with(
    storage: &dyn Storage,
    dir: &Path,
    name: &str,
) -> Result<Vec<(f64, Vec<f64>)>, OutputError> {
    let path = dir.join(format!("{name}.rec"));
    let bytes = storage.read(&path).map_err(|e| OutputError::Io {
        path: path.clone(),
        source: e,
    })?;
    let mut out = Vec::new();
    let mut off = 0;
    while let Some((time, data, next)) = parse_frame(&path, &bytes, off)? {
        out.push((time, data));
        off = next;
    }
    Ok(out)
}

/// Salvage a possibly-damaged `.rec` stream: walk records until the first
/// damage, return every intact record, and — if there was a damaged tail
/// — rewrite the file down to the intact prefix so later appends produce
/// a clean stream again. A missing file is an empty, intact stream.
pub fn recover_records(dir: &Path, name: &str) -> Result<RecoveredRecords, OutputError> {
    recover_records_with(&RealFs, dir, name)
}

/// [`recover_records`] over an explicit [`Storage`] backend.
pub fn recover_records_with(
    storage: &dyn Storage,
    dir: &Path,
    name: &str,
) -> Result<RecoveredRecords, OutputError> {
    let path = dir.join(format!("{name}.rec"));
    let bytes = match storage.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(RecoveredRecords {
                records: Vec::new(),
                intact_bytes: 0,
                dropped_bytes: 0,
                repaired: false,
            })
        }
        Err(e) => return Err(OutputError::Io { path, source: e }),
    };
    let mut records = Vec::new();
    let mut off = 0;
    // Stops at the end or at the first damage: everything from `off` on
    // is dropped.
    while let Ok(Some((time, data, next))) = parse_frame(&path, &bytes, off) {
        records.push((time, data));
        off = next;
    }
    let dropped = (bytes.len() - off) as u64;
    let mut repaired = false;
    if dropped > 0 {
        storage
            .write(&path, &bytes[..off])
            .and_then(|_| storage.fsync(&path))
            .map_err(|e| OutputError::Io {
                path: path.clone(),
                source: e,
            })?;
        repaired = true;
    }
    Ok(RecoveredRecords {
        records,
        intact_bytes: off as u64,
        dropped_bytes: dropped,
        repaired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restart::scratch_dir;
    use crate::vfs::{FaultFs, StorageFault};
    use std::fs;

    #[test]
    fn instantaneous_records_roundtrip() {
        let dir = scratch_dir("out_inst");
        let srv = OutputServer::spawn(dir.clone(), 8).unwrap();
        for step in 0..5 {
            srv.post(OutputRequest {
                name: "sst",
                time_s: step as f64 * 600.0,
                data: vec![step as f64; 10],
                reduction: Reduction::Instantaneous,
            })
            .unwrap();
        }
        let stats = srv.finish().unwrap();
        assert_eq!(stats.records_written, 5);
        assert_eq!(stats.posted, 5);
        assert_eq!(stats.shed_queue_full + stats.shed_write_failure, 0);
        let recs = read_records(&dir, "sst").unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[3].0, 1800.0);
        assert_eq!(recs[3].1, vec![3.0; 10]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn time_mean_reduces_before_writing() {
        let dir = scratch_dir("out_mean");
        let srv = OutputServer::spawn(dir.clone(), 8).unwrap();
        for step in 0..4 {
            srv.post(OutputRequest {
                name: "precip",
                time_s: step as f64,
                data: vec![step as f64, 2.0 * step as f64],
                reduction: Reduction::TimeMean,
            })
            .unwrap();
        }
        let stats = srv.finish().unwrap();
        assert_eq!(stats.records_written, 1, "one mean record");
        let recs = read_records(&dir, "precip").unwrap();
        assert_eq!(recs.len(), 1);
        // Mean of 0..=3 is 1.5.
        assert_eq!(recs[0].1, vec![1.5, 3.0]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_thread_is_not_blocked_by_io() {
        // Posting is asynchronous: many posts complete quickly while the
        // server drains concurrently.
        let dir = scratch_dir("out_async");
        let srv = OutputServer::spawn(dir.clone(), 64).unwrap();
        let t0 = std::time::Instant::now();
        for step in 0..50 {
            srv.post(OutputRequest {
                name: "field",
                time_s: step as f64,
                data: vec![0.5; 4096],
                reduction: Reduction::Instantaneous,
            })
            .unwrap();
        }
        let post_time = t0.elapsed();
        let stats = srv.finish().unwrap();
        assert_eq!(stats.records_written, 50);
        // All records landed even though posting returned fast.
        let recs = read_records(&dir, "field").unwrap();
        assert_eq!(recs.len(), 50);
        assert!(post_time.as_secs_f64() < 5.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_emits_partial_means() {
        let dir = scratch_dir("out_flush");
        let srv = OutputServer::spawn(dir.clone(), 8).unwrap();
        srv.post(OutputRequest {
            name: "x",
            time_s: 0.0,
            data: vec![2.0],
            reduction: Reduction::TimeMean,
        })
        .unwrap();
        srv.flush().unwrap();
        srv.post(OutputRequest {
            name: "x",
            time_s: 1.0,
            data: vec![6.0],
            reduction: Reduction::TimeMean,
        })
        .unwrap();
        let stats = srv.finish().unwrap();
        assert_eq!(stats.records_written, 2);
        let recs = read_records(&dir, "x").unwrap();
        assert_eq!(recs[0].1, vec![2.0]);
        assert_eq!(recs[1].1, vec![6.0]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_v2_tail_is_a_typed_error_not_a_panic() {
        let dir = scratch_dir("out_trunc2");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = encode_record(1.0, &[1.0, 2.0, 3.0]);
        bytes.extend_from_slice(&encode_record(2.0, &[4.0, 5.0, 6.0]));
        let full = bytes.len();
        for cut in [full - 1, full - 10, full / 2 + 1] {
            fs::write(dir.join("v.rec"), &bytes[..cut]).unwrap();
            let err = read_records(&dir, "v").unwrap_err();
            assert!(
                matches!(
                    err,
                    OutputError::Truncated { .. } | OutputError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err:?}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frameless_streams_and_hostile_lengths_are_typed_errors_not_panics() {
        let dir = scratch_dir("out_trunc1");
        fs::create_dir_all(&dir).unwrap();
        // The retired v1 layout: time | len | payload, no magic, no CRC.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        for v in [1.0f64, 2.0, 3.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        fs::write(dir.join("v.rec"), &bytes).unwrap();
        // Never parsed without a checksum: bad magic at the first byte.
        match read_records(&dir, "v") {
            Err(OutputError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Recovery salvages the intact prefix — here, nothing.
        let rec = recover_records(&dir, "v").unwrap();
        assert!(rec.records.is_empty());
        assert_eq!((rec.intact_bytes, rec.dropped_bytes), (0, bytes.len() as u64));
        // Shorter than a frame header and still not a frame: Corrupt, not
        // Truncated.
        fs::write(dir.join("v.rec"), &bytes[..8]).unwrap();
        assert!(matches!(read_records(&dir, "v"), Err(OutputError::Corrupt { offset: 0, .. })));
        // Hostile lengths: u64::MAX overflows `len * 8`; usize::MAX / 8
        // survives that and would overflow the frame end instead.
        for len in [u64::MAX, (usize::MAX / 8) as u64] {
            let mut hostile = Vec::new();
            hostile.extend_from_slice(REC_MAGIC);
            hostile.extend_from_slice(&0.0f64.to_le_bytes());
            hostile.extend_from_slice(&len.to_le_bytes());
            hostile.extend_from_slice(&[0u8; 4]);
            fs::write(dir.join("v.rec"), &hostile).unwrap();
            match read_records(&dir, "v") {
                Err(OutputError::Truncated { context, .. }) => {
                    assert_eq!(context, "record payload", "len {len}")
                }
                other => panic!("len {len}: expected Truncated, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_records_truncates_to_last_intact_record() {
        let dir = scratch_dir("out_recover");
        fs::create_dir_all(&dir).unwrap();
        let r1 = encode_record(1.0, &[1.0, 2.0]);
        let r2 = encode_record(2.0, &[3.0, 4.0]);
        let r3 = encode_record(3.0, &[5.0, 6.0]);
        let mut bytes = [r1.clone(), r2.clone(), r3.clone()].concat();
        // Tear the third record short.
        bytes.truncate(r1.len() + r2.len() + r3.len() - 5);
        fs::write(dir.join("v.rec"), &bytes).unwrap();

        let rec = recover_records(&dir, "v").unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[1], (2.0, vec![3.0, 4.0]));
        assert!(rec.repaired);
        assert_eq!(rec.intact_bytes, (r1.len() + r2.len()) as u64);
        assert_eq!(rec.dropped_bytes, (r3.len() - 5) as u64);

        // The file is clean again: strict read succeeds, a new append
        // lands as record 3.
        assert_eq!(read_records(&dir, "v").unwrap().len(), 2);
        let mut after = fs::read(dir.join("v.rec")).unwrap();
        after.extend_from_slice(&r3);
        fs::write(dir.join("v.rec"), &after).unwrap();
        assert_eq!(read_records(&dir, "v").unwrap().len(), 3);

        // Recovering an intact or missing stream is a no-op.
        let rec = recover_records(&dir, "v").unwrap();
        assert!(!rec.repaired);
        assert_eq!(rec.records.len(), 3);
        let rec = recover_records(&dir, "absent").unwrap();
        assert_eq!(rec, RecoveredRecords {
            records: Vec::new(),
            intact_bytes: 0,
            dropped_bytes: 0,
            repaired: false,
        });
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_is_healed_and_retried() {
        let dir = scratch_dir("out_heal");
        let storage = Arc::new(
            FaultFs::new()
                .fault(StorageFault::TornWrite { nth_write: 2, keep: 7 })
                .fault(StorageFault::TransientIo { nth_write: 4 }),
        );
        let srv = OutputServer::spawn_with(
            storage.clone(),
            dir.clone(),
            8,
            OutputPolicy {
                write_retries: 3,
                backoff: Duration::from_micros(100),
                ..OutputPolicy::default()
            },
        )
        .unwrap();
        for step in 0..4 {
            srv.post(OutputRequest {
                name: "sst",
                time_s: step as f64,
                data: vec![step as f64; 8],
                reduction: Reduction::Instantaneous,
            })
            .unwrap();
        }
        let stats = srv.finish().unwrap();
        assert_eq!(stats.records_written, 4, "both faults absorbed");
        assert_eq!(stats.shed_write_failure, 0);
        assert!(stats.write_retries >= 2, "{stats:?}");
        assert!(stats.recoveries >= 1, "torn append healed: {stats:?}");
        let recs = read_records(&dir, "sst").unwrap();
        assert_eq!(recs.len(), 4, "stream is clean despite the torn append");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sustained_disk_pressure_sheds_instead_of_dying() {
        let dir = scratch_dir("out_shed");
        // Every write fails from the first one on.
        let storage = Arc::new(FaultFs::new().fault(StorageFault::NoSpace { nth_write: 1 }));
        let srv = OutputServer::spawn_with(
            storage,
            dir.clone(),
            8,
            OutputPolicy {
                write_retries: 1,
                backoff: Duration::from_micros(100),
                ..OutputPolicy::default()
            },
        )
        .unwrap();
        for step in 0..5 {
            srv.post(OutputRequest {
                name: "sst",
                time_s: step as f64,
                data: vec![1.0],
                reduction: Reduction::Instantaneous,
            })
            .unwrap();
        }
        let stats = srv.finish().unwrap();
        assert_eq!(stats.records_written, 0);
        assert_eq!(stats.shed_write_failure, 5, "every record shed, server alive");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_server_is_a_typed_error_with_the_original_cause() {
        let dir = scratch_dir("out_dead");
        let storage = Arc::new(FaultFs::new().fault(StorageFault::NoSpace { nth_write: 1 }));
        let srv = OutputServer::spawn_with(
            storage,
            dir.clone(),
            2,
            OutputPolicy {
                write_retries: 0,
                backoff: Duration::ZERO,
                give_up_after: Some(1),
                ..OutputPolicy::default()
            },
        )
        .unwrap();
        // First post kills the server (give_up_after = 1); keep posting
        // until the death is observed — never a panic.
        let mut died = None;
        for step in 0..50 {
            match srv.post(OutputRequest {
                name: "sst",
                time_s: step as f64,
                data: vec![1.0],
                reduction: Reduction::Instantaneous,
            }) {
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => {
                    died = Some(e);
                    break;
                }
            }
        }
        let err = died.expect("server death must surface through post");
        match &err {
            OutputError::ServerDied { cause } => {
                assert!(cause.contains("gave up"), "cause carries the I/O error: {cause}")
            }
            other => panic!("expected ServerDied, got {other:?}"),
        }
        // And it is sticky: flush and finish report the same death.
        assert!(matches!(srv.flush(), Err(OutputError::ServerDied { .. })));
        assert!(matches!(srv.finish(), Err(OutputError::ServerDied { .. })));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shed_policy_drops_when_queue_is_full() {
        let dir = scratch_dir("out_full");
        // A server that cannot drain: every append blocks on retry with
        // long backoff. Simpler: tiny queue + many fast posts; some must
        // shed without ever blocking the poster.
        let srv = OutputServer::spawn_with(
            RealFs::shared(),
            dir.clone(),
            1,
            OutputPolicy {
                on_full: FullPolicy::Shed,
                ..OutputPolicy::default()
            },
        )
        .unwrap();
        let mut shed = 0;
        for step in 0..200 {
            match srv
                .post(OutputRequest {
                    name: "f",
                    time_s: step as f64,
                    data: vec![0.0; 4096],
                    reduction: Reduction::Instantaneous,
                })
                .unwrap()
            {
                PostOutcome::Accepted => {}
                PostOutcome::Shed => shed += 1,
            }
        }
        let stats = srv.finish().unwrap();
        assert_eq!(stats.shed_queue_full, shed);
        assert_eq!(stats.records_written + stats.shed_queue_full, 200);
        let recs = read_records(&dir, "f").unwrap();
        assert_eq!(recs.len() as u64, stats.records_written);
        fs::remove_dir_all(&dir).ok();
    }
}
