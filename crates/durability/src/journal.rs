//! The write-ahead journal: append, fsync policy, checkpoint, seal.

use crate::error::{DurabilityError, Result};
use crate::frame::{self, HEADER_LEN};
use crate::record::{self, JournalRecord};
use cubefit_core::Placement;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File name of the write-ahead log inside a journal directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint inside a journal directory: the log's file
/// header, then exactly one frame whose `seq` is the covered sequence
/// number and whose payload is the snapshot, each live tenant as an
/// ordinary [`JournalRecord::Place`].
pub const CHECKPOINT_FILE: &str = "checkpoint.log";

/// When appended frames are forced to stable storage.
///
/// Checkpoints and seals always fsync regardless of policy — only the
/// per-append cost is tunable. `Never` bounds loss to the OS page cache
/// (a *process* crash loses nothing; only a machine crash can), which is
/// the right trade for soak benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: at most zero acknowledged mutations are
    /// lost to a machine crash.
    Always,
    /// Fsync every N appends: bounded loss window, amortized cost.
    Interval(u64),
    /// Never fsync on append (the OS flushes when it likes).
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `interval:N`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything else.
    pub fn parse(text: &str) -> std::result::Result<Self, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => {
                if let Some(n) = other.strip_prefix("interval:") {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("--fsync interval:N needs an integer, got {n:?}"))?;
                    if n == 0 {
                        return Err("--fsync interval:N needs N >= 1".to_owned());
                    }
                    Ok(FsyncPolicy::Interval(n))
                } else {
                    Err(format!("--fsync expects always|interval:N|never, got {other:?}"))
                }
            }
        }
    }

    /// The string [`FsyncPolicy::parse`] accepts for this policy.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_owned(),
            FsyncPolicy::Interval(n) => format!("interval:{n}"),
            FsyncPolicy::Never => "never".to_owned(),
        }
    }
}

/// What a checkpoint retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Highest journal sequence number the checkpoint covers.
    pub seq: u64,
    /// Write-ahead-log payload bytes the checkpoint truncated away.
    pub wal_bytes: u64,
}

#[derive(Debug)]
struct JournalInner {
    dir: PathBuf,
    wal: File,
    gamma: usize,
    policy: FsyncPolicy,
    /// Last sequence number assigned (0 = nothing journaled yet).
    seq: u64,
    appends_since_sync: u64,
    wal_bytes: u64,
    /// Frame bytes ever appended — monotonic, unlike `wal_bytes`, which
    /// checkpoint truncation resets.
    appended_bytes: u64,
    sealed: bool,
    /// Reused serialization buffers: one frame is appended per
    /// acknowledged mutation, so the hot path must not allocate.
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

/// A shared handle to one journal directory. Clones share the underlying
/// log (and its mutex), so a harness can hand the journal to a wrapper
/// consolidator and still checkpoint/seal it from the outside.
#[derive(Debug, Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

impl Journal {
    /// Starts a **fresh** journal in `dir` (created if missing): a new
    /// write-ahead log containing only the header, and no checkpoint. Any
    /// previous journal in the directory is discarded — recover it first
    /// if it matters.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Unsupported`] for γ < 2 (recovery refuses a log
    /// whose header declares γ < 2, the paper's replication floor, so such
    /// a journal could never be read back), and I/O errors creating the
    /// files.
    pub fn create(dir: impl AsRef<Path>, gamma: usize, policy: FsyncPolicy) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if gamma < 2 {
            return Err(DurabilityError::Unsupported {
                detail: format!("journaling requires γ ≥ 2 (replication floor), got {gamma}"),
            });
        }
        fs::create_dir_all(&dir).map_err(|e| DurabilityError::io(&dir, &e))?;
        let checkpoint = dir.join(CHECKPOINT_FILE);
        if checkpoint.exists() {
            fs::remove_file(&checkpoint).map_err(|e| DurabilityError::io(&checkpoint, &e))?;
        }
        let wal = fresh_log(&dir, gamma)?;
        Ok(Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                dir,
                wal,
                gamma,
                policy,
                seq: 0,
                appends_since_sync: 0,
                wal_bytes: HEADER_LEN as u64,
                appended_bytes: 0,
                sealed: false,
                payload_buf: Vec::new(),
                frame_buf: Vec::new(),
            })),
        })
    }

    /// Appends one record as a checksummed frame, fsyncing per the
    /// policy. Returns the sequence number the frame was journaled under.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Sealed`] after [`Journal::seal`], and I/O
    /// failures (the caller must treat the mutation as not durable).
    pub fn append(&self, record: &JournalRecord) -> Result<u64> {
        let mut inner = self.lock();
        if inner.sealed {
            return Err(DurabilityError::Sealed);
        }
        inner.write_record(record)
    }

    /// Takes a checkpoint of `placement`: writes the snapshot atomically
    /// (temp file + fsync + rename + directory fsync), then swaps in a
    /// fresh header-only log the same way. Recovery loads the snapshot and
    /// replays only frames newer than it, so a crash anywhere in this
    /// sequence is safe.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Sealed`] after [`Journal::seal`]: the fresh log
    /// would drop the seal frame, and recovery would read the orderly
    /// shutdown as a crash. I/O failures; the previous checkpoint/log stay
    /// recoverable.
    pub fn checkpoint(&self, placement: &Placement) -> Result<CheckpointInfo> {
        let mut inner = self.lock();
        if inner.sealed {
            return Err(DurabilityError::Sealed);
        }
        // 1. The snapshot, atomically. The WAL itself is *not* synced
        //    first: every frame the log holds is ≤ the checkpoint's seq,
        //    so once the snapshot is durable those frames are covered by
        //    it — replay never reads them. Skipping the sync avoids a
        //    full writeback of the retiring log on every checkpoint.
        let seq = inner.seq;
        inner.payload_buf.clear();
        record::encode_checkpoint(&mut inner.payload_buf, placement);
        let mut file = frame::encode_header(inner.gamma).to_vec();
        frame::encode_frame_into(&mut file, seq, &inner.payload_buf);
        let checkpoint_path = inner.dir.join(CHECKPOINT_FILE);
        cubefit_core::write_atomic(&checkpoint_path, file)
            .map_err(|e| DurabilityError::io(&checkpoint_path, &e))?;
        // 2. A fresh header-only log. The old frames are all ≤ the
        //    checkpoint's seq, so losing them is the point; keeping them
        //    (crash before the rename) is also fine — replay skips them.
        inner.wal = fresh_log(&inner.dir, inner.gamma)?;
        let retired = inner.wal_bytes - HEADER_LEN as u64;
        inner.wal_bytes = HEADER_LEN as u64;
        // The durable snapshot covers every frame appended so far, so the
        // fsync-policy loss window restarts here.
        inner.appends_since_sync = 0;
        Ok(CheckpointInfo { seq, wal_bytes: retired })
    }

    /// Seals the journal: appends the clean-shutdown marker and fsyncs
    /// everything, regardless of policy. Idempotent — sealing twice is a
    /// no-op. Further appends fail with [`DurabilityError::Sealed`].
    ///
    /// # Errors
    ///
    /// I/O failures writing or syncing the marker.
    pub fn seal(&self) -> Result<()> {
        let mut inner = self.lock();
        if inner.sealed {
            return Ok(());
        }
        inner.write_record(&JournalRecord::Seal)?;
        let wal_path = inner.dir.join(WAL_FILE);
        inner.wal.sync_all().map_err(|e| DurabilityError::io(&wal_path, &e))?;
        inner.sealed = true;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// The underlying fsync failure.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.lock();
        let wal_path = inner.dir.join(WAL_FILE);
        inner.wal.sync_all().map_err(|e| DurabilityError::io(&wal_path, &e))?;
        inner.appends_since_sync = 0;
        Ok(())
    }

    /// Last sequence number assigned (0 before the first append).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.lock().seq
    }

    /// Bytes in the current write-ahead log, header included.
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.lock().wal_bytes
    }

    /// Frame bytes ever appended across the journal's lifetime —
    /// monotonic where [`Journal::wal_bytes`] resets at each checkpoint
    /// truncation, so it measures journaling write volume (bytes per
    /// mutation) rather than the current log size.
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.lock().appended_bytes
    }

    /// Whether [`Journal::seal`] ran.
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.lock().sealed
    }

    /// Replication factor the journal was created for.
    #[must_use]
    pub fn gamma(&self) -> usize {
        self.lock().gamma
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> PathBuf {
        self.lock().dir.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        // A poisoned mutex means another thread panicked mid-append; the
        // in-memory bookkeeping is still sound (writes are single calls),
        // so continue rather than cascading the panic.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Installs a header-only `wal.log` in `dir` with
/// [`cubefit_core::write_atomic`], so the directory entry is durable too,
/// and returns the handle it wrote through, positioned for appending. On
/// failure the previous log is still in place.
fn fresh_log(dir: &Path, gamma: usize) -> Result<File> {
    let wal_path = dir.join(WAL_FILE);
    cubefit_core::write_atomic(&wal_path, frame::encode_header(gamma))
        .map_err(|e| DurabilityError::io(&wal_path, &e))
}

impl JournalInner {
    fn write_record(&mut self, record: &JournalRecord) -> Result<u64> {
        let seq = self.seq + 1;
        self.payload_buf.clear();
        record.encode(&mut self.payload_buf);
        self.frame_buf.clear();
        frame::encode_frame_into(&mut self.frame_buf, seq, &self.payload_buf);
        self.wal
            .write_all(&self.frame_buf)
            .map_err(|e| DurabilityError::io(self.dir.join(WAL_FILE), &e))?;
        self.seq = seq;
        self.wal_bytes += self.frame_buf.len() as u64;
        self.appended_bytes += self.frame_buf.len() as u64;
        self.appends_since_sync += 1;
        let sync_due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if sync_due {
            self.wal.sync_data().map_err(|e| DurabilityError::io(self.dir.join(WAL_FILE), &e))?;
            self.appends_since_sync = 0;
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cubefit-journal-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fsync_policy_parses_and_labels() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("interval:64").unwrap(), FsyncPolicy::Interval(64));
        for bad in ["interval:0", "interval:x", "sometimes", ""] {
            assert!(FsyncPolicy::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        for policy in [FsyncPolicy::Always, FsyncPolicy::Interval(7), FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(&policy.label()).unwrap(), policy);
        }
    }

    #[test]
    fn create_append_seal_lifecycle() {
        let dir = tmp_dir("lifecycle");
        let journal = Journal::create(&dir, 2, FsyncPolicy::Always).unwrap();
        assert_eq!(journal.last_seq(), 0);
        assert_eq!(journal.gamma(), 2);
        let seq = journal
            .append(&JournalRecord::Place {
                tenant: 1,
                load: 0.25,
                servers: vec![0, 1],
                servers_after: 2,
            })
            .unwrap();
        assert_eq!(seq, 1);
        assert_eq!(journal.append(&JournalRecord::Remove { tenant: 1 }).unwrap(), 2);
        journal.seal().unwrap();
        journal.seal().unwrap(); // idempotent
        assert!(journal.is_sealed());
        assert_eq!(
            journal.append(&JournalRecord::Remove { tenant: 2 }).unwrap_err(),
            DurabilityError::Sealed
        );
        // The log on disk holds the header plus three frames (incl. Seal).
        let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(frame::parse_header(&bytes).unwrap(), 2);
        assert!(bytes.len() as u64 == journal.wal_bytes());
    }

    #[test]
    fn rejects_gamma_below_two() {
        let err = Journal::create(tmp_dir("gamma1"), 1, FsyncPolicy::Never).unwrap_err();
        assert!(matches!(err, DurabilityError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn checkpoint_truncates_the_log_and_records_the_seq() {
        let dir = tmp_dir("checkpoint");
        let journal = Journal::create(&dir, 2, FsyncPolicy::Never).unwrap();
        let mut placement = Placement::new(2);
        let a = placement.open_bin(None);
        let b = placement.open_bin(None);
        placement
            .place_tenant(
                &cubefit_core::Tenant::new(
                    cubefit_core::TenantId::new(1),
                    cubefit_core::Load::new(0.25).unwrap(),
                ),
                &[a, b],
            )
            .unwrap();
        journal
            .append(&JournalRecord::Place {
                tenant: 1,
                load: 0.25,
                servers: vec![0, 1],
                servers_after: 2,
            })
            .unwrap();
        let before = journal.wal_bytes();
        assert!(before > HEADER_LEN as u64);
        let info = journal.checkpoint(&placement).unwrap();
        assert_eq!(info.seq, 1);
        assert_eq!(info.wal_bytes, before - HEADER_LEN as u64);
        assert_eq!(journal.wal_bytes(), HEADER_LEN as u64, "log truncated to a bare header");
        let state = crate::recover::recover(&dir).unwrap();
        assert_eq!((state.checkpoint_seq, state.frames_replayed), (1, 0));
        assert_eq!(state.placement.tenant_count(), 1);
        // Appends continue with the global sequence, into the fresh log.
        assert_eq!(journal.append(&JournalRecord::Remove { tenant: 1 }).unwrap(), 2);
        let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        let frame::FrameParse::Frame { seq, .. } = frame::next_frame(&bytes, HEADER_LEN) else {
            panic!("fresh log must hold the post-checkpoint frame");
        };
        assert_eq!(seq, 2);
    }

    #[test]
    fn checkpoint_after_seal_is_refused_and_keeps_the_seal() {
        let dir = tmp_dir("sealed-checkpoint");
        let journal = Journal::create(&dir, 2, FsyncPolicy::Never).unwrap();
        journal
            .append(&JournalRecord::Place {
                tenant: 1,
                load: 0.25,
                servers: vec![0, 1],
                servers_after: 2,
            })
            .unwrap();
        journal.seal().unwrap();
        assert_eq!(journal.checkpoint(&Placement::new(2)).unwrap_err(), DurabilityError::Sealed);
        let state = crate::recover::recover(&dir).unwrap();
        assert!(state.sealed, "an orderly shutdown must not read as a crash");
        assert_eq!(state.last_seq, 2);
    }

    #[test]
    fn create_discards_a_previous_journal() {
        let dir = tmp_dir("fresh");
        let journal = Journal::create(&dir, 2, FsyncPolicy::Never).unwrap();
        journal
            .append(&JournalRecord::Place {
                tenant: 1,
                load: 0.5,
                servers: vec![0, 1],
                servers_after: 2,
            })
            .unwrap();
        journal.checkpoint(&Placement::new(2)).unwrap();
        drop(journal);
        let journal = Journal::create(&dir, 3, FsyncPolicy::Never).unwrap();
        assert_eq!(journal.last_seq(), 0);
        assert!(!dir.join(CHECKPOINT_FILE).exists(), "stale checkpoint must be removed");
        let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(frame::parse_header(&bytes).unwrap(), 3);
        assert_eq!(bytes.len(), HEADER_LEN);
    }
}
