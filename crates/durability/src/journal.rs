//! The write-ahead journal: append, fsync policy, checkpoint, seal.

use crate::error::{DurabilityError, Result};
use crate::frame::{self, HEADER_LEN};
use crate::record::JournalRecord;
use cubefit_core::{Placement, PlacementDump};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File name of the write-ahead log inside a journal directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint inside a journal directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

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

/// On-disk checkpoint format: the snapshot plus the journal sequence
/// number it covers. Frames with `seq ≤` this are skipped on replay, so
/// a crash between writing the checkpoint and truncating the log recovers
/// correctly in every interleaving.
///
/// The file holds the compact JSON, then a trailer line with the JSON's
/// CRC-32 as eight lowercase hex digits ([`CheckpointFile::encode`]), so
/// damage that still parses — a flipped digit in `seq` would skip live
/// frames as already folded — is refused instead of trusted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct CheckpointFile {
    /// Highest sequence number folded into the snapshot.
    pub seq: u64,
    /// The placement snapshot.
    pub dump: PlacementDump,
}

/// Bytes of the checksum trailer: `\n`, eight hex digits, `\n`.
const CHECKPOINT_TRAILER_LEN: usize = 10;

impl CheckpointFile {
    /// The on-disk bytes: [`Self::to_compact_json`] plus the CRC trailer.
    pub(crate) fn encode(&self) -> String {
        let mut out = self.to_compact_json();
        let crc = frame::crc32(out.as_bytes());
        out.push_str(&format!("\n{crc:08x}\n"));
        out
    }

    /// Parses [`Self::encode`]'s output.
    ///
    /// # Errors
    ///
    /// Describes a missing or mismatched checksum trailer, or JSON that
    /// does not deserialize.
    pub(crate) fn decode(bytes: &[u8]) -> std::result::Result<Self, String> {
        let (json, trailer) = bytes.split_at(bytes.len().saturating_sub(CHECKPOINT_TRAILER_LEN));
        let computed = format!("\n{:08x}\n", frame::crc32(json));
        if trailer != computed.as_bytes() {
            let stored = std::str::from_utf8(trailer).map(str::trim).unwrap_or_default();
            return Err(if stored.len() == 8 && stored.bytes().all(|b| b.is_ascii_hexdigit()) {
                format!("checksum mismatch (stored {stored}, computed {})", computed.trim())
            } else {
                "missing checksum trailer".to_owned()
            });
        }
        let json = std::str::from_utf8(json).map_err(|e| e.to_string())?;
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// The exact compact JSON [`serde_json::to_string`] produces
    /// (byte-for-byte; enforced by test). Checkpoints serialize the whole
    /// placement at every stride, so this skips the `Value` tree the
    /// generic serializer builds — on a few-hundred-tenant placement that
    /// tree costs more than the fsyncs the checkpoint performs.
    pub(crate) fn to_compact_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.dump.tenants.len() * 64);
        let _ = write!(
            &mut out,
            "{{\"seq\":{},\"dump\":{{\"gamma\":{},\"servers\":{},\"tenants\":[",
            self.seq, self.dump.gamma, self.dump.servers
        );
        for (i, entry) in self.dump.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(&mut out, "{{\"tenant\":{},\"load\":", entry.tenant);
            crate::record::push_f64(&mut out, entry.load);
            out.push_str(",\"servers\":");
            crate::record::push_usize_array(&mut out, &entry.servers);
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
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
    /// [`DurabilityError::Unsupported`] for γ < 2 (the checkpoint format
    /// rebuilds through [`PlacementDump::to_placement`], which enforces
    /// the paper's replication floor), and I/O errors creating the files.
    pub fn create(dir: impl AsRef<Path>, gamma: usize, policy: FsyncPolicy) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if gamma < 2 {
            return Err(DurabilityError::Unsupported {
                detail: format!("journaling requires γ ≥ 2 (checkpoint format floor), got {gamma}"),
            });
        }
        fs::create_dir_all(&dir).map_err(|e| DurabilityError::io(&dir, &e))?;
        let checkpoint = dir.join(CHECKPOINT_FILE);
        if checkpoint.exists() {
            fs::remove_file(&checkpoint).map_err(|e| DurabilityError::io(&checkpoint, &e))?;
        }
        let wal_path = dir.join(WAL_FILE);
        let mut wal = File::create(&wal_path).map_err(|e| DurabilityError::io(&wal_path, &e))?;
        wal.write_all(&frame::encode_header(gamma))
            .and_then(|()| wal.sync_all())
            .map_err(|e| DurabilityError::io(&wal_path, &e))?;
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
    /// (temp file + fsync + rename), then truncates the log to a fresh
    /// header. Recovery loads the snapshot and replays only frames newer
    /// than it, so a crash anywhere in this sequence is safe.
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
        let dir = inner.dir.clone();
        let wal_path = dir.join(WAL_FILE);
        // 1. The snapshot, atomically. The WAL itself is *not* synced
        //    first: every frame the log holds is ≤ the checkpoint's seq,
        //    so once the snapshot is durable those frames are covered by
        //    it — replay never reads them. Skipping the sync avoids a
        //    full writeback of the retiring log on every checkpoint.
        let file =
            CheckpointFile { seq: inner.seq, dump: PlacementDump::from_placement(placement) };
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        cubefit_core::write_atomic(&checkpoint_path, file.encode())
            .map_err(|e| DurabilityError::io(&checkpoint_path, &e))?;
        // 2. A fresh header-only log, swapped in atomically. The old
        //    frames are all ≤ the checkpoint's seq, so losing them is the
        //    point; keeping them (crash before the rename) is also fine —
        //    replay skips them.
        let tmp = dir.join(format!(".{WAL_FILE}.{}.tmp", std::process::id()));
        let mut fresh = File::create(&tmp).map_err(|e| DurabilityError::io(&tmp, &e))?;
        fresh
            .write_all(&frame::encode_header(inner.gamma))
            .and_then(|()| fresh.sync_all())
            .and_then(|()| fs::rename(&tmp, &wal_path))
            .map_err(|e| {
                let _ = fs::remove_file(&tmp);
                DurabilityError::io(&wal_path, &e)
            })?;
        let retired = inner.wal_bytes - HEADER_LEN as u64;
        inner.wal = fresh;
        inner.wal_bytes = HEADER_LEN as u64;
        // The durable snapshot covers every frame appended so far, so the
        // fsync-policy loss window restarts here.
        inner.appends_since_sync = 0;
        Ok(CheckpointInfo { seq: file.seq, wal_bytes: retired })
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
        let checkpoint = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        let parsed = CheckpointFile::decode(&checkpoint).unwrap();
        assert_eq!(parsed.seq, 1);
        assert_eq!(parsed.dump.tenants.len(), 1);
        // Appends continue with the global sequence, into the fresh log.
        assert_eq!(journal.append(&JournalRecord::Remove { tenant: 1 }).unwrap(), 2);
        let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        let frame::FrameParse::Frame { seq, .. } = frame::next_frame(&bytes, HEADER_LEN) else {
            panic!("fresh log must hold the post-checkpoint frame");
        };
        assert_eq!(seq, 2);
    }

    /// The hand-rolled checkpoint serializer must stay byte-identical to
    /// the derive-driven one — recovery parses checkpoints with the
    /// generic deserializer.
    #[test]
    fn checkpoint_compact_json_matches_the_generic_serializer() {
        for file in [
            CheckpointFile {
                seq: 0,
                dump: PlacementDump { gamma: 2, servers: 0, tenants: vec![] },
            },
            CheckpointFile {
                seq: u64::MAX,
                dump: PlacementDump {
                    gamma: 3,
                    servers: 4,
                    tenants: vec![
                        cubefit_core::DumpEntry { tenant: 1, load: 0.25, servers: vec![0, 1, 3] },
                        cubefit_core::DumpEntry {
                            tenant: 9,
                            load: 0.123_456_789_012_345_6,
                            servers: vec![2, 1, 0],
                        },
                    ],
                },
            },
        ] {
            assert_eq!(
                file.to_compact_json(),
                serde_json::to_string(&file).unwrap(),
                "checkpoint format drift"
            );
        }
    }

    #[test]
    fn checkpoint_trailer_refuses_damage_that_still_parses() {
        let file = CheckpointFile {
            seq: 1000,
            dump: PlacementDump { gamma: 2, servers: 0, tenants: vec![] },
        };
        let encoded = file.encode();
        assert_eq!(CheckpointFile::decode(encoded.as_bytes()).unwrap(), file);
        // "seq":1000 → "seq":3000 is one bit and still valid JSON.
        let flipped = encoded.replacen("1000", "3000", 1);
        let err = CheckpointFile::decode(flipped.as_bytes()).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let err = CheckpointFile::decode(file.to_compact_json().as_bytes()).unwrap_err();
        assert!(err.contains("missing checksum"), "{err}");
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
