//! Crash recovery: load the latest valid checkpoint, replay the journal
//! tail, tolerate a torn final frame, and refuse silently-corrupted
//! acknowledged state.

use crate::error::{DurabilityError, Result};
use crate::frame::{self, FrameParse, HEADER_LEN};
use crate::journal::{CheckpointFile, CHECKPOINT_FILE, WAL_FILE};
use crate::record::JournalRecord;
use cubefit_core::{Placement, PlacementDump};
use std::fs;
use std::path::Path;

/// The outcome of recovering a journal directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// The reconstructed placement.
    pub placement: Placement,
    /// Replication factor the journal was written for.
    pub gamma: usize,
    /// Sequence number the loaded checkpoint covered (0 = no checkpoint).
    pub checkpoint_seq: u64,
    /// Highest sequence number folded into the recovered state.
    pub last_seq: u64,
    /// Frames replayed from the write-ahead log tail.
    pub frames_replayed: u64,
    /// Whether the log ended with a clean-shutdown seal.
    pub sealed: bool,
    /// Whether an incomplete final frame was discarded.
    pub torn_tail: bool,
    /// Human-readable notes about tolerated anomalies (torn tail,
    /// records after a seal). Empty for a pristine log.
    pub warnings: Vec<String>,
}

impl RecoveredState {
    /// The recovered placement as a dump, for writing out or comparing
    /// bit-for-bit against a live run.
    #[must_use]
    pub fn dump(&self) -> PlacementDump {
        PlacementDump::from_placement(&self.placement)
    }
}

/// Recovers the full journal in `dir`: checkpoint plus every durable
/// frame after it.
///
/// # Errors
///
/// See [`recover_up_to`].
pub fn recover(dir: impl AsRef<Path>) -> Result<RecoveredState> {
    recover_up_to(dir, u64::MAX)
}

/// Recovers only up to sequence number `max_seq` (inclusive) — the state
/// the system had acknowledged at that point. The crash harness uses this
/// to compare a recovered journal against every prefix of a live run.
///
/// # Errors
///
/// - [`DurabilityError::Io`] / [`DurabilityError::BadHeader`] when the
///   log is unreadable or not a journal;
/// - [`DurabilityError::BadCheckpoint`] when the checkpoint file exists
///   but fails its CRC, cannot be parsed or rebuilt, or predates γ
///   changes;
/// - [`DurabilityError::CorruptFrame`] when a frame fails its header or
///   payload CRC or the sequence numbers skip — acknowledged state was
///   damaged (a torn final frame is NOT this: it is tolerated with a
///   warning);
/// - [`DurabilityError::BadRecord`] when a checksummed record cannot be
///   deserialized or replayed;
/// - [`DurabilityError::Unsupported`] when `max_seq` predates the
///   checkpoint (the journal no longer holds those frames).
pub fn recover_up_to(dir: impl AsRef<Path>, max_seq: u64) -> Result<RecoveredState> {
    let dir = dir.as_ref();
    let wal_path = dir.join(WAL_FILE);
    let bytes = fs::read(&wal_path).map_err(|e| DurabilityError::io(&wal_path, &e))?;
    let gamma = parse_gamma(&wal_path, &bytes)?;

    let (mut placement, checkpoint_seq) = load_checkpoint(dir, gamma)?;
    if checkpoint_seq > max_seq {
        return Err(DurabilityError::Unsupported {
            detail: format!(
                "cannot recover to seq {max_seq}: the checkpoint already covers seq \
                 {checkpoint_seq} and earlier frames were truncated"
            ),
        });
    }

    let mut state = RecoveredState {
        placement: Placement::new(gamma),
        gamma,
        checkpoint_seq,
        last_seq: checkpoint_seq,
        frames_replayed: 0,
        sealed: false,
        torn_tail: false,
        warnings: Vec::new(),
    };

    let mut pos = HEADER_LEN;
    let mut prev_seq: Option<u64> = None;
    loop {
        match frame::next_frame(&bytes, pos) {
            FrameParse::End => break,
            FrameParse::TornTail { offset, discarded } => {
                state.torn_tail = true;
                state.warnings.push(format!(
                    "torn final frame at byte {offset} ({discarded} bytes discarded) — \
                     expected after a crash mid-append; the unacknowledged suffix is dropped"
                ));
                break;
            }
            FrameParse::Corrupt { offset, detail } => {
                return Err(DurabilityError::CorruptFrame { offset: offset as u64, detail });
            }
            FrameParse::Frame { seq, payload, next } => {
                if let Some(prev) = prev_seq {
                    if seq != prev + 1 {
                        return Err(DurabilityError::CorruptFrame {
                            offset: pos as u64,
                            detail: format!(
                                "sequence jumped from {prev} to {seq}: a frame is missing"
                            ),
                        });
                    }
                }
                prev_seq = Some(seq);
                if seq > max_seq {
                    break;
                }
                if state.sealed {
                    state.warnings.push(format!(
                        "frame seq {seq} follows a seal — appended by a buggy or racing writer"
                    ));
                }
                // Frames at or below the checkpoint seq are already folded
                // into the snapshot (the crash window between writing the
                // checkpoint and truncating the log leaves them behind).
                if seq > checkpoint_seq {
                    let record = decode(seq, payload)?;
                    if record == JournalRecord::Seal {
                        state.sealed = true;
                    } else {
                        record.apply(&mut placement, seq)?;
                        state.frames_replayed += 1;
                    }
                    state.last_seq = seq;
                }
                pos = next;
            }
        }
    }

    state.placement = placement;
    Ok(state)
}

fn parse_gamma(wal_path: &Path, bytes: &[u8]) -> Result<usize> {
    let gamma = frame::parse_header(bytes).map_err(|detail| DurabilityError::BadHeader {
        path: wal_path.display().to_string(),
        detail,
    })?;
    if gamma < 2 {
        return Err(DurabilityError::BadHeader {
            path: wal_path.display().to_string(),
            detail: format!("header declares γ = {gamma}, below the replication floor of 2"),
        });
    }
    Ok(gamma)
}

fn load_checkpoint(dir: &Path, gamma: usize) -> Result<(Placement, u64)> {
    let path = dir.join(CHECKPOINT_FILE);
    if !path.exists() {
        return Ok((Placement::new(gamma), 0));
    }
    let bad = |detail: String| DurabilityError::BadCheckpoint {
        path: path.display().to_string(),
        detail,
    };
    let bytes = fs::read(&path).map_err(|e| DurabilityError::io(&path, &e))?;
    let file = CheckpointFile::decode(&bytes).map_err(bad)?;
    if file.dump.gamma != gamma {
        return Err(bad(format!(
            "checkpoint γ = {} does not match the log header's γ = {gamma}",
            file.dump.gamma
        )));
    }
    let placement = file.dump.to_placement().map_err(|e| bad(e.to_string()))?;
    Ok((placement, file.seq))
}

fn decode(seq: u64, payload: &[u8]) -> Result<JournalRecord> {
    JournalRecord::decode(payload).map_err(|detail| DurabilityError::BadRecord { seq, detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{FsyncPolicy, Journal};
    use cubefit_core::{BinId, Load, Tenant, TenantId};
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cubefit-recover-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dump_json(placement: &Placement) -> String {
        serde_json::to_string(&PlacementDump::from_placement(placement)).unwrap()
    }

    /// Drives a small mutation stream through both a live placement and a
    /// journal, returning (dir, live).
    fn journaled_stream(name: &str, checkpoint_after: Option<usize>) -> (PathBuf, Placement) {
        let dir = tmp_dir(name);
        let journal = Journal::create(&dir, 2, FsyncPolicy::Never).unwrap();
        let mut live = Placement::new(2);
        let a = live.open_bin(None);
        let b = live.open_bin(None);
        let records = [
            JournalRecord::Place { tenant: 1, load: 0.4, servers: vec![0, 1], servers_after: 2 },
            JournalRecord::Place { tenant: 2, load: 0.2, servers: vec![0, 1], servers_after: 2 },
            JournalRecord::UpdateLoad { tenant: 1, load: 0.55 },
            JournalRecord::Remove { tenant: 2 },
        ];
        live.place_tenant(&Tenant::new(TenantId::new(1), Load::new(0.4).unwrap()), &[a, b])
            .unwrap();
        live.place_tenant(&Tenant::new(TenantId::new(2), Load::new(0.2).unwrap()), &[a, b])
            .unwrap();
        journal.append(&records[0]).unwrap();
        journal.append(&records[1]).unwrap();
        if checkpoint_after == Some(2) {
            journal.checkpoint(&live).unwrap();
        }
        live.update_load(TenantId::new(1), 0.55).unwrap();
        journal.append(&records[2]).unwrap();
        live.remove_tenant(TenantId::new(2)).unwrap();
        journal.append(&records[3]).unwrap();
        journal.seal().unwrap();
        (dir, live)
    }

    #[test]
    fn recovers_a_sealed_log_bit_identically() {
        let (dir, live) = journaled_stream("sealed", None);
        let state = recover(&dir).unwrap();
        assert!(state.sealed);
        assert!(!state.torn_tail);
        assert!(state.warnings.is_empty());
        assert_eq!(state.frames_replayed, 4);
        assert_eq!(state.last_seq, 5); // 4 mutations + seal
        assert_eq!(serde_json::to_string(&state.dump()).unwrap(), dump_json(&live));
    }

    #[test]
    fn recovers_through_a_checkpoint() {
        let (dir, live) = journaled_stream("checkpointed", Some(2));
        let state = recover(&dir).unwrap();
        assert_eq!(state.checkpoint_seq, 2);
        assert_eq!(state.frames_replayed, 2, "only the post-checkpoint tail replays");
        assert_eq!(serde_json::to_string(&state.dump()).unwrap(), dump_json(&live));
    }

    #[test]
    fn tolerates_a_torn_tail_with_a_warning() {
        let (dir, _live) = journaled_stream("torn", None);
        let wal = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal).unwrap();
        // Tear mid-way through the final (seal) frame.
        bytes.truncate(bytes.len() - 3);
        fs::write(&wal, &bytes).unwrap();
        let state = recover(&dir).unwrap();
        assert!(state.torn_tail);
        assert!(!state.sealed, "the seal frame was the torn one");
        assert_eq!(state.frames_replayed, 4);
        assert_eq!(state.warnings.len(), 1);
        assert!(state.warnings[0].contains("torn final frame"), "{}", state.warnings[0]);
    }

    #[test]
    fn mid_log_bit_flip_is_a_typed_corruption_error() {
        let (dir, _live) = journaled_stream("bitflip", None);
        let wal = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal).unwrap();
        // Flip a payload bit of the FIRST frame — damage in acknowledged
        // territory, not the tail.
        let offset = HEADER_LEN + frame::FRAME_OVERHEAD + 3;
        bytes[offset] ^= 0x40;
        fs::write(&wal, &bytes).unwrap();
        let err = recover(&dir).unwrap_err();
        assert!(
            matches!(err, DurabilityError::CorruptFrame { offset, .. } if offset == HEADER_LEN as u64),
            "{err}"
        );
        assert!(err.to_string().contains(&format!("byte {HEADER_LEN}")));
    }

    #[test]
    fn recover_up_to_reconstructs_each_prefix() {
        let (dir, _live) = journaled_stream("prefix", None);
        let after_one = recover_up_to(&dir, 1).unwrap();
        assert_eq!(after_one.frames_replayed, 1);
        assert_eq!(after_one.placement.tenant_count(), 1);
        let after_two = recover_up_to(&dir, 2).unwrap();
        assert_eq!(after_two.placement.tenant_count(), 2);
        let after_four = recover_up_to(&dir, 4).unwrap();
        assert_eq!(after_four.placement.tenant_count(), 1);
        assert!(!after_four.sealed, "seal is seq 5, past the cap");
    }

    #[test]
    fn recover_up_to_before_the_checkpoint_is_refused() {
        let (dir, _live) = journaled_stream("precheckpoint", Some(2));
        let err = recover_up_to(&dir, 1).unwrap_err();
        assert!(matches!(err, DurabilityError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn sequence_gaps_are_corruption() {
        let (dir, _live) = journaled_stream("gap", None);
        let wal = dir.join(WAL_FILE);
        let bytes = fs::read(&wal).unwrap();
        // Remove the second frame wholesale, splicing first and third.
        let FrameParse::Frame { next: first_end, .. } = frame::next_frame(&bytes, HEADER_LEN)
        else {
            panic!("first frame parses");
        };
        let FrameParse::Frame { next: second_end, .. } = frame::next_frame(&bytes, first_end)
        else {
            panic!("second frame parses");
        };
        let mut spliced = bytes[..first_end].to_vec();
        spliced.extend_from_slice(&bytes[second_end..]);
        fs::write(&wal, &spliced).unwrap();
        let err = recover(&dir).unwrap_err();
        assert!(
            matches!(err, DurabilityError::CorruptFrame { .. })
                && err.to_string().contains("jumped"),
            "{err}"
        );
    }

    #[test]
    fn missing_log_and_foreign_file_are_typed_errors() {
        let dir = tmp_dir("absent");
        assert!(matches!(recover(&dir).unwrap_err(), DurabilityError::Io { .. }));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(WAL_FILE), b"this is not a journal, honest").unwrap();
        assert!(matches!(recover(&dir).unwrap_err(), DurabilityError::BadHeader { .. }));
    }

    #[test]
    fn oracle_accepts_the_recovered_placement() {
        let (dir, _live) = journaled_stream("oracle", None);
        let state = recover(&dir).unwrap();
        let audit = cubefit_core::oracle::audit(&state.placement);
        assert!(audit.is_ok(), "recovered state must be audit-clean: {audit:?}");
        // Consistency: every tenant still holds γ distinct replicas.
        for (_, _, bins) in state.placement.tenants() {
            assert_eq!(bins.len(), 2);
            assert_ne!(bins[0], bins[1]);
        }
        let _ = BinId::new(0); // keep the import honest if assertions above change
    }
}
