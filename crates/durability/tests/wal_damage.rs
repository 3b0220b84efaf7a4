//! Exhaustive damage sweep over a small journal.
//!
//! A short journaled stream writes every frame kind the journal emits —
//! single places, a place batch, a load update, a removal, a load-update
//! batch, a remove batch, a batch that failed after its first op (its
//! frame holds that op), a failure recovery, a migration and the closing
//! seal. Then:
//!
//! - every bit of `wal.log` is flipped in turn, and recovery must refuse
//!   each damaged log with a typed error (a flipped bit never silently
//!   drops or alters acknowledged frames);
//! - `wal.log` is cut at every byte length, and recovery must return
//!   exactly the frames wholly inside the prefix — the live state after
//!   that many acknowledged mutations — warning only when the cut fell
//!   inside a frame.
//!
//! A `checkpoint.log` that tail frames follow is swept the same way: it is
//! installed whole, so every bit flip and every cut of it must be refused
//! as a bad checkpoint (a flipped `seq` bit would otherwise skip live
//! frames as already folded), and a log and a checkpoint swapped with each
//! other are refused both ways. Every bit of a frame-less `wal.log` is
//! flipped too, since a flipped γ has no frame to contradict it; each flip
//! must be refused as a bad header.

use cubefit_core::{
    BinId, Consolidator, CubeFit, CubeFitConfig, Load, PlacementDump, Tenant, TenantId,
};
use cubefit_durability::frame::{self, FrameParse, HEADER_LEN};
use cubefit_durability::{
    recover, DurabilityError, FsyncPolicy, Journal, JournaledConsolidator, CHECKPOINT_FILE,
    WAL_FILE,
};
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cubefit-wal-damage").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dump_json(consolidator: &dyn Consolidator) -> String {
    serde_json::to_string(&PlacementDump::from_placement(consolidator.placement())).unwrap()
}

/// Journals the stream into `dir` and returns the pristine log bytes plus
/// the live placement dump after each acknowledged mutation (`dumps[k]` is
/// the state after `k` mutation frames).
fn journaled_stream(dir: &Path) -> (Vec<u8>, Vec<String>) {
    let journal = Journal::create(dir, 2, FsyncPolicy::Never).unwrap();
    let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
    let mut live = JournaledConsolidator::new(Box::new(CubeFit::new(config)), journal.clone());
    let tenant = |load: f64| Tenant::with_load(Load::new(load).unwrap());
    let mut dumps = vec![dump_json(&live)];
    for load in [0.6, 0.3, 0.78] {
        live.place(tenant(load)).unwrap();
        dumps.push(dump_json(&live));
    }
    let batch = live
        .place_batch(vec![tenant(0.12), tenant(0.36), tenant(0.5), tenant(0.25), tenant(0.4)])
        .unwrap();
    let ids: Vec<TenantId> = batch.iter().map(|outcome| outcome.tenant).collect();
    dumps.push(dump_json(&live));
    live.update_load(ids[0], 0.2).unwrap();
    dumps.push(dump_json(&live));
    live.remove(ids[1]).unwrap();
    dumps.push(dump_json(&live));
    live.update_load_batch(&[(ids[0], 0.3), (ids[2], 0.45)]).unwrap();
    dumps.push(dump_json(&live));
    live.remove_batch(&[ids[3], ids[4]]).unwrap();
    dumps.push(dump_json(&live));
    // Automatic ids set bit 63, so tenant 0 is unknown: the batch fails
    // after removing ids[0], and its frame holds that one removal.
    live.remove_batch(&[ids[0], TenantId::new(0), ids[2]]).unwrap_err();
    dumps.push(dump_json(&live));
    let failed = live.placement().tenant_bins(ids[2]).unwrap()[0];
    live.recover(&[failed]).unwrap();
    dumps.push(dump_json(&live));
    let (moved, from) = {
        let (id, _, bins) = live.placement().tenants().next().unwrap();
        (id, bins[0])
    };
    let hosts = live.placement().tenant_bins(moved).unwrap().to_vec();
    let to = (0..live.placement().created_bins())
        .map(BinId::new)
        .find(|bin| !hosts.contains(bin) && *bin != failed)
        .unwrap();
    live.migrate(moved, from, to).unwrap();
    dumps.push(dump_json(&live));
    journal.seal().unwrap();
    assert_eq!(journal.last_seq(), dumps.len() as u64, "one frame per mutation, plus the seal");
    (fs::read(dir.join(WAL_FILE)).unwrap(), dumps)
}

/// End offsets of every frame in an undamaged log.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = HEADER_LEN;
    while let FrameParse::Frame { next, .. } = frame::next_frame(bytes, pos) {
        ends.push(next);
        pos = next;
    }
    assert_eq!(pos, bytes.len(), "the pristine log parses to its end");
    ends
}

/// Flips every bit of `dir/file` in turn and recovers `dir` after each
/// flip, returning a line for every flip `refused` does not accept.
fn flip_sweep(dir: &Path, file: &str, refused: impl Fn(&DurabilityError) -> bool) -> Vec<String> {
    let path = dir.join(file);
    let pristine = fs::read(&path).unwrap();
    let mut misses = Vec::new();
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut damaged = pristine.clone();
            damaged[byte] ^= 1 << bit;
            fs::write(&path, &damaged).unwrap();
            match recover(dir) {
                Ok(state) => misses.push(format!(
                    "byte {byte} bit {bit}: recovered {} frames (torn tail: {})",
                    state.last_seq, state.torn_tail
                )),
                Err(e) if !refused(&e) => misses.push(format!("byte {byte} bit {bit}: {e}")),
                Err(_) => {}
            }
        }
    }
    fs::write(&path, &pristine).unwrap();
    misses
}

#[test]
fn every_bit_flip_is_refused_with_a_typed_error() {
    let dir = scratch("flip");
    journaled_stream(&dir);
    let silent = flip_sweep(&dir, WAL_FILE, |_| true);
    assert!(silent.is_empty(), "flips that recovered without an error:\n{}", silent.join("\n"));
}

/// Journals three tenants, a checkpoint at seq 1, three tail frames and
/// the seal into `dir`, and returns the live dump, which `dir` recovers.
fn checkpointed_stream(dir: &Path) -> String {
    let journal = Journal::create(dir, 2, FsyncPolicy::Never).unwrap();
    let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
    let mut live = JournaledConsolidator::new(Box::new(CubeFit::new(config)), journal.clone());
    let tenant = |load: f64| Tenant::with_load(Load::new(load).unwrap());
    let placed = live.place_batch(vec![tenant(0.6), tenant(0.3), tenant(0.12)]).unwrap();
    journal.checkpoint(live.placement()).unwrap();
    live.update_load(placed[0].tenant, 0.5).unwrap();
    live.remove(placed[1].tenant).unwrap();
    live.place(tenant(0.4)).unwrap();
    journal.seal().unwrap();
    let expected = dump_json(&live);
    let state = recover(dir).unwrap();
    assert_eq!((state.checkpoint_seq, state.frames_replayed), (1, 3));
    assert_eq!(serde_json::to_string(&state.dump()).unwrap(), expected);
    expected
}

fn is_bad_checkpoint(e: &DurabilityError) -> bool {
    matches!(e, DurabilityError::BadCheckpoint { .. })
}

#[test]
fn every_checkpoint_bit_flip_is_refused() {
    let dir = scratch("checkpoint-flip");
    checkpointed_stream(&dir);
    let misses = flip_sweep(&dir, CHECKPOINT_FILE, is_bad_checkpoint);
    assert!(misses.is_empty(), "checkpoint flips not refused:\n{}", misses.join("\n"));
}

#[test]
fn every_checkpoint_cut_is_refused() {
    let dir = scratch("checkpoint-cut");
    checkpointed_stream(&dir);
    let path = dir.join(CHECKPOINT_FILE);
    let pristine = fs::read(&path).unwrap();
    let mut misses = Vec::new();
    for cut in 0..pristine.len() {
        fs::write(&path, &pristine[..cut]).unwrap();
        match recover(&dir) {
            Err(e) if is_bad_checkpoint(&e) => {}
            other => misses.push(format!("cut {cut}: {other:?}")),
        }
    }
    assert!(misses.is_empty(), "checkpoint cuts not refused:\n{}", misses.join("\n"));
}

#[test]
fn a_swapped_log_and_checkpoint_are_refused_both_ways() {
    let dir = scratch("swapped");
    checkpointed_stream(&dir);
    let (wal, checkpoint) = (dir.join(WAL_FILE), dir.join(CHECKPOINT_FILE));
    let (log_bytes, checkpoint_bytes) = (fs::read(&wal).unwrap(), fs::read(&checkpoint).unwrap());
    let recover_with = |log: &[u8], snapshot: &[u8]| {
        fs::write(&wal, log).unwrap();
        fs::write(&checkpoint, snapshot).unwrap();
        recover(&dir).unwrap_err()
    };
    let err = recover_with(&checkpoint_bytes, &log_bytes);
    assert!(is_bad_checkpoint(&err), "files exchanged: {err}");
    let err = recover_with(&log_bytes, &log_bytes);
    assert!(is_bad_checkpoint(&err), "the log as the checkpoint: {err}");
    let err = recover_with(&checkpoint_bytes, &checkpoint_bytes);
    assert!(
        matches!(err, DurabilityError::BadRecord { seq: 1, .. }),
        "the checkpoint as the log: {err}"
    );
}

#[test]
fn every_header_bit_flip_of_a_frameless_log_is_refused() {
    let dir = scratch("header-flip");
    drop(Journal::create(&dir, 2, FsyncPolicy::Never).unwrap());
    assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap().len(), HEADER_LEN);
    assert_eq!(recover(&dir).unwrap().gamma, 2);
    let misses = flip_sweep(&dir, WAL_FILE, |e| matches!(e, DurabilityError::BadHeader { .. }));
    assert!(misses.is_empty(), "header flips not refused:\n{}", misses.join("\n"));
}

#[test]
fn every_truncation_recovers_exactly_the_complete_frames() {
    let dir = scratch("truncate");
    let (pristine, dumps) = journaled_stream(&dir);
    let ends = frame_ends(&pristine);
    let wal = dir.join(WAL_FILE);
    for cut in 0..=pristine.len() {
        fs::write(&wal, &pristine[..cut]).unwrap();
        let result = recover(&dir);
        if cut < HEADER_LEN {
            assert!(
                matches!(result, Err(DurabilityError::BadHeader { .. })),
                "cut {cut} inside the file header: {result:?}"
            );
            continue;
        }
        let state = result.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let mutations = complete.min(dumps.len() - 1);
        let at_boundary = cut == HEADER_LEN || ends.contains(&cut);
        assert_eq!(state.last_seq, complete as u64, "cut {cut}");
        assert_eq!(state.frames_replayed, mutations as u64, "cut {cut}");
        assert_eq!(state.sealed, complete == ends.len(), "cut {cut}");
        assert_eq!(state.torn_tail, !at_boundary, "cut {cut}");
        assert_eq!(state.warnings.is_empty(), at_boundary, "cut {cut}: {:?}", state.warnings);
        let dump = serde_json::to_string(&state.dump()).unwrap();
        assert_eq!(dump, dumps[mutations], "cut {cut}: state after {mutations} mutations");
    }
}
