//! Recovery differential suite: crash-safe durability against the oracle.
//!
//! Every algorithm runs a seeded *mixed* mutation stream (arrivals,
//! departures, load updates — each also as batches, some failing mid-batch
//! on an unknown tenant — plus migrations and failure/recovery events)
//! behind a [`JournaledConsolidator`], snapshotting the live
//! [`PlacementDump`] after every acknowledged mutation. The suite then
//! treats **every** journal sequence number as a crash point:
//! `recover_up_to(dir, seq)` must reconstruct the snapshot byte-for-byte
//! (serialized JSON equality) and pass the from-scratch oracle. A
//! checkpointed variant proves the same through a checkpoint + tail
//! replay.
//!
//! Two pinned regression fixtures cover the byte-level failure modes: a
//! torn final frame (tolerated, rewound to the last durable frame) and a
//! mid-log bit flip (refused with a typed error naming the byte offset).

use cubefit_audit::algorithms;
use cubefit_core::{oracle, BinId, Consolidator, Load, PlacementDump, Tenant, TenantId};
use cubefit_durability::frame::{FRAME_OVERHEAD, HEADER_LEN};
use cubefit_durability::{
    recover, recover_up_to, FsyncPolicy, Journal, JournaledConsolidator, WAL_FILE,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// The replication factors the suite sweeps: the paper's γ=2 and γ=3,
/// plus a deep-replication stress point.
const GAMMAS: &[usize] = &[2, 3, 12];

/// Self-contained LCG so the op interleaving is a pure function of the
/// seed (the proptest shim draws only scalars, not op sequences).
struct OpRng(u64);

impl OpRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cubefit-recovery-differential").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dump_json(algo: &dyn Consolidator) -> String {
    serde_json::to_string(&PlacementDump::from_placement(algo.placement()))
        .expect("dumps serialize")
}

/// Drives `ops` seeded mixed mutations through `algo` (already wrapped in
/// a [`JournaledConsolidator`]), returning `(seq, dump)` snapshots taken
/// after every acknowledged mutation. Op mix: ~10% failure/recovery
/// events, ~10% migrations, ~10% load updates and ~5% load-update
/// batches, ~15% departures and ~5% departure batches, ~35% arrivals and
/// ~10% arrival batches. One update or departure batch in three puts a
/// never-placed tenant second, so it fails after its first op and its
/// frame holds that prefix.
fn journaled_stream(
    algo: &mut JournaledConsolidator,
    journal: &Journal,
    ops: usize,
    seed: u64,
    base_id: u64,
) -> Vec<(u64, String)> {
    let mut rng = OpRng(seed | 1);
    let unknown = TenantId::new(u64::MAX);
    let mut alive: Vec<TenantId> = Vec::new();
    let mut next_id = base_id;
    let gamma = algo.gamma();
    let mut snapshots = Vec::with_capacity(ops);
    for _ in 0..ops {
        let roll = rng.below(100);
        let loaded: Vec<BinId> =
            algo.placement().bins().filter(|b| b.level() > 0.0).map(|b| b.id()).collect();
        if roll < 10 && !loaded.is_empty() {
            let cap = (gamma - 1).min(loaded.len()).min(3);
            let count = 1 + rng.below(cap);
            let mut pool = loaded;
            let mut failed = Vec::with_capacity(count);
            for _ in 0..count {
                failed.push(pool.swap_remove(rng.below(pool.len())));
            }
            algo.recover(&failed).expect("recovery must succeed");
        } else if roll < 20 && !alive.is_empty() {
            // Migrate one replica of a live tenant to a bin not hosting it.
            let tenant = alive[rng.below(alive.len())];
            let hosts: Vec<BinId> =
                algo.placement().tenant_bins(tenant).map(<[BinId]>::to_vec).unwrap_or_default();
            let spare: Vec<BinId> =
                algo.placement().bins().map(|b| b.id()).filter(|id| !hosts.contains(id)).collect();
            if hosts.is_empty() || spare.is_empty() {
                continue;
            }
            let from = hosts[rng.below(hosts.len())];
            let to = spare[rng.below(spare.len())];
            if algo.migrate(tenant, from, to).is_err() {
                continue; // a refused move is not journaled; nothing to snapshot
            }
        } else if roll < 30 && !alive.is_empty() {
            let tenant = alive[rng.below(alive.len())];
            let load = (rng.unit() * 0.9).max(1e-4);
            algo.update_load(tenant, load).expect("live tenants must update");
        } else if roll < 35 && !alive.is_empty() {
            let mut updates: Vec<(TenantId, f64)> = (0..1 + rng.below(3))
                .map(|_| (alive[rng.below(alive.len())], (rng.unit() * 0.9).max(1e-4)))
                .collect();
            if rng.below(3) == 0 {
                updates.insert(1, (unknown, 0.5));
                algo.update_load_batch(&updates).expect_err("the unknown tenant fails");
            } else {
                algo.update_load_batch(&updates).expect("live tenants must update");
            }
        } else if roll < 50 && !alive.is_empty() {
            let idx = rng.below(alive.len());
            let tenant = alive.swap_remove(idx);
            algo.remove(tenant).expect("alive tenants must be removable");
        } else if roll < 55 && !alive.is_empty() {
            let count = 1 + rng.below(alive.len().min(3));
            let mut departing: Vec<TenantId> =
                (0..count).map(|_| alive.swap_remove(rng.below(alive.len()))).collect();
            if rng.below(3) == 0 {
                departing.insert(1, unknown);
                algo.remove_batch(&departing).expect_err("the unknown tenant fails");
                alive.extend_from_slice(&departing[2..]); // not reached: still placed
            } else {
                algo.remove_batch(&departing).expect("alive tenants must be removable");
            }
        } else if roll < 90 {
            let load = (rng.unit() * 0.6).max(1e-4);
            let tenant = Tenant::new(TenantId::new(next_id), Load::new(load).unwrap());
            next_id += 1;
            algo.place(tenant).expect("arrivals must place");
            alive.push(tenant.id());
        } else {
            let arrivals: Vec<Tenant> = (next_id..next_id + 2 + rng.below(3) as u64)
                .map(|id| {
                    let load = (rng.unit() * 0.6).max(1e-4);
                    Tenant::new(TenantId::new(id), Load::new(load).unwrap())
                })
                .collect();
            next_id += arrivals.len() as u64;
            alive.extend(arrivals.iter().map(Tenant::id));
            algo.place_batch(arrivals).expect("arrivals must place");
        }
        snapshots.push((journal.last_seq(), dump_json(algo)));
    }
    snapshots
}

/// Runs the stream for one algorithm and asserts every journal prefix —
/// every possible crash point — recovers byte-identically and
/// oracle-clean.
fn assert_every_crash_point_recovers(
    inner: Box<dyn Consolidator>,
    dir: &PathBuf,
    ops: usize,
    seed: u64,
) {
    let gamma = inner.gamma();
    let journal = Journal::create(dir, gamma, FsyncPolicy::Never).expect("journal creates");
    let mut algo = JournaledConsolidator::new(inner, journal.clone());
    let name = algo.name().to_owned();
    let mut snapshots = journaled_stream(&mut algo, &journal, ops, seed, 0);
    // The live run is gone after this (simulated kill: no seal).
    drop(algo);
    snapshots.dedup_by_key(|(seq, _)| *seq);
    for (seq, expected) in &snapshots {
        let state = recover_up_to(dir, *seq)
            .unwrap_or_else(|e| panic!("{name}: recovery at seq {seq} failed: {e}"));
        assert_eq!(
            &serde_json::to_string(&state.dump()).expect("dumps serialize"),
            expected,
            "{name}: crash at seq {seq} did not recover bit-identically"
        );
        assert!(
            oracle::audit(&state.placement).is_ok(),
            "{name}: recovered state at seq {seq} fails the oracle"
        );
    }
}

/// The checkpointed variant: run a stream, checkpoint, run more, then
/// verify every post-checkpoint crash point recovers through the
/// checkpoint + journal tail.
fn assert_checkpointed_recovery(
    inner: Box<dyn Consolidator>,
    dir: &PathBuf,
    ops: usize,
    seed: u64,
) {
    let gamma = inner.gamma();
    let journal = Journal::create(dir, gamma, FsyncPolicy::Never).expect("journal creates");
    let mut algo = JournaledConsolidator::new(inner, journal.clone());
    let name = algo.name().to_owned();
    let head = journaled_stream(&mut algo, &journal, ops, seed, 0);
    let info = journal.checkpoint(algo.placement()).expect("checkpoint succeeds");
    let tail = journaled_stream(&mut algo, &journal, ops / 2, seed ^ 0x9e37, 1_000_000);
    drop(algo);
    let checkpoint_dump = head.last().expect("head is non-empty").1.clone();
    // Crash exactly at the checkpoint: nothing to replay.
    let state = recover_up_to(dir, info.seq).expect("recovery at the checkpoint");
    assert_eq!(
        serde_json::to_string(&state.dump()).unwrap(),
        checkpoint_dump,
        "{name}: checkpoint alone must reproduce the state it captured"
    );
    assert_eq!(state.frames_replayed, 0, "{name}: no frames precede the checkpoint");
    // Every later crash point replays the tail on top of the checkpoint.
    let mut tail = tail;
    tail.dedup_by_key(|(seq, _)| *seq);
    for (seq, expected) in &tail {
        let state = recover_up_to(dir, *seq)
            .unwrap_or_else(|e| panic!("{name}: tail recovery at seq {seq} failed: {e}"));
        assert_eq!(state.checkpoint_seq, info.seq, "{name}: recovery must start at the checkpoint");
        assert_eq!(
            &serde_json::to_string(&state.dump()).unwrap(),
            expected,
            "{name}: post-checkpoint crash at seq {seq} did not recover bit-identically"
        );
        assert!(
            oracle::audit(&state.placement).is_ok(),
            "{name}: recovered state at seq {seq} fails the oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every algorithm × every crash point: a journaled mixed mutation
    /// stream recovers byte-identically and oracle-clean from any prefix.
    #[test]
    fn every_crash_point_recovers_bit_identically(
        gamma_idx in 0usize..3,
        ops in 25usize..60,
        seed in any::<u64>(),
    ) {
        let gamma = GAMMAS[gamma_idx];
        for (idx, inner) in algorithms(gamma, seed).into_iter().enumerate() {
            let dir = scratch(&format!("plain-g{gamma}-a{idx}-{seed:x}"));
            assert_every_crash_point_recovers(inner, &dir, ops, seed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The same property through a mid-stream checkpoint: recovery composes
    /// the checkpoint with the journal tail.
    #[test]
    fn crash_points_after_a_checkpoint_recover(
        gamma_idx in 0usize..3,
        ops in 20usize..40,
        seed in any::<u64>(),
    ) {
        let gamma = GAMMAS[gamma_idx];
        for (idx, inner) in algorithms(gamma, seed).into_iter().enumerate() {
            let dir = scratch(&format!("ckpt-g{gamma}-a{idx}-{seed:x}"));
            assert_checkpointed_recovery(inner, &dir, ops, seed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Pinned regression: a torn final frame (half the last frame's bytes
/// missing, the classic power-cut artefact) is tolerated — recovery warns,
/// discards the tear, and lands exactly on the previous durable state.
#[test]
fn pinned_torn_tail_rewinds_to_the_last_durable_frame() {
    let dir = scratch("pinned-torn");
    let journal = Journal::create(&dir, 2, FsyncPolicy::Never).unwrap();
    let inner = algorithms(2, 7).remove(0); // cubefit
    let mut algo = JournaledConsolidator::new(inner, journal.clone());
    let snapshots = journaled_stream(&mut algo, &journal, 30, 7, 0);
    drop(algo);
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    // Tear the last frame in half. Frames are length-prefixed, so walk the
    // framing to find where the final frame starts.
    let mut pos = HEADER_LEN;
    let mut last_start = pos;
    while pos + FRAME_OVERHEAD <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let next = pos + FRAME_OVERHEAD + len;
        if next > bytes.len() {
            break;
        }
        last_start = pos;
        pos = next;
    }
    std::fs::write(&wal, &bytes[..last_start + (bytes.len() - last_start) / 2]).unwrap();

    let state = recover(&dir).unwrap();
    assert!(state.torn_tail, "the tear must be reported");
    assert!(!state.warnings.is_empty(), "torn tails warn");
    let (expected_seq, expected_dump) = &snapshots[snapshots.len() - 2];
    assert_eq!(state.last_seq, *expected_seq);
    assert_eq!(&serde_json::to_string(&state.dump()).unwrap(), expected_dump);
    assert!(oracle::audit(&state.placement).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pinned regression: a single flipped bit mid-log is *not* silently
/// replayed — recovery refuses with a typed error naming the byte offset
/// of the corrupt frame.
#[test]
fn pinned_bit_flip_is_refused_with_the_byte_offset() {
    let dir = scratch("pinned-flip");
    let journal = Journal::create(&dir, 3, FsyncPolicy::Never).unwrap();
    let inner = algorithms(3, 11).remove(0);
    let mut algo = JournaledConsolidator::new(inner, journal.clone());
    journaled_stream(&mut algo, &journal, 25, 11, 0);
    drop(algo);
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    let mid = 16 + (bytes.len() - 16) / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&wal, bytes).unwrap();

    let err = recover(&dir).expect_err("a mid-log flip must be refused");
    let message = err.to_string();
    assert!(message.contains("corrupt journal frame at byte"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}
