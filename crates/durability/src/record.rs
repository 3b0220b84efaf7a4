//! The logical journal records and their replay semantics.
//!
//! Every mutation primitive of the [`cubefit_core::Consolidator`] trait
//! has a record, written *after* the mutation was applied in memory and
//! *before* the caller is acknowledged. Replay therefore reconstructs
//! "the state after the last durable frame" — exactly what a crashed
//! process had acknowledged.
//!
//! Records replay at the [`Placement`] level, not through the placing
//! algorithm: the journal stores the *decisions* (which servers each
//! mutation touched), so recovery needs no algorithm state, RNG, or
//! configuration — only the substrate. Mutations that can open servers
//! carry `servers_after`, the total servers ever created once the
//! mutation finished, so replay opens the same bins before applying.

use crate::error::{DurabilityError, Result};
use cubefit_core::{BinId, Load, Placement, Tenant, TenantId};

/// One replica move performed by a failure recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMove {
    /// The tenant whose replica moved.
    pub tenant: u64,
    /// The failed server the replica was orphaned on.
    pub from: usize,
    /// The surviving (or freshly opened) server it landed on.
    pub to: usize,
}

/// One durable frame's payload: a mutation the consolidator applied.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A tenant was placed on `servers`.
    Place {
        /// Tenant id.
        tenant: u64,
        /// Full tenant load in `(0, 1]`.
        load: f64,
        /// The γ servers chosen for its replicas.
        servers: Vec<usize>,
        /// Servers ever created once this placement finished.
        servers_after: usize,
    },
    /// A tenant departed.
    Remove {
        /// Tenant id.
        tenant: u64,
    },
    /// A tenant's load was re-estimated in place.
    UpdateLoad {
        /// Tenant id.
        tenant: u64,
        /// The re-estimated full load.
        load: f64,
    },
    /// A planned migration moved one replica.
    Migrate {
        /// Tenant id.
        tenant: u64,
        /// Source server.
        from: usize,
        /// Destination server.
        to: usize,
    },
    /// A failure recovery re-homed every orphaned replica.
    Recover {
        /// The servers that failed.
        failed: Vec<usize>,
        /// Every replica move the recovery performed.
        moves: Vec<RecoveryMove>,
        /// Servers ever created once recovery finished.
        servers_after: usize,
    },
    /// The mutations one batch call applied, as one frame: replay applies
    /// all of them or — if the frame is torn — none. After a fail-fast
    /// error it holds the prefix that applied before the failing op.
    Batch {
        /// `Place`, `Remove` and `UpdateLoad` records in execution order;
        /// the decoder refuses any other kind here.
        ops: Vec<JournalRecord>,
    },
    /// Clean-shutdown marker: everything before this frame is complete
    /// and the process exited on purpose.
    Seal,
}

// ---- binary payload encoding ----
//
// Frame payloads use a compact binary encoding, not JSON: one record is
// appended per acknowledged mutation, so payload bytes are hot-path
// bytes — fewer to format, fewer to checksum, fewer to hand to
// `write(2)`, and fewer dirty pages for the kernel to write back. A
// binary `Place` is ~17 bytes where its JSON form was ~85. Integers are
// LEB128 varints and floats are IEEE-754 bits little-endian. A batch is
// its tag, the op count, then each op's ordinary record encoding. A
// checkpoint's snapshot is no record: it has its own tag, which the log
// and batch decoders refuse, then the servers ever created, the tenant
// count, and one ordinary `Place` per live tenant in arrival order.
// Integrity is the frame CRC's job; decode errors past a valid checksum
// mean version skew or a writer bug, not disk damage.

const TAG_PLACE: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_UPDATE_LOAD: u8 = 3;
const TAG_MIGRATE: u8 = 4;
const TAG_RECOVER: u8 = 5;
const TAG_BATCH: u8 = 6;
const TAG_SEAL: u8 = 8;
const TAG_CHECKPOINT: u8 = 9;

fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_us(out: &mut Vec<u8>, v: usize) {
    put_uv(out, v as u64);
}

fn put_bits(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_us_slice(out: &mut Vec<u8>, items: &[usize]) {
    put_us(out, items.len());
    for &v in items {
        put_us(out, v);
    }
}

fn put_place(
    out: &mut Vec<u8>,
    tenant: u64,
    load: f64,
    servers: impl ExactSizeIterator<Item = usize>,
    servers_after: usize,
) {
    out.push(TAG_PLACE);
    put_uv(out, tenant);
    put_bits(out, load);
    put_us(out, servers.len());
    for server in servers {
        put_us(out, server);
    }
    put_us(out, servers_after);
}

/// Appends the checkpoint payload of `placement`, read straight from its
/// tenants: each `Place` carries the created-server count as its
/// `servers_after`, so replaying it opens nothing.
pub(crate) fn encode_checkpoint(out: &mut Vec<u8>, placement: &Placement) {
    let servers = placement.created_bins();
    out.push(TAG_CHECKPOINT);
    put_us(out, servers);
    put_us(out, placement.tenant_count());
    for (id, load, bins) in placement.tenants() {
        put_place(out, id.get(), load, bins.iter().map(|b| b.index()), servers);
    }
}

/// Bounds-checked reader over one payload. Every method reports *what*
/// ran short, so a `BadRecord` names the missing field rather than a
/// bare offset.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self, what: &str) -> std::result::Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or_else(|| format!("payload ends inside {what}"))?;
        self.pos += 1;
        Ok(b)
    }

    fn uv(&mut self, what: &str) -> std::result::Result<u64, String> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte(what)?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(format!("varint for {what} runs past 64 bits"))
    }

    fn us(&mut self, what: &str) -> std::result::Result<usize, String> {
        usize::try_from(self.uv(what)?).map_err(|_| format!("{what} overflows usize"))
    }

    /// A `Vec` length; capped by the bytes actually present (each
    /// element costs ≥ 1 byte) so a skewed count cannot ask the decoder
    /// to pre-allocate unbounded memory.
    fn len(&mut self, what: &str) -> std::result::Result<usize, String> {
        let n = self.us(what)?;
        if n > self.remaining() {
            return Err(format!(
                "{what} claims {n} elements but only {} bytes remain",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn bits(&mut self, what: &str) -> std::result::Result<f64, String> {
        let end = self.pos + 8;
        let bytes =
            self.buf.get(self.pos..end).ok_or_else(|| format!("payload ends inside {what}"))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes"))))
    }

    fn finish(self) -> std::result::Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after the record", self.buf.len() - self.pos))
        }
    }
}

fn decode_us_vec(c: &mut Cursor<'_>, what: &str) -> std::result::Result<Vec<usize>, String> {
    let n = c.len(what)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(c.us(what)?);
    }
    Ok(items)
}

impl JournalRecord {
    /// Appends this record's binary payload to `out` (format above).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Place { tenant, load, servers, servers_after } => {
                put_place(out, *tenant, *load, servers.iter().copied(), *servers_after);
            }
            JournalRecord::Remove { tenant } => {
                out.push(TAG_REMOVE);
                put_uv(out, *tenant);
            }
            JournalRecord::UpdateLoad { tenant, load } => {
                out.push(TAG_UPDATE_LOAD);
                put_uv(out, *tenant);
                put_bits(out, *load);
            }
            JournalRecord::Migrate { tenant, from, to } => {
                out.push(TAG_MIGRATE);
                put_uv(out, *tenant);
                put_us(out, *from);
                put_us(out, *to);
            }
            JournalRecord::Recover { failed, moves, servers_after } => {
                out.push(TAG_RECOVER);
                put_us_slice(out, failed);
                put_us(out, moves.len());
                for m in moves {
                    put_uv(out, m.tenant);
                    put_us(out, m.from);
                    put_us(out, m.to);
                }
                put_us(out, *servers_after);
            }
            JournalRecord::Batch { ops } => {
                out.push(TAG_BATCH);
                put_us(out, ops.len());
                for op in ops {
                    op.encode(out);
                }
            }
            JournalRecord::Seal => out.push(TAG_SEAL),
        }
    }

    /// Decodes one payload. The error string names the field that was
    /// short or skewed.
    ///
    /// # Errors
    ///
    /// On truncated fields, unknown tags, or trailing bytes — all of
    /// which mean version skew or a writer bug, since the frame CRC has
    /// already vouched for the bytes.
    pub(crate) fn decode(payload: &[u8]) -> std::result::Result<JournalRecord, String> {
        let mut c = Cursor::new(payload);
        let tag = c.byte("record tag")?;
        let record = Self::decode_body(&mut c, tag)?;
        c.finish()?;
        Ok(record)
    }

    /// Decodes the fields that follow `tag`.
    fn decode_body(c: &mut Cursor<'_>, tag: u8) -> std::result::Result<JournalRecord, String> {
        Ok(match tag {
            TAG_PLACE => JournalRecord::Place {
                tenant: c.uv("place tenant")?,
                load: c.bits("place load")?,
                servers: decode_us_vec(c, "place servers")?,
                servers_after: c.us("place servers_after")?,
            },
            TAG_REMOVE => JournalRecord::Remove { tenant: c.uv("remove tenant")? },
            TAG_UPDATE_LOAD => JournalRecord::UpdateLoad {
                tenant: c.uv("update tenant")?,
                load: c.bits("update load")?,
            },
            TAG_MIGRATE => JournalRecord::Migrate {
                tenant: c.uv("migrate tenant")?,
                from: c.us("migrate from")?,
                to: c.us("migrate to")?,
            },
            TAG_RECOVER => {
                let failed = decode_us_vec(c, "recover failed")?;
                let n = c.len("recover moves")?;
                let mut moves = Vec::with_capacity(n);
                for _ in 0..n {
                    moves.push(RecoveryMove {
                        tenant: c.uv("recovery move tenant")?,
                        from: c.us("recovery move from")?,
                        to: c.us("recovery move to")?,
                    });
                }
                JournalRecord::Recover {
                    failed,
                    moves,
                    servers_after: c.us("recover servers_after")?,
                }
            }
            TAG_BATCH => JournalRecord::Batch {
                ops: Self::decode_list(c, "batch", &[TAG_PLACE, TAG_REMOVE, TAG_UPDATE_LOAD])?,
            },
            TAG_SEAL => JournalRecord::Seal,
            other => return Err(format!("unknown record tag {other}")),
        })
    }

    /// Decodes a count, then that many records whose tags are in `kinds`.
    fn decode_list(
        c: &mut Cursor<'_>,
        what: &str,
        kinds: &[u8],
    ) -> std::result::Result<Vec<JournalRecord>, String> {
        let n = c.len(what)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = c.byte(what)?;
            if !kinds.contains(&tag) {
                return Err(format!("record tag {tag} inside a {what}"));
            }
            records.push(Self::decode_body(c, tag)?);
        }
        Ok(records)
    }
}

/// Decodes a checkpoint payload (format above) into the servers ever
/// created and one `Place` per live tenant.
///
/// # Errors
///
/// As [`JournalRecord::decode`], and for a payload that is not a
/// checkpoint's.
pub(crate) fn decode_checkpoint(
    payload: &[u8],
) -> std::result::Result<(usize, Vec<JournalRecord>), String> {
    let mut c = Cursor::new(payload);
    let tag = c.byte("record tag")?;
    if tag != TAG_CHECKPOINT {
        return Err(format!("record tag {tag} where a checkpoint belongs"));
    }
    let servers = c.us("checkpoint servers")?;
    let tenants = JournalRecord::decode_list(&mut c, "checkpoint", &[TAG_PLACE])?;
    c.finish()?;
    Ok((servers, tenants))
}

/// Opens fresh bins until the placement has created `servers_after`
/// total, mirroring the bins the original mutation opened.
pub(crate) fn raise_servers(placement: &mut Placement, servers_after: usize) {
    while placement.created_bins() < servers_after {
        placement.open_bin(None);
    }
}

fn bad(seq: u64, detail: impl std::fmt::Display) -> DurabilityError {
    DurabilityError::BadRecord { seq, detail: detail.to_string() }
}

impl JournalRecord {
    /// Replays this record onto `placement`.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::BadRecord`] when the record cannot apply to the
    /// state the replay has built — version skew or a writer bug, never
    /// an expected crash artifact (torn frames are filtered out before
    /// replay reaches them).
    pub fn apply(&self, placement: &mut Placement, seq: u64) -> Result<()> {
        match self {
            JournalRecord::Place { tenant, load, servers, servers_after } => {
                raise_servers(placement, *servers_after);
                let load = Load::new(*load).map_err(|e| bad(seq, e))?;
                let bins: Vec<BinId> = servers.iter().map(|&s| BinId::new(s)).collect();
                placement
                    .place_tenant(&Tenant::new(TenantId::new(*tenant), load), &bins)
                    .map_err(|e| bad(seq, e))
            }
            JournalRecord::Remove { tenant } => {
                placement.remove_tenant(TenantId::new(*tenant)).map_err(|e| bad(seq, e))?;
                Ok(())
            }
            JournalRecord::UpdateLoad { tenant, load } => {
                placement.update_load(TenantId::new(*tenant), *load).map_err(|e| bad(seq, e))?;
                Ok(())
            }
            JournalRecord::Migrate { tenant, from, to } => placement
                .move_replica(TenantId::new(*tenant), BinId::new(*from), BinId::new(*to))
                .map_err(|e| bad(seq, e)),
            JournalRecord::Recover { moves, servers_after, .. } => {
                raise_servers(placement, *servers_after);
                for m in moves {
                    placement
                        .move_replica(TenantId::new(m.tenant), BinId::new(m.from), BinId::new(m.to))
                        .map_err(|e| bad(seq, e))?;
                }
                Ok(())
            }
            JournalRecord::Batch { ops } => ops.iter().try_for_each(|op| op.apply(placement, seq)),
            JournalRecord::Seal => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::PlacementDump;

    fn dump_json(placement: &Placement) -> String {
        serde_json::to_string(&PlacementDump::from_placement(placement)).unwrap()
    }

    /// Every variant survives the wire: encode then decode is identity,
    /// including the empty-collection and max-value edges.
    #[test]
    fn binary_encoding_round_trips_every_variant() {
        let records = vec![
            JournalRecord::Place {
                tenant: 7,
                load: 0.25,
                servers: vec![0, 1, 5],
                servers_after: 6,
            },
            JournalRecord::Place { tenant: 0, load: 1.0, servers: vec![], servers_after: 0 },
            JournalRecord::Remove { tenant: u64::MAX },
            JournalRecord::UpdateLoad { tenant: 8, load: 0.123_456_789_012_345_6 },
            JournalRecord::UpdateLoad { tenant: 9, load: 1e-9 },
            JournalRecord::Migrate { tenant: 8, from: 0, to: 3 },
            JournalRecord::Recover { failed: vec![], moves: vec![], servers_after: 0 },
            JournalRecord::Recover {
                failed: vec![2, 7],
                moves: vec![
                    RecoveryMove { tenant: 9, from: 2, to: 4 },
                    RecoveryMove { tenant: 3, from: 7, to: 0 },
                ],
                servers_after: 8,
            },
            JournalRecord::Batch { ops: vec![] },
            JournalRecord::Batch {
                ops: vec![
                    JournalRecord::Place {
                        tenant: 10,
                        load: 0.125,
                        servers: vec![0, 1],
                        servers_after: 5,
                    },
                    JournalRecord::Remove { tenant: 10 },
                    JournalRecord::UpdateLoad { tenant: 8, load: 0.75 },
                ],
            },
            JournalRecord::Seal,
        ];
        for record in records {
            let mut bytes = Vec::new();
            record.encode(&mut bytes);
            let back = JournalRecord::decode(&bytes).unwrap();
            assert_eq!(back, record, "wire round trip failed for {record:?}");
        }
    }

    /// Pinned wire bytes: the on-disk record format must never drift
    /// (existing journals would stop replaying).
    #[test]
    fn wire_format_is_pinned() {
        let mut bytes = Vec::new();
        JournalRecord::Place { tenant: 7, load: 0.25, servers: vec![0, 1], servers_after: 2 }
            .encode(&mut bytes);
        // tag | tenant | f64 bits LE | server count | servers | after
        assert_eq!(bytes, [1, 7, 0, 0, 0, 0, 0, 0, 0xD0, 0x3F, 2, 0, 1, 2]);

        bytes.clear();
        // Varints: 300 = 0b1_0101100 → 0xAC 0x02.
        JournalRecord::Remove { tenant: 300 }.encode(&mut bytes);
        assert_eq!(bytes, [2, 0xAC, 0x02]);

        bytes.clear();
        JournalRecord::Seal.encode(&mut bytes);
        assert_eq!(bytes, [8]);
    }

    /// A batch payload is its tag and op count, then each op's ordinary
    /// record bytes.
    #[test]
    fn batch_payload_is_its_records_encodings() {
        let place =
            JournalRecord::Place { tenant: 7, load: 0.25, servers: vec![0, 1], servers_after: 2 };
        let remove = JournalRecord::Remove { tenant: 300 };
        let mut bytes = Vec::new();
        JournalRecord::Batch { ops: vec![place.clone(), remove.clone()] }.encode(&mut bytes);
        let mut expected = vec![6, 2];
        place.encode(&mut expected);
        remove.encode(&mut expected);
        assert_eq!(bytes, expected);
    }

    #[test]
    fn decoder_rejects_damage_with_named_fields() {
        let mut bytes = Vec::new();
        JournalRecord::Place { tenant: 7, load: 0.25, servers: vec![0, 1], servers_after: 2 }
            .encode(&mut bytes);

        // Truncated mid-float: the error names the field.
        let err = JournalRecord::decode(&bytes[..5]).unwrap_err();
        assert!(err.contains("place load"), "{err}");

        // Trailing garbage is version skew, not silently ignored.
        bytes.push(0);
        let err = JournalRecord::decode(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");

        // Unknown tag.
        let err = JournalRecord::decode(&[99]).unwrap_err();
        assert!(err.contains("unknown record tag 99"), "{err}");

        // A length claiming more elements than bytes remain must not
        // drive a pre-allocation.
        let err = JournalRecord::decode(&[2 + 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).unwrap_err();
        assert!(err.contains("elements"), "{err}");

        // Only places, removals and load updates ride inside a batch.
        let err = JournalRecord::decode(&[6, 1, 8]).unwrap_err();
        assert!(err.contains("record tag 8 inside a batch"), "{err}");
        let err = JournalRecord::decode(&[6, 1, 6, 0]).unwrap_err();
        assert!(err.contains("record tag 6 inside a batch"), "{err}");
        let err = JournalRecord::decode(&[6, 1, 9, 0, 0]).unwrap_err();
        assert!(err.contains("record tag 9 inside a batch"), "{err}");

        // A checkpoint payload is no log record, and the reverse.
        let err = JournalRecord::decode(&[9, 0, 0]).unwrap_err();
        assert!(err.contains("unknown record tag 9"), "{err}");
        let err = decode_checkpoint(&[8]).unwrap_err();
        assert!(err.contains("record tag 8 where a checkpoint belongs"), "{err}");

        // Only places ride inside a checkpoint.
        let err = decode_checkpoint(&[9, 2, 1, 2, 7]).unwrap_err();
        assert!(err.contains("record tag 2 inside a checkpoint"), "{err}");
    }

    /// A checkpoint payload round-trips: it decodes to the created-server
    /// count and a `Place` per live tenant in arrival order, which replay
    /// to the placement it was written from, trailing empty servers
    /// included. Cases: created servers but no tenants, and γ = 3 with a
    /// removed tenant and a `u64::MAX` id.
    #[test]
    fn checkpoint_payload_round_trips_through_replay() {
        let mut bare = Placement::new(2);
        for _ in 0..4 {
            bare.open_bin(None);
        }
        let mut wide = Placement::new(3);
        let bins: Vec<BinId> = (0..6).map(|_| wide.open_bin(None)).collect();
        let tenant = |id: u64, load: f64| Tenant::new(TenantId::new(id), Load::new(load).unwrap());
        wide.place_tenant(&tenant(4, 0.3), &[bins[2], bins[0], bins[1]]).unwrap();
        wide.place_tenant(&tenant(u64::MAX, 0.6), &[bins[1], bins[3], bins[0]]).unwrap();
        wide.place_tenant(&tenant(2, 0.15), &[bins[0], bins[1], bins[2]]).unwrap();
        wide.remove_tenant(TenantId::new(4)).unwrap();
        let place = |tenant: u64, load: f64, servers: Vec<usize>| JournalRecord::Place {
            tenant,
            load,
            servers,
            servers_after: 6,
        };
        let cases = [
            (bare, 4, vec![]),
            (wide, 6, vec![place(u64::MAX, 0.6, vec![1, 3, 0]), place(2, 0.15, vec![0, 1, 2])]),
        ];
        for (live, servers, tenants) in cases {
            let mut bytes = Vec::new();
            encode_checkpoint(&mut bytes, &live);
            assert_eq!(decode_checkpoint(&bytes).unwrap(), (servers, tenants.clone()));
            let mut replayed = Placement::new(live.gamma());
            raise_servers(&mut replayed, servers);
            tenants.iter().try_for_each(|t| t.apply(&mut replayed, 1)).unwrap();
            assert_eq!(dump_json(&replayed), dump_json(&live));
        }
    }

    #[test]
    fn replay_reconstructs_a_mutation_stream() {
        // Live side: apply mutations directly.
        let mut live = Placement::new(2);
        let a = live.open_bin(None);
        let b = live.open_bin(None);
        let c = live.open_bin(None);
        live.place_tenant(&Tenant::new(TenantId::new(1), Load::new(0.4).unwrap()), &[a, b])
            .unwrap();
        live.place_tenant(&Tenant::new(TenantId::new(2), Load::new(0.2).unwrap()), &[a, c])
            .unwrap();
        live.update_load(TenantId::new(1), 0.6).unwrap();
        live.move_replica(TenantId::new(2), a, b).unwrap();
        live.remove_tenant(TenantId::new(1)).unwrap();

        // Journal side: the records those mutations would have produced.
        let records = [
            JournalRecord::Place { tenant: 1, load: 0.4, servers: vec![0, 1], servers_after: 2 },
            JournalRecord::Place { tenant: 2, load: 0.2, servers: vec![0, 2], servers_after: 3 },
            JournalRecord::UpdateLoad { tenant: 1, load: 0.6 },
            JournalRecord::Migrate { tenant: 2, from: 0, to: 1 },
            JournalRecord::Remove { tenant: 1 },
        ];
        let mut replayed = Placement::new(2);
        for (i, record) in records.iter().enumerate() {
            record.apply(&mut replayed, i as u64 + 1).unwrap();
        }
        assert_eq!(dump_json(&replayed), dump_json(&live), "replay must be bit-identical");
    }

    #[test]
    fn batch_replay_applies_its_records_in_order() {
        let mut live = Placement::new(2);
        let a = live.open_bin(None);
        let b = live.open_bin(None);
        live.place_tenant(&Tenant::new(TenantId::new(1), Load::new(0.4).unwrap()), &[a, b])
            .unwrap();
        let c = live.open_bin(None);
        live.place_tenant(&Tenant::new(TenantId::new(2), Load::new(0.2).unwrap()), &[a, c])
            .unwrap();
        live.update_load(TenantId::new(1), 0.5).unwrap();
        live.remove_tenant(TenantId::new(2)).unwrap();

        // Each place opens the servers its own `servers_after` names.
        let mut replayed = Placement::new(2);
        JournalRecord::Batch {
            ops: vec![
                JournalRecord::Place {
                    tenant: 1,
                    load: 0.4,
                    servers: vec![0, 1],
                    servers_after: 2,
                },
                JournalRecord::Place {
                    tenant: 2,
                    load: 0.2,
                    servers: vec![0, 2],
                    servers_after: 3,
                },
                JournalRecord::UpdateLoad { tenant: 1, load: 0.5 },
                JournalRecord::Remove { tenant: 2 },
            ],
        }
        .apply(&mut replayed, 1)
        .unwrap();
        assert_eq!(dump_json(&replayed), dump_json(&live));
    }

    #[test]
    fn unreplayable_records_carry_their_seq() {
        let mut placement = Placement::new(2);
        let err = JournalRecord::Remove { tenant: 42 }.apply(&mut placement, 17).unwrap_err();
        assert!(matches!(err, DurabilityError::BadRecord { seq: 17, .. }), "{err}");
    }
}
