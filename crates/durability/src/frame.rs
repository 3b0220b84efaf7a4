//! On-disk framing of the write-ahead log.
//!
//! Layout:
//!
//! ```text
//! header:  magic "CUBEWAL4" (8) | version u32 LE (4) | gamma u32 LE (4)
//!          | header_crc u32 LE (4)
//! frame:   len u32 LE (4) | seq u64 LE (8) | head_crc u32 LE (4) | crc u32 LE (4)
//!          | payload (len)
//! ```
//!
//! `len` counts only the payload. All checksums are CRC-32 (IEEE 802.3 /
//! zlib polynomial). `header_crc` covers the 16 bytes before it, so a
//! damaged γ is refused even in a log that holds no frame to contradict
//! it. `head_crc` covers the 12 bytes of `len` and `seq`, so
//! a damaged length field is caught before the reader trusts it to find
//! the payload. `crc` covers the little-endian `seq` bytes followed by the
//! payload, so a frame whose body was written under a different sequence
//! number — the classic misdirected-write failure — fails its checksum
//! even when the payload itself is intact.
//!
//! The reader distinguishes two kinds of damage:
//!
//! - a **torn tail** — fewer bytes than a frame header remain, or a
//!   verified header's payload runs past the end of the log — is the
//!   expected signature of a crash mid-append, tolerated by recovery (the
//!   unacknowledged suffix is discarded with a warning);
//! - anything else that fails verification is **corruption** —
//!   acknowledged state was damaged, surfaced as a typed error naming the
//!   byte offset.

/// File magic opening every write-ahead log.
pub const MAGIC: &[u8; 8] = b"CUBEWAL4";
/// Format version written into the header.
pub const VERSION: u32 = 4;
/// Bytes of header before the first frame.
pub const HEADER_LEN: usize = 20;
/// Bytes of the file header covered by `header_crc` (magic, version, γ).
const HEADER_BODY: usize = 16;
/// Per-frame framing overhead (len + seq + head_crc + crc) in bytes: the
/// payload starts this many bytes after its frame.
pub const FRAME_OVERHEAD: usize = 20;
/// Bytes of a frame covered by `head_crc` (len + seq).
const LEN_SEQ_BYTES: usize = 12;

/// IEEE CRC-32 lookup tables for slicing-by-8, built at compile time.
/// Table 0 is the classic byte-at-a-time table; table `t` advances a
/// byte through `t` extra zero bytes, letting the checksum consume eight
/// input bytes per step with one XOR tree.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

const CRC_TABLE: [u32; 256] = CRC_TABLES[0];

fn crc_step8(crc: u32, bytes: [u8; 8]) -> u32 {
    let lo = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ crc;
    let hi = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// Feeds `bytes` into a running (pre-inversion) CRC-32 state.
/// Slicing-by-8: the checksum runs once per acknowledged mutation, so the
/// byte-at-a-time loop only mops up the tail.
fn crc_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        crc = crc_step8(crc, chunk.try_into().expect("8-byte chunk"));
    }
    for &byte in chunks.remainder() {
        crc = CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(0xFFFF_FFFF, bytes)
}

/// CRC-32 (IEEE) over the frame body: `seq` as little-endian bytes, then
/// the payload.
#[must_use]
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    !crc_update(crc_step8(0xFFFF_FFFF, seq.to_le_bytes()), payload)
}

/// Encodes the log header for a journal tracking a γ-replicated
/// placement.
#[must_use]
pub fn encode_header(gamma: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..HEADER_BODY].copy_from_slice(&(gamma as u32).to_le_bytes());
    let crc = crc32(&header[..HEADER_BODY]);
    header[HEADER_BODY..].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Parses a log header, returning the γ it was written for.
///
/// # Errors
///
/// Returns a description of what was wrong (truncated, bad magic,
/// unknown version, checksum mismatch).
pub fn parse_header(bytes: &[u8]) -> Result<usize, String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("{} bytes is shorter than the {HEADER_LEN}-byte header", bytes.len()));
    }
    if &bytes[..8] != MAGIC {
        return Err("bad magic (not a CubeFit write-ahead log)".to_owned());
    }
    let le_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let version = le_u32(8);
    if version != VERSION {
        return Err(format!("unsupported log version {version} (this build reads {VERSION})"));
    }
    let (stored, computed) = (le_u32(HEADER_BODY), crc32(&bytes[..HEADER_BODY]));
    if stored != computed {
        return Err(format!(
            "header crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
        ));
    }
    Ok(le_u32(12) as usize)
}

/// Encodes one frame.
#[must_use]
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut frame, seq, payload);
    frame
}

/// Appends one encoded frame to `out` — the allocation-free variant the
/// journal's append hot path uses with a reused buffer.
pub fn encode_frame_into(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let head_crc = crc32(&out[start..]);
    out.extend_from_slice(&head_crc.to_le_bytes());
    out.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One step of the frame reader.
#[derive(Debug, PartialEq)]
pub enum FrameParse<'a> {
    /// A complete, checksum-verified frame.
    Frame {
        /// Journal sequence number.
        seq: u64,
        /// The record payload (binary record bytes).
        payload: &'a [u8],
        /// Offset of the *next* frame.
        next: usize,
    },
    /// Clean end of log: no bytes remain.
    End,
    /// Fewer bytes than a frame header remain, or a verified header's
    /// payload runs past the end of the log — the torn tail of a crash
    /// mid-append.
    TornTail {
        /// Offset the incomplete frame starts at.
        offset: usize,
        /// Bytes discarded with it.
        discarded: usize,
    },
    /// A frame failed verification.
    Corrupt {
        /// Offset the frame starts at.
        offset: usize,
        /// What failed.
        detail: String,
    },
}

/// Reads the frame starting at `pos` in `buf` (which includes the file
/// header; the first frame lives at [`HEADER_LEN`]).
#[must_use]
pub fn next_frame(buf: &[u8], pos: usize) -> FrameParse<'_> {
    let remaining = buf.len().saturating_sub(pos);
    if remaining == 0 {
        return FrameParse::End;
    }
    if remaining < FRAME_OVERHEAD {
        return FrameParse::TornTail { offset: pos, discarded: remaining };
    }
    let le_u32 = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    let stored_head = le_u32(pos + LEN_SEQ_BYTES);
    let computed_head = crc32(&buf[pos..pos + LEN_SEQ_BYTES]);
    if stored_head != computed_head {
        return FrameParse::Corrupt {
            offset: pos,
            detail: format!(
                "header crc mismatch (stored {stored_head:#010x}, computed {computed_head:#010x})"
            ),
        };
    }
    let needed = FRAME_OVERHEAD + le_u32(pos) as usize;
    if remaining < needed {
        return FrameParse::TornTail { offset: pos, discarded: remaining };
    }
    let seq = u64::from_le_bytes(buf[pos + 4..pos + LEN_SEQ_BYTES].try_into().expect("8 bytes"));
    let stored_crc = le_u32(pos + LEN_SEQ_BYTES + 4);
    let payload = &buf[pos + FRAME_OVERHEAD..pos + needed];
    let computed = frame_crc(seq, payload);
    if computed != stored_crc {
        return FrameParse::Corrupt {
            offset: pos,
            detail: format!(
                "payload crc mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
            ),
        };
    }
    FrameParse::Frame { seq, payload, next: pos + needed }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned IEEE CRC-32 vectors (zlib polynomial): the on-disk format
    /// must never drift.
    #[test]
    fn crc_matches_known_vectors() {
        // crc32(b"123456789") = 0xCBF43926 with a zero seed; our frame
        // CRC prefixes the seq bytes, so check via seq = 0 equivalence:
        // frame_crc(0, p) == crc32(le(0) ++ p).
        let mut crc = 0xFFFF_FFFFu32;
        for &b in [0u8; 8].iter().chain(b"123456789".iter()) {
            crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        assert_eq!(frame_crc(0, b"123456789"), !crc);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // And the standalone table is the IEEE one.
        assert_eq!(CRC_TABLE[1], 0x7707_3096);
        assert_eq!(CRC_TABLE[255], 0x2D02_EF8D);
    }

    #[test]
    fn header_round_trips_and_rejects_damage() {
        let header = encode_header(12);
        assert_eq!(parse_header(&header).unwrap(), 12);
        assert!(parse_header(&header[..10]).unwrap_err().contains("shorter"));
        let mut bad_magic = header;
        bad_magic[0] ^= 0xFF;
        assert!(parse_header(&bad_magic).unwrap_err().contains("magic"));
        let mut bad_version = header;
        bad_version[8] = 99;
        assert!(parse_header(&bad_version).unwrap_err().contains("version"));
        let mut bad_gamma = header;
        bad_gamma[12] ^= 0x01;
        assert!(parse_header(&bad_gamma).unwrap_err().contains("header crc mismatch"));
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = encode_header(2).to_vec();
        buf.extend_from_slice(&encode_frame(1, b"{\"a\":1}"));
        buf.extend_from_slice(&encode_frame(2, b"{\"b\":2}"));
        let FrameParse::Frame { seq, payload, next } = next_frame(&buf, HEADER_LEN) else {
            panic!("first frame must parse");
        };
        assert_eq!((seq, payload), (1, b"{\"a\":1}".as_slice()));
        let FrameParse::Frame { seq, next, .. } = next_frame(&buf, next) else {
            panic!("second frame must parse");
        };
        assert_eq!(seq, 2);
        assert_eq!(next_frame(&buf, next), FrameParse::End);
    }

    #[test]
    fn torn_tail_is_distinguished_from_corruption() {
        let mut buf = encode_header(2).to_vec();
        buf.extend_from_slice(&encode_frame(1, b"{\"a\":1}"));
        let frame2 = encode_frame(2, b"{\"b\":2}");
        let second_at = buf.len();
        buf.extend_from_slice(&frame2[..frame2.len() - 3]); // torn mid-payload

        let FrameParse::Frame { next, .. } = next_frame(&buf, HEADER_LEN) else {
            panic!("intact frame must parse");
        };
        assert!(matches!(
            next_frame(&buf, next),
            FrameParse::TornTail { offset, .. } if offset == second_at
        ));

        // Flip one payload bit of a *complete* frame: corruption, not tear.
        let mut flipped = encode_header(2).to_vec();
        flipped.extend_from_slice(&encode_frame(1, b"{\"a\":1}"));
        let bit = HEADER_LEN + FRAME_OVERHEAD + 2;
        flipped[bit] ^= 0x01;
        assert!(matches!(
            next_frame(&flipped, HEADER_LEN),
            FrameParse::Corrupt { offset: HEADER_LEN, ref detail } if detail.contains("crc mismatch")
        ));
    }

    #[test]
    fn a_damaged_length_is_corruption_not_a_torn_tail() {
        // A bit flip that makes the frame claim more bytes than the log
        // holds used to read as a benign torn tail; the header checksum
        // now refuses it.
        let mut buf = encode_header(2).to_vec();
        let mut frame = encode_frame(1, b"{}");
        frame[0] ^= 0x10;
        buf.extend_from_slice(&frame);
        assert!(matches!(
            next_frame(&buf, HEADER_LEN),
            FrameParse::Corrupt { offset: HEADER_LEN, ref detail } if detail.contains("header crc")
        ));
        // A cut inside the frame header is still a torn tail.
        let cut = HEADER_LEN + FRAME_OVERHEAD - 1;
        assert!(matches!(
            next_frame(&buf[..cut], HEADER_LEN),
            FrameParse::TornTail { offset: HEADER_LEN, discarded: 19 }
        ));
    }

    #[test]
    fn crc_binds_the_sequence_number() {
        // Same payload journaled under a different seq must not verify:
        // catches a frame body landing at the wrong log position.
        let frame = encode_frame(5, b"{\"x\":1}");
        let mut buf = encode_header(2).to_vec();
        let mut renumbered = frame;
        renumbered[4..12].copy_from_slice(&6u64.to_le_bytes());
        // Re-seal the header so only the payload checksum can object.
        let head_crc = crc32(&renumbered[..LEN_SEQ_BYTES]);
        renumbered[LEN_SEQ_BYTES..LEN_SEQ_BYTES + 4].copy_from_slice(&head_crc.to_le_bytes());
        buf.extend_from_slice(&renumbered);
        assert!(matches!(
            next_frame(&buf, HEADER_LEN),
            FrameParse::Corrupt { ref detail, .. } if detail.contains("payload crc")
        ));
    }
}
