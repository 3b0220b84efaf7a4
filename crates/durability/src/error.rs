//! Typed failures of the journal, checkpoint, and recovery paths.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, DurabilityError>;

/// Everything that can go wrong between a mutation and its durable
/// record — and between a crash and the recovered placement.
///
/// The torn-tail case is deliberately *not* here: an incomplete final
/// frame is the expected signature of a crash mid-append and recovery
/// tolerates it (truncate-and-warn). Only damage that loses
/// already-acknowledged state is an error.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DurabilityError {
    /// An operating-system I/O failure.
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error text.
        detail: String,
    },
    /// The write-ahead log's header is missing, truncated, or not a
    /// CubeFit journal.
    BadHeader {
        /// Path of the offending log.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A frame failed its header or payload CRC (or the sequence numbers
    /// skip): bits rotted or were flipped *after* the frame was
    /// acknowledged. Unlike a torn tail this loses acknowledged state, so
    /// it is a hard error.
    CorruptFrame {
        /// Byte offset of the frame within the log file.
        offset: u64,
        /// What the check found.
        detail: String,
    },
    /// The checkpoint file exists but cannot be parsed or rebuilt.
    BadCheckpoint {
        /// Path of the checkpoint file.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A frame decoded cleanly (CRC passed) but its record could not be
    /// deserialized or replayed — a version skew or a writer bug.
    BadRecord {
        /// Journal sequence number of the record.
        seq: u64,
        /// What failed.
        detail: String,
    },
    /// An append was attempted after the journal was sealed.
    Sealed,
    /// The journal was asked to do something its configuration cannot
    /// support (e.g. journaling a γ < 2 placement, which the checkpoint
    /// format cannot round-trip).
    Unsupported {
        /// Why the request was refused.
        detail: String,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { path, detail } => write!(f, "journal I/O on {path}: {detail}"),
            DurabilityError::BadHeader { path, detail } => {
                write!(f, "bad journal header in {path}: {detail}")
            }
            DurabilityError::CorruptFrame { offset, detail } => {
                write!(f, "corrupt journal frame at byte {offset}: {detail}")
            }
            DurabilityError::BadCheckpoint { path, detail } => {
                write!(f, "bad checkpoint {path}: {detail}")
            }
            DurabilityError::BadRecord { seq, detail } => {
                write!(f, "unreplayable journal record (seq {seq}): {detail}")
            }
            DurabilityError::Sealed => write!(f, "journal is sealed"),
            DurabilityError::Unsupported { detail } => write!(f, "journal unsupported: {detail}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<DurabilityError> for cubefit_core::Error {
    fn from(e: DurabilityError) -> Self {
        cubefit_core::Error::Durability { detail: e.to_string() }
    }
}

impl DurabilityError {
    /// Wraps an I/O error with the path it hit.
    pub(crate) fn io(path: impl AsRef<std::path::Path>, e: &std::io::Error) -> Self {
        DurabilityError::Io { path: path.as_ref().display().to_string(), detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_converts_to_core_error() {
        let errors = [
            DurabilityError::Io { path: "wal.log".into(), detail: "disk full".into() },
            DurabilityError::BadHeader { path: "wal.log".into(), detail: "bad magic".into() },
            DurabilityError::CorruptFrame { offset: 128, detail: "crc mismatch".into() },
            DurabilityError::BadCheckpoint { path: "checkpoint.json".into(), detail: "eof".into() },
            DurabilityError::BadRecord { seq: 7, detail: "unknown variant".into() },
            DurabilityError::Sealed,
            DurabilityError::Unsupported { detail: "γ must be ≥ 2".into() },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            let core: cubefit_core::Error = e.clone().into();
            assert!(core.to_string().contains("durability failure"));
        }
        let corrupt = DurabilityError::CorruptFrame { offset: 128, detail: "crc".into() };
        assert!(corrupt.to_string().contains("byte 128"), "errors must name the byte offset");
    }
}
