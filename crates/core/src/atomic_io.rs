//! Crash-safe file writes: temp file + `fsync` + atomic rename.
//!
//! Every artifact the workspace persists — reports, dumps, scenarios,
//! checkpoints — goes through [`write_atomic`] so a crash (or Ctrl-C)
//! mid-write never leaves a torn half-file at the destination path.
//! Readers either see the previous complete file or the new complete
//! file, never a prefix of one.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// Writes `bytes` to `path` atomically: the data lands in a uniquely
/// named sibling temp file first, is flushed to stable storage, and is
/// then renamed over the destination in one step.
///
/// The temp file lives in the destination's directory (renames across
/// filesystems are not atomic), named `.<file>.<pid>.tmp` so concurrent
/// writers in different processes never collide. On any failure the temp
/// file is removed; the destination is either untouched or fully
/// replaced.
///
/// # Errors
///
/// Propagates the underlying I/O error (annotated with the failing
/// path), leaving the destination unchanged.
///
/// Returns the installed file, still open for writing at its end, so a
/// caller that appends to it (a fresh journal log) holds its handle from
/// the moment the file is in place: nothing can fail between the rename
/// and the open.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> std::io::Result<File> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} has no file name to replace", path.display()),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{file_name}.{}.tmp", std::process::id()));

    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes.as_ref())?;
        // The rename below only orders the *directory entry*; the data
        // itself must be durable first or a crash can atomically install
        // an empty file.
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        // Persist the rename itself. Directory fsync is Unix-specific
        // (opening a directory for sync is not portable); elsewhere the
        // rename's atomicity is still what protects readers.
        #[cfg(unix)]
        {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(file)
    })();

    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cubefit-atomic-io-tests");
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let path = tmp_dir().join("replace.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer than the first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer than the first");
    }

    #[test]
    fn the_returned_handle_writes_to_the_installed_file() {
        let path = tmp_dir().join("append.log");
        let mut file = write_atomic(&path, b"header").unwrap();
        file.write_all(b"+frame").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"header+frame");
    }

    #[test]
    fn leaves_no_temp_files_behind() {
        let dir = tmp_dir().join("no-temps");
        fs::create_dir_all(&dir).unwrap();
        write_atomic(dir.join("out.json"), b"{}").unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away: {leftovers:?}");
    }

    #[test]
    fn failure_leaves_destination_untouched() {
        let path = tmp_dir().join("untouched.json");
        write_atomic(&path, b"original").unwrap();
        // Writing into a missing directory fails before the rename.
        let missing = tmp_dir().join("no-such-dir").join("out.json");
        assert!(write_atomic(&missing, b"x").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"original");
    }

    #[test]
    fn rejects_paths_without_a_file_name() {
        assert!(write_atomic(tmp_dir().join(".."), b"x").is_err());
    }
}
