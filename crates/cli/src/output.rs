//! Atomic report writing shared by every subcommand.
//!
//! Reports, dumps, scenarios, and traces are operator-facing artifacts —
//! a crash (or Ctrl-C) mid-write must never leave a truncated JSON file
//! that a later `cubefit check` or `cubefit replay` chokes on. Every
//! command therefore funnels its file output through [`write_report`],
//! which wraps [`cubefit_core::write_atomic`] (temp file + fsync +
//! rename): the destination is either the previous version or the
//! complete new one, never a prefix.

/// Atomically writes `contents` to `path`, formatting I/O failures as
/// the CLI's standard `writing {path}: {error}` message.
pub(crate) fn write_report(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    cubefit_core::write_atomic(path, contents).map(drop).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces_files() {
        let dir = std::env::temp_dir().join("cubefit-cli-output-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json").to_string_lossy().into_owned();
        write_report(&path, "{\"a\":1}").unwrap();
        write_report(&path, "{\"a\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        // No temp file is left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn errors_name_the_path() {
        let err = write_report("/nonexistent-dir/report.json", "x").unwrap_err();
        assert!(err.contains("writing /nonexistent-dir/report.json"), "{err}");
    }
}
