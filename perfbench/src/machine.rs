//! Where a result came from: commit, CPU and parallelism, and the
//! process's peak memory.

use std::path::Path;
use std::process::Command;

/// The commit being measured, or `"unknown"` outside a git checkout.
#[must_use]
pub fn commit() -> String {
    // Ask git only when the benchmark's own checkout is a repository, so
    // it never searches the directories above it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_owned();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Threads the machine can run in parallel (1 when unknown).
#[must_use]
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == key).then(|| value.trim().to_owned())
    })
}

/// The CPU's model name, or `"unknown"` where `/proc/cpuinfo` lacks it.
#[must_use]
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process so far (the kernel's VmHWM),
/// MiB; 0 where it cannot be read.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
