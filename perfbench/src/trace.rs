//! Spans recorded from the benchmark's side of each layer boundary, and
//! the per-layer breakdown computed from them.
//!
//! A span is one call into a layer: its name (`<layer>.<op>`), an id that
//! the spans of one service request (or batch) share, its parent span,
//! start and end on a monotonic clock, and how many items the call
//! processed. While a traced repetition runs, spans go into a
//! preallocated in-memory `Vec`; nothing is written until the run ends.
//! With tracing off a span site costs one thread-local flag check, and the
//! untraced consolidator stacks carry no [`crate::timed::Timed`] decorator.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The layers self time is attributed to — the workspace crates the
/// benchmark drives, plus the benchmark itself (input generation, op
/// bookkeeping, the serve generator and its idle waits).
pub const LAYERS: [&str; 5] = ["core", "defrag", "durability", "service", "bench"];

/// Root span of a timed window. Layer shares are computed over these
/// roots only, so set-up and correctness checks (their own roots) never
/// dilute the breakdown of the measured work.
pub const TIMED: &str = "bench.timed";
/// Root span of per-repetition set-up.
pub const SETUP: &str = "bench.setup";
/// Root span of correctness checks.
pub const CHECK: &str = "bench.check";

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// Request or batch id, inherited from the parent unless set.
    pub id: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since recording began.
    pub start_ns: u64,
    /// End, ns since recording began.
    pub end_ns: u64,
    /// Items the call processed (tenants in a batch, replicas recovered…).
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer prefix of the span's name.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts recording into a buffer preallocated for `capacity` spans.
pub fn start(capacity: usize) {
    RECORDER.with_borrow_mut(|r| {
        r.on = true;
        r.origin = Instant::now();
        r.spans = Vec::with_capacity(capacity);
        r.open.clear();
    });
}

/// Stops recording and returns the spans in start order.
///
/// # Panics
///
/// Panics if a span is still open — a nesting bug in the benchmark.
#[must_use]
pub fn finish() -> Vec<Span> {
    RECORDER.with_borrow_mut(|r| {
        assert!(r.open.is_empty(), "trace finished with {} open spans", r.open.len());
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// An open span; [`Guard::exit`] closes it with its work count. Dropping
/// it (an early `?` return) closes it with zero work, so nesting survives
/// error paths.
#[must_use = "a span closes when its guard exits"]
#[derive(Debug)]
pub struct Guard(Option<u32>);

impl Guard {
    /// Closes the span, recording `work` items.
    pub fn exit(mut self, work: u64) {
        if let Some(index) = self.0.take() {
            close(index, work);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0.take() {
            close(index, 0);
        }
    }
}

/// Opens a span that inherits its parent's id.
pub fn enter(name: &'static str) -> Guard {
    open(name, None)
}

/// Opens a span carrying request or batch `id`.
pub fn enter_id(name: &'static str, id: u64) -> Guard {
    open(name, Some(id))
}

/// Runs `f` inside a span of one work item.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let guard = enter(name);
    let out = f();
    guard.exit(1);
    out
}

fn open(name: &'static str, id: Option<u64>) -> Guard {
    RECORDER.with_borrow_mut(|r| {
        if !r.on {
            return Guard(None);
        }
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let id =
            id.unwrap_or_else(|| if parent == NO_PARENT { 0 } else { r.spans[parent as usize].id });
        let index = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans per repetition");
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns, work: 0 });
        r.open.push(index);
        Guard(Some(index))
    })
}

fn close(index: u32, work: u64) {
    RECORDER.with_borrow_mut(|r| {
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        let top = r.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        let span = &mut r.spans[index as usize];
        span.end_ns = end_ns;
        span.work = work;
    });
}

/// Writes `spans` as JSON lines: `{"name", "id", "parent", "start_ns",
/// "end_ns", "work"}` with `parent` = -1 for roots.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns, s.work
        )?;
    }
    out.flush()
}

/// Durations, self times and work counts of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Span durations, ns.
    pub dur_ns: Vec<f64>,
    /// Self times (duration minus time covered by child spans), ns.
    pub self_ns: Vec<f64>,
    /// Work counts.
    pub work: Vec<f64>,
}

/// Per-layer breakdown pooled over the traced repetitions of a run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Stats per span name.
    pub names: BTreeMap<&'static str, NameStats>,
    /// Self time per entry of [`LAYERS`] inside timed windows, ns.
    pub layer_self_ns: [f64; LAYERS.len()],
    /// Total duration of the [`TIMED`] roots, ns.
    pub timed_ns: f64,
    /// `core.place_batch` (duration ns, tenants) per quarter of each
    /// repetition's placed tenants, in call order.
    pub place_quarters: [(f64, f64); 4],
}

impl Profile {
    /// Folds one repetition's spans in.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                root[i] = i;
            } else {
                let p = s.parent as usize;
                child_ns[p] += s.dur_ns();
                root[i] = root[p];
            }
        }
        let batch_tenants: u64 =
            spans.iter().filter(|s| s.name == "core.place_batch").map(|s| s.work).sum();
        let mut placed_before = 0u64;
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            let stats = self.names.entry(s.name).or_default();
            stats.dur_ns.push(s.dur_ns() as f64);
            stats.self_ns.push(self_ns as f64);
            stats.work.push(s.work as f64);
            if spans[root[i]].name == TIMED {
                let layer = LAYERS.iter().position(|l| *l == s.layer()).unwrap_or(LAYERS.len() - 1);
                self.layer_self_ns[layer] += self_ns as f64;
                if s.parent == NO_PARENT {
                    self.timed_ns += s.dur_ns() as f64;
                }
            }
            if s.name == "core.place_batch" && batch_tenants > 0 {
                let quarter = ((4 * placed_before / batch_tenants) as usize).min(3);
                self.place_quarters[quarter].0 += s.dur_ns() as f64;
                self.place_quarters[quarter].1 += s.work as f64;
                placed_before += s.work;
            }
        }
    }

    /// Stats of spans named `name` (empty when the workload never made
    /// the call).
    #[must_use]
    pub fn get(&self, name: &str) -> NameStats {
        self.names.get(name).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_sum_to_the_root() {
        start(16);
        {
            let root = enter_id(TIMED, 7);
            let outer = enter("durability.place");
            span("core.place", || std::thread::sleep(std::time::Duration::from_millis(2)));
            outer.exit(1);
            root.exit(1);
        }
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.id == 7), "children inherit the root's id");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        let mut profile = Profile::default();
        profile.absorb(&spans);
        assert_eq!(profile.layer_self_ns.iter().sum::<f64>(), profile.timed_ns);
        let core = profile.layer_self_ns[0];
        assert!(core >= 2e6, "the core span holds the sleep: {core}");
        let durability = profile.get("durability.place");
        assert!(durability.self_ns[0] < durability.dur_ns[0]);
    }

    #[test]
    fn dropped_guards_close_their_spans() {
        start(4);
        let failing = || -> Result<(), ()> {
            let _guard = enter_id(CHECK, 1);
            Err(())
        };
        assert!(failing().is_err());
        assert_eq!(finish().len(), 1);
    }
}
