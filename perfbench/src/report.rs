//! The metric catalogue — every end-to-end and per-layer metric, its unit
//! and how it is computed — and the JSON lines a run prints.

use crate::stats::{self, Summary};
use crate::timed::DURABILITY_MUTATIONS;
use crate::trace::{Profile, LAYERS};
use crate::Rep;
use serde_json::{Map, Value};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the per-repetition values (end-to-end metrics).
    pub spread: Option<Summary>,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric { name: name.into(), unit, value, spread: None, samples }
    }

    /// The median of per-repetition values, with their spread.
    fn over_reps(name: &str, unit: &'static str, values: &[f64]) -> Self {
        let spread = Summary::of(values);
        Metric { spread: Some(spread), ..Metric::new(name, unit, spread.median, values.len()) }
    }
}

/// Minima taken position by position across `series`, when every series
/// has the same length.
fn positional_minima(series: &[&[f64]]) -> Option<Vec<f64>> {
    let len = series.first()?.len();
    if series.iter().any(|s| s.len() != len) {
        return None;
    }
    Some((0..len).map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min)).collect())
}

/// Computes the end-to-end metrics from untraced repetitions.
///
/// Every repetition of a seed sends the same requests on the same
/// schedule, so what differs between repetitions at one position (a
/// request, or a block of the timed window) is mostly interference from
/// the rest of the machine, which only ever adds time. Each request's
/// latency is therefore its fastest over the repetitions, before ranking:
/// interference is voted out unless it hits that request in every
/// repetition, and no request is dropped. Where the final state is a pure
/// function of the seed, the repetitions also do the same work block by
/// block, and the rate divides it by the sum of the blocks' fastest
/// times. In `serve` a request's latency depends on where the batch
/// boundaries happened to fall in that repetition, so its fastest value
/// over repetitions is a lucky alignment, not an undisturbed one: each
/// latency percentile, and the rate, is instead the median of the
/// per-repetition values, which a disturbed repetition cannot move.
/// Counts and set-up time are medians over repetitions.
#[must_use]
pub fn end_to_end(reps: &[Rep], peak_rss_mib: f64) -> Vec<Metric> {
    let deterministic = reps.iter().all(|r| r.final_state.is_some());
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();

    let rates = per_rep(|r| r.work / r.work_s.iter().sum::<f64>());
    let blocks = reps.iter().map(|r| r.work_s.as_slice()).collect::<Vec<_>>();
    let rate = match positional_minima(&blocks).filter(|_| deterministic) {
        Some(blocks) => reps[0].work / blocks.iter().sum::<f64>(),
        None => stats::median(&rates),
    };
    let requests = reps.iter().map(|r| r.latency_ms.as_slice()).collect::<Vec<_>>();
    let fastest = positional_minima(&requests).filter(|_| deterministic).map(|l| stats::sorted(&l));
    let samples = reps.iter().map(|r| r.latency_ms.len()).sum();
    let latency = |name: &str, p: f64| {
        let per_rep: Vec<f64> =
            reps.iter().map(|r| stats::percentile(&stats::sorted(&r.latency_ms), p)).collect();
        let spread = Summary::of(&per_rep);
        let value = fastest.as_ref().map_or(spread.median, |l| stats::percentile(l, p));
        Metric { spread: Some(spread), ..Metric::new(name, "ms", value, samples) }
    };
    vec![
        Metric { value: rate, ..Metric::over_reps("ops_per_s", "1/s", &rates) },
        latency("latency_p50_ms", 50.0),
        latency("latency_p99_ms", 99.0),
        Metric::over_reps("servers_used", "count", &per_rep(|r| r.servers_used)),
        Metric::over_reps("setup_s", "s", &per_rep(|r| r.setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mib, 1),
    ]
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Computes the per-layer metrics from the traced repetitions' spans and
/// the counts and samples they recorded. A metric of a call the workload
/// never makes reads 0.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn per_layer(profile: &Profile, traced: &[Rep], overhead_frac: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let counter = |key: &str| {
        stats::median(
            &traced.iter().filter_map(|r| r.counters.get(key).copied()).collect::<Vec<_>>(),
        )
    };
    let pooled = |key: &str| {
        stats::sorted(
            &traced
                .iter()
                .filter_map(|r| r.samples.get(key))
                .flatten()
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    // Percentile `p` of a span's durations, scaled from ns by `scale`.
    let pct = |name: &str, p: f64, scale: f64| {
        let stats = profile.get(name);
        (stats::percentile(&stats::sorted(&stats.dur_ns), p) / scale, stats.dur_ns.len())
    };
    let per_item = |name: &str| {
        let stats = profile.get(name);
        let work = stats.work.iter().sum::<f64>();
        (ratio(stats.dur_ns.iter().sum::<f64>(), work), stats.dur_ns.len())
    };

    // core
    let (value, n) = per_item("core.place_batch");
    out.push(Metric::new("core.place_batch.ns_per_tenant", "ns", value, n));
    for (q, (dur, work)) in profile.place_quarters.iter().enumerate() {
        let name = format!("core.place_batch.ns_per_tenant.q{}", q + 1);
        out.push(Metric::new(name, "ns", ratio(*dur, *work), n));
    }
    let (value, n) = per_item("core.index_rebuild");
    out.push(Metric::new("core.index_rebuild.ns_per_tenant", "ns", value, n));
    for op in ["place", "remove", "update_load"] {
        for p in [50.0, 99.0] {
            let (value, n) = pct(&format!("core.{op}"), p, 1e3);
            out.push(Metric::new(format!("core.{op}.us.p{p}"), "us", value, n));
        }
    }
    for p in [50.0, 99.0] {
        let (value, n) = pct("core.recover", p, 1e6);
        out.push(Metric::new(format!("core.recover.ms.p{p}"), "ms", value, n));
    }
    let recover = profile.get("core.recover");
    out.push(Metric::new(
        "core.recover.replicas",
        "count",
        stats::mean(&recover.work),
        recover.work.len(),
    ));
    let (value, n) = pct("core.migrate", 50.0, 1e3);
    out.push(Metric::new("core.migrate.us.p50", "us", value, n));
    let audit = profile.get("core.audit");
    out.push(Metric::new(
        "core.audit.ms",
        "ms",
        stats::median(&audit.dur_ns) / 1e6,
        audit.dur_ns.len(),
    ));
    out.push(Metric::new("core.audit.bins", "count", stats::median(&audit.work), audit.work.len()));

    // defrag
    let (value, n) = pct("defrag.plan", 50.0, 1e6);
    out.push(Metric::new("defrag.plan.ms.p50", "ms", value, n));
    let (value, n) = pct("defrag.plan", 100.0, 1e6);
    out.push(Metric::new("defrag.plan.ms.max", "ms", value, n));
    let (value, n) = pct("defrag.apply", 50.0, 1e6);
    out.push(Metric::new("defrag.apply.ms.p50", "ms", value, n));
    for key in
        ["defrag.steps_planned", "defrag.steps_applied", "defrag.servers_closed", "defrag.aborts"]
    {
        out.push(Metric::new(key, "count", counter(key), traced.len()));
    }
    let closed_per_step = ratio(counter("defrag.servers_closed"), counter("defrag.steps_applied"));
    out.push(Metric::new("defrag.closed_per_step", "ratio", closed_per_step, traced.len()));

    // durability
    let appends = stats::sorted(
        &DURABILITY_MUTATIONS.iter().flat_map(|name| profile.get(name).self_ns).collect::<Vec<_>>(),
    );
    for p in [50.0, 99.0] {
        let value = stats::percentile(&appends, p) / 1e3;
        out.push(Metric::new(format!("durability.append.us.p{p}"), "us", value, appends.len()));
    }
    out.push(Metric::new("durability.frames", "count", counter("durability.frames"), traced.len()));
    let bytes = counter("durability.bytes_per_op");
    out.push(Metric::new("durability.bytes_per_op", "B", bytes, traced.len()));
    let checkpoint = profile.get("durability.checkpoint");
    let value = stats::median(&checkpoint.dur_ns) / 1e6;
    out.push(Metric::new("durability.checkpoint.ms", "ms", value, checkpoint.dur_ns.len()));
    let to_checkpoint = profile.get("durability.recover_checkpoint");
    let checkpoint_ns = stats::median(&to_checkpoint.dur_ns);
    let n = to_checkpoint.dur_ns.len();
    out.push(Metric::new("durability.recover.checkpoint_ms", "ms", checkpoint_ns / 1e6, n));
    let recover = profile.get("durability.recover");
    let frames = counter("durability.recover.frames");
    let replay_ns = (stats::median(&recover.dur_ns) - checkpoint_ns).max(0.0);
    let n = recover.dur_ns.len();
    out.push(Metric::new(
        "durability.recover.replay_us_per_frame",
        "us",
        ratio(replay_ns, frames) / 1e3,
        n,
    ));
    out.push(Metric::new("durability.recover.frames", "count", frames, traced.len()));

    // service
    for phase in ["light", "overload"] {
        let (value, n) = pct(&format!("service.offer.{phase}"), 50.0, 1e3);
        out.push(Metric::new(format!("service.offer.us.p50.{phase}"), "us", value, n));
        let start = format!("service.start_batch.{phase}");
        for p in [50.0, 99.0] {
            let (value, n) = pct(&start, p, 1e6);
            out.push(Metric::new(format!("service.start_batch.ms.p{p}.{phase}"), "ms", value, n));
        }
        let batches = profile.get(&start);
        let self_ms = stats::percentile(&stats::sorted(&batches.self_ns), 50.0) / 1e6;
        let n = batches.self_ns.len();
        out.push(Metric::new(format!("service.batch_self.ms.p50.{phase}"), "ms", self_ms, n));
        let (value, n) = pct(&format!("service.complete_batch.{phase}"), 50.0, 1e3);
        out.push(Metric::new(format!("service.complete_batch.us.p50.{phase}"), "us", value, n));
        let waits = pooled(&format!("service.queue_wait.{phase}"));
        for p in [50.0, 99.0] {
            let name = format!("service.queue_wait.ms.p{p}.{phase}");
            out.push(Metric::new(name, "ms", stats::percentile(&waits, p), waits.len()));
        }
        let sizes: Vec<f64> = batches.work.iter().copied().filter(|w| *w > 0.0).collect();
        let name = format!("service.batch_size.mean.{phase}");
        out.push(Metric::new(name, "count", stats::mean(&sizes), sizes.len()));
        for what in
            ["shed", "queue_full", "deadline_expired", "audits", "ladder_down", "final_limit"]
        {
            let name = format!("service.{what}.{phase}");
            out.push(Metric::new(name.clone(), "count", counter(&name), traced.len()));
        }
    }

    // bench
    let late = pooled("bench.gen_late");
    out.push(Metric::new(
        "bench.gen_late.ms.p99",
        "ms",
        stats::percentile(&late, 99.0),
        late.len(),
    ));
    out.push(Metric::new("trace.overhead_frac", "frac", overhead_frac, traced.len()));
    for (layer, self_ns) in LAYERS.iter().zip(profile.layer_self_ns) {
        let share = ratio(self_ns, profile.timed_ns);
        out.push(Metric::new(format!("{layer}.self_share"), "frac", share, traced.len()));
    }
    out
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Whether inputs were at smoke scale.
    pub smoke: bool,
    /// Measured repetitions (after one warm-up).
    pub reps: usize,
}

/// The full record: provenance, machine, and every metric with its spread.
#[must_use]
pub fn record_line(provenance: &Provenance, metrics: &[Metric]) -> String {
    let mut record = Map::new();
    let mut put = |key: &str, value: Value| {
        record.insert(key.to_owned(), value);
    };
    put("workload", Value::String(provenance.workload.to_owned()));
    put("seed", Value::from(provenance.seed));
    put("seconds", Value::from(provenance.seconds));
    put("trace", Value::Bool(provenance.trace));
    put("smoke", Value::Bool(provenance.smoke));
    put("reps", Value::from(provenance.reps));
    put("commit", Value::String(crate::machine::commit()));
    put("available_parallelism", Value::from(crate::machine::parallelism()));
    put("cpu_model", Value::String(crate::machine::cpu_model()));
    let mut all = Map::new();
    for metric in metrics {
        let mut entry = Map::new();
        entry.insert("unit".to_owned(), Value::String(metric.unit.to_owned()));
        entry.insert("value".to_owned(), Value::from(metric.value));
        entry.insert("samples".to_owned(), Value::from(metric.samples));
        if let Some(s) = metric.spread {
            for (key, value) in
                [("median", s.median), ("min", s.min), ("max", s.max), ("q1", s.q1), ("q3", s.q3)]
            {
                entry.insert(key.to_owned(), Value::from(value));
            }
            entry.insert("reps".to_owned(), Value::from(s.n));
        }
        all.insert(metric.name.clone(), Value::Object(entry));
    }
    put("metrics", Value::Object(all));
    let mut line = Map::new();
    line.insert("record".to_owned(), Value::Object(record));
    serde_json::to_string(&Value::Object(line)).unwrap_or_default()
}

/// The result line: `{"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut all = Map::new();
    for metric in metrics {
        let mut entry = Map::new();
        entry.insert("value".to_owned(), Value::from(metric.value));
        entry.insert("unit".to_owned(), Value::String(metric.unit.to_owned()));
        all.insert(metric.name.clone(), Value::Object(entry));
    }
    let mut line = Map::new();
    line.insert("correct".to_owned(), Value::Bool(correct));
    line.insert("attempted".to_owned(), Value::from(attempted));
    line.insert("failed".to_owned(), Value::from(failed));
    line.insert("metrics".to_owned(), Value::Object(all));
    serde_json::to_string(&Value::Object(line)).unwrap_or_default()
}
