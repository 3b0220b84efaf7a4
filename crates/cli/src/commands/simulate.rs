//! `cubefit simulate` — run the cluster DES over a placement + trace.

use crate::args::ParsedArgs;
use cubefit_cluster::{sim::assignments_from_placement, ClusterSim, QueryMix, SimConfig};
use cubefit_core::validity::{self, FailoverSemantics};
use cubefit_core::{PlacementDump, TenantId};
use cubefit_workload::{trace, LoadModel};
use std::collections::HashMap;

/// Flags accepted by `simulate`.
pub const FLAGS: &[&str] =
    &["trace", "failures", "warmup", "measure", "seed", "sla", "metrics-out", "trace-out"];

/// Usage line shown in `--help`.
pub const USAGE: &str = "simulate PLACEMENT.json --trace TRACE [--failures F] [--warmup S] \
                         [--measure S] [--seed S] [--sla SECONDS] \
                         [--metrics-out METRICS.json] [--trace-out EVENTS.jsonl]";

/// Runs the command, returning its stdout text.
///
/// # Errors
///
/// Returns a message for bad flags, unreadable inputs, or inconsistent
/// placement/trace pairs.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let placement_path = args.positional.first().ok_or_else(|| format!("usage: {USAGE}"))?;
    let trace_path = args.required("trace").map_err(|e| e.to_string())?;
    let failures: usize =
        args.get_or("failures", 1usize, "an integer").map_err(|e| e.to_string())?;
    let warmup: f64 = args.get_or("warmup", 5.0f64, "seconds").map_err(|e| e.to_string())?;
    let measure: f64 = args.get_or("measure", 30.0f64, "seconds").map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0u64, "an integer").map_err(|e| e.to_string())?;
    let sla: f64 = args.get_or("sla", 5.0f64, "seconds").map_err(|e| e.to_string())?;

    let json = std::fs::read_to_string(placement_path)
        .map_err(|e| format!("reading {placement_path}: {e}"))?;
    let dump: PlacementDump =
        serde_json::from_str(&json).map_err(|e| format!("parsing {placement_path}: {e}"))?;
    let placement = dump.to_placement().map_err(|e| format!("rebuilding placement: {e}"))?;

    let bytes = std::fs::read(trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    let sequence = trace::decode(&bytes[..]).map_err(|e| format!("decoding {trace_path}: {e}"))?;
    let clients: HashMap<TenantId, u32> =
        sequence.specs().iter().map(|s| (s.tenant.id(), s.clients)).collect();
    for (id, _, _) in placement.tenants() {
        if !clients.contains_key(&id) {
            return Err(format!("placement references {id} absent from the trace"));
        }
    }

    let failed = validity::worst_failure_set(&placement, failures, FailoverSemantics::EvenSplit);
    let impact = validity::simulate_failures(&placement, &failed, FailoverSemantics::EvenSplit);

    let model = LoadModel::tpch_xeon();
    let mix = QueryMix::tpch_like(&model, sla);
    let assignments = assignments_from_placement(&placement, &|id| clients[&id]);
    let mut sim = ClusterSim::new(
        placement.created_bins(),
        assignments,
        &mix,
        &model,
        SimConfig { warmup_seconds: warmup, measure_seconds: measure, seed },
    );
    sim.fail_servers(&failed.iter().map(|b| b.index()).collect::<Vec<_>>());
    let unavailable = sim.unavailable_clients();
    let report = sim.run();

    let mut extra = String::new();
    if let Some(path) = args.get("metrics-out") {
        // The DES has no recorder of its own; publish the latency
        // histograms as a metrics snapshot in the shared schema.
        let mut metrics = cubefit_telemetry::MetricsSnapshot::default();
        metrics.histograms.push(cubefit_telemetry::NamedHistogram {
            name: "query_latency_seconds".to_owned(),
            labels: vec![("scope".to_owned(), "cluster".to_owned())],
            histogram: report.overall.snapshot(),
        });
        for (server, latencies) in report.per_server.iter().enumerate() {
            if !latencies.is_empty() {
                metrics.histograms.push(cubefit_telemetry::NamedHistogram {
                    name: "query_latency_seconds".to_owned(),
                    labels: vec![("server".to_owned(), server.to_string())],
                    histogram: latencies.snapshot(),
                });
            }
        }
        crate::telemetry_out::write_metrics(path, &metrics)?;
        extra.push_str(&format!("metrics written to {path}\n"));
    }
    if let Some(path) = args.get("trace-out") {
        use cubefit_telemetry::{JsonlSink, TraceEvent, TraceSink};
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let sink = JsonlSink::new(std::io::BufWriter::new(file));
        for &bin in &failed {
            sink.record(&TraceEvent::BinClosed { bin: bin.index(), level: placement.level(bin) });
        }
        let check = validity::check(&placement);
        sink.record(&TraceEvent::RobustnessChecked {
            robust: check.is_robust(),
            worst_margin: check.worst_margin,
            violations: check.violations.len(),
        });
        sink.flush()?;
        extra.push_str(&format!("failure trace written to {path}\n"));
    }

    Ok(format!(
        "failed worst {failures}-set {:?} (model worst load {:.3})\n\
         worst-server p99 {:.2} s, cluster p99 {:.2} s, mean {:.2} s over {} samples\n\
         SLA {} s: {}; {} clients unavailable\n",
        failed.iter().map(|b| b.index()).collect::<Vec<_>>(),
        impact.max_load(),
        report.worst_server_p99(),
        report.p99(),
        report.mean(),
        report.overall.len(),
        sla,
        if impact.has_overload() { "guarantee VIOLATED" } else { "guarantee holds" },
        unavailable,
    ) + &extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{generate, place};

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn simulates_a_generated_placement() {
        let trace = tmp("sim.cft");
        let placement = tmp("sim.json");
        generate::run(
            &ParsedArgs::parse(["generate", "--out", &trace, "--tenants", "30", "--seed", "4"])
                .unwrap(),
        )
        .unwrap();
        place::run(&ParsedArgs::parse(["place", "--trace", &trace, "--out", &placement]).unwrap())
            .unwrap();
        let args = ParsedArgs::parse([
            "simulate",
            placement.as_str(),
            "--trace",
            &trace,
            "--failures",
            "1",
            "--warmup",
            "1",
            "--measure",
            "5",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("worst-server p99"));
        assert!(out.contains("guarantee holds"));
    }

    #[test]
    fn writes_latency_metrics_and_failure_trace() {
        use cubefit_telemetry::{MetricsSnapshot, TraceEvent};

        let trace = tmp("sim-metrics.cft");
        let placement = tmp("sim-metrics.json");
        let metrics_path = tmp("sim-metrics-out.json");
        let events_path = tmp("sim-events.jsonl");
        generate::run(
            &ParsedArgs::parse(["generate", "--out", &trace, "--tenants", "25", "--seed", "9"])
                .unwrap(),
        )
        .unwrap();
        place::run(&ParsedArgs::parse(["place", "--trace", &trace, "--out", &placement]).unwrap())
            .unwrap();
        let args = ParsedArgs::parse([
            "simulate",
            placement.as_str(),
            "--trace",
            &trace,
            "--warmup",
            "1",
            "--measure",
            "4",
            "--metrics-out",
            &metrics_path,
            "--trace-out",
            &events_path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("metrics written"));

        let metrics: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let cluster = metrics
            .histograms
            .iter()
            .find(|h| h.labels.iter().any(|(k, v)| k == "scope" && v == "cluster"))
            .expect("cluster-wide latency histogram");
        assert!(cluster.histogram.count > 0);
        // Per-server sample counts sum to the cluster-wide count.
        let per_server: u64 = metrics
            .histograms
            .iter()
            .filter(|h| h.labels.iter().any(|(k, _)| k == "server"))
            .map(|h| h.histogram.count)
            .sum();
        assert_eq!(per_server, cluster.histogram.count);

        let events: Vec<TraceEvent> = std::fs::read_to_string(&events_path)
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        // One failed server by default, then the robustness verdict.
        assert!(matches!(events[0], TraceEvent::BinClosed { .. }));
        assert!(matches!(events.last(), Some(TraceEvent::RobustnessChecked { robust: true, .. })));
    }

    #[test]
    fn detects_trace_mismatch() {
        let trace_a = tmp("sim-a.cft");
        let trace_b = tmp("sim-b.cft");
        let placement = tmp("sim-a.json");
        generate::run(
            &ParsedArgs::parse(["generate", "--out", &trace_a, "--tenants", "10"]).unwrap(),
        )
        .unwrap();
        // Different tenant count → ids missing from the second trace.
        generate::run(
            &ParsedArgs::parse(["generate", "--out", &trace_b, "--tenants", "3"]).unwrap(),
        )
        .unwrap();
        place::run(
            &ParsedArgs::parse(["place", "--trace", &trace_a, "--out", &placement]).unwrap(),
        )
        .unwrap();
        let args =
            ParsedArgs::parse(["simulate", placement.as_str(), "--trace", &trace_b]).unwrap();
        assert!(run(&args).unwrap_err().contains("absent from the trace"));
    }
}
