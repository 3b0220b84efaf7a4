//! `cubefit place` — place a trace with an algorithm and dump the result.

use crate::args::ParsedArgs;
use crate::spec_parse;
use crate::telemetry_out;
use cubefit_core::PlacementDump;
use cubefit_workload::trace;

/// Flags accepted by `place`.
pub const FLAGS: &[&str] =
    &["trace", "algorithm", "gamma", "out", "metrics-out", "trace-out", "batch"];

/// Usage line shown in `--help`.
pub const USAGE: &str =
    "place --trace TRACE [--algorithm cubefit|cubefit:k=5|rfi|…] [--gamma G] [--out PLACEMENT.json] \
     [--metrics-out METRICS.json] [--trace-out EVENTS.jsonl] [--batch B]";

/// Runs the command, returning its stdout text.
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, or I/O failures.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let trace_path = args.required("trace").map_err(|e| e.to_string())?;
    let gamma: usize = args.get_or("gamma", 2usize, "an integer").map_err(|e| e.to_string())?;
    let spec = spec_parse::parse_algorithm(args.get("algorithm").unwrap_or("cubefit"), gamma)?;

    let bytes = std::fs::read(trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    let sequence = trace::decode(&bytes[..]).map_err(|e| format!("decoding {trace_path}: {e}"))?;

    let batch: usize = args.get_or("batch", 0usize, "an integer").map_err(|e| e.to_string())?;
    let batched = batch > 0;

    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    if batched && (metrics_out.is_some() || trace_out.is_some()) {
        return Err("--batch uses the batch fast paths, which skip per-decision telemetry; \
             drop --metrics-out/--trace-out or run without batching"
            .to_string());
    }
    let recorder = telemetry_out::recorder_for(metrics_out, trace_out)?;
    let result = if batched {
        cubefit_sim::run_sequence_batched(&spec, &sequence, batch).map_err(|e| e.to_string())?
    } else {
        cubefit_sim::run_sequence_with(&spec, &sequence, &recorder).map_err(|e| e.to_string())?
    };
    recorder.flush()?;
    let mut output = format!(
        "{algo}: {tenants} tenants on {servers} servers \
         (utilization {util:.1}%, robust: {robust}, placed in {wall_ms:.3} ms)\n",
        algo = result.algorithm,
        tenants = result.tenants,
        servers = result.servers,
        util = result.utilization * 100.0,
        robust = result.robust,
        wall_ms = result.wall.as_secs_f64() * 1e3,
    );
    if batched {
        output.push_str(&format!("batch size {batch}\n"));
    }

    if let Some(path) = metrics_out {
        telemetry_out::write_metrics(path, &result.metrics)?;
        output.push_str(&format!("metrics written to {path}\n"));
    }
    if let Some(path) = trace_out {
        output.push_str(&format!("decision trace written to {path}\n"));
    }
    if let Some(out) = args.get("out") {
        // Re-run to obtain the placement itself (run_sequence reports
        // statistics only); placement is deterministic given the spec,
        // and identical whether or not batching was used.
        let mut algorithm = spec.build().map_err(|e| e.to_string())?;
        let tenants: Vec<_> = sequence.tenants().collect();
        let chunk = if batch == 0 { tenants.len().max(1) } else { batch };
        for slice in tenants.chunks(chunk) {
            algorithm.place_batch(slice.to_vec()).map_err(|e| e.to_string())?;
        }
        let dump = PlacementDump::from_placement(algorithm.placement());
        let json = serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?;
        crate::output::write_report(out, json)?;
        output.push_str(&format!("placement written to {out}\n"));
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::generate;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn make_trace(name: &str) -> String {
        let path = tmp(name);
        let args = ParsedArgs::parse(["generate", "--out", &path, "--tenants", "40"]).unwrap();
        generate::run(&args).unwrap();
        path
    }

    #[test]
    fn places_and_dumps() {
        let trace = make_trace("place-in.cft");
        let out = tmp("place-out.json");
        let args = ParsedArgs::parse([
            "place",
            "--trace",
            &trace,
            "--algorithm",
            "cubefit:k=5",
            "--out",
            &out,
        ])
        .unwrap();
        let text = run(&args).unwrap();
        assert!(text.contains("40 tenants"));
        assert!(text.contains("robust: true"));
        let dump: PlacementDump =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(dump.tenants.len(), 40);
        assert!(dump.to_placement().unwrap().is_robust());
    }

    #[test]
    fn trace_out_bin_opened_matches_reported_servers() {
        use cubefit_telemetry::{MetricsSnapshot, TraceEvent};

        let trace = make_trace("place-traceout.cft");
        let events_path = tmp("place-events.jsonl");
        let metrics_path = tmp("place-metrics.json");
        let args = ParsedArgs::parse([
            "place",
            "--trace",
            &trace,
            "--trace-out",
            &events_path,
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        let text = run(&args).unwrap();
        let servers: usize = text
            .split(" servers")
            .next()
            .and_then(|s| s.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();

        let body = std::fs::read_to_string(&events_path).unwrap();
        let events: Vec<TraceEvent> =
            body.lines().map(|line| serde_json::from_str(line).unwrap()).collect();
        let opened = events.iter().filter(|e| matches!(e, TraceEvent::BinOpened { .. })).count();
        assert_eq!(opened, servers, "one BinOpened per reported server");
        assert!(matches!(events.last(), Some(TraceEvent::RobustnessChecked { .. })));

        let metrics: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(metrics.counter("placements", &[]) as usize, 40);
    }

    /// `--batch` is a throughput lever: the dumped placement must be
    /// byte-identical to the default run.
    #[test]
    fn batched_placement_matches_default() {
        let trace = make_trace("place-batched.cft");
        let plain_out = tmp("place-plain.json");
        let batched_out = tmp("place-batched.json");
        let plain =
            run(&ParsedArgs::parse(["place", "--trace", &trace, "--out", &plain_out]).unwrap())
                .unwrap();
        let batched = run(&ParsedArgs::parse([
            "place",
            "--trace",
            &trace,
            "--out",
            &batched_out,
            "--batch",
            "16",
        ])
        .unwrap())
        .unwrap();
        assert!(batched.contains("batch size 16"));
        assert!(!plain.contains("batch size"));
        assert_eq!(
            std::fs::read_to_string(&plain_out).unwrap(),
            std::fs::read_to_string(&batched_out).unwrap(),
            "batching must not change placement decisions"
        );
    }

    #[test]
    fn batched_mode_rejects_telemetry_flags() {
        let trace = make_trace("place-batched-telemetry.cft");
        let args = ParsedArgs::parse([
            "place",
            "--trace",
            &trace,
            "--batch",
            "4",
            "--metrics-out",
            &tmp("m.json"),
        ])
        .unwrap();
        assert!(run(&args).unwrap_err().contains("telemetry"));
    }

    #[test]
    fn reports_without_out_flag() {
        let trace = make_trace("place-noout.cft");
        let args = ParsedArgs::parse(["place", "--trace", &trace, "--algorithm", "rfi"]).unwrap();
        assert!(run(&args).unwrap().contains("rfi"));
    }

    #[test]
    fn bad_algorithm_is_reported() {
        let trace = make_trace("place-bad.cft");
        let args = ParsedArgs::parse(["place", "--trace", &trace, "--algorithm", "magic"]).unwrap();
        assert!(run(&args).unwrap_err().contains("unknown algorithm"));
    }
}
