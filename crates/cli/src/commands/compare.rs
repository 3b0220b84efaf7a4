//! `cubefit compare` — run several algorithms over one trace.

use crate::args::ParsedArgs;
use crate::spec_parse;
use crate::telemetry_out;
use cubefit_sim::report::TextTable;
use cubefit_workload::trace;

/// Flags accepted by `compare`.
pub const FLAGS: &[&str] = &["trace", "algorithms", "gamma", "metrics-out", "trace-out"];

/// Usage line shown in `--help`.
pub const USAGE: &str = "compare --trace TRACE [--algorithms cubefit,rfi,bestfit] [--gamma G] \
                         [--metrics-out METRICS.json] [--trace-out EVENTS.jsonl]";

/// Runs the command, returning its stdout table.
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, or I/O failures.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let trace_path = args.required("trace").map_err(|e| e.to_string())?;
    let gamma: usize = args.get_or("gamma", 2usize, "an integer").map_err(|e| e.to_string())?;
    let list = args.get("algorithms").unwrap_or("cubefit,rfi,bestfit");

    let bytes = std::fs::read(trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    let sequence = trace::decode(&bytes[..]).map_err(|e| format!("decoding {trace_path}: {e}"))?;

    let mut table =
        TextTable::new(vec!["algorithm", "servers", "utilization", "robust", "placement time"]);
    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    // One recorder across all algorithms: counters stay separable via the
    // `algorithm` label, and the trace interleaves the runs in order.
    let recorder = telemetry_out::recorder_for(metrics_out, trace_out)?;
    let mut best: Option<(String, usize)> = None;
    for raw in list.split(',') {
        let spec = spec_parse::parse_algorithm(raw.trim(), gamma)?;
        let result = cubefit_sim::run_sequence_with(&spec, &sequence, &recorder)
            .map_err(|e| e.to_string())?;
        if best.as_ref().is_none_or(|(_, s)| result.servers < *s) {
            best = Some((result.algorithm.clone(), result.servers));
        }
        table.row(vec![
            result.algorithm,
            result.servers.to_string(),
            format!("{:.1}%", result.utilization * 100.0),
            result.robust.to_string(),
            format!("{:.3} ms", result.wall.as_secs_f64() * 1e3),
        ]);
    }
    recorder.flush()?;
    let mut output = table.render();
    if let Some((name, servers)) = best {
        output.push_str(&format!("\nbest: {name} with {servers} servers\n"));
    }
    if let Some(path) = metrics_out {
        telemetry_out::write_metrics(path, &recorder.snapshot())?;
        output.push_str(&format!("metrics written to {path}\n"));
    }
    if let Some(path) = trace_out {
        output.push_str(&format!("decision trace written to {path}\n"));
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

    #[test]
    fn compares_multiple_algorithms() {
        let trace = tmp("compare.cft");
        generate::run(
            &ParsedArgs::parse(["generate", "--out", &trace, "--tenants", "60"]).unwrap(),
        )
        .unwrap();
        let args = ParsedArgs::parse([
            "compare",
            "--trace",
            &trace,
            "--algorithms",
            "cubefit:k=5,rfi,nextfit",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("cubefit"));
        assert!(out.contains("rfi"));
        assert!(out.contains("nextfit"));
        assert!(out.contains("best:"));
    }

    #[test]
    fn metrics_out_separates_algorithms_by_label() {
        use cubefit_telemetry::MetricsSnapshot;

        let trace = tmp("compare-metrics.cft");
        let metrics_path = tmp("compare-metrics.json");
        generate::run(
            &ParsedArgs::parse(["generate", "--out", &trace, "--tenants", "50"]).unwrap(),
        )
        .unwrap();
        let args = ParsedArgs::parse([
            "compare",
            "--trace",
            &trace,
            "--algorithms",
            "cubefit,bestfit",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        run(&args).unwrap();
        let metrics: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(metrics.counter("placements", &[("algorithm", "cubefit")]), 50);
        assert_eq!(metrics.counter("placements", &[("algorithm", "bestfit")]), 50);
    }

    #[test]
    fn propagates_spec_errors() {
        let trace = tmp("compare-err.cft");
        generate::run(&ParsedArgs::parse(["generate", "--out", &trace, "--tenants", "5"]).unwrap())
            .unwrap();
        let args =
            ParsedArgs::parse(["compare", "--trace", &trace, "--algorithms", "nope"]).unwrap();
        assert!(run(&args).is_err());
    }
}
