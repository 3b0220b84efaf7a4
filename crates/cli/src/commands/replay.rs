//! `cubefit replay` — deterministically reproduce a soak failure scenario
//! and shrink it to the minimal pinned regression.

use crate::args::ParsedArgs;
use cubefit_sim::{replay, shrink, Scenario};

/// Flags accepted by `replay`.
pub const FLAGS: &[&str] = &["scenario", "shrink", "out"];

/// Usage line shown in `--help`.
pub const USAGE: &str = "replay SCENARIO.json [--shrink] [--out PINNED.json]";

/// Runs the command: replays the scenario's suspect op window and, with
/// `--shrink`, bisects it down to a one-op pinned regression (written to
/// `--out`, default `<scenario>.min.json`).
///
/// # Errors
///
/// Returns a message for bad flags, unreadable scenario files, or a
/// scenario that does not reproduce (replays run to prove a failure; a
/// clean replay means the repro is stale).
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let path = match (args.positional.first(), args.get("scenario")) {
        (Some(p), _) => p.as_str(),
        (None, Some(p)) => p,
        (None, None) => return Err(format!("usage: {USAGE}")),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let scenario = Scenario::from_json(&text)?;

    let mut output = format!(
        "scenario: {} γ={} seed {} — suspect ops {}..={} ({})\n",
        scenario.config.algorithm.label(),
        scenario.config.algorithm.gamma(),
        scenario.config.seed,
        scenario.window_lo,
        scenario.window_hi,
        scenario.reason,
    );

    if args.has("shrink") {
        let outcome = shrink(&scenario)?;
        let default_out = format!("{path}.min.json");
        let out_path = args.get("out").unwrap_or(&default_out);
        crate::output::write_report(out_path, outcome.pinned.to_json())?;
        output.push_str(&format!(
            "shrunk in {} probes: first failing op is {} ({})\n\
             pinned one-op regression written to {out_path}\n",
            outcome.probes, outcome.failure.op, outcome.failure.reason,
        ));
        Ok(output)
    } else {
        match replay(&scenario).map_err(|e| e.to_string())? {
            Some(failure) => {
                output.push_str(&format!(
                    "reproduced: failure at op {} — {}\n\
                     shrink it with: cubefit replay {path} --shrink\n",
                    failure.op, failure.reason,
                ));
                Ok(output)
            }
            None => Err(format!(
                "{output}scenario did NOT reproduce: replay of ops 0..={} stayed clean",
                scenario.window_hi,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Produces a scenario file by running an injected-fault soak.
    fn scenario_file(name: &str) -> String {
        let path = tmp(name);
        let args = ParsedArgs::parse([
            "soak",
            "--ops",
            "2000",
            "--seed",
            "11",
            "--checkpoint-every",
            "100",
            "--inject-at",
            "731",
            "--scenario-out",
            &path,
        ])
        .unwrap();
        assert!(super::super::soak::run(&args).is_err());
        path
    }

    #[test]
    fn replay_reproduces_the_recorded_failure() {
        let path = scenario_file("replay-scenario.json");
        let args = ParsedArgs::parse(["replay", &path]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("reproduced: failure at op 731"), "{out}");
    }

    #[test]
    fn shrink_writes_a_pinned_one_op_regression() {
        let path = scenario_file("shrink-scenario.json");
        let pinned_path = tmp("shrink-pinned.json");
        let args = ParsedArgs::parse(["replay", &path, "--shrink", "--out", &pinned_path]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("first failing op is 731"), "{out}");
        let pinned = Scenario::from_json(&std::fs::read_to_string(&pinned_path).unwrap()).unwrap();
        assert_eq!((pinned.window_lo, pinned.window_hi), (731, 731));
        // The pinned scenario replays standalone — the regression test.
        let args = ParsedArgs::parse(["replay", &pinned_path]).unwrap();
        assert!(run(&args).unwrap().contains("failure at op 731"));
    }

    #[test]
    fn stale_scenarios_are_rejected() {
        let path = scenario_file("stale-scenario.json");
        let mut scenario = Scenario::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // Disarm the injection: the window is now clean, so the repro is
        // stale and both replay and shrink must say so.
        scenario.config.inject_at = None;
        let stale = tmp("stale-disarmed.json");
        std::fs::write(&stale, scenario.to_json()).unwrap();
        let args = ParsedArgs::parse(["replay", &stale]).unwrap();
        assert!(run(&args).unwrap_err().contains("did NOT reproduce"));
        let args = ParsedArgs::parse(["replay", &stale, "--shrink"]).unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn rejects_missing_and_malformed_scenarios() {
        let args = ParsedArgs::parse(["replay"]).unwrap();
        assert!(run(&args).unwrap_err().contains("usage"));
        let bad = tmp("bad-scenario.json");
        std::fs::write(&bad, "{not json").unwrap();
        let args = ParsedArgs::parse(["replay", &bad]).unwrap();
        assert!(run(&args).unwrap_err().contains("bad scenario file"));
    }
}
