//! # cubefit-cli
//!
//! The `cubefit` command-line tool: generate workload traces, place them
//! with any algorithm in the workspace, audit placements for robustness,
//! compare algorithms, and run failure simulations — the operator-facing
//! surface of the CubeFit reproduction.
//!
//! ```console
//! $ cubefit generate --out fleet.cft --distribution zipf:3 --tenants 5000
//! $ cubefit place --trace fleet.cft --algorithm cubefit:k=10 --out fleet.json
//! $ cubefit check fleet.json
//! $ cubefit compare --trace fleet.cft --algorithms cubefit,rfi,bestfit
//! $ cubefit simulate fleet.json --trace fleet.cft --failures 1
//! $ cubefit churn --algorithm cubefit --gamma 3 --ops 2000 --audit
//! $ cubefit rent --ops 2000 --block-ms 3600000 --defrag-moves 64 --audit
//! $ cubefit soak --ops 1000000 --seed 7 --trace-out soak.jsonl
//! $ cubefit serve --bench --storm --out serve.json --dump serve-placement.json
//! $ cubefit analyze soak.jsonl --expect-clean
//! $ cubefit replay cubefit-soak-scenario.json --shrink
//! $ cubefit soak --ops 20000 --journal wal --fsync interval:64
//! $ cubefit recover wal --audit --out recovered.json
//! ```
//!
//! Every subcommand is a pure function from parsed arguments to output
//! text (see [`commands`]), so the full CLI is unit tested in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod args;
pub mod commands;
mod lifecycle_args;
mod output;
pub mod spec_parse;
pub mod telemetry_out;

use args::ParsedArgs;

/// The tool's help text.
#[must_use]
pub fn help() -> String {
    format!(
        "cubefit — robust multi-tenant server consolidation (ICDCS 2017 reproduction)\n\n\
         USAGE:\n  cubefit <COMMAND> [FLAGS]\n\n\
         COMMANDS:\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  help\n",
        commands::generate::USAGE,
        commands::place::USAGE,
        commands::check::USAGE,
        commands::compare::USAGE,
        commands::simulate::USAGE,
        commands::churn::USAGE,
        commands::defrag::USAGE,
        commands::drift::USAGE,
        commands::rent::USAGE,
        commands::soak::USAGE,
        commands::serve::USAGE,
        commands::analyze::USAGE,
        commands::replay::USAGE,
        commands::metrics::USAGE,
        commands::recover::USAGE,
    )
}

/// Dispatches a parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns the error text to print to stderr (the process should exit
/// non-zero).
pub fn dispatch(args: &ParsedArgs) -> Result<String, String> {
    match args.command.as_deref() {
        Some("generate") => commands::generate::run(args),
        Some("place") => commands::place::run(args),
        Some("check") => commands::check::run(args),
        Some("compare") => commands::compare::run(args),
        Some("simulate") => commands::simulate::run(args),
        Some("churn") => commands::churn::run(args),
        Some("defrag") => commands::defrag::run(args),
        Some("drift") => commands::drift::run(args),
        Some("rent") => commands::rent::run(args),
        Some("soak") => commands::soak::run(args),
        Some("serve") => commands::serve::run(args),
        Some("analyze") => commands::analyze::run(args),
        Some("replay") => commands::replay::run(args),
        Some("metrics") => commands::metrics::run(args),
        Some("recover") => commands::recover::run(args),
        Some("help") | None => Ok(help()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", help())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_command() {
        let text = help();
        for command in [
            "generate", "place", "check", "compare", "simulate", "churn", "defrag", "drift",
            "rent", "soak", "serve", "analyze", "replay", "metrics", "recover",
        ] {
            assert!(text.contains(command), "help missing {command}");
        }
    }

    #[test]
    fn dispatch_routes_and_rejects() {
        assert!(dispatch(&ParsedArgs::parse(["help"]).unwrap()).is_ok());
        assert!(dispatch(&ParsedArgs::parse(Vec::<String>::new()).unwrap()).is_ok());
        assert!(dispatch(&ParsedArgs::parse(["frobnicate"]).unwrap())
            .unwrap_err()
            .contains("unknown command"));
    }
}
