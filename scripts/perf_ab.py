#!/usr/bin/env python3
"""A/B runner for perfbench: a parent commit against a change.

    scripts/perf_ab.py PARENT CHANGE [--pairs N] [--seed S] [--workloads a,b]
                       [--work DIR] [--raw FILE]
    scripts/perf_ab.py --report FILE

Each commit's committed files are exported with `git archive` into their
own directory under --work, and each export builds its own `perf` binary
in its own target directory (`perfbench/target` inside the export), so
both sides build from exactly what their commits hold. Then, for every
workload, N pairs of runs alternate which side goes first (the parent
first in even pairs). Every run uses the same seed (perfbench's seed 1
unless --seed says otherwise) and BENCHMARK.json's `run_seconds`.

For every end-to-end metric in BENCHMARK.json the report prints each
side's median and quartiles over its runs, the change/parent ratio of the
medians, the pairs the change won (ties count for neither side), the
bound and direction BENCHMARK.json sets, and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  within      the change's median is no worse than the parent's by more
              than the bound;
  worse       it is worse by more than the bound;
  unresolved  within the bound, but either side's interquartile range is
              wider than the bound, and not every change run beats every
              parent run.

It also prints `attempted` and `failed` per side (for `serve`, `failed`
counts light-phase refusals). --raw saves every run's result line, and
--report prints the report again from such a file. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit, work):
    """Exports `commit`'s files into work/<sha> and builds its perf binary."""
    sha = git("rev-parse", "--verify", commit + "^{commit}")
    tree = os.path.join(work, sha[:12])
    binary = os.path.join(tree, "perfbench", "target", "release", "perf")
    if not os.path.exists(os.path.join(tree, "BENCHMARK.json")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", sha],
            check=True, capture_output=True,
        ).stdout
        with tempfile.TemporaryFile() as tmp:
            tmp.write(archive)
            tmp.seek(0)
            with tarfile.open(fileobj=tmp) as tar:
                tar.extractall(tree, filter="data")
    print(f"building {commit} ({sha[:12]}) in {tree}", file=sys.stderr)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, "perfbench", "target"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml"),
         "--bin", "perf"],
        check=True, env=env,
    )
    return {"commit": commit, "sha": sha, "tree": tree, "binary": binary}


def run_once(side, workload, seed, seconds):
    """One perf run; returns its result line, or None if it printed none."""
    proc = subprocess.run(
        [side["binary"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=side["tree"], capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"  {side['commit']} {workload}: exit {proc.returncode}: "
              f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)  # the exclusive method, as perfbench
    return q[0], q[2]


def verdict(metric, parent, change):
    better_higher = metric["better"] == "higher"
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))

    def beats(c, p):
        return c > p if better_higher else c < p

    wins = sum(beats(c, p) for p, c in pairs)
    if better_higher:
        within = c_med >= p_med * (1 - bound)
        all_better = min(change) > max(parent)
    else:
        within = c_med <= p_med * (1 + bound)
        all_better = max(change) < min(parent)
    allowed = abs(p_med) * bound
    wide = (p_q3 - p_q1) > allowed or (c_q3 - c_q1) > allowed
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p_q3 - p_q1):
        word = "gain"
    elif not within:
        word = "worse"
    elif wide and not all_better:
        word = "unresolved"
    else:
        word = "within"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "wins": wins, "pairs": len(pairs), "verdict": word,
    }


def fmt(x):
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def report(raw, bench):
    print(f"parent {raw['parent']}  change {raw['change']}  seed {raw['seed']}  "
          f"seconds {raw['seconds']}")
    for workload, runs in raw["runs"].items():
        ok = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
        print(f"\n## {workload}: {len(ok)} complete pairs of {len(runs['parent'])}")
        for name in ("parent", "change"):
            results = [r for r in runs[name] if r]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            per_run = [r["failed"] for r in results]
            correct = all(r["correct"] for r in results)
            print(f"{name:>6}: attempted {attempted}, failed {failed} "
                  f"(per run {per_run}), all checks passed: {correct}")
        print(f"{'metric':<16} {'unit':<6} {'better':<7} {'bound':>5}  "
              f"{'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
              f"{'ratio':>6}  {'wins':>5}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in ok if name in p["metrics"]]
            change = [c["metrics"][name]["value"] for _, c in ok if name in c["metrics"]]
            if not parent or len(parent) != len(change):
                continue
            v = verdict(metric, parent, change)
            side = lambda t: f"{fmt(t[0])} [{fmt(t[1])}, {fmt(t[2])}]"
            print(f"{name:<16} {metric['unit']:<6} {metric['better']:<7} "
                  f"{metric['bound']:>5}  {side(v['parent']):<32} {side(v['change']):<32} "
                  f"{v['ratio']:>6.3f}  {v['wins']:>2}/{v['pairs']:<2}  {v['verdict']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's")
    parser.add_argument("--work", help="where the exports go (default: a new temp dir)")
    parser.add_argument("--raw", help="save every run's result line here")
    parser.add_argument("--report", help="print the report of a --raw file and exit")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.report:
        with open(args.report) as f:
            report(json.load(f), bench)
        return
    if not (args.parent and args.change):
        parser.error("PARENT and CHANGE are required")
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    work = args.work or tempfile.mkdtemp(prefix="perf_ab-")
    sides = {"parent": export(args.parent, work), "change": export(args.change, work)}
    raw = {"parent": args.parent, "change": args.change, "seed": args.seed,
           "seconds": seconds, "runs": {}}
    for workload in workloads:
        runs = raw["runs"].setdefault(workload, {"parent": [], "change": []})
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(run_once(sides[name], workload, args.seed, seconds))
            print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            if args.raw:
                with open(args.raw, "w") as f:
                    json.dump(raw, f)
    report(raw, bench)


if __name__ == "__main__":
    main()
