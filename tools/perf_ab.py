#!/usr/bin/env python3
"""A/B the end-to-end query benchmark between a base commit and a change.

    python3 tools/perf_ab.py --base <ref>
        [--workloads paper_lr,fleet_rounds] [--pairs 10] [--seconds 20]
        [--seed 7] [--trace 0] [--work-dir DIR]

Run from anywhere inside the repository. The base side is `git archive
<ref>` extracted into a work directory; the change side is the working
tree, rebuilt by every run, so leave src/ alone while it runs. Each side
runs its own, unedited `perfbench/run.py`. Runs come in alternating pairs
(base first in even pairs, change first in odd ones), so a slow drift of
the host hits both sides alike.

Every workload is measured in each of two code layouts, --pairs pairs per
layout: the default build, and one whose first configure sees
CXXFLAGS=-falign-functions=64 in its environment. Each side and layout
builds into its own CARGO_TARGET_DIR. Moving unchanged hot code by a few
bytes can shift a timing by more than a change does, so a difference
that shows in only one layout is not the change's.

For every workload, layout and metric it prints each side's median and
interquartile range (IQR), the change/base ratio of the medians and the
pairs the change won, where BENCHMARK.json says which direction is better.
`rule` reads "yes" when, in that layout, the change won at least 9 of
every 10 pairs and its median is better than the base's by more than the
base's IQR; `claim` reads "yes" only when the rule holds in every layout.
A run that reports `correct: false` or failed queries is flagged and
makes the script exit 1.

--work-dir keeps the extracted trees and builds for another run (a build
takes minutes); without it they go in a temporary directory that is
removed at the end.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                      capture_output=True, text=True,
                      check=True).stdout.strip()


def extract(ref, dest):
    """Extract `git archive ref` into dest (once: an existing tree of the
    same commit is reused)."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", ref + "^{commit}"],
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    stamp = os.path.join(dest, ".perf_ab_commit")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == commit:
                return commit
        sys.exit(f"perf_ab: {dest} holds another commit; use a new --work-dir")
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        sys.exit(f"perf_ab: git archive {ref} failed")
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return commit


# (name, extra CXXFLAGS) of each code layout.
LAYOUTS = (("default", ""), ("align64", "-falign-functions=64"))


class Side:
    def __init__(self, name, tree, target_dir, cxxflags):
        self.name = name
        self.tree = tree
        self.env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
        if cxxflags:
            flags = self.env.get("CXXFLAGS", "")
            self.env["CXXFLAGS"] = f"{flags} {cxxflags}".strip()

    def run(self, workload, seed, seconds, trace):
        cmd = [sys.executable, "perfbench/run.py",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=self.tree, env=self.env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perf_ab: {self.name} run failed: {' '.join(cmd)}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions(tree):
    """metric name -> "lower" or "higher", from the tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def report(title, runs, better, pairs):
    """Print one workload's table in one layout; return metric -> whether
    the rule holds, for the metrics BENCHMARK.json gives a direction."""
    names = sorted(set(runs["base"][0]["metrics"]) &
                   set(runs["change"][0]["metrics"]))
    print(f"\n{title}: {pairs} pairs")
    print(f"{'metric':24} {'base median':>14} {'base IQR':>12} "
          f"{'change median':>14} {'change IQR':>12} {'ratio':>7} "
          f"{'wins':>6} {'rule':>5}")
    holds = {}
    for name in names:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        ratio = cm / bm if bm != 0 else math.nan
        direction = better.get(name)
        wins = rule = None
        if direction in ("lower", "higher"):
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
            rule = (wins * 10 >= pairs * 9 and sign * (cm - bm) > b3 - b1)
            holds[name] = rule
        print(f"{name:24} {bm:14.6g} {b3 - b1:12.4g} {cm:14.6g} "
              f"{c3 - c1:12.4g} {ratio:7.3f} "
              f"{'-' if wins is None else f'{wins}/{pairs}':>6} "
              f"{'-' if rule is None else ('yes' if rule else 'no'):>5}")
    return holds


def report_claims(workload, holds_by_layout):
    """Print, per metric, whether the rule held in every layout."""
    print(f"\n{workload}: claim (the rule holds in every layout)")
    for name in sorted(holds_by_layout[0]):
        held = all(holds[name] for holds in holds_by_layout)
        print(f"{name:24} {'yes' if held else 'no':>5}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the base side")
    parser.add_argument("--workloads", default="paper_lr")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=None)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        sys.exit("perf_ab: --pairs >= 1, --seconds > 0 and --seed >= 0")

    tmp = None
    work = args.work_dir
    if work is None:
        tmp = tempfile.TemporaryDirectory(prefix="perf_ab.")
        work = tmp.name
    work = os.path.abspath(work)
    base_tree = os.path.join(work, "base")
    base_commit = extract(args.base, base_tree)
    print(f"base {base_commit} vs the working tree; seed {args.seed}, "
          f"{args.seconds} s per run, trace {args.trace}")

    better = directions(ROOT)
    bad = 0
    for workload in args.workloads.split(","):
        holds_by_layout = []
        for layout, cxxflags in LAYOUTS:
            sides = {
                name: Side(name, tree,
                           os.path.join(work, f"{name}-target-{layout}"),
                           cxxflags)
                for name, tree in (("base", base_tree), ("change", ROOT))
            }
            # The first call of each side builds its query_bench; a tiny
            # run keeps the build out of the timed pairs.
            for side in sides.values():
                side.run(workload, args.seed, 0.001, args.trace)
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = (("base", "change") if i % 2 == 0
                         else ("change", "base"))
                for name in order:
                    result = sides[name].run(workload, args.seed,
                                             args.seconds, args.trace)
                    if not result["correct"] or result["failed"] != 0:
                        bad += 1
                        print(f"  {layout} pair {i} {name}: "
                              f"correct={result['correct']} "
                              f"failed={result['failed']}", file=sys.stderr)
                    runs[name].append(result)
            flags = f"CXXFLAGS={cxxflags}" if cxxflags else "no extra flags"
            holds_by_layout.append(
                report(f"{workload}, layout {layout} ({flags})", runs,
                       better, args.pairs))
        report_claims(workload, holds_by_layout)

    if tmp is not None:
        tmp.cleanup()
    if bad:
        sys.exit(f"perf_ab: {bad} run(s) not correct or with failed queries")


if __name__ == "__main__":
    main()
