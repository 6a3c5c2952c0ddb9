"""Benchmark two revisions with the stock perfbench and record both side by side.

    python3 scripts/bench_pair.py BENCH_21.json --base e6fb6b8 --head HEAD --seeds 10
    python3 scripts/bench_pair.py control.json --base HEAD~1 --head HEAD~1 --workload solve_c

Each revision's committed tree is exported with `git archive` into its own
temporary directory, so the benchmark builds what it runs from committed
files only and the checkout (its index and its git metadata included) is
left as it is.  Every workload of BENCHMARK.json (or each one named by
--workload, a repeatable option) then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`,
unmodified, in each tree, T being BENCHMARK.json's run_seconds: for each
seed the base and the head run back to back, in an order that alternates
with the seed, so drifts of machine speed fall on both.  The output records
the machine, both revisions, every run's metrics, and per metric the median
and quartiles of each side and the number of seeds on which the head is
better (in the direction BENCHMARK.json gives).  A run that is not correct,
or that fails commands, is recorded as it is and counted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_SEEDS = 5


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, into: str) -> str:
    """The committed tree of rev, unpacked under into; its full hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return sha


def machine() -> dict:
    """The host: the timings of a BENCH file and the bits of the golden
    record depend on it (numpy's BLAS build and the SIMD extensions it
    dispatches to included)."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "simd": build["SIMD Extensions"],
    }


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"exit": proc.returncode, "correct": False, "error": proc.stderr.strip()[-500:]}
    return {"exit": proc.returncode, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _summary(runs: list, name: str) -> dict:
    values = [run["metrics"][name] for run in runs if "metrics" in run]
    if not values:
        return {}
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _compare(base: list, head: list, metrics: dict) -> dict:
    out = {}
    for name, better in metrics.items():
        pairs = [(b["metrics"][name], h["metrics"][name]) for b, h in zip(base, head) if "metrics" in b and "metrics" in h]
        wins = sum((h < b) if better == "lower" else (h > b) for b, h in pairs)
        out[name] = {"base": _summary(base, name), "head": _summary(head, name), "head_better_pairs": wins,
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", help="the JSON file to write, e.g. BENCH_21.json")
    parser.add_argument("--base", default="HEAD~1", help="the revision to compare against (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="the revision under test (default HEAD)")
    parser.add_argument("--seeds", type=int, default=MIN_SEEDS, help=f"seeds per workload, at least {MIN_SEEDS}")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run this workload of BENCHMARK.json only (repeatable; default: every one)")
    args = parser.parse_args(argv)
    if args.seeds < MIN_SEEDS:
        parser.error(f"need at least {MIN_SEEDS} seeds, got {args.seeds}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(workloads))
    if unknown:
        parser.error(f"no workload {', '.join(unknown)} in BENCHMARK.json; choose from {workloads}")
    workloads = [w for w in workloads if w in (args.workload or workloads)]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    work = tempfile.mkdtemp(prefix="bench-pair-")
    try:
        trees = {side: os.path.join(work, side) for side in ("base", "head")}
        revisions = {}
        for side, rev in (("base", args.base), ("head", args.head)):
            os.mkdir(trees[side])
            revisions[side] = _export(rev, trees[side])
        results = {}
        for workload in workloads:
            runs = {"base": [], "head": []}
            for seed in range(1, args.seeds + 1):
                order = ("base", "head") if seed % 2 else ("head", "base")
                for side in order:
                    runs[side].append({"seed": seed, **_run(trees[side], workload, seed, seconds)})
                    print(f"{workload} seed {seed} {side}: {runs[side][-1].get('metrics', runs[side][-1])}",
                          file=sys.stderr)
            bad = {side: sum(not r["correct"] or r.get("failed", 1) > 0 for r in rs) for side, rs in runs.items()}
            results[workload] = {"metrics": _compare(runs["base"], runs["head"], metrics), "bad_runs": bad,
                                 "runs": runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds!r} --trace 0",
        "machine": machine(),
        "revisions": revisions,
        "seeds": list(range(1, args.seeds + 1)),
        "seconds": seconds,
        "workloads": results,
    }
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, result in results.items():
        for name, row in result["metrics"].items():
            base, head = row["base"], row["head"]
            if base and head:
                print(f"{workload:9s} {name:16s} {base['median']:10.4g} -> {head['median']:10.4g}  "
                      f"(base IQR {base['q1']:.4g}-{base['q3']:.4g}; head better in {row['head_better_pairs']}/"
                      f"{row['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
