#!/usr/bin/env python3
"""Benchmark of the heatseries command line, run in-process.

    python3 perfbench/run.py --workload solve_ab --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each `heatseries.cli.main(argv)` call
starts when the previous one has returned and its output has been checked.
The run repeats whole rounds of the workload's command mix, in an order drawn
from the seed, until --seconds have passed and the workload's minimum number
of commands is reached.  The last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  The
package is imported from `src/` next to this directory; without it the run
exits with code 2 before printing a result.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: numpy links OpenBLAS, which otherwise starts one per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
SETUP_PASSES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve_ab", "solve_c", "studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import heatseries from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "heatseries", "cli.py")):
        print(f"perfbench: no heatseries sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import heatseries.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "heatseries"):
        print(f"perfbench: imported heatseries from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def _threads() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Speedometer:
    """The machine's current slowdown, from a fixed reference loop.

    On a shared host the CPUs change speed by up to 1.7x within seconds,
    depending on what other tenants run, so a whole run can land in a fast
    or a slow phase.  The reference loop has two parts that slow down
    differently: interpreter work, and a pass over an 8 MB array (cache and
    memory traffic).  The slowdown is the geometric mean of their times over
    NOMINAL_MS, their median times between workload commands on the 2-CPU
    machine the benchmark was tuned on.
    """

    NOMINAL_MS = (0.45, 2.5)

    def __init__(self):
        import numpy as np

        self._big = np.linspace(0.0, 1.0, 1 << 20)
        self.sample()  # the first calls fault in code and data

    @staticmethod
    def _interpreter():
        table = {}
        for i in range(600):
            table[f"k{i % 50}"] = (i, str(i * 0.5))
        return len(table)

    def _memory(self):
        big = self._big
        return float((big * big + big).sum())

    def sample(self) -> float:
        product = 1.0
        for part, nominal in zip((self._interpreter, self._memory), self.NOMINAL_MS):
            start = time.perf_counter()
            part()
            product *= 1e3 * (time.perf_counter() - start) / nominal
        return math.sqrt(product)


class Runner:
    """Runs commands, times each `cli.main` call and checks its output.

    The machine's slowdown is sampled after every call and, from a SIGALRM
    handler in this thread, every TICK_S seconds during one; the time those
    samples take is not counted as the call's.  `scaled` divides each wall
    time by the mean slowdown sampled from WINDOW_S before the call to
    WINDOW_S after it.
    """

    TICK_S = 0.1
    WINDOW_S = 0.02

    def __init__(self, cli, checks, speed: Speedometer):
        self.cli = cli
        self.checks = checks
        self.speed = speed
        self.timeline: list = []  # (time, slowdown), in time order
        self._sampling_s = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self.attempted = 0
        self.failed = 0
        self.wrong = False  # some command that exited 0 printed a wrong answer
        self.errors: list = []
        self.sample()

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def sample(self) -> float:
        """Take one slowdown sample; returns the seconds it took."""
        start = time.perf_counter()
        self.timeline.append((start, self.speed.sample()))
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self._sampling_s += self.sample()

    def call(self, command, noise_seed: int):
        """One command: (name, start, end, wall seconds), or None if it failed."""
        argv = command.concrete_argv(noise_seed)
        out, err = io.StringIO(), io.StringIO()
        self._sampling_s = 0.0
        self.attempted += 1
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback or argparse exit is a failed command
            code = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        timed = (command.name, start, end, end - start - self._sampling_s)
        self.sample()
        if code != 0:
            self.failed += 1
            self._note(command, f"exit {code}: {err.getvalue().strip()[:300]}")
            return None
        try:
            if command.output:
                with open(command.output) as handle:
                    text = handle.read()
            else:
                text = out.getvalue()
            command.check(text)
        except (self.checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.wrong = True
            self._note(command, f"wrong output: {exc}")
        return timed

    def _note(self, command, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{command.name}: {message}")

    def round(self, workload, rng: random.Random) -> list:
        """One shuffled round of the mix: the `call` records of the commands that ran."""
        order = list(workload.commands)
        rng.shuffle(order)
        done = []
        for command in order:
            noise_seed = rng.randrange(1, 2**31)
            gc.collect()
            timed = self.call(command, noise_seed)
            if timed is not None:
                done.append(timed)
        return done

    def scaled(self, records) -> list:
        """(name, scaled seconds, wall seconds) for `call` records."""
        times = [t for t, _ in self.timeline]
        running = [0.0]
        for _, slowdown in self.timeline:
            running.append(running[-1] + slowdown)
        out = []
        for name, start, end, wall in records:
            lo = bisect.bisect_left(times, start - self.WINDOW_S)
            hi = bisect.bisect_right(times, end + self.WINDOW_S)
            if hi == lo:  # no sample in the window: the nearest one
                lo = max(min(lo, len(times) - 1), 0)
                hi = lo + 1
            out.append((name, wall * (hi - lo) / (running[hi] - running[lo]), wall))
        return out


def measure(runner, workload, rng, seconds: float, tracer=None) -> tuple:
    """Whole rounds until `seconds` have passed and the workload's minimum
    number of commands has run.  With a tracer, every second round is traced,
    so traced and untraced rounds see the same machine conditions.
    Returns the `call` records of the (untraced, traced) commands."""
    plain, traced = [], []
    first = runner.attempted
    start = time.perf_counter()
    index = 0
    while runner.attempted - first < workload.min_commands or time.perf_counter() - start < seconds:
        if tracer is not None and index % 2:
            tracer.install()
            try:
                traced += runner.round(workload, rng)
            finally:
                tracer.uninstall()
        else:
            plain += runner.round(workload, rng)
        index += 1
    return plain, traced


def overhead_pct(plain, traced) -> float:
    """Tracing overhead: per-command median times, traced over untraced, summed over the mix."""
    def medians(pairs):
        by_name = {}
        for name, elapsed, _ in pairs:
            by_name.setdefault(name, []).append(elapsed)
        return {name: statistics.median(v) for name, v in by_name.items()}

    on, off = medians(traced), medians(plain)
    names = on.keys() & off.keys()
    return 100.0 * (sum(on[n] for n in names) / sum(off[n] for n in names) - 1.0)


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    import_end = time.perf_counter()

    sys.path.insert(0, HERE)
    import checks
    import workloads

    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.build(args.workload, workdir, ROOT)
    runner = Runner(cli, checks, Speedometer())
    rng = random.Random(args.seed)

    # set-up: write the inputs and call each distinct command once; repeated,
    # and the median pass counts, so one slow pass does not decide set-up time
    passes = []
    for _ in range(SETUP_PASSES):
        start = time.perf_counter()
        workload.write_inputs()
        end = time.perf_counter()
        records = [("write", start, end, end - start)]
        records += [r for r in (runner.call(c, 0) for c in workload.commands) if r is not None]
        passes.append(records)
    attempted_setup, failed_setup = runner.attempted, runner.failed
    gc.collect()
    gc.freeze()

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        plain, traced = (runner.scaled(r) for r in measure(runner, workload, rng, args.seconds, tracer))
        slowdown = sum(wall for _, _, wall in traced) / sum(scaled for _, scaled, _ in traced)
        metrics = {
            k: {"value": v / slowdown if k.endswith("_ms") else v, "unit": _unit(k)}
            for k, v in tracer.metrics(len(traced)).items()
        }
        metrics["trace.overhead_pct"] = {"value": overhead_pct(plain, traced), "unit": "%"}
        tracer.write(os.path.join(workdir, f"spans-seed{args.seed}.csv"))
    else:
        done = runner.scaled(measure(runner, workload, rng, args.seconds)[0])
        latencies = [scaled for _, scaled, _ in done]
        walls = [wall for _, _, wall in done]
        import_s = runner.scaled([("import", _START, import_end, import_end - _START)])[0][1]
        setup_s = import_s + statistics.median(sum(s for _, s, _ in runner.scaled(p)) for p in passes)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "commands_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "latency_ms_p50": {"value": 1e3 * percentile(latencies, 50.0), "unit": "ms"},
            "latency_ms_tail": {"value": 1e3 * percentile(latencies, workload.tail_pct), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        print(f"perfbench: unscaled wall times: p50 {1e3 * percentile(walls, 50.0):.3f} ms, "
              f"{len(walls) / sum(walls):.3f} commands/s; mean slowdown {sum(walls) / sum(latencies):.3f}",
              file=sys.stderr)

    runner.close()
    threads = _threads()
    for line in runner.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    if threads != 1:
        print(f"perfbench: {threads} threads in the process", file=sys.stderr)
    result = {
        "correct": not runner.wrong and threads == 1,
        # set-up calls are not part of the measured mix
        "attempted": runner.attempted - attempted_setup,
        "failed": runner.failed - failed_setup,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("_per_solve"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
