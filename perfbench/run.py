"""Benchmark of the disclosuregame toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Each op is one in-process ``disclosuregame.cli.main([...])`` call with its
output captured, timed in a closed loop from one thread (see ``gen.py`` for
the workloads and why each exists).  The loop stops at the first round
boundary after ``--seconds``.  Every output is checked, outside the timed
region, against answers the benchmark derives itself (``reference.py``); a
wrong answer, a wrong exit code or an exception counts as a failed op and
never stops the run.

Every time is reported at one reference machine speed.  On shared cores the
same work can take 1.7 times as long from one few-second stretch to the next,
so a fixed Fraction computation that does not touch the program (``probe``)
is timed every PROBE_EVERY_S of wall time from a SIGALRM handler, inside the
ops too, and an op's time t (less the probing inside it) is reported as
t * REF_PROBE_S / (mean probe time during and next to the op).  A child
interpreter is timed between two bare interpreter starts (``python -c pass``)
instead, and its time scaled by REF_START_S over their mean.  The process pins
itself to one CPU, which its children inherit, so probes and work share a
core.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, untraced and then with every function in ``tracer.TARGETS``
wrapped, and reports per-op calls and self times, sizes, the tracing overhead
and per-rung latencies.  Spans are written to ``.perfbench_work/``.  The last
line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

ROUND = {"ladder": len(gen.LADDER_RUNGS), "oracle_desk": 2 * (len(gen.SEARCH_BANDS) + 1), "mixed_small": 10}
SETUP_REPS = 11
SUBPROCESS_PASSES = 4
REF_PROBE_S = 0.0025
PROBE_EVERY_S = 0.1
REF_START_S = 0.05
IMPORT_CLI = (
    "import time; t = time.perf_counter(); import disclosuregame.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def probe() -> float:
    """Time a fixed computation shaped like the program's work: Fractions, a dict, sorting."""
    start = perf_counter()
    xs = [Fraction(i * 7919 % 997, 997) for i in range(1, 150)]
    table: dict[Fraction, int] = {}
    for i, x in enumerate(xs):
        table[x] = table.get(x, 0) + i
    xs.sort()
    sum(a * b for a, b in zip(xs, reversed(xs)))
    sorted(table, key=lambda x: (x.denominator, x.numerator))
    return perf_counter() - start


class SpeedMonitor:
    """Times the probe every PROBE_EVERY_S of wall time while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _tick(self, *_) -> None:
        self.starts.append(perf_counter())
        self.times.append(probe())

    def __enter__(self) -> "SpeedMonitor":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def net_and_scale(self, start: float, end: float) -> tuple[float, float]:
        """Wall time in [start, end] less probing, and its scale to the reference speed."""
        lo, hi = bisect_left(self.starts, start), bisect_right(self.starts, end)
        inside = self.times[lo:hi]
        near = inside + self.times[max(lo - 1, 0):lo] + self.times[hi:hi + 1]
        return end - start - sum(inside), REF_PROBE_S * len(near) / sum(near)


def timed_children(argvs: list[list[str]]) -> list[tuple[float, float, subprocess.CompletedProcess]]:
    """Run child interpreters one at a time, each between two bare interpreter starts.

    Returns, per child, its wall time, the scale to the reference speed and its result.
    """
    def wall(argv):
        start = perf_counter()
        out = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        return perf_counter() - start, out

    before, _ = wall([sys.executable, "-c", "pass"])
    results = []
    for argv in argvs:
        elapsed, out = wall(argv)
        after, _ = wall([sys.executable, "-c", "pass"])
        results.append((elapsed, 2 * REF_START_S / (before + after), out))
        before = after
    return results


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of disclosuregame.cli in fresh interpreters, as measured and scaled.

    The first import, which writes bytecode, is dropped.
    """
    raw, scaled = [], []
    for _, scale, out in timed_children([[sys.executable, "-c", IMPORT_CLI]] * (SETUP_REPS + 1)):
        if out.returncode != 0:
            raise RuntimeError(f"importing the program failed:\n{out.stderr}")
        raw.append(float(out.stdout))
        scaled.append(raw[-1] * scale)
    return raw[1:], scaled[1:]


def measure_cli_subprocess() -> tuple[list[float], list[float], int, int]:
    """Wall time of `disclosuregame solve` in a child interpreter over the bundled fixture games."""
    fixtures = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        if "prior" in obj:
            fixtures.append((path, reference.expected(gen.game_from_obj(obj))))
    runs = fixtures * SUBPROCESS_PASSES
    argvs = [[sys.executable, "-m", "disclosuregame.cli", "solve", str(path)] for path, _ in runs]
    raw, scaled, failed = [], [], 0
    for (path, exp), (elapsed, scale, out) in zip(runs, timed_children(argvs)):
        raw.append(elapsed)
        scaled.append(elapsed * scale)
        if out.returncode != 0 or f"value: {gen.fmt(exp.value)} ({exp.tag})" not in out.stdout:
            failed += 1
            print(f"subprocess solve {path.name}: unexpected output\n{out.stderr}", file=sys.stderr)
    return raw, scaled, len(runs), failed


def run_op(cli, argv: list[str]) -> tuple[float, float, object, str, str]:
    """One captured cli.main call: start and end times, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # counted as a failed op; the run goes on
            code = "exception"
            err.write(traceback.format_exc())
        end = perf_counter()
    return start, end, code, out.getvalue(), err.getvalue()


class Sample(NamedTuple):
    op: int  # index into Runner.ops
    wall: float  # seconds as measured, less the probing inside the op
    scale: float  # REF_PROBE_S over the mean probe time during and next to the op

    @property
    def t(self) -> float:
        return self.wall * self.scale


class Runner:
    """Runs ops in a closed loop and checks every result against its expectation."""

    def __init__(self, workload: str, seed: int):
        self.ops = gen.make_ops(workload, seed)
        self.argvs = gen.write_inputs(self.ops, WORK / "inputs")
        self.round = ROUND[workload]
        self.expected = {}
        for op in self.ops:
            item = op.inputs[0]
            if isinstance(item, gen.Game) and id(item) not in self.expected:
                self.expected[id(item)] = reference.expected(item)
        from disclosuregame import cli

        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict = {}

    def loop(self, seconds: float, count: int | None = None, before_op=None) -> list[Sample]:
        """Run ops cyclically for `seconds` (ending on a round boundary), or for `count` ops."""
        ran: list[tuple[int, float, float]] = []
        spent, k = 0.0, 0
        with SpeedMonitor() as speed:
            while k < count if count is not None else (spent < seconds or k % self.round):
                i = k % len(self.ops)
                svg = WORK / "inputs" / f"out{i:04d}.svg"
                svg.unlink(missing_ok=True)
                if before_op:
                    before_op(k)
                start, end, code, out, err = run_op(self.cli, self.argvs[i])
                spent += end - start
                figure = svg.read_text(encoding="utf-8") if svg.exists() else None
                self.record(i, code, out, err, figure)
                ran.append((i, start, end))
                k += 1
        return [Sample(i, *speed.net_and_scale(start, end)) for i, start, end in ran]

    def record(self, i: int, code, out: str, err: str, figure) -> None:
        self.attempted += 1
        key = (i, code, out, err, figure)
        if key not in self._verdicts:
            op = self.ops[i]
            reason = reference.check_op(op, self.expected.get(id(op.inputs[0])), code, out, err, figure)
            self._verdicts[key] = reason
            if reason is not None:
                print(f"op {i} {' '.join(self.argvs[i])}: {reason}\n{err}", file=sys.stderr)
        if self._verdicts[key] is not None:
            self.failed += 1

    def sizes(self, op: gen.Op) -> tuple[int, int, int]:
        """Messages over the op's input structures; grid points and hull vertices of its game."""
        item = op.inputs[0]
        if isinstance(item, gen.Game):
            exp = self.expected[id(item)]
            return len(item.structure.messages), exp.grid_points, exp.hull_vertices
        return sum(len(st.messages) for st in op.inputs), 0, 0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup_raw, setup = measure_setup()
    samples = runner.loop(seconds)
    sub_raw, sub, sub_attempted, sub_failed = measure_cli_subprocess()
    runner.attempted += sub_attempted
    runner.failed += sub_failed
    lat = [s.t for s in samples]
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    print(
        f"{len(lat)} ops, {sum(s.wall for s in samples):.2f} s wall in ops, "
        f"{sum(lat):.2f} s at the reference speed; p90 from {len(lat)} samples "
        f"({len(lat) // 10} beyond it); import median of {len(setup)}: "
        f"{statistics.median(setup_raw):.4f} s wall; solve subprocess median of {len(sub)}: "
        f"{statistics.median(sub_raw):.4f} s wall",
        file=sys.stderr,
    )
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_s": metric(statistics.median(lat), "s"),
        "op_p90_s": metric(p90, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_solve_subprocess_s": metric(statistics.median(sub), "s"),
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    plain = runner.loop(seconds / 2)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = runner.loop(0, count=len(plain), before_op=lambda k: setattr(tr, "op", k))
    finally:
        tr.uninstall()
    spans = tr.spans
    tracer.write_spans(spans, WORK / f"spans-{workload}-{seed}.tsv")
    n = len(traced)
    selfs = [t * traced[span[0]].scale for t, span in zip(tracer.self_times(spans), spans)]
    metrics = {}
    for name in tracer.NAMES:
        idx = [j for j, s in enumerate(spans) if s[2] == name]
        metrics[f"{name}.calls"] = metric(len(idx) / n, "calls/op")
        metrics[f"{name}.self_s"] = metric(sum(selfs[j] for j in idx) / n, "s/op")
    in_search = [
        s for s in spans
        if s[2] == "equilibrium.verify_equilibrium" and _under(spans, s[1], "oracle.exhaustive_search")
    ]
    metrics["oracle.verify_in_search.calls"] = metric(len(in_search) / n, "calls/op")
    metrics["oracle.verify_ok_ratio"] = metric(
        sum(1 for s in in_search if s[5]) / len(in_search) if in_search else 0.0, "ratio"
    )
    sizes = [runner.sizes(runner.ops[s.op]) for s in traced]
    for j, key in enumerate(("messages", "grid_points", "hull_vertices")):
        metrics[f"sizes.{key}"] = metric(sum(sz[j] for sz in sizes) / n, "count/op")
    metrics["trace.overhead_ratio"] = metric(sum(s.t for s in traced) / sum(s.t for s in plain), "ratio")
    metrics["trace.ops"] = metric(n, "count")
    for m in gen.LADDER_RUNGS:
        lat = [s.t for s in plain if runner.ops[s.op].rung == m]
        metrics[f"solve_s.M{m}"] = metric(statistics.median(lat) if lat else 0.0, "s")
    if workload == "ladder":
        print_baseline(runner, traced, spans)
    return metrics


def _under(spans, parent: int, ancestor: str) -> bool:
    """Is a span named `ancestor` at `parent` or above it?"""
    while parent >= 0:
        if spans[parent][2] == ancestor:
            return True
        parent = spans[parent][1]
    return False


def print_baseline(runner: Runner, traced: list[Sample], spans) -> None:
    """The ROADMAP baseline table per rung: critical grid, `solve` and `verify_equilibrium` times."""
    rows: dict[int, dict] = {}
    for op, parent, name, start, end, _ in spans:
        sample = traced[op]
        row = rows.setdefault(runner.ops[sample.op].rung, {"grid": [], "solve": [], "verify": [], "mma": 0.0})
        top = parent >= 0 and spans[parent][2] == "cli.main"
        if name == "equilibrium.solve" and top:
            row["solve"].append((end - start) * sample.scale)
            row["grid"].append(runner.sizes(runner.ops[sample.op])[1])
        elif name == "equilibrium.verify_equilibrium" and top:
            row["verify"].append((end - start) * sample.scale)
        elif name == "verifiability.max_min_available" and _under(spans, parent, "equilibrium.solve"):
            row["mma"] += (end - start) * sample.scale
    print("| M = P | critical grid | `solve` | `verify_equilibrium` | max_min_available in solve |", file=sys.stderr)
    print("|------:|--------------:|--------:|---------------------:|---------------------------:|", file=sys.stderr)
    for m in sorted(rows):
        r = rows[m]
        print(
            f"| {m} | {statistics.median(r['grid']):g} | {statistics.median(r['solve']):.3f} s "
            f"| {statistics.median(r['verify']):.3f} s | {100 * r['mma'] / sum(r['solve']):.0f}% |",
            file=sys.stderr,
        )
    print("Medians per rung from the traced run, at the reference speed; "
          "the last column counts max_min_available with the messages_at calls under it.", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "disclosuregame" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'disclosuregame'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(WORK, ignore_errors=True)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics = per_layer(runner, args.workload, args.seed, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
