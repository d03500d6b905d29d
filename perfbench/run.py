"""qtheta benchmark: drive the CLI in a closed loop and report metrics.

    python3 perfbench/run.py --workload wronskian-q40 --seed 0 --seconds 30 --trace 0

One client runs the workload's CLI invocations one after another and starts
the next only when the previous one has been reaped.  A sample is one pass
over the workload's invocations; samples repeat until the next one would end
after ``--seconds`` (counted from the start of the run).  Every invocation is
checked against pinned digests (exit status, report bytes, every
``--dump-series`` file).

Times are reported in reference seconds.  The speed of this kind of shared
host drifts by up to 1.7x within minutes, in CPU time as much as in wall
time, and all code on one CPU slows together.  So while each child runs, a
thread of the benchmark times a fixed ~1 ms probe kernel (exact Fraction
arithmetic, the package's own kind of work, written here and never taken
from ``qtheta``) every 50 ms, in thread CPU time, so being descheduled does
not count.  A single-process child is pinned to one CPU and the probe runs on
the same CPU; a ``--jobs N`` child gets N CPUs and the probe visits each in
turn.  Each sample's times are multiplied by ``REF_PROBE_S / probe_s``,
where ``probe_s`` is the mean probe time during that sample: a reference
second is the time in which the probe kernel runs ``1 / REF_PROBE_S`` times.
The measured seconds are printed beside them.

``--trace 0`` reports the end-to-end metrics (medians over the samples) and
``--trace 1`` the per-layer metrics of one traced pass (see tracer.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it gives every metric with its unit, quartiles and
sample count, the raw and reference times, the seed and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
HARD_LIMIT_S = 170.0
ENTRY = "import sys; from qtheta.cli import main; sys.exit(main())"
REF_PROBE_S = 0.001
PROBE_PERIOD_S = 0.05

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "max_rss_mb": "MB", "setup_s": "s"}


def probe_kernel() -> int:
    """A fixed sum of products on Fraction exponents, about 1 ms of work."""
    out: dict[Fraction, Fraction] = {}
    for i in range(1, 12):
        x = Fraction(i * i, 28)
        for j in range(1, 10):
            e = x + Fraction(j, 4)
            out[e] = out.get(e, 0) + x * e
    return len(out)


class HostProbe(threading.Thread):
    """Times ``probe_kernel`` every PROBE_PERIOD_S until the block ends, on
    each of ``cpus`` in turn: the CPUs the children are pinned to."""

    def __init__(self, cpus: list[int]):
        super().__init__(daemon=True)
        self.cpus = cpus
        self.times: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        for tick in itertools.count():
            os.sched_setaffinity(0, {self.cpus[tick % len(self.cpus)]})
            start = time.thread_time()
            probe_kernel()
            self.times.append(time.thread_time() - start)
            if self._done.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> HostProbe:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self.join()

    @property
    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REF_PROBE_S / statistics.fmean(self.times)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QTHETA_OUTPUT_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, limit_s: float = HARD_LIMIT_S,
          cpus: list[int] | None = None) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, user+sys s, max RSS MB, exit status).

    The child is reaped with wait4, so CPU time and RSS include its own
    reaped children (pool workers).  It is pinned to ``cpus`` if given, and
    its pool workers inherit that.  It runs in its own process group; a
    child still running after ``limit_s`` has its whole group killed and
    is reported with a nonzero status.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        killer = threading.Timer(max(limit_s, 0.1), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            if cpus is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.sched_setaffinity(proc.pid, cpus)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Sample(NamedTuple):
    """One untraced pass in measured units, with the host probe beside it."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    scale: float


class Bench:
    """One benchmark run of one workload in a private work directory."""

    def __init__(self, workload: workloads.Workload, work: Path, pins: dict,
                 start: float | None = None):
        self.workload = workload
        self.work = work
        self.pins = pins
        self.start = time.perf_counter() if start is None else start
        # A single-process child shares one CPU with the probe, so the probe
        # sees the speed that child sees; a pool gets as many CPUs as jobs.
        cpus = sorted(os.sched_getaffinity(0))
        self.solo_cpus = cpus[-1:]
        self.pool_cpus = cpus[-workload.jobs:]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _invoke(self, inv: workloads.Invocation, prefix: list[str], args,
                cpus: list[int]) -> tuple:
        self.attempted += 1
        report = self.work / "report.out"
        dump_dir = self.work / "dump" if inv.dumps else None
        if dump_dir is not None:
            shutil.rmtree(dump_dir, ignore_errors=True)
            args = [*args, "--dump-series", str(dump_dir)]
        wall, cpu, rss, status = spawn([*prefix, *args], report, self.work / "stderr.out",
                                       HARD_LIMIT_S - self.elapsed(), cpus)
        problems = workloads.check(inv, status, workloads.output_digests(report, dump_dir),
                                   self.pins)
        if problems:
            self.failed += 1
            self.problems.append(f"{inv.key}: {'; '.join(problems)}")
        return wall, cpu, rss

    def sample(self) -> Sample:
        """One untraced pass over the workload's invocations."""
        cpu = rss = 0.0
        with HostProbe(self.pool_cpus) as probe:
            start = time.perf_counter()
            for inv in self.workload.invocations:
                _, c, r = self._invoke(inv, [sys.executable, "-c", ENTRY], inv.args,
                                       self.pool_cpus)
                cpu += c
                rss = max(rss, r)
            wall = time.perf_counter() - start
        return Sample(wall, cpu, rss, probe.scale)

    def samples(self, seconds: float, reserve: float = 0.0) -> list[Sample]:
        """Closed-loop samples until the next one (plus ``reserve`` times its
        length) would end after ``seconds`` from the start of the run; at
        least one."""
        out = [self.sample()]
        while self.elapsed() + (1.0 + reserve) * out[-1].wall_s <= seconds:
            out.append(self.sample())
        return out

    def setup_times(self) -> tuple[list[float], float]:
        """Interpreter start plus ``import qtheta.cli``, after one warm-up;
        measured seconds and the scale to reference seconds."""
        argv = [sys.executable, "-c", "import qtheta.cli"]
        out, err = self.work / "setup.out", self.work / "setup.err"
        times = []
        with HostProbe(self.solo_cpus) as probe:
            for i in range(SETUP_SAMPLES + 1):
                wall, _, _, status = spawn(argv, out, err, cpus=self.solo_cpus)
                if status != 0:
                    raise RuntimeError(f"import qtheta.cli failed: {err.read_text()[-500:]}")
                if i:
                    times.append(wall)
        return times, probe.scale

    def traced_pass(self) -> tuple[float, float, list[Path]]:
        """Every invocation once under the tracer, in process with ``cli.run``:
        measured wall seconds, the scale to reference seconds, span files.

        Worker spans cannot be collected from outside, so invocations run
        with ``--jobs 1``.
        """
        spans = []
        with HostProbe(self.solo_cpus) as probe:
            start = time.perf_counter()
            for run_id, inv in enumerate(self.workload.invocations):
                args = list(inv.args)
                if "--jobs" in args:
                    args[args.index("--jobs") + 1] = "1"
                path = self.work / f"spans-{run_id}.jsonl"
                prefix = [sys.executable, str(Path(tracer.__file__)), "--spans", str(path),
                          "--run-id", str(run_id), "--"]
                self._invoke(inv, prefix, args, self.solo_cpus)
                spans.append(path)
            wall = time.perf_counter() - start
        return wall, probe.scale, spans


def quartiles(values: list[float], unit: str) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup, setup_scale = bench.setup_times()
    runs = bench.samples(seconds)
    measured = {"wall_s": [r.wall_s for r in runs], "cpu_s": [r.cpu_s for r in runs],
                "setup_s": setup}
    reference = {"wall_s": [r.wall_s * r.scale for r in runs],
                 "cpu_s": [r.cpu_s * r.scale for r in runs],
                 "max_rss_mb": [r.max_rss_mb for r in runs],
                 "setup_s": [t * setup_scale for t in setup]}
    stats = {}
    for name, unit in END_TO_END_UNITS.items():
        stats[name] = quartiles(reference[name], unit)
        if name in measured:
            stats[name]["measured_median"] = statistics.median(measured[name])
    stats["probe_scale"] = quartiles([r.scale for r in runs] + [setup_scale], "ratio")
    metrics = {name: metric(stats[name]["median"], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, stats


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    runs = bench.samples(seconds, reserve=1.5)
    wall = statistics.median(r.wall_s * r.scale for r in runs)
    busy = statistics.median(r.cpu_s / (bench.workload.jobs * r.wall_s) for r in runs)
    traced_wall, scale, span_paths = bench.traced_pass()
    values = tracer.per_layer_metrics(span_paths)
    for name in values:
        if unit_of(name) == "s":
            values[name] *= scale
    values["cli.parallel.busy_frac"] = busy
    values["trace.overhead_s"] = traced_wall * scale - wall
    metrics = {name: metric(value, unit_of(name)) for name, value in sorted(values.items())}
    return metrics, {"untraced_samples": len(runs), "untraced_wall_s": wall,
                     "traced_wall_s": traced_wall * scale,
                     "measured_traced_wall_s": traced_wall, "traced_probe_scale": scale,
                     "traced_jobs": 1,
                     "note": "the traced pass runs every invocation with --jobs 1"}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("reuse_ratio", "busy_frac")):
        return "ratio"
    if name.endswith("max_coeff_bits"):
        return "bits"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="qtheta benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtheta" / "cli.py").is_file():
        print(f"perfbench: no qtheta sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        jacobi_path = work / "jacobi_table.txt"
        workload = workloads.build(args.workload, args.seed, jacobi_path)
        if workload.jacobi_table is not None:
            jacobi_path.write_text(workload.jacobi_table)
        bench = Bench(workload, work, workloads.load_pins(), start)
        if args.trace:
            metrics, detail = per_layer(bench, args.seconds)
        else:
            metrics, detail = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "variant": workloads.variant_of(args.seed), "trace": args.trace,
                      "metrics": detail,
                      "failed_frac": metric(bench.failed / bench.attempted, "ratio"),
                      "problems": bench.problems[:10]}, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
