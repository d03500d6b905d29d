"""Tests of the benchmark itself: inputs, correctness gate, tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qtheta import cli, parse_jacobi_table  # noqa: E402

SMALL = ("verify-orders", "--m", "3..4", "--q-trunc", "6", "--format", "csv")


def test_generation_is_deterministic_per_seed(tmp_path):
    path = tmp_path / "table.txt"
    first = workloads.build("identities-cramer", 5, path)
    assert workloads.build("identities-cramer", 5, path) == first
    assert workloads.build("identities-cramer", 5 + workloads.VARIANTS, path) == first
    other = workloads.build("identities-cramer", 6, path)
    assert other.jacobi_table != first.jacobi_table
    assert other.invocations[0].args != first.invocations[0].args


def test_jacobi_table_is_valid_with_every_class_nonzero():
    import random
    phi = parse_jacobi_table(workloads.jacobi_table(random.Random(0)))
    m = workloads.JACOBI_INDEX
    assert (phi.index_m, phi.n_trunc) == (m, workloads.JACOBI_N_TRUNC)
    for n in range(workloads.JACOBI_N_TRUNC):
        for r in range(-int((4 * m * n) ** 0.5), int((4 * m * n) ** 0.5) + 1):
            if 4 * m * n >= r * r and r % (2 * m) not in (0, m):
                assert phi.coeffs[(n, r)] != 0


def _bench(tmp_path, pins) -> run.Bench:
    inv = workloads.Invocation("test/orders", SMALL, dumps=True)
    return run.Bench(workloads.Workload("test", (inv,)), tmp_path, pins)


def _true_pins(tmp_path) -> dict:
    report, dump_dir = tmp_path / "r.out", tmp_path / "d"
    *_, status = run.spawn([sys.executable, "-c", run.ENTRY, *SMALL,
                            "--dump-series", str(dump_dir)], report, tmp_path / "e.out")
    assert status == 0
    return {"test/orders": workloads.output_digests(report, dump_dir)}


def test_corrupted_report_or_dump_digest_counts_as_failure(tmp_path):
    pins = _true_pins(tmp_path)
    assert len(pins["test/orders"]["dumps"]) == 2 + 3  # cofactors of m = 3 and m = 4
    bench = _bench(tmp_path, pins)
    bench.sample()
    assert (bench.attempted, bench.failed) == (1, 0)

    bad_report = json.loads(json.dumps(pins))
    bad_report["test/orders"]["report"] = "0" * 64
    bad_dump = json.loads(json.dumps(pins))
    name = sorted(bad_dump["test/orders"]["dumps"])[0]
    bad_dump["test/orders"]["dumps"][name] = "0" * 64
    missing_dump = json.loads(json.dumps(pins))
    missing_dump["test/orders"]["dumps"]["extra.series"] = "0" * 64
    for corrupted in (bad_report, bad_dump, missing_dump):
        bench = _bench(tmp_path, corrupted)
        bench.sample()
        assert (bench.attempted, bench.failed) == (1, 1), bench.problems


def test_probe_scale_is_reference_over_mean_probe_time():
    cpu = sorted(os.sched_getaffinity(0))[-1]
    with run.HostProbe([cpu]) as probe:
        time.sleep(0.12)
    assert len(probe.times) >= 2 and min(probe.times) > 0
    assert probe.scale == pytest.approx(run.REF_PROBE_S * len(probe.times) / sum(probe.times))


def _namespaces() -> dict:
    """(container, key) -> id(value) over every namespace the tracer patches."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "qtheta" or name.startswith("qtheta."):
            for key, value in vars(mod).items():
                snap[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snap[(name, key, attr)] = id(member)
                elif isinstance(value, dict):
                    for k, member in value.items():
                        snap[(name, key, k)] = id(member)
    return snap


def test_tracer_restores_every_patched_attribute():
    from qtheta import series, wronskian
    before = _namespaces()
    originals = (series.PuiseuxSeries.__mul__, cli.HANDLERS["verify-orders"],
                 cli.theta_derivative_matrix, wronskian.theta_derivative_matrix)
    t = tracer.Tracer()
    t.install()
    try:
        patched = (series.PuiseuxSeries.__mul__, cli.HANDLERS["verify-orders"],
                   cli.theta_derivative_matrix, wronskian.theta_derivative_matrix)
        assert all(p is not o for p, o in zip(patched, originals))
        assert series.PuiseuxSeries.__rmul__ is series.PuiseuxSeries.__mul__
    finally:
        t.uninstall()
    assert _namespaces() == before


def _traced_run(tmp_path, args, monkeypatch) -> tuple[str, Path]:
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    t = tracer.Tracer()
    t.install()
    try:
        status = cli.run(cli.config_from_args(cli.build_parser().parse_args(args)))
    finally:
        t.uninstall()
    monkeypatch.undo()
    assert status == 0
    spans = tmp_path / "spans.jsonl"
    t.write_jsonl(spans)
    return out.getvalue(), spans


def test_layer_self_times_sum_to_traced_total(tmp_path, monkeypatch):
    _, spans = _traced_run(tmp_path, list(SMALL), monkeypatch)
    metrics = tracer.per_layer_metrics([spans])
    assert metrics["cli.run.calls"] == 1
    assert metrics["wronskian.last_row_cofactors.calls"] >= 1
    total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(metrics["trace.total_s"], abs=1e-6)
    assert min(metrics[f"{name}.self_s"] for name in tracer.TARGETS) >= 0.0


def test_traced_and_untraced_report_bytes_are_identical(tmp_path):
    dumps = {}
    for label, prefix in (("plain", [sys.executable, "-c", run.ENTRY]),
                          ("traced", [sys.executable, tracer.__file__, "--spans",
                                      str(tmp_path / "s.jsonl"), "--"])):
        report, dump_dir = tmp_path / f"{label}.out", tmp_path / label
        *_, status = run.spawn([*prefix, *SMALL, "--dump-series", str(dump_dir)],
                               report, tmp_path / "err.out")
        assert status == 0
        dumps[label] = workloads.output_digests(report, dump_dir)
    assert dumps["plain"] == dumps["traced"]
    assert (tmp_path / "s.jsonl").stat().st_size > 0


def test_benchmark_json_names_every_metric_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracer.per_layer_metrics([])) | {"cli.parallel.busy_frac",
                                                     "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
