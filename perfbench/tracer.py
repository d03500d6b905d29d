"""Per-layer tracing of ``qtheta.cli.run`` from outside the package.

The tracer wraps the public functions and methods listed in ``TARGETS``
with timing wrappers.  A wrapped object is replaced wherever a ``qtheta``
module holds it: module globals (``cli`` and ``wronskian`` import names
with ``from .x import y``), class attributes (``__rmul__`` is ``__mul__``)
and dicts such as ``cli.HANDLERS``.  ``uninstall`` puts every original back.

Spans are kept in memory, one record each (name, start, end, parent span,
run id), and written as JSON Lines when the run ends.  A span's self time
is its duration minus the time its child spans cover; spans come from one
thread, so sibling spans never overlap.

Run as a script it executes one CLI invocation traced, in process::

    PYTHONPATH=src python3 perfbench/tracer.py --spans out.jsonl --run-id 0 \\
        -- verify-orders --m 3..5 --q-trunc 8
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# metric name -> (module, qualified name) of each object it times
TARGETS = {
    "series.construct": [("qtheta.series", "PuiseuxSeries.__init__")],
    "series.mul": [("qtheta.series", "PuiseuxSeries.__mul__")],
    "series.add": [("qtheta.series", "PuiseuxSeries.__add__")],
    "series.div": [("qtheta.series", "PuiseuxSeries.__truediv__")],
    "series.pow": [("qtheta.series", "PuiseuxSeries.__pow__")],
    "series.q_derivative": [("qtheta.series", "PuiseuxSeries.q_derivative")],
    "series.dump": [("qtheta.series", "dump_series_text")],
    "modforms.eta": [("qtheta.modforms", "eta")],
    "modforms.eisenstein_e2": [("qtheta.modforms", "eisenstein_e2")],
    "modforms.modular_derivative": [("qtheta.modforms", "modular_derivative")],
    "theta.odd_theta_series": [("qtheta.theta", "odd_theta_series")],
    "theta.theta_series": [("qtheta.theta", "theta_series")],
    "theta.two_var.construct": [("qtheta.theta", "ThetaTwoVar.__init__")],
    "theta.two_var.mul_series": [("qtheta.theta", "ThetaTwoVar.mul_series")],
    "theta.two_var.zeta_moment": [("qtheta.theta", "ThetaTwoVar.zeta_moment")],
    "theta.translation_eigenvalue": [("qtheta.theta", "translation_eigenvalue")],
    "characters.unity_exponent": [("qtheta.characters", "UnityExponent.__init__")],
    "characters.translation_eigenvalues": [("qtheta.characters", "translation_eigenvalues")],
    "characters.squared_determinant": [
        ("qtheta.characters", "squared_determinant_translation"),
        ("qtheta.characters", "squared_determinant_delta_power")],
    "injectivity.classify": [("qtheta.injectivity", "classify")],
    "injectivity.nonintegrality_check": [("qtheta.injectivity", "nonintegrality_check")],
    "jacobi.parse": [("qtheta.jacobi", "parse_jacobi_table")],
    "jacobi.theta_components": [("qtheta.jacobi", "theta_components")],
    "jacobi.from_theta_components": [("qtheta.jacobi", "from_theta_components")],
    "jacobi.taylor_coefficient": [("qtheta.jacobi", "taylor_coefficient")],
    "jacobi.component_taylor": [("qtheta.jacobi", "component_taylor")],
    "jacobi.development_operator": [("qtheta.jacobi", "development_operator")],
    "jacobi.kernel_equivalence": [("qtheta.jacobi", "kernel_equivalence")],
    "jacobi.random_components": [("qtheta.jacobi", "random_components")],
    "wronskian.theta_derivative_matrix": [("qtheta.wronskian", "theta_derivative_matrix")],
    "wronskian.modular_wronskian": [("qtheta.wronskian", "modular_wronskian")],
    "wronskian.det": [("qtheta.wronskian", "SeriesMatrix.det")],
    "wronskian.last_row_cofactors": [("qtheta.wronskian", "SeriesMatrix.last_row_cofactors")],
    "wronskian.adjugate": [("qtheta.wronskian", "SeriesMatrix.adjugate")],
    "wronskian.verify_eta_power": [("qtheta.wronskian", "verify_eta_power")],
    "wronskian.verify_cofactor_orders": [("qtheta.wronskian", "verify_cofactor_orders")],
    "wronskian.cramer_reconstruction": [("qtheta.wronskian", "cramer_reconstruction")],
    "wronskian.kernel_components": [("qtheta.wronskian", "kernel_components")],
    "cli.run": [("qtheta.cli", "run")],
    "cli.handler": [("qtheta.cli", "HANDLERS[*]")],
    "cli.to_jsonable": [("qtheta.cli", "to_jsonable")],
}
LAYERS = ("series", "modforms", "theta", "characters", "injectivity", "jacobi",
          "wronskian", "cli")


def _terms_out(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _det_attrs(args, kwargs, result):
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.terms.values()), default=0)
    return {"terms_out": len(result.terms), "max_coeff_bits": bits}


def _matrix_key(args, kwargs, result):
    params = {**dict(zip(("m", "q_trunc"), args)), **kwargs}
    return {"key": f"{params['m']}@{params['q_trunc']}"}


def _dump_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# attributes recorded on a span after it closes, from its arguments and result
ATTRS = {
    "series.mul": _terms_out,
    "series.dump": _dump_bytes,
    "wronskian.det": _det_attrs,
    "wronskian.theta_derivative_matrix": _matrix_key,
}


def _resolve(module: str, qualname: str) -> list:
    mod = importlib.import_module(module)
    if qualname.endswith("[*]"):
        return list(dict.fromkeys(getattr(mod, qualname[:-3]).values()))
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return [vars(owner)[attr]]


class Tracer:
    """Installs timing wrappers, records spans, restores the originals."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names = list(TARGETS)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self._restore: list[tuple] = []

    def _wrap(self, fn, name_id: int, attrs):
        clock = time.perf_counter
        names, starts, ends, parents, stack = (self.span_name, self.span_start,
                                              self.span_end, self.span_parent, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if attrs is not None:
                self.attrs[idx] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for name_id, name in enumerate(self.names):
            for module, qualname in TARGETS[name]:
                for original in _resolve(module, qualname):
                    wrappers[id(original)] = (original,
                                              self._wrap(original, name_id, ATTRS.get(name)))
        seen = set()
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name == "qtheta" or mod_name.startswith("qtheta."):
                self._patch(vars(mod), lambda k, v, m=mod: setattr(m, k, v), wrappers, seen)

    def _patch(self, namespace, setter, wrappers, seen) -> None:
        for key, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(key, hit[1])
                self._restore.append((setter, key, value))
            elif isinstance(value, type) and value.__module__.startswith("qtheta"):
                if id(value) not in seen:
                    seen.add(id(value))
                    self._patch(vars(value), functools.partial(setattr, value),
                                wrappers, seen)
            elif isinstance(value, dict) and id(value) not in seen:
                seen.add(id(value))
                self._patch(value, value.__setitem__, wrappers, seen)

    def uninstall(self) -> None:
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    def write_jsonl(self, path: Path) -> None:
        names = [json.dumps(name) for name in self.names]
        with open(path, "w") as out:
            for idx in range(len(self.span_name)):
                parent = self.span_parent[idx]
                attrs = self.attrs.get(idx)
                out.write(f'{{"id":{idx},"name":{names[self.span_name[idx]]},'
                          f'"start":{self.span_start[idx]!r},"end":{self.span_end[idx]!r},'
                          f'"parent":{"null" if parent < 0 else parent},"run":{self.run_id}'
                          + (f',"attrs":{json.dumps(attrs)}}}\n' if attrs else "}\n"))


def per_layer_metrics(paths) -> dict[str, float]:
    """Calls, self time and span attributes per target and per layer.

    Reads the JSON Lines span files of one traced pass, one file per run.
    Returns every metric of every target, zero where a target never ran,
    plus ``trace.total_s``: the summed duration of the root spans.
    """
    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    out.update({"series.mul.terms_out": 0, "series.dump.bytes": 0,
                "wronskian.det.terms_out": 0, "wronskian.det.max_coeff_bits": 0,
                "wronskian.verify_eta_power.max_case_s": 0.0, "trace.total_s": 0.0})
    matrix_keys = set()
    for path in paths:
        names: list[str] = []
        duration = array("d")
        child = array("d")
        with open(path) as lines:
            for line in lines:
                s = json.loads(line)
                name, dur = s["name"], s["end"] - s["start"]
                if s["id"] != len(names):
                    raise ValueError(f"{path}: span ids out of order at {s['id']}")
                names.append(name)
                duration.append(dur)
                child.append(0.0)
                if s["parent"] is None:
                    out["trace.total_s"] += dur
                else:
                    child[s["parent"]] += dur
                attrs = s.get("attrs", {})
                if name == "series.mul":
                    out["series.mul.terms_out"] += attrs["terms_out"]
                elif name == "series.dump":
                    out["series.dump.bytes"] += attrs["bytes"]
                elif name == "wronskian.det":
                    out["wronskian.det.terms_out"] += attrs["terms_out"]
                    out["wronskian.det.max_coeff_bits"] = max(
                        out["wronskian.det.max_coeff_bits"], attrs["max_coeff_bits"])
                elif name == "wronskian.theta_derivative_matrix":
                    matrix_keys.add(attrs["key"])
                elif name == "wronskian.verify_eta_power":
                    out["wronskian.verify_eta_power.max_case_s"] = max(
                        out["wronskian.verify_eta_power.max_case_s"], dur)
        for name, dur, covered in zip(names, duration, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - covered
            out[f"{name.split('.', 1)[0]}.self_s"] += dur - covered
    calls = out["wronskian.theta_derivative_matrix.calls"]
    out["wronskian.theta_derivative_matrix.reuse_ratio"] = (
        len(matrix_keys) / calls if calls else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", type=Path, required=True, help="JSON Lines output")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="qtheta arguments after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    from qtheta import cli

    config = cli.config_from_args(cli.build_parser().parse_args(cli_args))
    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        status = cli.run(config)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write_jsonl(args.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
