"""Write digests.json: the report and dump digests the benchmark checks against.

    python3 perfbench/pin.py

Runs every invocation of every workload once (all identities-cramer
variants) at the current commit and records the sha256 of the report bytes
and of each --dump-series file.  Pins are taken once, from a commit whose
reports are known to be right; a change that alters report bytes on purpose
re-pins and says so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pins = {}
    try:
        jacobi_path = work / "jacobi_table.txt"
        for name in workloads.NAMES:
            seeds = range(workloads.VARIANTS) if name == "identities-cramer" else [0]
            for seed in seeds:
                workload = workloads.build(name, seed, jacobi_path)
                if workload.jacobi_table is not None:
                    jacobi_path.write_text(workload.jacobi_table)
                for inv in workload.invocations:
                    args = list(inv.args)
                    dump_dir = work / "dump" if inv.dumps else None
                    if dump_dir is not None:
                        shutil.rmtree(dump_dir, ignore_errors=True)
                        args += ["--dump-series", str(dump_dir)]
                    report = work / "report.out"
                    *_, status = run.spawn([sys.executable, "-c", run.ENTRY, *args],
                                           report, work / "stderr.out")
                    if status != 0:
                        print(f"{inv.key}: exit status {status}", file=sys.stderr)
                        return 1
                    pins[inv.key] = workloads.output_digests(report, dump_dir)
                    print(inv.key, pins[inv.key]["report"], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
