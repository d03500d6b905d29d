"""The benchmark's workloads, their seeded inputs and the correctness gate.

Each workload is a fixed list of ``qtheta`` CLI invocations run one after
another (a closed loop with one client).  Only ``identities-cramer`` takes
inputs from the seed: the seed picks one of ``VARIANTS`` input variants,
and each variant derives the CLI ``--seed`` and writes an index-7 Jacobi
coefficient table with plain integer arithmetic, never calling ``qtheta``,
so the inputs cannot move when the code under test moves.  Every variant's
report digest is pinned in ``digests.json``, so every seed is checked byte
for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "digests.json"
VARIANTS = 16
JACOBI_INDEX = 7
JACOBI_N_TRUNC = 20
JACOBI_WEIGHT = 3


@dataclasses.dataclass(frozen=True)
class Invocation:
    """One CLI call: ``key`` names its pinned digests, ``args`` follow ``qtheta``."""

    key: str
    args: tuple[str, ...]
    dumps: bool = False
    jobs: int = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    jacobi_table: str | None = None

    @property
    def jobs(self) -> int:
        return max(inv.jobs for inv in self.invocations)


# why each workload exists: see README.md and BENCHMARK.json
NAMES = ("wronskian-q40", "orders-dump", "identities-cramer", "catalog")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def jacobi_table(rng: random.Random, m: int = JACOBI_INDEX,
                 n_trunc: int = JACOBI_N_TRUNC, k: int = JACOBI_WEIGHT) -> str:
    """An orbit-complete, odd, holomorphic Fourier table with every class nonzero.

    c(n, r) depends only on (r mod 2m, 4mn - r^2); classes with r = 0 or m
    mod 2m are zero and the class of -r carries the negated value.
    """
    values: dict[tuple[int, int], tuple[int, int]] = {}
    lines = [f"k={k} m={m} N=1 trunc={n_trunc}/1"]
    for n in range(n_trunc):
        cap = math.isqrt(4 * m * n)
        for r in range(-cap, cap + 1):
            mu = r % (2 * m)
            if mu in (0, m):
                continue
            key = (min(mu, 2 * m - mu), 4 * m * n - r * r)
            if key not in values:
                num = rng.choice([x for x in range(-9, 10) if x])
                den = rng.randint(1, 4)
                g = math.gcd(num, den)
                values[key] = (num // g, den // g)
            num, den = values[key]
            lines.append(f"{n} {r} {-num if mu > m else num}/{den}")
    return "\n".join(lines) + "\n"


def build(name: str, seed: int, jacobi_path: Path) -> Workload:
    """The workload ``name`` for ``seed``; ``jacobi_path`` is where its table goes."""
    if name == "wronskian-q40":
        invs = [Invocation("wronskian-q40/verify-wronskian",
                           ("verify-wronskian", "--m", "2..8", "--q-trunc", "40",
                            "--format", "json"))]
        return Workload(name, tuple(invs))
    if name == "orders-dump":
        invs = [Invocation("orders-dump/verify-orders",
                           ("verify-orders", "--m", "3..10", "--q-trunc", "10",
                            "--format", "csv", "--jobs", "2"), dumps=True, jobs=2)]
        return Workload(name, tuple(invs))
    if name == "catalog":
        invs = [Invocation("catalog/verify-characters",
                           ("verify-characters", "--m", "2..200", "--format", "json")),
                Invocation("catalog/sweep",
                           ("sweep", "--k", "3..99", "--m-offset", "1..60",
                            "--N", "1,2,3,4,6", "--format", "csv"))]
        return Workload(name, tuple(invs))
    if name == "identities-cramer":
        variant = variant_of(seed)
        rng = random.Random(variant)
        cli_seed = rng.randrange(2 ** 31)
        table = jacobi_table(rng)
        invs = [Invocation(f"identities-cramer/variant-{variant}",
                           ("verify-identities", "--m", "3..5", "--q-trunc", "12",
                            "--trials", "20", "--seed", str(cli_seed),
                            "--jacobi-file", str(jacobi_path)))]
        return Workload(name, tuple(invs), jacobi_table=table)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(report: Path, dump_dir: Path | None) -> dict:
    """Digests of one invocation's report bytes and of each dump file."""
    digests = {"report": sha256_file(report)}
    if dump_dir is not None:
        files = sorted(dump_dir.iterdir()) if dump_dir.is_dir() else []
        digests["dumps"] = {f.name: sha256_file(f) for f in files}
    return digests


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


def check(inv: Invocation, status: int, digests: dict, pins: dict) -> list[str]:
    """Every way the invocation's outputs differ from the pins; empty means correct."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    pinned = pins.get(inv.key)
    if pinned is None:
        return problems + [f"no pinned digests for {inv.key}"]
    if digests["report"] != pinned["report"]:
        problems.append("report sha256 differs from the pin")
    if inv.dumps and digests.get("dumps") != pinned["dumps"]:
        got, want = digests.get("dumps", {}), pinned["dumps"]
        bad = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
        problems.append(f"{len(bad)} dump file(s) differ from the pins, first {bad[0]}")
    return problems
