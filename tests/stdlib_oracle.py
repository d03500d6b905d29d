"""Report checks in standard-library Python that share no code with qtheta.

Each check recomputes what a written report claims, from the definitions:

- ``wronskian REPORT``: the ``verify-wronskian --m 2..8 --q-trunc 40``
  report.  W, the Leibniz determinant of the odd theta-derivative matrix,
  must be the reported constant c times eta^lam, lam = (m-1)(2m-1), below
  q^40 for every m (the type-C Macdonald identity).
- ``cofactors REPORT DUMPS``: the ``verify-orders --m 3..8 --q-trunc 10``
  report and its ``--dump-series`` directory.  Each last-row cofactor,
  recomputed as a Leibniz minor, must be its dump below the dump's own
  window, and each cofactor order cell the least exponent sum mu^2/4m over
  the other columns.
- ``characters REPORT``: the ``verify-characters --m 2..400`` report.  Every
  exponent cell must be (mu^2 mod 4m)/4m in lowest terms.
- ``csv-shape FILE...``: each CSV report must be what ``csv.writer`` writes
  back from ``csv.reader``'s parse of it, every data row as wide as its
  table's header, and a blank line only right before a ``# table:`` line.

Run ``python tests/stdlib_oracle.py <check> ARG...``; a check that fails
exits with status 1 and prints its message.  Each check is also a function
of the same name (``csv_shape`` for ``csv-shape``) that raises SystemExit
with that message.  Every series below is an int dict on the keys e of
x = q^(1/4m), with row j of the theta matrix scaled by (4m)^j so that every
coefficient is an integer.
"""

import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

WRONSKIAN_TOP = 40  # the --q-trunc of the wronskian report


def mul(a: dict, b: dict, bound: int) -> dict:
    """The product of two int dicts, cut to the keys below ``bound``."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < bound:
                out[e] = out.get(e, 0) + ca * cb
    return out


def leibniz_minor(m: int, columns: list, bound: int) -> dict:
    """The minor of rows 0..len(columns)-1 of the index-m theta matrix on
    ``columns``, nonzero keys below ``bound`` only.  Row j, scaled by (4m)^j,
    of column mu is the sum over r = mu mod 2m of r^(2j+1) x^(r^2).  The
    Leibniz sum; every key is >= 0, so each product cut below the bound is
    exact there."""
    cap = math.isqrt(bound - 1)
    size = len(columns)
    entry = [[{r * r: r ** (2 * j + 1) for r in range(-cap, cap + 1) if r % (2 * m) == mu}
              for mu in columns] for j in range(size)]
    out = {}
    for perm in itertools.permutations(range(size)):
        product = {0: (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))}
        for j, column in enumerate(perm):
            product = mul(product, entry[j][column], bound)
        for e, c in product.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def eta_power(m: int, lam: int, bound: int) -> dict:
    """eta^lam = q^(lam/24) prod_k (1 - q^k)^lam, nonzero keys below
    ``bound`` only, for lam = (m-1)(2m-1): then lam/24 = sum mu^2/4m over
    mu = 1..m-1, an integer key."""
    shift = sum(mu * mu for mu in range(1, m))
    assert 24 * shift == 4 * m * lam
    n_top = -(-(bound - shift) // (4 * m))  # integer n with 4m n + shift < bound
    series = [1] + [0] * (n_top - 1)
    for k in range(1, n_top):
        for _ in range(lam):
            for n in range(n_top - 1, k - 1, -1):
                series[n] -= series[n - k]
    return {4 * m * n + shift: c for n, c in enumerate(series) if c}


def load(report) -> dict:
    return json.loads(Path(report).read_text())


def wronskian(report) -> None:
    rows = load(report)["results"]["reports"]
    if [row["index_m"] for row in rows] != list(range(2, 9)):
        sys.exit("the report rows are not m = 2..8")
    for row in rows:
        m, lam = row["index_m"], row["eta_exponent"]
        if lam != (m - 1) * (2 * m - 1):
            sys.exit(f"m={m}: eta exponent {lam}, expected (m-1)(2m-1)")
        bound = 4 * m * WRONSKIAN_TOP
        w = leibniz_minor(m, list(range(1, m)), bound)
        # W = c eta^lam, and the rows were scaled by (4m)^(0 + 1 + ... + m-2)
        num, den = map(int, row["constant"].split("/"))
        scale = (4 * m) ** ((m - 1) * (m - 2) // 2)
        if {e: c * den for e, c in w.items()} != \
                {e: c * num * scale for e, c in eta_power(m, lam, bound).items()}:
            sys.exit(f"m={m}: W is not {row['constant']} eta^{lam} below q^{WRONSKIAN_TOP}")
    print(f"W = c eta^lam below q^{WRONSKIAN_TOP} for m = 2..8, c as reported")


def cofactors(report, dumps) -> None:
    cells = {(row["m"], row["check"]): row for row in load(report)["results"]["orders"]}
    if sorted({m for m, _ in cells}) != list(range(3, 9)):
        sys.exit("the report rows are not m = 3..8")
    dumps = Path(dumps)
    names = set()
    for m in range(3, 9):
        grid = 4 * m
        for nu in range(1, m):
            name = f"cofactor_m{m}_nu{nu}.series"
            names.add(name)
            head, *lines = (dumps / name).read_text().splitlines()
            trunc = Fraction(dict(part.split("=") for part in head.split())["trunc"])
            if trunc < 10:
                sys.exit(f"{name}: window {trunc} below the requested q^10")
            dumped = {}
            for line in lines:
                coeff, exponent = map(Fraction, line.split())
                if (exponent * grid).denominator != 1:
                    sys.exit(f"{name}: exponent {exponent} off the grid 1/{grid}")
                dumped[int(exponent * grid)] = coeff
            # the cofactor of (m-2, nu-1) is (-1)^(m+nu+1) times the minor of
            # rows 0..m-3 on the other columns
            columns = [mu for mu in range(1, m) if mu != nu]
            minor = leibniz_minor(m, columns, math.ceil(trunc * grid))
            sign, scale = (-1) ** (m + nu + 1), grid ** ((m - 2) * (m - 3) // 2)
            if {e: c * scale for e, c in dumped.items()} != {e: sign * c for e, c in minor.items()}:
                sys.exit(f"{name}: not the last-row cofactor below its window {trunc}")
            order = Fraction(sum(mu * mu for mu in columns), grid)
            cell = f"{order.numerator}/{order.denominator}"
            row = cells[(m, f"cofactor_order_nu_{nu}")]
            if min(dumped) != order * grid or (row["value"], row["expected"], row["ok"]) != (cell, cell, True):
                sys.exit(f"m={m} nu={nu}: order cells {row['value']}, {row['expected']}, expected {cell}")
    if {path.name for path in dumps.iterdir()} != names:
        sys.exit("the dump files are not the cofactors of m = 3..8")
    print("every last-row cofactor of m = 3..8 matches its Leibniz minor below its window")


def characters(report) -> None:
    rows = load(report)["results"]["eigenvalues"]
    if [(row["m"], row["mu"]) for row in rows] != [(m, mu) for m in range(2, 401) for mu in range(1, m)]:
        sys.exit("the eigenvalue rows are not m = 2..400, mu = 1..m-1")
    for row in rows:
        m, mu = row["m"], row["mu"]
        g = math.gcd(mu * mu % (4 * m), 4 * m)
        if row["exponent"] != f"{mu * mu % (4 * m) // g}/{4 * m // g}":
            sys.exit(f"m={m} mu={mu}: exponent {row['exponent']}, expected (mu^2 mod 4m)/4m")


def csv_shape(*paths) -> None:
    # the round trip alone passes a blank line where a one-cell row must be
    # written "" (`# table: t\na\n\n`), hence the width and blank-line rules
    for path in paths:
        with open(path, newline="") as file:
            text = file.read()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        if text != out.getvalue():
            sys.exit(f"{path}: csv.writer does not write back what csv.reader read")
        width = None  # the cell count of the current table's header, once read
        for i, row in enumerate(rows):
            if not row:
                following = rows[i + 1] if i + 1 < len(rows) else []
                if not (following and following[0].startswith("# table: ")):
                    sys.exit(f"{path}: row {i + 1} is blank and no table follows it")
            elif len(row) == 1 and row[0].startswith("# table: "):
                width = None
            elif width is None:
                width = len(row)
            elif len(row) != width:
                sys.exit(f"{path}: row {i + 1} has {len(row)} cells, its header {width}")


CHECKS = {"wronskian": wronskian, "cofactors": cofactors, "characters": characters,
          "csv-shape": csv_shape}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(CHECKS)}}} ARG...")
    CHECKS[sys.argv[1]](*sys.argv[2:])
