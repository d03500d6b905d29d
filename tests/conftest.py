"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

from qtheta import PuiseuxSeries


def random_series(rng, trunc, base_denom=4, max_terms=5, lowest=0):
    """Sparse random series on the grid (1/base_denom)*Z below ``trunc``."""
    trunc = Fraction(trunc)
    lo = int(lowest * base_denom)
    hi = int(trunc * base_denom)
    terms = {}
    if hi > lo:
        count = rng.randint(0, max_terms)
        for numerator in rng.sample(range(lo, hi), min(count, hi - lo)):
            coeff = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                             rng.randint(1, 5))
            terms[Fraction(numerator, base_denom)] = coeff
    return PuiseuxSeries(terms, trunc, base_denom)


def convolve(a: PuiseuxSeries, b: PuiseuxSeries, window) -> dict:
    """Brute-force dict product of the known terms, cut below ``window``.

    Independent of PuiseuxSeries arithmetic: operates on plain dicts.
    """
    window = Fraction(window)
    out: dict[Fraction, Fraction] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = ea + eb
            if e < window:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def assert_agree(a: PuiseuxSeries, b: PuiseuxSeries):
    """Exact coefficient equality below the common certified window."""
    diff = a - b
    assert diff.is_zero(), f"first mismatch at {diff.ord_infty()}: {diff.leading_term()}"


def laplace_det(rows):
    """Determinant by Laplace expansion along the first row.

    Independent of SeriesMatrix: recursion on plain lists of series.
    """
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        term = entry * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
        term = term if j % 2 == 0 else -term
        acc = term if acc is None else acc + term
    return acc


def matmul(a, b):
    """The product of two matrices given as lists of rows of series."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = None
            for t, entry in enumerate(row):
                term = entry * b[t][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out
