"""The package's records: tuple-backed, immutable, validated on construction."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qtheta import (CaseInput, GammaCharacter, HalfIntWeight, InvalidInput, PuiseuxSeries,
                    ThetaComponents, ThetaIndex, UnityExponent, classify, cli,
                    component_taylor, cramer_reconstruction, kernel_components,
                    nonintegrality_check, verify_cofactor_orders, verify_eta_power)

F = Fraction


def kernel_cramer_report():
    h = kernel_components(3, 6)
    return cramer_reconstruction(3, h, 6, [component_taylor(h, nu) for nu in (1, 2)])


# report records with their rows from ``to_jsonable``, field for field and in
# field order; the keys are each type's ``_fields``.  The first row of each
# type is the one it gave when the records were dataclasses; the second
# verdict (no part applies) and the second integrality report (a non-integer
# value) were written out from the formulas
REPORT_ROWS = [
    (lambda: verify_eta_power(3, 2),
     [("index_m", 3), ("eta_exponent", 10), ("ord_w", "5/12"), ("ord_w_expected", "5/12"),
      ("leading_coeff", "1/2"), ("leading_expected", "1/2"), ("constant", "1/2"),
      ("residual_max_exponent_checked", "49/12"), ("residual_all_zero", True)]),
    (lambda: verify_cofactor_orders(3, 4)[1],
     [("index_m", 3), ("nu", 2), ("ord_cofactor", "1/12"), ("ord_expected", "1/12"),
      ("leading_coeff", "1/1"), ("leading_expected_abs", "1/1"), ("sign", 1)]),
    (kernel_cramer_report,
     [("index_m", 3), ("kernel_case", True), ("constant", "2/1")]),
    (lambda: classify(CaseInput(3, 7, 6)),
     [("k", 3), ("m", 7), ("N", 6), ("part_i", True), ("part_ii", True),
      ("part_iii", False), ("s", 0), ("r", 4), ("beta", 26), ("eta_exponent", 78),
      ("window_ok", True),
      ("congruence_details",
       "3m-2=19 = 1 (mod 6) [ok]; 3m-2=19 = 7 (mod 12), needs != 3 [ok]")]),
    (lambda: classify(CaseInput(3, 5, 4)),
     [("k", 3), ("m", 5), ("N", 4), ("part_i", False), ("part_ii", False),
      ("part_iii", False), ("s", 0), ("r", 0), ("beta", 18), ("eta_exponent", 36),
      ("window_ok", False), ("congruence_details", "")]),
    (lambda: nonintegrality_check(6),
     [("m", 6), ("value", "30/1"), ("is_integer", True)]),
    (lambda: nonintegrality_check(5),
     [("m", 5), ("value", "84/5"), ("is_integer", False)]),
]


def all_records():
    """One value of each of the 11 record types: a report type's first row."""
    reports = {}
    for build, _ in REPORT_ROWS:
        record = build()
        reports.setdefault(type(record), record)
    return [UnityExponent(3, 8), GammaCharacter(15), HalfIntWeight(3), ThetaIndex(3, -1),
            ThetaComponents(3, [PuiseuxSeries.one(4), PuiseuxSeries.zero(4, 12)]),
            CaseInput(3, 7, 6), *reports.values()]


def field_names(record):
    return getattr(record, "_fields", None) or type(record).__slots__


def test_eleven_distinct_types():
    assert len({type(record) for record in all_records()}) == 11


def test_construction_validates_and_reduces():
    assert ThetaIndex(3, -1).residue_mu == 5 and ThetaIndex(3, 13) == ThetaIndex(3, 1)
    with pytest.raises(ValueError):
        ThetaIndex(0, 1)
    for args in ((4, 7, 1), (3, 2, 1), (3, 7, 0)):
        with pytest.raises(InvalidInput):
            CaseInput(*args)
    components = ThetaComponents(3, [PuiseuxSeries.one(4), PuiseuxSeries.zero(4, 12)])
    assert type(components.components) is tuple
    with pytest.raises(ValueError):
        ThetaComponents(3, [PuiseuxSeries.one(4)])
    for value in (1.5, F(3)):
        with pytest.raises(TypeError):
            HalfIntWeight(value)
    assert GammaCharacter(15).delta_power == 3 and GammaCharacter(-1).delta_power == 11


@pytest.mark.parametrize("record", all_records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set_or_deleted(record):
    for name in (*field_names(record), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    for name in field_names(record):
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", all_records(), ids=lambda r: type(r).__name__)
def test_pickle_and_copy_give_an_equal_record(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("record", all_records(), ids=lambda r: type(r).__name__)
def test_repr_names_every_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in field_names(record))
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("build, row", REPORT_ROWS)
def test_report_rows_are_unchanged(build, row):
    record = build()
    assert list(zip(record._fields, cli.to_jsonable(record), strict=True)) == row


def test_unity_exponent_is_not_a_tuple():
    assert UnityExponent(1, 4) != (1, 4) and (1, 4) != UnityExponent(1, 4)
    assert UnityExponent(1, 4) == UnityExponent(5, 4)


def test_cli_start_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so no module another test imported hides an import
    script = ("import sys; bare = set(sys.modules); import qtheta.cli; "
              "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "qtheta.cli" in added
    assert not added & {"dataclasses", "inspect"}
