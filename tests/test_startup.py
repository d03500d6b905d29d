"""Start-up footprint: each entry point loads only the modules it runs.

``import qtheta`` runs none of the package's modules, ``import qtheta.cli``
loads parsing and what every command shares, and each command imports its
own module and engine, through ``main`` and through ``python -m
qtheta.cli`` alike.  Every entry point runs in a fresh interpreter without
``site`` (``-S``), so no module that a site hook preloads can hide an import.
"""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qtheta
from qtheta import cases, cli, wronskian

ROOT = Path(__file__).resolve().parents[1]

CLI = {"qtheta", "qtheta.cli", "qtheta.exact", "qtheta.injectivity"}
SWEEP = CLI | {"qtheta.cmd_sweep"}
VERIFY = CLI | {"qtheta.cases"}
CHARACTERS = VERIFY | {"qtheta.cmd_characters", "qtheta.characters"}
# the lattice-sum engine: no theta series is built, so no theta or characters code
WRONSKIAN = VERIFY | {"qtheta.series", "qtheta.modforms", "qtheta.wronskian"}
ORDERS = WRONSKIAN | {"qtheta.cmd_orders"}

# each command, one per row, then --jobs above 1: the pool loads only in a
# run that forks, so two cases on two processes load it (where this process
# may use two CPUs), while six cases of a millisecond each run in the parent
POOL = {"qtheta.pool"} if cases._usable_cpus() > 1 else set()
COMMANDS = [
    (["sweep", "--k", "3..5", "--m", "4..6"], SWEEP),
    (["classify", "--k", "3", "--m", "5", "--N", "1"], SWEEP | {"qtheta.cmd_classify"}),
    (["verify-characters", "--m", "2..4"], CHARACTERS),
    (["verify-wronskian", "--m", "2..3", "--q-trunc", "4"], WRONSKIAN | {"qtheta.cmd_wronskian"}),
    (["verify-orders", "--m", "3", "--q-trunc", "4"], ORDERS),
    (["verify-identities", "--m", "3", "--q-trunc", "4", "--trials", "1"],
     WRONSKIAN | {"qtheta.cmd_identities", "qtheta.jacobi", "qtheta.theta", "qtheta.characters",
                  "random"}),
    (["verify-orders", "--m", "3..4", "--q-trunc", "4", "--jobs", "2"], ORDERS | POOL),
    (["verify-orders", "--m", "3..8", "--q-trunc", "4", "--jobs", "2"], ORDERS),
]

# every name the package exported when its __init__ imported all seven modules,
# under the module that defines it now
FORMER_EXPORTS = {
    "characters": ["GammaCharacter", "UnityExponent", "squared_determinant_delta_power",
                   "squared_determinant_translation", "translation_eigenvalues"],
    "exact": ["VerificationFailed", "parse_rational"],
    "injectivity": ["CaseInput", "CaseVerdict", "InvalidInput", "NonintegralityReport",
                    "classify", "classify_levels", "is_squarefree", "level_classes",
                    "nonintegrality_check"],
    "jacobi": ["EvenIndex", "InvariantViolation", "JacobiFormData", "NotOdd", "ThetaComponents",
               "component_taylor", "development_operator", "dump_jacobi_table",
               "from_theta_components", "kernel_equivalence", "parse_jacobi_table",
               "random_components", "taylor_coefficient", "taylor_from_moment",
               "taylor_moments", "theta_components", "two_path_taylor"],
    "modforms": ["HalfIntWeight", "eisenstein_e2", "eta", "eta_power", "modular_derivative"],
    "series": ["INFINITY", "PuiseuxSeries", "dot", "dump_series_text", "parse_series_text"],
    "theta": ["NotAnEigenvector", "ThetaIndex", "ThetaTwoVar", "odd_theta_series",
              "theta_series", "translation_eigenvalue"],
    "wronskian": ["CofactorOrderReport", "CramerReport", "SeriesMatrix", "ThetaDerivativeMatrix",
                  "WronskianReport", "cramer_reconstruction", "eta_power_exponent",
                  "kernel_components", "modular_wronskian", "theta_derivative_matrix",
                  "theta_minors", "theta_wronskian", "verify_cofactor_orders",
                  "verify_eta_power"],
}

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(n for n in sys.modules if n == "random" or n.split(".")[0] == "qtheta")))
"""


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python -S -B <argv>`` with ``src`` on the path, after it exited 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("QTHETA_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-S", "-B", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def loaded(body: str, *argv: str) -> set:
    """The qtheta modules (and ``random``) a fresh interpreter holds after ``body``."""
    return set(json.loads(fresh("-c", PROBE.format(body=body), *argv).stdout))


@pytest.mark.parametrize("body, expected", [
    ("import qtheta", {"qtheta"}),
    ("import qtheta; qtheta.PuiseuxSeries", {"qtheta", "qtheta.series", "qtheta.exact"}),
    ("import qtheta.cli", CLI),
])
def test_import_loads_only_its_modules(body, expected):
    assert loaded(body) == expected


@pytest.mark.parametrize("oracle", [
    "SeriesMatrix(theta_derivative_matrix(4, 3).entries).det() == theta_wronskian(4, 3)",
    "modular_wronskian(3, 4) == theta_wronskian(3, 4)",
], ids=["entries", "modular_wronskian"])
def test_wronskian_loads_theta_only_for_its_oracles(oracle):
    # the lattice sum reads its residues from exact, so the Wronskian is built
    # with no theta code; the two oracles build theta series and load it
    body = f"""from qtheta.wronskian import *
theta_wronskian(4, 3)
assert "qtheta.theta" not in sys.modules
assert {oracle}"""
    engine = {"qtheta", "qtheta.exact", "qtheta.series", "qtheta.modforms", "qtheta.wronskian"}
    assert loaded("import qtheta.wronskian") == engine
    assert loaded(body) == engine | {"qtheta.theta", "qtheta.characters"}


@pytest.mark.parametrize("argv, expected", COMMANDS,
                         ids=lambda value: value[0] if isinstance(value, list) else None)
def test_command_loads_only_its_engine(argv, expected, tmp_path):
    body = "from qtheta.cli import main\nassert main(sys.argv[1:]) == 0"
    assert loaded(body, *argv, "--output", str(tmp_path / "report.txt")) == expected


@pytest.mark.parametrize("argv, expected", COMMANDS,
                         ids=lambda value: value[0] if isinstance(value, list) else None)
def test_main_entry_loads_only_its_engine(argv, expected, tmp_path):
    # -m runs cli as __main__, and -v names every module loaded by name
    # (-X importtime misses those that importlib.import_module loads):
    # qtheta.cli among them would be cli compiled a second time
    done = fresh("-v", "-m", "qtheta.cli", *argv, "--output", str(tmp_path / "report.txt"))
    names = re.findall(r"^import '([^']+)' #", done.stderr, re.M)
    modules = {name for name in names if name == "random" or name.split(".")[0] == "qtheta"}
    assert "qtheta.cli" not in modules
    assert modules == expected - {"qtheta.cli"}


def test_former_exports_resolve_to_their_modules():
    names = [name for group in FORMER_EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 63
    for module, group in FORMER_EXPORTS.items():
        home = import_module(f"qtheta.{module}")
        for name in group:
            assert getattr(qtheta, name) is vars(home)[name], (module, name)
    assert qtheta.VerificationFailed is wronskian.VerificationFailed
    namespace = {}
    exec("from qtheta import *", namespace)
    assert set(names) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'qtheta' has no attribute 'no_such_name'"):
        qtheta.no_such_name
    with pytest.raises(AttributeError, match="'qtheta.cli' has no attribute 'no_such_name'"):
        cli.no_such_name


def test_cli_reads_an_export_without_binding_it():
    assert cli.theta_derivative_matrix is wronskian.theta_derivative_matrix
    assert "theta_derivative_matrix" not in vars(cli)
    assert "theta_derivative_matrix" not in vars(qtheta)
