"""Each entry point loads only the modules it runs.

``import ibltlab`` loads no submodule; a package-level name or submodule
imports its module the first time it is read.  Each check runs in a fresh
interpreter, because this test session has loaded every module already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names of the package, as they were when it imported every
# submodule eagerly.
PUBLIC_NAMES = [
    "BoundBreakdown", "Cell", "ExplicitScheme", "GetResult", "GetStatus",
    "HashKind", "HashParams", "Iblt", "KeyModel", "ListingResult",
    "ListingStatus", "PartitionedUniformScheme", "ResourceGuardError",
    "SimReport", "SsAvoidingScheme", "StateMatrix", "StoppingCensus",
    "TrialConfig", "available_backends", "backend_name",
    "contains_stopping_submatrix", "count_stopping_bruteforce",
    "exact_failure_probability", "is_stopping_matrix", "iter_state_matrices",
    "make_partitioned_uniform", "make_ss_avoiding", "matrix_from_columns",
    "peel_fixpoint", "pivots", "run_trials", "size2_asymptote",
    "stopping_set_probability", "sweep", "union_bound", "wilson_interval",
]


def _python(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_package_loads_no_submodule():
    out = _python(
        "import sys, ibltlab; "
        "print(sorted(m for m in sys.modules if m.startswith('ibltlab.')))"
    )
    assert out == "[]\n"


def test_analysis_commands_load_neither_simulation_nor_table():
    # `bound` and `ztable` need neither the oracle nor `dataclasses` (with
    # the `inspect`, `ast` and `dis` it imports); `oracle` loads its module
    # and `fractions`, and nothing of the simulation or the table.
    script = """
import contextlib, io, sys
import ibltlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ibltlab.cli.main(sys.argv[1:])
watched = (
    "ibltlab.simulate", "ibltlab.table", "ibltlab.oracle", "dataclasses",
    "fractions", "traceback", "numpy",
)
print(code, *[m for m in watched if m in sys.modules])
"""
    for argv in (
        ["bound", "--n", "210", "--k", "3", "--breakdown", "--m", "420"],
        ["bound", "--ell", "2", "--n", "1100", "--k", "3"],
        ["ztable", "10", "10"],
    ):
        assert _python(script, *argv) == "0\n", argv
    code, *loaded = _python(script, "oracle", "2", "2", "2").split()
    assert code == "0"
    assert {"ibltlab.oracle", "fractions"} <= set(loaded)
    assert not {"ibltlab.simulate", "ibltlab.table", "traceback", "numpy"} & set(loaded)


def test_names_and_submodules_resolve_after_a_bare_import():
    script = """
import importlib, pkgutil, sys
import ibltlab
assert ibltlab.__all__ == sorted(ibltlab.__all__)
print(" ".join(ibltlab.__all__))
for name in ibltlab.__all__:
    value = getattr(ibltlab, name)
    home = getattr(value, "__module__", None)
    if home is not None:  # functions and classes: the module that defines them
        assert getattr(sys.modules[home], name) is value, name
submodules = [
    info.name for info in pkgutil.iter_modules(ibltlab.__path__)
    if info.name != "__main__"
]
for name in submodules:
    assert getattr(ibltlab, name) is importlib.import_module("ibltlab." + name), name
assert ibltlab.KeyModel is ibltlab.simulate.KeyModel is ibltlab.hashing.KeyModel
try:
    ibltlab.no_such_name
except AttributeError as exc:
    print(exc)
"""
    names, missing = _python(script).splitlines()
    assert names.split() == PUBLIC_NAMES
    assert missing == "module 'ibltlab' has no attribute 'no_such_name'"


def test_star_import_binds_exactly_all_and_dir_lists_it():
    script = """
import ibltlab
namespace = {}
exec("from ibltlab import *", namespace)
print(sorted(set(namespace) - {"__builtins__"}) == sorted(ibltlab.__all__))
print(set(ibltlab.__all__) <= set(dir(ibltlab)))
"""
    assert _python(script) == "True\nTrue\n"
