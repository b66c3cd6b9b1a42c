"""numpy is loaded only by the code that does array work.

The census, the bounds, the oracle, the table and the ``ztable``, ``bound``
and ``oracle`` commands are integer arithmetic; importing the package or
running them must not import numpy.  Each check runs in a fresh
interpreter, because this test session has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the CLI outputs and an Iblt round trip under both hash schemes;
# with argument "block", numpy cannot be imported.
_SCRIPT = r"""
import contextlib
import io
import sys

if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any "import numpy" now raises ImportError

import ibltlab
import ibltlab.cli
from ibltlab import HashKind, HashParams, Iblt, make_partitioned_uniform, make_ss_avoiding

for argv in (
    ["ztable", "10", "10"],
    ["bound", "--n", "210", "--k", "3", "--breakdown", "--m", "840"],
    ["oracle", "3", "2", "2"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ibltlab.cli.main(argv)
    print(argv[0], code)
    print(out.getvalue(), end="")

schemes = [
    make_partitioned_uniform(HashParams(3, 40, 16, seed=7)),
    make_ss_avoiding(HashParams(2, 256, 16, seed=7, kind=HashKind.SS_AVOIDING)),
]
for scheme in schemes:
    table = Iblt(scheme)
    pairs = [(key, (key * 31 + 5) & 0xFFFF) for key in range(100, 3100, 97)]
    for key, value in pairs:
        table.insert(key, value)
    print([table.get(key) for key, _ in pairs[:5]], table.get(99))
    listing = table.list_entries()
    print(listing.status, listing.residual_cells, sorted(listing.entries))
print(ibltlab.backend_name, ibltlab.available_backends())
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, check=False
    )


def test_analysis_and_table_run_without_numpy():
    blocked = _python("-c", _SCRIPT, "block")
    assert blocked.returncode == 0, blocked.stderr.decode()
    free = _python("-c", _SCRIPT, "free")
    assert free.returncode == 0, free.stderr.decode()
    assert blocked.stdout == free.stdout
    assert blocked.stdout.splitlines()[-1] == b"python ['python']"


def test_importing_the_package_does_not_load_numpy():
    # Nor the process pool, which only a run on more than one process uses.
    probe = (
        "import sys, ibltlab, ibltlab.cli; "
        "print([m in sys.modules for m in "
        "('numpy', 'concurrent.futures', 'multiprocessing')])"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"[False, False, False]\n"
