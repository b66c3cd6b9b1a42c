import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ibltlab import cli
from ibltlab.census import StoppingCensus


@pytest.fixture(scope="session")
def census():
    """One shared census: rows are kept per ell and recomputed only when a
    longer one is asked for, so test order cannot change a count."""
    return StoppingCensus()


@pytest.fixture
def invoke_cli():
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


# Address space of a ``capped_python`` interpreter: far above what the
# package needs to start (under 32 MiB), far below what a list of 10**9
# items takes.
_CAPPED_BYTES = 1 << 28


@pytest.fixture
def capped_python():
    """Run ``python -c script *args`` in a fresh interpreter with its address
    space capped, so code that would build a huge object fails at once
    with MemoryError instead of exhausting the host's memory."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cap = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({_CAPPED_BYTES}, {_CAPPED_BYTES}))\n"
    )

    def run(script, *args):
        return subprocess.run(
            [sys.executable, "-c", cap + script, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    return run
