import contextlib
import io

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
