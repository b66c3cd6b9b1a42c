import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs_as_written():
    # The first python block under "## Library example", as CI extracts it.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    example = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
