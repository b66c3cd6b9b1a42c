import sys

from ibltlab.cli import run

sys.exit(run())
