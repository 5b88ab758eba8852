"""Run one workload of the benchmark from the repository root:

    python3 benchmarks/suite/run.py --workload recalc --seed 1 --seconds 25 --trace 0

The last line of standard output is the result object; see ``cli.py``.
"""

import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# This directory must not shadow top-level modules; the repository root
# provides the ``benchmarks.suite`` package and ``src`` the system.
sys.path[0:1] = [os.path.join(_REPO, "src"), _REPO]

try:
    import repro  # noqa: F401
except ImportError as exc:
    sys.exit(f"run.py: the repro package is not importable from {_REPO}/src: {exc}")

from benchmarks.suite.cli import main  # noqa: E402

sys.exit(main(["one", *sys.argv[1:]]))
