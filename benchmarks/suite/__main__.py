import os
import sys

# Importable without PYTHONPATH=src: the package under test lives there.
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from .cli import main  # noqa: E402

sys.exit(main())
