"""Locations shared by the benchmark scripts.

The benchmark lives in ``perfbench/`` at the root of a source checkout and
always measures that checkout's own ``src/multihead``, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
RESULTS_DIR = OUT_DIR / "results"
TRACES_DIR = OUT_DIR / "traces"


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/multihead`` package to benchmark."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it is absent."""
    if not (SRC / "multihead" / "__init__.py").is_file():
        raise MissingSourceError(f"no multihead package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_multihead():
    """Import the checkout's package and check it is the one under ``src``."""
    require_source()
    import multihead

    if Path(multihead.__file__).resolve().parent != (SRC / "multihead").resolve():
        raise MissingSourceError(f"imported multihead from {multihead.__file__}, not {SRC}")
    return multihead
