"""Locate the package under test: the `src/` tree of the checkout that
holds this benchmark, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_path() -> None:
    """Put the checkout's `src/` first on the import path, or exit with an
    error when the checkout holds no `tightgroupoid` package."""
    if not (SRC / "tightgroupoid" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tightgroupoid package under {SRC}")
    sys.path.insert(0, str(SRC))
