"""The standard-library F401 fallback lint (scripts/lint_f401.py)."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("lint_f401", ROOT / "scripts" / "lint_f401.py")
lint_f401 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_f401)


def _findings(tmp_path: Path, source: str) -> list[str]:
    path = tmp_path / "planted.py"
    path.write_text(textwrap.dedent(source))
    return [f.split(": ", 1)[1] for f in lint_f401.check_file(path)]


def test_flags_a_planted_unused_import(tmp_path):
    found = _findings(
        tmp_path,
        """
        import json
        import os.path
        from collections import OrderedDict, deque as dq

        print(os.path.sep, dq)
        """,
    )
    assert found == [
        "F401 `json` imported but unused",
        "F401 `OrderedDict` imported but unused",
    ]
    assert lint_f401.main([str(tmp_path)]) == 1


def test_usage_forms_ruff_accepts_are_not_flagged(tmp_path):
    found = _findings(
        tmp_path,
        """
        from __future__ import annotations

        import sys  # noqa: F401
        import typing as typing
        from numbers import Number
        from fractions import Fraction
        from decimal import Decimal

        __all__ = ["Number"]


        def half(x: "Fraction") -> Decimal:
            return x / 2
        """,
    )
    assert found == []


def test_noqa_for_another_code_does_not_suppress(tmp_path):
    found = _findings(tmp_path, "import json  # noqa: E501\n")
    assert found == ["F401 `json` imported but unused"]


def test_the_tree_is_clean():
    paths = [str(ROOT / p) for p in lint_f401.DEFAULT_PATHS]
    assert lint_f401.main(paths) == 0
