"""Unused-import check (pyflakes/ruff F401) on the standard library alone.

``scripts/ci.sh`` runs ``ruff check`` when ruff is installed and this script
otherwise, so a tree without ruff is still held to the F401 gate that
``[tool.ruff.lint]`` selects.  A name bound by ``import``/``from ... import``
counts as used when it is loaded anywhere in the file, listed in
``__all__``, or named in a string annotation.  Like ruff it skips
``__future__`` imports, star imports, explicit re-exports
(``import x as x``) and lines marked ``# noqa`` / ``# noqa: F401``.

Usage:  python scripts/lint_f401.py [PATH ...]   (default: src tests scripts benchmarks)

Prints one ``path:line: F401 `name` imported but unused`` line per finding
and exits 1 when there is any.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "scripts", "benchmarks")
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import binding in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # explicit re-export
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, alias.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name
                bound.append((name, alias.lineno))
    return bound


def _names_in_string(text: str) -> set[str]:
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations += [a.annotation for a in every if a.annotation is not None]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _names_in_string(sub.value)
    return used


def _suppressed(line: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def check_file(path: Path) -> list[str]:
    """F401 findings of one file, formatted ``path:line: message``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    return [
        f"{path}:{line}: F401 `{name}` imported but unused"
        for name, line in _imports(tree)
        if name not in used and not _suppressed(lines[line - 1])
    ]


def iter_files(paths) -> list[Path]:
    files = []
    for p in map(Path, paths):
        if p.is_dir():
            files += sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            files.append(p)
    return files


def main(argv: list[str] | None = None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or DEFAULT_PATHS
    findings = [f for path in iter_files(paths) for f in check_file(path)]
    for finding in findings:
        print(finding)
    print(f"lint_f401: {len(findings)} unused import(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
