"""One name per implementation, one door per job - pinned.

The package ships no compatibility surface: every exported name resolves, no
public callable is a warning shim, no module keeps a ``name``/``_name`` twin,
``Session`` registers data through ``register``/``attach`` only, importing the
package never warns, and the version has a single source.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import pytest

import repro
from repro.session import Session

ROOT = Path(__file__).resolve().parents[1]

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")
) + ["repro"]


@pytest.mark.parametrize("name", MODULES)
def test_module_surface(name):
    module = importlib.import_module(name)
    namespace = vars(module)
    for public in getattr(module, "__all__", ()):
        assert hasattr(module, public), f"{name}.__all__ lists missing {public!r}"
        obj = getattr(module, public)
        if callable(obj):
            assert not hasattr(obj, "__deprecated__"), f"{name}.{public} is a shim"
            wrapped = getattr(obj, "__wrapped__", None)  # contextmanagers have one
            assert getattr(wrapped, "__name__", "") != f"_{public}", (
                f"{name}.{public} wraps an underscore twin"
            )
    twins = [
        attr
        for attr, obj in namespace.items()
        if not attr.startswith("_")
        and callable(obj)
        and callable(namespace.get(f"_{attr}"))
    ]
    assert not twins, f"{name} defines both name and _name for {twins}"


def test_one_ifocus_executor():
    """3.0: the reference loop is an oracle with one hook; the executor
    takes the partial-results callback and the Section 6 leave rules."""
    import repro.core

    assert not {"LoopContext", "PolicyFn"} & set(dir(repro.core.reference))
    assert not {"LoopContext", "PolicyFn"} & set(repro.core.__all__)
    reference = inspect.signature(repro.core.run_ifocus_reference).parameters
    for gone in ("policy", "terminate_when", "min_half_width", "on_finalize", "algorithm_name"):
        assert gone not in reference
    assert {"rule", "reactivation"} <= set(reference)
    assert {"rule", "on_finalize"} <= set(inspect.signature(repro.run_ifocus).parameters)


def test_session_registers_through_one_door():
    doors = sorted(attr for attr in dir(Session) if attr.startswith("register"))
    assert doors == ["register"]


def test_import_is_clean_under_error_deprecation_warning():
    subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            "-c",
            "import repro, repro.serve, repro.streaming, repro.storage",
        ],
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    try:
        installed = version(project["project"]["name"])
    except PackageNotFoundError:
        return  # running from the source tree (PYTHONPATH=src), not installed
    assert installed == repro.__version__
