"""The public surface: every exported name resolves."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rmlab

MODULES = (
    "cli",
    "config",
    "estimators",
    "pauli",
    "protocol",
    "pulses",
    "scenarios",
    "statevector",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"rmlab.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"rmlab.{name}.{attr}"


def test_package_exports_resolve():
    # rmlab re-exports names from its modules; each must still be part of
    # its module's public list, as the same object
    public = {}
    for name in MODULES:
        mod = importlib.import_module(f"rmlab.{name}")
        for attr in getattr(mod, "__all__", ()):
            public.setdefault(attr, getattr(mod, attr))
    exported = [
        n for n, v in vars(rmlab).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    ]
    assert "purity_estimate" in exported
    for name in exported:
        assert name in public, name
        assert getattr(rmlab, name) is public[name], name


def test_cli_import_leaves_the_optimizer_out():
    # scipy.optimize serves calibrate alone and costs a quarter second
    code = "import sys, rmlab.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(rmlab.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
