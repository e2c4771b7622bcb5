"""The package namespace is the union of the module ``__all__``s."""

import os
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path

import extensio as ex
from extensio import (
    admissibility,
    boundary,
    coupling,
    errors,
    kreinspace,
    linrel,
    models,
    nevanlinna,
    serialize,
    transforms,
)

MODULES = (
    errors,
    linrel,
    kreinspace,
    nevanlinna,
    boundary,
    transforms,
    coupling,
    admissibility,
    models,
    serialize,
)


def exported(module):
    """The names ``from module import *`` binds."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name in vars(module) if not name.startswith("_")}


def test_import_loads_no_scipy():
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, extensio; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_module_exports_are_disjoint_and_resolve_to_their_module():
    for a, b in combinations(MODULES, 2):
        assert not exported(a) & exported(b), (a.__name__, b.__name__)
    assert len(exported(errors)) == 26
    for module in MODULES:
        for name in exported(module):
            assert getattr(ex, name) is getattr(module, name), name
    public = {
        name
        for name, value in vars(ex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*map(exported, MODULES)) | {"cli_run"}
