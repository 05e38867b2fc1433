"""The public surface: every module's __all__ and the package re-exports agree."""

import ast
import importlib
from pathlib import Path

import pytest

import spiked_amp

MODULES = ["_rng", "amp", "decomp", "denoise", "harness", "model", "se", "sparse_init"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spiked_amp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from spiked_amp.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_amp_exports_the_step_generator():
    # the trials stream AMP through amp_steps; run_amp collects the same steps
    assert {"AmpStep", "amp_steps", "run_amp"} <= set(spiked_amp.amp.__all__)
    assert spiked_amp.amp_steps is spiked_amp.amp.amp_steps


def test_package_reexports_are_public():
    # every "from .module import name" in the package's __init__ names a
    # member of that module's __all__
    tree = ast.parse(Path(spiked_amp.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    stray = []
    for node in imports:
        exported = importlib.import_module(f"spiked_amp.{node.module}").__all__
        stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stray == []


def test_harness_imports_no_private_names():
    # benchmarks trace the harness by patching the names it looks up in its
    # own namespace; a private helper imported in their place goes untraced
    path = Path(spiked_amp.__file__).with_name("harness.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []
