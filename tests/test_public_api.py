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


def _module_tree(name: str) -> ast.Module:
    path = Path(spiked_amp.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def test_harness_imports_no_private_names():
    # benchmarks trace the harness by patching the names it looks up in its
    # own namespace; a private helper imported in their place goes untraced
    private = [
        f"{node.module}.{a.name}"
        for node in ast.walk(_module_tree("harness"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []


def test_harness_reads_the_fits_off_denoise():
    # benchmarks and the failing-fit tests patch denoise.fit_tanh and
    # denoise.fit_soft_threshold; a harness that imported them by name, or
    # bound them in a functools.partial, would run the unpatched functions
    fits = {"fit_tanh", "fit_soft_threshold"}
    tree = _module_tree("harness")
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    attrs = {(node.value.id if isinstance(node.value, ast.Name) else None, node.attr)
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported & (fits | {"partial"}) == set()
    assert {("denoise", fit) for fit in fits} <= attrs
    assert "partial" not in names | {attr for _, attr in attrs}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "denoise"] + ["cli", "__init__"])
def test_family_names_live_in_denoise(name):
    # the AMP engine and its callers pass a fit; only denoise names the families
    literals = {node.value for node in ast.walk(_module_tree(name))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert literals & {"tanh-z2", "soft-threshold"} == set()
