"""Tests for the package's public names."""

import ast
import importlib
from pathlib import Path

import pytest

import coinfloor

MODULES = ("coinproblem", "core", "floorsum", "jacobi", "verify")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_is_exported_by_package(module_name):
    module = importlib.import_module(f"coinfloor.{module_name}")
    assert module.__all__
    for name in module.__all__:
        assert hasattr(module, name), f"coinfloor.{module_name}.__all__ lists missing {name}"
        assert getattr(coinfloor, name) is getattr(module, name)


def test_star_import_and_dir_cover_every_module_all():
    public = {}
    for module_name in MODULES:
        module = importlib.import_module(f"coinfloor.{module_name}")
        public.update((name, getattr(module, name)) for name in module.__all__)
    namespace = {}
    exec("from coinfloor import *", namespace)
    for name, value in public.items():
        assert namespace.get(name) is value, name
    assert set(public) <= set(dir(coinfloor))


def test_removed_names_stay_removed():
    # each has a stdlib or package replacement; see README "Removed names"
    removed = (
        "gcd", "extended_gcd", "mod_inverse", "pow_mod", "OddCoprimePair",
        "FloorSumQuery", "FloorSum", "floor_sum_fast", "floor_sum_naive",
        "ExactRational", "legendre_by_search", "rep_count_shift_check",
        "naive_floor_sum", "floor_sum_affine_steps",
    )
    for name in removed:
        assert not hasattr(coinfloor, name), name


def test_each_limit_is_read_only_by_the_module_that_owns_it():
    # a module that needs another's limit asks the owner (as the lattice
    # count asks floorsum._chain_refusal), so changing a limit is one edit
    for path in sorted(Path(coinfloor.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("coinfloor")):
                for alias in node.names:
                    name = alias.name
                    assert "_MAX" not in name and not name.endswith("_BUDGET"), (path.name, node.module, name)
