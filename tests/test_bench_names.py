"""The package names the benchmark uses still exist.

``bench/workloads.py`` is read with ``ast``, never imported: every
``cmbethe`` name it uses must still be exported, every call it makes into
the package (directly or through ``functools.partial``) must still bind to
the signature, and the attributes it reads off what those calls return
must still be there.  A rename or a move (of ``JackExpansion.evaluate``
into the tests, say) fails here instead of silently failing every item of
a benchmark workload.
"""

import ast
import dataclasses
import inspect
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cmbethe
from cmbethe import cli  # a submodule: an attribute once imported

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
TREE = ast.parse(WORKLOADS.read_text())

#: The names the workloads are known to call: the rs-series check
#: (cs_apply on JackExpansion.evaluate), state-certify, rs-series and the
#: chain of build_certified_state.
CALLED = {"cs_apply", "jack_expand", "sample_torus_points", "residual_check",
          "l2_estimate", "rs_series", "root_system", "build_indexing",
          "lambda_to_xi", "Weight", "find_admissible_critical_point",
          "continue_nome", "bethe_state_elliptic"}

#: The attributes the workloads read off returned objects:
#: JackExpansion.evaluate, cs_apply(...).psi, EnergySeries.coefficients,
#: ContinuationPath.endpoint, PathStep.point, BetheState.eigenvalue,
#: Weight.exact and cli.main.
READ = {"evaluate", "psi", "coefficients", "endpoint", "point", "eigenvalue",
        "exact", "main"}


def package_attribute(node):
    """X for a node ``cmbethe.X``, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cmbethe"):
        return node.attr
    return None


def package_calls():
    """(name, number of positional arguments, keyword names) of every call
    into the package, ``partial(cmbethe.X, ...)`` included."""
    calls = []
    for node in ast.walk(TREE):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        name = package_attribute(node.func)
        if (name is None and isinstance(node.func, ast.Name)
                and node.func.id == "partial" and args):
            name, args = package_attribute(args[0]), args[1:]
        if name is not None:
            assert not any(isinstance(a, ast.Starred) for a in args), name
            calls.append((name, len(args),
                          [kw.arg for kw in node.keywords]))
    return calls


def test_every_package_name_exists():
    used = {package_attribute(node) for node in ast.walk(TREE)} - {None}
    used |= {alias.name for node in ast.walk(TREE)
             if isinstance(node, ast.ImportFrom) and node.module == "cmbethe"
             for alias in node.names}
    assert CALLED | {"CmError", "cli"} <= used
    assert sorted(n for n in used if not hasattr(cmbethe, n)) == []


@pytest.mark.parametrize("name,positional,keywords", package_calls())
def test_every_call_binds(name, positional, keywords):
    sig = inspect.signature(getattr(cmbethe, name))
    sig.bind(*[None] * positional, **dict.fromkeys(keywords))


def test_every_call_seen():
    assert {name for name, _, _ in package_calls()} == CALLED


def test_returned_attributes_exist():
    reads = {node.attr for node in ast.walk(TREE)
             if isinstance(node, ast.Attribute)}
    assert READ <= reads
    assert callable(cmbethe.JackExpansion.evaluate)
    assert callable(cli.main)
    assert isinstance(cmbethe.ContinuationPath.endpoint, property)
    for field, owner in (("coefficients", cmbethe.EnergySeries),
                         ("point", cmbethe.PathStep),
                         ("eigenvalue", cmbethe.BetheState)):
        assert field in {f.name for f in dataclasses.fields(owner)}, field
    assert cmbethe.Weight([Fraction(1), Fraction(-1)]).exact is not None
    h_psi = cmbethe.cs_apply(lambda x: np.ones(len(x)), 1, 2)
    assert callable(h_psi.psi)
