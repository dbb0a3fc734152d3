import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys
import tomllib

import pytest

import marcsim
from marcsim.cli import build_parser
from marcsim.experiment import ExperimentSpec
from marcsim.model import SystemConfig

MODULES = ["analytic", "cli", "discrepancy", "experiment", "model", "montecarlo", "power"]
PACKAGE = pathlib.Path(marcsim.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"marcsim.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"marcsim.{name}.__all__ names undefined {missing}"


def _statements():
    """(names defined, names read) of every top-level statement in the
    package; a statement's reads of its own names do not count."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            else:
                defined = {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                }
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            yield defined, read - defined


def _console_scripts():
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    return {target.rpartition(":")[2] for target in pyproject["project"]["scripts"].values()}


def _uncalled_exports():
    """Exported names that no live statement of the package reads.  A name
    read only by uncalled definitions is uncalled too, so this iterates to a
    fixed point."""
    statements = list(_statements())
    exported = {name for mod in MODULES for name in importlib.import_module(f"marcsim.{mod}").__all__}
    exported -= _console_scripts()
    dead: set[str] = set()
    while True:
        read = set().union(*(r for d, r in statements if not d & dead))
        if exported - read == dead:
            return dead
        dead = exported - read


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    exports = set(importlib.import_module(f"marcsim.{name}").__all__)
    uncalled = sorted(exports & _uncalled_exports())
    assert not uncalled, f"marcsim.{name}.__all__ names nothing in the package uses: {uncalled}"


def _keywords_passed_to(callees: set[str]) -> set[str]:
    """Keyword names of every call in the package whose callee is named in
    ``callees``."""
    passed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callees:
                    passed |= {kw.arg for kw in node.keywords}
    return passed


def test_every_defaulted_config_field_is_set_somewhere():
    # a default that no call overrides is a constant, not a setting
    defaulted = {f.name for f in dataclasses.fields(SystemConfig) if f.default is not dataclasses.MISSING}
    unset = sorted(defaulted - _keywords_passed_to({"SystemConfig", "replace"}))
    assert not unset, f"SystemConfig fields that no call in the package sets: {unset}"


def test_every_cli_option_is_a_spec_field():
    # a removed field must take its flag with it, and a flag needs a field to
    # set; --config and --workers are the two options that set no field
    dests = {a.dest for a in build_parser()._actions if a.dest != "help"}
    assert dests == {f.name for f in dataclasses.fields(ExperimentSpec)} | {"config", "workers"}


def _unread_parameters():
    """``module.function.parameter`` of every parameter, of every function
    and lambda in the package, that its body never reads; ``self`` and
    ``cls`` are exempt."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}.{p}" for p in params if p not in read | {"self", "cls"}]
    return unread


def test_every_parameter_is_read():
    # a parameter no body reads is an option that changes nothing
    assert _unread_parameters() == []


def _modules_loaded_by(statement: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under ``prefixes`` that a fresh interpreter has loaded after
    running ``statement``; what the statement prints is ignored."""
    code = f"import sys; {statement}; print(' '.join(m for m in sys.modules if m.startswith({prefixes!r})))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    return run.stdout.splitlines()[-1].split()


def test_package_import_loads_neither_scipy_nor_thread_pools():
    assert _modules_loaded_by("import marcsim", ("scipy", "concurrent")) == []


def test_package_import_loads_only_the_model_and_the_monte_carlo():
    # a ratchet on what `import marcsim` costs a fresh process: of the
    # package only the model and the Monte Carlo, and neither scipy nor
    # concurrent.futures
    loaded = _modules_loaded_by("import marcsim", ("marcsim", "scipy", "concurrent"))
    assert sorted(loaded) == ["marcsim", "marcsim.model", "marcsim.montecarlo"]


def test_cli_import_loads_no_thread_pool():
    # experiment imports concurrent.futures, whose ThreadPoolExecutor loads
    # lazily; only a sweep, which runs on a thread pool at any worker count,
    # may load it
    assert _modules_loaded_by("import marcsim.cli", ("concurrent.futures.thread",)) == []


def test_cli_import_and_a_sweep_load_no_scipy(tmp_path):
    # the quadrature is a port of QUADPACK, so neither the console entry point
    # nor a run, allocator, .meta and discrepancy ledger included, loads scipy
    assert _modules_loaded_by("import marcsim.cli", ("scipy",)) == []
    out = tmp_path / "fig5.csv"
    argv = ["--figure", "fig5", "--snr", "10", "--trials", "1000", "--out", str(out)]
    sweep = f"import marcsim.cli; assert marcsim.cli.main({argv!r}) == 0"
    assert _modules_loaded_by(sweep, ("scipy",)) == []
    assert out.read_text().count("\n") == 9  # header and 8 cells: 4 N x 2 splits
