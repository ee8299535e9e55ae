"""Checks on the package's shape rather than its mathematics.

- The benchmark's tracer wraps germkit functions by module and name.
  perfbench/layers.py looks each name up when `perfbench/run.py --trace 1`
  installs it, so a rename inside the package would only show there.
- Importing the CLI leaves `oracle` and `gl2` lazy until first use and
  argparse unloaded until help or a refusal reaches the tree, and the
  package serves the oracle's names.
- The ledgers of public names that only tests reach (LIBRARY_ONLY) and of
  defaulted parameters that only tests set (CALLER_UNSET).
- One refusal rule: only `oracle._charge` raises OracleBoundError.
- One exit-code rule: every exception class of the package is a ValueError
  (exit 1) or an ArithmeticError (exit 2), and `cli.main` maps them by
  family, naming only PositivityError, the one ValueError that exits 2.
- One JSON writer: no module calls json.dump or json.dumps.
- The CLI reads its commands from its own table: no module reads a private
  attribute of argparse or of a parser.
"""

import argparse
import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "germkit"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = [(module, name) for module, name, _ in layers.TIMED]
    targets += [("germkit.partitions", "dominance_leq"), ("germkit.oracle", "iter_matrices")]
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_tracer_installs_and_uninstalls(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    import germkit.cli

    partitions = sys.modules["germkit.partitions"]
    original = partitions.enumerate_partitions
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert partitions.enumerate_partitions is not original
        assert germkit.cli.main(["partitions", "--n", "3", "--out", str(tmp_path / "out.txt")]) == 0
    finally:
        tracer.uninstall()
    assert partitions.enumerate_partitions is original
    assert tracer.raw["partitions.enumerate_partitions.calls"] == 1


# Importing the CLI alone must load every module the tracer reads from sys.modules.
FRESH_TRACER = """
import json, sys
import germkit.cli
import layers
loaded = sorted(name for name in sys.modules if name.startswith("germkit"))
partitions = sys.modules["germkit.partitions"]
original = partitions.enumerate_partitions
tracer = layers.Tracer()
tracer.install()
try:
    wrapped = germkit.cli.enumerate_partitions is not original and partitions.enumerate_partitions is not original
    code = germkit.cli.main(["partitions", "--n", "3", "--out", sys.argv[1]])
finally:
    tracer.uninstall()
restored = germkit.cli.enumerate_partitions is original and partitions.enumerate_partitions is original
calls = tracer.raw["partitions.enumerate_partitions.calls"]
print(json.dumps({"loaded": loaded, "wrapped": wrapped, "code": code, "calls": calls, "restored": restored}))
"""


def test_tracer_installs_after_importing_only_the_cli(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(PERFBENCH))))
    proc = subprocess.run([sys.executable, "-c", FRESH_TRACER, str(tmp_path / "out.txt")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    needed = {module for module, _, _ in layers.TIMED} | {"germkit.partitions", "germkit.oracle"}
    assert needed <= set(report.pop("loaded"))
    assert report == {"wrapped": True, "code": 0, "calls": 1, "restored": True}


# Importing the CLI runs only the closed-form core: oracle and gl2 stay lazy
# modules until a command reads them, and nothing the core skips is loaded.
# A plain argv, refused or run, never builds the argparse tree (trees counts
# the trees built) nor imports argparse; --help builds it once, importing
# argparse, and leaves gl2 lazy, and a gl2 command loads neither
# dataclasses nor inspect.
FRESH_START = """
import contextlib, io, json, sys, types
import germkit.cli
lazy = [type(sys.modules[name]) is not types.ModuleType for name in ("germkit.oracle", "germkit.gl2")]
loaded = [name for name in ("dataclasses", "inspect", "fractions") if name in sys.modules]
errors = [germkit.cli.main(["partitions", "--n", "0"])]
argparse_loaded = ["argparse" in sys.modules]
code = germkit.cli.main(["oracle", "--n", "2", "--q", "2", "--check", "jordan", "--out", sys.argv[1]])
argparse_loaded.append("argparse" in sys.modules)
plain = type(sys.modules["germkit.oracle"]) is types.ModuleType
trees = [germkit.cli._parser.cache_info().currsize]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        germkit.cli.main(["--help"])
except SystemExit as exc:
    errors.append(exc.code)
trees.append(germkit.cli._parser.cache_info().currsize)
argparse_loaded.append("argparse" in sys.modules)
still_lazy = type(sys.modules["germkit.gl2"]) is not types.ModuleType
gl2_code = germkit.cli.main(["gl2", "table", "--q", "3", "--modp", "--out", sys.argv[1]])
gl2_loaded = [name for name in ("dataclasses", "inspect") if name in sys.modules]
print(json.dumps({"lazy": lazy, "loaded": loaded, "errors": errors, "still_lazy": still_lazy, "code": code,
                  "plain": plain, "trees": trees, "argparse_loaded": argparse_loaded, "gl2_code": gl2_code,
                  "gl2_loaded": gl2_loaded}))
"""


def test_cli_import_leaves_oracle_and_gl2_for_first_use(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_START, str(tmp_path / "out.txt")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"lazy": [True, True], "loaded": [], "errors": [1, 0], "still_lazy": True,
                                       "code": 0, "plain": True, "trees": [0, 1], "argparse_loaded": [False, False, True],
                                       "gl2_code": 0, "gl2_loaded": []}


def test_package_serves_the_oracle_names():
    import germkit

    assert germkit._ORACLE_NAMES == {"OracleBoundError", "build_A_lambda", "flag_orbit_count", "multiplicity_matrix",
                                     "nilpotent_partition", "xi_multiplicity"}
    for name in germkit._ORACLE_NAMES:
        assert getattr(germkit, name) is getattr(germkit.oracle, name)
    with pytest.raises(AttributeError, match="module 'germkit' has no attribute 'no_such_name'"):
        germkit.no_such_name
    with pytest.raises(ImportError):
        from germkit import no_such_name  # noqa: F401


# The public top-level functions and classes, and the public methods of public classes
# (as "Class.method"), that no module of the package and no tracer binding reaches,
# each with the fact of the paper that a test states through it.
LIBRARY_ONLY = {
    "dim_fixed": "dim pi^(K_j) = P(q^(dj)) on the n = 2 catalog (test_acceptance criterion 05)",
    "forward_multiplicities": "multiplicities determine the map (test_acceptance criterion 04)",
    "gk_dimension": "the degree d(pi) is independent of K (test_germ, degree_is_independent_of_the_subgroup)",
    "q_factorial": "[n]_q! = |GL_n(F_q)| / |B(F_q)| (test_qpoly)",
    "q_int": "[n]_q! is the product of the q-integers (test_qpoly)",
    "CoefficientMap.indicator": "the multiplicities of the row of M at mu solve to the indicator of mu "
    "(test_germ test_indicator_rows)",
    "CoefficientMap.scale": "induction of coefficient maps is multilinear (test_germ TestInduction)",
}


def _names_read(path):
    """Every name that path reads, as a bare name or as an attribute: an assignment or del target is not read."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _public_definitions():
    """(ledger key, node) of each public top-level function and class, and of each public method of a public class."""
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, node
                if isinstance(node, ast.ClassDef):
                    for method in node.body:
                        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                            yield f"{node.name}.{method.name}", method


def test_library_only_names_are_the_ledger(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    public = {key: node.name for key, node in _public_definitions()}  # ledger key: the name a caller reads
    reached = {name for _, name, _ in layers.TIMED} | _names_read(PERFBENCH / "layers.py")
    for path in SRC.glob("*.py"):
        reached |= _names_read(path)
    assert {key for key, name in public.items() if name not in reached} == set(LIBRARY_ONLY)


# The defaulted parameters of public functions and methods that no call in the package or in
# perfbench passes, by keyword or by position: each is an option only a test sets or reads.
CALLER_UNSET = {
    ("iter_matrices", "cap"): "test_oracle TestCensus test_cap, under the oracle's single cap contract",
    ("xi_multiplicity", "cap"): "test_oracle TestXiMultiplicities test_cap, under the oracle's single cap contract",
}


def test_parameters_no_caller_sets_are_the_ledger():
    calls = [node for path in (*SRC.glob("*.py"), *PERFBENCH.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]

    def passed(name, param, index):
        for call in calls:
            if name not in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                continue
            if any(k.arg in (param, None) for k in call.keywords):  # None: a **mapping may hold it
                return True
            if index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False

    unset = set()
    for key, node in _public_definitions():
        if isinstance(node, ast.FunctionDef):
            positional = (node.args.posonlyargs + node.args.args)["." in key:]  # a method's self or cls is bound
            first = len(positional) - len(node.args.defaults)
            defaulted = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(arg.arg, None) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if default is not None]
            unset |= {(key, param) for param, index in defaulted if not passed(node.name, param, index)}
    assert unset == set(CALLER_UNSET)


def _sites(tree, name):
    """The innermost enclosing function (None at module level) of each call or bare raise of name in tree."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
        if name in (getattr(target, "id", None), getattr(target, "attr", None)):
            sites.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def test_oracle_bound_error_is_raised_only_by_charge():
    # one refusal rule for every oracle stream: a new stream is charged through oracle._charge
    sites = {(path.name, fn) for path in SRC.glob("*.py") for fn in _sites(ast.parse(path.read_text()), "OracleBoundError")}
    assert sites == {("oracle.py", "_charge")}


def test_exit_codes_follow_the_exception_family():
    # a new exception class needs no handler of its own: its family decides the exit code
    defined = {}
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"germkit.{path.stem}" if path.stem != "__init__" else "germkit")
        defined |= {name: obj for name, obj in vars(module).items() if isinstance(obj, type)
                    and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    assert {"OracleBoundError", "OracleConsistencyError", "PositivityError"} <= set(defined)
    assert [name for name, cls in defined.items() if not issubclass(cls, (ValueError, ArithmeticError))] == []
    main = next(node for node in ast.parse((SRC / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    named = {node.id for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
             for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
    assert {name for name in named if not hasattr(builtins, name)} == {"PositivityError"}


def test_count_columns_is_the_one_coset_count_kernel():
    # one function builds the factorial tables and applies the depth law, and it reads no memo private to partitions
    sites = {(path.name, fn) for path in SRC.glob("*.py") for fn in _sites(ast.parse(path.read_text()), "_factorials")}
    assert sites == {("cosets.py", "count_columns")}
    imports = [node for node in ast.walk(ast.parse((SRC / "cosets.py").read_text())) if isinstance(node, ast.ImportFrom)]
    assert [alias.name for node in imports if node.module == "partitions" for alias in node.names
            if alias.name.startswith("_")] == []


def test_the_chain_formulas_read_a_spec():
    # a caller hands dim_invariants one chain member; gl2 builds one only for its mod-p rows
    assert _sites(ast.parse((SRC / "gl2.py").read_text()), "SubgroupSpec") == ["modp_supersingular_dims"]


def test_json_text_is_the_only_json_writer():
    # every JSON record leaves through cli._json_text, the one exact writer: no module calls json.dump(s)
    sites = {(path.name, fn) for path in SRC.glob("*.py") for name in ("dump", "dumps")
             for fn in _sites(ast.parse(path.read_text()), name)}
    assert sites == set()


def test_no_module_reads_a_private_argparse_attribute():
    # cli._COMMANDS declares every option, so nothing reads it back out of argparse's objects
    parser = argparse.ArgumentParser()
    private = {name for name in (*dir(parser), *dir(parser.add_subparsers()))
               if name.startswith("_") and not name.endswith("__")}
    reads = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
                if node.attr in private or getattr(node.value, "id", None) == "argparse":
                    reads.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                reads |= {(path.name, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert reads == set()
