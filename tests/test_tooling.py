"""The benchmark's tracer wraps germkit functions by module and name.

perfbench/layers.py looks each name up when `perfbench/run.py --trace 1`
installs it, so a rename inside the package would only show there.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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
