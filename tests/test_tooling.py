"""The benchmark's tracer wraps germkit functions by module and name.

perfbench/layers.py looks each name up when `perfbench/run.py --trace 1`
installs it, so a rename inside the package would only show there.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
