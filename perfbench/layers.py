"""Per-layer counters and timers, installed from outside the package.

`Tracer.install` replaces each traced germkit function in every germkit
module that binds its name (for example `germkit.cli` imports
`q_multinomial` and `germkit.cosets` binds it too), so no call escapes
by going through a second binding.  Nothing under `src/` changes.

Times (`*.s`) are inclusive wall times of the outermost active frame of
each group, so recursion and nesting inside one group count once.
`cli.main.self_s` is the time in `main` outside every timed child.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import reference

# (module, function, group): the group's ".s" and ".calls" collect the time
# and calls of every function listed under it.
TIMED = (
    ("germkit.cli", "main", "cli.main"),
    ("germkit.partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("germkit.qpoly", "q_multinomial", "qpoly.q_multinomial"),
    ("germkit.cosets", "count_at_depth", "cosets.count_at_depth"),
    ("germkit.cosets", "base_count", "cosets.base_count"),
    ("germkit.germ", "dimension_polynomial", "germ.dimension_polynomial"),
    ("germkit.germ", "induce_maps", "germ.induce_maps"),
    ("germkit.germ", "jl_transfer", "germ.transfer"),
    ("germkit.germ", "lj_transfer", "germ.transfer"),
    ("germkit.germ", "whittaker_dims", "germ.whittaker_dims"),
    ("germkit.germ", "solve_from_multiplicities", "germ.solve_from_multiplicities"),
    ("germkit.gl2", "catalog", "gl2"),
    ("germkit.gl2", "ab_coefficients", "gl2"),
    ("germkit.gl2", "dim_invariants", "gl2"),
    ("germkit.gl2", "modp_supersingular_dims", "gl2"),
    ("germkit.oracle", "multiplicity_matrix", "oracle.multiplicity_matrix"),
    ("germkit.oracle", "xi_multiplicity", "oracle.xi_multiplicity"),
    ("germkit.oracle", "flag_orbit_count", "oracle.flag_orbit_count"),
    ("germkit.oracle", "nilpotent_census", "oracle.nilpotent_census"),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group in TIMED))

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "partitions.enumerate_partitions.calls": "count",
    "partitions.enumerate_partitions.s": "s",
    "partitions.dominance.calls": "count",
    "qpoly.q_multinomial.calls": "count",
    "qpoly.q_multinomial.s": "s",
    "qpoly.q_multinomial.repeat_ratio": "1",
    "cosets.count_at_depth.calls": "count",
    "cosets.count_at_depth.s": "s",
    "cosets.base_count.calls": "count",
    "cosets.base_count.s": "s",
    "germ.dimension_polynomial.s": "s",
    "germ.induce_maps.s": "s",
    "germ.induce_maps.combos": "count",
    "germ.induce_maps.useful_ratio": "1",
    "germ.transfer.s": "s",
    "germ.whittaker_dims.s": "s",
    "germ.solve_from_multiplicities.s": "s",
    "gl2.s": "s",
    "oracle.multiplicity_matrix.calls": "count",
    "oracle.multiplicity_matrix.s": "s",
    "oracle.xi_multiplicity.calls": "count",
    "oracle.xi_multiplicity.s": "s",
    "oracle.xi_multiplicity.useful_ratio": "1",
    "oracle.matrices_streamed": "count",
    "oracle.flag_orbit_count.s": "s",
    "oracle.flags_seen": "count",
    "oracle.nilpotent_census.s": "s",
    "oracle.gl_cache_pairs": "count",
}


class Tracer:
    """Wraps germkit's public functions and accumulates raw counters.

    Raw counters are sums, except `oracle.gl_cache_pairs`, a maximum over
    processes; `merge` combines the counters of several processes.
    """

    def __init__(self):
        self.raw: dict[str, float] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []
        self._children = [0.0]  # time of timed children, one slot per open frame
        self._depth: dict[str, int] = defaultdict(int)
        self._qm_keys: set = set()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "germkit" or name.startswith("germkit."))]
        wrappers = {}
        for modname, fname, group in TIMED:
            fn = getattr(sys.modules[modname], fname)
            wrappers[id(fn)] = self._timed(fn, group)
        part, oracle = sys.modules["germkit.partitions"], sys.modules["germkit.oracle"]
        wrappers[id(part.dominance_leq)] = self._counted(part.dominance_leq, "partitions.dominance.calls")
        wrappers[id(oracle.iter_matrices)] = self._streamed(oracle.iter_matrices)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- wrappers -----------------------------------------------------

    def _timed(self, fn, group):
        raw, children, depth, observe = self.raw, self._children, self._depth, self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth[group] == 0
            depth[group] += 1
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = children.pop()
                children[-1] += dt
                depth[group] -= 1
                raw[group + ".calls"] += 1
                if outer:
                    raw[group + ".s"] += dt
                if group == "cli.main":
                    raw["cli.main.self_s"] += dt - inner
            observe(group, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        raw = self.raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            raw[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _streamed(self, fn):
        raw = self.raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                raw["oracle.matrices_streamed"] += 1
                yield item

        return wrapper

    def _observe(self, group, args, result) -> None:
        """Counters that need a call's arguments or result."""
        raw = self.raw
        if group == "qpoly.q_multinomial":
            key = tuple(args[0])
            if key not in self._qm_keys:
                self._qm_keys.add(key)
                raw["qpoly.q_multinomial.distinct"] += 1
        elif group == "germ.induce_maps":
            combos = 1
            for cmap in args[0]:
                combos *= len(cmap.support())
            raw["germ.induce_maps.combos"] += combos
            raw["germ.induce_maps.output_support"] += len(result.support())
        elif group == "oracle.xi_multiplicity":
            lam, mu, n, q = args[:4]
            raw["oracle.xi_multiplicity.hits"] += result * reference.parabolic_order(tuple(mu), q)
            raw["oracle.xi_multiplicity.group_elements"] += reference.gl_order(n, q)
        elif group == "oracle.flag_orbit_count":
            raw["oracle.flags_seen"] += result

    def finish(self) -> None:
        """Record end-of-process state: the size of the oracle's group cache."""
        cache = getattr(sys.modules.get("germkit.oracle"), "_GL_CACHE", {})
        pairs = sum(len(v) for v in cache.values())
        self.raw["oracle.gl_cache_pairs"] = max(self.raw["oracle.gl_cache_pairs"], pairs)


def merge(into: dict, raw: dict) -> None:
    for key, value in raw.items():
        if key == "oracle.gl_cache_pairs":
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics (see LAYER_UNITS) from merged raw counters."""
    out = {name: raw.get(name, 0) for name in LAYER_UNITS}
    calls = raw.get("qpoly.q_multinomial.calls", 0)
    out["qpoly.q_multinomial.repeat_ratio"] = _ratio(calls - raw.get("qpoly.q_multinomial.distinct", 0), calls)
    out["germ.induce_maps.useful_ratio"] = _ratio(
        raw.get("germ.induce_maps.output_support", 0), raw.get("germ.induce_maps.combos", 0))
    out["oracle.xi_multiplicity.useful_ratio"] = _ratio(
        raw.get("oracle.xi_multiplicity.hits", 0), raw.get("oracle.xi_multiplicity.group_elements", 0))
    return out
