"""Plain-integer closed forms that the benchmark checks germkit's output against.

Written without importing germkit, so that a defect shared by the
library and its checker is unlikely.  Partitions are tuples of ints in
weakly decreasing order; maps are dicts from such tuples to nonzero ints.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

FAMILIES = ("K0", "K", "I0", "Ihalf", "I")
PRO_P = ("K", "Ihalf", "I")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in lexicographically decreasing (canonical) order."""
    out = []

    def rec(rest, top, prefix):
        if rest == 0:
            out.append(tuple(prefix))
        for k in range(min(rest, top), 0, -1):
            rec(rest - k, k, prefix + [k])

    rec(n, n, [])
    return tuple(out)


def d_of(lam) -> int:
    return (sum(lam) ** 2 - sum(p * p for p in lam)) // 2


def dual(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def dominated(mu, lam) -> bool:
    """mu <= lam in dominance order (partitions of one n)."""
    a, b = list(accumulate(mu)), list(accumulate(lam))
    size = max(len(a), len(b))
    a += [a[-1]] * (size - len(a))
    b += [b[-1]] * (size - len(b))
    return all(x <= y for x, y in zip(a, b))


def minimal(support) -> set:
    return {lam for lam in support if not any(mu != lam and dominated(mu, lam) for mu in support)}


def gl_order(n: int, q: int) -> int:
    return math.prod(q**n - q**i for i in range(n))


def parabolic_order(lam, q: int) -> int:
    return q ** d_of(lam) * math.prod(gl_order(p, q) for p in lam)


def coset_count(lam, q: int) -> int:
    """|GL_n(F_q)| / |P_lam(F_q)|, the value of the q-multinomial at q."""
    return gl_order(sum(lam), q) // parabolic_order(lam, q)


def multinomial(lam) -> int:
    return math.factorial(sum(lam)) // math.prod(math.factorial(p) for p in lam)


def base_count(lam, family: str, t: int) -> int:
    """Count of P_lam-cosets at depth 0 of the family, residue field size t."""
    if family == "K0":
        return 1
    if family == "K":
        return coset_count(lam, t)
    if family in ("I0", "Ihalf"):
        return multinomial(lam)
    return multinomial(lam) * t ** d_of(lam)


def family_count(lam, family: str, t: int, depth: int) -> int:
    return base_count(lam, family, t) * t ** (d_of(lam) * depth)


def cosets_records(n: int, q: int, j: int, d: int = 1) -> list[dict]:
    t = q**d
    return [
        {"partition": list(lam), "family": fam, "depth": k, "q": q, "d": d,
         "count": family_count(lam, fam, t, k)}
        for lam in partitions(n)
        for fam in FAMILIES
        for k in (range(j + 1) if fam in PRO_P else (0,))
    ]


def dimpoly_record(cmap: dict, n: int, family: str, q: int, d: int) -> dict:
    t = q**d
    coeffs: dict[int, int] = {}
    for lam, v in cmap.items():
        coeffs[d_of(lam)] = coeffs.get(d_of(lam), 0) + base_count(lam, family, t) * v
    poly = [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]
    while poly and poly[-1] == 0:
        poly.pop()
    top = max(d_of(lam) for lam in cmap)
    return {"n": n, "family": family, "q": q, "d": d, "poly": poly, "degree": len(poly) - 1,
            "formal_degree": top, "formal_leading": coeffs[top]}


def induce(maps: list[dict]) -> dict:
    """Pairwise fold of the induction convolution."""
    acc = {(): 1}
    for cmap in maps:
        nxt: dict = {}
        for lam, v in acc.items():
            for mu, w in cmap.items():
                key = tuple(sorted(lam + mu, reverse=True))
                nxt[key] = nxt.get(key, 0) + v * w
        acc = nxt
    return {lam: v for lam, v in acc.items() if v}


def map_json(n: int, cmap: dict) -> dict:
    """The wire form of a coefficient map, entries in canonical order."""
    return {"n": n, "entries": [{"partition": list(lam), "value": cmap[lam]}
                                for lam in sorted(cmap, reverse=True) if cmap[lam]]}


def gl2_table(q: int, d: int, j: int, modp: bool) -> dict:
    """The `gl2 table --json` document: catalog (a, b) pairs and chain dimensions."""
    catalog = [
        ("trivial", 1, 0), ("finite-dim(2)", 2, 0), ("principal-series(1)", 0, 1),
        ("principal-series(2)", 0, 2), ("steinberg", -1, 1), ("cuspidal-steinberg", -2, 1),
        ("speh(2; b=1)", 2, 1), ("ess-sq-int(2; b=3)", -2, 3),
        ("supercuspidal(level 1/2)", -(q + 1), 1), ("supercuspidal(level 1)", -2 * q, 1),
        ("supercuspidal(level 3/2)", -(q + 1) * q, 1),
    ]
    t = q**d
    factors = {"Ihalf": 2, "K": t + 1, "I": 2 * t}
    rows = []
    for label, a, b in catalog:
        dims = {fam: a + f * b * t**j for fam, f in factors.items()}
        rows.append({"label": label, "a": a, "b": b, "j": j,
                     "dims": {fam: v if v >= 0 else None for fam, v in dims.items()}})
    if modp:
        for twist in (True, False):
            a_prime = -3 if twist else -4
            rows.append({
                "label": "modp-supersingular(" + ("twist" if twist else "non-twist") + ")",
                "a": -2, "b": 2, "a_prime": a_prime, "j": j,
                "dims": {"Ihalf": -2 + 4 * q**j, "K": a_prime + 2 * (q + 1) * q**j, "I": None},
            })
    return {"q": q, "d": d, "rows": rows}
