"""Command-line front end with deterministic text/JSON output.

Exit codes: 0 success, 1 validation error (bad flags, bad input files,
enumeration above the cap, stdout closed by the reader), 2 invariant
violation (a failed oracle check, an inexact division in a closed form,
or a positivity failure reported by `germ whittaker`).

The oracle enumeration cap defaults to 10**7 streamed elements and can
be overridden with the GERMKIT_ORACLE_CAP environment variable.  It
counts q^(n^2) matrices for `oracle --check jordan`, the flags of each
orbit for `--check cosets`, and for `--check ximatrix` and
`germ solve` the sum of q^(d_mu) over the nilradicals n_mu streamed.
`--check ximatrix` passes only where the oracle matrix also equals the
Kostka-Foulkes closed form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gl2, oracle
from .cosets import _PRO_P_CHAINS, Family, SubgroupSpec, count_at_depth, require_prime_power
from .germ import (
    CoefficientMap,
    PositivityError,
    closed_form_multiplicity_matrix,
    dimension_polynomial,
    induce_maps,
    jl_transfer,
    lj_transfer,
    solve_from_multiplicities,
    whittaker_dims,
)
from .oracle import OracleConsistencyError
from .partitions import Partition, d_of, dominance_leq, dual, enumerate_partitions, require_at_least
from .qpoly import q_multinomial


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    """An oracle check ran to completion and disagreed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_partition(text: str) -> Partition:
    try:
        parts = [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise UsageError(f"cannot parse partition {text!r}; expected comma-separated integers")
    return Partition(parts)


def _oracle_cap() -> int:
    raw = os.environ.get("GERMKIT_ORACLE_CAP")
    if raw is None:
        return oracle.DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"GERMKIT_ORACLE_CAP must be an integer, got {raw!r}")
    return require_at_least(cap, 1, "GERMKIT_ORACLE_CAP")


def _read_map(path: str) -> CoefficientMap:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")
    return CoefficientMap.from_json(data)


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}")
    else:
        print(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2))


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


_PARTITION_COLUMNS = {"d": d_of, "dual": dual}


def _cmd_partitions(args) -> int:
    header = ["partition"] + [c for c in _PARTITION_COLUMNS if c in (args.show or [])]
    values = [[lam] + [_PARTITION_COLUMNS[c](lam) for c in header[1:]] for lam in enumerate_partitions(args.n)]
    if args.json:
        records = [{h: v if isinstance(v, int) else v.to_json() for h, v in zip(header, row)} for row in values]
        _emit_json(args, records)
    else:
        _emit(args, _table([[str(v) for v in row] for row in values], header))
    return 0


def _cmd_qcount(args) -> int:
    lam = _parse_partition(args.partition)
    if args.q is not None:
        require_prime_power(args.q)
    poly = q_multinomial(lam)
    if args.json:
        rec = {"partition": lam.to_json(), "poly": poly.to_json(), "pretty": poly.pretty("q")}
        if args.q is not None:
            rec["q"] = args.q
            rec["value"] = poly.eval_at(args.q)
        _emit_json(args, rec)
        return 0
    lines = [f"q-multinomial for {lam}: {poly.pretty('q')}"]
    if args.q is not None:
        lines.append(f"value at q={args.q}: {poly.eval_at(args.q)}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_cosets(args) -> int:
    require_at_least(args.j, 0, "--j")
    families = [Family.parse(args.family)] if args.family else list(Family)
    records = []
    for lam in enumerate_partitions(args.n):
        for fam in families:
            depths = range(args.j + 1) if fam.is_pro_p else [0]
            for j in depths:
                spec = SubgroupSpec(fam, j, args.q, args.d)
                records.append(
                    {
                        "partition": lam.to_json(),
                        "family": fam.token,
                        "depth": j,
                        "q": args.q,
                        "d": args.d,
                        "count": count_at_depth(lam, spec),
                    }
                )
    if args.json:
        _emit_json(args, records)
        return 0
    rows = [
        [
            str(Partition(r["partition"])),
            r["family"],
            str(r["depth"]),
            str(r["count"]),
        ]
        for r in records
    ]
    _emit(args, _table(rows, ["partition", "family", "depth", "count"]))
    return 0


def _cmd_germ_dimpoly(args) -> int:
    cmap = _read_map(args.infile)
    fam = Family.parse(args.family)
    dp = dimension_polynomial(cmap, fam, args.q, args.d)
    if args.json:
        _emit_json(
            args,
            {
                "n": cmap.n,
                "family": fam.token,
                "q": args.q,
                "d": args.d,
                "poly": dp.poly.to_json(),
                "pretty": dp.poly.pretty_ascending("X"),
                "degree": dp.degree,
                "formal_degree": dp.formal_degree,
                "formal_leading": dp.formal_leading,
            },
        )
        return 0
    _emit(args, dp.poly.pretty_ascending("X"))
    return 0


def _cmd_germ_induce(args) -> int:
    maps = [_read_map(p) for p in args.infile]
    _emit_json(args, induce_maps(maps).to_json())
    return 0


def _cmd_germ_lj(args) -> int:
    require_at_least(args.d, 1, "--d")
    cmap = _read_map(args.infile)
    if cmap.n % args.d != 0:
        raise UsageError(f"map is on partitions of {cmap.n}, not divisible by d = {args.d}")
    _emit_json(args, lj_transfer(cmap, cmap.n // args.d, args.d).to_json())
    return 0


def _cmd_germ_jl(args) -> int:
    cmap = _read_map(args.infile)
    _emit_json(args, jl_transfer(cmap, args.d).to_json())
    return 0


def _cmd_germ_solve(args) -> int:
    data = _read_map(args.infile)  # multiplicities share the coefficient-map schema
    mults = {lam: data.value(lam) for lam in enumerate_partitions(data.n)}
    M = oracle.multiplicity_matrix(data.n, args.q, cap=_oracle_cap())
    _emit_json(args, solve_from_multiplicities(mults, M).to_json())
    return 0


def _cmd_germ_whittaker(args) -> int:
    cmap = _read_map(args.infile)
    dims = whittaker_dims(cmap)
    ordered = [(lam, dims[lam]) for lam in sorted(dims, key=lambda p: p.parts, reverse=True)]
    if args.json:
        _emit_json(args, {"n": cmap.n, "dims": [{"partition": lam.to_json(), "value": v} for lam, v in ordered]})
        return 0
    _emit(args, _table([[str(lam), str(v)] for lam, v in ordered], ["partition", "dim"]))
    return 0


def _oracle_report(args) -> dict:
    cap = _oracle_cap()
    n, q = args.n, args.q
    items = []
    if args.check == "cosets":
        for lam in enumerate_partitions(n):
            observed, quotient = oracle.parabolic_coset_report(lam, n, q, cap)
            expected = q_multinomial(lam).eval_at(q)
            items.append(
                {
                    "partition": lam.to_json(),
                    "expected": expected,
                    "observed": observed,
                    "order_quotient": quotient,
                    "pass": observed == expected == quotient,
                }
            )
    elif args.check == "jordan":
        for lam in enumerate_partitions(n):
            observed = oracle.nilpotent_partition(oracle.build_A_lambda(lam, q))
            items.append(
                {
                    "partition": lam.to_json(),
                    "expected": lam.to_json(),
                    "observed": observed.to_json(),
                    "pass": observed == lam,
                }
            )
        census = oracle.nilpotent_census(n, q, cap)
        items.append(
            {
                "census": f"nilpotents in M_{n}(F_{q})",
                "expected": q ** (n * n - n),
                "observed": census,
                "pass": census == q ** (n * n - n),
            }
        )
    else:  # ximatrix
        M = oracle.multiplicity_matrix(n, q, cap)
        closed = closed_form_multiplicity_matrix(n, q)
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                observed = M[lam][mu]
                if lam == mu:
                    expected = 1
                elif not dominance_leq(mu, lam):
                    expected = 0
                else:
                    expected = None  # no closed form imposed off the pattern
                items.append(
                    {
                        "row": lam.to_json(),
                        "col": mu.to_json(),
                        "expected": expected,
                        "observed": observed,
                        "pass": observed == closed[lam][mu] and (expected is None or observed == expected),
                    }
                )
    return {"check": args.check, "n": n, "q": q, "items": items, "pass": all(i["pass"] for i in items)}


def _cmd_oracle(args) -> int:
    report = _oracle_report(args)
    if args.json:
        _emit_json(args, report)
    else:
        rows = []
        for item in report["items"]:
            label = item.get("census") or str(
                Partition(item["partition"]) if "partition" in item else (
                    f"{Partition(item['row'])} x {Partition(item['col'])}"
                )
            )
            rows.append(
                [
                    label,
                    "-" if item["expected"] is None else str(item["expected"]),
                    str(item["observed"]),
                    "pass" if item["pass"] else "FAIL",
                ]
            )
        _emit(args, _table(rows, ["item", "expected", "observed", "status"]))
    if not report["pass"]:
        raise CheckFailure(f"oracle check {args.check} failed for n={args.n}, q={args.q}")
    return 0


def _cmd_gl2(args) -> int:
    records = []
    for label, rep in gl2.catalog(args.q):
        a, b = gl2.ab_coefficients(rep, args.q)
        dims = {}
        for fam in _PRO_P_CHAINS:
            value = gl2.chain_dim_formula(a, b, fam, args.j, args.q, args.d)
            dims[fam.token] = value if value >= 0 else None  # below the class's validity threshold
        records.append({"label": label, "a": a, "b": b, "j": args.j, "dims": dims})
    if args.modp:
        if args.d != 1:
            raise UsageError("mod-p supersingular rows require d = 1")
        for twist in (True, False):
            label = "modp-supersingular(" + ("twist" if twist else "non-twist") + ")"
            dims = {
                "Ihalf": gl2.modp_supersingular_dims(twist, Family.PRO_P_IWAHORI_HALF, args.j, args.q),
                "K": gl2.modp_supersingular_dims(twist, Family.VERTEX_CONGRUENCE, args.j, args.q),
                "I": None,
            }
            records.append(
                {"label": label, "a": -2, "b": 2, "a_prime": -3 if twist else -4, "j": args.j, "dims": dims}
            )
    if args.json:
        _emit_json(args, {"q": args.q, "d": args.d, "rows": records})
        return 0

    def show(v):
        return "n/a" if v is None else str(v)

    rows = [
        [r["label"], str(r["a"]), str(r["b"]), show(r["dims"]["Ihalf"]), show(r["dims"]["K"]), show(r["dims"]["I"])]
        for r in records
    ]
    _emit(args, _table(rows, ["class", "a", "b", f"dim I{2 * args.j + 1}/2", f"dim K{args.j + 1}", f"dim I{args.j + 1}"]))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_out(p, table=True):
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    if table:  # commands without a table always print JSON
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def build_parser() -> _Parser:
    parser = _Parser(prog="germkit", description="exact combinatorics of germ expansions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate partitions of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--show", action="append", choices=["d", "dual"], help="extra columns")
    _add_out(p)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("qcount", help="q-multinomial coset count for a partition")
    p.add_argument("--partition", required=True, metavar="PARTS", help="e.g. 3,1")
    p.add_argument("--q", type=int, help="evaluate at this prime power")
    _add_out(p)
    p.set_defaults(func=_cmd_qcount)

    p = sub.add_parser("cosets", help="coset counts per partition, family and depth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--j", type=int, default=0, help="maximal depth for the pro-p families")
    p.add_argument("--family", choices=[f.token for f in Family])
    _add_out(p)
    p.set_defaults(func=_cmd_cosets)

    p = sub.add_parser("germ", help="coefficient-map operations")
    germ_sub = p.add_subparsers(dest="germ_command", required=True)

    g = germ_sub.add_parser("dimpoly", help="dimension-growth polynomial of a map")
    g.add_argument("--in", dest="infile", required=True, metavar="FILE")
    g.add_argument("--family", required=True, choices=[f.token for f in Family])
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--d", type=int, default=1)
    _add_out(g)
    g.set_defaults(func=_cmd_germ_dimpoly)

    g = germ_sub.add_parser("induce", help="coefficient map of a parabolic induction")
    g.add_argument("--in", dest="infile", action="append", required=True, metavar="FILE")
    _add_out(g, table=False)
    g.set_defaults(func=_cmd_germ_induce)

    g = germ_sub.add_parser("lj", help="transfer a map on partitions of d*n down to n")
    g.add_argument("--in", dest="infile", required=True, metavar="FILE")
    g.add_argument("--d", type=int, required=True)
    _add_out(g, table=False)
    g.set_defaults(func=_cmd_germ_lj)

    g = germ_sub.add_parser("jl", help="transfer a map on partitions of n up to d*n")
    g.add_argument("--in", dest="infile", required=True, metavar="FILE")
    g.add_argument("--d", type=int, required=True)
    _add_out(g, table=False)
    g.set_defaults(func=_cmd_germ_jl)

    g = germ_sub.add_parser("solve", help="recover a map from depth-one multiplicities")
    g.add_argument("--in", dest="infile", required=True, metavar="FILE")
    g.add_argument("--q", type=int, required=True, help="prime for the oracle matrix")
    _add_out(g, table=False)
    g.set_defaults(func=_cmd_germ_solve)

    g = germ_sub.add_parser("whittaker", help="Whittaker dimensions at minimal support")
    g.add_argument("--in", dest="infile", required=True, metavar="FILE")
    _add_out(g)
    g.set_defaults(func=_cmd_germ_whittaker)

    p = sub.add_parser("oracle", help="brute-force checks over a prime field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--check", required=True, choices=["cosets", "jordan", "ximatrix"])
    _add_out(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gl2", help="the n=2 catalog")
    gl2_sub = p.add_subparsers(dest="gl2_command", required=True)
    g = gl2_sub.add_parser("table", help="(a, b) pairs and chain dimensions")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--j", type=int, default=0)
    g.add_argument("--modp", action="store_true", help="append mod-p supersingular rows (q odd prime, d=1)")
    _add_out(g)
    g.set_defaults(func=_cmd_gl2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the final flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CheckFailure, OracleConsistencyError, ArithmeticError, PositivityError) as exc:
        print(f"germkit: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:  # OracleBoundError is a ValueError
        print(f"germkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
