"""Command-line front end with deterministic text/JSON output.

Exit codes: 0 success, 1 validation error (bad flags, bad input files,
enumeration above the cap, an output that cannot be written, stdout
closed by the reader), 2 invariant violation (a failed oracle check, an
inexact division in a closed form, or a positivity failure reported by
`germ whittaker`).

The oracle enumeration cap defaults to 10**7 streamed elements and can
be overridden with the GERMKIT_ORACLE_CAP environment variable.  It
counts q^(n^2) matrices for `oracle --check jordan`, the flags of each
orbit for `--check cosets` (every orbit charged before any search, the
largest, the full flags, first), and for `--check ximatrix` the sum of
q^(d_mu) over the nilradicals n_mu streamed.  Every stream is charged
before its first element, and a refusal is one line that prints a size
of more than 20 digits as a power of q (q^e, or "more than q^e").  A
flag search that finds more flags than the orbit's group-order quotient
is an invariant violation.  `--check ximatrix` passes only where the
oracle matrix also equals the Kostka-Foulkes closed form.

`germ solve` streams nothing and ignores the cap.  It reads the closed
form, built once per n and process as polynomials in q, at any prime
power q, for n <= SOLVE_MAX_N.
"""

from __future__ import annotations

import argparse
import functools
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
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply to read")
    return CoefficientMap.from_json(data)


def _emit(args, record, text) -> None:
    """Write the record as JSON under --json or when text is None, else text(), to --out or stdout."""
    body = json.dumps(record, indent=2) if text is None or args.json else text()
    out = args.out
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(body + "\n")
        else:
            print(body)
            sys.stdout.flush()
    except OSError as exc:
        if out:
            raise UsageError(f"cannot write {out}: {exc}")
        # point stdout at devnull so the final flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise  # the reader closed stdout: exit 1 without a message
        raise UsageError(f"cannot write stdout: {exc}")


def _table(rows, header: list[str]) -> str:
    """Left-aligned columns two spaces apart, each cell printed with str()."""
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)


# ---------------------------------------------------------------------------
# subcommands: each builds its JSON record once and ends with one _emit


_PARTITION_COLUMNS = {"d": d_of, "dual": dual}


def _cmd_partitions(args) -> None:
    header = ["partition"] + [c for c in _PARTITION_COLUMNS if c in (args.show or [])]
    values = [[lam] + [_PARTITION_COLUMNS[c](lam) for c in header[1:]] for lam in enumerate_partitions(args.n)]
    records = [{h: v if isinstance(v, int) else v.to_json() for h, v in zip(header, row)} for row in values]
    _emit(args, records, lambda: _table(values, header))


def _cmd_qcount(args) -> None:
    lam = _parse_partition(args.partition)
    if args.q is not None:
        require_prime_power(args.q)
    poly = q_multinomial(lam)
    rec = {"partition": lam.to_json(), "poly": poly.to_json(), "pretty": poly.pretty("q")}
    lines = [f"q-multinomial for {lam}: {rec['pretty']}"]
    if args.q is not None:
        rec["q"] = args.q
        rec["value"] = poly.eval_at(args.q)
        lines.append(f"value at q={args.q}: {rec['value']}")
    _emit(args, rec, lambda: "\n".join(lines))


def _cmd_cosets(args) -> None:
    require_at_least(args.j, 0, "--j")
    families = [Family.parse(args.family)] if args.family else list(Family)
    rows = []
    for lam in enumerate_partitions(args.n):
        for fam in families:
            for j in range(args.j + 1) if fam.is_pro_p else [0]:
                rows.append((lam, fam.token, j, count_at_depth(lam, SubgroupSpec(fam, j, args.q, args.d))))
    records = [
        {
            "partition": lam.to_json(),
            "family": token,
            "depth": j,
            "q": args.q,
            "d": args.d,
            "count": count,
        }
        for lam, token, j, count in rows
    ]
    _emit(args, records, lambda: _table(rows, ["partition", "family", "depth", "count"]))


def _cmd_germ_dimpoly(args) -> None:
    cmap = _read_map(args.infile)
    fam = Family.parse(args.family)
    dp = dimension_polynomial(cmap, fam, args.q, args.d)
    rec = {
        "n": cmap.n,
        "family": fam.token,
        "q": args.q,
        "d": args.d,
        "poly": dp.poly.to_json(),
        "pretty": dp.poly.pretty_ascending("X"),
        "degree": dp.degree,
        "formal_degree": dp.formal_degree,
        "formal_leading": dp.formal_leading,
    }
    _emit(args, rec, lambda: rec["pretty"])


def _cmd_germ_induce(args) -> None:
    _emit(args, induce_maps([_read_map(p) for p in args.infile]).to_json(), None)


def _cmd_germ_lj(args) -> None:
    require_at_least(args.d, 1, "--d")
    cmap = _read_map(args.infile)
    if cmap.n % args.d != 0:
        raise UsageError(f"map is on partitions of {cmap.n}, not divisible by d = {args.d}")
    _emit(args, lj_transfer(cmap, cmap.n // args.d, args.d).to_json(), None)


def _cmd_germ_jl(args) -> None:
    _emit(args, jl_transfer(_read_map(args.infile), args.d).to_json(), None)


# The closed form's cost grows with n and not with q: on a 2-vCPU Xeon,
# building it takes about 1.6 s at n = 10 and 6 s at n = 11.
SOLVE_MAX_N = 10


def _cmd_germ_solve(args) -> None:
    data = _read_map(args.infile)  # multiplicities share the coefficient-map schema
    if data.n > SOLVE_MAX_N:
        raise UsageError(f"germ solve supports n <= {SOLVE_MAX_N}, got n = {data.n}")
    M = closed_form_multiplicity_matrix(data.n, args.q)
    mults = {lam: data.value(lam) for lam in M}  # the rows of M: every partition of n, in canonical order
    _emit(args, solve_from_multiplicities(mults, M).to_json(), None)


def _cmd_germ_whittaker(args) -> None:
    cmap = _read_map(args.infile)
    dims = whittaker_dims(cmap)  # in canonical order
    rec = {"n": cmap.n, "dims": [{"partition": lam.to_json(), "value": v} for lam, v in dims.items()]}
    _emit(args, rec, lambda: _table(dims.items(), ["partition", "dim"]))


def _oracle_items(args):
    """(label, item) for each entry of the oracle report."""
    cap = _oracle_cap()
    n, q = args.n, args.q
    if args.check == "cosets":
        parts = enumerate_partitions(n)
        # every orbit charged before any search, the full flags (1^n), the largest, first
        quotients = {lam: oracle.flag_orbit_size(lam, n, q, cap) for lam in reversed(parts)}
        for lam in parts:
            observed, quotient = oracle.flag_orbit_count(lam, q, cap), quotients[lam]
            expected = q_multinomial(lam).eval_at(q)
            yield lam, {
                "partition": lam.to_json(),
                "expected": expected,
                "observed": observed,
                "order_quotient": quotient,
                "pass": observed == expected == quotient,
            }
    elif args.check == "jordan":
        census = oracle.nilpotent_census(n, q, cap)  # charges the cap before any A_lam is built
        for lam in enumerate_partitions(n):
            observed = oracle.nilpotent_partition(oracle.build_A_lambda(lam, q))
            yield lam, {
                "partition": lam.to_json(),
                "expected": lam.to_json(),
                "observed": observed.to_json(),
                "pass": observed == lam,
            }
        label = f"nilpotents in M_{n}(F_{q})"
        yield label, {
            "census": label,
            "expected": q ** (n * n - n),
            "observed": census,
            "pass": census == q ** (n * n - n),
        }
    else:  # ximatrix
        M = oracle.multiplicity_matrix(n, q, cap)
        closed = closed_form_multiplicity_matrix(n, q)
        for lam, row in M.items():  # rows and columns in canonical order
            for mu, observed in row.items():
                if lam == mu:
                    expected = 1
                elif not dominance_leq(mu, lam):
                    expected = 0
                else:
                    expected = None  # no closed form imposed off the pattern
                yield f"{lam} x {mu}", {
                    "row": lam.to_json(),
                    "col": mu.to_json(),
                    "expected": expected,
                    "observed": observed,
                    "pass": observed == closed[lam][mu] and (expected is None or observed == expected),
                }


def _cmd_oracle(args) -> None:
    labels, items = zip(*_oracle_items(args))
    report = {"check": args.check, "n": args.n, "q": args.q, "items": list(items)}
    report["pass"] = all(i["pass"] for i in items)

    def text():
        rows = [
            [label, "-" if i["expected"] is None else i["expected"], i["observed"], "pass" if i["pass"] else "FAIL"]
            for label, i in zip(labels, items)
        ]
        return _table(rows, ["item", "expected", "observed", "status"])

    _emit(args, report, text)
    if not report["pass"]:
        raise CheckFailure(f"oracle check {args.check} failed for n={args.n}, q={args.q}")


def _cmd_gl2(args) -> None:
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
            a, b, a_prime = gl2.modp_supersingular_coefficients(twist)
            dims = {
                "Ihalf": gl2.modp_supersingular_dims(twist, Family.PRO_P_IWAHORI_HALF, args.j, args.q),
                "K": gl2.modp_supersingular_dims(twist, Family.VERTEX_CONGRUENCE, args.j, args.q),
                "I": None,
            }
            records.append({"label": label, "a": a, "b": b, "a_prime": a_prime, "j": args.j, "dims": dims})

    def text():
        rows = [[r["label"], r["a"], r["b"]] + ["n/a" if v is None else v for v in r["dims"].values()] for r in records]
        return _table(rows, ["class", "a", "b"] + [f"dim {fam.label(args.j)}" for fam in _PRO_P_CHAINS])

    _emit(args, {"q": args.q, "d": args.d, "rows": records}, text)


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
    g.add_argument("--q", type=int, required=True, help="prime power at which to read the closed form")
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


@functools.cache
def _parser() -> _Parser:
    """The parser of this process, built on the first call of main; parse_args leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
        return 0
    except BrokenPipeError:  # the reader closed stdout
        return 1
    except (CheckFailure, OracleConsistencyError, ArithmeticError, PositivityError) as exc:
        print(f"germkit: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:  # OracleBoundError is a ValueError
        print(f"germkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
