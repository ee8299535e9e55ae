"""Command-line front end with deterministic text/JSON output.

Exit codes follow the exception's family: 0 success; 1 for a
ValueError, which every refusal raises (bad flags, bad input files,
enumeration above the cap, a size bound, an output that cannot be
written), and for stdout closed by the reader; 2 for an ArithmeticError
(a failed oracle check is an OracleConsistencyError, or an inexact
division in a closed form) and for the one ValueError that is an
invariant violation, the PositivityError of `germ whittaker`.

A q is tested for being a prime power only up to
`cosets.PRIME_POWER_MAX_BITS` bits.  An argv token of more than
ARGV_MAX_CHARS characters is refused before any is read, and argv and
every `--in` file are read under the interpreter's int-string digit
limit, which is lifted only for the output.  `qcount` takes
n <= QCOUNT_MAX_N, and `partitions` and `cosets` n <= TABLE_MAX_N.
`cosets`, `gl2 table` and `germ dimpoly` bound the bits of each count
and of all their counts from (n, j, q, d) before computing any
(`_bounded_counts`; at n = 1, where every count is one bit, it counts
the bits of t^(j + 1), which the kernel builds, and so also bounds the
number of rows), and `germ solve` those of its matrix at q from (n, q)
before evaluating it.  `qcount --q` bounds the bits of its value by
QCOUNT_MAX_BITS from (lam, q) before building the polynomial, and
`germ induce` the combinations of support entries its fold walks by
INDUCE_MAX_COMBOS once the maps are read.

The oracle enumeration cap defaults to 10**7 streamed elements and can
be overridden with the GERMKIT_ORACLE_CAP environment variable.  It
counts q^(n^2) matrices for `oracle --check jordan`, the flags of each
orbit for `--check cosets` (the largest, the full flags, first), and for
`--check ximatrix` the sum of q^(d_mu) over the nilradicals n_mu.  Every
stream is charged before its first element, and an n far over the cap
before its partitions are enumerated, by the one rule that the `oracle`
module docstring states; a refusal is one line, exit 1.  A flag search
that finds more or fewer flags than the orbit's group-order quotient is
an invariant violation.  `--check ximatrix` passes only where the oracle
matrix also equals the Hall-polynomial closed form.

`germ solve` streams nothing and ignores the cap.  It reads the closed
form, built once per n and process as polynomials in q, at a prime
power q, for n <= SOLVE_MAX_N.

Each command is declared once, in `_COMMANDS`: its function, help line
and options, which both the argparse tree (`build_parser`) and the
command's option table are built from.  `main` reads an argv that starts
with a command (`partitions`, ..., `gl2 table`) followed by only exact
option strings and their values from that table (`_plain_parse`).  Any
other argv, such as `-h`, `--x=v`, a bad value or no command, goes to
the tree, built and argparse imported on first use, so help and errors
are argparse's.

Every JSON record is written by `_json_text`, byte for byte what
json.dumps prints with an indent of 2, a Partition or a QPoly as the
array of its items.  `partitions`, `germ induce`, `lj`, `jl`, `solve`
and `whittaker` hand it a `_Table`, written column by column, and
`cosets --json` a `_Blocks`, written from one template per call (see
`_blocks`); every other list is written record by record.
A partition of a `partitions` or `cosets` table is rendered once per
process (`_partition_json`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import types

from . import gl2, oracle
from .cosets import _PRO_P_CHAINS, Family, SubgroupSpec, count_columns, require_prime, require_prime_power
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
from .partitions import Partition, _map_partitions, d_of, dominance_leq, dual, enumerate_partitions, require_at_least
from .qpoly import QPoly, q_multinomial


def _parse_partition(text: str) -> Partition:
    try:
        parts = [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}; expected comma-separated integers")
    return Partition(parts)


def _oracle_cap() -> int:
    raw = os.environ.get("GERMKIT_ORACLE_CAP")
    if raw is None:
        return oracle.DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"GERMKIT_ORACLE_CAP must be an integer, got {raw!r}")
    return require_at_least(cap, 1, "GERMKIT_ORACLE_CAP")


# the int-string digit limit that `main` found and reads argv under, and `_read_map` its files; None outside `main`
# and where the interpreter has no limit
_read_digits = None


def _set_digits(limit):
    """The interpreter's int-string digit limit, set to `limit` (0: none) unless that is None, which changes nothing."""
    if limit is None:
        return None
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return found


def _read_map(path: str) -> CoefficientMap:
    lifted = _set_digits(_read_digits)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    except ValueError:  # json refuses an int past the limit before converting it, in time quadratic in its digits
        raise ValueError(f"{path} holds an integer of more than {sys.get_int_max_str_digits()} digits")
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read")
    finally:
        _set_digits(lifted)
    return CoefficientMap.from_json(data)


_JSON_STR = json.encoder.encode_basestring_ascii
_JSON_INT = int.__repr__


class _Table:
    """A JSON array of records as its str keys and one list of cells per key: a row of zip(*columns) is a record.

    An n says that every partition in the table is a partition of n, so
    their texts are read from `_partition_json(n, ...)`, the memo that
    holds the text of each.
    """

    def __init__(self, keys, columns: list, n: int | None = None):
        self.keys, self.columns, self.n = keys, columns, n


class _Blocks:
    """A JSON array of one block of records per partition of n, in canonical order: a `cosets --json` table.

    A block's records are those of `block`, a _Table of exact ints and
    strs, each with a "partition" cell first, holding the block's
    partition, and a `last` cell at its end; values holds each block's
    tuple of exact ints for its `last` cells.
    """

    def __init__(self, n: int, block: _Table, last: str, values: list):
        self.n, self.block, self.last, self.values = n, block, last, values


def _write_json(value, out: list, nl: str) -> None:
    """Append to out the text json.dumps gives value with an indent of 2; nl is value's newline and indent.

    It handles dicts with str keys, lists, str, int, bool, None and exact
    Partitions and QPolys, written as the array of their parts or
    coefficients, and raises TypeError on any other type, so a record of a
    new shape fails rather than printing other bytes.  A partition, a
    polynomial or a list of exact ints is written with one join.  A
    _Table, which `partitions`, the four map commands and `germ whittaker`
    declare, is written column by column (see _stitch): a column of exact
    ints, of exact strs or of partitions in one pass, and every other cell
    by this function, so a float, other tuple, bytes or non-str key inside
    a table still raises TypeError.  A _Blocks, which `cosets --json` declares, is written from
    one template of its block (see _blocks).  Any other list, of dicts or
    not, is written item by item.
    """
    t = type(value)
    if t is str:
        out.append(_JSON_STR(value))
    elif t is int:
        out.append(_JSON_INT(value))
    elif t is bool or value is None:
        out.append("null" if value is None else "true" if value else "false")
    elif not value and (t is list or t is dict or t is QPoly):
        out.append("{}" if t is dict else "[]")
    elif t is list or t is Partition or t is QPoly:
        inner = nl + "  "
        comma = "," + inner
        # the items of a Partition or a QPoly are exact ints; bool is a subclass of int
        if t is not list or type(value[0]) is int and all(type(x) is int for x in value):
            out.append("[" + inner + comma.join(map(_JSON_INT, value)) + nl + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _write_json(x, out, inner)
            sep = comma
        out.append(nl + "]")
    elif t is dict:
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for k, x in value.items():
            if type(k) is not str:
                raise TypeError(f"JSON object keys must be str, got {k!r}")
            head = sep + _JSON_STR(k) + ": "
            tx = type(x)
            if tx is int:
                out.append(head + _JSON_INT(x))
            elif tx is str:
                out.append(head + _JSON_STR(x))
            else:
                out.append(head)
                _write_json(x, out, inner)
            sep = comma
        out.append(nl + "}")
    elif t is _Table:  # written as the records it stands for, none of them built
        rows = min(map(len, value.columns), default=0)
        inner = nl + "  "
        cells = [_column(column, inner + "  ", value.n) for column in value.columns]
        out.append("[" + inner + _stitch(value.keys, cells, inner) + nl + "]" if rows else "[]")
    elif t is _Blocks:
        out.append("[" + nl + "  " + _blocks(value, nl + "  ") + nl + "]")
    else:
        raise TypeError(f"cannot write {t.__name__} as JSON")


def _stitch(keys, cells: list, nl: str) -> str:
    """The records of a table of one row or more at newline and indent nl, joined by commas.

    cells holds the text of each cell of each column, at nl + "  ".
    """
    inner = nl + "  "
    sep = "," + nl  # before the next record: the last record's is cut off
    pieces = []  # a record is its heads and cells in turn, then its end
    for i, (key, column) in enumerate(zip(keys, cells)):
        pieces += (itertools.repeat(("{" if i == 0 else ",") + inner + _JSON_STR(key) + ": "), column)
    pieces.append(itertools.repeat(nl + "}" + sep))
    return "".join(itertools.chain.from_iterable(zip(*pieces)))[: -len(sep)]


def _blocks(table: _Blocks, nl: str) -> str:
    """The records of a _Blocks at newline and indent nl, joined by commas: one template, filled in per block.

    The template is a block's records stitched once, with the partition
    cells left as a "\0" and the `last` cells as a "%s" (JSON text holds
    no raw "\0" or "\1", and each "%" of the rest is doubled), so a block
    costs one join of its partition's text from `_partition_json` and one %.
    """
    keys, inner = ("partition", *table.block.keys, table.last), nl + "  "
    cells = [_column(column, inner) for column in table.block.columns]
    template = _stitch(keys, [itertools.repeat("\0"), *cells, itertools.repeat("\1")], nl)
    template = template.replace("%", "%%").replace("\1", "%s").split("\0")
    texts = _partition_json(table.n, inner).values()  # in canonical order
    return ("," + nl).join(text.join(template) % values for text, values in zip(texts, table.values))


def _column(cells, nl: str, n: int | None = None):
    """The text of each cell at newline and indent nl; partitions of an n given are read from `_partition_json`."""
    types = set(map(type, cells))
    if types == {int}:
        return map(_JSON_INT, cells)
    if types == {str}:
        return map(_JSON_STR, cells)
    if types == {Partition}:  # its parts are exact ints
        return map(_partition_json(n, nl).__getitem__, cells) if n else _partition_texts(cells, nl)
    return [_text(cell, nl) for cell in cells]


@functools.lru_cache(maxsize=64)
def _partition_json(n: int, nl: str) -> dict:
    """The text at newline and indent nl of each partition of n, in canonical order: rendered once per process."""
    parts = enumerate_partitions(n)
    return dict(zip(parts, _partition_texts(parts, nl)))


def _partition_texts(parts, nl: str) -> list:
    """The text of each partition in parts at newline and indent nl, in one join split at a "\0"."""
    inner = nl + "  "
    text = (nl + "]\0[" + inner).join(map(("," + inner).join, map(map, itertools.repeat(_JSON_INT), parts)))
    return ("[" + inner + text + nl + "]").split("\0") if parts else []


def _text(value, nl: str) -> str:
    out = []
    _write_json(value, out, nl)
    return "".join(out)


def _json_text(value) -> str:
    """The text json.dumps writes for value with an indent of 2 (and no other option), or TypeError."""
    return _text(value, "\n")


def _emit(args, record, text) -> None:
    """Write the record as JSON under --json or when text is None, else text(), to --out or stdout.

    The JSON is `_json_text(record)`: byte for byte what the standard
    library prints with an indent of 2, with ints in full at any size.
    """
    body = _json_text(record) if text is None or args.json else text()
    out = args.out
    try:
        if out is not None:
            with open(out, "w") as fh:
                fh.write(body + "\n")
        else:
            print(body)
            sys.stdout.flush()
    except OSError as exc:
        if out is not None:
            raise ValueError(f"cannot write {out}: {exc}")
        # point stdout at devnull so the final flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise  # the reader closed stdout: exit 1 without a message
        raise ValueError(f"cannot write stdout: {exc}")


def _table(rows, header: list[str]) -> str:
    """Left-aligned columns two spaces apart, each cell printed with str()."""
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)


# ---------------------------------------------------------------------------
# subcommands: each builds its JSON record once and ends with one _emit


_PARTITION_COLUMNS = {"d": d_of, "dual": dual}


# `partitions` and `cosets` list all p(n) partitions of n, 5,604 at n = 30.  On a 2-vCPU Xeon, Python 3.11,
# `cosets --n 30 --q 2 --j 3 --json` takes 0.45 s and 117 MB (1.4 s and 300 MB at n = 35), and
# `partitions --n 30 --show d --show dual --json` 0.12 s and 22 MB.
TABLE_MAX_N = 30

# `qcount` builds [n]_q! and divides it by [m]_q for each part m: about n^3 coefficient steps.  On a 2-vCPU Xeon,
# Python 3.11, the partition (200) takes 1.1 s, (1^200) 0.7 s and 57 MB, and (1^300) 2.7 s and 191 MB.
QCOUNT_MAX_N = 200

# `qcount --q` prints [n; lam]_q at q, which is below 2^n * q^deg, deg = (n^2 - sum of m^2 over the parts m) / 2
# ([k]_q < 2q^(k-1)); evaluating and printing it take time quadratic in its bits.  On a 2-vCPU Xeon, Python 3.11,
# past the 0.7 s its polynomial takes, (1^200) is evaluated and printed in 0.02 s at --q 2 (20,100 bits by this
# bound), 0.12 s at 2^8 (159,400) and 0.28 s at 2^13 (258,900); without the bound the whole command took 1.8 s
# at 2^32 and 4.0 s at 2^62.
QCOUNT_MAX_BITS = 2**18

# argparse quotes a value it refuses whole, and so do the refusals of a `--partition`, so `_parse` refuses a longer
# token before reading any; no token of a valid argv is this long: an int option reads at most the interpreter's
# default 4,300 digits, a partition of n <= QCOUNT_MAX_N needs fewer characters, and a Linux path has at most 4,096
ARGV_MAX_CHARS = 4300


def _bounded_n(command: str, n: int, bound: int = TABLE_MAX_N) -> int:
    """n, if `command` supports n <= bound; a one-line refusal otherwise."""
    if n > bound:
        raise ValueError(f"{command} supports n <= {bound}, got n = {n}")
    return n


# A count of `cosets`, `gl2 table` or `germ dimpoly` at depth j is at most [n]_t! * t^(d_lam * (j + 1)), t = q^d,
# with [n]_t! < 2^n * t^(n(n-1)/2) and d_lam <= n(n-1)/2; `_bounded_counts` bounds its bits so, counting at n = 1,
# where every count is 1, the bits of t^(j + 1).  That n = 1 term does two things: it bounds t^(j + 1), which
# `count_columns` builds all the same, and, as every n = 1 count has one bit, it is what bounds the number of rows
# (without it, `cosets --n 1 --q 2 --j 50000000` would pass both bounds with 1.5 * 10^8 specs to build).  Computing
# and printing a count takes time quadratic in its bits, and all of them memory linear in their total.  On a
# 2-vCPU Xeon, Python 3.11, at the bounds: `cosets --n 3 --q 2 --j 1800 --d 3 --json` (16,215 counts of up to
# 16,221 bits) takes 1.2 s and 118 MB, `cosets --n 30 --q 2 --j 4 --json` (95,268 of up to 2,640) 0.6 s and
# 177 MB, and `germ dimpoly` on all 5,604 partitions of 30 at --q 49 --d 3 (up to 15,690) 0.16 s.  Without
# them, `cosets --n 3 --q 2 --j 4000 --json` took 1.5 s and 154 MB, `gl2 table --q 3 --j 100000` 1.0 s, and
# `germ dimpoly` on 2,000 partitions of 100 at --q 49 --d 3 15 s; a count's time grows as the square of its bits.
COUNT_MAX_BITS = 2**14
TOTAL_MAX_BITS = 2**28


def _bounded_counts(command: str, n: int, j: int, q: int, d: int, counts: int) -> None:
    """A one-line refusal unless `counts` counts on the partitions of n at depth <= j, t = q^d, are within the bounds.

    At j = -1 the bound is that on [n]_t! alone.  q >= 2 and d >= 1 are
    checked before.  Integer arithmetic only: t itself is never computed.
    """
    bits = n + max(n * (n - 1) // 2, 1) * (j + 2) * d * (q - 1).bit_length()  # (q - 1).bit_length() >= log2(q)
    if bits > COUNT_MAX_BITS or counts * bits > TOTAL_MAX_BITS:
        raise ValueError(f"{command} supports counts of up to {COUNT_MAX_BITS} bits each and {TOTAL_MAX_BITS} in all, "
                         f"but this asks for {counts} counts of up to {bits} bits")


def _cmd_partitions(args) -> None:
    _bounded_n("partitions", args.n)
    header = ["partition"] + [c for c in _PARTITION_COLUMNS if c in (args.show or [])]
    columns = [enumerate_partitions(args.n)] + [_map_partitions(_PARTITION_COLUMNS[c], args.n) for c in header[1:]]
    _emit(args, _Table(header, columns, args.n), lambda: _table(zip(*columns), header))


def _cmd_qcount(args) -> None:
    lam = _parse_partition(args.partition)
    if args.q is not None:
        require_prime_power(args.q)
    n = _bounded_n("qcount", lam.n, QCOUNT_MAX_N)
    if args.q is not None:  # integer arithmetic only: the value is never computed above the bound
        bits = n + (n * n - sum(m * m for m in lam)) // 2 * (args.q - 1).bit_length()
        if bits > QCOUNT_MAX_BITS:
            raise ValueError(f"qcount supports values of up to {QCOUNT_MAX_BITS} bits, "
                             f"but this asks for one of up to {bits} bits")
    poly = q_multinomial(lam)
    rec = {"partition": lam, "poly": poly, "pretty": poly.pretty("q")}
    lines = [f"q-multinomial for {lam}: {rec['pretty']}"]
    if args.q is not None:
        rec["q"] = args.q
        rec["value"] = poly.eval_at(args.q)
        lines.append(f"value at q={args.q}: {rec['value']}")
    _emit(args, rec, lambda: "\n".join(lines))


def _cmd_cosets(args) -> None:
    require_at_least(args.j, 0, "--j")
    families = [Family(args.family)] if args.family else list(Family)
    # a partition's rows are each family at each of its depths: the same block of specs for all
    depths = [range(args.j + 1 if fam.is_pro_p else 1) for fam in families]
    require_prime_power(args.q)
    require_at_least(args.d, 1, "d")
    parts = enumerate_partitions(_bounded_n("cosets", args.n))
    deepest = max(map(len, depths)) - 1  # --j, or 0 for K0 or I0 alone
    _bounded_counts("cosets", args.n, deepest, args.q, args.d, len(parts) * sum(map(len, depths)))
    specs = [SubgroupSpec(fam, depth, args.q, args.d) for fam, js in zip(families, depths) for depth in js]
    counts = list(zip(*count_columns(parts, specs)))  # per partition, its count under each spec
    tokens, js = zip(*[(spec.family.token, spec.depth) for spec in specs])
    block = _Table(("family", "depth", "q", "d"), [tokens, js, [args.q] * len(js), [args.d] * len(js)])

    def text():
        lams = itertools.chain.from_iterable(map(itertools.repeat, parts, itertools.repeat(len(js))))
        rows = zip(lams, tokens * len(parts), js * len(parts), itertools.chain.from_iterable(counts))
        return _table(rows, ["partition", "family", "depth", "count"])

    _emit(args, _Blocks(args.n, block, "count", counts), text)


def _cmd_germ_dimpoly(args) -> None:
    cmap = _read_map(args.infile)
    fam = Family(args.family)
    require_prime_power(args.q)
    require_at_least(args.d, 1, "d")
    _bounded_counts("germ dimpoly", cmap.n, 0, args.q, args.d, len(cmap.support()))  # one count per support partition
    dp = dimension_polynomial(cmap, fam, args.q, args.d)
    rec = {
        "n": cmap.n,
        "family": fam.token,
        "q": args.q,
        "d": args.d,
        "poly": dp.poly,
        "pretty": dp.poly.pretty_ascending("X"),
        "degree": dp.degree,
        "formal_degree": dp.formal_degree,
        "formal_leading": dp.formal_leading,
    }
    _emit(args, rec, lambda: rec["pretty"])


def _map_json(cmap: CoefficientMap) -> dict:
    """cmap's JSON record, the wire form `CoefficientMap.from_json` reads, its entries as a _Table."""
    return {"n": cmap.n, "entries": _pairs(cmap.items())}


def _pairs(items) -> _Table:
    """A table of "partition" and "value" records, one per (partition, value) in items."""
    # no n: a map's support is mostly a few of the partitions of n, and a texts memo of all of them costs memory
    return _Table(("partition", "value"), list(zip(*items)) or [(), ()])


# `germ induce` folds the maps one at a time, over every pair of an entry so far and an entry of the next map: at
# most about twice the product of the support sizes when each has two entries or more.  On a 2-vCPU Xeon, Python
# 3.11, the benchmark's largest (six full maps of n = 5, 7^6 = 117,649) takes 0.01 s, two full maps of n = 20
# (627^2 = 393,129) 0.8 s and of n = 30 and 12 (431,508) 1.0 s; without the bound, three full maps of n = 20 took
# 38.2 s and two of n = 25 7.3 s.
INDUCE_MAX_COMBOS = 2**19


def _cmd_germ_induce(args) -> None:
    maps = [_read_map(p) for p in args.infile]
    combos = math.prod(len(m.support()) for m in maps)
    if combos > INDUCE_MAX_COMBOS:
        raise ValueError(f"germ induce supports up to {INDUCE_MAX_COMBOS} combinations of support entries, "
                         f"but these maps have {combos}")
    _emit(args, _map_json(induce_maps(maps)), None)


def _cmd_germ_lj(args) -> None:
    require_at_least(args.d, 1, "--d")
    cmap = _read_map(args.infile)
    if cmap.n % args.d != 0:
        raise ValueError(f"map is on partitions of {cmap.n}, not divisible by d = {args.d}")
    _emit(args, _map_json(lj_transfer(cmap, cmap.n // args.d, args.d)), None)


def _cmd_germ_jl(args) -> None:
    require_at_least(args.d, 1, "--d")
    _emit(args, _map_json(jl_transfer(_read_map(args.infile), args.d)), None)


# The closed form's cost grows with n and not with q: on a 2-vCPU Xeon,
# Python 3.11, a cold build takes about 0.05 s at n = 9, 0.1 s at
# n = 10, 0.2-0.3 s at n = 12, 0.4 s at n = 13 and 0.9-1.0 s at n = 14.
SOLVE_MAX_N = 14


def _cmd_germ_solve(args) -> None:
    data = _read_map(args.infile)  # multiplicities share the coefficient-map schema
    n = _bounded_n("germ solve", data.n, SOLVE_MAX_N)
    require_prime_power(args.q)
    # an entry of M at q is at most [n; mu]_q < 2^n * q^(d_mu), below the bound on [n]_q! (depth -1, d = 1)
    _bounded_counts("germ solve", n, -1, args.q, 1, len(enumerate_partitions(n)) ** 2)
    M = closed_form_multiplicity_matrix(n, args.q)
    mults = {lam: data.value(lam) for lam in M}  # the rows of M: every partition of n, in canonical order
    _emit(args, _map_json(solve_from_multiplicities(mults, M)), None)


def _cmd_germ_whittaker(args) -> None:
    cmap = _read_map(args.infile)
    dims = whittaker_dims(cmap)  # in canonical order
    rec = {"n": cmap.n, "dims": _pairs(dims.items())}
    _emit(args, rec, lambda: _table(dims.items(), ["partition", "dim"]))


def _oracle_items(args):
    """(label, item) for each entry of the oracle report."""
    cap = _oracle_cap()
    n, q = require_at_least(args.n, 1, "n"), args.q
    if args.check == "cosets":
        # the full flags (1^n), the largest orbit, bound every orbit: charged before any search,
        # so an n over the cap is refused before its partitions are enumerated
        oracle.flag_orbit_size(Partition([1] * n), q, cap)
        for lam in enumerate_partitions(n):
            observed = oracle.flag_orbit_count(lam, q, cap)  # raises unless it equals the order quotient
            expected = q_multinomial(lam).eval_at(q)
            yield lam, {
                "partition": lam,
                "expected": expected,
                "observed": observed,
                "order_quotient": observed,  # read by the goldens and perfbench/jobs.py::_oracle_check
                "pass": observed == expected,
            }
    elif args.check == "jordan":
        census = oracle.nilpotent_census(n, q, cap)  # charges the cap before any A_lam is built
        for lam in enumerate_partitions(n):
            observed = oracle.nilpotent_partition(oracle.build_A_lambda(lam), q)
            yield lam, {
                "partition": lam,
                "expected": lam,
                "observed": observed,
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
                    "row": lam,
                    "col": mu,
                    "expected": expected,
                    "observed": observed,
                    "pass": observed == closed[lam][mu] and (expected is None or observed == expected),
                }


def _cmd_oracle(args) -> None:
    labels, items = zip(*_oracle_items(args))
    report = {"check": args.check, "n": args.n, "q": args.q, "items": list(items)}
    report["pass"] = all(i["pass"] for i in items)

    def cell(value):  # a jordan item's partitions print as lists
        return "-" if value is None else list(value) if type(value) is Partition else value

    def text():
        rows = [[label, cell(i["expected"]), cell(i["observed"]), "pass" if i["pass"] else "FAIL"]
                for label, i in zip(labels, items)]
        return _table(rows, ["item", "expected", "observed", "status"])

    _emit(args, report, text)
    if not report["pass"]:
        raise oracle.OracleConsistencyError(f"oracle check {args.check} failed for n={args.n}, q={args.q}")


def _cmd_gl2(args) -> None:
    records, classes = [], gl2.catalog(args.q)  # refuses a bad --q before a bad --j
    require_at_least(args.j, 0, "--j")
    specs = [SubgroupSpec(fam, args.j, args.q, args.d) for fam in _PRO_P_CHAINS]
    _bounded_counts("gl2 table", 2, args.j, args.q, args.d, (len(classes) + 2) * len(specs))  # with two mod-p rows
    # a cell is a * c((2)) + b * c((1,1)) as dim_fixed sums it, None below the threshold; counts read once per table
    columns = list(zip([spec.family.token for spec in specs], count_columns(enumerate_partitions(2), specs)))
    for label, c in classes:
        a, b = gl2.ab_coefficients(c)
        dims = {token: value if (value := a * two + b * one_one) >= 0 else None for token, (two, one_one) in columns}
        records.append({"label": label, "a": a, "b": b, "j": args.j, "dims": dims})
    if args.modp:
        if args.d != 1:
            raise ValueError("mod-p supersingular rows require d = 1")
        if require_prime(args.q, "--q") == 2:
            raise ValueError(f"mod-p supersingular data requires an odd prime --q, got {args.q}")
        (_, half), (_, k), _ = columns  # at d = 1, t = q = p: the chain formulas with a' in place of a on K
        for twist in (True, False):
            label = "modp-supersingular(" + ("twist" if twist else "non-twist") + ")"
            a, b, a_prime = gl2.modp_supersingular_coefficients(twist)
            dims = {"Ihalf": a * half[0] + b * half[1], "K": a_prime * k[0] + b * k[1], "I": None}
            records.append({"label": label, "a": a, "b": b, "a_prime": a_prime, "j": args.j, "dims": dims})

    def text():
        rows = [[r["label"], r["a"], r["b"]] + ["n/a" if v is None else v for v in r["dims"].values()] for r in records]
        return _table(rows, ["class", "a", "b"] + [f"dim {fam.label(args.j)}" for fam in _PRO_P_CHAINS])

    _emit(args, {"q": args.q, "d": args.d, "rows": records}, text)


# ---------------------------------------------------------------------------
# parser: each command declared once, in _COMMANDS


_OUT = ("--out", {"metavar": "FILE", "help": "write output to FILE instead of stdout"})
_JSON = ("--json", {"action": "store_true", "help": "emit JSON instead of a table"})  # commands with a table
_IN = ("--in", {"dest": "infile", "required": True, "metavar": "FILE"})
_FAMILIES = [f.token for f in Family]

# command path: (function, help, [(option string, add_argument keywords), ...]), in the tree's order
_COMMANDS = {
    ("partitions",): (_cmd_partitions, "enumerate partitions of n", [
        ("--n", {"type": int, "required": True}),
        ("--show", {"action": "append", "choices": ["d", "dual"], "help": "extra columns"}), _OUT, _JSON]),
    ("qcount",): (_cmd_qcount, "q-multinomial coset count for a partition", [
        ("--partition", {"required": True, "metavar": "PARTS", "help": "e.g. 3,1"}),
        ("--q", {"type": int, "help": "evaluate at this prime power"}), _OUT, _JSON]),
    ("cosets",): (_cmd_cosets, "coset counts per partition, family and depth", [
        ("--n", {"type": int, "required": True}), ("--q", {"type": int, "required": True}),
        ("--d", {"type": int, "default": 1}),
        ("--j", {"type": int, "default": 0, "help": "maximal depth for the pro-p families"}),
        ("--family", {"choices": _FAMILIES}), _OUT, _JSON]),
    ("germ", "dimpoly"): (_cmd_germ_dimpoly, "dimension-growth polynomial of a map", [
        _IN, ("--family", {"required": True, "choices": _FAMILIES}), ("--q", {"type": int, "required": True}),
        ("--d", {"type": int, "default": 1}), _OUT, _JSON]),
    ("germ", "induce"): (_cmd_germ_induce, "coefficient map of a parabolic induction", [
        ("--in", {"dest": "infile", "action": "append", "required": True, "metavar": "FILE"}), _OUT]),
    ("germ", "lj"): (_cmd_germ_lj, "transfer a map on partitions of d*n down to n", [
        _IN, ("--d", {"type": int, "required": True}), _OUT]),
    ("germ", "jl"): (_cmd_germ_jl, "transfer a map on partitions of n up to d*n", [
        _IN, ("--d", {"type": int, "required": True}), _OUT]),
    ("germ", "solve"): (_cmd_germ_solve, "recover a map from depth-one multiplicities", [
        _IN, ("--q", {"type": int, "required": True, "help": "prime power at which to read the closed form"}), _OUT]),
    ("germ", "whittaker"): (_cmd_germ_whittaker, "Whittaker dimensions at minimal support", [_IN, _OUT, _JSON]),
    ("oracle",): (_cmd_oracle, "brute-force checks over a prime field", [
        ("--n", {"type": int, "required": True}), ("--q", {"type": int, "required": True}),
        ("--check", {"required": True, "choices": ["cosets", "jordan", "ximatrix"]}), _OUT, _JSON]),
    ("gl2", "table"): (_cmd_gl2, "(a, b) pairs and chain dimensions", [
        ("--q", {"type": int, "required": True}), ("--d", {"type": int, "default": 1}),
        ("--j", {"type": int, "default": 0}),
        ("--modp", {"action": "store_true", "help": "append mod-p supersingular rows (q odd prime, d=1)"}),
        _OUT, _JSON]),
}
_GROUPS = {"germ": "coefficient-map operations", "gl2": "the n=2 catalog"}


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only help and refusals reach the tree, so a plain argv never loads argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = _Parser(prog="germkit", description="exact combinatorics of germ expansions")
    groups = {(): parser.add_subparsers(required=True)}
    for path, (func, summary, options) in _COMMANDS.items():
        if path[:-1] not in groups:  # a group is added where its first command is declared
            group = groups[()].add_parser(path[0], help=_GROUPS[path[0]])
            groups[path[:-1]] = group.add_subparsers(required=True)
        p = groups[path[:-1]].add_parser(path[-1], help=summary)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> "argparse.ArgumentParser":
    """The whole tree, built once per process when help or a refusal reaches it; parse_args leaves no state in it."""
    return build_parser()


def _option_table(func, options):
    """({option string: (dest, action, type, choices)}, defaults as parse_args sets them, required option strings)."""
    table, defaults, required = {}, {}, set()
    for option, keywords in options:
        dest, action = keywords.get("dest", option[2:]), keywords.get("action")
        table[option] = dest, action, keywords.get("type"), keywords.get("choices")
        defaults[dest] = keywords.get("default", False if action == "store_true" else None)
        if keywords.get("required"):
            required.add(option)
    defaults["func"] = func
    return table, defaults, required


_PLAIN = {path: _option_table(func, options) for path, (func, _, options) in _COMMANDS.items()}


def _plain_parse(path: tuple, argv: list):
    """What the tree sets for [*path, *argv] if argv is only exact option strings and their values, else None.

    A value is the next token: a str not starting with "-", of the option's
    type and among its choices.  It raises nothing: errors are the tree's.
    """
    table, defaults, required = _PLAIN[path]
    namespace, seen, tokens = dict(defaults), set(), iter(argv)
    for token in tokens:
        option = table.get(token) if type(token) is str else None
        if option is None:
            return None
        dest, action, convert, choices = option
        value = True  # a store_true option
        if action != "store_true":
            value = next(tokens, None)
            if type(value) is not str or value.startswith("-"):
                return None
            try:
                value = value if convert is None else convert(value)
            except (ValueError, TypeError):
                return None
            if choices is not None and value not in choices:
                return None
            if action == "append":
                value = [*(namespace[dest] or ()), value]
        namespace[dest] = value
        seen.add(token)
    return types.SimpleNamespace(**namespace) if seen >= required else None


def _parse(argv: list):
    """argv read by `_plain_parse` if its first one or two tokens name a command and it can, else by the tree.

    Only help and refusals reach the tree, so their text is argparse's.  A token of more than ARGV_MAX_CHARS
    characters is refused first, in one line that names its option and its length.
    """
    for before, token in zip([None, *argv], argv):
        if type(token) is str and len(token) > ARGV_MAX_CHARS:
            what = f"argument {before}: a value" if type(before) is str and before.startswith("-") else "a token"
            raise ValueError(f"{what} of {len(token)} characters is over the {ARGV_MAX_CHARS} allowed")
    path = tuple(argv[:1])
    if path not in _PLAIN:  # a group and its command
        path = tuple(argv[:2])
    namespace = _plain_parse(path, argv[len(path):]) if path in _PLAIN else None
    return namespace or _parser().parse_args(argv)


def main(argv=None) -> int:
    # exact values are printed in full, past the interpreter's 4,300-digit default; argv and map files are read
    # within it, so a longer int is refused before its conversion takes time quadratic in its digits
    global _read_digits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if limit is not None:
            _read_digits = limit
            sys.set_int_max_str_digits(0)
        args.func(args)
        return 0
    except BrokenPipeError:  # the reader closed stdout
        return 1
    except (ArithmeticError, PositivityError) as exc:  # OracleConsistencyError is an ArithmeticError
        print(f"germkit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every refusal, OracleBoundError among them
        print(f"germkit: error: {exc}", file=sys.stderr)
        return 1
    finally:
        _read_digits = None
        _set_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
