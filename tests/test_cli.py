import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from germkit import cli, cosets, gl2, oracle
from germkit.cli import main
from germkit.cosets import PRIME_CHECK_BOUND, Family, SubgroupSpec, count_at_depth
from germkit.germ import CoefficientMap, closed_form_multiplicity_matrix, dim_fixed, forward_multiplicities
from germkit.partitions import Partition, d_of, dual, enumerate_partitions
from germkit.qpoly import QPoly, q_multinomial

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
STEINBERG = str(DATA / "steinberg2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def golden(name):
    return (GOLDEN / name).read_text()


# Every file in tests/golden, by name, with the command whose stdout it holds.
GOLDENS = {
    "partitions_n5_dual_d.txt": ["partitions", "--n", "5", "--show", "dual", "--show", "d"],
    "cosets_n3_q2_j1.txt": ["cosets", "--n", "3", "--q", "2", "--j", "1"],
    "whittaker_steinberg2.txt": ["germ", "whittaker", "--in", STEINBERG],
    "oracle_jordan_n3_q3.txt": ["oracle", "--n", "3", "--q", "3", "--check", "jordan"],
    "oracle_cosets_n3_q2.txt": ["oracle", "--n", "3", "--q", "2", "--check", "cosets"],
    "oracle_ximatrix_n3_q2.txt": ["oracle", "--n", "3", "--q", "2", "--check", "ximatrix"],
    "partitions_n6_d.txt": ["partitions", "--n", "6", "--show", "d"],
    "partitions_n5_dual_d.json": ["partitions", "--n", "5", "--show", "dual", "--show", "d", "--json"],
    "qcount_21_q2.txt": ["qcount", "--partition", "2,1", "--q", "2"],
    "qcount_21_q2.json": ["qcount", "--partition", "2,1", "--q", "2", "--json"],
    "cosets_n2_q3_j1.json": ["cosets", "--n", "2", "--q", "3", "--j", "1", "--json"],
    "dimpoly_steinberg.txt": ["germ", "dimpoly", "--in", STEINBERG, "--family", "K", "--q", "3", "--d", "1"],
    "dimpoly_steinberg.json": [
        "germ", "dimpoly", "--in", STEINBERG, "--family", "K", "--q", "3", "--d", "1", "--json"
    ],
    "whittaker_steinberg2.json": ["germ", "whittaker", "--in", STEINBERG, "--json"],
    "induce_steinberg2_x2.json": ["germ", "induce", "--in", STEINBERG, "--in", STEINBERG],
    "jl_steinberg2_d2.json": ["germ", "jl", "--in", STEINBERG, "--d", "2"],
    "lj_steinberg2_d2.json": ["germ", "lj", "--in", STEINBERG, "--d", "2"],
    "solve_steinberg2_q2.json": ["germ", "solve", "--in", STEINBERG, "--q", "2"],
    "oracle_jordan_n3_q3.json": ["oracle", "--n", "3", "--q", "3", "--check", "jordan", "--json"],
    "oracle_cosets_n3_q2.json": ["oracle", "--n", "3", "--q", "2", "--check", "cosets", "--json"],
    "ximatrix_n2_q2.json": ["oracle", "--n", "2", "--q", "2", "--check", "ximatrix", "--json"],
    "ximatrix_n3_q2.json": ["oracle", "--n", "3", "--q", "2", "--check", "ximatrix", "--json"],
    "ximatrix_n4_q2.json": ["oracle", "--n", "4", "--q", "2", "--check", "ximatrix", "--json"],
    "gl2_table_q3_d1_modp.txt": ["gl2", "table", "--q", "3", "--d", "1", "--modp"],
    "gl2_table_q3_d1_modp.json": ["gl2", "table", "--q", "3", "--d", "1", "--modp", "--json"],
    "solve_steinberg2_q4.json": ["germ", "solve", "--in", STEINBERG, "--q", "4"],
}
GOLDEN_CASES = [(argv, name) for name, argv in GOLDENS.items()]


def leaf_commands(parser, path=()):
    """(command path, parser) for each subcommand that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_commands(sub, path + (name,))


class TestGoldenOutputs:
    def test_partitions_n6_with_d(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "6", "--show", "d")
        assert code == 0
        assert out == golden("partitions_n6_d.txt")
        assert len(out.strip().splitlines()) == 12  # header + 11 rows
        assert out.count("9") == 2  # the two partitions sharing d = 9

    def test_dimpoly_steinberg(self, capsys):
        code, out, _ = run(
            capsys, "germ", "dimpoly", "--in", STEINBERG, "--family", "K", "--q", "3", "--d", "1"
        )
        assert code == 0
        assert out == "-1 + 4X\n"
        assert out == golden("dimpoly_steinberg.txt")

    def test_gl2_table(self, capsys):
        code, out, _ = run(capsys, "gl2", "table", "--q", "3", "--d", "1", "--modp")
        assert code == 0
        assert out == golden("gl2_table_q3_d1_modp.txt")

    def test_gl2_json_lists_chains_in_table_order(self, capsys):
        code, out, _ = run(capsys, "gl2", "table", "--q", "3", "--j", "1", "--modp", "--json")
        assert code == 0
        assert all(list(row["dims"]) == ["Ihalf", "K", "I"] for row in json.loads(out)["rows"])

    def test_ximatrix_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "2", "--check", "ximatrix", "--json")
        assert code == 0
        assert out == golden("ximatrix_n2_q2.json")
        report = json.loads(out)
        assert report["pass"] is True

    def test_ximatrix_n3_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "3", "--q", "2", "--check", "ximatrix", "--json")
        assert code == 0
        assert out == golden("ximatrix_n3_q2.json")
        report = json.loads(out)
        assert report["pass"] is True
        assert len(report["items"]) == 9

    def test_ximatrix_n4_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "4", "--q", "2", "--check", "ximatrix", "--json")
        assert code == 0
        assert out == golden("ximatrix_n4_q2.json")
        assert len(json.loads(out)["items"]) == 25

    def test_qcount(self, capsys):
        code, out, _ = run(capsys, "qcount", "--partition", "2,1", "--q", "2")
        assert code == 0
        assert out == golden("qcount_21_q2.txt")
        assert "q^2+q+1" in out and "7" in out

    def test_cosets_json(self, capsys):
        code, out, _ = run(capsys, "cosets", "--n", "2", "--q", "3", "--j", "1", "--json")
        assert code == 0
        assert out == golden("cosets_n2_q3_j1.json")
        records = json.loads(out)
        assert {tuple(sorted(r)) for r in records} == {
            ("count", "d", "depth", "family", "partition", "q")
        }


    @pytest.mark.parametrize("argv, name", GOLDEN_CASES)
    def test_tables(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == golden(name)

    @pytest.mark.parametrize("argv, name", GOLDEN_CASES)
    def test_out_file_holds_what_stdout_prints(self, capsys, tmp_path, argv, name):
        target = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == golden(name)

    def test_every_output_form_has_a_golden(self):
        leaves = dict(leaf_commands(cli.build_parser()))
        forms = {
            path: ("text", "json") if "--json" in p._option_string_actions else ("json",)
            for path, p in leaves.items()
        }
        covered = set()
        for argv in GOLDENS.values():
            path = next(path for path in leaves if tuple(argv[: len(path)]) == path)
            covered.add((path, "json" if "--json" in argv or forms[path] == ("json",) else "text"))
        assert {(path, form) for path, fs in forms.items() for form in fs} - covered == set()
        assert sorted(GOLDENS) == sorted(p.name for p in GOLDEN.iterdir())


class TestCosetsCommand:
    @pytest.mark.parametrize("q", [2, 4, 9])
    def test_rows_equal_count_at_depth_up_to_7(self, capsys, q):
        # every depth bound with all families, and each family alone at the deepest
        cases = [(j, list(Family)) for j in range(4)] + [(3, [fam]) for fam in Family]
        for n in range(1, 8):
            for j, fams in cases:
                only = ["--family", fams[0].token] if len(fams) == 1 else []
                code, out, _ = run(capsys, "cosets", "--n", str(n), "--q", str(q), "--j", str(j), *only, "--json")
                assert code == 0
                expected = [
                    (list(lam), fam.token, depth, count_at_depth(lam, SubgroupSpec(fam, depth, q, 1)))
                    for lam in enumerate_partitions(n)
                    for fam in fams
                    for depth in (range(j + 1) if fam.is_pro_p else [0])
                ]
                assert [(r["partition"], r["family"], r["depth"], r["count"]) for r in json.loads(out)] == expected

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_rows_equal_count_at_depth_at_every_d(self, capsys, q):
        # each row is the per-row count, which raises t^(d_lam) to the depth in one power
        for n in range(1, 9):
            for d in range(1, 4):
                for j in range(5):
                    code, out, _ = run(capsys, "cosets", "--n", str(n), "--q", str(q), "--d", str(d), "--j", str(j),
                                       "--json")
                    assert code == 0
                    expected = [
                        (list(lam), fam.token, depth, count_at_depth(lam, SubgroupSpec(fam, depth, q, d)))
                        for lam in enumerate_partitions(n)
                        for fam in Family
                        for depth in (range(j + 1) if fam.is_pro_p else [0])
                    ]
                    assert [(r["partition"], r["family"], r["depth"], r["count"]) for r in json.loads(out)] == expected

    @pytest.mark.parametrize("argv", [["cosets", "--n", "6", "--q", "2", "--j", "3", "--json"],
                                      ["partitions", "--n", "6", "--show", "dual", "--json"]])
    def test_each_partition_is_rendered_once(self, capsys, monkeypatch, argv):
        # at most once per process: 14 cosets rows share a partition's text, the dual column reuses the
        # partition column's, and a second identical command reads every text from cli._partition_json
        rendered, partition_texts = [], cli._partition_texts

        def spy(parts, nl):
            rendered.extend(parts)
            return partition_texts(parts, nl)

        monkeypatch.setattr(cli, "_partition_texts", spy)
        cli._partition_json.cache_clear()
        assert run(capsys, *argv)[0] == 0
        assert sorted(rendered) == sorted(enumerate_partitions(6))
        rendered.clear()
        assert run(capsys, *argv)[0] == 0
        assert rendered == []

    def test_no_base_count_and_one_factorial_table_per_kind(self, capsys, monkeypatch):
        # the counts are integers at t and no polynomial, from one table of [k]_t! (K) and one of k!, which
        # I0, Ihalf and I share; K0 needs none
        base_counts, tables = [], []
        original = cosets._factorials
        monkeypatch.setattr(cosets, "base_count", lambda lam, fam: base_counts.append((lam, fam)))
        monkeypatch.setattr(cosets, "_factorials", lambda n, t: tables.append((n, t)) or original(n, t))
        code, _, _ = run(capsys, "cosets", "--n", "6", "--q", "2", "--j", "3")
        assert code == 0
        assert base_counts == []
        assert sorted(tables, key=str) == [(6, 1), (6, 2)]


class TestGl2Command:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    def test_cells_equal_the_germ_machinery(self, capsys, q):
        # each pro-p cell is dim_fixed of the class's map at that chain member, null exactly where it is negative,
        # and each mod-p cell (q an odd prime, d = 1) is modp_supersingular_dims
        classes = gl2.catalog(q)
        for d in (1, 2):
            modp = d == 1 and q in (3, 5, 7)
            for j in range(4):
                code, out, err = run(capsys, "gl2", "table", "--q", str(q), "--d", str(d), "--j", str(j), "--json",
                                     *(["--modp"] if modp else []))
                assert (code, err) == (0, "")
                rows = json.loads(out)["rows"]
                assert [r["label"] for r in rows[:len(classes)]] == [label for label, _ in classes]
                assert len(rows) == len(classes) + (2 if modp else 0)
                for row, (_, cmap) in zip(rows, classes):
                    for fam in cosets._PRO_P_CHAINS:
                        value = dim_fixed(cmap, SubgroupSpec(fam, j, q, d))
                        assert row["dims"][fam.token] == (value if value >= 0 else None), (q, d, j, row["label"])
                for row, twist in zip(rows[len(classes):], (True, False)):
                    assert row["dims"] == {"Ihalf": gl2.modp_supersingular_dims(twist, Family.PRO_P_IWAHORI_HALF, j, q),
                                           "K": gl2.modp_supersingular_dims(twist, Family.VERTEX_CONGRUENCE, j, q),
                                           "I": None}


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        for argv in (
            ["partitions", "--n", "5", "--show", "d", "--show", "dual", "--json"],
            ["cosets", "--n", "3", "--q", "2", "--j", "2", "--json"],
            ["gl2", "table", "--q", "2", "--d", "2", "--j", "1", "--json"],
            ["oracle", "--n", "2", "--q", "3", "--check", "cosets", "--json"],
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second


_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀\u2028') | st.characters(), max_size=8)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**20, max_value=10**40)
    | st.integers(min_value=-(10**40), max_value=-(10**20))
    | _TEXT
)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(st.integers(-3, 3) | st.just(True), max_size=5)
    | st.dictionaries(_TEXT, kids, max_size=5),
    max_leaves=30,
)


# Tables: lists of records with the same keys in the same order, one kind of cell per column
# (most columns are of one type, as in a command's records) or any value.
_KEYS = st.lists(_TEXT | st.sampled_from(["%", "%s", "a%%b", "%(x)d", "é", "😀 %"]), min_size=1, max_size=4, unique=True)
_CELL_KINDS = [
    st.integers(),
    st.integers(min_value=10**20, max_value=10**40) | st.integers(min_value=-(10**40), max_value=-(10**20)),
    st.booleans(),
    st.none(),
    _TEXT,
    st.just([]),
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3) | st.just(True), max_size=3),
    st.dictionaries(_TEXT, st.integers() | st.lists(st.integers(), max_size=2), max_size=3),
    st.integers() | st.none(),
    st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=2) | st.dictionaries(_TEXT, kids, max_size=2), max_leaves=4),
]


@st.composite
def _tables(draw):
    keys = draw(_KEYS)
    columns = [draw(st.sampled_from(_CELL_KINDS)) for _ in keys]
    size = draw(st.integers(0, 12))
    return [{k: draw(cell) for k, cell in zip(keys, columns)} for _ in range(size)]


_TABLES = _tables() | _tables().map(lambda t: {"n": len(t), "entries": t}) | st.lists(_tables(), max_size=3)


# Partitions and QPolys, which the writer prints as the arrays of their parts and coefficients, as json.dumps prints
# any tuple; the zero QPoly() is the empty array.
_PARTITIONS = st.integers(1, 8).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))
_QPOLYS = st.lists(st.integers(-3, 3) | st.integers(10**20, 10**40), max_size=5).map(QPoly)
_INT_LISTS = st.lists(st.integers(-3, 10), min_size=1, max_size=4)


@st.composite
def _partition_tables(draw):
    """A table with an all-Partition column, a column of partitions and int lists and one of QPolys, among other kinds."""
    kinds = [_PARTITIONS, _PARTITIONS | _INT_LISTS, _QPOLYS] + draw(st.lists(st.sampled_from(_CELL_KINDS), max_size=2))
    keys = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    size = draw(st.integers(0, 12))
    return [{k: draw(cell) for k, cell in zip(keys, kinds)} for _ in range(size)]


_JSON_VALUES_WITH_PARTITIONS = (
    st.recursive(
        _LEAVES | _PARTITIONS | _QPOLYS,
        lambda kids: st.lists(kids, max_size=5) | st.lists(_PARTITIONS | _QPOLYS | _INT_LISTS, max_size=5)
        | st.dictionaries(_TEXT, kids, max_size=5),
        max_leaves=30,
    )
    | _partition_tables()
    | _partition_tables().map(lambda t: {"n": len(t), "entries": t})
)


# Partitions with parts of two or more digits, and with one part far above the number of parts.
_WIDE_PARTITIONS = st.lists(st.integers(1, 40), min_size=1, max_size=5).map(lambda ps: Partition(sorted(ps)[::-1]))
_HUGE_PARTITIONS = st.integers(10, 10**6).map(lambda p: Partition([p]))


@st.composite
def _column_tables(draw):
    """(keys, columns): a table held as one list of cells per key, one kind of cell per column."""
    keys = draw(_KEYS)
    size = draw(st.integers(0, 12))
    kinds = _CELL_KINDS + [_PARTITIONS, _WIDE_PARTITIONS, _HUGE_PARTITIONS | _PARTITIONS, _QPOLYS]
    return keys, [draw(st.lists(draw(st.sampled_from(kinds)), min_size=size, max_size=size)) for _ in keys]


class _Parts(tuple):
    pass


class _SubPartition(Partition):
    __slots__ = ()


class _SubQPoly(QPoly):
    __slots__ = ()


def with_int_digits_unlimited(fn):
    """fn() with the interpreter's limit on int-string conversion lifted, the limit restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6 have no limit
        return fn()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


def assert_round_trips(capsys, argv):
    """The command exits 0 and prints what json.dumps(..., indent=2) prints for the record it parses to."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == with_int_digits_unlimited(lambda: json.dumps(json.loads(out), indent=2) + "\n")


ONES_200 = ",".join(["1"] * 200)  # q_multinomial((1^200)) at q = 2 has about 6,000 digits
# 8,025 bits with no prime factor below 43, so the prime-power test would search a root for every exponent
WIDE_Q = str(47 * 53**1400)


class TestJsonWriter:
    @settings(max_examples=200)
    @given(_JSON_VALUES)
    @example([1, True])
    @example({"a": [True, 1, False, 0], "": {}, "b": [[], {}, None]})
    def test_writes_what_json_dumps_writes(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: 2}, [{"a": [1, 2.0]}], {"a": {"b": (1,)}}, {"a": b"x"}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    @settings(max_examples=100)
    @given(_TABLES)
    @example([{"a%": 1, "é": [1, 2]}] * 6)
    @example([{"a": True, "b": None, "c": [], "d": {}}] * 6)
    @example([{"a": 1, "b": 2}] * 3 + [{"b": 2, "a": 1}] + [{"a": 1, "b": 2}] * 3)  # same keys, another order
    @example([{"a": 1}] * 3 + [{"a": 1, "b": 2}] + [{"a": 1}] * 3)
    @example([{"p": [2, 1], "s": "x", "i": 1}] * 5 + [{"p": [], "s": None, "i": True}])  # one odd cell per column
    def test_writes_tables_as_json_dumps_writes(self, value):
        assert with_int_digits_unlimited(lambda: cli._json_text(value)) == json.dumps(value, indent=2)

    _BAD_TABLES = [[{"a": 1}, {"a": 1.5}], [{"a": (1,)}, {"a": (2,)}], [{1: 2}, {1: 3}], [{"a": b"x"}, {"a": b"y"}]]

    @pytest.mark.parametrize("value", _BAD_TABLES + [table * 3 for table in _BAD_TABLES]
                             + [[{"a": [1]}] * 5 + [{"a": [1, 2.0]}], [{"a": 1}] * 5 + [{"a": {"b": 1.5}}]])
    def test_other_types_raise_inside_a_table(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    @settings(max_examples=200)
    @given(_JSON_VALUES_WITH_PARTITIONS)
    @example([{"p": Partition([2, 1]), "m": Partition([3])}] * 5 + [{"p": Partition([1, 1, 1]), "m": [3, 0]}])
    @example({"a": Partition([1]), "b": [Partition([4, 4, 2]), [1, 2], Partition([5])]})
    @example({"poly": QPoly(), "p": [QPoly([0, 1]), QPoly(), QPoly([-1, 0, 2])]})
    def test_writes_partitions_as_json_dumps_writes(self, value):
        assert with_int_digits_unlimited(lambda: cli._json_text(value)) == json.dumps(value, indent=2)

    @settings(max_examples=150)
    @given(_column_tables())
    @example((["a", "b"], [[], []]))  # no rows
    @example((["p", "n"], [[Partition([12, 10, 1])] * 3, [1, 2, 3]]))  # parts >= 10
    @example((["p"], [[Partition([10**6])] * 7]))  # one part far above the number of parts rendered
    @example((["p", "d"], [enumerate_partitions(6), [Partition([2, 1])] * 11]))
    def test_writes_column_tables_as_json_dumps_writes(self, table):
        keys, columns = table
        records = [dict(zip(keys, row)) for row in zip(*columns)]
        for value, expected in ((cli._Table(keys, columns), records), ({"n": 1, "t": cli._Table(keys, columns)},
                                                                       {"n": 1, "t": records})):
            assert with_int_digits_unlimited(lambda: cli._json_text(value)) == json.dumps(expected, indent=2)

    @pytest.mark.parametrize("columns", [[[1, 1.5]], [[Partition([1]), (1,)]], [[b"x"] * 7],
                                         [[1] * 7, [1] * 6 + [{"a": 1.5}]], [[[2, 1]] * 6 + [[1, 2.0]]]])
    def test_other_types_raise_inside_a_column_table(self, columns):
        with pytest.raises(TypeError):
            cli._json_text(cli._Table(["a", "b"][: len(columns)], columns))

    def test_a_huge_part_is_not_tabulated(self):
        # each part is written as its own digits, with no table of part strings up to the largest
        parts = [Partition([10**6]), Partition([2, 1])]
        assert cli._json_text(cli._Table(["p"], [parts])) == json.dumps([{"p": [10**6]}, {"p": [2, 1]}], indent=2)

    _OTHER_TUPLES = [(2, 1), _Parts((2, 1)), _SubPartition([2, 1]), _SubQPoly([2, 1]), _SubQPoly()]

    @pytest.mark.parametrize("other", _OTHER_TUPLES)
    @pytest.mark.parametrize("place", [lambda x: x, lambda x: {"a": [Partition([2, 1]), x]},
                                       lambda x: [{"p": Partition([2, 1])}] * 5 + [{"p": x}],
                                       lambda x: [{"p": x}] * 6])
    def test_tuples_other_than_partitions_raise(self, other, place):
        with pytest.raises(TypeError):
            cli._json_text(place(other))

    @pytest.mark.parametrize(
        "argv",
        [
            ["partitions", "--n", "20", "--show", "d", "--show", "dual", "--json"],
            ["cosets", "--n", "10", "--q", "7", "--j", "3", "--json"],
            ["gl2", "table", "--q", "13", "--j", "3", "--modp", "--json"],
            ["oracle", "--n", "4", "--q", "2", "--check", "ximatrix", "--json"],
            ["qcount", "--partition", ONES_200, "--q", "2", "--json"],
            ["germ", "induce"] + ["--in", STEINBERG] * 8,
            ["germ", "whittaker", "--in", "{antichain}", "--json"],
            ["germ", "lj", "--in", "{full12}", "--d", "2"],
            ["germ", "jl", "--in", "{full12}", "--d", "2"],
            ["germ", "solve", "--in", "{full12}", "--q", "2"],
            ["germ", "lj", "--in", "{odd}", "--d", "2"],  # no entry on the d-image: "entries": []
            ["germ", "whittaker", "--in", "{zero}", "--json"],  # "dims": []
        ],
    )
    def test_large_records_round_trip(self, capsys, tmp_path, argv):
        # the 15 partitions of 20 with d = 165 are an antichain, so each is minimal in the support
        antichain = [(lam, 10**30 + i) for i, lam in enumerate(lam for lam in enumerate_partitions(20)
                                                                if d_of(lam) == 165)]
        full12 = [(lam, (-1) ** i * (i + 1)) for i, lam in enumerate(enumerate_partitions(12))]
        maps = {"{antichain}": (20, antichain), "{full12}": (12, full12), "{odd}": (4, [(Partition([3, 1]), 1)]),
                "{zero}": (3, [])}
        for name, (n, items) in maps.items():
            entries = [{"partition": list(lam), "value": v} for lam, v in items]
            (tmp_path / name).write_text(json.dumps({"n": n, "entries": entries}))
        assert_round_trips(capsys, [str(tmp_path / a) if a in maps else a for a in argv])

    @pytest.mark.parametrize("family", [fam.token for fam in Family])
    def test_dimpoly_records_round_trip_at_n14(self, capsys, tmp_path, family):
        path = tmp_path / "full14.json"
        parts = enumerate_partitions(14)
        entries = [{"partition": list(lam), "value": (-1) ** i * (i + 1)} for i, lam in enumerate(parts)]
        path.write_text(json.dumps({"n": 14, "entries": entries}))  # every partition of 14 in the support
        assert_round_trips(capsys, ["germ", "dimpoly", "--in", str(path), "--family", family, "--q", "3", "--json"])

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit to lift")
    def test_prints_integers_of_any_size(self, capsys):
        expected = q_multinomial(Partition([1] * 200)).eval_at(2)
        assert expected > 10**4300  # more digits than the interpreter converts to a string by default
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, out, err = run(capsys, "qcount", "--partition", ONES_200, "--q", "2", "--json")
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == 5000  # main restores its caller's limit
            assert with_int_digits_unlimited(lambda: json.loads(out))["value"] == expected
            code, out, err = run(capsys, "qcount", "--partition", ONES_200, "--q", "2")
            assert (code, err) == (0, "")
            assert out.endswith(f"\nvalue at q=2: {with_int_digits_unlimited(lambda: str(expected))}\n")
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)


_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 81, 125]


def captured(argv):
    """(exit code, stdout, stderr) of main(argv), for a property test, which cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestTablesAsJsonDumps:
    """The `cosets` blocks and the `partitions` columns print what json.dumps prints for their records, cold or warm."""

    @settings(max_examples=60)
    @given(st.integers(1, 12), st.sampled_from([None] + [f.token for f in Family]), st.sampled_from(_PRIME_POWERS),
           st.integers(1, 3), st.integers(0, 4))
    def test_cosets(self, n, family, q, d, j):
        fams = [Family(family)] if family else list(Family)
        records = [{"partition": list(lam), "family": fam.token, "depth": depth, "q": q, "d": d,
                    "count": count_at_depth(lam, SubgroupSpec(fam, depth, q, d))}
                   for lam in enumerate_partitions(n) for fam in fams
                   for depth in (range(j + 1) if fam.is_pro_p else [0])]
        argv = ["cosets", "--n", str(n), "--q", str(q), "--d", str(d), "--j", str(j), "--json"]
        argv += ["--family", family] if family else []
        expected = with_int_digits_unlimited(lambda: json.dumps(records, indent=2) + "\n")
        for _ in range(2):
            assert captured(argv) == (0, expected, "")

    @settings(max_examples=60)
    @given(st.integers(1, 20), st.lists(st.sampled_from(["d", "dual"]), max_size=3))
    def test_partitions(self, n, show):
        # from n = 10 on, parts have two digits; the columns are d then dual whatever the order of --show
        records = [{"partition": list(lam), **({"d": d_of(lam)} if "d" in show else {}),
                    **({"dual": list(dual(lam))} if "dual" in show else {})} for lam in enumerate_partitions(n)]
        argv = ["partitions", "--n", str(n), "--json", *[a for c in show for a in ("--show", c)]]
        for _ in range(2):
            assert captured(argv) == (0, json.dumps(records, indent=2) + "\n", "")

    @settings(max_examples=100)
    @given(st.integers(1, 6), _KEYS.filter(lambda ks: not {"partition", "%s"} & set(ks)), st.data())
    def test_blocks_with_any_str_or_key(self, n, keys, data):
        # the template doubles each % of the text around its open cells, so a key or str holding one prints as it is
        rows = data.draw(st.integers(1, 3))
        columns = [data.draw(st.lists(st.integers() | _TEXT, min_size=rows, max_size=rows)) for _ in keys]
        values = data.draw(st.lists(st.tuples(*[st.integers()] * rows), min_size=len(enumerate_partitions(n)),
                                    max_size=len(enumerate_partitions(n))))
        records = [{"partition": list(lam), **dict(zip(keys, row)), "%s": v}
                   for lam, vs in zip(enumerate_partitions(n), values) for row, v in zip(zip(*columns), vs)]
        blocks = cli._Blocks(n, cli._Table(keys, columns), "%s", values)
        assert cli._json_text(blocks) == json.dumps(records, indent=2)

    @settings(max_examples=200)
    @given(st.lists(_PARTITIONS | _WIDE_PARTITIONS | _HUGE_PARTITIONS, max_size=8))
    @example([Partition([10**6]), Partition([2, 1])])  # one part far above the number of parts
    @example([Partition([12, 10, 1]), Partition([3])])
    def test_partition_texts_at_a_table_cell(self, parts):
        texts = cli._partition_texts(parts, "\n    ")
        assert len(texts) == len(parts)
        # a cell of a record of a top-level array: "[\n  {\n    \"p\": " is 15 characters and "\n  }\n]" 6
        expected = [json.dumps([{"p": list(lam)}], indent=2)[15:-6] for lam in parts]
        assert texts == expected


class TestParserReuse:
    """main builds its parser once per process; no call may see another call's flags."""

    def test_main_reuses_one_parser(self, capsys):
        # --n=v is not a plain argv, so each call falls back to the tree: main builds it once and reuses it
        cli._parser.cache_clear()
        assert run(capsys, "partitions", "--n=2")[0] == 0
        first = cli._parser()
        assert run(capsys, "partitions", "--n=3")[0] == 0
        assert cli._parser() is first and cli._parser.cache_info().misses == 1

    def test_append_flag_does_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "partitions", "--n", "3", "--show", "d", "--json")
        assert code == 0 and all("d" in row for row in json.loads(out))
        code, out, _ = run(capsys, "partitions", "--n", "3", "--json")
        assert code == 0 and all(set(row) == {"partition"} for row in json.loads(out))

    def test_usage_error_between_good_calls_changes_neither(self, capsys):
        argv = ["cosets", "--n", "3", "--q", "2", "--j", "1"]
        code, before, _ = run(capsys, *argv)
        assert code == 0
        for bad in (["cosets", "--n", "3", "--q", "2", "--j", "1", "--bogus"], ["cosets", "--q", "2"]):
            code, out, err = run(capsys, *bad)
            assert code == 1 and out == "" and err.startswith("germkit: error:")
            code, after, _ = run(capsys, *argv)
            assert code == 0 and after == before == golden("cosets_n3_q2_j1.txt")

    def test_out_does_not_leak_into_the_next_call(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "partitions", "--n", "6", "--show", "d", "--out", str(target))
        assert code == 0 and out == "" and target.read_text() == golden("partitions_n6_d.txt")
        code, out, _ = run(capsys, "qcount", "--partition", "2,1", "--q", "2")
        assert code == 0 and out == golden("qcount_21_q2.txt")
        assert target.read_text() == golden("partitions_n6_d.txt")


# argv that name no command, so main parses them with the whole tree
_TREE_ARGVS = [
    [], ["--help"], ["-h"], ["--version"], ["bogus"], ["germ"], ["gl2"], ["germ", "bogus"], ["germ", "--help"],
    ["gl2", "-h"], ["-n", "4"], ["--", "partitions", "--n", "4"],
]
# put after every command: help, missing, unknown, invalid and repeated flags, abbreviations, --x=v and --
_COMMAND_TAILS = [
    [], ["--help"], ["-h"], ["--he"], ["--version"], ["--bogus", "1"], ["--"], ["-n", "4"], ["--n=4"], ["--n", "x"],
    ["--j", "-1"], ["--sh", "d", "--js"], ["--n", "4", "--n", "5", "--q", "2"], ["--q", "3", "--", "x"],
]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); argparse's own exit, as after --help, is ("exit", code)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed(capsys, parse, argv):
    """The namespace parse(argv) gives, or the error or exit it raises."""
    try:
        return vars(parse(list(argv)))
    except ValueError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr()


class TestDispatch:
    """main reads a command's plain argv from the command's option table; it behaves as the whole tree would."""

    def test_dispatch_equals_the_tree(self, capsys, monkeypatch):
        def tree_parse(argv):
            return cli._parser().parse_args(argv)

        cases = list(_TREE_ARGVS)
        for path, _ in leaf_commands(cli.build_parser()):
            cases += [list(path) + tail for tail in _COMMAND_TAILS]
            cases.append(next(argv for argv in GOLDENS.values() if tuple(argv[: len(path)]) == path))
        for argv in cases:
            dispatched = outcome(capsys, argv), parsed(capsys, cli._parse, argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse", tree_parse)
                assert (outcome(capsys, argv), parsed(capsys, tree_parse, argv)) == dispatched, argv

    def test_commands_skip_the_tree(self, capsys, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("the whole tree parsed argv")

        monkeypatch.setattr(cli._parser(), "parse_known_args", no_tree)
        for argv, name in GOLDEN_CASES:
            assert run(capsys, *argv) == (0, golden(name), "")
        with pytest.raises(AssertionError, match="the whole tree"):
            main(["--help"])


# tokens a plain parse must decline or read as argparse does: help, an abbreviation, "--", a negative
# number, an empty, non-str or unhashable token, and strs that int() reads though they are not plain digits
_ODD_TOKENS = ["-h", "--help", "--js", "--", "-1", "", 5, None, ["--n"], "--bogus"]
_ODD_VALUES = [" 5", "\u0663", "1_0", "+4", "-1", "", "x", "bogus", 5]


def _valid_value(action):
    if action.choices:
        return action.choices[0]
    return "3" if action.type is int else "2,1" if action.dest == "partition" else STEINBERG


@st.composite
def _command_argvs(draw, parser):
    """Tokens for a command's parser: its required options or not, then options with or without values and odd tokens."""
    actions = [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
    argv = []
    if draw(st.integers(0, 3)):
        argv += [token for a in actions if a.required for token in (a.option_strings[0], _valid_value(a))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["value"] * 12 + ["bare", "equals", "odd"]))  # mostly a plain argv
        action = draw(st.sampled_from(actions))
        value = draw(st.sampled_from([_valid_value(action)] * 6 + [*(action.choices or ()), *_ODD_VALUES]))
        if kind == "odd":
            argv.append(draw(st.sampled_from(_ODD_TOKENS)))
        elif kind == "bare" or action.nargs == 0:
            argv.append(action.option_strings[0])
        elif kind == "equals":
            argv.append(f"{action.option_strings[0]}={value}")
        else:
            argv += [action.option_strings[0], value]
    return argv


def _typed(namespace):
    """A namespace's items in order, each value with its type, so that True and 1 differ."""
    return [(key, type(value), value) for key, value in vars(namespace).items()]


class TestPlainParse:
    """A command's argv of exact option strings and values is read from its option table, to the tree's Namespace."""

    @pytest.mark.parametrize("path", [path for path, _ in leaf_commands(cli.build_parser())], ids=" ".join)
    @settings(max_examples=300)
    @given(data=st.data())
    def test_plain_parse_is_parse_args_or_declines(self, path, data):
        argv = data.draw(_command_argvs(dict(leaf_commands(cli._parser()))[path]))
        plain = cli._plain_parse(path, argv)
        assert plain is None or _typed(plain) == _typed(cli._parser().parse_args([*path, *argv]))

    def test_every_option_is_one_the_plain_parse_reads(self):
        # a store or append of one str or int, or a store_true: nargs, another action or type, or a str default
        # would make the plain parse read argv otherwise than argparse
        read = {"dest", "action", "type", "choices", "default", "required", "metavar", "help"}
        assert list(cli._COMMANDS) == [path for path, _ in leaf_commands(cli.build_parser())]
        for path, (_, _, options) in cli._COMMANDS.items():
            for option, keywords in options:
                assert set(keywords) <= read, (path, option)
                assert keywords.get("action") in (None, "append", "store_true"), (path, option)
                assert keywords.get("type") in (None, int), (path, option)
                assert not isinstance(keywords.get("default"), str), (path, option)

    def test_help_and_refusals_read_as_through_argparse(self, capsys, monkeypatch):
        def outcome_or_raise(argv):
            try:
                return outcome(capsys, argv)
            except TypeError as exc:  # argparse's own on a non-str token
                return "raised", str(exc), capsys.readouterr()

        cases = []
        for path, parser in leaf_commands(cli._parser()):
            tail = next(argv for argv in GOLDENS.values() if tuple(argv[: len(path)]) == path)[len(path):]
            option, rest = tail[0], tail[2:]
            tails = [["--help"], ["-h"], [], tail + tail, [f"{option}={tail[1]}", *rest], tail + ["--js"],
                     tail + ["--"], tail + ["--", "x"], tail + [5], [option], *([option, v, *rest] for v in _ODD_VALUES)]
            tails += [tail + [a.option_strings[0], "bogus"] for a in parser._actions if a.choices]
            cases += [list(path) + t for t in tails]
        for argv in cases:
            taken = outcome_or_raise(argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_plain_parse", lambda path, argv: None)
                assert outcome_or_raise(argv) == taken, argv

    def test_golden_commands_take_the_plain_path(self, capsys, monkeypatch, tmp_path):
        def no_argparse(*args, **kwargs):
            raise AssertionError("argparse parsed argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", no_argparse)
        target = tmp_path / "out"
        for argv, name in GOLDEN_CASES:
            assert run(capsys, *argv) == (0, golden(name), ""), argv
            assert run(capsys, *argv, "--out", str(target)) == (0, "", ""), argv
            assert target.read_text() == golden(name)


class TestGermRoundTrips:
    def test_map_output_is_accepted_as_input(self, capsys, tmp_path):
        out_file = tmp_path / "induced.json"
        code, _, _ = run(
            capsys, "germ", "induce", "--in", STEINBERG, "--in", STEINBERG, "--out", str(out_file)
        )
        assert code == 0
        code, out, _ = run(capsys, "germ", "whittaker", "--in", str(out_file), "--json")
        assert code == 0
        dims = json.loads(out)
        assert dims == {"n": 4, "dims": [{"partition": [1, 1, 1, 1], "value": 1}]}

    def test_lj_jl_round_trip(self, capsys, tmp_path):
        up = tmp_path / "up.json"
        code, _, _ = run(capsys, "germ", "jl", "--in", STEINBERG, "--d", "2", "--out", str(up))
        assert code == 0
        code, out, _ = run(capsys, "germ", "lj", "--in", str(up), "--d", "2")
        assert code == 0
        assert json.loads(out) == json.loads(Path(STEINBERG).read_text())

    def test_solve_inverts_forward_multiplicities(self, capsys, tmp_path):
        # multiplicities of the Steinberg map through the oracle matrix at q = 2:
        # m(2) = -1 + 1*3 = 2, m(1,1) = 1
        mult = {"n": 2, "entries": [{"partition": [2], "value": 2}, {"partition": [1, 1], "value": 1}]}
        m_file = tmp_path / "mult.json"
        m_file.write_text(json.dumps(mult))
        code, out, _ = run(capsys, "germ", "solve", "--in", str(m_file), "--q", "2")
        assert code == 0
        assert json.loads(out) == json.loads(Path(STEINBERG).read_text())

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_solve_round_trips_at_prime_powers(self, capsys, tmp_path, q):
        rng = random.Random(q)
        for n in (2, 3, 5, cli.SOLVE_MAX_N):
            c = CoefficientMap(n, {lam: rng.randint(-9, 9) for lam in enumerate_partitions(n)})
            m = forward_multiplicities(c, closed_form_multiplicity_matrix(n, q))
            m_file = tmp_path / f"mult{n}.json"
            m_file.write_text(cli._json_text(cli._map_json(CoefficientMap(n, m))))
            code, out, err = run(capsys, "germ", "solve", "--in", str(m_file), "--q", str(q))
            assert (code, err) == (0, "")
            assert CoefficientMap.from_json(json.loads(out)) == c


class TestOracleCommand:
    def test_cosets_check_passes(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "3", "--q", "2", "--check", "cosets", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        counts = {tuple(i["partition"]): i["observed"] for i in report["items"]}
        assert counts == {(3,): 1, (2, 1): 7, (1, 1, 1): 21}

    def test_cosets_check_reaches_n5_q2(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "5", "--q", "2", "--check", "cosets", "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report["items"]) == 7
        assert report["pass"] is True and all(i["pass"] for i in report["items"])

    def test_cosets_check_sizes_each_orbit_once(self, capsys, monkeypatch):
        real, calls = oracle.flag_orbit_size, []

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(oracle, "flag_orbit_size", counted)
        assert run(capsys, "oracle", "--n", "4", "--q", "3", "--check", "cosets")[0] == 0
        assert len(calls) == 1 + len(enumerate_partitions(4))  # the full flags first, then one per search

    def test_a_search_that_finds_too_few_flags_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_column_ops", lambda q: {"c": lambda row: row, "t": lambda row: row})
        code, out, err = run(capsys, "oracle", "--n", "3", "--q", "2", "--check", "cosets")
        assert (code, out) == (2, "")
        assert err == "germkit: the flag search for (2,1) over F_2 found only 1 of the 7 flags of the orbit\n"

    def test_ximatrix_check_fails_when_the_closed_form_disagrees(self, capsys, monkeypatch):
        real = cli.closed_form_multiplicity_matrix

        def skewed(n, q):
            M = real(n, q)
            M[Partition([2, 1])][Partition([1, 1, 1])] += 1
            return M

        monkeypatch.setattr(cli, "closed_form_multiplicity_matrix", skewed)
        code, out, err = run(capsys, "oracle", "--n", "3", "--q", "2", "--check", "ximatrix", "--json")
        assert code == 2
        assert "failed" in err
        failed = [i for i in json.loads(out)["items"] if not i["pass"]]
        assert [(i["row"], i["col"]) for i in failed] == [([2, 1], [1, 1, 1])]

    def test_jordan_check_passes(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--q", "3", "--check", "jordan", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        census = [i for i in report["items"] if "census" in i]
        assert census and census[0]["expected"] == 3**2


# (2) twice: the values would sum to 0, so the map would read as {(1,1): 1}
_REPEATED = '{"n": 2, "entries": [{"partition": [2], "value": 1}, {"partition": [2], "value": -1}, ' \
            '{"partition": [1, 1], "value": 1}]}'


def _ends(n):
    """A map on the partitions of n with entries at (n) and (1^n), whose counts are the smallest and the largest."""
    return json.dumps({"n": n, "entries": [{"partition": [n], "value": 1}, {"partition": [1] * n, "value": 1}]})


def _full(n):
    """A map on the partitions of n with every partition in its support."""
    return json.dumps({"n": n, "entries": [{"partition": list(lam), "value": (-1) ** i * (i + 1)}
                                           for i, lam in enumerate(enumerate_partitions(n))]})


def _long_value(digits):
    """A map on the partitions of 2 whose value at (1,1) has `digits` digits, all 9."""
    return f'{{"n": 2, "entries": [{{"partition": [2], "value": 1}}, {{"partition": [1, 1], "value": {"9" * digits}}}]}}'


# the int-string digit limit that tests run under, which `main` reads argv and map files under
_INT_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
_OVER = f"supports counts of up to {cli.COUNT_MAX_BITS} bits each and {cli.TOTAL_MAX_BITS} in all, but this asks for"
_DIMPOLY = ["germ", "dimpoly", "--in", "{file}", "--family"]


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "partitions", "--n", "4", "--bogus")
        assert code == 1
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        # each group names its choices, not an internal destination
        for argv, choices in [([], "{partitions,qcount,cosets,germ,oracle,gl2}"),
                              (["germ"], "{dimpoly,induce,lj,jl,solve,whittaker}"), (["gl2"], "{table}")]:
            assert run(capsys, *argv) == (1, "", f"germkit: error: the following arguments are required: {choices}\n")

    def test_invalid_n(self, capsys):
        code, _, err = run(capsys, "partitions", "--n", "0")
        assert code == 1
        assert "n must be >= 1" in err

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["qcount", "--partition", "a,b"], None, "cannot parse partition 'a,b'"),
            (["germ", "whittaker", "--in", "{file}"], "not json", "is not valid JSON"),
            (["germ", "lj", "--in", "{file}", "--d", "2"], '{"n": 3, "entries": []}', "not divisible by d = 2"),
            (["germ", "whittaker", "--in", "{file}"], '{"n": 2, "entries": 5}', '"entries" must be a JSON array, got 5'),
            (["germ", "dimpoly", "--in", "{file}", "--family", "K", "--q", "3"], '{"n": 2, "entries": null}',
             '"entries" must be a JSON array, got None'),
            (["germ", "lj", "--in", "{file}", "--d", "1"], '{"n": 2, "entries": "ab"}',
             "\"entries\" must be a JSON array, got 'ab'"),
            (["germ", "induce", "--in", "{file}"], '{"n": 2, "entries": {"a": 1}}',
             "\"entries\" must be a JSON array, got {'a': 1}"),
            (["germ", "whittaker", "--in", "{file}"], _REPEATED, "the partition (2) is listed twice"),
            (["germ", "solve", "--in", "{file}", "--q", "2"], _REPEATED, "the partition (2) is listed twice"),
            *((["oracle", "--check", check, "--n", n, "--q", "2"], None, f"n must be >= 1, got {n}")
              for check in ("cosets", "jordan", "ximatrix") for n in ("-1", "0")),
            (["partitions", "--n", "3", "--out", ""], None, "cannot write : [Errno 2] "),
            *(([*command, "--n", n], None, f"{command[0]} supports n <= {cli.TABLE_MAX_N}, got n = {n}")
              for command in (["partitions", "--show", "d"], ["cosets", "--q", "2", "--j", "3"]) for n in ("31", "90")),
            (["qcount", "--partition", "201"], None, f"qcount supports n <= {cli.QCOUNT_MAX_N}, got n = 201"),
            (["qcount", "--partition", ",".join(["1"] * 300), "--q", "2"], None, "qcount supports n <= 200, got n = 300"),
            (["qcount", "--partition", "201", "--q", "6"], None, "q must be a prime power >= 2, got 6"),
            (["qcount", "--partition", ONES_200, "--q", "16384"], None,
             f"qcount supports values of up to {cli.QCOUNT_MAX_BITS} bits, but this asks for one of up to 278800 bits"),
            (["qcount", "--partition", ",".join(["1"] * 300), "--q", str(2**62)], None, "supports n <= 200, got n = 300"),
            (["germ", "induce", "--in", "{file}", "--in", "{file}", "--in", "{file}"], _full(20),
             f"germ induce supports up to {cli.INDUCE_MAX_COMBOS} combinations of support entries, "
             "but these maps have 246491883"),
            (["cosets", "--n", "3", "--q", "2", "--j", "8000"], None, f"cosets {_OVER} 72015 counts of up to 24009 bits"),
            (["cosets", "--n", "3", "--q", "2", "--d", "10000000"], None, f"{_OVER} 15 counts of up to 60000003 bits"),
            (["cosets", "--n", "30", "--q", "3", "--j", "3"], None, f"{_OVER} 78456 counts of up to 4380 bits"),
            (["cosets", "--n", "31", "--q", "6", "--j", "8000"], None, "q must be a prime power >= 2, got 6"),
            (["cosets", "--n", "31", "--q", "2", "--d", "0"], None, "d must be >= 1, got 0"),
            (["gl2", "table", "--q", "3", "--j", "100000"], None, f"gl2 table {_OVER} 39 counts of up to 200006 bits"),
            (["gl2", "table", "--q", "3", "--d", "10000000", "--modp"], None, f"{_OVER} 39 counts of up to 40000002 bits"),
            ([*_DIMPOLY, "K", "--q", "49", "--d", "3"], _ends(300), f"germ dimpoly {_OVER} 2 counts of up to 1614900 bits"),
            ([*_DIMPOLY, "I0", "--q", "2"], _ends(8000), f"{_OVER} 2 counts of up to 64000000 bits"),
            ([*_DIMPOLY, "K", "--q", "6", "--d", "3"], _ends(300), "q must be a prime power >= 2, got 6"),
            ([*_DIMPOLY, "K", "--q", "49", "--d", "0"], _ends(300), "d must be >= 1, got 0"),
            (["qcount", "--partition", "1,1", "--q", WIDE_Q], None,
             f"cannot test a number of 8025 bits for being a prime power: the test stops at {cosets.PRIME_POWER_MAX_BITS} bits"),
            (["germ", "solve", "--in", "{file}", "--q", WIDE_Q], _full(12), "cannot test a number of 8025 bits"),
            (["qcount", "--partition", "1", "--q", "7" * 400000], None,
             f"argument --q: a value of 400000 characters is over the {cli.ARGV_MAX_CHARS} allowed"),
            (["cosets", "--n", "1", "--q", "3", "--d", "30000000"], None, f"cosets {_OVER} 5 counts of up to 120000001 bits"),
            (["cosets", "--n", "1", "--q", "1024", "--d", "10000", "--j", "300"], None,
             f"{_OVER} 905 counts of up to 30200001 bits"),
            ([*_DIMPOLY, "I", "--q", "3", "--d", "30000000"], _full(1), f"{_OVER} 1 counts of up to 120000001 bits"),
            (["germ", "solve", "--in", "{file}", "--q", str(2**1000)], _full(14),
             f"germ solve {_OVER} 18225 counts of up to 91014 bits"),
            (["germ", "solve", "--in", "{file}", "--q", "6"], _full(14), "q must be a prime power >= 2, got 6"),
            pytest.param(["germ", "jl", "--in", "{file}", "--d", "2"], _long_value(300000),
                         f"in.json holds an integer of more than {_INT_DIGITS} digits",
                         marks=pytest.mark.skipif(_INT_DIGITS is None, reason="no int-string limit")),
        ],
        ids=["qcount-partition", "in-not-json", "lj-odd-n", "entries-int", "entries-null", "entries-str", "entries-object",
             "whittaker-repeated", "solve-repeated",
             *(f"oracle-{check}-n{n}" for check in ("cosets", "jordan", "ximatrix") for n in ("-1", "0")), "out-empty",
             *(f"{command}-n{n}-over-bound" for command in ("partitions", "cosets") for n in ("31", "90")),
             "qcount-n201-over-bound", "qcount-n300-over-bound", "qcount-q-before-n", "qcount-q2e14-value-bits",
             "qcount-n-before-value-bits", "induce-three-full20-combos", "cosets-j8000-count-bits",
             "cosets-d1e7-count-bits", "cosets-n30-q3-total-bits", "cosets-q-before-n-and-bits", "cosets-d-before-n",
             "gl2-j100000-count-bits", "gl2-d1e7-count-bits", "dimpoly-n300-count-bits", "dimpoly-n8000-count-bits",
             "dimpoly-q-before-bits", "dimpoly-d-before-bits", "qcount-q8025-prime-power-bits",
             "solve-q8025-prime-power-bits", "qcount-q400000-digits", "cosets-n1-d3e7-count-bits",
             "cosets-n1-j300-count-bits", "dimpoly-n1-d3e7-count-bits", "solve-n14-q2e1000-count-bits",
             "solve-q-before-bits", "jl-300000-digit-value"],
    )
    def test_bad_input_is_exit_1_with_one_line(self, capsys, tmp_path, argv, content, message):
        infile = tmp_path / "in.json"
        if content is not None:
            infile.write_text(content)
        code, out, err = run(capsys, *[a.replace("{file}", str(infile)) for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("germkit: error: ") and err.count("\n") == 1 and message in err

    def test_tables_list_every_n_up_to_the_bound(self, capsys):
        code, out, err = run(capsys, "partitions", "--n", str(cli.TABLE_MAX_N))
        assert (code, err) == (0, "") and out.count("\n") == 1 + len(enumerate_partitions(cli.TABLE_MAX_N)) == 5605

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": []}')
        code, _, err = run(capsys, "germ", "whittaker", "--in", str(bad))
        assert code == 1
        assert "serializes" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "germ", "whittaker", "--in", "/nonexistent.json")
        assert code == 1

    def test_positivity_failure_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "neg.json"
        bad.write_text(
            json.dumps({"n": 2, "entries": [{"partition": [2], "value": 1}, {"partition": [1, 1], "value": -1}]})
        )
        code, _, err = run(capsys, "germ", "whittaker", "--in", str(bad))
        assert code == 2
        assert "minimal support value must be positive" in err

    @pytest.mark.parametrize(
        "check,n,q,cap,message",
        [
            ("ximatrix", 3, 2, "10", "for the partitions of n = 3 needs 13 elements, above the cap 10"),
            ("ximatrix", 20, 2, None, "for the partitions of n = 20 needs more than 2^190 elements"),
            ("jordan", 30, 2, None, "enumerating M_30(F_2) needs 2^900 elements, above the cap 10000000"),
            ("cosets", 7, 2, None, "coset space for (1^7) over F_2 has 78129765 elements"),
            ("cosets", 30, 2, None, "coset space for (1^30) over F_2 has more than 2^435 elements"),
            # at the 20-digit edge: a lower bound q^e under 20 digits leaves the exact size, printed in full
            ("cosets", 12, 2, None, "coset space for (1^12) over F_2 has 87302158405919092510875 elements"),
            ("ximatrix", 12, 2, None, "for the partitions of n = 12 needs 169393031941444339713 elements"),
            # q^(n^2) over 20 digits is refused from its exponent: 3^64 under 2^67, 2^81 over it
            ("jordan", 8, 3, None, "enumerating M_8(F_3) needs 3^64 elements, above the cap 10000000"),
            ("jordan", 9, 2, None, "enumerating M_9(F_2) needs 2^81 elements, above the cap 10000000"),
        ],
        ids=["ximatrix-cap10", "ximatrix-n20", "jordan-n30", "cosets-n7", "cosets-n30", "cosets-n12", "ximatrix-n12",
             "jordan-n8-q3", "jordan-n9"],
    )
    def test_oracle_bound_is_exit_1(self, capsys, monkeypatch, check, n, q, cap, message):
        if cap is None:
            monkeypatch.delenv("GERMKIT_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("GERMKIT_ORACLE_CAP", cap)

        def unreachable(lam, q, cap=None):
            raise AssertionError("the cap is charged before any A_lam is built or any flag is searched")

        monkeypatch.setattr("germkit.oracle.build_A_lambda", unreachable)
        monkeypatch.setattr("germkit.oracle.flag_orbit_count", unreachable)
        code, out, err = run(capsys, "oracle", "--n", str(n), "--q", str(q), "--check", check)
        assert (code, out) == (1, "")
        assert err.startswith("germkit: error: ") and err.count("\n") == 1 and message in err
        # neither check lists the partitions of n, (1^n) is written so, and a size in full has at most 23 digits
        assert len(err.encode()) < 200

    def test_oracle_cosets_refuses_before_enumerating_partitions(self, capsys, monkeypatch, within_budget):
        def unreachable(n):
            raise AssertionError("the full flags (1^n) are charged before the partitions of n are enumerated")

        monkeypatch.delenv("GERMKIT_ORACLE_CAP", raising=False)
        monkeypatch.setattr(cli, "enumerate_partitions", unreachable)
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--n", "60", "--q", "2", "--check", "cosets")
        within_budget(time.perf_counter() - start, 0.1)
        assert (code, out) == (1, "")
        assert err == "germkit: error: flag orbit: coset space for (1^60) over F_2 has more than 2^1770 elements, above the cap 10000000\n"
        with pytest.raises(AssertionError):  # an n under the cap still reaches the enumeration
            run(capsys, "oracle", "--n", "2", "--q", "2", "--check", "cosets")

    @pytest.mark.parametrize(
        "check,n,q,message",
        [
            ("ximatrix", 60, 2, "streaming the nilradicals n_mu(F_2) for the partitions of n = 60 needs more than 2^1770"),
            ("cosets", 2000, 2, "flag orbit: coset space for (1^2000) over F_2 has more than 2^1999000"),
            ("jordan", 2000, 3, "enumerating M_2000(F_3) needs 3^4000000"),
        ],
        ids=["ximatrix-n60", "cosets-n2000", "jordan-n2000-q3"],
    )
    def test_oracle_refuses_a_huge_n_at_once(self, capsys, monkeypatch, within_budget, check, n, q, message):
        def unreachable(*args):
            raise AssertionError("a lower bound refuses a huge n before its partitions or group orders are computed")

        monkeypatch.delenv("GERMKIT_ORACLE_CAP", raising=False)
        for name in ("germkit.cli.enumerate_partitions", "germkit.oracle.enumerate_partitions", "germkit.oracle.gl_order"):
            monkeypatch.setattr(name, unreachable)
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--n", str(n), "--q", str(q), "--check", check)
        within_budget(time.perf_counter() - start, 0.1)
        assert (code, out, err) == (1, "", f"germkit: error: {message} elements, above the cap 10000000\n")
        assert len(err.encode()) < 200

    def test_bad_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GERMKIT_ORACLE_CAP", "lots")
        code, _, err = run(capsys, "oracle", "--n", "2", "--q", "2", "--check", "ximatrix")
        assert code == 1

    def test_modp_requires_d1(self, capsys):
        code, _, err = run(capsys, "gl2", "table", "--q", "3", "--d", "2", "--modp")
        assert code == 1
        assert "d = 1" in err

    def test_modp_requires_an_odd_prime_q(self, capsys):
        for q, message in (("4", "--q must be a prime"), ("2", "mod-p supersingular data requires an odd prime --q")):
            assert run(capsys, "gl2", "table", "--q", q, "--modp") == (1, "", f"germkit: error: {message}, got {q}\n")

    def test_qcount_checks_a_large_q_exactly_and_fast(self, capsys, within_budget):
        start = time.perf_counter()
        code, out, _ = run(capsys, "qcount", "--partition", "1,1", "--q", "1000000000000000003")
        within_budget(time.perf_counter() - start, 1)
        assert code == 0 and "value at q=1000000000000000003: 1000000000000000004" in out
        big = 2**89 - 1  # a prime
        refusal = f"germkit: error: cannot test {big} for primality exactly: the test stops below {PRIME_CHECK_BOUND}\n"
        assert run(capsys, "qcount", "--partition", "1,1", "--q", str(big)) == (1, "", refusal)

    def test_qcount_rejects_q_that_is_not_a_prime_power(self, capsys):
        code, out, err = run(capsys, "qcount", "--partition", "2,1", "--q", "6")
        assert code == 1
        assert out == "" and "prime power" in err
        code, out, _ = run(capsys, "qcount", "--partition", "2,1", "--q", "4")
        assert code == 0
        assert "value at q=4: 21" in out

    def test_solve_rejects_q_that_is_not_a_prime_power(self, capsys):
        code, out, err = run(capsys, "germ", "solve", "--in", STEINBERG, "--q", "6")
        assert (code, out) == (1, "")
        assert err == "germkit: error: q must be a prime power >= 2, got 6\n"

    def test_solve_refuses_n_above_its_bound(self, capsys, tmp_path):
        big = tmp_path / "n15.json"
        big.write_text(json.dumps({"n": 15, "entries": [{"partition": [15], "value": 1}]}))
        code, out, err = run(capsys, "germ", "solve", "--in", str(big), "--q", "4")
        assert (code, out) == (1, "")
        assert err == f"germkit: error: germ solve supports n <= {cli.SOLVE_MAX_N}, got n = 15\n"
        assert cli.SOLVE_MAX_N == 14

    def test_gl2_table_rejects_negative_depth(self, capsys):
        # named as cosets names it; a bad --q is still reported first
        code, out, err = run(capsys, "gl2", "table", "--q", "3", "--d", "1", "--j", "-1")
        assert code == 1
        assert out == "" and err == "germkit: error: --j must be >= 0, got -1\n"
        assert run(capsys, "gl2", "table", "--q", "6", "--j", "-1") == (
            1, "", "germkit: error: q must be a prime power >= 2, got 6\n")

    def test_gl2_table_rejects_d_below_one(self, capsys):
        code, out, err = run(capsys, "gl2", "table", "--q", "9", "--d", "0")
        assert code == 1
        assert out == "" and err == "germkit: error: d must be >= 1, got 0\n"

    def test_cosets_rejects_negative_depth(self, capsys):
        code, out, err = run(capsys, "cosets", "--n", "2", "--q", "4", "--j", "-1")
        assert code == 1
        assert out == "" and err == "germkit: error: --j must be >= 0, got -1\n"

    def test_arithmetic_error_is_exit_2(self, capsys, monkeypatch):
        def inexact(n, q):
            raise ArithmeticError("inexact division")

        monkeypatch.setattr(cli, "closed_form_multiplicity_matrix", inexact)
        code, _, err = run(capsys, "oracle", "--n", "2", "--q", "2", "--check", "ximatrix")
        assert code == 2
        assert err == "germkit: inexact division\n"

    @pytest.mark.parametrize(
        "check,order,message",
        [
            ("ximatrix", "centralizer_order", "germkit: condition-set size "),
            ("cosets", "parabolic_order", "germkit: |GL_2(F_3)| not divisible by |P_(1,1)(F_3)|\n"),
        ],
        ids=["ximatrix", "cosets"],
    )
    def test_oracle_consistency_error_is_exit_2(self, capsys, monkeypatch, check, order, message):
        right = getattr(oracle, order)
        monkeypatch.setattr(oracle, order, lambda lam, q: right(lam, q) + 1)  # a wrong group order
        code, out, err = run(capsys, "oracle", "--n", "2", "--q", "3", "--check", check)
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1

    def test_closed_stdout_pipe_is_exit_1_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "germkit.cli", "partitions", "--n", "30", "--show", "d"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.stdout.readline().startswith(b"partition")
        proc.stdout.close()  # the output is far larger than a pipe buffer, so later writes hit the closed pipe
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("n", ["3", "30"])  # the error comes from the final flush, or from print itself
    def test_full_stdout_is_exit_1_with_one_line(self, n):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "germkit.cli", "partitions", "--n", n, "--show", "d"],
                stdout=full,
                stderr=subprocess.PIPE,
                env=child_env(),
                timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == b"germkit: error: cannot write stdout: [Errno 28] No space left on device\n"

    def test_deeply_nested_input_is_exit_1(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(capsys, "germ", "whittaker", "--in", str(deep))
        assert (code, out) == (1, "")
        assert err == f"germkit: error: {deep} is nested too deeply to read\n"

    def test_undecodable_input_is_exit_1_naming_the_file(self, capsys, tmp_path):
        # the file that fails is named, as a directory is, whichever --in it is
        good, bad = tmp_path / "ok.json", tmp_path / "bin.json"
        good.write_text('{"n": 1, "entries": []}')
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "germ", "induce", "--in", str(good), "--in", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"germkit: error: cannot read {bad}: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    def test_lj_rejects_d_below_one(self, capsys):
        code, out, err = run(capsys, "germ", "lj", "--in", STEINBERG, "--d", "0")
        assert code == 1
        assert out == "" and err == "germkit: error: --d must be >= 1, got 0\n"

    def test_jl_rejects_d_below_one_before_reading_the_map(self, capsys, tmp_path):
        for path in (STEINBERG, str(tmp_path / "missing.json")):
            code, out, err = run(capsys, "germ", "jl", "--in", path, "--d", "0")
            assert code == 1
            assert out == "" and err == "germkit: error: --d must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["partitions", "--n", "3"],
            ["qcount", "--partition", "2,1", "--json"],
            ["germ", "jl", "--in", STEINBERG, "--d", "2"],
            ["gl2", "table", "--q", "3"],
        ],
    )
    def test_unwritable_out_is_exit_1(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"germkit: error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["germ", "induce", "--in", STEINBERG],
            ["germ", "lj", "--in", STEINBERG, "--d", "1"],
            ["germ", "jl", "--in", STEINBERG, "--d", "1"],
            ["germ", "solve", "--in", STEINBERG, "--q", "2"],
        ],
    )
    def test_json_flag_only_where_a_table_is_the_default(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["n"] == 2
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1
        assert out == "" and "unrecognized arguments: --json" in err


class TestSizeBounds:
    """`qcount` bounds n and its value, `cosets`, `gl2 table` and `germ dimpoly` the size of their counts, `germ solve`
    that of its matrix, `germ induce` its combinations, and every command the size of q, before computing any."""

    def test_refusals_come_before_any_count(self, capsys, monkeypatch, tmp_path, within_budget):
        def unreachable(*args):
            raise AssertionError("a count was computed before the bound refused it")

        for name in ("count_columns", "dimension_polynomial", "q_multinomial", "induce_maps",
                     "closed_form_multiplicity_matrix"):
            monkeypatch.setattr(cli, name, unreachable)
        # require_prime_power runs before these bounds (a bad q is refused before a bad n), so its work is made
        # unreachable: the root search and the primality test that follow its small-prime division
        for name in ("_root", "is_prime"):
            monkeypatch.setattr(cosets, name, unreachable)
        ends, full20, one, full14 = (tmp_path / f"{name}.json" for name in ("ends", "full20", "one", "full14"))
        ends.write_text(_ends(8000))
        full20.write_text(_full(20))
        one.write_text(_full(1))
        full14.write_text(_full(14))
        for argv in (["qcount", "--partition", "100000", "--q", "2"], ["cosets", "--n", "3", "--q", "2", "--j", "10000000"],
                     ["cosets", "--n", "30", "--q", "2", "--d", "10000000"], ["gl2", "table", "--q", "3", "--j", str(10**9)],
                     ["gl2", "table", "--q", "3", "--d", str(10**10)],
                     ["germ", "dimpoly", "--in", str(ends), "--family", "K", "--q", "49", "--d", "100"],
                     ["qcount", "--partition", ONES_200, "--q", str(2**62)], ["germ", "induce", *["--in", str(full20)] * 3],
                     ["qcount", "--partition", "1,1", "--q", WIDE_Q], ["cosets", "--n", "2", "--q", WIDE_Q],
                     ["gl2", "table", "--q", WIDE_Q], ["germ", "solve", "--in", str(full14), "--q", WIDE_Q],
                     ["qcount", "--partition", "1,1", "--q", str(2**14000)], ["qcount", "--partition", "1", "--q", "7" * 400000],
                     ["cosets", "--n", "1", "--q", "3", "--d", "30000000"],
                     ["cosets", "--n", "1", "--q", "1024", "--d", "10000", "--j", "300"],
                     ["germ", "dimpoly", "--in", str(one), "--family", "I", "--q", "3", "--d", "30000000"],
                     ["germ", "solve", "--in", str(full14), "--q", str(2**1000)],
                     ["cosets", "--n", "1", "--q", "2", "--j", "10000000"]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            within_budget(time.perf_counter() - start, 0.1)
            assert (code, out) == (1, "") and err.startswith("germkit: error: ") and err.count("\n") == 1, argv

    def test_a_long_token_or_map_integer_is_refused_in_one_short_line(self, capsys, tmp_path, within_budget):
        # the refused token or file is named, never quoted: argparse and the partition refusals used to echo it whole
        long = tmp_path / "long.json"
        long.write_text(_long_value(300000))
        cases = [(["qcount", "--partition", "1", "--q", "7" * 400000], "argument --q: a value of 400000 characters"),
                 (["cosets", "--n", "3", "--q", "2", "--j", "9" * 5000], "argument --j: a value of 5000 characters"),
                 (["qcount", "--partition", "7" * 400000], "argument --partition: a value of 400000 characters"),
                 (["7" * 5000, "--n", "3"], "a token of 5000 characters")]
        if _INT_DIGITS is not None:
            cases += [(["germ", "jl", "--in", str(long), "--d", "2"], f"{long} holds an integer of more than"),
                      (["germ", "dimpoly", "--in", str(long), "--family", "K", "--q", "3"], f"{long} holds an integer")]
        for argv, message in cases:
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            within_budget(time.perf_counter() - start, 0.1)
            assert (code, out) == (1, "") and err.startswith(f"germkit: error: {message}") and err.count("\n") == 1
            assert len(err.encode()) < 200, argv

    def test_a_refused_token_at_the_length_bound_keeps_its_text(self, capsys):
        token = "x" * cli.ARGV_MAX_CHARS
        assert run(capsys, "cosets", "--n", "3", "--q", "2", "--j", token) == (
            1, "", f"germkit: error: argument --j: invalid int value: '{token}'\n")

    @pytest.mark.skipif(_INT_DIGITS is None, reason="no int-string limit to lift")
    def test_map_integers_are_read_under_the_limit_and_printed_past_it(self, capsys, tmp_path):
        # a value at the limit is read, and the coefficient (t + 1) * value of one more digit printed, the limit
        # lifted again after the read
        path = tmp_path / "limit.json"
        path.write_text(_long_value(_INT_DIGITS))
        code, out, err = run(capsys, "germ", "dimpoly", "--in", str(path), "--family", "K", "--q", "3", "--json")
        assert (code, err) == (0, "") and sys.get_int_max_str_digits() == _INT_DIGITS
        assert with_int_digits_unlimited(lambda: json.loads(out))["poly"] == [1, 4 * (10**_INT_DIGITS - 1)]

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_the_bound_covers_every_count(self, capsys, monkeypatch, q):
        # with the per-count bound one bit below the largest count printed, the command is refused, and the
        # refusal names as many counts as the command prints; the bound is within a factor of 3 of the count, or at
        # n = 1, where every count is 1, of t^(j + 1), the largest integer the count builds
        cases = [["cosets", "--n", str(n), "--q", str(q), "--d", str(d), "--j", str(j), "--json"]
                 for n in range(1, 8) for d in (1, 2) for j in (0, 2)]
        cases += [["gl2", "table", "--q", str(q), "--d", "1", "--j", str(j), "--json"] + (["--modp"] if q == 3 else [])
                  for j in (0, 2)]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            record = json.loads(out)
            if argv[0] == "cosets":
                counts = [r["count"] for r in record]
            else:
                counts = [abs(v) for r in record["rows"] for v in r["dims"].values() if v is not None]
            largest = max(counts).bit_length()
            if argv[:3] == ["cosets", "--n", "1"]:
                largest = max(largest, (q ** (int(argv[6]) * (int(argv[8]) + 1))).bit_length())
            with monkeypatch.context() as m:
                m.setattr(cli, "COUNT_MAX_BITS", largest - 1)
                code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            asked, bits = map(int, re.fullmatch(r"germkit: error: .* this asks for (\d+) counts of up to (\d+) bits\n",
                                                err).groups())
            assert largest <= bits <= 3 * largest
            if argv[0] == "cosets":
                assert asked == len(counts)
            else:  # three chain columns per row, and two mod-p rows counted with --modp or not
                assert asked == 3 * len(record["rows"]) + (0 if "--modp" in argv else 6)

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 32, 125])
    def test_the_qcount_bound_covers_the_value(self, capsys, monkeypatch, q):
        # with the bound one bit below the value printed, the value is refused; the bound is at most n + 2 * its bits
        for lam in ("1", "2,1", "3,2,2,1", "1,1,1,1,1,1,1,1", "5,5,4", "14"):
            code, out, err = run(capsys, "qcount", "--partition", lam, "--q", str(q), "--json")
            assert (code, err) == (0, "")
            bits = json.loads(out)["value"].bit_length()
            with monkeypatch.context() as m:
                m.setattr(cli, "QCOUNT_MAX_BITS", bits - 1)
                code, out, err = run(capsys, "qcount", "--partition", lam, "--q", str(q), "--json")
            assert (code, out) == (1, ""), lam
            bound = int(re.fullmatch(r"germkit: error: .* this asks for one of up to (\d+) bits\n", err).group(1))
            assert bits <= bound <= sum(map(int, lam.split(","))) + 2 * bits

    def test_the_largest_benchmark_inputs_pass(self, capsys, tmp_path):
        # the largest input of each kind of benchmark job the bounds could refuse, and the case TABLE_MAX_N was set at
        full14 = tmp_path / "full14.json"
        full14.write_text(json.dumps({"n": 14, "entries": [{"partition": list(lam), "value": (-1) ** i * (i + 1)}
                                                           for i, lam in enumerate(enumerate_partitions(14))]}))
        cases = [["cosets", "--n", "10", "--q", "9", "--j", "3", "--json"], ["cosets", "--n", "30", "--q", "2", "--j", "3"],
                 ["gl2", "table", "--q", "19", "--j", "3", "--modp", "--json"],
                 ["qcount", "--partition", "14", "--q", "32", "--json"],
                 ["qcount", "--partition", ",".join(["1"] * 14), "--q", "32", "--json"],
                 ["partitions", "--n", "20", "--show", "d", "--show", "dual", "--json"]]
        cases += [["germ", "dimpoly", "--in", str(full14), "--family", fam.token, "--q", "9", "--d", "3", "--json"]
                  for fam in Family]
        full5 = tmp_path / "full5.json"
        full5.write_text(_full(5))
        cases.append(["germ", "induce", *["--in", str(full5)] * 6])  # 7^6 combinations
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
