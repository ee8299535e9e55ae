import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from germkit import cli
from germkit.cli import main
from germkit.germ import CoefficientMap, closed_form_multiplicity_matrix, forward_multiplicities
from germkit.partitions import Partition, enumerate_partitions

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


class TestParserReuse:
    """main builds its parser once per process; no call may see another call's flags."""

    def test_main_reuses_one_parser(self, capsys):
        run(capsys, "partitions", "--n", "2")
        first = cli._parser()
        run(capsys, "partitions", "--n", "3")
        assert cli._parser() is first

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
            m_file.write_text(json.dumps(CoefficientMap(n, m).to_json()))
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


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "partitions", "--n", "4", "--bogus")
        assert code == 1
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

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
        ],
        ids=["qcount-partition", "in-not-json", "lj-odd-n"],
    )
    def test_bad_input_is_exit_1_with_one_line(self, capsys, tmp_path, argv, content, message):
        infile = tmp_path / "in.json"
        if content is not None:
            infile.write_text(content)
        code, out, err = run(capsys, *[a.replace("{file}", str(infile)) for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("germkit: error: ") and err.count("\n") == 1 and message in err

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
        "check,n,cap,message",
        [
            ("ximatrix", 3, "10", "for the 3 partitions of n = 3 needs 13 elements, above the cap 10"),
            ("ximatrix", 20, None, "for the 627 partitions of n = 20 needs "),
            ("jordan", 30, None, "enumerating M_30(F_2) needs 2^900 elements, above the cap 10000000"),
            ("cosets", 7, None, "coset space for (1,1,1,1,1,1,1) over F_2 has 78129765 elements"),
            ("cosets", 30, None, "over F_2 has more than 2^463 elements, above the cap 10000000"),
        ],
        ids=["ximatrix-cap10", "ximatrix-n20", "jordan-n30", "cosets-n7", "cosets-n30"],
    )
    def test_oracle_bound_is_exit_1(self, capsys, monkeypatch, check, n, cap, message):
        if cap is None:
            monkeypatch.delenv("GERMKIT_ORACLE_CAP", raising=False)
        else:
            monkeypatch.setenv("GERMKIT_ORACLE_CAP", cap)

        def unreachable(lam, q, cap=None):
            raise AssertionError("the cap is charged before any A_lam is built or any flag is searched")

        monkeypatch.setattr("germkit.oracle.build_A_lambda", unreachable)
        monkeypatch.setattr("germkit.oracle.flag_orbit_count", unreachable)
        code, out, err = run(capsys, "oracle", "--n", str(n), "--q", "2", "--check", check)
        assert (code, out) == (1, "")
        assert err.startswith("germkit: error: ") and err.count("\n") == 1 and message in err
        # ximatrix counts the partitions of n instead of listing them; a size of more than 20 digits is a power of q
        assert len(err.encode()) < 200

    def test_bad_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GERMKIT_ORACLE_CAP", "lots")
        code, _, err = run(capsys, "oracle", "--n", "2", "--q", "2", "--check", "ximatrix")
        assert code == 1

    def test_modp_requires_d1(self, capsys):
        code, _, err = run(capsys, "gl2", "table", "--q", "3", "--d", "2", "--modp")
        assert code == 1
        assert "d = 1" in err

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
        big = tmp_path / "n11.json"
        big.write_text(json.dumps({"n": 11, "entries": [{"partition": [11], "value": 1}]}))
        code, out, err = run(capsys, "germ", "solve", "--in", str(big), "--q", "4")
        assert (code, out) == (1, "")
        assert err == f"germkit: error: germ solve supports n <= {cli.SOLVE_MAX_N}, got n = 11\n"
        assert cli.SOLVE_MAX_N == 10

    def test_gl2_table_rejects_negative_depth(self, capsys):
        code, out, err = run(capsys, "gl2", "table", "--q", "3", "--d", "1", "--j", "-1")
        assert code == 1
        assert out == "" and err == "germkit: error: depth must be >= 0, got -1\n"

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

    def test_lj_rejects_d_below_one(self, capsys):
        code, out, err = run(capsys, "germ", "lj", "--in", STEINBERG, "--d", "0")
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
