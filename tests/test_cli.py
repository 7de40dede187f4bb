"""CLI tests: flags, formats, schemas, exit codes, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from frogcrit import FrogSimConfig, ParameterError, explicit_bounds_c3, invert_bounds_c2
from frogcrit import cli
from frogcrit.cli import main, parse_d_list

from reference_tables import TABLE_CONE, TABLE_DEGREES


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _golden_cases():
    # cli_golden.txt: each "$ <args>" line is followed by that command's stdout
    cases = []
    for block in (Path(__file__).parent / "cli_golden.txt").read_text().split("$ ")[1:]:
        args, out = block.split("\n", 1)
        cases.append(pytest.param(args, out, id=args))
    return cases


@pytest.mark.parametrize("args,expected", _golden_cases())
def test_csv_output_is_byte_identical_to_golden(args, expected, capsys):
    """Frozen full-precision csv stdout of the solvers and the four tables."""
    code, out, err = run_cli(args.split(), capsys)
    assert (code, err) == (0, "")
    assert out == expected


class TestParseDList:
    def test_ranges_and_singletons(self):
        assert parse_d_list("2..5,10") == [2, 3, 4, 5, 10]
        assert parse_d_list("2..10,15,20,30,50,100") == TABLE_DEGREES

    def test_rejects_garbage(self):
        for bad in ("", "a", "5..2", "3;4"):
            with pytest.raises(ParameterError):
                parse_d_list(bad)

    def test_leaves_the_degree_rule_to_the_tables(self):
        assert parse_d_list("1,2") == [1, 2]

    def test_counts_ranges_before_building_them(self):
        limit = cli._MAX_DEGREES
        tracemalloc.start()
        try:
            for text in (f"2..{limit + 2}", f"5,2..{limit + 1}", f"2..{10**30}", f"1..{10**400}"):
                with pytest.raises(ParameterError, match=f"more than {limit} entries"):
                    parse_d_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(parse_d_list(f"2..{limit + 1}")) == limit


class TestQcCommand:
    def test_plain_output_in_reference_bracket(self, capsys):
        code, out, _ = run_cli(["qc", "--d", "2", "--c", "1"], capsys)
        assert code == 0
        fields = dict(
            line.split(None, 1) for line in out.strip().splitlines()
        )
        assert 0.269594 <= float(fields["q_c"]) <= 0.277206
        assert float(fields["residual"]) < 1e-12

    def test_rejects_invalid_scale(self, capsys):
        code, out, err = run_cli(["qc", "--d", "2", "--c", "1.5"], capsys)
        assert code == 2
        assert out == ""
        assert "c must be in (0, 1]" in err

    def test_csv_is_parse_stable(self, capsys):
        code, out, _ = run_cli(
            ["qc", "--d", "3", "--c", "0.5", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "schema", "d", "c", "q_c", "residual",
            "lower_c2", "upper_c2", "lower_c3", "upper_c3",
        ]
        assert len(rows) == 2
        assert rows[1][0] == "qc.v1"
        q_c = float(rows[1][3])
        assert 0.0 < q_c < 1.0 / 3.0

    def test_jsonl_roundtrip(self, capsys):
        code, out, _ = run_cli(
            ["qc", "--d", "2", "--c", "1", "--format", "jsonl"], capsys
        )
        assert code == 0
        obj = json.loads(out.strip())
        assert obj["schema"] == "qc.v1"
        assert obj["upper_c3"] is None  # undefined at d = 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
@pytest.mark.parametrize("command", [["qc", "--d", "2", "--c", "1"]])
def test_tol_outside_zero_to_inf_exits_2(command, tol, capsys):
    code, out, err = run_cli(command + ["--tol", tol], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: tol must be in (0, inf), got {float(tol)}\n"


@pytest.mark.parametrize("args", ["qc --d 2 --c 1e-6", "qc --d 2 --c 1e-7", "qc --d 2 --c 1e-8",
                                  "gamma --c 1e-6 --q 0.3", "gamma --c 1e-9 --q 0.3", "gamma --c 3e-13 --q 0.3"])
def test_a_root_whose_residual_passes_the_term_cap_exits_2_fast(args, capsys):
    """Near c = 0 the residual series needs over 20 million terms; the solvers refuse before any sign test.

    The message names the root's residual, not a sign test: none was summed to the term cap.
    """
    start = time.perf_counter()
    code, out, err = run_cli(args.split(), capsys)
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (2, "")
    assert err.endswith("is too close to 1/q for tol=1e-14\n")


@pytest.mark.parametrize("args, message", [
    ("gamma --c 1 --q 0.99", "F(1) >= 1: the gap law is not defective enough to bracket a root"),
    ("gamma --c 1e-13 --q 0.3", "F stays below 1 up to the radius of convergence"),
    ("qc --d 2 --c 1e-12", "no sign change of G - 1 found on (0, 1/d)"),
])
def test_a_root_out_of_bracket_exits_3(args, message, capsys):
    code, out, err = run_cli(args.split(), capsys)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("args", [
    "qc --d {d} --c 1",
    "table --model cone --d {d}",
    "table --model cone --d 2,{d}",
    "simulate frog --d {d} --c 1 --q 0.1 --max-depth 2 --replicates 10 --seed 1",
])
@pytest.mark.parametrize("d, bits", [(10**400, 1329), (int(sys.float_info.max) + 1, 1024)],
                         ids=["10^400", "float_max+1"])
def test_a_degree_past_the_largest_float_exits_2(args, d, bits, capsys):
    """Every command takes d into float arithmetic, where such a d overflows."""
    code, out, err = run_cli(args.format(d=d).split(), capsys)
    assert (code, out) == (2, "")
    assert err == f"error: d must be at most the largest float, got a {bits}-bit integer\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_gamma_has_no_tol_flag(tol, capsys):
    """gamma is bisected to float resolution whatever the tolerance, so there is no --tol."""
    with pytest.raises(SystemExit) as exit_info:
        main(["gamma", "--c", "1", "--q", "0.3", "--tol", tol])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --tol {tol}" in captured.err


@pytest.mark.parametrize("args, tol", [(["--d", "2", "--c", "1", "--tol", "0.5"], 0.5),
                                       (["--d", "30000", "--c", "1"], 1e-12)])
def test_lower_bound_ordering_error_names_its_values(args, tol, capsys):
    """A bisection tolerance coarser than the gaps between lower_c3, lower_c2
    and q_c puts them out of order; the one error line says which values and why."""
    code, out, err = run_cli(["qc"] + args, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: lower-bound ordering violated in CriticalResult: ")
    assert err.endswith("the bisections' absolute tolerance is coarser than the gaps between them\n")
    values = re.search(r"lower_c3 = (\S+), lower_c2 = (\S+), q_c = (\S+);", err)
    lower_c3, lower_c2, q_c = map(float, values.groups())
    d = int(args[1])
    assert lower_c3 == explicit_bounds_c3(d, 1.0)[0]
    assert lower_c2 == invert_bounds_c2(d, 1.0, tol)[0]
    assert 0.0 < q_c < 1.0 / d
    assert not lower_c3 <= lower_c2 <= q_c


class TestTableCommand:
    def test_cone_csv_matches_reference(self, capsys):
        code, out, _ = run_cli(
            ["table", "--model", "cone", "--d", "2..10,15,20,30,50,100",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "schema", "d", "lower_c2", "lower_explicit", "lower_known",
            "upper_c2", "upper_explicit", "upper_known",
        ]
        assert len(rows) == 15
        for row in rows[1:]:
            assert row[0] == "cone.v1"
            d = int(row[1])
            for got, want in zip(map(float, row[2:]), TABLE_CONE[d]):
                assert got == pytest.approx(want, abs=1e-6)

    def test_csv_byte_format(self, capsys):
        # '.' decimal separator, no thousands separators, LF line endings
        code, out, _ = run_cli(
            ["table", "--model", "cone", "--d", "100,1000", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "\r" not in out
        for line in out.strip().split("\n")[1:]:
            for field in line.split(",")[1:]:
                float(field)  # parses with '.' and no grouping

    def test_original_and_selfavoiding_schemas(self, capsys):
        for model in ("original", "selfavoiding"):
            code, out, _ = run_cli(
                ["table", "--model", model, "--d", "2,3", "--format", "csv"],
                capsys,
            )
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["schema", "d", "upper_c2", "upper_explicit", "upper_known"]
            assert rows[1][0] == f"{model}.v1"

    def test_removal_schema(self, capsys):
        code, out, _ = run_cli(
            ["table", "--model", "removal", "--d", "2", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["schema", "d", "lower", "upper"]
        assert float(rows[1][2]) == pytest.approx(0.8, abs=1e-5)
        assert float(rows[1][3]) == pytest.approx(0.831619, abs=1e-5)

    def test_empty_degree_list_exits_2(self, capsys):
        code, _, err = run_cli(["table", "--model", "cone", "--d", ","], capsys)
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("model", ["cone", "original", "selfavoiding", "removal"])
    @pytest.mark.parametrize("degrees,bad", [("=-1", "-1"), ("=1,2", "1"), ("=0..3", "0")])
    def test_degree_below_two_exits_2(self, model, degrees, bad, capsys):
        code, out, err = run_cli(["table", "--model", model, "--d" + degrees], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: d must be an integer >= 2, got {bad}\n"

    @pytest.mark.parametrize("degrees", [f"2..{10**30}", f"2..{cli._MAX_DEGREES + 2}"])
    def test_more_degrees_than_the_limit_exit_2(self, degrees, capsys):
        code, out, err = run_cli(["table", "--model", "cone", "--d", degrees], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: the degree list has more than {cli._MAX_DEGREES} entries\n"


class TestGammaCommand:
    def test_reports_degree_at_critical_point(self, capsys):
        # q_c(2, 1) to 12 decimals; gamma there is 2
        code, out, _ = run_cli(
            ["gamma", "--c", "1", "--q", "0.272873434984"], capsys
        )
        assert code == 0
        assert "2.000000" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            ["gamma", "--c", "1", "--q", "0.25", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "schema", "c", "q", "gamma", "residual",
            "bracket_lo", "bracket_hi", "terms",
        ]
        assert rows[1][0] == "gamma.v1"

    @pytest.mark.parametrize("q", ["1e-6", "1e-8", "1e-13"])
    def test_small_q_solves(self, q, capsys):
        code, out, err = run_cli(["gamma", "--c", "1", "--q", q, "--format", "csv"], capsys)
        assert (code, err) == (0, "")
        row = dict(zip(*csv.reader(io.StringIO(out))))
        assert float(row["residual"]) <= 1e-12
        assert abs(float(row["gamma"]) * float(q) - 0.5) <= 1e-5

    @pytest.mark.parametrize("c,q", [("0.01", "1e-308"), ("1", "5.6e-309")])
    def test_rate_near_the_float_maximum_solves(self, c, q, capsys):
        code, out, err = run_cli(["gamma", "--c", c, "--q", q, "--format", "csv"], capsys)
        assert (code, err) == (0, "")
        row = dict(zip(*csv.reader(io.StringIO(out))))
        assert float(row["residual"]) <= 1e-12

    @pytest.mark.parametrize("q", ["1e-310", "5e-324"])
    def test_subnormal_q_names_the_overflow(self, q, capsys):
        code, out, err = run_cli(["gamma", "--c", "1", "--q", q], capsys)
        assert (code, out) == (2, "")
        assert "1/q overflows" in err and "series diverges" not in err


class TestSimulateCommand:
    def test_firework_byte_identical_across_runs(self, capsys):
        args = ["simulate", "firework", "--c", "1", "--q", "0.25", "--n", "20",
                "--replicates", "100000", "--seed", "7"]
        code, first, _ = run_cli(args, capsys)
        assert code == 0
        code, second, _ = run_cli(args, capsys)
        assert first == second

    def test_firework_csv_schema(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "firework", "--c", "0.8", "--q", "0.2", "--n", "5",
             "--replicates", "2000", "--seed", "3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["schema", "site", "hits", "p_hat", "u_exact", "z"]
        assert len(rows) == 7
        assert all(r[0] == "firework.v1" for r in rows[1:])
        # the estimator column tracks the exact renewal column
        for row in rows[1:]:
            assert abs(float(row[5])) < 6.0

    @pytest.mark.parametrize("n", [10**30, cli._MAX_SITES + 1])
    def test_firework_sites_past_the_limit_exit_2(self, n, capsys):
        """Refused before any library call: a run holds memory for every site."""
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                f"simulate firework --c 1 --q 0.25 --n {n} --replicates 10 --seed 1".split(), capsys
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: n must be at most {cli._MAX_SITES}, got {n}\n"
        assert peak < 2**20

    def test_frog_reports_histogram_and_classification(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "frog", "--d", "2", "--c", "1", "--q", "0.35",
             "--max-depth", "12", "--replicates", "10000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert "reach_fraction" in out
        assert "growth classification" in out
        assert "supercritical" in out
        # 13 histogram rows (depths 0..12) plus header and the verdict line
        assert len(out.strip().splitlines()) == 15

    def test_frog_byte_identical_across_runs(self, capsys):
        args = ["simulate", "frog", "--d", "2", "--c", "1", "--q", "0.3",
                "--max-depth", "8", "--replicates", "1000", "--seed", "9",
                "--format", "csv"]
        code, first, _ = run_cli(args, capsys)
        assert code == 0
        code, second, _ = run_cli(args, capsys)
        assert first == second
        rows = list(csv.reader(io.StringIO(first)))
        assert rows[0] == ["schema", "depth", "count", "reach_fraction"]

    def test_frog_rejects_invalid_params(self, capsys):
        code, _, err = run_cli(
            ["simulate", "frog", "--d", "2", "--c", "1", "--q", "0.6",
             "--max-depth", "5", "--replicates", "10", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "d*q" in err

    def test_frog_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            ["simulate", "frog", "--d", "2", "--c", "1", "--q", "0.35",
             "--max-depth", "30", "--replicates", "100", "--seed", "7",
             "--cap", "5"],
            capsys,
        )
        assert code == 3
        assert "cap" in err

    def test_frog_cap_writes_only_the_error(self, capsys):
        code, out, err = run_cli(
            "simulate frog --d 2 --c 1 --q 0.35 --max-depth 30 --replicates 200 "
            "--seed 7 --cap 5".split(),
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == "error: activated set exceeded cap of 5 vertices\n"

    def test_frog_runs_at_the_config_default_cap_without_the_flag(self, capsys, monkeypatch):
        default = FrogSimConfig._field_defaults["activation_cap"]
        simulate_frog, seen = cli.simulate_frog, []

        def recording(config):
            seen.append(config)
            return simulate_frog(config)

        monkeypatch.setattr(cli, "simulate_frog", recording)
        code, _, err = run_cli(
            "simulate frog --d 2 --c 1 --q 0.3 --max-depth 4 --replicates 10 --seed 1".split(), capsys
        )
        assert (code, err) == (0, "")
        assert seen[0].activation_cap == default == 10_000_000

    def test_frog_cap_below_one_exits_2(self, capsys):
        code, out, err = run_cli(
            "simulate frog --d 2 --c 1 --q 0.3 --max-depth 4 --replicates 10 --seed 1 --cap 0".split(),
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: activation_cap must be >= 1, got 0\n"

    def test_frog_rejects_depths_whose_vertex_numbers_alias(self, capsys):
        args = ["simulate", "frog", "--d", "10", "--c", "1", "--q", "0.01",
                "--replicates", "5", "--seed", "1", "--max-depth"]
        code, _, err = run_cli(args + ["20"], capsys)
        assert code == 2
        assert "2^64" in err
        code, _, err = run_cli(args + ["19"], capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("fmt, note", [
        ("plain", "growth classification (horizon 200): subcritical\n"),
        ("jsonl", json.dumps({"schema": "frog.v1.note",
                              "note": "growth classification (horizon 200): subcritical"}) + "\n"),
    ])
    def test_frog_note_classifies_at_horizon_200(self, fmt, note, capsys):
        code, out, err = run_cli(
            ["simulate", "frog", "--d", "2", "--c", "1", "--q", "0.1", "--max-depth", "3",
             "--replicates", "10", "--seed", "0", "--format", fmt],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.endswith(note)

    def test_frog_has_no_horizon_flag(self, capsys):
        """The classification horizon is fixed at 200, so --horizon is an unknown argument."""
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "frog", "--d", "2", "--c", "1", "--q", "0.35", "--max-depth", "6",
                  "--replicates", "100", "--seed", "1", "--horizon", "5"])
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --horizon 5" in captured.err


GOLDEN = dict(case.values for case in _golden_cases())
# the golden commands and failures that run in a real interpreter, from start to exit
REAL_PROCESS_CASES = [
    (args, 0, GOLDEN[args], "")
    for args in (
        "qc --d 2 --c 1 --format csv",
        "simulate firework --c 1 --q 0.25 --n 30 --replicates 20000 --seed 7 --format csv",
        "simulate frog --d 2 --c 1 --q 0.35 --max-depth 12 --replicates 30000 --seed 7 --format csv",
    )
] + [
    ("qc --d 1 --c 1", 2, "", "error: d must be an integer >= 2, got 1\n"),
    ("simulate frog --d 2 --c 1 --q 0.35 --max-depth 30 --replicates 200 --seed 7 --cap 5",
     3, "", "error: activated set exceeded cap of 5 vertices\n"),
]


@pytest.mark.parametrize("args,code,out,err", REAL_PROCESS_CASES,
                         ids=[case[0] for case in REAL_PROCESS_CASES])
def test_a_real_process_matches_the_golden_and_main(args, code, out, err, capsys):
    """Exit code, stdout and stderr of a whole interpreter run, the exit hooks included."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from frogcrit.cli import main; sys.exit(main())",
         *args.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert run_cli(args.split(), capsys) == (code, out, err)
