import argparse
import itertools
import json
import math

import numpy as np
import pytest

from semiclassics import (
    CubicModel,
    IntegratorConfig,
    SemiclassicalContext,
    corrected_quasi_bound_energy,
    crossing_time,
    find_pole,
    turning_points,
    wkb_lifetime,
)
from semiclassics.cli import MAX_POLES, _build_parser, _cell, _config, _render, main
from semiclassics.gutzwiller import OrbitModel, PoleIndex
from tests.test_gutzwiller import double_sum_response

LINEAR_ORBIT = {
    "name": "linear-demo",
    "lambda": 2,
    "S": [0.0, 6.283185307179586],
    "w": [0.5],
    "T": [6.283185307179586],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = [line for line in text.strip().split("\n") if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRender:
    # all-float rows (one template per row) and mixed rows (cell by cell)
    HEADERS = ["a", "b", "c", "d", "e", "f"]
    ROWS = [
        (math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(-1 / 3)),
        (0.1, np.float64(1e300), 2.0**60, 1.0, -2.5e-8, np.float64(0.0)),
        (None, "x1", 7, 2**53 + 1, True, np.float64(0.1)),
        (False, -7, None, "", math.nan, 12345678.9),
        (3, True, 2**53 + 1, 0.5, np.float64(2.0), -0.0),  # numbers, not all floats
    ]

    def test_csv_rows_are_the_cells(self):
        expected = [",".join(self.HEADERS) + "\n"]
        expected += [",".join(_cell(v, 17, "") for v in row) + "\n" for row in self.ROWS]
        assert list(_render("csv", self.HEADERS, iter(self.ROWS))) == expected
        assert expected[1] == "nan,inf,-inf,-0,4.9406564584124654e-324,-0.33333333333333331\n"
        assert expected[3] == ",x1,7,9007199254740993,True,0.10000000000000001\n"
        assert expected[5] == "3,True,9007199254740993,0.5,2,-0\n"

    def test_table(self):
        assert list(_render("table", self.HEADERS, self.ROWS)) == [
            "    a       b                 c                 d             e            f\n",
            "  nan     inf              -inf                -0  4.94066e-324    -0.333333\n",
            "  0.1  1e+300       1.15292e+18                 1      -2.5e-08            0\n",
            " none      x1                 7  9007199254740993          True          0.1\n",
            "False      -7              none                             nan  1.23457e+07\n",
            "    3    True  9007199254740993               0.5             2           -0\n",
        ]


class TestRenderBlocks:
    # all-float rows are formatted 64 at a time; the joined text must be
    # the per-row text of every row, whatever the block boundaries
    HEADERS = ["t", "re_x", "im_x", "re_p", "im_p", "energy_drift"]
    SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -1 / 3, 1e300]

    def rows(self, count):
        # Python floats and np.float64 values mixed within rows
        cells = itertools.cycle(self.SPECIAL + [np.float64(v) for v in self.SPECIAL[::-1]])
        return [tuple(itertools.islice(cells, len(self.HEADERS))) for _ in range(count)]

    def per_row(self, rows):
        return ",".join(self.HEADERS) + "\n" + "".join(
            ",".join(_cell(v, 17, "") for v in row) + "\n" for row in rows
        )

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
    def test_float_rows(self, count):
        rows = self.rows(count)
        text = "".join(_render("csv", self.HEADERS, iter(rows)))
        assert text == self.per_row(rows)
        assert text.count("\n") == count + 1
        if count:
            first = "-0,nan,inf,-inf,4.9406564584124654e-324,0.10000000000000001"
            assert text.split("\n")[1] == first

    def test_mixed_row_in_the_second_block(self):
        rows = self.rows(129)
        rows[70] = (None, 7, "x1", 2**53 + 1, np.float64(-0.0), math.nan)
        text = "".join(_render("csv", self.HEADERS, iter(rows)))
        assert text == self.per_row(rows)
        assert text.split("\n")[71] == ",7,x1,9007199254740993,-0,nan"


class TestTau:
    def test_table_output(self, capsys):
        code, out, err = run(capsys, "tau", "--g", "0.12522")
        assert code == 0
        assert "547.25" in out

    def test_reference_grid(self, capsys):
        code, out, _ = run(
            capsys, "tau", "--g", "0.12522", "0.14311", "0.16099", "0.17888",
            "--format", "csv",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["g", "tau"]
        assert [round(float(r[1])) for r in rows] == [547, 85, 24, 10]

    def test_full_precision_csv(self, capsys):
        code, out, _ = run(capsys, "tau", "--g", "0.17888", "--format", "csv")
        _, rows = read_csv(out)
        assert float(rows[0][1]) == wkb_lifetime(0.17888)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tau", "--g", "0.17888", "--format", "json")
        payload = json.loads(out)
        assert payload["rows"][0]["tau"] == pytest.approx(10.2277, abs=1e-4)

    def test_nonpositive_g_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tau", "--g", "-0.5")
        assert code == 2
        assert "positive" in err

    def test_manifest_on_stderr(self, capsys):
        code, _, err = run(capsys, "tau", "--g", "0.17888")
        manifest = json.loads(err.strip().split("\n")[0])
        assert manifest["command"] == "tau"
        assert manifest["parameters"]["g"] == [0.17888]
        assert "version" in manifest and "timestamp" in manifest


class TestTurningPoints:
    def test_known_roots(self, capsys):
        # g = 0.002, E = 1e-5: two roots 9e-3 apart near the origin and one
        # near 250 (a Newton polish once stalled there)
        for g, energy in ((0.1, 0.5), (0.002, 1e-5)):
            code, out, _ = run(
                capsys, "turning-points", "--g", str(g), "--energy", f"re={energy},im=0",
                "--format", "csv",
            )
            assert code == 0
            header, rows = read_csv(out)
            assert header == ["root", "re", "im"]
            expected = turning_points(CubicModel(g), complex(energy))
            for row, ref in zip(rows, expected):
                assert float(row[1]) == pytest.approx(ref.real, abs=1e-12)
                assert float(row[2]) == pytest.approx(ref.imag, abs=1e-12)

    def test_barrier_top_energy_fails_cleanly(self, capsys):
        code, _, err = run(
            capsys, "turning-points", "--g", "0.5",
            "--energy", f"re={1.0 / (54.0 * 0.25)},im=0",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("g", ["1e-300", "1e-160", "1e-120"])
    def test_coupling_below_the_floor_fails_cleanly(self, capsys, g):
        # below 8.86e-104 the far root near 1/(2g) cubes to an overflow;
        # these once failed as "float division by zero", a missed residual
        # and "Numerical result out of range"
        code, out, err = run(capsys, "turning-points", "--energy", "1", "--g", g)
        assert code == 1
        assert out == ""
        assert f"coupling g={float(g)!r} is below 8.85927e-104" in err

    def test_coupling_above_the_floor(self, capsys):
        code, out, _ = run(capsys, "turning-points", "--energy", "1", "--g", "1e-100",
                           "--format", "csv")
        assert code == 0
        _, rows = read_csv(out)
        assert [float(row[1]) for row in rows] == pytest.approx([-2**0.5, 2**0.5, 5e99])


class TestTrajectory:
    def test_csv_file_contract(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys, "trajectory", "--g", "0.1", "--energy", "re=0.3,im=0",
            "--t-max", "5", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "t,re_x,im_x,re_p,im_p,energy_drift"
        assert len(lines) == 1 + 101  # header + samples every 0.05 up to 5.0
        assert "x3" in out  # turning points printed
        manifest = json.loads(err.strip().split("\n")[0])
        assert manifest["parameters"]["t_max"] == 5.0

    def test_zero_length_run(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "trajectory", "--g", "0.1", "--energy", "re=0.3,im=0",
            "--t-max", "0", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2
        first = lines[1].split(",")
        assert float(first[0]) == 0.0

    @pytest.mark.parametrize(
        "argv, reason",
        [
            # 2e13 samples: over the sample cap
            (["--g", "0.1", "--energy", "re=0.3,im=0", "--t-max", "1e12"], "samples"),
            # explicit start at the barrier-top energy: no distinct turning points
            (["--g", "0.5", "--energy", f"re={1.0 / (54.0 * 0.25)},im=0",
              "--x0", "re=0.1,im=0", "--t-max", "1"], "barrier top"),
            # a subnormal interval: the sample count overflows to inf
            (["--g", "0.1", "--t-max", "100", "--sample-interval", "1e-320"], "samples"),
        ],
    )
    def test_failed_run_writes_no_file(self, capsys, tmp_path, argv, reason):
        out_path = tmp_path / "traj.csv"
        code, _, err = run(capsys, "trajectory", *argv, "--out", str(out_path))
        assert code == 1
        assert reason in err
        assert not out_path.exists()

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "trajectory", "--g", "0.1", "--energy", "re=0.3,im=0"
        )
        assert code == 2
        assert "--out" in err

    def test_bound_run_stays_left_of_x3(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "trajectory", "--g", "0.1", "--energy", "re=0.3,im=0",
            "--t-max", "50", "--out", str(out_path),
        )
        assert code == 0
        _, rows = read_csv(out_path.read_text(encoding="utf-8"))
        re_x = np.array([float(r[1]) for r in rows])
        x3 = turning_points(CubicModel(0.1), 0.3 + 0j).x3
        assert np.all(re_x < x3.real)


class TestCrossingTime:
    def test_no_crossing_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "crossing-time", "--g", "0.17888", "--t-max", "30"
        )
        assert code == 1
        assert "never reached" in err

    def test_matches_library_default_policies(self, capsys):
        code, out, _ = run(
            capsys, "crossing-time", "--g", "0.17888", "--format", "csv"
        )
        assert code == 0
        _, rows = read_csv(out)
        g = 0.17888
        model = CubicModel(g)
        energy = corrected_quasi_bound_energy(g).energy
        x1 = turning_points(model, energy).x1
        expected = crossing_time(model, energy, x1, 0j)
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-12)


class TestTable1:
    def test_fast_subset_csv(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table1", "--g", "0.17888", "--format", "csv",
            "--out", str(out_path),
        )
        assert code == 0
        header, rows = read_csv(out_path.read_text(encoding="utf-8"))
        assert header == ["g", "t_c", "tau", "ratio", "t_c_ref", "tau_ref"]
        row = rows[0]
        assert float(row[1]) == pytest.approx(50.445, abs=0.01)
        assert float(row[2]) == pytest.approx(10.2277, abs=1e-3)
        assert float(row[3]) == pytest.approx(float(row[1]) / float(row[2]), rel=1e-12)
        assert float(row[4]) == 49.0
        assert float(row[5]) == 10.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            code, _, _ = run(
                capsys, "table1", "--g", "0.17888", "0.16099", "--format", "csv",
                "--out", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_no_crossing_renders_as_none_token(self, capsys, tmp_path):
        # horizon too short for the crossing: the row says "none" in the
        # table and leaves the CSV cell empty
        code, out, _ = run(capsys, "table1", "--g", "0.17888", "--t-max", "30")
        assert code == 0
        assert "none" in out
        out_path = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table1", "--g", "0.17888", "--t-max", "30", "--format", "csv",
            "--out", str(out_path),
        )
        assert code == 0
        _, rows = read_csv(out_path.read_text(encoding="utf-8"))
        assert rows[0][1] == ""
        assert rows[0][3] == ""

    def test_non_benchmark_g_has_empty_reference(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table1", "--g", "0.18", "--format", "csv", "--out", str(out_path)
        )
        assert code == 0
        _, rows = read_csv(out_path.read_text(encoding="utf-8"))
        assert rows[0][4] == ""
        assert rows[0][5] == ""


class TestGutzwiller:
    @pytest.fixture()
    def orbit_file(self, tmp_path):
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(LINEAR_ORBIT), encoding="utf-8")
        return path

    def test_eval_matches_brute_force(self, capsys, orbit_file):
        # midway between the (k=0, s=0) and (k=0, s=1) poles in Re E
        code, out, _ = run(
            capsys, "gutzwiller", "eval", "--orbit", str(orbit_file),
            "--energy", "re=1.0,im=0.0", "--format", "csv",
        )
        assert code == 0
        _, rows = read_csv(out)
        value = complex(float(rows[0][0]), float(rows[0][1]))
        orbit = OrbitModel(name="linear-demo", s_coeffs=(0.0, 2 * math.pi),
                           w_coeffs=(0.5,), t_coeffs=(2 * math.pi,), lam=2)
        oracle = double_sum_response(orbit, 1.0 + 0j)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)

    def test_poles_match_closed_form(self, capsys, orbit_file):
        code, out, _ = run(
            capsys, "gutzwiller", "poles", "--orbit", str(orbit_file),
            "--k-max", "1", "--s-max", "1", "--format", "csv",
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            k, s = int(row[0]), int(row[1])
            expected = complex(2 / 4 + s, -0.5 * (k + 0.5) / (2 * math.pi))
            assert complex(float(row[2]), float(row[3])) == pytest.approx(
                expected, abs=1e-12
            )
            assert float(row[4]) <= 1e-12

    def test_malformed_orbit_reports_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        payload = {k: v for k, v in LINEAR_ORBIT.items() if k != "lambda"}
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(
            capsys, "gutzwiller", "eval", "--orbit", str(path), "--energy", "1.0"
        )
        assert code != 0
        assert "lambda" in err

    def test_pole_failures_reported_per_index_without_aborting(self, capsys, tmp_path):
        # S = E^2 has dS/dE = 0 at the default starting point, so every
        # pole search hits DegenerateAction; each failure is reported and
        # the grid still completes
        path = tmp_path / "stationary.json"
        path.write_text(
            json.dumps({"name": "stationary", "lambda": 0, "S": [0.0, 0.0, 1.0],
                        "w": [0.5], "T": [0.0, 2.0]}),
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "gutzwiller", "poles", "--orbit", str(path),
            "--k-max", "1", "--s-max", "1",
        )
        assert code == 1
        assert err.count("failed") == 4


class TestReversibility:
    def test_harmonic_demo(self, capsys):
        code, out, _ = run(
            capsys, "reversibility", "--harmonic",
            "--duration", str(2.0 * math.pi), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["retrace_error"] <= 1e-10
        assert payload["rows"][0]["rel_tol"] == 1e-10

    def test_zero_duration(self, capsys):
        code, out, _ = run(
            capsys, "reversibility", "--harmonic", "--duration", "0",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["retrace_error"] == 0.0

    def test_cubic_bound_energy(self, capsys):
        code, out, _ = run(
            capsys, "reversibility", "--g", "0.1", "--energy", "re=0.3,im=0",
            "--duration", "50", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["retrace_error"] <= 1e-6

    def test_requires_g_or_harmonic(self, capsys):
        code, _, err = run(capsys, "reversibility", "--duration", "1")
        assert code == 2
        assert "harmonic" in err

    def test_duration_beyond_the_horizon_fails_cleanly(self, capsys):
        # refused before the round trip, which would never return
        code, out, err = run(capsys, "reversibility", "--g", "0.1", "--duration", "1e300")
        assert code == 1
        assert out == ""
        assert "t_max = 200000" in err
        assert "Traceback" not in err


# Every argv must be refused by the parser: exit 2, nothing on stdout.
HOSTILE_ARGV = [
    *(
        [*base, "--g", bad]
        for base in (
            ["tau"],
            ["turning-points"],
            ["trajectory", "--out", "traj.csv"],
            ["crossing-time"],
            ["table1"],
            ["reversibility", "--duration", "1"],
        )
        for bad in ("nan", "inf", "-1")
    ),
    ["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", "abc"],
    ["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", "re=nan,im=0"],
    ["gutzwiller", "poles", "--orbit", "orbit.json", "--k-max", "-3"],
    ["gutzwiller", "poles", "--orbit", "orbit.json", "--hbar", "nan"],
    ["crossing-time", "--g", "0.17888", "--rel-tol", "nan"],
    ["crossing-time", "--g", "0.17888", "--t-max", "inf"],
    ["reversibility", "--harmonic", "--duration", "-1"],
    ["reversibility", "--harmonic", "--g", "0.1", "--duration", "1"],
    # flags a subcommand does not read are not accepted
    ["tau", "--g", "0.17888", "--rel-tol", "1e-3"],
    ["turning-points", "--g", "0.17888", "--t-max", "5"],
    ["gutzwiller", "poles", "--orbit", "orbit.json", "--abs-tol", "1e-9"],
    ["reversibility", "--harmonic", "--duration", "1", "--t-max", "5"],
    ["trajectory", "--g", "0.1", "--out", "traj.csv", "--format", "csv"],
    # a complex number names each part exactly once
    ["turning-points", "--g", "0.1", "--energy", "re=1,im=2,re=0.3"],
    ["crossing-time", "--g", "0.1", "--x0", "re=0.1,im=0,im=1", "--t-max", "1"],
]


@pytest.mark.parametrize("argv", HOSTILE_ARGV, ids=" ".join)
def test_hostile_flags_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_parser_is_built_once_and_reused(capsys, tmp_path, monkeypatch):
    # usage errors and --help between valid runs leave the one parser as
    # it was: reruns give the same bytes and exit codes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit.json").write_text(json.dumps(LINEAR_ORBIT), encoding="utf-8")
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        constructed.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    _build_parser.cache_clear()
    valid = [
        ["table1", "--g", "0.17888", "--format", "csv"],
        ["gutzwiller", "poles", "--orbit", "orbit.json"],
        ["trajectory", "--g", "0.1", "--energy", "re=0.3,im=0", "--t-max", "1",
         "--out", "traj.csv"],
    ]

    def outcomes():
        return [run(capsys, *argv)[:2] for argv in valid], (tmp_path / "traj.csv").read_bytes()

    first = outcomes()
    built = len(constructed)
    assert built > 0 and [code for code, _ in first[0]] == [0, 0, 0]
    assert run(capsys, *HOSTILE_ARGV[0])[0] == 2
    code, help_text, _ = run(capsys, "gutzwiller", "poles", "--help")
    assert code == 0 and "--k-max" in help_text
    assert outcomes() == first
    assert len(constructed) == built
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("command", ["tau", "table1", "turning-points", "crossing-time"])
def test_lifetime_overflow_is_a_failed_run(capsys, command):
    # below g ~ 0.0137 the lifetime exp(2 / (15 g**2)) overflows a float
    code, out, err = run(capsys, command, "--g", "0.01")
    assert code == 1
    assert out == ""
    assert "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["turning-points", "--g", "0.1", "--energy", "-5e-1"],
         ["turning-points", "--g", "0.1", "--energy", "-0.5"]),
        (["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", "-5e-1"],
         ["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", "re=-0.5,im=0"]),
    ],
    ids=["turning-points", "gutzwiller eval"],
)
def test_exponent_form_negative_is_a_value(capsys, tmp_path, monkeypatch, argv, same_as):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit.json").write_text(json.dumps(LINEAR_ORBIT), encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == run(capsys, *same_as, "--format", "csv")[1]


# The manifest's parameters are the parsed flags plus the values the
# command resolved; a replay reads exactly these keys.
MANIFEST_PARAMETERS = [
    (["tau", "--g", "0.17888"], {"format", "g", "out"}),
    (["turning-points", "--g", "0.1"], {"energy", "format", "g", "out"}),
    (["trajectory", "--g", "0.1", "--t-max", "1", "--out", "traj.csv"],
     {"abs_tol", "branch", "energy", "g", "out", "p0", "rel_tol", "sample_interval", "t_max",
      "x0", "x0_policy"}),
    (["crossing-time", "--g", "0.17888"],
     {"abs_tol", "branch", "energy", "format", "g", "out", "p0", "rel_tol", "t_max", "x0",
      "x0_policy"}),
    (["table1", "--g", "0.17888"],
     {"abs_tol", "energy_policy", "format", "g", "out", "rel_tol", "t_max", "x0_policy"}),
    (["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", "1.0"],
     {"energy", "format", "hbar", "orbit", "out"}),
    (["gutzwiller", "poles", "--orbit", "orbit.json", "--k-max", "0", "--s-max", "0"],
     {"format", "hbar", "k_max", "orbit", "out", "s_max"}),
    (["reversibility", "--harmonic", "--duration", "1"],
     {"abs_tol", "branch", "duration", "energy", "format", "g", "harmonic", "out", "p0",
      "rel_tol", "x0", "x0_policy"}),
]


@pytest.mark.parametrize("argv, parameters", MANIFEST_PARAMETERS,
                         ids=[" ".join(argv) for argv, _ in MANIFEST_PARAMETERS])
def test_manifest_keys(capsys, tmp_path, monkeypatch, argv, parameters):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit.json").write_text(json.dumps(LINEAR_ORBIT), encoding="utf-8")
    code, _, err = run(capsys, *argv)
    assert code == 0
    manifest = json.loads(err.split("\n")[0])
    assert set(manifest) == {"command", "parameters", "timestamp", "version"}
    assert set(manifest["parameters"]) == parameters


@pytest.mark.parametrize(
    "argv, t_max",
    [
        # trajectory's own horizon is the one CLI default that differs
        (["trajectory", "--g", "0.1", "--out", "traj.csv"], 100.0),
        (["crossing-time", "--g", "0.1"], IntegratorConfig().t_max),
        (["table1"], IntegratorConfig().t_max),
        (["reversibility", "--harmonic", "--duration", "1"], IntegratorConfig().t_max),
    ],
    ids=["trajectory", "crossing-time", "table1", "reversibility"],
)
def test_integration_defaults_are_the_library_defaults(argv, t_max):
    assert _config(_build_parser().parse_args(argv)) == IntegratorConfig(t_max=t_max)


def test_pole_grid_is_bounded(capsys, tmp_path, monkeypatch):
    # refused before any search: a pole search here fails the test at once
    def no_search(*args):
        raise AssertionError("pole search started")

    monkeypatch.setattr("semiclassics.cli.find_pole", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit.json").write_text(json.dumps(LINEAR_ORBIT), encoding="utf-8")
    code, out, err = run(
        capsys, "gutzwiller", "poles", "--orbit", "orbit.json",
        "--k-max", "100000", "--s-max", "100000", "--out", "poles.csv",
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert not (tmp_path / "poles.csv").exists()
    with pytest.raises(AssertionError, match="pole search started"):
        main(["gutzwiller", "poles", "--orbit", "orbit.json",
              "--k-max", "0", "--s-max", str(MAX_POLES - 1)])


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--g", "0.17888", "0.16099"],
        ["turning-points", "--g", "0.1"],
        ["crossing-time", "--g", "0.17888"],
        ["table1", "--g", "0.17888", "0.18"],
        ["gutzwiller", "eval", "--orbit", "orbit.json", "--energy", "1.0"],
        ["gutzwiller", "poles", "--orbit", "orbit.json", "--k-max", "1", "--s-max", "1"],
        ["reversibility", "--harmonic", "--duration", "1"],
    ],
    ids=" ".join,
)
def test_json_rows_are_the_csv_rows(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit.json").write_text(json.dumps(LINEAR_ORBIT), encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, cells = read_csv(out)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == json.loads(err.split("\n")[0])["command"]
    assert len(payload["rows"]) == len(cells) > 0
    for row, csv_row in zip(payload["rows"], cells):
        assert list(row) == header
        for value, cell in zip(row.values(), csv_row):
            if value is None:
                assert cell == ""
            elif isinstance(value, (str, int)):
                assert cell == str(value)
            else:
                assert float(cell) == value
