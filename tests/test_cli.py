import json
import math
import os
from pathlib import Path

import pytest

from chemostat import (certify, cli, integrate, model_from_dict, normalize,
                       verify_decrease)
from chemostat.certificates import energy_constants, standard_grid
from chemostat.rk45 import StiffnessError

FIG4 = {
    "D": 1.0, "S0": 1.0,
    "constants": {"c2": 5},
    "species": [
        {"label": "winner",
         "monod": {"a": 1, "b": 0.1, "Di": 0.6, "yield": {"poly": [1, 4]}}},
        {"label": "rival",
         "monod": {"a": 1, "b": 0.15, "Di": 0.55, "yield": "1+c2*S"}},
    ],
}

FIG2 = {
    "D": 1.0, "S0": 1.0,
    "species": [
        {"label": "pw",
         "monod": {"a": 2, "b": 0.58, "Di": 1.0, "yield": {"poly": [1, 0, 46]}}},
    ],
}

WASHOUT = {
    "D": 1.0, "S0": 1.0,
    "species": [{"label": "s", "monod": {"a": 1, "b": 1, "Di": 1}}],
}


@pytest.fixture
def model_file(tmp_path):
    def write(data, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return cli.main(list(argv))


class TestAnalyze:
    def test_certified_exit_zero(self, model_file, tmp_path):
        out = str(tmp_path / "out")
        assert run("analyze", "--model", model_file(FIG4), "--out", out) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == "GAS-certified"
        assert report["lambda1"] == pytest.approx(0.15, abs=1e-9)
        header = (tmp_path / "out" / "gi_curves.csv").read_text().splitlines()[0]
        assert header == "S,g2"

    def test_uncertified_exit_two(self, model_file, tmp_path):
        code = run("analyze", "--model", model_file(FIG4),
                   "--set", "constants.c2=80", "--out", str(tmp_path / "o"))
        assert code == 2

    def test_unstable_equilibrium_is_not_certified(self, model_file, tmp_path):
        # the growth's pole at 0.3 is where break_even bisects a sign change,
        # and every certificate condition holds on the grid around it
        pole = {"D": 1, "S0": 1,
                "species": [{"label": "s", "growth": "S/(S-0.3)-0.5",
                             "uptake": "S"}]}
        out = tmp_path / "o"
        assert run("analyze", "--model", model_file(pole), "--out", str(out)) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "unstable"
        assert report["local_stability"] == "unstable"
        assert any("linearly unstable" in note for note in report["notes"])

    def test_washout_exit_three(self, model_file, tmp_path):
        code = run("analyze", "--model", model_file(WASHOUT),
                   "--out", str(tmp_path / "o"))
        assert code == 3

    def test_malformed_json_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("analyze", "--model", str(bad), "--out", str(tmp_path)) == 1

    def test_nonvanishing_uptake_exit_one(self, model_file, tmp_path):
        bad = {"D": 1, "S0": 1,
               "species": [{"label": "s", "growth": "S-0.5", "uptake": "0.1+S"}]}
        code = run("analyze", "--model", model_file(bad), "--out", str(tmp_path))
        assert code == 1

    def test_bad_expression_exit_one(self, model_file, tmp_path):
        bad = {"D": 1, "S0": 1,
               "species": [{"label": "s", "growth": "S-(0.5", "uptake": "S"}]}
        code = run("analyze", "--model", model_file(bad), "--out", str(tmp_path))
        assert code == 1

    def test_byte_identical_reruns(self, model_file, tmp_path):
        path = model_file(FIG4)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("analyze", "--model", path, "--out", a) == 0
        assert run("analyze", "--model", path, "--out", b) == 0
        for name in ("report.json", "gi_curves.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_echo_model_round_trips(self, model_file, tmp_path, capsys):
        assert run("analyze", "--model", model_file(FIG4), "--echo-model",
                   "--out", str(tmp_path / "o")) == 0
        echoed = json.loads(capsys.readouterr().out)
        path2 = tmp_path / "echoed.json"
        path2.write_text(json.dumps(echoed))
        assert run("analyze", "--model", str(path2),
                   "--out", str(tmp_path / "o2")) == 0
        r1 = json.loads((tmp_path / "o" / "report.json").read_text())
        r2 = json.loads((tmp_path / "o2" / "report.json").read_text())
        assert r1 == r2

    def test_invalid_tolerance_exit_one(self, model_file, tmp_path):
        code = run("analyze", "--model", model_file(FIG4),
                   "--grid", "-5", "--out", str(tmp_path))
        assert code == 1

    def test_unknown_flag_rejected(self, model_file):
        with pytest.raises(SystemExit):
            run("analyze", "--model", model_file(FIG4), "--frobnicate")

    @pytest.mark.parametrize("name", ["two_species", "quadratic_yield", "washout"])
    def test_report_matches_golden(self, name, tmp_path):
        # Refactors must keep report.json byte for byte; regenerate the
        # golden file only with a change that means to alter the report.
        run("analyze", "--model", str(ROOT / "models" / f"{name}.json"),
            "--out", str(tmp_path))
        golden = ROOT / "tests" / "golden" / name / "report.json"
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()


class TestSimulate:
    def test_writes_trajectory_and_lyapunov(self, model_file, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--model", model_file(FIG4), "--out", str(out),
                   "--t-end", "50")
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,S,x1,x2"
        assert len(lines) > 10
        lyap = (out / "lyapunov.csv").read_text().splitlines()
        assert lyap[0] == "t,V_hsu,Vdot_hsu,V_wl,Vdot_wl"
        # V columns decrease overall
        first_v = float(lyap[1].split(",")[3])
        last_v = float(lyap[-1].split(",")[3])
        assert last_v < first_v

    def test_custom_initial(self, model_file, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--model", model_file(FIG4), "--out", str(out),
                   "--t-end", "5", "--initial", "0.3,0.2,0.4")
        assert code == 0
        first = (out / "trajectory.csv").read_text().splitlines()[1]
        assert first.startswith("0,0.2999999")

    def test_uncertified_model_skips_lyapunov(self, model_file, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--model", model_file(FIG2), "--out", str(out),
                   "--t-end", "20")
        assert code == 0
        assert not (out / "lyapunov.csv").exists()

    def test_washout_model_simulates(self, model_file, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--model", model_file(WASHOUT),
                   "--out", str(out), "--t-end", "50")
        assert code == 0
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-5)  # S -> inflow
        assert float(last[2]) < 1e-6

    @pytest.mark.parametrize("name", ["two_species", "quadratic_yield", "washout"])
    def test_outputs_match_golden(self, name, tmp_path):
        # The stepper and the right-hand side must keep every trajectory bit
        # for bit; regenerate these files only with a change that means to
        # alter the numbers.
        run("simulate", "--model", str(ROOT / "models" / f"{name}.json"),
            "--out", str(tmp_path))
        golden = ROOT / "tests" / "golden" / name
        for csv in ("trajectory.csv", "lyapunov.csv"):
            assert (tmp_path / csv).exists() == (golden / csv).exists()
            if (golden / csv).exists():
                assert (tmp_path / csv).read_bytes() == (golden / csv).read_bytes()

    def test_washout_rival_keeps_lyapunov(self, model_file, tmp_path):
        # GAS-certified with a rival that cannot break even: the report has
        # no gap for it, yet the energy function needs its constant too
        data = {"D": 1.0, "S0": 1.0, "species": [
            {"label": "winner", "monod": {"a": 1, "b": 0.1, "Di": 0.6}},
            {"label": "rival", "monod": {"a": 1, "b": 1, "Di": 1}}]}
        out = tmp_path / "sim"
        assert run("simulate", "--model", model_file(data), "--out", str(out)) == 0
        header = (out / "lyapunov.csv").read_text().splitlines()[0]
        assert header == "t,V_hsu,Vdot_hsu,V_wl,Vdot_wl"
        model = normalize(model_from_dict(data))
        report = certify(model)
        assert report.verdict == "GAS-certified" and report.retained == ()
        traj = integrate(model, [0.5, 0.1, 0.1], 500.0)
        for which in ("wl", "hsu"):
            constants = energy_constants(model, report, which)
            assert verify_decrease(model, traj, which, constants).ok

    def test_infeasible_rival_constant_is_noted(self, model_file, tmp_path,
                                                capsys):
        # the washed-out rival's growth -(S-c)^2 vanishes at a grid point
        # below lambda_1 = 0.15, where no constant can dominate it
        c = standard_grid()[205]
        data = {"D": 1.0, "S0": 1.0, "constants": {"c": c}, "species": [
            {"label": "winner", "monod": {"a": 1, "b": 0.1, "Di": 0.6}},
            {"label": "rival", "growth": "-(S-c)^2", "uptake": "S"}]}
        out = tmp_path / "sim"
        assert run("simulate", "--model", model_file(data), "--out", str(out)) == 0
        assert (out / "trajectory.csv").exists()
        assert not (out / "lyapunov.csv").exists()
        err = capsys.readouterr().err
        assert "no wl energy: species 2 has no feasible" in err
        assert "no hsu energy: species 2 has no feasible" in err

    def test_stiffness_exit_four(self, model_file, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise StiffnessError(0.5, [0.1, 0.1])
        monkeypatch.setattr(cli.dynamics, "integrate", boom)
        code = run("simulate", "--model", model_file(FIG4),
                   "--out", str(tmp_path / "o"))
        assert code == 4


class TestCcrit:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "cc"
        assert run("ccrit", "--b", "0,0.1,1", "--out", str(out)) == 0
        rows = (out / "ccrit.csv").read_text().splitlines()
        assert rows[0] == "b,c_crit"
        b0 = rows[1].split(",")
        assert float(b0[1]) == pytest.approx(1.0, abs=1e-9)
        b01 = rows[2].split(",")
        assert 6.4 <= float(b01[1]) <= 6.6
        assert rows[3].split(",")[1] == "inf"

    def test_default_grid(self, tmp_path):
        out = tmp_path / "cc"
        assert run("ccrit", "--out", str(out)) == 0
        rows = (out / "ccrit.csv").read_text().splitlines()
        assert len(rows) == 102  # header + 101 samples


class TestCycles:
    def test_two_cycles_found(self, model_file, tmp_path):
        out = tmp_path / "cyc"
        code = run("cycles", "--model", model_file(FIG2), "--out", str(out),
                   "--x-lo", "4", "--x-hi", "10", "--cycle-grid", "17")
        assert code == 0
        data = json.loads((out / "cycles.json").read_text())
        assert [c["stability"] for c in data["fixed_points"]] == \
               ["unstable", "stable"]
        disp = (out / "displacement.csv").read_text().splitlines()
        assert disp[0] == "x,x_return,period"
        assert len(disp) >= 18

    def test_integration_flags_rejected(self, model_file):
        with pytest.raises(SystemExit) as exc:
            run("cycles", "--model", model_file(FIG2), "--rtol", "1e-6")
        assert exc.value.code == 2


class TestSweep:
    def test_slope_sweep_matches_narrative(self, model_file, tmp_path):
        out = tmp_path / "sw"
        code = run("sweep", "--model", model_file(FIG4), "--out", str(out),
                   "--sweep", "constants.c2=5,30,80")
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "constants.c2,verdict,gap2_lower,gap2_upper,gap2_feasible"
        feasible = [r.split(",")[-1] for r in rows[1:]]
        assert feasible == ["true", "true", "false"]
        verdicts = [r.split(",")[1] for r in rows[1:]]
        assert verdicts == ["GAS-certified", "GAS-certified",
                            "locally-stable-uncertified"]

    def test_empty_grid_exit_one(self, model_file, tmp_path):
        assert run("sweep", "--model", model_file(FIG4),
                   "--out", str(tmp_path)) == 1

    def test_deterministic_under_parallelism(self, model_file, tmp_path,
                                             monkeypatch):
        path = model_file(FIG4)
        monkeypatch.setenv("CHEMOSTAT_THREADS", "3")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("sweep", "--model", path, "--out", out,
                       "--sweep", "constants.c2=5,30,80",
                       "--sweep", "species.0.monod.Di=0.6,0.5") == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
               (tmp_path / "b" / "sweep.csv").read_bytes()
        rows = (tmp_path / "a" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 7  # header + 3*2 cartesian products
