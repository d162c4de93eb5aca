import argparse
import ast
import contextlib
import csv
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    ChargeBranchState,
    PhaseSpaceGrid,
    cli,
    energy,
    errors,
    gaussian_state,
    moyal,
    opmatrix,
    rotator,
    tables,
    wigner,
)
from fvps.cli import (
    EXIT_CODES,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    effective_mass_ratio,
    main,
    packet_grid,
    run_coherent,
    run_factors,
    run_rotator,
    run_wigner,
)
from fvps.pairs import penalty_curve

README = Path(__file__).resolve().parents[1] / "README.md"
TOOLS = README.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import reach
finally:
    sys.path.remove(str(TOOLS))


class TestFactorsCommand:
    def test_reference_pair(self, capsys):
        assert main(["factors", "--p1", "0", "--p2", "1.7320508"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1.060660" in out
        assert "-0.353553" in out

    def test_equal_momenta(self, capsys):
        assert main(["factors", "--p1", "1", "--p2", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eps        = 1" in out
        assert "-0.0625" in out

    def test_missing_flag_exits_2(self, capsys):
        assert main(["factors", "--p1", "1"]) == EXIT_CONFIG
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1e77", "1e200"])
    def test_overflow_exits_3_and_writes_nothing(self, tmp_path, p, capsys):
        # E1 E2 (E1 + E2)^2 overflows from |p| ~ 1e77: purity_rhs would
        # read -0, and at 1e200 eps 0 and purity_rhs NaN
        out = tmp_path / "f.json"
        assert main(["factors", "--p1", p, "--p2", p, "--out", str(out)]) == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert "numerical error" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_large_momenta_below_overflow(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["factors", "--p1", "1e70", "--p2", "1e70", "--out", str(out)]) == EXIT_OK
        values = json.loads(out.read_text())
        assert (values["eps"], values["chi"]) == (1.0, 0.0)
        assert values["purity_rhs"] == pytest.approx(-2.5e-141, rel=1e-12)

    def test_driver_dict(self):
        out = run_factors(0.0, np.sqrt(3.0))
        assert out["eps"] == pytest.approx(3 / (2 * np.sqrt(2)))
        assert out["purity_rhs"] == 0.0

    @pytest.mark.parametrize("p", [1e100, 1e200])
    @pytest.mark.parametrize("errstate", ["ignore", "warn"])
    def test_library_overflow_raises(self, p, errstate):
        # under the caller's numpy settings these read eps 0 and
        # purity_rhs -0 or NaN; RuntimeWarnings are errors in this suite
        with np.errstate(all=errstate), pytest.raises(ArithmeticError, match=re.escape(f"p1={p}, p2={p}")):
            run_factors(p, p)

    def test_library_large_momenta_below_overflow(self):
        with np.errstate(all="ignore"):
            out = run_factors(1e50, 1e50)
        assert out["eps"] == 1.0
        assert np.isfinite(out["purity_rhs"]) and out["purity_rhs"] < 0.0


class TestWignerCommand:
    def test_fig1_preset(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code = main(["wigner", "--preset", "fig1", "--n-points", "256", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("# lambda=8\n")
        moments = json.loads((tmp_path / "w.csv.moments.json").read_text())
        assert moments["var_q_negative"] is True
        prov = json.loads((tmp_path / "w.csv.json").read_text())
        assert prov["command"] == "wigner"
        assert prov["config"]["lambda_resolved"] == 8.0

    def test_weak_localization_variance(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["wigner", "--lambda", "0.1", "--n-points", "256", "--out", str(out)])
        moments = json.loads((tmp_path / "w.csv.moments.json").read_text())
        # sigma = 10: var_q = sigma^2/2
        assert moments["var_q"] == pytest.approx(50.0, rel=0.01)
        assert moments["var_q_negative"] is False

    def test_matrix_layout(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["wigner", "--lambda", "1", "--n-points", "128", "--matrix", "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("p\\q,")
        assert len(lines) == 1 + 128

    def test_missing_lambda_exits_2(self, tmp_path, capsys):
        code = main(["wigner", "--out", str(tmp_path / "w.csv")])
        assert code == EXIT_CONFIG

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["wigner", "--lambda", "1", "--n-points", "128", "--out", str(out1)])
        main(["wigner", "--lambda", "1", "--n-points", "128", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestEvolveCommand:
    def test_check_passes(self, capsys):
        assert main(["evolve", "--lambda", "2", "--t", "5", "--n-points", "256", "--check"]) == EXIT_OK
        assert "max |spectral - wavefunction|" in capsys.readouterr().out

    def test_check_tolerance_failure_exits_3(self, capsys):
        code = main(
            ["evolve", "--lambda", "2", "--t", "5", "--n-points", "256", "--check", "--tol", "1e-18"]
        )
        assert code == EXIT_TOLERANCE

    def test_nan_tolerance_fails_the_check(self, tmp_path, capsys):
        # a tolerance no deviation can meet is a validation error, found
        # before the check runs, not a failed check
        out = tmp_path / "e.json"
        for tol in ("nan", "-1", "inf"):
            argv = ["evolve", "--lambda", "2", "--t", "5", "--n-points", "256", "--check", "--tol", tol]
            assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "validation error: tol must be finite and non-negative" in err
            assert "FAIL" not in err
            assert not out.exists()

    def test_nan_deviation_fails_the_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_evolve_check", lambda *args, **kwargs: float("nan"))
        assert main(["evolve", "--lambda", "2", "--t", "5", "--check"]) == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("t", [1.0, 5.0])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_deviation_matches_out_of_place_formula(self, lam, t):
        # the deviation is formed in place, by the same subtraction,
        # absolute value and maximum as this out-of-place formula
        state, ps, w0 = cli._packet(lam, 512, wigner.EPS_RELATIVISTIC)
        w_prop = moyal.evolve_even(w0, energy, t, ps)
        phi_t = state.phi_plus * np.exp(-1j * energy(state.grid.nodes) * t)
        w_wave = wigner.wigner_even(ChargeBranchState(state.grid, phi_plus=phi_t), +1, ps)
        assert cli.run_evolve_check(lam, t).hex() == float(np.abs(w_prop - w_wave).max()).hex()


def _drift_mass_ratio(lam, p_bar=0.02, t=2.0, n_points=512):
    """p_bar over the slope of the position mean of the evolved field.

    The estimator `effective_mass_ratio` used before its closed form: it
    differences two position means about p_bar t apart, so it carries the
    moments' roundoff amplified about 100-fold.
    """
    grid = packet_grid(lam, p_bar, n_points)
    ps = PhaseSpaceGrid.conjugate(grid)
    w0 = wigner.wigner_even(gaussian_state(grid, lam=lam, p_bar=p_bar), +1, ps)
    w1 = moyal.evolve_even(w0, energy, t, ps)
    drift = (wigner.moments(w1, ps).mean_q - wigner.moments(w0, ps).mean_q) / t
    return p_bar / drift


class TestCoherentCommand:
    def test_effective_mass_table(self, tmp_path):
        out = tmp_path / "mass.csv"
        code = main(["coherent", "--lambdas", "0.5,2", "--out", str(out)])
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        ratios = {float(r[0]): float(r[1]) for r in rows}
        assert ratios[0.5] < ratios[2.0]
        assert ratios[2.0] > 1.5

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 2.0, 4.0])
    def test_matches_evolved_drift(self, lam):
        # measured gap at n = 512: at most 3.7e-13 relative (lam 0.05), all
        # of it the drift's roundoff; the bound leaves a ten-fold margin
        assert effective_mass_ratio(lam, n_points=512) == pytest.approx(_drift_mass_ratio(lam), rel=4e-12)

    def test_builds_no_field(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coherent built a field, evolved it or took its moments")

        for module, name in [(wigner, "wigner_even"), (moyal, "evolve_even"), (wigner, "moments")]:
            monkeypatch.setattr(module, name, refuse)
        rows = run_coherent([0.05, 0.5, 1.0, 2.0, 4.0])
        assert all(ratio >= 1.0 for _, ratio in rows)
        assert main(["coherent", "--out", str(tmp_path / "mass.csv")]) == EXIT_OK

    @pytest.mark.parametrize("lam", [16.0, 32.0])
    def test_strongly_localized_matches_a_fine_grid(self, lam):
        # its grid keeps dp <= 0.34 mc; at 512 nodes (dp = 0.57 and 1.13
        # mc) these read 9.5e-8 and 9.3e-6 relative off
        referee = effective_mass_ratio(lam, n_points=262144)
        assert effective_mass_ratio(lam) == pytest.approx(referee, rel=1e-10)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(lam=st.floats(0.05, 4.0), p_bar=st.floats(0.01, 2.0))
    def test_ratio_at_least_one_and_even_in_p_bar(self, lam, p_bar):
        # v(p) = p/E is odd and rises with slope 1/E^3 <= 1 (natural
        # units), so each pair p_bar +- x of the symmetric packet has mean
        # velocity at most p_bar.  The grid is not symmetric about 0, so
        # evenness holds to roundoff: at most 1e-13 relative, measured over
        # this box at n = 512
        ratio = effective_mass_ratio(lam, p_bar, n_points=512)
        assert ratio >= 1.0
        assert effective_mass_ratio(lam, -p_bar, n_points=512) == pytest.approx(ratio, rel=1e-12)


class TestRotatorCommand:
    def test_orbit_and_peaks(self, tmp_path):
        out = tmp_path / "orbit.csv"
        # the README example's window is too short for its lowest peak
        with pytest.warns(errors.ResolutionWarning, match="fewer than four periods"):
            code = main(
                ["rotator", "--b", "0.5", "--alpha", "3", "--t-max", "1300", "--dt", "1.0", "--out", str(out)]
            )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[:4]
        assert header[0] == "# b=0.5"
        peaks = json.loads((tmp_path / "orbit.csv.peaks.json").read_text())
        assert peaks["peaks"]
        assert peaks["peaks"][0]["frequency"] < 0.2 * peaks["omega"]

    def test_ground_state(self, tmp_path, capsys):
        # alpha = 0 takes log 0 = -inf under the command's divide="raise":
        # the ground state has zero radius and no modulation peak
        out = tmp_path / "orbit.csv"
        code = main(["rotator", "--b", "0.5", "--alpha", "0", "--t-max", "100", "--dt", "1.0", "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert capsys.readouterr().out == "no modulation peaks detected\n"
        rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
        assert rows and all(float(r) == 0.0 for _, r, _, _ in rows)
        assert json.loads((tmp_path / "orbit.csv.peaks.json").read_text())["peaks"] == []


class TestEntangleCommand:
    def test_penalty_table(self, tmp_path):
        out = tmp_path / "pen.csv"
        code = main(["entangle", "--sigmas", "1", "--models", "nonrel,rel", "--out", str(out)])
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        sigma, nonrel, rel = (float(x) for x in rows[0])
        assert nonrel == pytest.approx(0.5, abs=1e-10)
        assert rel < nonrel

    def test_wide_packets(self, tmp_path):
        # the pair grid follows the packet's width: these exited 2 when it
        # spanned 12 mc and stopped doubling at 2^16 nodes
        out = tmp_path / "pen.csv"
        assert main(["entangle", "--sigmas", "300,1000", "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        for sigma, nonrel, _ in ((float(x) for x in row) for row in rows):
            assert nonrel == pytest.approx(1.0 / (2.0 * sigma**2), rel=1e-12)

    @pytest.mark.parametrize("sigma", ["1e-160", "1e-300"])
    def test_overflow_exits_3_and_writes_nothing(self, tmp_path, sigma, capsys):
        # from sigma ~ 1e-154 the square of the packet's momenta (p ~ 1/sigma)
        # overflows; without the floating-point policy the table reads nan
        # and the command exits 0
        out = tmp_path / "x.csv"
        assert main(["entangle", "--sigmas", sigma, "--out", str(out)]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        assert "numerical error: overflow encountered" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestSweepsRunInProcess:
    """Sweeps have one serial path: there is no --jobs flag and no FVPS_JOBS variable."""

    @pytest.mark.parametrize("command", ["coherent", "entangle"])
    def test_jobs_flag_exits_2(self, tmp_path, command, capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--jobs", "2", "--out", str(out)]) == EXIT_CONFIG
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs=2\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(cfg), "entangle", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_coherent_t_flag_exits_2(self, tmp_path, capsys):
        # the effective mass is the same at every t, so coherent has no --t
        out = tmp_path / "mass.csv"
        assert main(["coherent", "--t", "2", "--out", str(out)]) == EXIT_CONFIG
        assert "unrecognized arguments: --t 2" in capsys.readouterr().err
        assert not out.exists()

    def test_coherent_t_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=2\n")
        out = tmp_path / "mass.csv"
        assert main(["--config", str(cfg), "coherent", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_fvps_jobs_environment_leaves_sidecar_unchanged(self, tmp_path, monkeypatch):
        out = tmp_path / "pen.csv"
        sidecar = Path(str(out) + ".json")
        argv = ["entangle", "--sigmas", "0.5,1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        plain = sidecar.read_bytes()
        monkeypatch.setenv("FVPS_JOBS", "2")
        assert main(argv) == EXIT_OK
        assert sidecar.read_bytes() == plain


class TestConfigFile:
    def test_file_supplies_flags_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p1=0\np2=1.7320508\n")
        assert main(["--config", str(cfg), "factors"]) == EXIT_OK
        out = tmp_path / "f.json"
        assert main(["--config", str(cfg), "factors", "--p2", "0", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["p2"] == 0.0
        assert data["eps"] == 1.0

    def test_flag_with_equals_sign_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p1=0\np2=1.7320508\n")
        out = tmp_path / "f.json"
        assert main(["--config", str(cfg), "factors", "--p2=0", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["p2"] == 0.0

    def test_bad_config_line_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p1 0\n")
        assert main(["--config", str(cfg), "factors"]) == EXIT_CONFIG

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "factors"]) == EXIT_CONFIG

    def test_config_given_with_equals_sign(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p1=0\np2=1.7320508\n")
        out = tmp_path / "f.json"
        assert main([f"--config={cfg}", "factors", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["p2"] == 1.7320508

    @pytest.mark.parametrize("value", ["1", "true", "YES", "On"])
    def test_true_switch_from_file(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda=1\nn_points=128\nmatrix={value}\n")
        out = tmp_path / "w.csv"
        assert main(["--config", str(cfg), "wigner", "--out", str(out)]) == EXIT_OK
        header = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
        assert header.startswith("p\\q,")

    @pytest.mark.parametrize("value", ["0", "false", "No", "OFF"])
    def test_false_switch_from_file(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda=1\nn_points=128\nmatrix={value}\n")
        out = tmp_path / "w.csv"
        assert main(["--config", str(cfg), "wigner", "--out", str(out)]) == EXIT_OK
        header = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
        assert header == "q,p,W"

    def test_check_switch_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("check=1\ntol=1e-18\n")
        argv = ["--config", str(cfg), "evolve", "--lambda", "2", "--t", "5", "--n-points", "256"]
        assert main(argv) == EXIT_TOLERANCE

    def test_abbreviated_config_option_reads_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix=1\n")
        out = tmp_path / "w.csv"
        argv = ["--conf", str(cfg), "wigner", "--lambda", "1", "--n-points", "128", "--out", str(out)]
        assert main(argv) == EXIT_OK
        header = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
        assert header.startswith("p\\q,")

    def test_abbreviated_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_points=128\n")
        out = tmp_path / "w.csv"
        argv = ["--config", str(cfg), "wigner", "--lambda", "1", "--n-point", "256", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "# n_points=256\n" in out.read_text()

    def test_config_without_path_exits_2(self, capsys):
        assert main(["--config"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--config" in err and "Traceback" not in err

    def test_abbreviated_switch_after_command_is_not_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_points=256\n")
        argv = ["--config", str(cfg), "evolve", "--lambda", "2", "--t", "5", "--c", "--tol", "1e-30"]
        assert main(argv) == EXIT_TOLERANCE

    def test_switch_with_other_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix=maybe\n")
        argv = ["--config", str(cfg), "wigner", "--lambda", "1", "--out", str(tmp_path / "w.csv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "matrix" in err
        assert not (tmp_path / "w.csv").exists()


class TestParsersOncePerProcess:
    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parsers.cache_clear()
        argv = ["factors", "--p1", "0", "--p2", "1"]
        assert main(argv) == EXIT_OK
        assert built
        built.clear()
        assert main(argv) == EXIT_OK
        assert main(["--config", "absent.cfg", "factors"]) == EXIT_CONFIG
        assert built == []

    def test_build_parser_returns_a_new_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parsers()[0] is not first and cli._parsers()[0] is cli._parsers()[0]

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # a bad command line, a --config run, the same command without
        # --config and an evolve --check, one after another in one process,
        # each give the exit code, stdout and files of a fresh process
        runs = [
            ["evolve", "--lambda", "2"],
            ["--config", "run.cfg", "factors", "--out", "f.json"],
            ["factors", "--p1", "0.5", "--p2", "2", "--out", "f.json"],
            ["evolve", "--lambda", "2", "--t", "5", "--check", "--out", "e.json"],
        ]
        script = "import sys; from fvps.cli import main; sys.exit(main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

        def directory(name):
            path = tmp_path / name
            path.mkdir()
            (path / "run.cfg").write_text("p1=0.5\np2=2\n")
            return path

        def files(path):
            return {written.name: written.read_bytes() for written in sorted(path.iterdir())}

        want = []
        for index, argv in enumerate(runs):
            cwd = directory(f"fresh{index}")
            command = [sys.executable, "-c", script, *argv]
            run = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
            want.append((run.returncode, run.stdout, files(cwd)))
        assert [code for code, _, _ in want] == [EXIT_CONFIG, EXIT_OK, EXIT_OK, EXIT_OK]
        cli._parsers.cache_clear()
        for index, argv in enumerate(runs):
            cwd = directory(f"same{index}")
            monkeypatch.chdir(cwd)
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(argv)
            assert (code, stdout.getvalue(), files(cwd)) == want[index], argv


class TestValidationPropagation:
    def test_resolution_error_becomes_exit_2(self, tmp_path, capsys):
        # lambda so small the default grid cannot resolve the packet
        code = main(["wigner", "--lambda", "0.001", "--n-points", "128", "--out", str(tmp_path / "w.csv")])
        assert code == EXIT_CONFIG
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["wigner", "--lambda", "0"],
            ["wigner", "--lambda", "inf"],
            ["evolve", "--lambda", "0", "--t", "1"],
            ["evolve", "--lambda", "2", "--t", "nan"],
            ["evolve", "--lambda", "2", "--t", "inf"],
            ["coherent", "--lambdas", "0"],
            ["coherent", "--p-bar", "0"],
            ["coherent", "--p-bar", "nan"],
            ["entangle", "--sigmas", "nan"],
            ["rotator", "--b", "nan", "--alpha", "3", "--t-max", "10", "--dt", "1"],
            ["rotator", "--b", "inf", "--alpha", "3", "--t-max", "10", "--dt", "1"],
            ["rotator", "--b", "0.5", "--alpha", "nan", "--t-max", "10", "--dt", "1"],
            ["rotator", "--b", "0.5", "--alpha", "inf", "--t-max", "10", "--dt", "1"],
            ["factors", "--p1", "nan", "--p2", "1"],
            ["factors", "--p1", "inf", "--p2", "1"],
            ["factors", "--p1", "1", "--p2=-inf"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_bad_sweep_input_exits_2(self, tmp_path, argv, capsys):
        out = tmp_path / ("out.json" if argv[0] in ("evolve", "factors") else "out.csv")
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "validation error" in err and "Traceback" not in err
        assert not out.exists()


class TestExitCodes:
    def test_every_package_error_has_a_documented_code(self):
        classes = [
            obj
            for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception) and not issubclass(obj, Warning)
        ]
        assert classes
        for cls in classes:
            codes = [code for base, (code, _) in EXIT_CODES.items() if issubclass(cls, base)]
            assert codes and codes[0] in (EXIT_CONFIG, EXIT_TOLERANCE), cls

    def test_conditioning_error_exits_3_without_traceback(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise errors.ConditioningError("sign operator is singular")

        monkeypatch.setattr(cli, "run_rotator", singular)
        code = main(
            ["rotator", "--b", "0.5", "--alpha", "3", "--t-max", "10", "--dt", "1", "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_TOLERANCE
        err = capsys.readouterr().err
        assert "numerical error: sign operator is singular" in err
        assert "Traceback" not in err

    def test_memory_error_exits_2_without_traceback(self, tmp_path, monkeypatch, capsys):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(cli, "run_wigner", too_large)
        out = tmp_path / "w.csv"
        code = main(["wigner", "--lambda", "1", "--n-points", "65536", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "memory error: Unable to allocate 32.0 GiB" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = main(["factors", "--p1", "0", "--p2", "1", "--out", str(tmp_path / "missing" / "f.json")])
        assert code == EXIT_CONFIG
        assert "file error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["factors", "--p1", "0", "--p2", "1.7320508"], ["evolve", "--lambda", "2", "--t", "5", "--n-points", "256"]],
        ids=lambda argv: argv[0],
    )
    def test_without_out_writes_nothing(self, tmp_path, monkeypatch, argv, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Byte referee.  These are the csv.writer loops the package wrote its tables
# with before fvps.tables, copied verbatim; the files the package writes now
# must match them byte for byte.
# ---------------------------------------------------------------------------


def _reference_field_csv(path, w, ps, metadata: dict, matrix: bool = False):
    with open(path, "w", newline="") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        if matrix:
            # contour-ready: first row q nodes, then one row per p node
            writer.writerow(["p\\q"] + [repr(float(q)) for q in ps.q_nodes])
            for i, p in enumerate(ps.p_nodes):
                writer.writerow([repr(float(p))] + [repr(float(x)) for x in w[i]])
        else:
            writer.writerow(["q", "p", "W"])
            for i, p in enumerate(ps.p_nodes):
                for j, q in enumerate(ps.q_nodes):
                    writer.writerow([repr(float(q)), repr(float(p)), repr(float(w[i, j]))])


def _reference_coherent_csv(path, args, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# p_bar={args.p_bar:g}\n")
        writer = csv.writer(fh)
        writer.writerow(["lambda", "m_eff_over_m"])
        for lam, ratio in rows:
            writer.writerow([repr(float(lam)), repr(float(ratio))])


def _reference_rotator_csv(path, args, series, model):
    with open(path, "w", newline="") as fh:
        fh.write(f"# b={args.b:g}\n# alpha={args.alpha:g}\n# omega={model.omega:g}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "x", "y"])
        for row in series.to_rows():
            writer.writerow([repr(float(v)) for v in row])


def _reference_entangle_csv(path, models, table):
    with open(path, "w", newline="") as fh:
        fh.write(f"# models={','.join(models)}\n")
        writer = csv.writer(fh)
        writer.writerow(["sigma"] + [f"penalty_{m}" for m in models])
        for row in table.rows():
            writer.writerow([repr(float(v)) for v in row])


_SHORT_VALUES = [0.0, -0.0, 1.0, 5e-324, np.inf, np.nan, 1e16, 0.0001]


def _long_values(count, rng):
    """`count` floats whose repr has 17 significant digits, in both of repr's forms and both signs."""
    values = []
    while len(values) < count:
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-30, 31))
        if len(repr(abs(value)).split("e")[0].replace(".", "").strip("0")) == 17:
            values.append(value)
    return np.array(values)


def _alternating_field(n_p, n_q):
    """(q nodes, p nodes, field): rows of 17-digit values alternate with rows of short ones, nodes mixed alike."""
    rng = np.random.default_rng(20020206)
    w = np.resize(_SHORT_VALUES, (n_p, n_q))
    w[::2] = _long_values(w[::2].size, rng).reshape(w[::2].shape)
    q, p = w[0].copy(), np.resize(_long_values(2, rng).tolist() + _SHORT_VALUES, n_p)
    return q, p, w


class TestByteReferee:
    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    @pytest.mark.parametrize("eps_mode", ["relativistic", "unity"])
    def test_wigner(self, tmp_path, eps_mode, matrix):
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        argv = ["wigner", "--lambda", "2", "--n-points", "128", "--eps-mode", eps_mode, "--out", str(out)]
        assert main(argv + ["--matrix"] * matrix) == EXIT_OK
        w, ps, _ = run_wigner(2.0, n_points=128, eps_mode=eps_mode)
        meta = {"lambda": "2", "n_points": 128, "p_max": f"{ps.momentum.p_max:g}", "eps_mode": eps_mode}
        _reference_field_csv(ref, w, ps, meta, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["--preset", "fig1"], ["--lambda", "4", "--matrix"]], ids=["fig1", "matrix"]
    )
    def test_wigner_at_readme_size(self, tmp_path, argv):
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        assert main(["wigner", *argv, "--out", str(out)]) == EXIT_OK
        lam = 8.0 if "fig1" in argv else 4.0
        w, ps, _ = run_wigner(lam)
        meta = {"lambda": f"{lam:g}", "n_points": 512, "p_max": f"{ps.momentum.p_max:g}", "eps_mode": "relativistic"}
        _reference_field_csv(ref, w, ps, meta, matrix="--matrix" in argv)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    def test_field_edge_values(self, tmp_path, matrix):
        # signed zero, the smallest subnormal, both sides of repr's switch
        # to exponent form (1e-05 / 0.0001, 1e16 / 9999999999999998.0) and
        # negatives, in the nodes and in the field; also infinities,
        # three-digit exponents, the smallest normal and the largest finite
        # float, and shortest forms of 1, 15, 16 and 17 digits
        q = np.array([-0.0, 5e-324, 1e16, -2.5, np.inf, 2.2250738585072014e-308])
        p = np.array([9999999999999998.0, -1e-05, 0.0001, -np.inf])
        w = np.array(
            [
                [-0.0, 5e-324, 1e-05, 0.0001, 1e-300, -1.5e300],
                [1e16, 9999999999999998.0, -5e-324, -1e-05, np.inf, -np.inf],
                [-1e16, 0.1, -1 / 3, 0.0, 2.2250738585072014e-308, 1.7976931348623157e308],
                [5.0, 3e-07, 0.123456789012345, 1.23456789012345e20, 1234567890123456.0, 0.30000000000000004],
            ]
        )
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

        # every cell reads back to its float bit for bit
        text = out.read_bytes().decode()
        assert text.startswith("# k=v\n") and text.endswith("\r\n")
        header, *lines = text[len("# k=v\n") : -2].split("\r\n")
        cells = [[float(x) for x in line.split(",")] for line in lines]
        if matrix:
            got = [[float(x) for x in header.split(",")[1:]], [row[0] for row in cells], [row[1:] for row in cells]]
            want = [q, p, w]
        else:
            got = np.array(cells).T.reshape(3, *w.shape)
            want = np.broadcast_arrays(q, p[:, None], w)
        for g, x in zip(got, want):
            assert np.array(g).tobytes() == np.ascontiguousarray(x).tobytes()

    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    def test_field_nan_values(self, tmp_path, matrix):
        # NaN with either sign bit, in the nodes and in the field: repr
        # writes 'nan' for both, which reads back as NaN but not bit for bit
        q = np.array([np.nan, 1.0, -np.nan])
        p = np.array([-np.nan, 2.0])
        w = np.array([[np.nan, -np.nan, 0.5], [1.0, np.nan, -np.inf]])
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    @pytest.mark.parametrize(
        "n_p, n_q",
        [
            (7, tables._BLOCK_CELLS // 3),  # three rows a block, a one-row last block
            (8, tables._BLOCK_CELLS // 3),  # three rows a block, a two-row last block
            (3, tables._BLOCK_CELLS + 1),  # one row a block
            (0, 5),
            (4, 0),
        ],
        ids=["ragged-1", "ragged-2", "one-row", "no-rows", "no-columns"],
    )
    def test_field_block_boundaries(self, tmp_path, matrix, n_p, n_q):
        # values from 1e-30 to 1e30 in both signs, so that both of repr's
        # forms and slots of every length fall in every block
        rng = np.random.default_rng(20020206)
        w = rng.standard_normal((n_p, n_q)) * 10.0 ** rng.integers(-30, 31, size=(n_p, n_q))
        q, p = np.linspace(-3.0, 3.0, n_q), np.linspace(-1.0, 1.0, n_p) ** 3
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    def test_field_over_longer_file(self, tmp_path, matrix):
        q, p, w = np.array([0.5, -2.0]), np.array([1.0, 3e-07]), np.array([[0.1, 2.0], [-1e20, np.inf]])
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        out.write_bytes(b"9" * 100_000)
        tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    @pytest.mark.parametrize(
        "block_rows, record_rows",
        [(1, 1), (4, 2), (1 / 3, 1 / 5), (10, 3)],
        ids=["one-row", "ragged", "rows-wider", "whole-field"],
    )
    def test_field_scratch_reuse(self, tmp_path, monkeypatch, matrix, block_rows, record_rows):
        # one scratch set formats every block of a write: rows of 17-digit
        # values alternate with rows of short ones, so any byte a block
        # left behind would show in the next; blocks of one row, a ragged
        # last block (and record), rows wider than a block, one block
        n_q = 40
        monkeypatch.setattr(tables, "_BLOCK_CELLS", int(block_rows * n_q))
        monkeypatch.setattr(tables, "_RECORD_CELLS", int(record_rows * n_q))
        q, p, w = _alternating_field(7, n_q)
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

    def test_field_writes_in_a_row(self, tmp_path):
        # three writes in one process, each with its own scratch set and
        # three blocks, the last one ragged
        q, p, w = _alternating_field(40, 512)
        for index, matrix in enumerate([False, True, False]):
            out, ref = tmp_path / f"w{index}.csv", tmp_path / f"ref{index}.csv"
            tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
            _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
            assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, 1, -2, 3, 4096, -(2**62), 2**53 + 1, 10**17, 123456789]),
            np.array([0, 1, 2, 37, 128, 255], dtype=np.uint8),
            np.array([True, False, True]),
            np.array([0.1, -0.5, 2.0**-20, 3.4e38, 1e-45, -0.0, np.inf, 1 / 3, 64.0], dtype=np.float32),
        ],
        ids=["int64", "uint8", "bool", "float32"],
    )
    def test_field_of_other_dtypes(self, tmp_path, matrix, values):
        # the writer takes a field and nodes of any real dtype, each value
        # written as repr of the float64 it casts to; powers of two among them
        w = np.resize(values, (5, 7))
        q, p = np.resize(values, 7), np.resize(values[::-1], 5)
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        tables.write_field_csv(out, {"k": "v"}, q, p, w, matrix=matrix)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), {"k": "v"}, matrix=matrix)
        assert out.read_bytes() == ref.read_bytes()

    def test_field_head_in_locale_encoding(self, tmp_path):
        q, p, w = np.array([0.5]), np.array([1.0]), np.array([[2.0]])
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        meta = {"unité": "ångström"}
        tables.write_field_csv(out, meta, q, p, w)
        _reference_field_csv(ref, w, SimpleNamespace(q_nodes=q, p_nodes=p), meta)
        assert out.read_bytes() == ref.read_bytes()

    def test_coherent(self, tmp_path):
        out, ref = tmp_path / "mass.csv", tmp_path / "ref.csv"
        argv = ["coherent", "--lambdas", "0.5,2", "--p-bar", "0.03", "--out", str(out)]
        assert main(argv) == EXIT_OK
        args = cli.build_parser().parse_args(argv)
        _reference_coherent_csv(ref, args, run_coherent([0.5, 2.0], p_bar=0.03))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.filterwarnings("ignore::fvps.errors.ResolutionWarning")
    def test_rotator(self, tmp_path):
        out, ref = tmp_path / "orbit.csv", tmp_path / "ref.csv"
        argv = ["rotator", "--b", "0.5", "--alpha", "2", "--t-max", "40", "--dt", "0.5", "--n-max", "32"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        args = cli.build_parser().parse_args(argv + ["--out", str(out)])
        series, _, model = run_rotator(0.5, 2.0, 40.0, 0.5, n_max=32)
        _reference_rotator_csv(ref, args, series, model)
        assert out.read_bytes() == ref.read_bytes()

    def test_entangle(self, tmp_path):
        out, ref = tmp_path / "pen.csv", tmp_path / "ref.csv"
        assert main(["entangle", "--sigmas", "0.3,1,3", "--models", "rel,nonrel", "--out", str(out)]) == EXIT_OK
        models = ("rel", "nonrel")
        _reference_entangle_csv(ref, models, penalty_curve([0.3, 1.0, 3.0], models))
        assert out.read_bytes() == ref.read_bytes()


NODE_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
    + [1e16, 9999999999999998.0, -1e-05, 0.0001, 2.2250738585072014e-308]
)


@pytest.mark.parametrize("axes", ["random", "edges", "empty-q", "empty-p", "both-empty"])
def test_node_slots_match_repr(axes):
    # each axis's texts left-aligned in a slot as wide as its longest
    rng = np.random.default_rng(5)
    random = rng.standard_normal(300) * 10.0 ** rng.integers(-30, 31, 300)
    empty = np.array([])
    q, p = {
        "random": (random, np.linspace(-9.0, 9.0, 256)),
        "edges": (NODE_EDGES, NODE_EDGES[::-1]),
        "empty-q": (empty, NODE_EDGES),
        "empty-p": (NODE_EDGES, empty),
        "both-empty": (empty, empty),
    }[axes]
    for nodes in (q, p):
        slots = tables._texts(nodes)
        texts = [repr(float(x)).encode() for x in nodes]
        width = max(map(len, texts), default=0)
        assert slots.shape == (len(texts), width)
        assert [row.tobytes() for row in slots] == [text.ljust(width, b"\0") for text in texts]


def _kernel_texts(values):
    """The text `tables` writes for each float of `values`, from its vectorised repr kernel."""
    slots = tables._repr_slots(np.array(values, dtype=np.float64))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in slots.T]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_repr_kernel_matches_repr_on_floats(values):
    assert _kernel_texts(values) == [repr(v) for v in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_repr_kernel_matches_repr_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _kernel_texts(values) == [repr(v) for v in values.tolist()]


def test_repr_kernel_matches_repr_on_powers_and_form_bounds():
    # 2^k, where the rounding interval's lower bound is nearer and exact
    # halves round to even, and 10^k, each with its neighbours one ulp
    # away, and the bounds of repr's positional form; both signs
    powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    base = np.array(powers + [1e-05, 0.0001, 9999999999999998.0, 1e16])
    values = np.concatenate([np.nextafter(base, 0.0), base, np.nextafter(base, np.inf)])
    values = np.concatenate([values, -values])
    assert _kernel_texts(values) == [repr(v) for v in values.tolist()]


def _dragonbox_path(bits):
    """The rare path of Dragonbox's nearest algorithm that the positive float with these bits takes, or None.

    Worked out with exact integers, apart from the kernel: everything is
    in units of 10^-k / d, where the float is f_c · 2^e, k = 2 -
    floor(e·log10 2) and d clears the denominators of 2^(e-1)·10^k, so
    that z = floor(upper / d) is the upper end of the rounding interval
    and delta = floor(2·half / d) its width in units of 10^-k.
    """
    biased, mantissa = bits >> 52, bits & (2**52 - 1)
    if biased == 0:
        return "subnormal"
    if mantissa == 0:
        return "power-of-two"
    fc, e = mantissa | 1 << 52, biased - 1075
    k = 2 - (len(str(2**e)) - 1 if e >= 0 else -len(str(2**-e)))  # 2^|e| is never a power of ten
    half, d = 2 ** max(e - 1, 0) * 10 ** max(k, 0), 2 ** max(1 - e, 0) * 10 ** max(-k, 0)
    upper, width = (2 * fc + 1) * half, 2 * half
    delta = width // d
    sig, r = divmod(upper // d, 1000)
    path = None
    if r == 0 and upper % d == 0 and fc % 2:
        path, sig, r = "upper-end-excluded", sig - 1, 1000
    elif r == delta:  # the multiple of 1000 below z is within a unit of the lower end
        inside = width % d > upper % d or (width % d == upper % d and fc % 2 == 0)
        if inside:
            return "lower-end-inside"
        path = "lower-end-outside"
    elif r < delta:
        return "shorter-trailing-zeros" if sig % 10 == 0 else None
    dist = r - delta // 2 + 50
    if dist % 100 or path:
        return path
    nearest, rest = divmod(2 * fc * half + 50 * d, 100 * d)  # the float in units of 10^(2-k), plus a half
    if 10 * sig + dist // 100 != nearest:
        return "parity-correction"
    return "tie" if rest == 0 else None


@functools.cache
def _rare_path_values():
    """Floats by the rare Dragonbox path they take: runs of consecutive significands at
    exponents spread over the range (where z's remainder meets 0 or delta, and where the
    nearest hundred lies exactly halfway), every power of two, subnormals, and short
    decimals of 1..17 digits at every decimal exponent, each one ulp either side too."""
    rng = np.random.default_rng(20020206)
    runs = [
        start + np.arange(1500, dtype=np.uint64)
        for biased in (0, 1, 2, 300, 700, 1000, 1071, 1072, 1073, 1076, 1077, 1080, 1300, 1700, 2046)
        for start in [np.uint64(biased << 52) + rng.integers(0, 2**52 - 1500, dtype=np.uint64)]
    ]
    digits = "12345678901234567"
    short = np.array([float(f"{digits[:n]}e{x}") for n in range(1, 18) for x in range(-324 - n, 309 - n)])
    short = short[(short > 0) & (short < np.inf)]
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormal = np.array([1, 2, 3, 2**52 - 1, 2**51], dtype=np.uint64).view(np.float64)
    values = np.concatenate([*(run.view(np.float64) for run in runs), powers, subnormal, short])
    values = np.unique(np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, np.inf)]))
    paths = {}
    for bits, value in zip(values.view(np.uint64).tolist(), values.tolist()):
        paths.setdefault(_dragonbox_path(bits), []).append(value)
    return paths


@pytest.mark.parametrize(
    "path",
    [
        "upper-end-excluded",
        "lower-end-inside",
        "lower-end-outside",
        "parity-correction",
        "tie",
        "shorter-trailing-zeros",
        "power-of-two",
        "subnormal",
    ],
)
def test_repr_kernel_on_rare_paths(path):
    # each correction of Dragonbox's nearest path, the power-of-two table
    # and the subnormals, on floats picked with exact integers to take it
    values = _rare_path_values()[path]
    assert len(values) >= 10
    assert _kernel_texts(values) == [repr(v) for v in values]


@pytest.mark.parametrize("matrix", [False, True], ids=["long", "matrix"])
def test_power_texts_read_only_for_a_power_of_two(tmp_path, matrix):
    # the power-of-two texts are read from repr only by a write that
    # holds such a power: fig1's field and nodes hold none
    def calls():
        info = tables._power_texts.cache_info()
        return info.hits + info.misses

    tables._power_texts.cache_clear()
    w, ps, _ = run_wigner(8.0)
    tables.write_field_csv(tmp_path / "fig1.csv", {}, ps.q_nodes, ps.p_nodes, w, matrix=matrix)
    assert calls() == 0
    powers = np.array([[1.0, 2.0**-1021, 2.0**1023, 3.0, 0.0], [-1.0, -(2.0**-1021), -(2.0**1023), -3.0, -0.0]])
    out = tmp_path / "powers.csv"
    tables.write_field_csv(out, {}, np.linspace(0.3, 1.5, 5), np.array([3.0, 5.0]), powers, matrix=matrix)
    assert calls() == 1
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    cells = [cell for row in rows for cell in row[1:]] if matrix else [row[2] for row in rows]
    assert cells == [repr(v) for v in powers.ravel().tolist()]


def _memory_field(kind, shape):
    """A field of positional, integer, mixed values or powers of two; the mixed one is mostly positional,
    with some exponent-form values and, in every seventh cell, inf, -inf, NaN or -0.0."""
    rng = np.random.default_rng(20020206)
    if kind == "positional":
        return rng.uniform(0.01, 100.0, shape)
    if kind == "integer":
        return rng.integers(-(10**6), 10**6, size=shape).astype(float)
    if kind == "powers":
        return np.ldexp(rng.choice([-1.0, 1.0], shape), rng.integers(-1021, 1024, size=shape))
    w = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 16, size=shape)
    w.ravel()[::7] = np.resize([np.inf, -np.inf, np.nan, -0.0], w.ravel()[::7].size)
    return w


_MEMORY_CASES = [pytest.param("fig1", False, id="long"), pytest.param("fig1", True, id="matrix")] + [
    pytest.param(kind, matrix, id=f"{kind}-{'matrix' if matrix else 'long'}")
    for kind in ("positional", "integer", "mixed", "powers")
    for matrix in (False, True)
]


@pytest.mark.parametrize("kind, matrix", _MEMORY_CASES)
def test_field_writer_memory_stays_linear(tmp_path, kind, matrix):
    # the writer formats one block of momentum rows (8192 cells) at a time
    # in one scratch set of 137 bytes a cell, ~1.12 MB, allocated per write,
    # and lays out 2048 cells at a time in one record, ~0.25 MB with its
    # NUL-free copy in long form. The values move the peak only by the
    # index arrays of the floats whose digits end in zeros: ~0.13 MB for a
    # field of integers, next to none for fig1's (97 % exponent form).
    # Every table is cleared first, so every case measures a process's
    # first write, which also builds Dragonbox's tables and the suffix
    # table (~0.13 MB kept) in its first block and, for a field holding a
    # power of two or an infinity (the integers, the mixed field and the
    # powers), the power-of-two texts (~0.1 MB).
    # The whole n = 512 field as a list of Python floats alone takes ~8 MB
    w, ps, _ = run_wigner(8.0)
    if kind != "fig1":
        w = _memory_field(kind, w.shape)
    for table in (tables._dragonbox_tables, tables._quads, tables._suffixes, tables._power_texts):
        table.cache_clear()
    tracemalloc.start()
    try:
        tables.write_field_csv(tmp_path / "w.csv", {}, ps.q_nodes, ps.p_nodes, w, matrix=matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


_Q, _P, _W = np.array([0.5, 1.5, 2.5]), np.array([-1.0, 1.0]), np.ones((2, 3))

BAD_WRITES = {
    "one-p-node": (tables.write_field_csv, {}, _Q, _P[:1], _W),
    "five-p-nodes": (tables.write_field_csv, {}, _Q, np.arange(5.0), _W),
    "two-q-nodes": (tables.write_field_csv, {}, _Q[:2], _P, _W),
    "q-nodes-2d": (tables.write_field_csv, {}, _Q[None], _P, _W),
    "field-1d": (tables.write_field_csv, {}, _Q, _P, _W.ravel()),
    "field-3d": (tables.write_field_csv, {}, _Q, _P, _W[None]),
    "complex-field": (tables.write_field_csv, {}, _Q, _P, _W + 1j),
    "complex-q-nodes": (tables.write_field_csv, {}, _Q + 0j, _P, _W),
    "string-field": (tables.write_field_csv, {}, _Q, _P, _W.astype(str)),
    "field-value-newline": (tables.write_field_csv, {"note": "two\nlines"}, _Q, _P, _W),
    "field-key-equals": (tables.write_field_csv, {"a=b": "c"}, _Q, _P, _W),
    "csv-value-newline": (tables.write_csv, {"note": "two\nlines"}, ["x", "y"], [[1.0, 2.0]]),
    "csv-value-return": (tables.write_csv, {"note": "two\rlines"}, ["x", "y"], [[1.0, 2.0]]),
    "csv-key-equals": (tables.write_csv, {"a=b": "c"}, ["x", "y"], [[1.0, 2.0]]),
    "csv-key-newline": (tables.write_csv, {"a\nb": "c"}, ["x", "y"], [[1.0, 2.0]]),
    "csv-header-comma": (tables.write_csv, {}, ["x", "y,z"], [[1.0, 2.0]]),
    "csv-header-newline": (tables.write_csv, {}, ["x", "y\r\nz"], [[1.0, 2.0]]),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("case", list(BAD_WRITES))
def test_bad_write_raises_before_opening(tmp_path, case, existing):
    # the check comes first: no file is created, and an existing one is
    # neither truncated nor left with a head and no body
    writer, meta, *payload = BAD_WRITES[case]
    out = tmp_path / "out.csv"
    if existing:
        out.write_bytes(b"old bytes\r\n")
    with pytest.raises(ValueError):
        writer(out, meta, *payload)
    assert out.read_bytes() == b"old bytes\r\n" if existing else not out.exists()


def test_bad_field_error_names_shapes_and_dtype(tmp_path):
    with pytest.raises(ValueError, match=r"field \(2, 3\), q nodes \(3,\), p nodes \(1,\)"):
        tables.write_field_csv(tmp_path / "w.csv", {}, _Q, _P[:1], _W)
    with pytest.raises(ValueError, match="complex128"):
        tables.write_field_csv(tmp_path / "w.csv", {}, _Q, _P, _W + 1j)


# ---------------------------------------------------------------------------
# The README's commands run as written.
# ---------------------------------------------------------------------------

# Files each command writes besides --out; each must be named in the README.
SIDECARS = {
    "factors": ["<out>.json"],
    "wigner": ["<out>.json", ".moments.json"],
    "evolve": ["<out>.json"],
    "coherent": ["<out>.json"],
    "rotator": ["<out>.json", ".peaks.json"],
    "entangle": ["<out>.json"],
}


def _readme_section(title: str) -> str:
    text = README.read_text()
    start = text.index(title) + len(title)
    end = text.find("\n#", start)
    return text[start:] if end < 0 else text[start:end]


@pytest.mark.filterwarnings("ignore::fvps.errors.ResolutionWarning")
@pytest.mark.parametrize("argv", reach.readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(tmp_path, argv, capsys):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        for name in SIDECARS[argv[0]]:
            assert Path(out + name.replace("<out>", "")).exists(), name
        provenance = json.loads(Path(out + ".json").read_text())
        assert set(provenance) == {"version", "command", "config", "tolerances"}
        assert provenance["command"] == argv[0]


def test_readme_names_every_sidecar():
    formats = _readme_section("### File formats")
    assert {argv[0] for argv in reach.readme_commands()} == set(SIDECARS)
    for names in SIDECARS.values():
        for name in names:
            assert f"`{name}`" in formats, name


@pytest.mark.filterwarnings("ignore::fvps.errors.ResolutionWarning")
@pytest.mark.parametrize(
    "argv, flag, suffix",
    [
        (["wigner", "--lambda", "1", "--n-points", "128"], "--moments-out", ".moments.json"),
        (["rotator", "--b", "0.5", "--alpha", "3", "--t-max", "200", "--dt", "1.0"], "--peaks-out", ".peaks.json"),
    ],
    ids=["moments-out", "peaks-out"],
)
def test_sidecar_path_flag(tmp_path, argv, flag, suffix, capsys):
    # the sidecar goes to the path given, with the bytes it has at its
    # default path, and none goes to the default path; the provenance
    # sidecar records the path
    (tmp_path / "default").mkdir()
    default, out, sidecar = tmp_path / "default" / "out.csv", tmp_path / "out.csv", tmp_path / "side.json"
    assert main([*argv, "--out", str(default)]) == EXIT_OK
    assert main([*argv, "--out", str(out), flag, str(sidecar)]) == EXIT_OK, capsys.readouterr().err
    assert sidecar.read_bytes() == Path(str(default) + suffix).read_bytes()
    assert not Path(str(out) + suffix).exists()
    assert json.loads(Path(str(out) + ".json").read_text())["config"][flag[2:].replace("-", "_")] == str(sidecar)


# The doubled-space matrix oracle referees the closed forms in the tests;
# a documented command must get by without it.
MATRIX_ORACLE = ("sign_operator", "even_part", "odd_part", "charge_invariant", "branch_vectors", "branch_reduce")


@pytest.mark.filterwarnings("ignore::fvps.errors.ResolutionWarning")
def test_readme_commands_never_reach_the_matrix_oracle(tmp_path, monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("a README command reached the matrix oracle")

    for name in MATRIX_ORACLE:
        monkeypatch.setattr(opmatrix, name, oracle)
        monkeypatch.setattr(rotator, name, oracle, raising=False)
    for name in ("even_ladder", "orbit_series_matrix_oracle"):
        monkeypatch.setattr(rotator, name, oracle)
    monkeypatch.chdir(tmp_path)
    codes = [main(argv) for argv in reach.readme_commands()]
    assert codes == [EXIT_OK] * len(codes), capsys.readouterr().err


# Command-line property test: every command's flags drawn from a good value
# and the edge values below.  Sizes stay small: at most 128 points, a
# t-max of at most 200 and at most three lambda or sigma values.  --check
# is never drawn: a failed check writes its deviation record and exits 3
# by design.
EDGE_VALUES = ["0", "-0", "-1", "1e-320", "1e-160", "1e160", "nan", "inf", "-inf", "junk"]
N_POINTS = st.sampled_from(["128"]) | st.sampled_from(["0", "-8", "7", "100", "1e3", "junk"])


def _value(*good):
    # half good, half edge, so that a fair share of runs get to compute
    return st.sampled_from(good) | st.sampled_from(EDGE_VALUES)


def _value_list(*good):
    return st.lists(_value(*good), min_size=1, max_size=3).map(",".join)


FUZZED_FLAGS = {
    "factors": {"--p1": _value("0", "1.5"), "--p2": _value("1.7320508")},
    "wigner": {"--lambda": _value("1", "8"), "--n-points": N_POINTS},
    "evolve": {"--lambda": _value("2"), "--t": _value("5"), "--n-points": N_POINTS, "--tol": _value("1e-8")},
    "coherent": {"--lambdas": _value_list("0.5", "2"), "--p-bar": _value("0.02")},
    "rotator": {
        "--b": _value("0.5"),
        "--alpha": _value("3"),
        "--t-max": st.sampled_from(["10", "200"]) | st.sampled_from([v for v in EDGE_VALUES if v != "1e160"]),
        "--dt": _value("1.0"),
        "--n-max": st.sampled_from(["64", "100"]) | st.sampled_from(["0", "-1", "7", "junk"]),
    },
    "entangle": {"--sigmas": _value_list("0.5", "1", "2"), "--models": st.sampled_from(["nonrel,rel", "rel", "rel,junk"])},
}


@pytest.mark.parametrize("command", list(FUZZED_FLAGS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_command_line_properties(command, data):
    flags = data.draw(st.fixed_dictionaries(FUZZED_FLAGS[command]))
    out = "o.json" if command in ("factors", "evolve") else "o.csv"
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items()), "--out", out]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, reach.chdir(tmp):
        # recorded, not raised: conftest makes modulation_spectrum's
        # ResolutionWarning an error, and the command line allows it
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        written = {path.name: path.read_bytes().lower() for path in Path().rglob("*") if path.is_file()}
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE), argv
    if code == EXIT_OK:
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    else:
        assert not written, argv
        assert "Traceback" not in stderr.getvalue(), argv
    for name, content in written.items():
        assert b"nan" not in content and b"inf" not in content, (argv, name)


@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent", "numpy.polynomial", "fvps.tables",
                                    "fvps.rotator", "fvps.opmatrix", "fvps.wigner", "fvps.moyal"])
def test_cli_import_leaves_module_unloaded(module):
    # scipy is not a runtime dependency and sweeps run in-process: a fresh
    # `fvps` process must not pay for importing scipy or a process pool,
    # and no fvps module reaches numpy.polynomial at all.  A command
    # imports the fvps modules it runs when it runs
    code = f"import sys, fvps.cli; print(sorted(m for m in sys.modules if (m + '.').startswith({module!r} + '.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# fvps modules a fresh process of each README command must not import
NOT_LOADED = {
    "factors": {"wigner", "moyal", "rotator", "opmatrix", "tables"},
    "evolve": {"rotator", "opmatrix", "tables"},
    "coherent": {"wigner", "moyal", "rotator", "opmatrix"},
    "entangle": {"wigner", "moyal", "rotator", "opmatrix"},
}


def _fresh_modules(code, *argv, cwd=None):
    """The fvps submodules loaded after `code` ran in a fresh process, by short name."""
    code += "\nprint(sorted(m[5:] for m in sys.modules if m.startswith('fvps.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return set(ast.literal_eval(run.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", reach.readme_commands(), ids=lambda argv: argv[0])
def test_command_loads_only_what_it_runs(tmp_path, argv):
    loaded = _fresh_modules("import sys; from fvps.cli import main; assert main(sys.argv[1:]) == 0", *argv,
                            cwd=tmp_path)
    assert not loaded & NOT_LOADED.get(argv[0], set()), loaded
    # the field writer loads only to write a file
    assert ("tables" in loaded) == ("--out" in argv), loaded


def test_bare_import_loads_no_submodule():
    assert _fresh_modules("import sys, fvps") == set()


def test_cli_reads_each_deferred_name_from_its_module():
    # cli.<name> for a name a command imports when it runs is looked up in
    # its module at every access, so a span tracer's wrapper shows there
    # and goes with it
    code = (
        "import sys\n"
        "from fvps import cli, wigner\n"
        "original = wigner.wigner_even\n"
        "assert cli.wigner_even is original and cli.write_json is sys.modules['fvps.tables'].write_json\n"
        "wigner.wigner_even = len\n"
        "assert cli.wigner_even is len\n"
        "wigner.wigner_even = original\n"
        "assert cli.wigner_even is original and 'wigner_even' not in vars(cli)"
    )
    assert {"wigner", "tables"} <= _fresh_modules(code)
