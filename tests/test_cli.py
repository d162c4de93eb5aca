import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvps import (
    ChargeBranchState,
    MomentumGrid,
    PhaseSpaceGrid,
    cli,
    energy,
    errors,
    gaussian_state,
    moyal,
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
    run_entangle,
    run_factors,
    run_rotator,
    run_wigner,
)
from fvps.states import state_to_csv

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_driver_dict(self):
        out = run_factors(0.0, np.sqrt(3.0))
        assert out["eps"] == pytest.approx(3 / (2 * np.sqrt(2)))
        assert out["purity_rhs"] == 0.0


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

    def test_nan_tolerance_fails_the_check(self):
        argv = ["evolve", "--lambda", "2", "--t", "5", "--n-points", "256", "--check", "--tol", "nan"]
        assert main(argv) == EXIT_TOLERANCE

    def test_nan_deviation_fails_the_check(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_evolve_check", lambda *args, **kwargs: float("nan"))
        assert main(["evolve", "--lambda", "2", "--t", "5", "--check"]) == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().err


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

        for module, name in [(cli, "wigner_even"), (cli, "evolve_even"), (cli, "moments"),
                             (wigner, "wigner_even"), (moyal, "evolve_even"), (wigner, "moments")]:
            monkeypatch.setattr(module, name, refuse)
        rows = run_coherent([0.05, 0.5, 1.0, 2.0, 4.0])
        assert all(ratio >= 1.0 for _, ratio in rows)
        assert main(["coherent", "--out", str(tmp_path / "mass.csv")]) == EXIT_OK

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


class TestEntangleCommand:
    def test_penalty_table(self, tmp_path):
        out = tmp_path / "pen.csv"
        code = main(["entangle", "--sigmas", "1", "--models", "nonrel,rel", "--out", str(out)])
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        sigma, nonrel, rel = (float(x) for x in rows[0])
        assert nonrel == pytest.approx(0.5, abs=1e-10)
        assert rel < nonrel


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
            raise MemoryError("Unable to allocate 128. GiB")

        monkeypatch.setattr(cli, "run_wigner", too_large)
        out = tmp_path / "w.csv"
        code = main(["wigner", "--lambda", "1", "--n-points", "65536", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "memory error: Unable to allocate 128. GiB" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = main(["factors", "--p1", "0", "--p2", "1", "--out", str(tmp_path / "missing" / "f.json")])
        assert code == EXIT_CONFIG
        assert "file error" in capsys.readouterr().err


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


def _reference_state_csv(state, path, metadata=None):
    with open(path, "w", newline="") as fh:
        fh.write(f"# charge_norm={state.charge_norm!r}\n")
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(["p", "branch", "re_phi", "im_phi"])
        for sign, phi in ((+1, state.phi_plus), (-1, state.phi_minus)):
            if phi is None:
                continue
            for p, amp in zip(state.grid.nodes, phi):
                writer.writerow([repr(float(p)), sign, repr(float(amp.real)), repr(float(amp.imag))])


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
        _reference_entangle_csv(ref, models, run_entangle([0.3, 1.0, 3.0], models))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("branches", ["plus", "minus", "both"])
    def test_state_csv(self, tmp_path, branches):
        grid = MomentumGrid(64, 7.0)
        phi = gaussian_state(grid, sigma=1.0, p_bar=0.5).phi_plus
        state = ChargeBranchState(
            grid,
            phi_plus=phi if branches != "minus" else None,
            phi_minus=0.5 * phi.conj() if branches != "plus" else None,
        )
        out, ref = tmp_path / "state.csv", tmp_path / "ref.csv"
        state_to_csv(state, out, metadata={"sigma": 1.0, "note": "x"})
        _reference_state_csv(state, ref, metadata={"sigma": 1.0, "note": "x"})
        # the charge_norm line alone differs: it now holds a plain float
        assert out.read_bytes().split(b"\n", 1)[1] == ref.read_bytes().split(b"\n", 1)[1]


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


def _readme_commands() -> list:
    block = _readme_section("## Command line")
    block = block[block.index("```sh") + len("```sh"):]
    block = block[: block.index("```")]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("fvps ")]


@pytest.mark.filterwarnings("ignore::fvps.errors.ResolutionWarning")
@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
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


def test_readme_names_every_sidecar():
    formats = _readme_section("### File formats")
    assert {argv[0] for argv in _readme_commands()} == set(SIDECARS)
    for names in SIDECARS.values():
        for name in names:
            assert f"`{name}`" in formats, name


@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent"])
def test_cli_import_leaves_module_unloaded(module):
    # scipy is not a runtime dependency and sweeps run in-process: a fresh
    # `fvps` process must not pay for importing scipy or a process pool
    code = f"import sys, fvps.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
