import json

import numpy as np
import pytest

from fvps import cli, errors
from fvps.cli import (
    EXIT_CODES,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    main,
    run_coherent,
    run_factors,
)


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


class TestCoherentCommand:
    def test_effective_mass_table(self, tmp_path):
        out = tmp_path / "mass.csv"
        code = main(["coherent", "--lambdas", "0.5,2", "--out", str(out)])
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        ratios = {float(r[0]): float(r[1]) for r in rows}
        assert ratios[0.5] < ratios[2.0]
        assert ratios[2.0] > 1.5

    def test_worker_pool_matches_serial(self):
        serial = run_coherent([0.5, 1.0], jobs=1)
        parallel = run_coherent([0.5, 1.0], jobs=2)
        assert serial == parallel


class TestRotatorCommand:
    def test_orbit_and_peaks(self, tmp_path):
        out = tmp_path / "orbit.csv"
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

    def test_worker_pool_matches_serial_bytes(self, tmp_path):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        args = ["entangle", "--sigmas", "0.5,1,2", "--models", "nonrel,rel"]
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == EXIT_OK
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == EXIT_OK
        assert parallel.read_bytes() == serial.read_bytes()


class TestJobsEnvironment:
    def test_env_var_sets_default(self, monkeypatch):
        from fvps.cli import _default_jobs

        monkeypatch.setenv("FVPS_JOBS", "3")
        assert _default_jobs() == 3
        monkeypatch.setenv("FVPS_JOBS", "not-a-number")
        assert _default_jobs() == 1
        monkeypatch.delenv("FVPS_JOBS")
        assert _default_jobs() == 1


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


class TestValidationPropagation:
    def test_resolution_error_becomes_exit_2(self, tmp_path, capsys):
        # lambda so small the default grid cannot resolve the packet
        code = main(["wigner", "--lambda", "0.001", "--n-points", "128", "--out", str(tmp_path / "w.csv")])
        assert code == EXIT_CONFIG
        assert "validation error" in capsys.readouterr().err


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

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = main(["factors", "--p1", "0", "--p2", "1", "--out", str(tmp_path / "missing" / "f.json")])
        assert code == EXIT_CONFIG
        assert "file error" in capsys.readouterr().err
