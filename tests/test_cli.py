"""CLI behavior: tables, reports, exit codes, reproducibility."""

import json
import math
import subprocess
import sys

import pytest

from kahlercomp import cli
from kahlercomp import model_space as M
from kahlercomp import potential as P
from kahlercomp.model_space import ModelSpace


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "kahlercomp.cli", *args],
                          capture_output=True, text=True)


class TestModelCommand:
    def test_flat_table_values(self):
        r = run_cli("model", "--n", "2", "--K", "0",
                    "--r-min", "1.0", "--r-max", "1.0", "--r-steps", "1")
        assert r.returncode == 0
        header, row = r.stdout.strip().splitlines()
        assert header == "r,status,density,area,volume,laplacian"
        fields = row.split(",")
        assert float(fields[3]) == pytest.approx(2 * math.pi ** 2, rel=1e-12)
        assert float(fields[4]) == pytest.approx(math.pi ** 2 / 2, rel=1e-10)
        assert float(fields[5]) == pytest.approx(3.0, rel=1e-12)

    def test_domain_error_row_near_conjugate_radius(self):
        r = run_cli("model", "--n", "2", "--K", "3",
                    "--r-min", "2.0", "--r-max", "2.5", "--r-steps", "2")
        assert r.returncode == 0
        rows = r.stdout.strip().splitlines()[1:]
        assert rows[0].split(",")[1] == "ok"
        assert rows[1].split(",")[1] == "domain_error"

    def test_table_files_written(self, tmp_path):
        out = tmp_path / "run"
        r = run_cli("model", "--n", "2", "--K", "1", "--r-steps", "3",
                    "--out", str(out))
        assert r.returncode == 0
        assert (out / "tables" / "model.csv").exists()
        assert (out / "config.echo.json").exists()
        assert (out / "report.json").exists()


class TestSeriesCommand:
    def test_flat_delta_series(self, tmp_path):
        out = tmp_path / "s"
        r = run_cli("series", "--catalog", "flat", "--params", "n=2",
                    "--order", "4", "--quad-degree", "4", "--out", str(out))
        assert r.returncode == 0, r.stderr
        doc = json.loads((out / "report.json").read_text())
        per_dir = doc["per_direction"]["coefficients"]
        assert per_dir[0] == pytest.approx(1.0)
        assert max(abs(x) for x in per_dir[1:]) < 1e-12
        avg = doc["sphere_averaged"]["coefficients"]
        assert avg[0] == pytest.approx(doc["sphere_averaged"]["c0_expected"])

    def test_order_zero(self, capsys):
        assert cli.main(["series", "--catalog", "section6", "--params", "a=0.1",
                         "--order", "0", "--quad-degree", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["per_direction"]["coefficients"] == [1.0]

    def test_potential_file_input(self, tmp_path):
        pot_file = tmp_path / "pot.json"
        pot_file.write_text(P.dumps(P.flat(2)))
        r = run_cli("series", "--potential", str(pot_file),
                    "--order", "2", "--quad-degree", "4")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["per_direction"]["provenance"] == "symbolic"

    def test_space_form_order_8_matches_model(self):
        r = run_cli("series", "--catalog", "space_form", "--params", "n=2,K=1",
                    "--order", "8", "--quad-degree", "4")
        assert r.returncode == 0, r.stderr
        avg = json.loads(r.stdout)["sphere_averaged"]["coefficients"]
        model = M.model_series(ModelSpace(2, 1), 8).coefficients
        assert len(avg) == len(model) == 9
        for got, want in zip(avg, model):
            # the odd model coefficients are zero; there the sum must vanish
            assert abs(got - want) <= (1e-10 * abs(want) if want else 1e-14), (got, want)

    def test_series_reproducible(self, tmp_path):
        args = ("series", "--catalog", "section6", "--params", "a=0.1",
                "--order", "3", "--quad-degree", "4")
        r1 = run_cli(*args)
        r2 = run_cli(*args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout


class TestCheckCommand:
    def test_thm4_flat_holds(self, tmp_path):
        out = tmp_path / "c"
        r = run_cli("check", "--which", "thm4", "--catalog", "flat",
                    "--params", "n=2", "--K", "0", "--quad-degree", "4",
                    "--r-steps", "3", "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"] == ["holds"]
        assert (out / "tables" / "average_laplacian.csv").exists()

    def test_thm3_violated_exit_code(self, tmp_path):
        # flat metric against a strictly positive Ricci bound: certificate refuses
        r = run_cli("check", "--which", "thm3", "--catalog", "flat",
                    "--params", "n=2", "--K", "0.5", "--quad-degree", "4",
                    "--r-steps", "3")
        assert r.returncode == 1
        assert "refused" in r.stderr

    @pytest.mark.parametrize("which", ["thm3", "thm4", "rigidity"])
    def test_refused_certificate_integrates_no_flow(self, monkeypatch, capsys, which):
        from kahlercomp import comparison

        def no_flow(*args, **kwargs):
            raise AssertionError("SphereFlow built before the certificate was checked")

        monkeypatch.setattr(comparison, "SphereFlow", no_flow)
        status = cli.main(["check", "--which", which, "--catalog", "flat", "--params", "n=2",
                           "--K", "0.5", "--quad-degree", "4", "--r-steps", "3"])
        assert status == 1
        assert "Ricci bound certificate refused" in capsys.readouterr().err

    def test_report_records_ode_tolerance(self, tmp_path, capsys):
        """``--tol`` is the tolerance the flow integrates at and the one reported."""
        out = tmp_path / "tol"
        status = cli.main(["check", "--which", "thm4", "--catalog", "flat", "--params", "n=2",
                           "--K", "0", "--quad-degree", "4", "--r-steps", "3",
                           "--tol", "1e-9", "--out", str(out)])
        assert status == 0, capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["thm4"]["tolerances"] == {
            "margin": 1e-7, "ode": 1e-9}

    def test_rigidity_ignores_radius_grid(self, tmp_path, capsys):
        """The probe fits on its own radii, so ``--r-max`` moves nothing it reports."""
        blocks = []
        for name, grid in (("default", []), ("wide", ["--r-max", "0.09"])):
            out = tmp_path / name
            status = cli.main(["check", "--which", "rigidity", "--catalog", "section6",
                               "--params", "a=0.1", "--K", "-1.2", "--quad-degree", "4",
                               *grid, "--out", str(out)])
            assert status == 0, capsys.readouterr().err
            blocks.append(json.loads((out / "report.json").read_text())["rigidity"])
        assert blocks[0] == blocks[1]

    def test_counterexample_run(self, tmp_path):
        blocks = []
        for name in ("cx1", "cx2"):
            out = tmp_path / name
            r = run_cli("check", "--which", "counterexample", "--params", "a=0.1",
                        "--out", str(out))
            assert r.returncode == 0, r.stderr
            report = json.loads((out / "report.json").read_text())
            assert report["counterexample"]["passed_all"] is True
            assert (out / "tables" / "pointwise_gap.csv").exists()
            blocks.append(json.dumps(report["counterexample"]["lambda_search"], sort_keys=True))
        assert blocks[0] == blocks[1]
        search = report["counterexample"]["lambda_search"]
        assert (search["rho"], search["samples"], search["seed"]) == (0.05, 4000, 0)
        passing = [lam for lam, _, ok in search["steps"] if ok]
        assert passing[-1] == report["counterexample"]["lambda"]

    @pytest.mark.parametrize("which, argv, unread", [
        ("counterexample", ["--params", "a=0.1", "--tol", "1e-11"],
         {"catalog", "potential", "K", "quad_degree", "tol", "r_min", "r_max", "r_steps"}),
        ("rigidity", ["--catalog", "section6", "--params", "a=0.1", "--K", "-1.2",
                      "--quad-degree", "4"], {"r_min", "r_max", "r_steps"}),
        ("thm4", ["--catalog", "flat", "--params", "n=2", "--K", "0", "--quad-degree", "4",
                  "--r-steps", "2"], set()),
    ])
    def test_config_echo_records_read_options(self, tmp_path, capsys, which, argv, unread):
        """``config.echo.json`` holds the options the run reads and no other; a
        flag set to its default value is accepted."""
        out = tmp_path / which
        assert cli.main(["check", "--which", which, *argv, "--out", str(out)]) == 0, \
            capsys.readouterr().err
        echoed = set(json.loads((out / "config.echo.json").read_text()))
        every = {"command", "which", "out", "seed", "params", "catalog", "potential", "K",
                 "quad_degree", "tol", "r_min", "r_max", "r_steps"}
        assert echoed == every - unread

    @pytest.mark.parametrize("flag, value", [
        ("--K", "5"), ("--quad-degree", "2"), ("--tol", "1e-3"), ("--catalog", "section6"),
        ("--potential", "pot.json"), ("--r-min", "0.01"), ("--r-max", "0.05"),
        ("--r-steps", "3"),
    ])
    def test_counterexample_refuses_unread_flags(self, tmp_path, capsys, flag, value):
        """The counterexample builds its own potential, rule, grid and tolerance,
        so it refuses a flag that would not change its run."""
        out = tmp_path / "cx"
        status = cli.main(["check", "--which", "counterexample", "--params", "a=0.1",
                           flag, value, "--out", str(out)])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"does not read {flag}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--which", "thm3", "--catalog", "flat", "--params", "n=2"], "--K is required"),
        (["--which", "thm3", "--catalog", "section6", "--params", "a=0.1", "--K", "0",
          "--quad-degree", "4"], "certificate refused"),
    ])
    def test_refused_run_creates_no_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d"
        assert cli.main(["check", *argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("catalog, params, K, rule", [
        ("section6", "a=0.1", "-1.2", {"degree": 6, "nodes": 64, "rays": 2,
                                       "symmetry": "torus"}),
        ("perturbed", "n=2,seed=0", "-1", {"degree": 6, "nodes": 64, "rays": 64,
                                           "symmetry": "none"}),
    ])
    def test_report_records_rule(self, tmp_path, capsys, catalog, params, K, rule):
        out = tmp_path / "rule"
        status = cli.main(["check", "--which", "thm4", "--catalog", catalog,
                           "--params", params, "--K", K, "--quad-degree", "6",
                           "--r-steps", "2", "--out", str(out)])
        assert status == 0, capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["rule"] == rule

    @pytest.mark.parametrize("which", ["thm3", "thm4", "rigidity"])
    @pytest.mark.parametrize("catalog, params, K, symmetry", [
        ("section6", "a=0.1", "-1.2", "torus"),
        ("perturbed", "n=2,seed=0", "-1", "none"),
    ])
    def test_report_records_certificate(self, tmp_path, capsys, which, catalog, params, K,
                                        symmetry):
        out = tmp_path / "cert"
        status = cli.main(["check", "--which", which, "--catalog", catalog,
                           "--params", params, "--K", K, "--quad-degree", "4",
                           "--r-steps", "3", "--out", str(out)])
        assert status == 0, capsys.readouterr().err
        block = json.loads((out / "report.json").read_text())["certificate"]
        rho = 0.08 if which == "rigidity" else 0.04
        assert set(block) == {"rho", "samples", "min_eigenvalue", "passed", "rigorous",
                              "symmetry"}
        assert block["rho"] == rho and block["samples"] == 10513
        assert block["passed"] is True and block["rigorous"] is False
        assert block["symmetry"] == symmetry
        assert block["min_eigenvalue"] >= -1e-9

    def test_certificate_block_reproducible(self, tmp_path):
        args = ("check", "--which", "thm3", "--catalog", "section6", "--params", "a=0.1",
                "--K", "-1.2", "--quad-degree", "4", "--r-steps", "3")
        reports = []
        for name in ("r1", "r2"):
            r = run_cli(*args, "--out", str(tmp_path / name))
            assert r.returncode == 0, r.stderr
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[0] == reports[1]
        block = json.loads(reports[0])["certificate"]
        assert block["symmetry"] == "torus" and block["passed"] is True

    def test_reproducible_outputs(self, tmp_path):
        args = ("check", "--which", "thm4", "--catalog", "flat", "--params", "n=2",
                "--K", "0", "--quad-degree", "4", "--r-steps", "3")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        for name in ("report.json", "tables/average_laplacian.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            # the echoed config contains the differing --out path, reports must not
            assert b1 == b2, name


class TestUsageErrors:
    def test_missing_k(self):
        r = run_cli("check", "--which", "thm3", "--catalog", "flat", "--params", "n=2")
        assert r.returncode == 1

    def test_unknown_catalog(self):
        r = run_cli("series", "--catalog", "nope")
        assert r.returncode == 1

    def test_no_source(self):
        r = run_cli("series")
        assert r.returncode == 1

    def test_bad_flag(self):
        r = run_cli("check", "--which", "thm5")
        assert r.returncode == 1

    def test_malformed_params(self):
        r = run_cli("series", "--catalog", "flat", "--params", "n")
        assert r.returncode == 1

    @pytest.mark.parametrize("which", ["thm3", "thm4"])
    @pytest.mark.parametrize("grid, flag", [
        (["--r-steps", "0"], "--r-steps"),
        (["--r-steps", "-2"], "--r-steps"),
        (["--r-min", "0"], "--r-min"),
        (["--r-min", "-0.01"], "--r-min"),
        (["--r-min", "0.05", "--r-max", "0.01"], "--r-max"),
    ])
    def test_bad_radius_grid(self, capsys, which, grid, flag):
        status = cli.main(["check", "--which", which, "--catalog", "flat", "--params", "n=2",
                           "--K", "0", "--quad-degree", "4", *grid])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("argv", [
        ["model", "--n", "2", "--K", "0", "--seed", "1"],
        ["series", "--catalog", "flat", "--params", "n=2", "--seed", "1"],
        ["series", "--catalog", "flat", "--params", "n=2", "--tol", "1e-9"],
    ])
    def test_unread_flags_refused(self, argv, capsys):
        """``model`` and ``series`` draw no sample and integrate no ray."""
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["-1", "-3"])
    def test_negative_series_order(self, capsys, order):
        assert cli.main(["series", "--catalog", "flat", "--params", "n=2",
                         "--order", order]) == 1
        assert f"--order must be at least 0, got {order}" in capsys.readouterr().err

    def test_bad_model_grid(self, capsys):
        assert cli.main(["model", "--n", "2", "--K", "0", "--r-steps", "0"]) == 1
        assert "--r-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, missing", [
        (["check", "--which", "thm3", "--catalog", "section6", "--K", "-1.2"], "'a'"),
        (["check", "--which", "thm4", "--catalog", "flat", "--K", "0"], "'n'"),
        (["series", "--catalog", "space_form", "--params", "n=2"], "'K'"),
    ])
    def test_missing_catalog_parameter(self, argv, missing, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert missing in err and repr(argv[argv.index("--catalog") + 1]) in err


class TestImports:
    def test_core_loads_no_heavy_scipy_subpackage(self):
        """Importing the CLI loads numpy, scipy's top-level package and two
        scipy files read by path; no scipy subpackage, no ``numpy.f2py`` and
        no ``numpy.ma``.  A thm3 check (Ricci certificate, ray fan, volumes)
        imports nothing further."""
        code = (
            "import contextlib, io, sys\n"
            "from kahlercomp import cli\n"
            "heavy = ('scipy.stats', 'scipy.integrate', 'scipy.optimize',"
            " 'scipy.linalg', 'scipy.special', 'scipy.sparse', 'numpy.f2py', 'numpy.ma')\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m in heavy"
            " or m.startswith(tuple(h + '.' for h in heavy)))\n"
            "at_import = loaded()\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['check', '--which', 'thm3', '--catalog', 'section6',"
            " '--params', 'a=0.1', '--K', '-1.2', '--quad-degree', '6', '--r-steps', '2'])\n"
            "print(status, at_import, loaded(), sorted(set(sys.modules) - before))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "0 [] [] []"
