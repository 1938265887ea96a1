"""CLI behavior: tables, reports, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kahlercomp import cli, comparison
from kahlercomp import model_space as M
from kahlercomp import potential as P
from kahlercomp.model_space import ModelSpace

# the variables OpenBLAS reads its thread count from, and the CPUs it may use
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0))


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

    def test_out_table_is_what_stdout_prints(self, tmp_path, capsys):
        argv = ["model", "--n", "2", "--K", "1", "--r-steps", "3"]
        out = tmp_path / "run"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in out.iterdir()) == ["config.echo.json", "report.json",
                                                          "tables"]
        assert [p.name for p in (out / "tables").iterdir()] == ["model.csv"]
        assert cli.main(argv) == 0
        assert (out / "tables" / "model.csv").read_bytes().decode() == capsys.readouterr().out


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


    @pytest.mark.parametrize("catalog, params, argv, rule", [
        ("perturbed", "n=2,seed=0", ["--order", "4"],
         {"degree": 6, "nodes": 64, "rays": 64, "symmetry": "none"}),
        ("perturbed", "n=2,seed=0", ["--order", "7"],
         {"degree": 8, "nodes": 150, "rays": 150, "symmetry": "none"}),
        ("perturbed", "n=2,seed=0", ["--order", "10", "--quad-degree", "4"],
         {"degree": 4, "nodes": 36, "rays": 36, "symmetry": "none"}),
        ("section6", "a=0.1", [], {"degree": 6, "nodes": 2, "rays": 2, "symmetry": "torus"}),
    ])
    def test_report_records_derived_rule(self, capsys, catalog, params, argv, rule):
        """Without --quad-degree the rule has the least even degree at least 6
        and --order, so every averaged order is exact."""
        assert cli.main(["series", "--catalog", catalog, "--params", params, *argv]) == 0
        assert json.loads(capsys.readouterr().out)["rule"] == rule

    @pytest.mark.parametrize("argv", [
        ["series", "--catalog", "perturbed", "--params", "n=4,seed=0", "--order", "10"],
        ["check", "--which", "thm4", "--catalog", "perturbed", "--params", "n=5,seed=0",
         "--K", "-1"],
    ])
    def test_derived_rule_out_of_reach(self, tmp_path, capsys, argv):
        """A derived rule above the node limit is refused before any lattice
        search and any ray, and the message points to --quad-degree."""
        out = tmp_path / "d"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "MAX_RULE_NODES" in err and "pass a smaller --quad-degree" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("verdict, status", [("violated", 2), ("inconclusive", 3)])
    def test_exit_code_of_a_verdict(self, tmp_path, capsys, monkeypatch, verdict, status):
        """A violated check exits 2 and an inconclusive one 3; both still
        write their report."""
        monkeypatch.setattr(comparison, "_verdict", lambda margins, tol: verdict)
        out = tmp_path / "v"
        assert cli.main(["check", "--which", "thm4", "--catalog", "flat", "--params", "n=2",
                         "--K", "0", "--quad-degree", "4", "--r-steps", "3",
                         "--out", str(out)]) == status
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"] == [verdict] and report["thm4"]["verdict"] == verdict

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

    @pytest.mark.parametrize("a", ["1e-4", "-1e-4", "1e-300"])
    def test_unresolved_counterexample_is_inconclusive(self, tmp_path, capsys, a):
        """A failing stage whose margins its budget cannot resolve exits 3:
        at |a| = 1e-4 no pointwise |margin| clears 10 times its budget, and at
        a = 1e-300 the r^4 margin and its budget are 0."""
        out = tmp_path / "ce"
        assert cli.main(["check", "--which", "counterexample", "--params", f"a={a}",
                         "--out", str(out)]) == 3, capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        stages = report["counterexample"]["stages"]
        assert report["verdicts"] == ["inconclusive"]
        assert not report["counterexample"]["passed_all"]
        gap, r4 = stages["pointwise_gap"], stages["r4_coefficient"]
        assert gap["passed"] is False and gap["interval"] is None
        assert max(map(abs, gap["margins"])) <= 10 * gap["error_budget"]
        assert r4["passed"] or abs(r4["margin"]) <= r4["budget"]
        assert all(stages[k]["passed"] for k in
                   ("metric_series", "ricci_vanishing", "origin_curvature"))

    def test_resolved_counterexample_failure_is_violated(self, tmp_path, capsys,
                                                         monkeypatch):
        """Stage iv off its closed form by far more than its budget exits 2."""
        from fractions import Fraction
        exact = comparison._r4_exact_margin
        monkeypatch.setattr(comparison, "_r4_exact_margin", lambda a: exact(a) + Fraction(1))
        out = tmp_path / "ce"
        assert cli.main(["check", "--which", "counterexample", "--params", "a=0.1",
                         "--out", str(out)]) == 2, capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["verdicts"] == ["violated"]

    def test_thm3_radius_limit(self, tmp_path, capsys, monkeypatch):
        """thm3 takes up to ``VOLUME_RATIO_RADII`` radii; one more is refused
        with one ``error:`` line before any certificate is drawn, and leaves
        no output directory."""
        limit = comparison.VOLUME_RATIO_RADII
        argv = ["check", "--which", "thm3", "--catalog", "flat", "--params", "n=2",
                "--K", "0", "--quad-degree", "2"]
        out = tmp_path / "ok"
        assert cli.main([*argv, "--r-steps", str(limit), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["thm3"]["rows"]
        assert len(rows) == limit * (limit - 1) // 2

        def no_certificate(*args, **kwargs):
            raise AssertionError("certificate drawn for a refused radius grid")

        monkeypatch.setattr(comparison, "certify_ricci_bound", no_certificate)
        capsys.readouterr()
        out = tmp_path / "refused"
        assert cli.main([*argv, "--r-steps", str(limit + 1), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at most {limit} radii" in err
        assert not out.exists()

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
        (["--which", "thm3", "--catalog", "flat", "--params", "n=2", "--K", "0",
          "--r-min", "0.04", "--r-max", "0.04", "--r-steps", "3"], "distinct radii"),
        (["--which", "thm3", "--catalog", "flat", "--params", "n=2", "--K", "0",
          "--r-steps", "1"], "at least two radii"),
    ])
    def test_refused_run_creates_no_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d"
        assert cli.main(["check", *argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("catalog, params, K, rule", [
        ("section6", "a=0.1", "-1.2", {"degree": 6, "nodes": 2, "rays": 2,
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

    def test_torus_runs_search_no_lattice(self):
        """A torus-reduced check or series reads only the moment nodes, and
        records them as its ``nodes``: the lattice memo stays empty."""
        code = (
            "import contextlib, io, json\n"
            "from kahlercomp import cli, sphere\n"
            "for argv in (['check', '--which', 'thm4', '--catalog', 'space_form',"
            " '--params', 'n=3,K=1', '--K', '1'],"
            " ['series', '--catalog', 'section6', '--params', 'a=0.1', '--order', '4']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        status = cli.main(argv)\n"
            "    rule = json.loads(out.getvalue())['rule']\n"
            "    print(status, rule['nodes'], rule['rays'],"
            " sphere.rank1_lattice.cache_info().currsize)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split("\n")[:2] == ["0 6 6 0", "0 2 2 0"]

    def test_torus_run_at_n5_integrates_the_moment_rays(self):
        """The node limit reads the rays a run integrates: flat(5) at the
        default degree 6 fans out to its 72 moment nodes, far below the
        limit that its full rule (at least 16 704 nodes) exceeds, so the
        check runs and the lattice memo stays empty."""
        code = (
            "import contextlib, io, json\n"
            "from kahlercomp import cli, sphere\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    status = cli.main(['check', '--which', 'thm4', '--catalog', 'flat',"
            " '--params', 'n=5', '--K', '0'])\n"
            "report = json.loads(out.getvalue())\n"
            "print(status, report['verdicts'], report['rule'],"
            " sphere.rank1_lattice.cache_info().currsize)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == ("0 ['holds'] {'degree': 6, 'nodes': 72, 'rays': 72, "
                                    "'symmetry': 'torus'} 0")

    def test_out_of_reach_rule_is_refused_before_the_certificate(self, monkeypatch, capsys):
        """A generic input at n = 5 needs the full default rule, at least
        16 704 nodes: thm4 and rigidity refuse it before they certify
        anything.  flat(5) fans out to its moment nodes, so its run goes on
        to the certificate (and holds: ``test_torus_run_at_n5_...``)."""
        def refuse(*args, **kwargs):
            raise AssertionError("certified before the node limit")

        monkeypatch.setattr(comparison, "certify_ricci_bound", refuse)
        for which in ("thm4", "rigidity"):
            assert cli.main(["check", "--which", which, "--catalog", "perturbed",
                             "--params", "n=5,seed=0", "--K", "-1"]) == 1
            err = capsys.readouterr().err
            assert "has at least 16704 nodes" in err and "MAX_RULE_NODES" in err, err
        with pytest.raises(AssertionError, match="certified before the node limit"):
            cli.main(["check", "--which", "thm4", "--catalog", "flat", "--params", "n=5",
                      "--K", "0"])

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--r-steps", "0", "--r-steps"), ("--r-max", "inf", "--r-max < inf")])
    def test_bad_model_grid(self, tmp_path, capsys, flag, value, message):
        """Each refusal exits 1 with one ``error:`` line and writes nothing; an
        infinite --r-max used to print a nan row."""
        out = tmp_path / "d"
        assert cli.main(["model", "--n", "2", "--K", "-1", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("K, r_max", [("0", "1e308"), ("-1", "1000")])
    def test_model_overflow_is_a_domain_error(self, capsys, K, r_max):
        """A radius where a closed form overflows a float is a ``domain_error``
        row, not an ``OverflowError`` traceback; the finite row stays ``ok``."""
        assert cli.main(["model", "--n", "2", "--K", K, "--r-max", r_max,
                         "--r-steps", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))[1:]
        assert [row[1] for row in rows] == ["ok", "domain_error", "domain_error"]
        assert all(math.isfinite(float(x)) for x in rows[0][2:])

    @pytest.mark.parametrize("K, r_min, r_max", [("-1", "1e-320", "1e-300"),
                                                 ("1", "1e-200", "1e-100")])
    def test_model_underflow_is_a_domain_error(self, capsys, K, r_min, r_max):
        """A row is ``ok`` only when its density, area and volume are finite and
        positive and its Laplacian is finite: here r^3 or r^4 underflows to 0."""
        assert cli.main(["model", "--n", "2", "--K", K, "--r-min", r_min, "--r-max", r_max,
                         "--r-steps", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [row[1:] for row in rows] == [["domain_error", "", "", "", ""]] * 2

    @pytest.mark.parametrize("n, K, message", [
        ("2", "nan", "--K must be finite"), ("2", "inf", "--K must be finite"),
        ("2", "-inf", "--K must be finite"), ("0", "1", "--n must be at least 1"),
        ("-1", "0", "--n must be at least 1")])
    def test_bad_model_space(self, tmp_path, capsys, n, K, message):
        """Each refusal exits 1 with one ``error:`` line and writes nothing."""
        out = tmp_path / "d"
        assert cli.main(["model", f"--n={n}", f"--K={K}", "--r-steps", "2",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, missing", [
        (["check", "--which", "thm3", "--catalog", "section6", "--K", "-1.2"], "'a'"),
        (["check", "--which", "thm4", "--catalog", "flat", "--K", "0"], "'n'"),
        (["series", "--catalog", "space_form", "--params", "n=2"], "'K'"),
    ])
    def test_missing_catalog_parameter(self, argv, missing, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert missing in err and repr(argv[argv.index("--catalog") + 1]) in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1e-25"])
    def test_ode_tolerance_outside_its_range(self, capsys, tol):
        assert cli.main(["check", "--which", "thm4", "--catalog", "flat", "--params", "n=2",
                         "--K", "0", "--quad-degree", "4", "--r-steps", "2",
                         "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "ODE tolerance" in err

    @pytest.mark.parametrize("argv, message", [
        (["check", "--which", "thm4", "--catalog", "section6", "--params", "a=inf",
          "--K", "-1.2"], "'a' must be finite"),
        (["series", "--catalog", "section6", "--params", "a=nan"], "'a' must be finite"),
        (["check", "--which", "counterexample", "--params", "a=inf"], "'a' must be finite"),
        (["check", "--which", "counterexample", "--params", "a=0.1,lambda=-inf"],
         "'lambda' must be finite"),
        (["check", "--which", "thm4", "--catalog", "section6", "--params", "a=0.1",
          "--K", "nan"], "--K must be finite"),
        (["check", "--which", "thm3", "--catalog", "flat", "--params", "n=2",
          "--K=-inf"], "--K must be finite"),
        (["check", "--which", "thm4", "--catalog", "section6", "--params", "a=0.1,b=1",
          "--K", "-1.2"], "'b'"),
        (["series", "--catalog", "flat", "--params", "n=2,K=1"], "'K'"),
        (["check", "--which", "counterexample", "--params", "b=0.1"], "'b'"),
        (["check", "--which", "counterexample", "--params", "a=0.1,lam=1"], "'lam'"),
        (["series", "--catalog", "section6", "--params", "a=0.1,lam=1"], "'lam'"),
        (["check", "--which", "counterexample", "--params", "a=0.1,lambda=-1"],
         "certificate refused for lambda"),
        (["check", "--which", "counterexample", "--params", "a=0.1", "--seed", "-1"],
         "certificate seed must be an integer in [0, 2^64), got -1"),
        (["check", "--which", "thm4", "--catalog", "flat", "--params", "n=2", "--K", "0",
          "--seed", "-1"], "certificate seed must be an integer in [0, 2^64), got -1"),
        (["check", "--which", "thm4", "--catalog", "section6", "--params", "a=0.1", "--K",
          "-1.2", "--seed", "18446744073709551616"],
         "certificate seed must be an integer in [0, 2^64), got 18446744073709551616"),
        (["check", "--which", "counterexample", "--params", "a=0.1", "--seed",
          "18446744073709551616"],
         "certificate seed must be an integer in [0, 2^64), got 18446744073709551616"),
        (["check", "--which", "thm4", "--catalog", "section6", "--params", "a=0.1", "--K",
          "-1.2", "--r-max", "0.3", "--r-steps", "3"], "leaves the validity ball |z| < 0.1"),
    ])
    def test_refused_parameters(self, tmp_path, capsys, argv, message):
        """Each refusal exits 1 with one ``error:`` line and writes nothing."""
        out = tmp_path / "d"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


class TestRefusedInputs:
    FLAT = [{"alpha": [1, 0], "beta": [1, 0], "re": 1}, {"alpha": [0, 1], "beta": [0, 1], "re": 1}]

    @pytest.mark.parametrize("doc, message", [
        ({"catalog": {"n": 2}}, "'name'"),
        ({"catalog": "flat"}, "'name'"),
        (5, "JSON object"),
        ({"n": 2.7, "terms": FLAT}, "n must be an integer"),
        ({"n": 2, "max_degree": 4.9, "terms": FLAT}, "max_degree must be an integer"),
        ({"n": 2, "validity_radius": math.nan, "terms": FLAT}, "validity radius"),
        ({"n": 2, "validity_radius": -1, "terms": FLAT}, "validity radius"),
        ({"n": 2, "validity_radius": 0, "terms": FLAT}, "validity radius"),
        # JSON reads 1e309 as inf
        ({"n": 2, "terms": [*FLAT, {"alpha": [2, 0], "beta": [2, 0], "re": math.inf}]},
         "alpha [2, 0] and beta [2, 0] must be a finite number, got re inf"),
        ({"n": 2, "terms": [*FLAT, {"alpha": [2, 0], "beta": [2, 0], "re": 1, "im": math.nan}]},
         "must be a finite number, got re 1, im nan"),
    ])
    def test_refused_documents(self, tmp_path, capsys, doc, message):
        """Each malformed potential document exits 1 with one ``error:`` line."""
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "d"
        assert cli.main(["check", "--which", "thm4", "--potential", str(path), "--K", "0",
                         "--quad-degree", "4", "--r-steps", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["check", "--which", "thm4", "--catalog", "perturbed", "--params", "n=2.7,seed=0",
          "--K", "-1"], "n must be an integer"),
        (["check", "--which", "thm4", "--catalog", "perturbed", "--params", "n=2,seed=0.9",
          "--K", "-1"], "seed must be an integer"),
        (["series", "--catalog", "space_form", "--params", "n=2,K=1,degree=12.5"],
         "degree must be an integer"),
        (["series", "--catalog", "flat", "--params", "n=2.5"], "n must be an integer"),
    ])
    def test_non_integral_parameters(self, tmp_path, capsys, argv, message):
        out = tmp_path / "d"
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    # the flat terms plus 1e308 |z1|^4: g_11 then has the coefficient 4e308
    HUGE = [*FLAT, {"alpha": [2, 0], "beta": [2, 0], "re": 1e308}]

    @pytest.mark.parametrize("argv, message", [
        (["check", "--which", "thm4", "--K", "0", "--potential", "HUGE"],
         "the coefficient of z^(1, 0) conj(z)^(1, 0) has real part 4.000e+308, beyond the "
         "float range"),
        (["series", "--potential", "HUGE"],
         "the coefficient of z^(1, 0) conj(z)^(1, 0) has real part 4.000e+308"),
        (["check", "--which", "counterexample", "--params", "a=1e308"],
         "the coefficient of z^(0, 1) conj(z)^(0, 1) has real part 8.000e+308"),
        (["check", "--which", "counterexample", "--params", "a=-100"],
         "no stabilizer weight lambda below 1e6 makes Ric >= -12a g hold on the 0.05-ball "
         "for a = -100"),
        (["series", "--catalog", "flat", "--params", "n=2", "--order", "25"],
         "--order 25 asks for a sphere rule of degree 26: exactness degree must lie in 0..20"),
    ], ids=["thm4-overflow", "series-overflow", "counterexample-overflow",
            "counterexample-no-lambda", "series-order-25"])
    def test_out_of_range(self, tmp_path, capsys, argv, message):
        """Coefficients beyond the float range, a counterexample no stabilizer
        weight certifies and a series order beyond every rule exit 1 with one
        ``error:`` line, not a traceback."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "terms": self.HUGE}))
        out = tmp_path / "d"
        argv = [str(path) if a == "HUGE" else a for a in argv]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    def test_integral_float_parameter_runs(self, capsys):
        assert cli.main(["series", "--catalog", "flat", "--params", "n=2.0",
                         "--order", "2"]) == 0


class TestRadiusFloor:
    """A radius below r_floor = 64 eps (2n - 1) / TOL_LAPLACIAN exits 1: there
    one ulp of the Laplacians, about (2n - 1)/r, exceeds TOL_LAPLACIAN / 64."""

    POTENTIALS = [("space_form", "n=2,K=1", "1"), ("section6", "a=0.1", "-1.2"),
                  ("perturbed", "n=2,seed=0", "-1")]

    @staticmethod
    def argv(which, potential, r_min):
        catalog, params, K = potential
        return ["check", "--which", which, "--catalog", catalog, "--params", params,
                "--K", K, "--r-min", repr(float(r_min)), "--r-max", "0.04", "--r-steps", "2"]

    @pytest.mark.parametrize("which, potential, r_min", [
        pytest.param(which, pot, r, id=f"{which}-{pot[0]}-{r:g}")
        for which, pot, r in [*[("thm4", pot, r) for pot in POTENTIALS for r in (1e-60, 1e-9)],
                              ("thm4", POTENTIALS[1], 1e-120), ("thm4", POTENTIALS[1], 1e-200),
                              ("thm3", POTENTIALS[2], 1e-200)]])
    def test_refused(self, tmp_path, capsys, which, potential, r_min):
        out = tmp_path / "d"
        assert cli.main([*self.argv(which, potential, r_min), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "below the floor 4.26e-07" in err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["thm3", "thm4"])
    @pytest.mark.parametrize("potential", POTENTIALS, ids=[p[0] for p in POTENTIALS])
    def test_twice_the_floor_holds(self, capsys, which, potential):
        r_floor = 64 * np.finfo(float).eps * 3 / comparison.TOL_LAPLACIAN
        assert cli.main(self.argv(which, potential, 2 * r_floor)) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == ["holds"]


class TestUnreadablePaths:
    """A path the run cannot read or create exits 1 with one ``error:`` line."""

    def test_missing_potential_file(self, capsys):
        assert cli.main(["series", "--potential", "/nonexistent.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "nonexistent" in err

    @pytest.mark.parametrize("argv", [
        ["model", "--n", "2", "--K", "1", "--r-steps", "2"],
        ["check", "--which", "thm4", "--catalog", "flat", "--params", "n=2", "--K", "0"],
    ])
    def test_out_under_a_regular_file(self, tmp_path, capsys, argv):
        (tmp_path / "FILE").write_text("")
        assert cli.main([*argv, "--out", str(tmp_path / "FILE" / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["FILE"]
        assert (tmp_path / "FILE").read_text() == ""


class TestParser:
    def test_main_builds_one_parser(self, monkeypatch, capsys):
        """Repeated ``cli.main`` calls in one process, the counterexample's
        check of unread flags included, build the argument parser once."""
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(cli._Parser, "__init__", counting)
        model = ["model", "--n", "2", "--K", "1", "--r-steps", "2"]
        assert cli.main(model) == 0
        assert cli.main(["check", "--which", "counterexample", "--K", "5"]) == 1
        assert cli.main(model) == 0
        assert "does not read --K" in capsys.readouterr().err
        assert built.count("kahlercomp") == 1


class TestImports:
    @staticmethod
    def fresh(code, **env):
        """Run ``code`` in a fresh interpreter, with no BLAS thread count in its
        environment but ``env``; returns its standard output."""
        base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**base, **env})
        assert r.returncode == 0, r.stderr
        return r.stdout.split()

    REPORT = ("import os\n"
              "before = dict(os.environ)\n"
              "import kahlercomp\n"
              "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n")

    def test_numpy_loads_with_one_blas_thread(self):
        """``import kahlercomp`` loads numpy with one OpenBLAS thread, so no
        pool thread starts, and leaves the environment as it was."""
        threads, same = self.fresh(self.REPORT)
        assert same == "True"
        if CPUS >= 2:   # on one CPU OpenBLAS starts no pool either way
            assert threads == "1"

    @pytest.mark.skipif(CPUS < 2, reason="OpenBLAS caps its threads at the CPUs it may use")
    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_user_thread_count_is_kept(self, var):
        """A thread count the user set is left as it is."""
        code = self.REPORT + f"print(os.environ[{var!r}])\n"
        assert self.fresh(code, **{var: "2"}) == ["2", "True", "2"]

    def test_numpy_loaded_first_is_left_alone(self):
        """With numpy loaded before kahlercomp, its pool is left as it is and
        the environment is not written to: another thread may be reading it."""
        code = ("import os\n"
                "import numpy\n"
                "threads = len(os.listdir('/proc/self/task'))\n"
                "writes = []\n"
                "os.putenv = lambda key, value: writes.append(key)\n"
                "os.unsetenv = lambda key: writes.append(key)\n"
                "import kahlercomp\n"
                "print(threads, len(os.listdir('/proc/self/task')), writes)\n")
        before, after, writes = self.fresh(code)
        assert before == after and writes == "[]"
        if CPUS >= 2:
            assert int(after) > 1
    def test_core_loads_no_heavy_scipy_subpackage(self):
        """Importing the CLI loads numpy and two scipy files read by path; no
        scipy package (not even the top-level one), no ``numpy.f2py`` and no
        ``numpy.ma``.  A thm3 check (Ricci certificate, ray fan, volumes)
        imports nothing further than building the argument parser does
        (argparse's gettext loads the standard ``locale`` on first use).

        The certificate draws its sample without ``numpy.random``, so neither
        it nor what it imports (``secrets``, ``hashlib`` and OpenSSL's
        ``_hashlib``) is loaded.  A ``perturbed`` potential loads
        ``numpy.random`` on first use and draws the same potential as ever."""
        code = (
            "import contextlib, io, sys\n"
            "from kahlercomp import cli, potential\n"
            "assert 'scipy' not in sys.modules\n"
            "heavy = ('scipy.stats', 'scipy.integrate', 'scipy.optimize',"
            " 'scipy.linalg', 'scipy.special', 'scipy.sparse', 'numpy.f2py', 'numpy.ma',"
            " 'numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m in heavy"
            " or m.startswith(tuple(h + '.' for h in heavy)))\n"
            "at_import = loaded()\n"
            "cli._build_parser()\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['check', '--which', 'thm3', '--catalog', 'section6',"
            " '--params', 'a=0.1', '--K', '-1.2', '--quad-degree', '6', '--r-steps', '2'])\n"
            "print(status, at_import, loaded(), sorted(set(sys.modules) - before))\n"
            "pot = potential.from_catalog('perturbed', n=2, seed=0)\n"
            "import hashlib\n"
            "print('numpy.random' in sys.modules,"
            " hashlib.sha256(potential.dumps(pot).encode()).hexdigest()[:16])\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split("\n")[:2] == ["0 [] [] []", "True 7b70b3b13bca70d0"]
