"""Experiment runner: config validation, reports, curves, determinism."""

import json
import os

import numpy as np
import pytest

from epiconv import cli


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "seed": 7,
    "n": 2,
    "domain": {"kind": "halfspace"},
    "norm": {"kind": "euclidean"},
    "params": {"a": 2.0, "p": 1.5},
    "checks": ["constants"],
    "quadrature": {"half_width": 5.0, "dx": 0.1, "levels": 5},
}


class TestConfigParsing:
    def test_unknown_check_rejected_with_position(self):
        doc = dict(BASE, checks=["constants", "frobnicate"])
        with pytest.raises(cli.ConfigError, match=r"checks\[1\].*frobnicate"):
            cli.parse_config(doc)

    def test_unknown_domain_rejected(self):
        doc = dict(BASE, domain={"kind": "torus"})
        with pytest.raises(cli.ConfigError, match="domain"):
            cli.parse_config(doc)

    def test_defaults_fill_in(self):
        cfg = cli.parse_config({"checks": []})
        assert cfg.n == 2 and cfg.domain.kind == "halfspace"

    def test_empty_checks_run_is_empty_pass(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, checks=[]))
        report = cli.run(path)
        assert report.results == []
        assert report.passed

    def test_invalid_params_become_check_error(self, tmp_path):
        # p >= n violates the standing hypothesis; the check reports the
        # violated inequality instead of aborting the run
        doc = dict(BASE, params={"a": 2.0, "p": 3.0})
        path = write_config(tmp_path, doc)
        report = cli.run(path)
        assert len(report.results) == 1
        res = report.results[0]["result"]
        assert res["status"] == "error"
        assert "a >= n > p > 1" in res["message"]
        assert not report.passed


class TestRunAndReport:
    def test_constants_check_passes(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "report.json"
        report = cli.run(path, str(out))
        assert report.passed
        doc = json.loads(out.read_text())
        assert doc["results"][0]["check"] == "constants"
        assert "wall" not in json.dumps(doc)

    def test_exit_status_reflects_assertions(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, BASE)
        assert cli.main(["run", path, "--report", str(tmp_path / "r.json")]) == 0
        bad = write_config(tmp_path, dict(BASE, params={"a": 2.0, "p": 3.0}), "bad.json")
        assert cli.main(["run", bad, "--report", str(tmp_path / "r2.json")]) == 1

    def test_unreadable_config_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path)]) == 2

    def test_partial_failure_does_not_abort(self, tmp_path):
        doc = dict(BASE, checks=["constants", "trace_gn"], fixture={"kind": "extremal"})
        doc["params"] = {"a": 2.0, "p": 4 / 3}
        path = write_config(tmp_path, doc)
        report = cli.run(path)
        assert len(report.results) == 2

    def test_unknown_fixture_is_check_error(self, tmp_path):
        # grid fixtures are not a kind: no check can use one, so the checks
        # that read the fixture report an error and the run still finishes
        doc = dict(BASE, checks=["trace_gn", "constants"], fixture={"kind": "grid_file"})
        out = tmp_path / "r.json"
        report = cli.run(write_config(tmp_path, doc), str(out))
        status = {r["check"]: r["result"]["status"] for r in report.results}
        assert status == {"trace_gn": "error", "constants": "pass"}
        assert "unknown fixture kind 'grid_file'" in report.results[0]["result"]["message"]
        assert len(json.loads(out.read_text())["results"]) == 2

    def test_report_write_is_atomic(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "r.json"
        cli.run(path, str(out))
        assert not (tmp_path / "r.json.tmp").exists()
        assert out.exists()


class TestCurves:
    def test_phi_and_terms_curves(self, tmp_path):
        report = {
            "seed": 1,
            "results": [
                {
                    "experiment": "x",
                    "check": "equivalence_scan",
                    "result": {
                        "status": "pass",
                        "assertions": [],
                        "phi_curve": [
                            {"h": 0.0, "phi": 1.0, "error": 0.0},
                            {"h": 0.5, "phi": 1.01, "error": 0.002},
                        ],
                    },
                },
                {
                    "experiment": "x",
                    "check": "appendix_limit",
                    "result": {
                        "status": "pass",
                        "assertions": [],
                        "records": [
                            {"h": 0.1, "term_i": 1.0, "term_ii": 2.0, "term_iii": 0.0, "residual": -0.01},
                        ],
                    },
                },
            ],
        }
        rpath = tmp_path / "r.json"
        rpath.write_text(json.dumps(report))
        out = tmp_path / "curves"
        written = cli.emit_curves(str(rpath), str(out))
        assert sorted(os.path.basename(w) for w in written) == [
            "x_appendix_limit_terms.csv",
            "x_equivalence_scan_phi.csv",
        ]
        phi = (out / "x_equivalence_scan_phi.csv").read_text().splitlines()
        assert phi[0] == "h,phi,error"
        assert phi[1].startswith("0.0,1.0,")
        terms = (out / "x_appendix_limit_terms.csv").read_text().splitlines()
        assert terms[0] == "h,term_i,term_ii,term_iii,residual"

    def test_cli_curves_command(self, tmp_path):
        rpath = tmp_path / "r.json"
        rpath.write_text(json.dumps({"seed": 0, "results": []}))
        assert cli.main(["curves", str(rpath), "--out", str(tmp_path / "c")]) == 0


def test_trace_refinement_curve_emitted(tmp_path):
    doc = dict(
        BASE,
        checks=["trace_gn"],
        quadrature={"half_width": 4.0, "dx": 0.2, "levels": 5, "refinements": 1},
    )
    path = write_config(tmp_path, doc)
    out = tmp_path / "r.json"
    report = cli.run(path, str(out))
    res = report.results[0]["result"]
    assert "refinement_curve" in res and len(res["refinement_curve"]) == 2
    assert res["refinement_curve"][1]["dx"] == pytest.approx(0.1)
    written = cli.emit_curves(str(out), str(tmp_path / "curves"))
    names = [os.path.basename(w) for w in written]
    assert any(n.endswith("_refinement.csv") for n in names)
    csv = next(w for w in written if w.endswith("_refinement.csv"))
    lines = open(csv).read().splitlines()
    assert lines[0] == "dx,abs_ratio_minus_one"


def test_rerun_bit_identical(tmp_path):
    doc = dict(BASE, checks=["constants", "admissibility"])
    path = write_config(tmp_path, doc)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    cli.run(path, str(out1))
    cli.run(path, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_thread_count_env_does_not_change_results(tmp_path, monkeypatch):
    doc = dict(BASE, checks=["constants", "admissibility"])
    path = write_config(tmp_path, doc)
    out1 = tmp_path / "serial.json"
    out2 = tmp_path / "threaded.json"
    cli.run(path, str(out1))
    monkeypatch.setenv("EPICONV_THREADS", "4")
    cli.run(path, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_paper_suite_configs_parse():
    cfgs = cli.paper_suite_configs()
    assert len(cfgs) == 5
    assert all(c.checks for c in cfgs)
