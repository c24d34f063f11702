"""Experiment runner: config validation, reports, curves, determinism."""

import json
import os
import sys
import threading
import time

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
    with open(csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "dx,abs_ratio_minus_one"


def test_rerun_bit_identical(tmp_path):
    doc = dict(BASE, checks=["constants", "admissibility"])
    path = write_config(tmp_path, doc)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    cli.run(path, str(out1))
    cli.run(path, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


SHARING = dict(
    BASE,
    domain={"kind": "affine_max", "slopes": [[0.5], [-1.0]]},
    params={"a": 2.0, "p": 4 / 3},
    checks=["constants", "weighted_trace", "derived_gap", "admissibility"],
    quadrature={"half_width": 5.0, "dx": 0.05, "levels": 5},
)


def _same_bytes_across_thread_counts(tmp_path, monkeypatch, doc):
    path = write_config(tmp_path, doc)
    out1 = tmp_path / "serial.json"
    cli.run(path, str(out1))
    assert all(r["result"]["status"] == "pass" for r in json.loads(out1.read_text())["results"])
    for threads in ("2", "4"):
        out2 = tmp_path / f"threads{threads}.json"
        monkeypatch.setenv("EPICONV_THREADS", threads)
        cli.run(path, str(out2))
        assert out1.read_bytes() == out2.read_bytes()


def test_thread_count_env_does_not_change_results(tmp_path, monkeypatch):
    # the checks share their constants; threads racing for them change no byte
    _same_bytes_across_thread_counts(tmp_path, monkeypatch, SHARING)


def test_thread_count_env_does_not_change_bbl_gap(tmp_path, monkeypatch):
    # bbl_gap on the analytic pair, by the Hopf bracket, beside a pointwise check
    cfg = next(c for c in cli.paper_suite_configs() if c.name == "dynamics_q4_a2")
    doc = dict(cfg.raw, checks=["bbl_gap", "hj_quotient"])
    _same_bytes_across_thread_counts(tmp_path, monkeypatch, doc)


def _count_calls(monkeypatch, module, name, counts, fail=None):
    orig = getattr(module, name)

    def spy(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if fail is not None:
            raise ValueError(fail)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_checks_share_constants(tmp_path, monkeypatch, threads):
    # per quadrature spec: the two moment integrals (one stacked sweep) and
    # the constants once; per config: the direct normalization check once,
    # with the moment the constants use
    monkeypatch.setenv("EPICONV_THREADS", threads)
    counts = {}
    for name in ("_moments", "_gns_constants", "_normalize_power_cost"):
        _count_calls(monkeypatch, cli.sc, name, counts)
    doc = dict(SHARING, checks=SHARING["checks"] + ["trace_gn"])
    doc["domain"] = {"kind": "cone", "slope": 1.0}
    doc["quadrature"] = dict(SHARING["quadrature"], refinements=1)
    report = cli.run(write_config(tmp_path, doc))
    assert [r["result"]["status"] for r in report.results] == ["pass"] * 5
    # two specs: the config's and trace_gn's refined one
    assert counts == {"_moments": 2, "_gns_constants": 2, "_normalize_power_cost": 1}


def test_derived_gap_shares_B_with_constants(tmp_path, monkeypatch):
    # int W^(1-a) on the config's spec is the constants' B and the right-hand
    # side of derived_gap: one integration serves both, and derived_gap
    # reports what a run of its own computes
    counts = {}
    _count_calls(monkeypatch, cli.sc, "_power_cost_B", counts)
    report = cli.run(write_config(tmp_path, SHARING))
    assert [r["result"]["status"] for r in report.results] == ["pass"] * 4
    assert counts == {"_power_cost_B": 1}
    alone = cli.run(write_config(tmp_path, dict(SHARING, checks=["derived_gap"])))
    shared = next(r for r in report.results if r["check"] == "derived_gap")
    assert alone.results[0]["result"] == shared["result"]


def test_rejected_weighted_trace_computes_no_constants(tmp_path, monkeypatch):
    counts = {}
    for name in ("_moments", "_gns_constants"):
        _count_calls(monkeypatch, cli.sc, name, counts)
    cfg = next(c for c in cli.paper_suite_configs() if c.name == "paraboloid_rejection")
    (res,) = cli.run_config(cfg)
    assert res["result"]["status"] == "pass" and res["result"]["rejected"]
    assert counts == {}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_shared_value_is_an_error_in_every_check(tmp_path, monkeypatch, threads):
    # a moment integral that raises fails each check that needs it, with its
    # message, and is attempted once
    monkeypatch.setenv("EPICONV_THREADS", threads)
    counts = {}
    _count_calls(monkeypatch, cli.sc, "_moments", counts, fail="moment diverges")
    doc = dict(SHARING, checks=SHARING["checks"] + ["hj_quotient"])
    report = cli.run(write_config(tmp_path, doc))
    results = {r["check"]: r["result"] for r in report.results}
    assert results.pop("hj_quotient")["status"] == "pass"
    assert {c: (r["status"], r["message"]) for c, r in results.items()} == {
        c: ("error", "moment diverges") for c in SHARING["checks"]
    }
    assert counts == {"_moments": 1}


def test_paper_suite_configs_parse():
    cfgs = cli.paper_suite_configs()
    assert len(cfgs) == 5
    assert all(c.checks for c in cfgs)


def test_shared_value_computed_once_under_thread_contention():
    shared = cli._Shared(cli.parse_config(BASE))
    calls = []
    got = {k: [] for k in range(20)}

    def compute(k):
        calls.append(k)
        time.sleep(1e-3)  # widen the window in which another thread could race in
        return object()

    def worker():
        for k in range(20):
            got[k].append(shared._get(("key", k), lambda: compute(k)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == list(range(20))
    assert all(len(v) == 8 and all(x is v[0] for x in v) for v in got.values())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="appendix_limit_residual does not converge on cones: |residual| 0.133 "
    "at h = 0.4 grows to 0.244 at h = 0.1",
)
def test_appendix_limit_residual_shrinks_on_cone():
    doc = dict(
        BASE,
        domain={"kind": "cone", "slope": 1.0},
        params={"a": 2.5, "p": 1.5, "h_list": [0.4, 0.1]},
        checks=["appendix_limit"],
        quadrature={"half_width": 5.0, "dx": 0.05, "levels": 6},
    )
    (res,) = cli.run_config(cli.parse_config(doc))
    verdicts = {x["label"]: x["passed"] for x in res["result"]["assertions"]}
    assert verdicts["residual_shrinks"], res["result"]["assertions"]
