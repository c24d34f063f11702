"""Experiment runner: config validation, reports, curves, determinism."""

import dataclasses
import inspect
import json
import os
from collections import Counter

import pytest

from epiconv import bblcheck, cli
from epiconv import sharpconst as sc


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

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"quadrature": {"dx": -0.05}}, "quadrature"),
            ({"n": "two"}, "n"),
            ({"params": [2.0, 1.5]}, "params"),
            ({"checks": 5}, "checks"),
            ({"fixture": "x", "checks": ["trace_gn"]}, "fixture"),
            ({"quadrature": {"refinements": "x"}}, "quadrature"),
            ({"quadrature": {"refinements": -1}}, "quadrature"),
        ],
    )
    def test_invalid_value_is_config_error(self, tmp_path, change, key):
        # a value its parser rejects names its key and exits 2, not 1
        doc = dict(BASE, **change)
        with pytest.raises(cli.ConfigError, match=rf"^config: {key}: "):
            cli.parse_config(doc)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 2

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
        # that read the fixture report an error naming it and the run still
        # finishes; so does a fixture field of the wrong type, a bump center
        # of the wrong length (numpy would broadcast a short one) and a bump
        # radius that is not positive
        for fixture, message in (
            ({"kind": "grid_file"}, "unknown fixture kind 'grid_file'"),
            ({"kind": "bump", "radius": [1.0]}, "float()"),
            ({"kind": "bump", "center": [0.9]}, "bump center must have 2 entries"),
            ({"kind": "bump", "radius": 0.0}, "bump radius must be finite and positive"),
        ):
            doc = dict(BASE, checks=["trace_gn", "constants"], fixture=fixture)
            out = tmp_path / "r.json"
            report = cli.run(write_config(tmp_path, doc), str(out))
            status = {r["check"]: r["result"]["status"] for r in report.results}
            assert status == {"trace_gn": "error", "constants": "pass"}
            got = report.results[0]["result"]["message"]
            assert got.startswith("exp.json: fixture: ") and message in got
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


def _spy_sweeps(monkeypatch, fail=None):
    """The list that gets the (domain, spec, shift, estimate) key of every
    quadrature sweep the checks make, a boundary integral's domain being
    R^dim; with ``fail``, each sweep raises ValueError(fail) instead."""
    keys = []
    for module in (bblcheck, sc):
        for name in ("integrate_epigraph", "integrate_boundary"):
            orig = getattr(module, name)
            sig = inspect.signature(orig)

            def spy(*args, _orig=orig, _sig=sig, **kwargs):
                arg = _sig.bind(*args, **kwargs)
                arg.apply_defaults()
                a = arg.arguments
                where = a["domain"].kind if "domain" in a else f"R^{a['dim']}"
                keys.append((where, a["spec"], a.get("shift", 0.0), a["estimate"]))
                if fail is not None:
                    raise ValueError(fail)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return keys


def _spy_links(monkeypatch):
    """The Counter of (link, spec) computations of every PowerCost."""
    computed = Counter()
    orig = sc.PowerCost._get

    def spy(self, key, compute):
        def counted():
            computed[key[0], key[-1]] += 1
            return compute()

        return orig(self, key, counted)

    monkeypatch.setattr(sc.PowerCost, "_get", spy)
    return computed


@pytest.mark.parametrize("copies", [1, 2])
def test_checks_share_constants(tmp_path, monkeypatch, copies):
    # per quadrature spec: the two moment integrals (one stacked sweep), B
    # and the constants once; per config: C with its direct normalization
    # check once, from the moments the constants use, however many times
    # the checks are declared
    sweeps, computed = _spy_sweeps(monkeypatch), _spy_links(monkeypatch)
    doc = dict(SHARING, checks=(SHARING["checks"] + ["trace_gn"]) * copies)
    doc["domain"] = {"kind": "cone", "slope": 1.0}
    doc["quadrature"] = dict(SHARING["quadrature"], refinements=1)
    report = cli.run(write_config(tmp_path, doc))
    assert [r["result"]["status"] for r in report.results] == ["pass"] * 5 * copies
    # two specs: the config's and trace_gn's refined one
    spec = cli.parse_config(doc).quad
    fine = spec.refined()
    assert computed == Counter({
        ("moments", spec): 1, ("C", spec): 1, ("B", spec): 1, ("constants", spec): 1,
        ("moments", fine): 1, ("B", fine): 1, ("constants", fine): 1,
    })
    # the five sweeps of those links, and eight of the checks' own per copy
    assert (len(sweeps), len(set(sweeps))) == (5 + 8 * copies, 7)


def test_derived_gap_shares_B_with_constants(tmp_path, monkeypatch):
    # int W^(1-a) on the config's spec is the constants' B and the right-hand
    # side of derived_gap: one integration serves both, and derived_gap
    # reports what a run of its own computes
    sweeps = _spy_sweeps(monkeypatch)
    report = cli.run(write_config(tmp_path, SHARING))
    assert [r["result"]["status"] for r in report.results] == ["pass"] * 4
    spec = cli.parse_config(SHARING).quad
    assert Counter(sweeps) == Counter({
        ("affine_max", spec, 0.0, True): 3,  # the moments, trace_gn's, derived_gap's bulk
        ("affine_max", spec, 1.0, False): 1,  # C's direct normalization check
        ("affine_max", spec, 1.0, True): 1,  # B
        ("R^1", spec, 0.0, True): 2,  # the boundary terms of trace_gn and derived_gap
    })
    alone = cli.run(write_config(tmp_path, dict(SHARING, checks=["derived_gap"])))
    shared = next(r for r in report.results if r["check"] == "derived_gap")
    assert alone.results[0]["result"] == shared["result"]


def test_rejected_weighted_trace_computes_no_constants(monkeypatch):
    # a domain the gate rejects costs no sweep and no link of the chain, in
    # weighted_trace (the rejection the config expects) as in trace_gn (an
    # error: the paraboloid is no cone)
    sweeps, computed = _spy_sweeps(monkeypatch), _spy_links(monkeypatch)
    cfg = next(c for c in cli.paper_suite_configs() if c.name == "paraboloid_rejection")
    (res,) = cli.run_config(cfg)
    assert res["result"]["status"] == "pass" and res["result"]["rejected"]
    (res,) = cli.run_config(dataclasses.replace(cfg, checks=["trace_gn"]))
    assert res["result"]["status"] == "error" and "convex cone" in res["result"]["message"]
    assert sweeps == [] and computed == Counter()


@pytest.mark.parametrize("copies", [1, 2])
def test_failed_shared_value_is_an_error_in_every_check(tmp_path, monkeypatch, copies):
    # a moment integral that raises fails each check that needs it, with its
    # message, and is attempted once, however many times the checks are
    # declared
    sweeps = _spy_sweeps(monkeypatch, fail="moment diverges")
    computed = _spy_links(monkeypatch)
    doc = dict(SHARING, checks=(SHARING["checks"] + ["hj_quotient"]) * copies)
    report = cli.run(write_config(tmp_path, doc))
    got = [(r["check"], r["result"]["status"], r["result"].get("message")) for r in report.results]
    want = [(c, "error", "moment diverges") for c in SHARING["checks"]]
    assert [g[:2] for g in got if g[0] == "hj_quotient"] == [("hj_quotient", "pass")] * copies
    assert [g for g in got if g[0] != "hj_quotient"] == want * copies
    spec = cli.parse_config(doc).quad
    assert sweeps == [("affine_max", spec, 0.0, True)]
    assert computed == Counter({("moments", spec): 1, ("C", spec): 1, ("constants", spec): 1})


def test_paper_suite_configs_parse():
    cfgs = cli.paper_suite_configs()
    assert len(cfgs) == 5
    assert all(c.checks for c in cfgs)


def _appendix_residual_shrinks(domain):
    doc = dict(
        BASE,
        domain=domain,
        params={"a": 2.5, "p": 1.5, "h_list": [0.4, 0.1]},
        checks=["appendix_limit"],
        quadrature={"half_width": 5.0, "dx": 0.05, "levels": 6},
    )
    (res,) = cli.run_config(cli.parse_config(doc))
    verdicts = {x["label"]: x["passed"] for x in res["result"]["assertions"]}
    assert verdicts["residual_shrinks"], res["result"]["assertions"]


def test_appendix_limit_residual_shrinks_on_cone():
    # the scaling witness puts x - h*y on the boundary exactly where a
    # membership test rounds it out; taken by construction, the residual is
    # first order in h on cones as on the half-space
    _appendix_residual_shrinks({"kind": "cone", "slope": 1.0})


def test_appendix_limit_residual_shrinks_on_affine_max():
    _appendix_residual_shrinks({"kind": "affine_max", "slopes": [[0.5], [-1.0]]})
