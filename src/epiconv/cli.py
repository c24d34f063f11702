"""Declarative experiment runner.

A config is a JSON document naming a domain, a norm, exponents, fixtures, a
quadrature budget, and a list of checks from a closed enumeration. ``run``
executes the checks in declaration order (a failing check does not abort the
run), evaluates each declared assertion against the reported error budgets,
and writes the report atomically. ``suite paper`` runs the built-in
verification matrix. Reruns with the same config are byte-identical: every
sampled quantity is seeded from the config, and wall time is printed rather
than serialized.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import bblcheck as bbl
from . import extgrid as eg
from . import fields as fl
from . import hopflax as hl
from . import sharpconst as sc
from .quadrature import QuadSpec
from .transforms import NormSpec, norm_from_config

_TOLERANCES = {
    "trace_ratio": 0.02,
    "b_routes": 0.01,
    "identity": 1e-12,
    "derivative_rel": 0.05,
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    name: str
    n: int
    domain: eg.EpigraphDomain
    norm: NormSpec
    a: float
    p: float | None
    h_list: list[float]
    fixture: dict
    checks: list[str]
    quad: QuadSpec
    refinements: int
    grid_dx: float
    seed: int
    expect_rejection: bool = False


def parse_config(doc: dict, name: str = "config") -> ExperimentConfig:
    """Validate a config document; unknown check names are rejected with
    their position, so typos surface before any computation starts."""
    with _naming(name, "checks"):
        checks = list(doc.get("checks", []))
    for i, c in enumerate(checks):
        if c not in CHECK_NAMES:
            raise ConfigError(
                f"{name}: checks[{i}]: unknown check {c!r}; "
                f"valid names: {', '.join(CHECK_NAMES)}"
            )
    with _naming(name, "n"):
        n = int(doc.get("n", 2))
    with _naming(name, "domain"):
        domain = eg.domain_from_config(doc.get("domain", {"kind": "halfspace"}), n)
    with _naming(name, "norm"):
        norm = norm_from_config(doc.get("norm", {"kind": "euclidean"}))
    params = doc.get("params", {})
    with _naming(name, "params"):
        a = float(params.get("a", n))
        p = float(params["p"]) if "p" in params else None
        h_list = [float(h) for h in params.get("h_list", [0.25, 0.5])]
    quad = doc.get("quadrature", {})
    with _naming(name, "quadrature"):
        spec = QuadSpec(
            half_width=float(quad.get("half_width", 5.0)),
            dx=float(quad.get("dx", 0.05)),
            levels=int(quad.get("levels", 6)),
        )
        refinements = int(quad.get("refinements", 0))
        if refinements < 0:
            raise ValueError(f"refinements must be >= 0, got {refinements}")
        grid_dx = float(quad.get("grid_dx", 0.1))
    with _naming(name, "seed"):
        seed = int(doc.get("seed", 0))
    fixture = doc.get("fixture", {"kind": "extremal"})
    if not isinstance(fixture, dict):
        raise ConfigError(f"{name}: fixture: expected an object, got {fixture!r}")
    return ExperimentConfig(
        name=name,
        n=n,
        domain=domain,
        norm=norm,
        a=a,
        p=p,
        h_list=h_list,
        fixture=fixture,
        checks=checks,
        quad=spec,
        refinements=refinements,
        grid_dx=grid_dx,
        seed=seed,
        expect_rejection=bool(doc.get("expect_rejection", False)),
    )


@contextmanager
def _naming(name: str, key: str):
    """An AttributeError, KeyError, TypeError or ValueError raised in the
    block becomes a ConfigError naming the config and the key being parsed."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise ConfigError(f"{name}: {key}: {ex}") from ex


def _bbl_params(cfg: ExperimentConfig) -> bbl.BBLParams:
    return bbl.BBLParams(n=cfg.n, a=cfg.a, p=cfg.p)


def _result(assertions: list, **data):
    """A check's result: it passes when every assertion passed."""
    status = "pass" if all(x["passed"] for x in assertions) else "fail"
    return {"status": status, "assertions": assertions, **data}


def _assert(assertions: list, label: str, ok: bool, detail: str = ""):
    assertions.append({"label": label, "passed": bool(ok), "detail": detail})
    return ok


def _power_pair(cfg: ExperimentConfig, cost: sc.PowerCost):
    q = _bbl_params(cfg).q
    W = cost.W(cfg.quad)
    return fl.shifted_field(W, cfg.domain.e), W, q


def _coarse_spec(cfg: ExperimentConfig) -> QuadSpec:
    """The config's quadrature capped at half width 4, dx 0.1 and 5 levels,
    on which bbl_gap, equivalence_scan and appendix_limit's quotient terms
    integrate."""
    return QuadSpec(
        half_width=min(cfg.quad.half_width, 4.0), dx=max(cfg.quad.dx, 0.1),
        levels=min(cfg.quad.levels, 5),
    )


def _fixture_field(cfg: ExperimentConfig):
    with _naming(cfg.name, "fixture"):
        kind = cfg.fixture.get("kind", "extremal")
        if kind == "extremal":
            return sc.extremal_f(_bbl_params(cfg), cfg.norm)
        if kind == "bump":
            center = np.asarray(cfg.fixture.get("center", [0.0] * (cfg.n - 1) + [0.8]), float)
            if center.shape != (cfg.n,):
                raise ValueError(f"bump center must have {cfg.n} entries, got {center.tolist()}")
            return fl.bump_field(
                center,
                radius=float(cfg.fixture.get("radius", 1.0)),
                amplitude=float(cfg.fixture.get("amplitude", 1.0)),
            )
        raise ValueError(f"unknown fixture kind {kind!r}")


def check_constants(cfg: ExperimentConfig, cost: sc.PowerCost):
    cst = cost.constants(_bbl_params(cfg), cfg.quad)
    a = []
    t = _TOLERANCES
    _assert(a, "uv_conjugate", abs(1 / cst.u + 1 / cst.v - 1) <= t["identity"])
    _assert(
        a, "D_formula",
        abs(cst.D - cst.A**cst.u / ((cst.B * cst.v) ** (cst.u - 1) * cst.u))
        <= t["identity"] * max(1.0, cst.D),
    )
    theta_ref = (cst.a - cst.p) / (cst.p * (cst.a - cst.n - 1) + cst.n)
    _assert(a, "theta_formula", abs(cst.theta - theta_ref) <= t["identity"])
    _assert(
        a, "B_routes",
        abs(cst.B - cst.B_identity) <= t["b_routes"] * abs(cst.B),
        f"direct {cst.B:.6g} vs identity {cst.B_identity:.6g}",
    )
    if cst.a == cst.n:
        _assert(a, "theta_is_one_at_a_eq_n", cst.theta == 1.0)
        _assert(a, "D_npa_equals_D_at_a_eq_n", cst.D_npa == cst.D)
    return _result(a, constants=cst.to_json())


def _assert_trace_ratio(a: list, cfg: ExperimentConfig, rep: sc.TraceReport):
    """The extremal saturates the trace inequality; any other fixture stays below."""
    if cfg.fixture.get("kind", "extremal") == "extremal":
        _assert(
            a, "extremal_ratio_one",
            abs(rep.ratio - 1.0) <= _TOLERANCES["trace_ratio"],
            f"ratio {rep.ratio:.5f}",
        )
    else:
        _assert(
            a, "ratio_below_one",
            rep.ratio <= 1.0 + rep.quadrature_error,
            f"ratio {rep.ratio:.5f}",
        )


def check_trace_gn(cfg: ExperimentConfig, cost: sc.PowerCost):
    params = _bbl_params(cfg)
    a = []
    f = _fixture_field(cfg)
    rep = sc.trace_gn_check(f, cost, params, cfg.quad)
    _assert_trace_ratio(a, cfg, rep)
    refinement = []
    spec = cfg.quad
    for _ in range(cfg.refinements):
        spec = spec.refined()
        r = sc.trace_gn_check(f, cost, params, spec)
        refinement.append({"dx": spec.dx, "abs_ratio_minus_one": abs(r.ratio - 1.0)})
    out = _result(
        a, report=rep.to_json(),
        params={"n": cfg.n, "a": cfg.a, "p": cfg.p},
        domain=cfg.domain.kind,
    )
    if refinement:
        out["refinement_curve"] = [
            {"dx": cfg.quad.dx, "abs_ratio_minus_one": abs(rep.ratio - 1.0)}
        ] + refinement
    return out


def check_weighted_trace(cfg: ExperimentConfig, cost: sc.PowerCost):
    params = _bbl_params(cfg)
    a = []
    try:
        rep = sc.weighted_trace_check(_fixture_field(cfg), cost, params, cfg.quad)
    except sc.DomainRejectionError as ex:
        ok = cfg.expect_rejection
        _assert(a, "growth_gate", ok, f"rejected: fitted {ex.fitted:.4f} at {ex.witness}")
        return _result(a, rejected=True, fitted=ex.fitted)
    if cfg.expect_rejection:
        _assert(a, "growth_gate", False, "expected a rejection but the gate passed")
        return _result(a, rejected=False)
    _assert_trace_ratio(a, cfg, rep)
    return _result(
        a, report=rep.to_json(),
        params={"n": cfg.n, "a": cfg.a, "p": cfg.p},
        domain=cfg.domain.kind,
    )


def check_bbl_gap(cfg: ExperimentConfig, cost: sc.PowerCost):
    g, W, _ = _power_pair(cfg, cost)
    reps = bbl.bbl_gap_fields(g, W, _bbl_params(cfg), cfg.domain, cfg.h_list, _coarse_spec(cfg))
    a = []
    curve = []
    for rep in reps:
        curve.append({"h": rep.h, "gap": rep.gap, "error": rep.quadrature_error_estimate})
        _assert(
            a, f"gap_nonnegative_h_{rep.h:g}",
            rep.gap >= -rep.quadrature_error_estimate,
            f"gap {rep.gap:.3g} err {rep.quadrature_error_estimate:.3g}",
        )
    return _result(a, gap_curve=curve)


def check_derived_gap(cfg: ExperimentConfig, cost: sc.PowerCost):
    g, _, _ = _power_pair(cfg, cost)
    rep = bbl.derived_gap(g, cost, _bbl_params(cfg), cfg.quad)
    a = []
    _assert(
        a, "derived_gap_nonnegative",
        rep.gap >= -rep.quadrature_error_estimate,
        f"gap {rep.gap:.5f} err {rep.quadrature_error_estimate:.5f}",
    )
    return _result(a, report=rep.to_json())


def check_appendix_limit(cfg: ExperimentConfig, cost: sc.PowerCost):
    g, W, q = _power_pair(cfg, cost)
    recs = bbl.appendix_limit_residual(
        g, W, _bbl_params(cfg), cfg.domain, cfg.h_list, cfg.quad,
        quotient_spec=_coarse_spec(cfg),
    )
    a = []
    res = [abs(r["residual"]) for r in recs]
    hs = [r["h"] for r in recs]
    order = np.argsort(hs)[::-1]
    seq = [res[i] for i in order]
    _assert(
        a, "residual_shrinks",
        seq[-1] <= seq[0],
        f"|residual| {seq[0]:.4f} at h={hs[order[0]]:g} vs {seq[-1]:.4f} at h={hs[order[-1]]:g}",
    )
    if cfg.domain.kind in ("halfspace", "cone", "affine_max"):
        _assert(a, "third_term_zero_on_cones", all(r["term_iii"] == 0.0 for r in recs))
    return _result(a, records=recs)


def _cube_grid(f: fl.ScalarField, n: int, L: float, dx: float) -> eg.ExtGridFn:
    """f sampled on the cube [-L, L]^n at spacing dx."""
    xs = np.linspace(-L, L, int(round(2 * L / dx)) + 1)
    mesh = np.stack(np.meshgrid(*([xs] * n), indexing="ij"), axis=-1)
    return eg.ExtGridFn([(-L, L)] * n, f(mesh))


def check_semigroup(cfg: ExperimentConfig, cost: sc.PowerCost):
    dx = cfg.grid_dx / 2
    g = _cube_grid(fl.quadratic_field(offset=1.0, curvature=1.0), cfg.n, 2.0, dx)
    res = hl.semigroup_residual(g, g, 0.6, 0.2)
    a = []
    _assert(a, "semigroup_residual", res <= 5 * dx, f"residual {res:.5f} vs 5dx {5*dx:.3f}")
    return _result(a, residual=res, dx=dx)


def check_hj_quotient(cfg: ExperimentConfig, cost: sc.PowerCost):
    quad = fl.quadratic_field(offset=1.0, curvature=1.0)
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-0.9, 0.9, size=(8, cfg.n))
    _, limit, ref, dev = hl.hj_difference_quotient(quad, quad, [0.4, 0.2, 0.1, 0.05], pts)
    a = []
    scale = np.maximum(1.0, np.abs(ref))
    worst = float(np.max(dev / scale))
    _assert(a, "hj_limit_matches_conjugate", worst <= 0.01, f"max rel dev {worst:.4f}")
    return _result(a, worst_rel_dev=worst)


def check_admissibility(cfg: ExperimentConfig, cost: sc.PowerCost):
    g, W, q = _power_pair(cfg, cost)
    adm = eg.AdmissibilityParams(gamma=q)
    conditions = bbl.admissibility_report(g, W, adm, _bbl_params(cfg), cfg.domain)
    a = []
    for cond in conditions:
        _assert(a, f"adm_{cond.name}", cond.passed, f"fitted {cond.fitted:.4g}")
    return _result(a, fitted={c.name: c.fitted for c in conditions})


def check_equivalence_scan(cfg: ExperimentConfig, cost: sc.PowerCost):
    quad = fl.quadratic_field(offset=1.0, curvature=0.5)
    scan = bbl.equivalence_scan(
        quad, quad, cfg.n, [0.0, 0.05, 0.1, 0.25, 0.5], _coarse_spec(cfg)
    )
    a = []
    _assert(a, "phi_at_zero", abs(scan.phi_values[0] - 1.0) <= 1e-10)
    h, phi, err = min(scan.curve(), key=lambda c: c[1])
    _assert(
        a, "phi_above_one",
        all(p >= 1.0 - e for _, p, e in scan.curve()),
        f"deficit {1.0 - phi:.3g} tol {err:.3g} at h {h:g}",
    )
    dev = abs(scan.fd_derivative - scan.integral_derivative)
    tol = max(
        _TOLERANCES["derivative_rel"] * abs(scan.integral_derivative),
        scan.derivative_error_estimate,
    )
    _assert(
        a, "derivative_match", dev <= tol,
        f"fd {scan.fd_derivative:.3g} int {scan.integral_derivative:.3g} "
        f"dev {dev:.3g} tol {tol:.3g}",
    )
    return _result(
        a,
        phi_curve=[{"h": h, "phi": p, "error": e} for h, p, e in scan.curve()],
    )


_CHECK_FNS = {
    "bbl_gap": check_bbl_gap,
    "derived_gap": check_derived_gap,
    "appendix_limit": check_appendix_limit,
    "semigroup": check_semigroup,
    "hj_quotient": check_hj_quotient,
    "trace_gn": check_trace_gn,
    "weighted_trace": check_weighted_trace,
    "constants": check_constants,
    "admissibility": check_admissibility,
    "equivalence_scan": check_equivalence_scan,
}
CHECK_NAMES = tuple(_CHECK_FNS)


@dataclass
class RunReport:
    results: list
    wall_time: float
    seed: int

    @property
    def passed(self) -> bool:
        return all(r["result"]["status"] == "pass" for r in self.results)

    def to_json(self) -> dict:
        # wall time stays out of the serialized artifact so reruns are
        # byte-identical; it is printed instead
        return {"seed": self.seed, "results": self.results}


def _run_one(cfg: ExperimentConfig, check: str, cost: sc.PowerCost) -> dict:
    fn = _CHECK_FNS[check]
    try:
        result = fn(cfg, cost)
    except (ValueError, ConfigError) as ex:
        result = {"status": "error", "assertions": [], "message": str(ex)}
    return {"experiment": cfg.name, "check": check, "result": result}


def run_config(cfg: ExperimentConfig) -> list[dict]:
    """The results of the checks of ``cfg``, run in declaration order on one
    thread; the checks share one power cost, so each link of the constant
    chain is computed once."""
    try:
        q = _bbl_params(cfg).q
    except ValueError:
        q = None  # each check reports invalid params before it reads the cost
    cost = sc.PowerCost(cfg.domain, cfg.norm, q, cfg.a)
    return [_run_one(cfg, check, cost) for check in cfg.checks]


def run(config_path: str, report_path: str | None = None) -> RunReport:
    with open(config_path) as fh:
        doc = json.load(fh)
    cfg = parse_config(doc, name=os.path.basename(config_path))
    t0 = time.perf_counter()
    results = run_config(cfg)
    report = RunReport(results, time.perf_counter() - t0, cfg.seed)
    out_path = report_path or doc.get("output", {}).get("report")
    if out_path:
        write_report(report, out_path)
    return report


def write_report(report: RunReport, path: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(report.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# (result key, file suffix, columns) of each curve a report can carry
_CURVES = (
    ("phi_curve", "phi", ("h", "phi", "error")),
    ("gap_curve", "gap", ("h", "gap", "error")),
    ("records", "terms", ("h", "term_i", "term_ii", "term_iii", "residual")),
    ("refinement_curve", "refinement", ("dx", "abs_ratio_minus_one")),
)


def emit_curves(report_path: str, out_dir: str) -> list[str]:
    """One CSV per curve found in a report, deterministic column order."""
    with open(report_path) as fh:
        doc = json.load(fh)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for entry in doc.get("results", []):
        res = entry["result"]
        for key, suffix, columns in _CURVES:
            if key not in res:
                continue
            path = os.path.join(out_dir, f"{entry['experiment']}_{entry['check']}_{suffix}.csv")
            tmp = f"{path}.tmp"
            with open(tmp, "w") as fh:
                fh.write(",".join(columns) + "\n")
                for r in res[key]:
                    fh.write(",".join(repr(float(r[c])) for c in columns) + "\n")
            os.replace(tmp, path)
            written.append(path)
    return written


def paper_suite_configs() -> list[ExperimentConfig]:
    """The built-in verification matrix at desk scale."""
    docs = [
        (
            "halfspace_p15_a2",
            {
                "seed": 20260808,
                "n": 2,
                "domain": {"kind": "halfspace"},
                "params": {"a": 2.0, "p": 1.5, "h_list": [0.4, 0.2, 0.1, 0.05]},
                "checks": [
                    "constants", "trace_gn", "admissibility",
                    "derived_gap", "appendix_limit",
                ],
                "quadrature": {"half_width": 5.0, "dx": 0.05, "levels": 8},
            },
        ),
        (
            "cone_p15_a25",
            {
                "seed": 20260808,
                "n": 2,
                "domain": {"kind": "cone", "slope": 1.0},
                "params": {"a": 2.5, "p": 1.5},
                "checks": ["constants", "trace_gn"],
                "quadrature": {"half_width": 5.0, "dx": 0.05, "levels": 5},
            },
        ),
        (
            "affinemax_p43_a2",
            {
                "seed": 20260808,
                "n": 2,
                "domain": {"kind": "affine_max", "slopes": [[0.5], [-1.0]]},
                "params": {"a": 2.0, "p": 4 / 3},
                "checks": ["constants", "weighted_trace"],
                "quadrature": {"half_width": 5.0, "dx": 0.05, "levels": 5},
            },
        ),
        (
            "paraboloid_rejection",
            {
                "seed": 20260808,
                "n": 2,
                "domain": {"kind": "paraboloid"},
                "params": {"a": 2.0, "p": 4 / 3},
                "checks": ["weighted_trace"],
                "expect_rejection": True,
                "quadrature": {"half_width": 4.0, "dx": 0.05, "levels": 4},
            },
        ),
        (
            "dynamics_q4_a2",
            {
                "seed": 20260808,
                "n": 2,
                "domain": {"kind": "halfspace"},
                "params": {"a": 2.0, "p": 4 / 3, "h_list": [0.1, 0.25, 0.5, 1.0]},
                "checks": ["bbl_gap", "semigroup", "hj_quotient", "equivalence_scan"],
                "quadrature": {"half_width": 5.0, "dx": 0.05, "levels": 6, "grid_dx": 0.1},
            },
        ),
    ]
    return [parse_config(doc, name) for name, doc in docs]


def run_suite(report_path: str | None = None) -> RunReport:
    t0 = time.perf_counter()
    results = []
    for cfg in paper_suite_configs():
        results.extend(run_config(cfg))
    report = RunReport(results, time.perf_counter() - t0, 20260808)
    if report_path:
        write_report(report, report_path)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="epiconv")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("config")
    p_run.add_argument("--report", default=None, help="report path override")

    p_curves = sub.add_parser("curves", help="emit CSV curves from a report")
    p_curves.add_argument("report")
    p_curves.add_argument("--out", required=True)

    p_suite = sub.add_parser("suite", help="run a built-in suite")
    p_suite.add_argument("name", choices=["paper"])
    p_suite.add_argument("--report", default="epiconv_suite_report.json")

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            report = run(args.config, args.report)
        except (ConfigError, json.JSONDecodeError, OSError) as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
        _print_report(report)
        return 0 if report.passed else 1
    if args.command == "curves":
        written = emit_curves(args.report, args.out)
        for path in written:
            print(path)
        return 0
    if args.command == "suite":
        report = run_suite(args.report)
        _print_report(report)
        print(f"report written to {args.report}")
        return 0 if report.passed else 1
    return 2


def _print_report(report: RunReport) -> None:
    for entry in report.results:
        res = entry["result"]
        print(f"[{res['status']:>5}] {entry['experiment']}::{entry['check']}")
        for item in res.get("assertions", []):
            mark = "ok" if item["passed"] else "FAIL"
            detail = f" ({item['detail']})" if item.get("detail") else ""
            print(f"    {mark:>4} {item['label']}{detail}")
    print(f"wall time: {report.wall_time:.1f} s")


if __name__ == "__main__":
    raise SystemExit(main())
