"""One benchmark workload in one process: set-up, timed passes, checks.

Started by ``run.py`` with BLAS, OpenMP and ``EPICONV_THREADS`` pinned to one
thread; prints one JSON object as its last line of standard output.

``--mode setup`` imports epiconv, builds the workload's inputs and reports
how long that took.

Times are reported at a fixed host speed. On a shared host the CPU's
throughput drifts by 20-40% within seconds and over minutes while process CPU
time stays equal to wall time, so raw times of identical runs spread too far
to compare two commits. Each timed region runs a fixed reference kernel once
at its start and once just after it, and a SIGALRM handler runs it at a fixed
interval in between (about 1% of the time in a pass); the region's time,
minus the sampling, is multiplied by REF_NOMINAL_S over the mean kernel time.
Set-up is such a region from interpreter start to the built inputs, sampled
from just after numpy's import. Raw times are reported next to the
normalized ones.

``--mode run`` does the same and then runs passes of the workload until the
next pass would overrun ``--seconds`` (at least one pass). Every pass is
checked outside its timed region. With ``--trace 1`` passes alternate between
untraced and traced, and the result holds per-layer totals from the traced
passes plus the tracing overhead from their normalized times. A traced
set-up is sampled only at its ends, so that no kernel time lands in its
spans; in traced passes the periodic samples (about 1%) are counted in
whatever span is open.

The workloads drive the public functions of ``cli``, ``bblcheck``,
``sharpconst``, ``hopflax``, ``quadrature``, ``transforms`` and ``extgrid``.
They import no name that the package may delete and pass no option that
selects a path by hand, so the benchmark keeps running when a path goes.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("suite_paper", "bbl_nonconvex", "trace_chain", "conjugates")

# suite checks that get their own timing (and span "cli.<check>"); the rest
# are summed under "quadrature_checks"
HEAVY_CHECKS = ("bbl_gap", "equivalence_scan", "semigroup", "appendix_limit")

# sampling intervals of the host-speed kernel: set-up lasts well under a
# second, a pass several seconds
SETUP_SAMPLE_S = 0.02
PASS_SAMPLE_S = 0.2

# bbl_nonconvex draws its bump from this many variants, so that the digest
# of every variant can be recorded ahead of time in digests.json
BUMP_VARIANTS = 8


# reference kernel time at the nominal host speed; a fixed scale, so that
# normalized times read as seconds on a host of that speed
REF_NOMINAL_S = 2.0e-3


class HostSpeed:
    """Samples a fixed reference kernel at the start of a timed region, from a
    SIGALRM handler while it runs and just after it, and rescales the
    region's time to the nominal host speed.

    The kernel mixes a Python loop over small numpy calls with elementwise
    work on mid-sized arrays, like the workloads it calibrates.
    """

    def __init__(self, np):
        self.np = np
        self._small = np.arange(64.0)
        self._line = np.linspace(0.0, 1.0, 20000)
        self.samples: list[float] = []
        # the first call pays numpy's dispatch set-up: time, but not a sample
        self.spent = self.kernel()

    def kernel(self) -> float:
        np = self.np
        t = time.perf_counter()
        for _ in range(200):
            float(np.argmax(self._small * 0.5 - 1.0))
        b = self._line
        for _ in range(20):
            b = np.where(np.isfinite(b), b * 1.0000001, 0.0) + 1e-9
        return time.perf_counter() - t

    def _sample(self, signum=None, frame=None):
        t = self.kernel()
        self.samples.append(t)
        self.spent += t

    def start(self, interval: float) -> None:
        """Sample now and, if interval > 0, every interval seconds."""
        self._sample()
        if interval > 0:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self, elapsed: float) -> tuple[float, float]:
        """(elapsed minus sampling, the same at the nominal host speed).

        elapsed must cover the call to start(); one more sample is taken
        after it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.samples.append(self.kernel())
        raw = elapsed - self.spent
        speed = statistics.fmean(self.samples)
        self.samples, self.spent = [], 0.0
        return raw, raw * REF_NOMINAL_S / speed


def set_up(workload: str, seed: int, trace: bool):
    """Import epiconv and build the workload's inputs, timed from interpreter
    start. Returns (np, ep, inputs, tracer, host, setup_raw_s, setup_s)."""
    import numpy as np

    host = HostSpeed(np)
    host.start(0.0 if trace else SETUP_SAMPLE_S)
    np, ep = import_epiconv()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = FUNCS[workload][0](np, ep, seed)
    raw, norm = host.stop(time.perf_counter() - _T0)
    if tracer is not None:
        tracer.uninstall()
    return np, ep, inputs, tracer, host, raw, norm


def import_epiconv():
    """Import the package from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import numpy as np
    import epiconv

    where = os.path.dirname(os.path.abspath(epiconv.__file__))
    if where != os.path.join(SRC, "epiconv"):
        raise ImportError(f"epiconv imported from {where}, not from {SRC}")
    from epiconv import bblcheck, cli, extgrid, fields, hopflax, quadrature, sharpconst, transforms

    return np, dict(
        bblcheck=bblcheck, cli=cli, extgrid=extgrid, fields=fields, hopflax=hopflax,
        quadrature=quadrature, sharpconst=sharpconst, transforms=transforms,
    )


class Pass:
    """Verdicts and budgets of one pass, and outputs to compare across passes."""

    def __init__(self):
        self.verdicts: list[tuple[str, bool]] = []
        self.budgets: list[float] = []
        self.outputs = None
        self.parts: dict[str, float] = {}
        self.info: dict = {}

    def verdict(self, label: str, ok) -> None:
        self.verdicts.append((label, bool(ok)))

    def budget(self, err: float, lhs: float) -> None:
        self.budgets.append(abs(float(err)) / abs(float(lhs)))


def _span(tracer, name):
    return tracer.open(name) if tracer is not None else None


def _close(tracer, rec):
    if tracer is not None:
        tracer.close(rec)


# -- suite_paper -------------------------------------------------------------

def setup_suite_paper(np, ep, seed):
    # the suite configs carry their own seeds; the workload seed is unused
    return {"configs": ep["cli"].paper_suite_configs()}


def pass_suite_paper(np, ep, inp, out: Pass, tracer=None):
    cli = ep["cli"]
    results = []
    for cfg in inp["configs"]:
        for check in cfg.checks:
            one = dataclasses.replace(cfg, checks=[check])
            key = check if check in HEAVY_CHECKS else "quadrature_checks"
            rec = _span(tracer, f"cli.{key}")
            t = time.perf_counter()
            res = cli.run_config(one)
            dt = time.perf_counter() - t
            _close(tracer, rec)
            out.parts[key] = out.parts.get(key, 0.0) + dt
            results.extend(res)
    out.outputs = results


def cli_verdicts(out: Pass) -> None:
    """One verdict per check result (status "pass"), and the error budgets
    relative to |lhs| of the inequality checks that report both."""
    for entry in out.outputs:
        r = entry["result"]
        out.verdict(f"{entry['experiment']}::{entry['check']}", r["status"] == "pass")
        if entry["check"] == "derived_gap":
            out.budget(r["report"]["error_estimate"], r["report"]["lhs"])
        elif entry["check"] in ("trace_gn", "weighted_trace") and "report" in r:
            out.budget(r["report"]["error"], r["report"]["lhs"])
        elif entry["check"] == "equivalence_scan":
            for pt in r["phi_curve"]:
                out.budget(pt["error"], pt["phi"])
        elif entry["check"] == "constants":
            out.budgets.append(float(r["constants"]["error_rel"]))


def check_suite_paper(np, ep, inp, out: Pass, first: Pass | None):
    cli_verdicts(out)
    # recorded, not gated: replacing a Hopf-Lax path may move last digits
    report = ep["cli"].RunReport(out.outputs, 0.0, 20260808)
    text = json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n"
    out.info["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()


# -- bbl_nonconvex -----------------------------------------------------------

BBL_H = (0.1, 0.25, 0.5, 1.0)


def bump_variant(seed: int):
    """Bump centre and amplitude of variant seed % BUMP_VARIANTS."""
    import numpy as np

    variant = seed % BUMP_VARIANTS
    rng = np.random.default_rng(1000 + variant)
    centre = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.9, 1.2))]
    amplitude = float(rng.uniform(0.9, 1.1))
    return variant, centre, amplitude


def setup_bbl_nonconvex(np, ep, seed):
    """The bump-perturbed half-space fixture of the c06 acceptance test on the
    suite geometry: L = 8, dx = 0.1 (161 x 81 nodes), q = 4, a = 2."""
    eg, fl, sc, tr = ep["extgrid"], ep["fields"], ep["sharpconst"], ep["transforms"]
    spec = ep["quadrature"].QuadSpec(half_width=5.0, dx=0.05, levels=6)
    dom = eg.halfspace(2)
    norm = tr.NormSpec("euclidean")
    C = sc.normalize_power_cost(dom, norm, 4.0, 2.0, spec)
    W = fl.power_cost_field(C, 4.0, norm)
    g = fl.shifted_field(W, np.array([0.0, 1.0]))
    variant, centre, amplitude = bump_variant(seed)
    gb = fl.multiply_bump(g, centre, 2.0, amplitude)
    L, dx = 8.0, 0.1
    m1, m2 = int(round(2 * L / dx)) + 1, int(round(L / dx)) + 1
    gg = eg.sample_grid(dom, [(-L, L), (0.0, L)], [m1, m2], gb)
    WW = eg.sample_grid(dom, [(-L, L), (1.0, 1.0 + L)], [m1, m2], W, h=1.0)
    params = ep["bblcheck"].BBLParams(n=2, a=2.0, p=4.0 / 3.0)
    return {"g": gg, "W": WW, "params": params, "variant": variant}


def pass_bbl_nonconvex(np, ep, inp, out: Pass, tracer=None):
    bbl = ep["bblcheck"]
    hasher = hashlib.sha256()
    inner = bbl.hopflax_apply

    def digesting(*args, **kwargs):
        res = inner(*args, **kwargs)
        hasher.update(res.values.values.tobytes())
        hasher.update(res.argmin.tobytes())
        return res

    # bbl_gap reaches Hopf-Lax through the name bblcheck imported
    bbl.hopflax_apply = digesting
    try:
        reports = [bbl.bbl_gap(inp["g"], inp["W"], inp["params"].with_h(h)) for h in BBL_H]
    finally:
        bbl.hopflax_apply = inner
    out.outputs = (reports, hasher.hexdigest())


def recorded_digest(variant: int):
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)["bbl_nonconvex"].get(str(variant))
    except (OSError, KeyError, ValueError):
        return None


def check_bbl_nonconvex(np, ep, inp, out: Pass, first: Pass | None):
    reports, digest = out.outputs
    for h, rep in zip(BBL_H, reports):
        out.verdict(f"gap_within_budget_h_{h:g}", rep.gap >= -rep.quadrature_error_estimate)
        out.budget(rep.quadrature_error_estimate, rep.lhs)
    out.verdict("q_h_digest", digest == recorded_digest(inp["variant"]))
    # the verdict goes with the certificate if the package ever drops it
    certificate = getattr(ep["hopflax"], "is_grid_convex", None)
    if first is None and certificate is not None:
        out.verdict("g_not_grid_convex", not certificate(inp["g"]))
    out.info["q_h_digest"] = digest
    out.info["variant"] = inp["variant"]


# -- trace_chain -------------------------------------------------------------

TRACE_CONFIGS = (
    ("cone_p15_a25", {"kind": "cone", "slope": 1.0}, 2.5, 1.5, 0.05, 6,
     ["constants", "trace_gn", "derived_gap", "admissibility"]),
    ("affinemax_p43_a2", {"kind": "affine_max", "slopes": [[0.5], [-1.0]]}, 2.0, 4.0 / 3.0,
     0.025, 6, ["constants", "weighted_trace", "derived_gap", "admissibility"]),
    ("halfspace_p15_a2", {"kind": "halfspace"}, 2.0, 1.5, 0.025, 8,
     ["constants", "weighted_trace", "derived_gap", "admissibility"]),
)


def setup_trace_chain(np, ep, seed):
    cli = ep["cli"]
    configs = []
    for name, domain, a, p, dx, levels, checks in TRACE_CONFIGS:
        doc = {
            "seed": seed,
            "n": 2,
            "domain": domain,
            "params": {"a": a, "p": p},
            "checks": checks,
            "quadrature": {"half_width": 5.0, "dx": dx, "levels": levels, "refinements": 1},
        }
        configs.append(cli.parse_config(doc, name))
    return {"configs": configs}


def pass_trace_chain(np, ep, inp, out: Pass, tracer=None):
    results = []
    for cfg in inp["configs"]:
        results.extend(ep["cli"].run_config(cfg))
    out.outputs = results


def check_trace_chain(np, ep, inp, out: Pass, first: Pass | None):
    cli_verdicts(out)


# -- conjugates --------------------------------------------------------------

def setup_conjugates(np, ep, seed):
    """f = x'Ax/2 + c|x1| on 401^2 nodes of [-2, 2]^2, two 81^2 quadratics and
    a 1D pair of 2000 nodes; A, c and the quadratics come from the seed."""
    eg = ep["extgrid"]
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    A = rot @ np.diag(rng.uniform(0.9, 1.2, 2)) @ rot.T
    c = rng.uniform(0.4, 0.6)
    xs = np.linspace(-2.0, 2.0, 401)
    X = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    fv = 0.5 * np.einsum("...i,ij,...j->...", X, A, X) + c * np.abs(X[..., 0])
    f = eg.ExtGridFn([(-2.0, 2.0)] * 2, fv)

    q = np.linspace(-2.0, 2.0, 81)
    Q = np.stack(np.meshgrid(q, q, indexing="ij"), axis=-1)
    quads = []
    for _ in range(2):
        k = rng.uniform(0.5, 2.0, 2)
        b = rng.uniform(-0.5, 0.5, 2)
        quads.append(eg.ExtGridFn([(-2.0, 2.0)] * 2, np.sum(k * (Q - b) ** 2, axis=-1)))

    t = np.linspace(-5.0, 5.0, 2000)
    pair = []
    for _ in range(2):
        k, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        pair.append(eg.ExtGridFn([(-5.0, 5.0)], k * (t - b) ** 2))
    return {"f": f, "quads": quads, "pair": pair}


def pass_conjugates(np, ep, inp, out: Pass, tracer=None):
    tr, hl = ep["transforms"], ep["hopflax"]
    f = inp["f"]
    conj = tr.legendre_nd(f)
    back = tr.legendre_nd(conj.values, dual_box=f.box, dual_resolution=f.resolution)
    ic2 = hl.infconv(*inp["quads"])
    ic1 = hl.infconv(*inp["pair"])
    out.outputs = (conj, back, ic2, ic1)


def _exhaustive_conjugate_rows(np, f, dual_axes, rows):
    """max over every node x of x2*y2 + (x1*y1 - f(x)) at the dual nodes of
    the given rows of the first dual axis. The association is the one the
    axis-by-axis sweep produces, so the comparison can be exact."""
    x1, x2 = f.axes
    out = np.empty((len(rows), len(dual_axes[1])))
    for r, j in enumerate(rows):
        inner = x1[:, None] * dual_axes[0][j] - f.values
        for k, y2 in enumerate(dual_axes[1]):
            out[r, k] = np.max(x2[None, :] * y2 + inner)
    return out


def _exhaustive_infconv(np, fv, gv, k):
    """min over j of f[j] + g[k - j] at one output multi-index k; ties go to
    the smallest flat j, the documented tie-break."""
    js = [np.arange(max(0, kd - mg + 1), min(kd, mf - 1) + 1)
          for kd, mf, mg in zip(k, fv.shape, gv.shape)]
    cand = fv[np.ix_(*js)] + gv[np.ix_(*[kd - j for kd, j in zip(k, js)])]
    best = np.unravel_index(np.argmin(cand), cand.shape)
    jflat = np.ravel_multi_index(tuple(j[b] for j, b in zip(js, best)), fv.shape)
    return cand[best], int(jflat)


def check_conjugates(np, ep, inp, out: Pass, first: Pass | None):
    f = inp["f"]
    conj, back, ic2, ic1 = out.outputs
    dev = float(np.max(np.abs(back.values.values - f.values)))
    bound = sum(
        (hi - lo) / (m - 1) / 2.0 * (bhi - blo)
        for (lo, hi), m, (blo, bhi) in zip(conj.dual_box, conj.values.resolution, f.box)
    )
    out.verdict("biconjugate_within_grid_bound", dev <= bound)
    out.budget(bound, np.max(np.abs(back.values.values)))
    out.info["biconjugate_deviation"] = dev
    if first is not None:
        # the exhaustive comparisons ran on the first pass; later passes
        # must reproduce its outputs bit for bit
        same = all(
            np.array_equal(a, b)
            for a, b in zip(_conj_arrays(first.outputs), _conj_arrays(out.outputs))
        )
        out.verdict("outputs_repeat_first_pass", same)
        return
    rows = np.random.default_rng(7).choice(401, size=2, replace=False)
    for name, src, res in (("forward", f, conj), ("back", conj.values, back)):
        want = _exhaustive_conjugate_rows(np, src, res.values.axes, rows)
        out.verdict(f"legendre_{name}_rows_exhaustive", np.array_equal(res.values.values[rows], want))
    fq, gq = inp["quads"]
    picks = np.random.default_rng(11).integers(0, ic2.values.values.shape, size=(24, 2))
    ok = True
    for k in picks:
        v, a = _exhaustive_infconv(np, fq.values, gq.values, tuple(k))
        ok &= v == ic2.values.values[tuple(k)] and a == ic2.argmin[tuple(k)]
    out.verdict("infconv_2d_exhaustive", ok)
    fp, gp = (p.values for p in inp["pair"])
    ok = True
    for k in range(len(fp) + len(gp) - 1):
        v, a = _exhaustive_infconv(np, fp, gp, (k,))
        ok &= v == ic1.values.values[k] and a == ic1.argmin[k]
    out.verdict("infconv_1d_exhaustive", ok)


def _conj_arrays(outputs):
    conj, back, ic2, ic1 = outputs
    return (conj.values.values, back.values.values, ic2.values.values, ic2.argmin,
            ic1.values.values, ic1.argmin)


# -- run loop ----------------------------------------------------------------

FUNCS = {
    name: (globals()[f"setup_{name}"], globals()[f"pass_{name}"], globals()[f"check_{name}"])
    for name in WORKLOADS
}


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path: str | None):
    np, ep, inputs, tracer, host, setup_raw, setup_s = set_up(workload, seed, trace)
    _, one_pass, check = FUNCS[workload]

    passes: list[Pass] = []
    plain_s: list[float] = []
    norm_s: list[float] = []
    traced_s: list[float] = []
    traced_norm_s: list[float] = []
    t_start = time.perf_counter()
    while True:
        modes = (False, True) if trace else (False,)
        for traced in modes:
            p = Pass()
            if traced:
                tracer.iteration = len(traced_s)
                tracer.install()
            t = time.perf_counter()
            host.start(PASS_SAMPLE_S)
            try:
                one_pass(np, ep, inputs, p, tracer if traced else None)
            except Exception:  # a crashing pass is a failed verdict, not a crash
                traceback.print_exc(file=sys.stderr)
                p.verdict("pass_raised", False)
            raw, norm = host.stop(time.perf_counter() - t)
            if traced:
                tracer.uninstall()
                traced_s.append(raw)
                traced_norm_s.append(norm)
            else:
                plain_s.append(raw)
                norm_s.append(norm)
            if p.outputs is not None:
                try:
                    check(np, ep, inputs, p, passes[0] if passes else None)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    p.verdict("check_raised", False)
            p.outputs = p.outputs if not passes else None  # keep only the first
            passes.append(p)
        elapsed = time.perf_counter() - t_start
        cycle = elapsed / (len(plain_s))
        if elapsed + cycle > seconds:
            break

    verdicts = [v for p in passes for v in p.verdicts]
    failed = [label for label, ok in verdicts if not ok]
    budgets = [b for p in passes for b in p.budgets]
    parts = {}
    for p in passes:
        for k, v in p.parts.items():
            parts.setdefault(k, []).append(v)
    result = {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "pass_s": plain_s,
        "pass_norm_s": norm_s,
        "wall_s": statistics.median(plain_s),
        "wall_norm_s": statistics.median(norm_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(verdicts),
        "failed": len(failed),
        "failed_labels": sorted(set(failed)),
        "budget_rel_max": max(budgets) if budgets else None,
        "parts_s": {k: statistics.median(v) for k, v in parts.items()},
        "info": passes[0].info,
    }
    if tracer is not None:
        result["traced_pass_s"] = traced_s
        result["traced_pass_norm_s"] = traced_norm_s
        result["layers"] = [tracer.totals(i) for i in ["setup"] + list(range(len(traced_s)))]
        if spans_path:
            tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        *_, raw, norm = set_up(args.workload, args.seed, False)
        result = {"setup_s": norm, "setup_raw_s": raw}
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
