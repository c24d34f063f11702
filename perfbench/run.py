"""epiconv benchmark: end-to-end and per-layer metrics for four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists):

  suite_paper    every check of ``cli.paper_suite_configs()``, each timed
                 through ``cli.run_config`` on its own config
  bbl_nonconvex  ``bblcheck.bbl_gap`` on a bump-perturbed half-space grid that
                 fails the grid-convexity certificate, h in {0.1, 0.25, 0.5, 1}
  trace_chain    constants, trace_gn, weighted_trace, derived_gap and
                 admissibility on cone, affine-max and half-space configs
  conjugates     ``transforms.legendre_nd`` forward and back on 401^2 nodes,
                 ``hopflax.infconv`` on 81^2 quadratics and a 2000-node 1D pair

Each workload runs single-threaded in a fresh child process. Set-up (import
and input generation) is measured in that process and in four set-up-only
processes, after one untimed warm-up import; ``setup_s`` is their median.
``wall_norm_s`` is the median pass time. Both are rescaled to a fixed host
speed measured by a reference kernel around and during the timed region (see
``workloads.py``); the raw times are printed and recorded next to them.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a traced run
instead, whose spans are written to ``.bench_out/``. Each result, with the
machine and source provenance, is also written there. Lines before the last
one are a human-readable summary.

Exits with code 2, printing no result, when the checkout holds no epiconv
sources or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4
DEADLINE_S = 170.0

THREAD_ENV = {
    "EPICONV_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child(args: list[str], deadline: float) -> dict:
    """Run workloads.py in a fresh process; its last stdout line is JSON."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a child process")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def provenance() -> dict:
    """Machine, interpreter and source identity recorded with each result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "epiconv")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                src.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def layer_metrics(res: dict, names: list[str]) -> dict:
    """Per-layer values: set-up totals plus the median over traced passes.

    A metric "<span>.<field>" reads that field of the span's totals; the
    ratios below are derived from those.
    """
    setup, *passes = res["layers"]

    def value(span: str, field: str) -> float:
        per_pass = [p.get(span, {}).get(field, 0) for p in passes]
        return setup.get(span, {}).get(field, 0) + statistics.median(per_pass)

    def apply(field):
        return value("hopflax.apply", field)

    derived = {
        "hopflax.apply.ns_per_candidate":
            lambda: 1e9 * apply("s") / apply("candidates") if apply("candidates") else 0.0,
        "hopflax.apply.inf_frac":
            lambda: apply("inf_nodes") / apply("nodes") if apply("nodes") else 0.0,
        "trace.overhead_frac":
            lambda: statistics.median(res["traced_pass_norm_s"])
            / statistics.median(res["pass_norm_s"]) - 1,
    }
    return {
        n: derived[n]() if n in derived else value(*n.rsplit(".", 1)) for n in names
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "epiconv", "__init__.py")):
        return fail(f"no epiconv sources under {os.path.join(ROOT, 'src')}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        child(common + ["--mode", "setup"], deadline)  # warm-up: bytecode, file cache
        res = child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", os.path.join(OUT_DIR, f"{tag}.spans.json")],
            deadline,
        )
        setups = [res]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(child(common + ["--mode", "setup"], deadline))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as ex:
        return fail(str(ex))

    if args.trace:
        declared = bench["per_layer"]
        metrics = layer_metrics(res, [m["name"] for m in declared])
    else:
        passed = (res["attempted"] - res["failed"]) / res["attempted"]
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_norm_s": res["wall_norm_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "verdicts_passed_frac": passed,
            "budget_rel_max": res["budget_rel_max"],
        }
        declared = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(metrics)
    if missing:
        return fail(f"metrics not produced: {sorted(missing)}")
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    record = dict(res, setup_probes=setups[1:], result=out)
    record["provenance"] = dict(provenance(), numpy=res["numpy"])
    record.pop("layers", None)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(res['pass_s'])} pass(es), "
          f"{res['attempted']} verdicts, {res['failed']} failed {res['failed_labels']}")
    print("pass times s: " + " ".join(f"{t:.3f}" for t in res["pass_s"])
          + "; at nominal host speed: " + " ".join(f"{t:.3f}" for t in res["pass_norm_s"]))
    print(f"  setup_raw_s: {statistics.median(s['setup_raw_s'] for s in setups):.4f} s")
    for k, v in sorted(res["parts_s"].items()):
        print(f"  part {k}: {v:.3f} s")
    print(f"  verdicts_failed_frac: {res['failed'] / res['attempted']:.4f}")
    for k, v in sorted(res["info"].items()):
        print(f"  {k}: {v}")
    for k, v in out["metrics"].items():
        print(f"  {k}: {v['value']:.6g} {v['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
