"""Record the bbl_nonconvex digests of every bump variant in digests.json.

The digest covers the values and argmins of every Hopf-Lax application that
``bblcheck.bbl_gap`` makes on the variant's grids; a faster Hopf-Lax path
must reproduce it bit for bit. Run once at the commit whose outputs are the
reference, single-threaded:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 EPICONV_THREADS=1 \\
        python3 perfbench/record_digests.py
"""

import json
import sys

import workloads as wl


def main() -> int:
    np, ep = wl.import_epiconv()
    digests = {}
    for v in range(wl.BUMP_VARIANTS):
        inp = wl.setup_bbl_nonconvex(np, ep, v)
        p = wl.Pass()
        wl.pass_bbl_nonconvex(np, ep, inp, p)
        wl.check_bbl_nonconvex(np, ep, inp, p, None)
        bad = [label for label, ok in p.verdicts if not ok and label != "q_h_digest"]
        if bad:
            print(f"variant {v}: failed {bad}; no digests written", file=sys.stderr)
            return 1
        digests[str(v)] = p.info["q_h_digest"]
        print(f"variant {v}: {p.info['q_h_digest']}", flush=True)
    with open(wl.DIGESTS, "w") as fh:
        json.dump({"bbl_nonconvex": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
