"""Record the output-check reference bands in ``perfbench/reference.json``.

    python3 perfbench/calibrate.py --seeds $(seq 101 130)

Runs replica-stack and durable-adaptive once per seed (untraced) and
writes, from what they print:

* replica-stack: ``min_gap``, half the smallest observed gap between
  the γ=1 and γ=4 cells' mean h/e;
* durable-adaptive: per cell, bands on α and h/e of the mean plus or
  minus 8 standard deviations or 25% of the mean, whichever is wider,
  clipped to the physical range (α ≥ 1, 0 ≤ h/e ≤ 1).  Single-replica
  α has a heavy upper tail (a 5σ value turned up in 50 runs), so the
  bands are loose; they still tell λ=1 from λ=4 and γ=1 from γ=4.
  A band whose lower limit is clipped checks one side only; those are
  listed under ``one_sided``.

Run it on the commit the bands should describe; the bands hold any
kernel that samples the same stationary distribution, so they need
re-recording only when the workloads change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.run import SEED_STRIDE, Runner  # noqa: E402
from perfbench.workloads import REFERENCE, WORKLOADS  # noqa: E402


#: Physical range of each banded observable: α = p / p_min ≥ 1, and h/e
#: is a share of edges.
RANGES = {"alpha": (1.0, float("inf")), "hetero_density": (0.0, 1.0)}


def _band(values, name):
    mean = statistics.mean(values)
    pad = max(8 * statistics.stdev(values), 0.25 * abs(mean))
    floor, ceiling = RANGES[name]
    return [round(max(mean - pad, floor), 3), round(min(mean + pad, ceiling), 3)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    observed = {"replica-stack": [], "durable-adaptive": []}
    scratch = ROOT / ".bench_work" / f"calibrate-{os.getpid()}"
    # The checks read the reference file: accept anything while
    # calibrating, and put the old bands back if calibration fails.
    previous = REFERENCE.read_text() if REFERENCE.exists() else None
    REFERENCE.write_text(json.dumps({
        "replica-stack": {"min_gap": -1.0},
        "durable-adaptive": {"bands": {}},
    }))
    try:
        for name in observed:
            for seed in args.seeds:
                runner = Runner(WORKLOADS[name], seed, scratch / f"{name}-{seed}")
                result = runner.run("plain", 0)
                if result.code != 0:
                    raise SystemExit(f"{name} seed {seed} exited {result.code}")
                values = runner.outcome.values
                print(name, seed, json.dumps(values), flush=True)
                observed[name].append(values)
    except BaseException:
        if previous is not None:
            REFERENCE.write_text(previous)
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    gaps = [
        v["lam4-gamma1"]["hetero_density"] - v["lam4-gamma4"]["hetero_density"]
        for v in observed["replica-stack"]
    ]
    cells = [c for c in observed["durable-adaptive"][0] if c != "stops"]
    bands = {
        cell: {
            name: _band([v[cell][name] for v in observed["durable-adaptive"]], name)
            for name in RANGES
        }
        for cell in cells
    }
    reference = {
        "cli_seeds": [SEED_STRIDE * seed for seed in args.seeds],
        "replica-stack": {
            "observed_gaps": [round(g, 3) for g in gaps],
            "min_gap": round(0.5 * min(gaps), 3),
        },
        "durable-adaptive": {
            "stops": [v["stops"] for v in observed["durable-adaptive"]],
            "bands": bands,
            "one_sided": [
                f"{cell} {name}"
                for cell, band in bands.items()
                for name, (low, _) in band.items()
                if low == RANGES[name][0]
            ],
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
