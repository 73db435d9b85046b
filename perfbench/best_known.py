"""Regenerate best_known.json: high-start optimizer values for the roof corpus.

    python3 perfbench/best_known.py

For every roof-corpus case without a closed form, runs crenaudit's
``optimize`` from scratch with STARTS starts, in the case's own basis and in
FRAMES - 1 more local bases (a local unitary leaves the roof unchanged but
moves the optimizer's search), and keeps the best value: the lowest minimum
and the highest maximum.  A run counts a case as failed when its
default-config minimum lies above this value, or its maximum below it, by
more than 1e-3.
"""

from __future__ import annotations

import json
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

from run import import_crenaudit  # noqa: E402

STARTS = 32
FRAMES = 4


def main() -> int:
    import_crenaudit()
    import numpy as np

    import refs
    import workloads
    from crenaudit import convexroof, qlinalg

    best = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.ROOF_CASES[workload]:
            cid, kind = case[0], case[1]
            if kind not in ("best", "fault"):
                continue
            dims, mat, _ = workloads.roof_base(case)
            cfg = convexroof.OptConfig(starts=STARTS)
            best[cid] = {"starts": STARTS, "frames": FRAMES}
            frame_rng = np.random.default_rng([workloads.CORPUS_SEED, 1000])
            for frame in range(FRAMES):
                u = np.eye(mat.shape[0]) if frame == 0 else refs.local_unitary(dims, frame_rng)
                rho = qlinalg.DensityOperator(qlinalg.DimensionProfile(dims), refs.rotated(mat, u))
                for direction in ("min",) if kind == "fault" else ("min", "max"):
                    t0 = time.perf_counter()
                    value = convexroof.optimize(rho, 1, direction, cfg).value
                    keep = min if direction == "min" else max
                    best[cid][direction] = keep(best[cid].get(direction, value), value)
                    print(f"{cid:14s} frame {frame} {direction} {value:.10f} "
                          f"{time.perf_counter() - t0:.1f}s", flush=True)
    with open(workloads.BEST_KNOWN, "w", encoding="utf-8") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
