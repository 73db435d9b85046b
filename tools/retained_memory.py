"""Trace the heap that one benchmark round keeps alive through its outputs.

Usage: python tools/retained_memory.py CHECKOUT WORKLOAD SEED

Builds ``perfbench/workloads.py``'s plan for WORKLOAD (qubit or qudit)
and SEED against the package in ``CHECKOUT/src``, then runs one round of
its operations under ``tracemalloc``: each output is checked as
``perfbench/run.py`` checks it and kept, with its operation, as
``run.py`` keeps it.  After the round it prints the traced bytes still
allocated (retained) and the traced peak, then the five source lines
holding the most retained bytes, paths relative to CHECKOUT.  The plan's
inputs are built before tracing starts, so they are not counted.

A line of ``failed N`` follows if any operation raised or failed its
check.  Nothing is written under the checkout; the operations' files go
to a temporary directory.
"""

import gc
import os
import sys
import tempfile
import tracemalloc

TOP_LINES = 5


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[0])
    workload, seed = argv[1], int(argv[2])
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True
    import workloads

    with tempfile.TemporaryDirectory() as out_dir:
        ops = workloads.instantiate(workloads.plan(workload, seed), out_dir)
        gc.collect()
        tracemalloc.start()
        kept, failed = [], 0
        for op in ops:
            try:
                out = op.call()
                problems = op.check(out)
            except Exception as exc:  # a raising operation is a failed one, as in run.py
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            failed += bool(problems)
            kept.append((op, out, problems))
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
    print(f"retained {retained} B, peak {peak} B over {len(kept)} operations")
    for stat in snapshot.statistics("lineno")[:TOP_LINES]:
        frame = stat.traceback[0]
        path = frame.filename.removeprefix(root + os.sep)
        print(f"{stat.size:>10} B {stat.count:>6} blocks  {path}:{frame.lineno}")
    if failed:
        print(f"failed {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
