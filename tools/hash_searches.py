"""Fingerprint every roof search of the qudit benchmark plan.

Usage: python tools/hash_searches.py CHECKOUT SEED...

Runs the ``roof_min``, ``roof_max`` and ``audit`` operations of
``perfbench/workloads.py``'s qudit plan for each seed against the package
in ``CHECKOUT/src``, and prints the number of searched problems and one
sha256 of each one's ``objective_trace``, ``start_values`` and
decomposition members, in the order they are solved.  Closed forms (one
start) are not counted.  Equal output at two checkouts means every
search ran bit for bit the same, which the benchmark's value sums rest on.
Nothing is written under the checkout; the operations' files go to a
temporary directory.
"""

import hashlib
import os
import sys
import tempfile


def main(argv: list[str]) -> None:
    root = os.path.abspath(argv[0])
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True
    import numpy as np
    import workloads
    from crenaudit import convexroof, monogamy

    digest, count, inner = hashlib.sha256(), [0], convexroof.optimize_many

    def recording(problems, **kw):
        results = inner(problems, **kw)
        for res in results:
            if res is not None and len(res.start_values) > 1:  # searched, not a closed form
                count[0] += 1
                for part in (res.objective_trace, res.start_values, res.decomposition.members):
                    digest.update(np.ascontiguousarray(part).tobytes())
        return results

    convexroof.optimize_many = monogamy.optimize_many = recording
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in map(int, argv[1:]):
            for op in workloads.instantiate(workloads.plan("qudit", seed), out_dir):
                if op.kind in ("roof_min", "roof_max", "audit"):
                    op.call()
    print(count[0], digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
