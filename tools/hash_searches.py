"""Fingerprint the qudit plan's roof searches, the stop rule's, and every audit term.

Usage: python tools/hash_searches.py CHECKOUT SEED...

Runs the ``roof_min``, ``roof_max`` and ``audit`` operations of
``perfbench/workloads.py``'s qudit plan for each seed against the package
in ``CHECKOUT/src``, and prints, on its first line, the number of searched
problems and one sha256 of each one's ``objective_trace``,
``start_values`` and decomposition members, in the order they are solved.
Closed forms (one start) are not counted.

Its second line fingerprints the searches a stop rule ends: it runs
``monogamy.hunt`` on the profiles 3,3,3 and 2,3,4 (200 trials each, seed
0, whatever SEEDs are given) and prints the number of problems stopped and
one sha256 of which problems each ``optimize_many`` call stopped and of
every result it completed, closed forms included.

Its third line re-solves every searched problem of the first through
``optimize_many``, one call per recorded call, with each cut named by
its complement, and prints the count and digest in the first line's
format.  A cut and its complement pose one problem, so the third line
equals the first.

Its fourth line fingerprints every pair term, not only the searched
ones: it prints the number of reports returned by the ``audit``
operations of the qudit plan (the runs of the first line) and then of
the qubit plan, for each seed, and one sha256 over each report's
``rhs_bound_kinds`` and the ``float.hex`` of its ``lhs_sq``,
``rhs_terms_sq``, ``rhs_lower_sq`` and ``rhs_upper_sq``.

Equal output at two checkouts means every search ran bit for bit the
same, which the benchmark's value sums rest on, the second line extends
that to the descent's ``halt`` path, and the fourth to every term's
value, bracket and bound kind, closed forms included.  Nothing is written under
the checkout; the operations' files go to a temporary directory.  A bad
argument, or no SEED, prints the usage line and exits 2 (``checkout.py``).
"""

import hashlib
import sys
import tempfile

sys.dont_write_bytecode = True  # set before the helper's import, so no bytecode is written
from checkout import import_checkout, seeds, usage_error

USAGE = "python tools/hash_searches.py CHECKOUT SEED..."
HUNTS = ((3, 3, 3), (2, 3, 4))
HUNT_TRIALS = 200


def main(argv: list[str]) -> None:
    if len(argv) < 2:
        usage_error(USAGE)
    plan_seeds = seeds(argv[1:], USAGE)
    import_checkout(argv[0], USAGE, "perfbench")
    import numpy as np
    import workloads
    from crenaudit import Bipartition, DimensionProfile, convexroof, monogamy
    from crenaudit.qlinalg import as_bipartition

    inner = convexroof.optimize_many
    digest, count = hashlib.sha256(), [0]
    hunt_digest, stopped = hashlib.sha256(), [0]

    def update(target, res):
        for part in (res.objective_trace, res.start_values, res.decomposition.members):
            target.update(np.ascontiguousarray(part).tobytes())

    searched = []  # per recorded call, its searched problems

    def record_searches(problems, results):
        searched.append([])
        for problem, res in zip(problems, results):
            if res is not None and len(res.start_values) > 1:  # searched, not a closed form
                count[0] += 1
                update(digest, res)
                searched[-1].append(problem)

    def record_hunt(problems, results):
        mask = np.array([res is None for res in results])
        stopped[0] += int(mask.sum())
        hunt_digest.update(mask.tobytes())
        for res in results:
            if res is not None:
                update(hunt_digest, res)

    record = [record_searches]

    def recording(problems, **kw):
        problems = list(problems)
        results = inner(problems, **kw)
        record[0](problems, results)
        return results

    reports = []  # of the audit operations, qudit plan then qubit plan
    convexroof.optimize_many = monogamy.optimize_many = recording
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in plan_seeds:
            for op in workloads.instantiate(workloads.plan("qudit", seed), out_dir):
                if op.kind in ("roof_min", "roof_max", "audit"):
                    result = op.call()
                    if op.kind == "audit":
                        reports.append(result)
    print(count[0], digest.hexdigest())

    record[0] = record_hunt
    for dims in HUNTS:
        monogamy.hunt(DimensionProfile(dims), HUNT_TRIALS, 0)
    print(stopped[0], hunt_digest.hexdigest())

    complement_digest, complements = hashlib.sha256(), 0
    for problems in searched:
        renamed = []
        for rho, cut, direction, cfg in problems:
            cut = as_bipartition(cut, rho.profile.n)
            renamed.append((rho, Bipartition(cut.side_b, cut.n), direction, cfg))
        for res in inner(renamed):
            complements += 1
            update(complement_digest, res)
    print(complements, complement_digest.hexdigest())

    convexroof.optimize_many = monogamy.optimize_many = inner
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in plan_seeds:
            for op in workloads.instantiate(workloads.plan("qubit", seed), out_dir):
                if op.kind == "audit":
                    reports.append(op.call())
    term_digest = hashlib.sha256()
    for r in reports:
        values = (r.lhs_sq, *r.rhs_terms_sq, *r.rhs_lower_sq, *r.rhs_upper_sq)
        line = " ".join([*r.rhs_bound_kinds, *map(float.hex, values)])
        term_digest.update((line + "\n").encode())
    print(len(reports), term_digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
