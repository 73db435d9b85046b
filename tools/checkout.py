"""Argument checks shared by the tools that run a checkout's package.

A tool names its usage line and calls ``usage_error`` on an argument it
cannot use, and ``import_checkout`` before anything from the checkout is
imported.  A wrong argument count, a SEED that is not an integer, a
WORKLOAD other than qubit or qudit, or a CHECKOUT without
``src/crenaudit/__init__.py`` prints ``usage: ...`` to stderr and exits
2, so a gate never compares the empty output of a run that did nothing.
"""

import os
import sys

WORKLOADS = ("qubit", "qudit")


def usage_error(usage: str):
    sys.stderr.write(f"usage: {usage}\n")
    raise SystemExit(2)


def seeds(texts: list[str], usage: str) -> list[int]:
    try:
        return [int(text) for text in texts]
    except ValueError:
        usage_error(usage)


def import_checkout(root: str, usage: str, *extra: str) -> str:
    """Put ``root/src`` and then each ``root/extra`` first on ``sys.path``
    and import ``crenaudit`` from it; return the ``src`` path.

    Exits 2 if the checkout holds no package, or if ``crenaudit`` came from
    elsewhere (an installed copy found first), as ``perfbench/run.py`` does.
    """
    root = os.path.abspath(root)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "crenaudit", "__init__.py")):
        usage_error(usage)
    sys.path[:0] = [src, *(os.path.join(root, name) for name in extra)]
    import crenaudit

    if not os.path.abspath(crenaudit.__file__).startswith(src + os.sep):
        sys.stderr.write(f"imported crenaudit from {crenaudit.__file__}, not {src}\n")
        raise SystemExit(2)
    return src
