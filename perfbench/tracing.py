"""Span tracing of crenaudit's public layer functions, from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
its defining module and in every crenaudit module that imported it by
name (``monogamy.optimize``, ``convexroof.negativity_pure``, ...), and in
the ``crenaudit`` package namespace.  ``uninstall`` puts the originals
back.  Spans (name, start, end, parent index) stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span name); DensityOperator is traced through its
# constructor, optimize is split by direction.
TRACED = (
    ("qlinalg", "partial_trace", "qlinalg.partial_trace"),
    ("qlinalg", "partial_transpose", "qlinalg.partial_transpose"),
    ("qlinalg", "cut_matrix", "qlinalg.cut_matrix"),
    ("qlinalg", "trace_norm", "qlinalg.trace_norm"),
    ("qlinalg", "DensityOperator", "qlinalg.DensityOperator"),
    ("states", "build_pcs_density", "states.build_pcs_density"),
    ("states", "apply_phase_damping", "states.apply_phase_damping"),
    ("states", "coarse_grain", "states.coarse_grain"),
    ("measures", "negativity_pure", "measures.negativity_pure"),
    ("measures", "negativity_mixed", "measures.negativity_mixed"),
    ("measures", "concurrence_pure", "measures.concurrence_pure"),
    ("measures", "wootters_concurrence_2q", "measures.wootters_concurrence_2q"),
    ("convexroof", "optimize", "convexroof.optimize_{direction}"),
    ("convexroof", "flatness_scan", "convexroof.flatness_scan"),
    ("convexroof", "average_negativity", "convexroof.average_negativity"),
    ("convexroof", "decomposition_from_unitary", "convexroof.decomposition_from_unitary"),
    ("monogamy", "cren_audit", "monogamy.cren_audit"),
    ("monogamy", "ckw_audit", "monogamy.ckw_audit"),
    ("monogamy", "dual_audit", "monogamy.dual_audit"),
    ("monogamy", "negativity_audit", "monogamy.negativity_audit"),
    ("monogamy", "range_floor", "monogamy.range_floor"),
    ("monogamy", "analytic_w_audit", "monogamy.analytic_w_audit"),
    ("monogamy", "hunt", "monogamy.hunt"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(
    n
    for _, _, name in TRACED
    for n in ((name.format(direction="min"), name.format(direction="max")) if "{" in name else (name,))
)

_AUDITS = ("cren_audit", "ckw_audit", "dual_audit", "negativity_audit")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sweeps = 0
        self.unconverged = 0
        self.pair_terms = 0
        self.exact_terms = 0

    def _wrap(self, fn, name: str, attr: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name
            if attr == "optimize":
                direction = args[2] if len(args) > 2 else kwargs.get("direction")
                span_name = name.format(direction=direction)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
            if attr == "optimize":
                self.sweeps += len(out.objective_trace) - 1
                self.unconverged += not out.converged
            elif attr in _AUDITS:
                self.pair_terms += len(out.rhs_bound_kinds)
                self.exact_terms += sum(k == "exact" for k in out.rhs_bound_kinds)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import crenaudit

        modules = [crenaudit] + [
            m for k, m in sys.modules.items() if k.startswith("crenaudit.") and m is not None
        ]
        for mod_name, attr, name in TRACED:
            owner = sys.modules[f"crenaudit.{mod_name}"]
            if attr == "DensityOperator":
                cls = owner.DensityOperator
                original = cls.__init__
                self._patched.append((cls, "__init__", original))
                cls.__init__ = self._wrap(original, name, attr)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Calls and self time per span name, plus the counters read from results."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (total[name] - child[name], "s")
        neg = "measures.negativity_pure"
        out[f"{neg}.us_per_call"] = (1e6 * total[neg] / max(calls[neg], 1), "us")
        out["convexroof.optimize.sweeps"] = (self.sweeps, "count")
        out["convexroof.optimize.unconverged"] = (self.unconverged, "count")
        out["monogamy.pair_terms.exact_share"] = (self.exact_terms / max(self.pair_terms, 1), "1")
        return out

    def dump(self, path: str, metrics: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "metrics": metrics,
                    "span_fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )
