"""The names the benchmark under perfbench/ calls still resolve.

perfbench/ imports crenaudit from src/ and calls these by name (its tracer
also wraps each traced function in its defining module), but its own tests
are not part of this suite, so a rename here could break the benchmark
unnoticed.
"""

import importlib

import numpy as np
import pytest

# Module -> the callables perfbench reads from it.
BENCHMARK_CALLABLES = {
    "convexroof": ("optimize", "flatness_scan", "average_negativity", "decomposition_from_unitary",
                   "OptConfig"),
    "monogamy": ("cren_audit", "ckw_audit", "dual_audit", "negativity_audit", "analytic_w_audit",
                 "range_floor", "pair_terms", "hunt"),
    "measures": ("negativity_pure", "concurrence_pure", "negativity_mixed", "wootters_concurrence_2q"),
    "qlinalg": ("DimensionProfile", "PureState", "DensityOperator", "partial_trace",
                "partial_transpose", "cut_matrix", "trace_norm"),
    "states": ("WClassSpec", "PCSSpec", "PartitionSpec", "coherent_superposition",
               "apply_phase_damping", "build_pcs_density", "coarse_grain"),
    "cli": ("main",),
}


@pytest.mark.parametrize("module", sorted(BENCHMARK_CALLABLES))
def test_benchmark_callables_resolve(module):
    mod = importlib.import_module(f"crenaudit.{module}")
    missing = [name for name in BENCHMARK_CALLABLES[module] if not callable(getattr(mod, name, None))]
    assert not missing, f"crenaudit.{module} lacks {missing}"


def test_benchmark_result_fields_resolve():
    from crenaudit.convexroof import Decomposition
    from crenaudit.monogamy import AnalyticWAudit, AuditReport

    assert hasattr(Decomposition, "states")
    assert {"values", "report", "flatness_mean", "flatness_max_dev"} <= set(AnalyticWAudit.__dataclass_fields__)
    assert {"rhs_terms_sq", "rhs_bound_kinds", "rhs_lower_sq"} <= set(AuditReport.__dataclass_fields__)


def test_density_operator_takes_profile_and_matrix_positionally():
    from crenaudit.qlinalg import DensityOperator, DimensionProfile

    rho = DensityOperator(DimensionProfile((2, 2)), np.eye(4) / 4)
    assert rho.rank() == 4
