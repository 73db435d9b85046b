"""Tests of the benchmark itself: references, reduced rounds, fault injection, tracing.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

run.import_crenaudit()

import refs  # noqa: E402
import workloads  # noqa: E402
from crenaudit import cli, convexroof, measures, monogamy  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402


def reduced_round(workload, tmp_path, kinds=None):
    plan = workloads.plan(workload, seed=3, reduced=True)
    ops = workloads.instantiate(plan, str(tmp_path))
    if kinds is not None:
        ops = [op for op in ops if op.kind in kinds]
    return run.run_round(ops)


def failed_names(rnd):
    return [rec["op"].name for rec in rnd["records"] if rec["problems"]]


def test_references_pass_textbook_self_check():
    assert refs.self_check() == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_round_passes_every_check(workload, tmp_path):
    rnd = reduced_round(workload, tmp_path)
    assert failed_names(rnd) == []
    kinds = {rec["op"].kind for rec in rnd["records"]}
    assert kinds == {"roof_min", "roof_max", "audit", "cli_audit", "cli_hunt", "sweep", "flatness"}
    metrics = run.round_metrics(rnd)
    assert all(v > 0 for v in metrics.values()), metrics
    attempted, failed, parts, _, names = run.summarize([rnd])
    assert (attempted, failed, names) == (len(rnd["records"]), 0, set())
    assert set(parts) == {"roof-corpus", "audit-mix", "w-sweep"}


def test_times_are_divided_by_the_slowdown(tmp_path):
    probe = SpeedProbe()
    probe.run()
    assert probe.slowdown() > 0
    rnd = reduced_round("qubit", tmp_path)
    base = run.round_metrics(rnd)
    rnd["slowdown"] = 2.0
    slow = run.round_metrics(rnd)
    assert slow["roof_min_s"] == pytest.approx(base["roof_min_s"] / 2)
    assert slow["sweep_points_per_s"] == pytest.approx(base["sweep_points_per_s"] * 2)
    assert slow["roof_min_value_sum"] == base["roof_min_value_sum"]


def test_shifted_optimizer_value_is_a_failed_operation(tmp_path, monkeypatch):
    original = convexroof.optimize

    def shifted(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 0.01)

    monkeypatch.setattr(convexroof, "optimize", shifted)
    rnd = reduced_round("qubit", tmp_path, kinds={"roof_min", "roof_max"})
    assert len(rnd["records"]) == 4
    assert len(failed_names(rnd)) == 4


def test_perturbed_audit_lhs_is_a_failed_operation(tmp_path, monkeypatch):
    original = monogamy.cren_audit

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, lhs_sq=report.lhs_sq * (1 + 1e-6) + 1e-6)

    monkeypatch.setattr(monogamy, "cren_audit", perturbed)
    rnd = reduced_round("qudit", tmp_path, kinds={"audit"})
    assert sorted(failed_names(rnd)) == ["3x2x2-0:cren", "3x3x3-0:cren"]


def test_named_full_rank_fault_case_fails(tmp_path):
    plan = workloads.plan("qudit", seed=0)
    plan.roof = [c for c in plan.roof if c["id"] == "33-r9-fault"]
    plan.audits, plan.cli, plan.sweeps, plan.flatness = [], [], [], []
    rnd = run.run_round(workloads.instantiate(plan, str(tmp_path)))
    [rec] = rnd["records"]
    assert rec["out"].converged
    assert any("above best known" in p for p in rec["problems"])


def test_known_failures_name_qudit_roof_operations(tmp_path):
    plan = workloads.plan("qudit", seed=0)
    plan.audits, plan.cli, plan.sweeps, plan.flatness = [], [], [], []
    names = {op.name for op in workloads.instantiate(plan, str(tmp_path))}
    assert workloads.KNOWN_FAILURES <= names


def test_tracer_wraps_definitions_and_importers_and_restores_them(tmp_path):
    originals = (convexroof.optimize, monogamy.optimize, cli.optimize,
                 convexroof.negativity_pure, measures.negativity_pure, cli.main)
    with Tracer() as tracer:
        assert monogamy.optimize is convexroof.optimize is cli.optimize
        assert monogamy.optimize.__wrapped__ is originals[0]
        assert convexroof.negativity_pure.__wrapped__ is originals[3]
        rnd = reduced_round("qubit", tmp_path, kinds={"roof_min", "audit", "cli_hunt"})
    assert (convexroof.optimize, monogamy.optimize, cli.optimize,
            convexroof.negativity_pure, measures.negativity_pure, cli.main) == originals
    assert failed_names(rnd) == []
    metrics = tracer.layer_metrics()
    assert set(metrics) >= {f"{n}.calls" for n in SPAN_NAMES} | {f"{n}.self_s" for n in SPAN_NAMES}
    assert metrics["convexroof.optimize_min.calls"][0] >= 2
    assert metrics["cli.main.calls"][0] == 2
    assert metrics["monogamy.hunt.calls"][0] == 2
    assert metrics["convexroof.optimize.sweeps"][0] > 0
    assert 0 < metrics["monogamy.pair_terms.exact_share"][0] <= 1
    for name, start, end, parent in tracer.spans:
        assert end >= start
        if parent >= 0:
            p_name, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    assert all(metrics[f"{n}.self_s"][0] >= 0 for n in SPAN_NAMES)
