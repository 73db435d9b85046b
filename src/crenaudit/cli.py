"""Command line front end.

Subcommands: ``state`` (inspect a state), ``measure`` (compute one
measure), ``audit`` (run monogamy inequalities), ``sweep`` (parameter
grids over W-class mixtures), ``hunt`` (random search for violations).

This module is the package's one renderer: every command's rows, and
every audit report, reach the user as a table, CSV or JSON through it.

Exit codes: 0 on success (violations are findings, not failures), 2 on
input errors, 3 on internal numerical failures.  Runs are reproducible:
the default seed is 0 and identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .convexroof import OptConfig, require_seed
from .monogamy import (
    TOL_SAT,
    VERDICT_CANDIDATE,
    VERDICT_CERTIFIED,
    analytic_w_audit,
    audits,
    hunt,
    pair_term,
    pair_terms,
)
from .qlinalg import (
    Bipartition,
    DensityOperator,
    DimensionProfile,
    DomainError,
    NumericalError,
    PureState,
    partial_trace,
)
from .states import (
    PCSSpec,
    PartitionSpec,
    WClassSpec,
    build_w_state,
    ghz_state,
    kim_sanders_state,
    load_state_spec,
    load_w_spec,
    maximally_entangled,
    ou_state,
)

_FAMILIES = {
    "ou": lambda args: ou_state(),
    "kim_sanders": lambda args: kim_sanders_state(),
    "max_entangled": lambda args: maximally_entangled(args.d),
    "ghz": lambda args: ghz_state(args.n, args.d),
    "w": lambda args: build_w_state(WClassSpec.symmetric(args.n, args.d)),
}
# Optimizer overrides of measure and audit: (flag, OptConfig field, type).
_OPT_FLAGS = (
    ("--opt-size", "size", int),
    ("--opt-starts", "starts", int),
    ("--opt-sweeps", "max_sweeps", int),
    ("--opt-tol", "tol_rel", float),
)


def _parse_parties(text: str) -> tuple[int, ...]:
    # With commas each item is a party ("1,10"); without, each digit is ("12").
    if "," in text:
        chunks = [c.strip() for c in text.split(",") if c.strip()]
    else:
        chunks = list(text.strip())
    out = []
    for chunk in chunks:
        if not chunk.isdigit():
            raise DomainError(f"bad party index {chunk!r} in {text!r}")
        out.append(int(chunk))
    if not out:
        raise DomainError(f"no party indices in {text!r}")
    return tuple(out)


def _parse_partition(text: str) -> PartitionSpec:
    blocks = [_parse_parties(b) for b in text.split("|") if b.strip()]
    return PartitionSpec(tuple(blocks))


def _parse_grid(text: str) -> list[float]:
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise DomainError(f"empty grid {text!r}")
    return vals


def _load_state(args) -> PureState | DensityOperator:
    if getattr(args, "spec", None):
        state = load_state_spec(args.spec)
    elif getattr(args, "family", None):
        state = _FAMILIES[args.family](args)
    else:
        raise DomainError("provide --spec FILE or --family NAME")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        # Validated as a cut: the dropped parties must exist and leave some.
        dropped = Bipartition(_parse_parties(trace_out), state.profile.n)
        state = partial_trace(state, dropped.side_b)
    return state


AUDIT_COLUMNS = (
    "state_id", "measure", "focus", "lhs_sq", "rhs_sq_sum", "residual", "verdict", "bound_kinds"
)


def fmt(value: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{value:.12g}"


def fmt_residual(value: float) -> str:
    """``fmt`` of a residual or deviation, printed as 0 when within ``TOL_SAT``.

    A saturated residual, or a flatness deviation at that scale, is rounding
    noise whose last bits no result depends on.
    """
    return "0" if abs(value) <= TOL_SAT else fmt(value)


def report_rows(reports) -> list[dict[str, str]]:
    """One ``AUDIT_COLUMNS`` row of strings per report, in the given order."""
    return [
        {
            "state_id": report.state_id,
            "measure": report.measure,
            "focus": str(report.focus),
            "lhs_sq": fmt(report.lhs_sq),
            "rhs_sq_sum": fmt(report.rhs_sq_sum),
            "residual": fmt_residual(report.residual),
            "verdict": report.verdict,
            "bound_kinds": ";".join(report.rhs_bound_kinds),
        }
        for report in reports
    ]


def report_docs(reports) -> list[dict]:
    """One JSON document per report, in the given order."""
    return [
        {
            "state_id": report.state_id,
            "measure": report.measure,
            "focus": report.focus,
            "lhs_sq": float(fmt(report.lhs_sq)),
            "partners": list(report.partners),
            "rhs_terms_sq": [float(fmt(v)) for v in report.rhs_terms_sq],
            "rhs_sq_sum": float(fmt(report.rhs_sq_sum)),
            "bound_kinds": list(report.rhs_bound_kinds),
            "residual": float(fmt_residual(report.residual)),
            "verdict": report.verdict,
        }
        for report in reports
    ]


def _emit_rows(rows: list[dict], columns: tuple[str, ...], fmt_name: str) -> str:
    """Rows as a table or CSV with a header line (their values strings), or a JSON list."""
    if fmt_name == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if fmt_name == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_state(args) -> int:
    state = _load_state(args)
    rows: list[dict[str, str]] = []

    def add(k: str, v: str) -> None:
        rows.append({"property": k, "value": v})

    profile = state.profile
    add("profile", "x".join(str(d) for d in profile.dims))
    if isinstance(state, PureState):
        add("kind", "pure")
        add("norm", fmt(float(np.linalg.norm(state.amplitudes))))
        add("purity", fmt(1.0))
        add("rank", "1")
    else:
        add("kind", "mixed")
        add("trace", fmt(state.trace()))
        add("purity", fmt(state.purity()))
        add("rank", str(state.rank()))
    if args.cut:
        cut = Bipartition(_parse_parties(args.cut), profile.n)
        add("cut", str(cut))
        if isinstance(state, PureState):
            # The Schmidt coefficients are the side-A marginal's spectrum.
            marginal = partial_trace(state, cut.side_a)
            rank = marginal.rank()
            add("schmidt_rank", str(rank))
            add(
                "schmidt_coefficients",
                " ".join(fmt(float(c)) for c in marginal.eigenvalues[::-1][:rank]),
            )
        else:
            add("negativity", fmt(pair_term(state, cut, "negativity").value))
    _write(_emit_rows(rows, ("property", "value"), args.format), args.output)
    return 0


def _opt_config(args) -> OptConfig | None:
    """The OptConfig of the --opt-* flags given, or None when none is.

    OptConfig's own defaults fill the fields no flag sets.
    """
    flags = {dest: getattr(args, dest) for _, dest, _ in _OPT_FLAGS}
    overrides = {field: value for field, value in flags.items() if value is not None}
    return OptConfig(seed=args.seed, **overrides) if overrides else None


def _run_measure(args) -> int:
    cfg = _opt_config(args) or OptConfig(seed=args.seed)
    state = _load_state(args)
    cut = Bipartition(_parse_parties(args.cut) if args.cut else (1,), state.profile.n)
    measures = [measure.strip() for measure in args.measure.split(",")]
    # One call, so measures that pose the same roof problem share its search.
    terms = pair_terms([(state, cut, measure, cfg) for measure in measures])
    rows = [
        {
            "measure": measure,
            "cut": str(cut),
            "value": fmt(term.value),
            "method": term.method,
            "bound_kind": term.kind,
        }
        for measure, term in zip(measures, terms)
    ]
    columns = ("measure", "cut", "value", "method", "bound_kind")
    _write(_emit_rows(rows, columns, args.format), args.output)
    return 0


def _write_reports(reports, fmt_name: str, output: str | None) -> None:
    """Render audit reports sorted by state, measure and focus."""
    reports = sorted(reports, key=lambda r: (r.state_id, r.measure, r.focus))
    rows = report_docs(reports) if fmt_name == "json" else report_rows(reports)
    _write(_emit_rows(rows, AUDIT_COLUMNS, fmt_name), output)


def _run_audit(args) -> int:
    opt = _opt_config(args)
    state = _load_state(args)
    if not isinstance(state, PureState):
        raise DomainError("audits need a pure state input")
    state_id = args.spec or args.family or "state"
    measures = [measure.strip() for measure in args.measures.split(",")]
    reports = audits([(state, state_id, args.seed)], args.focus, measures, opt)
    _write_reports(reports, args.format, args.output)
    return 0


def _run_sweep(args) -> int:
    spec = load_w_spec(args.spec) if args.spec else WClassSpec.symmetric(args.n, args.d)
    # A grid flag that is not given takes a pcs document's one value.
    if isinstance(spec, PCSSpec):
        wspec, p_grid, lam_grid = spec.w, [spec.p], [spec.lam]
    else:
        wspec, p_grid, lam_grid = spec, [0.25, 0.5, 0.75], [0.0, 0.5, 1.0]
    p_grid = _parse_grid(args.p_grid) if args.p_grid is not None else p_grid
    lam_grid = _parse_grid(args.lambda_grid) if args.lambda_grid is not None else lam_grid
    partition = _parse_partition(args.partition) if args.partition else None
    rows = []
    m = partition.m if partition else wspec.n
    pair_cols = tuple(f"pair_cren_{i}" for i in range(2, m + 1))
    for p in p_grid:
        for lam in lam_grid:
            audit = analytic_w_audit(PCSSpec(wspec, p, lam), partition, seed=args.seed)
            row = {
                "p": fmt(p),
                "lambda": fmt(lam),
                "global_cren": fmt(audit.values.global_cren),
            }
            for col, v in zip(pair_cols, audit.values.pair_cren):
                row[col] = fmt(v)
            row["residual"] = fmt_residual(audit.report.residual)
            row["flatness_max_dev"] = fmt_residual(audit.flatness_max_dev)
            row["verdict"] = audit.report.verdict
            rows.append(row)
    columns = ("p", "lambda", "global_cren") + pair_cols + (
        "residual",
        "flatness_max_dev",
        "verdict",
    )
    _write(_emit_rows(rows, columns, args.format), args.output)
    return 0


def _run_hunt(args) -> int:
    try:
        profile = DimensionProfile(tuple(int(d) for d in args.profile.split(",")))
    except ValueError as exc:
        raise DomainError(f"--profile {args.profile!r}: {exc}") from None
    findings = hunt(profile, args.trials, args.seed, focus=args.focus)
    candidates = sum(1 for f in findings if f.verdict == VERDICT_CANDIDATE)
    certified = sum(1 for f in findings if f.verdict == VERDICT_CERTIFIED)
    # A findings file is CSV unless JSON is asked for.
    fmt_name = "csv" if args.output and args.format == "table" else args.format
    _write_reports(findings, fmt_name, args.output)
    sys.stderr.write(
        f"hunt: trials={args.trials} candidates={candidates} certified={certified}"
        f" screened={findings.screened} stopped={findings.stopped} searched={findings.searched}\n"
    )
    return 0


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared after it.

    Parsing keeps nothing in the parser: each ``parse_args`` call fills a
    fresh ``Namespace``.
    """
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="crenaudit",
        description="Entanglement measures and monogamy audits for qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_state: bool = True) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--output", help="write to this file instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        if with_state:
            p.add_argument("--spec", help="state-spec document (YAML)")
            p.add_argument("--family", choices=_FAMILIES)
            p.add_argument("--n", type=int, default=3, help="party count for ghz/w")
            p.add_argument("--d", type=int, default=2, help="local dimension")
            p.add_argument(
                "--trace-out",
                dest="trace_out",
                help="parties to trace out after building (e.g. 3 or 2,3)",
            )

    def add_opt(p: argparse.ArgumentParser) -> None:
        # Only measure and audit read an OptConfig; hunt sizes each
        # marginal's search itself.
        for flag, dest, kind in _OPT_FLAGS:
            p.add_argument(flag, type=kind, dest=dest)

    p_state = sub.add_parser("state", help="inspect a state")
    add_common(p_state)
    p_state.add_argument("--cut", help="side-A parties of a cut, e.g. 1 or 1,2")

    p_measure = sub.add_parser("measure", help="compute measures across a cut")
    add_common(p_measure)
    add_opt(p_measure)
    p_measure.add_argument(
        "--measure", required=True, help="comma list: concurrence,negativity,cren,crenoa,coa"
    )
    p_measure.add_argument("--cut", help="side-A parties (default party 1)")

    p_audit = sub.add_parser("audit", help="run monogamy audits")
    add_common(p_audit)
    add_opt(p_audit)
    p_audit.add_argument("--focus", type=int, default=1)
    p_audit.add_argument(
        "--measures",
        default="cren,ckw,negativity",
        help="comma list: cren,ckw,coa,crenoa,negativity",
    )

    p_sweep = sub.add_parser("sweep", help="parameter sweep over W-class mixtures")
    add_common(p_sweep, with_state=False)
    p_sweep.add_argument("--spec", help="w_class or pcs spec document")
    p_sweep.add_argument("--n", type=int, default=3)
    p_sweep.add_argument("--d", type=int, default=2)
    p_sweep.add_argument("--p-grid", help="default: a pcs spec's p, else 0.25,0.5,0.75")
    p_sweep.add_argument("--lambda-grid", help="default: a pcs spec's lambda, else 0,0.5,1")
    p_sweep.add_argument("--partition", help="party blocks, e.g. 1|23")

    p_hunt = sub.add_parser("hunt", help="random search for monogamy violations")
    add_common(p_hunt, with_state=False)
    p_hunt.add_argument("--profile", required=True, help="local dimensions, e.g. 3,2,2")
    p_hunt.add_argument("--trials", type=int, required=True)
    p_hunt.add_argument("--focus", type=int, default=1)

    _parser = parser
    return parser


_COMMANDS = {
    "state": _run_state,
    "measure": _run_measure,
    "audit": _run_audit,
    "sweep": _run_sweep,
    "hunt": _run_hunt,
}


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    0 on success, 2 on input errors and 3 on internal numerical failures.
    A malformed command line raises ``SystemExit(2)`` from argparse, and
    ``--help`` ``SystemExit(0)``.  The parser is built once per process, so
    repeated in-process calls pay for it once; nothing else carries over
    from one call to the next.
    """
    args = build_parser().parse_args(argv)
    try:
        # One seed rule for every subcommand, whether or not it draws.
        require_seed(args.seed)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # DomainError and the spec-document errors subclass ValueError;
        # bare ValueErrors here are malformed numeric arguments.
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
