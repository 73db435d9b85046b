import json
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from crenaudit import (
    OptConfig,
    cren_audit,
    ghz_state,
    kim_sanders_state,
    load_state_spec,
    negativity_audit,
    ou_state,
    pair_term,
    partial_trace,
)
from crenaudit import cli
from crenaudit.cli import AUDIT_COLUMNS, _write_reports, build_parser, fmt, main


W3_SPEC = """kind: w_class
coefficients:
  - [0.5773502691896258]
  - [0.5773502691896258]
  - [0.5773502691896258]
"""

# The README's partially coherent document; sweep reads only its table.
PCS_SPEC = """kind: pcs
coefficients:
  - [0.5773502691896258]
  - [0.5773502691896258]
  - [0.5773502691896258]
p: 0.5
lambda: 0.25
"""

# Norm 1 + 9.6e-11: the state is inside the band left unrenormalized, its
# marginal's trace, 1 + 1.9e-10, outside it.
NEAR_UNIT_SPEC = """kind: amplitudes
profile: [2, 2]
amplitudes:
  - ["00", 0.80000000012, 0]
  - ["11", 0.6, 0]
"""

BAD_SPEC = """kind: amplitudes
profile: [2, 2]
amplitudes:
  - ["00", 0.5, 0.0]
"""


DATA = Path(__file__).resolve().parent / "data"


def _amplitudes_spec(path, amps, dims):
    """Write an amplitudes state-spec document of ``amps`` on ``dims`` to ``path``."""
    lines = ["kind: amplitudes", f"profile: {list(dims)}", "amplitudes:"]
    lines += [
        f'  - ["{"".join(map(str, index))}", {float(a.real)!r}, {float(a.imag)!r}]'
        for index, a in zip(np.ndindex(*dims), amps)
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStateCommand:
    def test_builtin_family(self, capsys):
        code, out, _ = run_cli("state", "--family", "ou", "--cut", "1", capsys=capsys)
        assert code == 0
        assert "3x3x3" in out
        assert "0.333333333333" in out

    def test_w_spec_schmidt(self, tmp_path, capsys):
        spec = tmp_path / "w3.yaml"
        spec.write_text(W3_SPEC)
        code, out, _ = run_cli("state", "--spec", str(spec), "--cut", "1", capsys=capsys)
        assert code == 0
        assert "0.666666666667" in out
        assert "0.333333333333" in out

    def test_schmidt_coefficients_of_a_near_unit_state_sum_to_one(self, tmp_path, capsys):
        spec = tmp_path / "near.yaml"
        spec.write_text(NEAR_UNIT_SPEC)
        for cut in ("1", "2"):
            code, out, _ = run_cli("state", "--spec", str(spec), "--cut", cut, "--format", "json",
                                   capsys=capsys)
            rows = {row["property"]: row["value"] for row in json.loads(out)}
            coeffs = [float(c) for c in rows["schmidt_coefficients"].split()]
            assert code == 0 and rows["schmidt_rank"] == "2"
            assert abs(sum(coeffs) - 1.0) <= 1e-12

    def test_pcs_state_rows_form_no_density_matrix(self, tmp_path, capsys):
        # Trace and purity come from the factor's spectrum; the 4096 x 4096
        # density matrix would take 268 MB.
        spec = tmp_path / "pcs64.yaml"
        row = "  - [" + ", ".join(["0.2357022603955158"] * 3) + "]\n"
        spec.write_text("kind: pcs\ncoefficients:\n" + row * 6 + "p: 0.5\nlambda: 0.25\n")
        tracemalloc.start()
        try:
            code, out, _ = run_cli("state", "--spec", str(spec), capsys=capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = dict(line.split() for line in out.strip().split("\n")[1:])
        assert rows["profile"] == "4x4x4x4x4x4"
        assert (rows["trace"], rows["rank"]) == ("1", "2")
        assert peak <= 32 * 2**20

    def test_pcs_trace_out_forms_no_density_matrix(self, tmp_path, capsys):
        # The pair marginal is traced from the density's two roots; the
        # 4096 x 4096 matrix of the six-party density alone would take 268 MB.
        spec = tmp_path / "pcs64.yaml"
        row = "  - [" + ", ".join(["0.2357022603955158"] * 3) + "]\n"
        spec.write_text("kind: pcs\ncoefficients:\n" + row * 6 + "p: 0.6\nlambda: 0.3\n")
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                "state", "--spec", str(spec), "--trace-out", "3,4,5,6", capsys=capsys
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = dict(line.split() for line in out.strip().split("\n")[1:])
        assert rows["profile"] == "4x4"
        assert (rows["trace"], rows["rank"]) == ("1", "2")
        assert peak <= 64 * 2**20

    def test_mixed_state_cut_reads_its_negativity(self, capsys):
        code, out, _ = run_cli(
            "state", "--family", "ou", "--trace-out", "3", "--cut", "1", capsys=capsys
        )
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.strip().split("\n")[1:])
        assert rows["kind"].strip() == "mixed"
        assert rows["cut"].strip() == "1|2"
        assert rows["negativity"].strip() == "0.666666666667"

    def test_json_ends_with_a_newline(self, capsys):
        code, out, _ = run_cli(
            "state", "--family", "ou", "--trace-out", "3", "--cut", "1", "--format", "json",
            capsys=capsys,
        )
        assert code == 0
        assert out.endswith("]\n")
        rows = {row["property"]: row["value"] for row in json.loads(out)}
        assert rows["negativity"] == "0.666666666667"

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text(BAD_SPEC)
        code, _, err = run_cli("state", "--spec", str(spec), capsys=capsys)
        assert code == 2
        assert "amplitudes" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli("state", "--spec", "/does/not/exist.yaml", capsys=capsys)
        assert code == 2

    def test_comma_list_reads_multi_digit_parties(self, capsys):
        # Without commas "110" would read as parties 1, 1 and 0.
        code, out, _ = run_cli(
            "state", "--family", "ghz", "--n", "11", "--cut", "1,10", capsys=capsys
        )
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.strip().split("\n")[1:])
        assert rows["schmidt_rank"].strip() == "2"

    def test_cut_label_separates_parties_above_nine(self, capsys):
        # "110|2345678911" would not say which parties are on which side.
        for n, cut, label in ((11, "1,10", "1,10|2,3,4,5,6,7,8,9,11"), (9, "1,9", "19|2345678")):
            code, out, _ = run_cli(
                "state", "--family", "ghz", "--n", str(n), "--cut", cut, capsys=capsys
            )
            assert code == 0
            rows = dict(line.split(None, 1) for line in out.strip().split("\n")[1:])
            assert rows["cut"].strip() == label


    def test_trace_out_rejects_parties_outside_the_state(self, capsys):
        # "10" reads digit by digit, so party 0 is named on eleven parties too.
        for n, dropped in (("3", "4"), ("3", "0"), ("11", "10"), ("3", "123")):
            code, out, err = run_cli(
                "state", "--family", "ghz", "--n", n, "--trace-out", dropped, capsys=capsys
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
        code, out, _ = run_cli(
            "state", "--family", "ghz", "--n", "11", "--trace-out", "1,10", capsys=capsys
        )
        assert code == 0
        assert "2x2x2x2x2x2x2x2x2\n" in out


class TestMeasureCommand:
    def test_pure_negativity(self, capsys):
        code, out, _ = run_cli(
            "measure", "--family", "ou", "--measure", "negativity", "--cut", "1",
            capsys=capsys,
        )
        assert code == 0
        assert out.split("\n")[1].split()[2] == "2"

    def test_roof_on_marginal(self, capsys):
        code, out, _ = run_cli(
            "measure", "--family", "ou", "--trace-out", "3", "--measure", "cren",
            capsys=capsys,
        )
        assert code == 0
        value = float(out.split("\n")[1].split()[2])
        assert abs(value - 1.0) <= 1e-6

    def test_bell_concurrence(self, capsys):
        code, out, _ = run_cli(
            "measure", "--family", "max_entangled", "--d", "2",
            "--measure", "concurrence", capsys=capsys,
        )
        assert code == 0
        assert out.split("\n")[1].split()[2] == "1"

    def test_qubit_pair_roof_is_closed_form(self, capsys):
        code, out, _ = run_cli(
            "measure", "--family", "w", "--n", "3", "--trace-out", "3",
            "--measure", "cren", capsys=capsys,
        )
        assert code == 0
        assert "0.666666666667  closed_form  exact" in out

    def test_qutrit_pair_cren_is_spectral_exact(self, capsys, monkeypatch):
        # The Ou pair's spectral decomposition meets the minor table's
        # floor, so its bracket closes before any search.
        from crenaudit import monogamy

        problems = []

        def counted(batch, _original=monogamy.optimize_many, **kwargs):
            problems.extend(batch)
            return _original(batch, **kwargs)

        monkeypatch.setattr(monogamy, "optimize_many", counted)
        code, out, _ = run_cli(
            "measure", "--family", "ou", "--trace-out", "3", "--measure", "cren",
            capsys=capsys,
        )
        assert code == 0
        assert problems == []
        _, _, value, method, kind = out.split("\n")[1].split()
        assert (method, kind) == ("spectral", "exact")
        assert abs(float(value) - 1.0) <= 1e-6

    def test_flat_qutrit_pair_concurrence_is_exact_from_the_minor_table(self, capsys):
        # Every unit vector of the Ou pair's range has concurrence 1, so the
        # minor table's floor and ceiling meet and no search runs.
        code, out, _ = run_cli(
            "measure", "--family", "ou", "--trace-out", "3", "--measure", "concurrence,coa",
            capsys=capsys,
        )
        assert code == 0
        for line in out.split("\n")[1:3]:
            assert line.split()[2:] == ["1", "minor_table", "exact"]

    def test_pure_coa_is_closed_form(self, capsys):
        code, out, _ = run_cli("measure", "--family", "ou", "--measure", "coa", capsys=capsys)
        assert code == 0
        assert out.split("\n")[1].split()[2:] == ["1.15470053838", "closed_form", "exact"]

    def test_opt_flags_set_the_optimizer_config(self, tmp_path, capsys):
        # The (3,3) marginal of a random (3,3,2) state: its roof search does
        # not stop at once, so the starts and the step cap change the value.
        rng = np.random.default_rng(2)
        amps = rng.standard_normal(18) + 1j * rng.standard_normal(18)
        amps /= np.linalg.norm(amps)
        spec = _amplitudes_spec(tmp_path / "state.yaml", amps, (3, 3, 2))
        code, out, _ = run_cli(
            "measure", "--spec", spec, "--trace-out", "3", "--measure", "cren",
            "--seed", "4", "--opt-starts", "2", "--opt-sweeps", "5", capsys=capsys,
        )
        assert code == 0
        rho = partial_trace(load_state_spec(spec), (1, 2))
        want = pair_term(rho, 1, "cren", OptConfig(starts=2, max_sweeps=5, seed=4))
        assert want.value != pair_term(rho, 1, "cren", OptConfig(seed=4)).value
        assert out.split("\n")[1].split()[2:] == [fmt(want.value), "optimizer", "upper"]

    def test_measure_list_matches_one_measure_runs(self, tmp_path, capsys, monkeypatch):
        # One call resolves the list: cren and concurrence share the (3, 3)
        # marginal's minimum, crenoa and coa its maximum.
        from crenaudit import DimensionProfile, monogamy, random_pure_state

        problems = []

        def counted(batch, _original=monogamy.optimize_many, **kwargs):
            problems.extend(batch)
            return _original(batch, **kwargs)

        monkeypatch.setattr(monogamy, "optimize_many", counted)
        psi = random_pure_state(DimensionProfile((3, 3, 3)), np.random.default_rng(11))
        spec = _amplitudes_spec(tmp_path / "haar.yaml", psi.amplitudes, (3, 3, 3))
        # CSV, as a table's column widths depend on every row.
        argv = ["measure", "--spec", spec, "--trace-out", "3", "--format", "csv", "--measure"]
        measures = ["concurrence", "negativity", "cren", "crenoa", "coa"]
        code, out, _ = run_cli(*argv, ",".join(measures), capsys=capsys)
        assert code == 0
        assert len(problems) == 2
        header, *rows = out.splitlines()
        for measure, row in zip(measures, rows, strict=True):
            code, alone, _ = run_cli(*argv, measure, capsys=capsys)
            assert code == 0
            assert alone.splitlines() == [header, row]

    def test_unknown_measure_exits_2(self, capsys):
        code, _, err = run_cli(
            "measure", "--family", "ou", "--measure", "sorcery", capsys=capsys
        )
        assert code == 2
        assert "sorcery" in err


class TestAuditCommand:
    def test_counterexample_verdicts(self, capsys):
        code, out, _ = run_cli(
            "audit", "--family", "ou", "--focus", "1", "--format", "csv",
            capsys=capsys,
        )
        assert code == 0
        rows = {line.split(",")[1]: line for line in out.strip().split("\n")[1:]}
        assert "certified_violation" in rows["ckw"]
        assert "holds" in rows["cren"]

    def test_mixed_input_exits_2(self, capsys):
        code, _, err = run_cli(
            "audit", "--family", "ou", "--trace-out", "3", capsys=capsys
        )
        assert code == 2
        assert "pure" in err

    def test_saturated_residuals_print_zero(self, capsys):
        # A residual within TOL_SAT is rounding noise, so its last bits are not printed.
        code, out, _ = run_cli(
            "audit", "--family", "w", "--n", "4", "--measures",
            "cren,ckw,coa,crenoa,negativity", "--format", "json", capsys=capsys,
        )
        assert code == 0
        residuals = {doc["measure"]: (doc["residual"], doc["verdict"]) for doc in json.loads(out)}
        assert residuals == {
            "ckw": (0.0, "saturated"),
            "coa": (0.0, "saturated"),
            "cren": (0.0, "saturated"),
            "crenoa": (0.0, "saturated"),
            "negativity": (0.62132034356, "holds"),
        }
        code, out, _ = run_cli(
            "audit", "--family", "ou", "--measures", "cren", "--format", "csv", capsys=capsys
        )
        assert code == 0
        assert out.split("\n")[1].split(",")[5:7] == ["2", "holds"]

    def test_thirteen_party_w_audit_skips_the_full_density(self, capsys):
        # Pair marginals are traced from the amplitudes; the 2^13 x 2^13
        # density matrix of the state alone would take 1 GB.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                "audit", "--family", "w", "--n", "13", "--measures", "cren", capsys=capsys
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.split("\n")[1].split()[5:7] == ["0", "saturated"]
        assert peak <= 32 * 2**20


class TestSweepCommand:
    def test_large_sweep_forms_no_density_matrix(self, tmp_path):
        # Each W/vacuum density is kept as its 4096 x 2 factor; one 4096 x 4096
        # density matrix alone would take 268 MB.
        out = tmp_path / "sweep.txt"
        tracemalloc.start()
        try:
            code = main(["sweep", "--n", "6", "--d", "4", "--samples", "2", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.read_text().split("\n")[1].split()[-1] == "saturated"
        assert peak <= 64 * 2**20

    def test_lambda_invariance_rows(self, capsys):
        code, out, _ = run_cli(
            "sweep", "--n", "3", "--d", "2", "--p-grid", "0.5",
            "--lambda-grid", "0,1", "--format", "csv", "--samples", "16",
            capsys=capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        a = rows[0].split(",")
        b = rows[1].split(",")
        assert a[2] == b[2]       # global value identical across lambda
        assert a[3:5] == b[3:5]   # pair values identical across lambda

    def test_zero_weight_rows_vanish(self, capsys):
        code, out, _ = run_cli(
            "sweep", "--n", "3", "--d", "2", "--p-grid", "0",
            "--lambda-grid", "0.5", "--format", "csv", "--samples", "16",
            capsys=capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0

    def test_saturated_residuals_print_zero(self, capsys):
        code, out, _ = run_cli("sweep", "--format", "csv", "--samples", "16", capsys=capsys)
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().split("\n")]
        column = header.index("residual")
        assert [row[column] for row in rows] == ["0"] * 9

    def test_flatness_deviation_prints_zero(self, capsys):
        # A flat scan's deviation is rounding noise, printed like a saturated residual.
        code, out, _ = run_cli(
            "sweep", "--n", "3", "--d", "2", "--p-grid", "0.5",
            "--lambda-grid", "0,1", "--format", "csv", capsys=capsys,
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().split("\n")]
        column = header.index("flatness_max_dev")
        assert [row[column] for row in rows] == ["0", "0"]

    def test_pcs_spec_matches_the_symmetric_family(self, tmp_path, capsys):
        spec = tmp_path / "pcs.yaml"
        spec.write_text(PCS_SPEC)
        grids = ("--p-grid", "0.25,0.5,0.75", "--lambda-grid", "0,0.5,1", "--format", "csv")
        code, from_spec, _ = run_cli("sweep", "--spec", str(spec), *grids, capsys=capsys)
        assert code == 0
        code, from_family, _ = run_cli("sweep", "--n", "3", "--d", "2", *grids, capsys=capsys)
        assert code == 0
        assert from_spec == from_family
        assert len(from_spec.strip().split("\n")) == 10

    def test_pcs_spec_without_grids_sweeps_its_own_point(self, tmp_path, capsys):
        spec = tmp_path / "pcs.yaml"
        spec.write_text(PCS_SPEC)
        code, out, _ = run_cli("sweep", "--spec", str(spec), "--format", "csv", capsys=capsys)
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().split("\n")]
        assert [row[:2] for row in rows] == [["0.5", "0.25"]]

    def test_pcs_spec_p_is_checked_as_state_checks_it(self, tmp_path, capsys):
        spec = tmp_path / "pcs.yaml"
        spec.write_text(PCS_SPEC.replace("p: 0.5", "p: 1.5"))
        for command in ("sweep", "state"):
            code, out, err = run_cli(command, "--spec", str(spec), capsys=capsys)
            assert (code, out) == (2, "")
            assert "fields 'p'/'lambda': p must lie in [0, 1], got 1.5" in err

    def test_skewed_table_prints_exact_digits(self, tmp_path, capsys):
        # Focus weight 1e-8: the printed values are the exact roof values.
        spec = tmp_path / "skewed.yaml"
        spec.write_text("kind: w_class\ncoefficients:\n  - [0.0001]\n  - [0.7]\n"
                        "  - [0.71414284285]\n")
        code, out, _ = run_cli("sweep", "--spec", str(spec), "--p-grid", "0.5",
                               "--lambda-grid", "0", "--format", "csv", capsys=capsys)
        assert code == 0
        header, row = [line.split(",") for line in out.strip().split("\n")]
        values = row[header.index("global_cren"):header.index("residual")]
        assert ",".join(values) == "9.99999990003e-05,6.99999993004e-05,7.14142835713e-05"

    def test_exponent_entries_read_as_numbers(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-4 as a string; spec documents read it as 1.2 does.
        skewed = "kind: w_class\ncoefficients:\n  - [{}]\n  - [0.7]\n  - [0.71414284285]\n"
        amplitudes = 'kind: amplitudes\nprofile: [2, 2]\namplitudes:\n  - ["00", {0}, 0]\n' \
                     '  - ["11", {0}, 0]\n'
        cases = [
            ("sweep", skewed.format("0.0001"), skewed.format("1e-4")),
            ("sweep", PCS_SPEC, PCS_SPEC.replace("p: 0.5", "p: 5e-1")),
            ("state", PCS_SPEC, PCS_SPEC.replace("lambda: 0.25", "lambda: 25E-2")),
            ("state", amplitudes.format("0.7071067811865476"),
             amplitudes.format("7071067811865476e-16")),
        ]
        for command, dotted, exponent in cases:
            outs = []
            for text in (dotted, exponent):
                spec = tmp_path / "spec.yaml"
                spec.write_text(text)
                code, out, err = run_cli(command, "--spec", str(spec), "--format", "csv",
                                         capsys=capsys)
                assert (code, err) == (0, "")
                outs.append(out)
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("field, old, new", [
        ("coefficients[1]", "[0.5773502691896258]", "[.nan]"),
        ("coefficients[1]", "[0.5773502691896258]", "[-.inf]"),
        ("coefficients[1]", "[0.5773502691896258]", "[1e400]"),
        ("coefficients[1]", "[0.5773502691896258]", "[1e-4x]"),
        ("p", "p: 0.5", "p: .nan"),
        ("p", "p: 0.5", "p: 1e400"),
        ("lambda", "lambda: 0.25", "lambda: nan"),
        # YAML booleans are not numbers, though True == 1 and False == 0.
        ("coefficients[1]", "[0.5773502691896258]", "[true]"),
        ("p", "p: 0.5", "p: true"),
        ("lambda", "lambda: 0.25", "lambda: false"),
    ])
    def test_non_finite_or_non_numeric_entries_exit_2(self, field, old, new, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(PCS_SPEC.replace(old, new, 1))
        for command in ("sweep", "state"):
            code, out, err = run_cli(command, "--spec", str(spec), capsys=capsys)
            assert (code, out) == (2, "")
            assert f"'{field}'" in err

    @pytest.mark.parametrize("value", [".nan", "-.inf", "1e400", "0.7x"])
    def test_non_finite_or_non_numeric_amplitude_exits_2(self, value, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text('kind: amplitudes\nprofile: [2, 2]\namplitudes:\n'
                        f'  - ["00", {value}, 0]\n  - ["11", 0.7071067811865476, 0]\n')
        code, out, err = run_cli("state", "--spec", str(spec), capsys=capsys)
        assert (code, out) == (2, "")
        assert "field 'amplitudes'" in err

    @pytest.mark.parametrize("text", [W3_SPEC, PCS_SPEC], ids=["w_class", "pcs"])
    def test_declared_profile_must_match_the_table(self, text, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(text + "profile: [2, 2]\n")
        for command in ("sweep", "state"):
            code, out, err = run_cli(command, "--spec", str(spec), capsys=capsys)
            assert (code, out) == (2, "")
            assert ("field 'profile': (2, 2) does not match the coefficient table "
                    "((2, 2, 2))") in err

    def test_spec_of_another_kind_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "ou.yaml"
        spec.write_text("kind: ou\n")
        code, out, err = run_cli("sweep", "--spec", str(spec), capsys=capsys)
        assert (code, out) == (2, "")
        assert "field 'kind': expected w_class or pcs" in err

    def test_partition_saturation(self, capsys):
        code, out, _ = run_cli(
            "sweep", "--n", "3", "--d", "2", "--p-grid", "0.5",
            "--lambda-grid", "0.5", "--partition", "1|23", "--format", "csv",
            "--samples", "16", capsys=capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1]
        assert "saturated" in row


class TestGoldenSweep:
    """The exact stdout of two seeded sweeps, checked in as files, so that a
    change of rendering, of the closed forms or of a flatness verdict shows
    between commits.  The Haar stream itself is pinned in test_convexroof."""

    @pytest.mark.parametrize("argv, golden", [
        (("--n", "3", "--d", "2"), "sweep_n3_d2_samples16.csv"),
        (("--n", "4", "--d", "3", "--partition", "1|23|4"),
         "sweep_n4_d3_partition_1-23-4_samples16.csv"),
    ])
    def test_csv(self, argv, golden, capsys):
        code, out, _ = run_cli("sweep", *argv, "--samples", "16", "--format", "csv",
                               capsys=capsys)
        assert code == 0
        assert out == (DATA / golden).read_text(encoding="utf-8")



class TestGoldenAudits:
    """The exact output of the paper's counterexample audits, of a qutrit GHZ
    audit and of a seeded hunt, checked in as files, so that a change of a
    value, a bound kind or a verdict shows between commits."""

    MEASURES = ("--measures", "cren,ckw,crenoa,coa,negativity", "--format", "csv")

    @pytest.mark.parametrize("argv, golden", [
        (("--family", "ou"), "audit_ou_all_measures.csv"),
        (("--family", "kim_sanders"), "audit_kim_sanders_all_measures.csv"),
        (("--family", "ghz", "--n", "4", "--d", "3"), "audit_ghz_n4_d3_all_measures.csv"),
    ])
    # Each command runs twice in one process: a repeated in-process call
    # prints the same bytes as the first.
    def test_audit_csv(self, argv, golden, capsys):
        expected = (DATA / golden).read_text(encoding="utf-8")
        for _ in range(2):
            code, out, _ = run_cli("audit", *argv, *self.MEASURES, capsys=capsys)
            assert (code, out) == (0, expected)

    def test_hunt_summary(self, capsys):
        expected = (DATA / "hunt_333_trials200.err").read_text(encoding="utf-8")
        for _ in range(2):
            code, _, err = run_cli("hunt", "--profile", "3,3,3", "--trials", "200",
                                   capsys=capsys)
            assert (code, err) == (0, expected)

class TestHuntCommand:
    def test_zero_trials(self, capsys):
        code, out, err = run_cli(
            "hunt", "--profile", "2,2,2", "--trials", "0", capsys=capsys
        )
        assert code == 0
        assert "trials=0 candidates=0 certified=0" in err

    def test_negative_trials_exit_2(self, capsys):
        code, _, err = run_cli(
            "hunt", "--profile", "2,2,2", "--trials", "-1", capsys=capsys
        )
        assert code == 2

    def test_bad_profile_exit_2(self, capsys):
        for profile in ("2,x", "3,,2"):
            code, _, err = run_cli(
                "hunt", "--profile", profile, "--trials", "1", capsys=capsys
            )
            assert code == 2
            assert err.startswith(f"error: --profile '{profile}': ")

    @pytest.mark.parametrize("argv, message", [
        (("--profile", "3"), "audits need at least 3 parties"),
        (("--profile", "3,2,2", "--focus", "7"), "focus party 7 out of range 1..3"),
    ])
    @pytest.mark.parametrize("trials", ["0", "2"])
    def test_unauditable_inputs_exit_2_at_any_trial_count(self, argv, message, trials, capsys):
        code, out, err = run_cli("hunt", *argv, "--trials", trials, capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run_cli(
            "sweep", "--n", "3", "--p-grid", "0.5,oops", capsys=capsys
        )
        assert code == 2

    def test_findings_file_is_csv(self, tmp_path, capsys):
        out = tmp_path / "findings.csv"
        code, _, _ = run_cli(
            "hunt", "--profile", "2,2,2", "--trials", "2",
            "--output", str(out), capsys=capsys,
        )
        assert code == 0
        assert out.read_text().startswith("state_id,measure,focus")

    def test_findings_file_is_json_when_asked(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        code, _, _ = run_cli(
            "hunt", "--profile", "2,2,2", "--trials", "2", "--format", "json",
            "--output", str(out), capsys=capsys,
        )
        assert code == 0
        assert out.read_text() == "[]\n"

    def test_optimizer_overrides_are_rejected(self, capsys):
        # hunt sizes each marginal's search itself, so it takes no --opt-* flag.
        with pytest.raises(SystemExit) as exc:
            main(["hunt", "--profile", "3,2,2", "--trials", "2", "--opt-starts", "7"])
        assert exc.value.code == 2
        assert "--opt-starts" in capsys.readouterr().err

    def test_qubit_regime(self, capsys):
        code, out, err = run_cli(
            "hunt", "--profile", "2,2,2", "--trials", "10", capsys=capsys
        )
        assert code == 0
        assert "candidates=0 certified=0" in err

    def test_qutrit_block_is_clean_and_repeatable(self, capsys):
        # A full block of 64 qutrit trials: those the slices do not screen
        # are stopped once their residuals are proven to hold.
        argv = ("hunt", "--profile", "3,3,3", "--trials", "64", "--seed", "2")
        first = run_cli(*argv, capsys=capsys)
        assert first[0] == 0
        assert first[2] == (
            "hunt: trials=64 candidates=0 certified=0 screened=26 stopped=38 searched=0\n"
        )
        assert run_cli(*argv, capsys=capsys) == first


class TestExitCodes:
    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        from crenaudit import NumericalError
        from crenaudit import monogamy

        def broken(*args, **kwargs):
            raise NumericalError("reconstruction invariant broken")

        monkeypatch.setattr(monogamy, "optimize_many", broken)
        code, _, err = run_cli(
            "measure", "--family", "ou", "--trace-out", "3", "--measure", "cren",
            capsys=capsys,
        )
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_opt_tol_exits_2(self, tol, capsys):
        code, out, err = run_cli(
            "audit", "--family", "ou", "--opt-tol", tol, capsys=capsys
        )
        assert (code, out, err) == (2, "", f"error: tol_rel must be finite, got {tol}\n")

    @pytest.mark.parametrize("argv", [
        ("audit", "--family", "kim_sanders"),
        ("audit", "--family", "w", "--n", "3", "--d", "3"),
        ("measure", "--family", "kim_sanders", "--trace-out", "3", "--measure", "cren"),
        ("audit", "--family", "ou"),
    ])
    def test_negative_seed_exits_2_whether_or_not_a_search_runs(self, argv, capsys):
        # Kim-Sanders and qutrit W terms close without a search, Ou's do not.
        code, out, err = run_cli(*argv, "--seed", "-1", capsys=capsys)
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_opt_size_below_one_exits_2_with_no_search(self, size, capsys):
        # Kim-Sanders terms close without a search, so no rank check reaches the size.
        code, out, err = run_cli("audit", "--family", "kim_sanders", "--opt-size", size, capsys=capsys)
        assert (code, out, err) == (2, "", f"error: size must be >= 1, got {size}\n")

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--n", "0"), "need at least 2 parties, got 0"),
        (("sweep", "--n", "-1"), "need at least 2 parties, got -1"),
        (("sweep", "--n", "3", "--d", "1"), "local dimension must be >= 2, got 1"),
        (("state", "--family", "w", "--d", "1"), "local dimension must be >= 2, got 1"),
        (("audit", "--family", "w", "--n", "0"), "need at least 2 parties, got 0"),
    ])
    def test_bad_w_counts_exit_2_with_one_error_line(self, argv, message, capsys):
        # Any warning, such as numpy's divide by zero, fails the run.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestRepeatedCalls:
    """In-process ``main`` calls share the one parser and nothing else."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from crenaudit import cli; print(cli._parser)"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "None\n")

    def test_options_do_not_carry_over(self, capsys):
        argv = ["audit", "--family", "ou"]
        code, _, _ = run_cli(*argv, "--seed", "5", "--format", "json", capsys=capsys)
        assert code == 0
        proc = subprocess.run(
            [sys.executable, "-m", "crenaudit", *argv], capture_output=True, text=True
        )
        assert run_cli(*argv, capsys=capsys) == (proc.returncode, proc.stdout, proc.stderr)

    def test_parse_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hunt", "--profile", "3,2,2", "--trials", "x"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        code, _, err = run_cli("hunt", "--profile", "3,2,2", "--trials", "2", capsys=capsys)
        assert code == 0
        assert err.startswith("hunt: trials=2 ")

    @pytest.mark.parametrize("argv", [[], ["audit"], ["hunt"]])
    def test_help_matches_a_fresh_parser(self, argv, capsys, monkeypatch):
        def help_text():
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        shared = build_parser()
        text = help_text()
        monkeypatch.setattr(cli, "_parser", None)
        assert help_text() == text
        assert cli._parser is not shared
        assert text.startswith("usage: crenaudit")


class TestReportEmission:
    def test_csv_layout(self, capsys):
        _write_reports([cren_audit(ou_state(), 1, state_id="ou")], "csv", None)
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(AUDIT_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "ou"
        assert fields[6] == "holds"

    def test_csv_sorted_and_12_digits(self, capsys):
        reports = [
            cren_audit(kim_sanders_state(), 1, state_id="b"),
            cren_audit(ou_state(), 1, state_id="a"),
        ]
        _write_reports(reports, "csv", None)
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows[0].startswith("a,") and rows[1].startswith("b,")
        assert "2.22222222222" in rows[1]

    def test_json_structure(self, capsys):
        _write_reports([negativity_audit(ghz_state(3), 1)], "json", None)
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["measure"] == "negativity"
        assert doc[0]["verdict"] == "holds"
        assert len(doc[0]["rhs_terms_sq"]) == 2


class TestPinnedOutput:
    """The exact stdout of one audit, so that a change of rendering shows
    between commits, not only between two runs of one commit.  Every term is
    a closed form or a trace norm, stable to 12 digits across platforms."""

    ARGV = ("audit", "--family", "w", "--n", "4", "--measures", "cren,ckw,negativity")

    def test_csv(self, capsys):
        code, out, _ = run_cli(*self.ARGV, "--format", "csv", capsys=capsys)
        assert code == 0
        assert out == (
            "state_id,measure,focus,lhs_sq,rhs_sq_sum,residual,verdict,bound_kinds\n"
            "w,ckw,1,0.75,0.75,0,saturated,exact;exact;exact\n"
            "w,cren,1,0.75,0.75,0,saturated,exact;exact;exact\n"
            "w,negativity,1,0.75,0.12867965644,0.62132034356,holds,exact;exact;exact\n"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(*self.ARGV, "--format", "json", capsys=capsys)
        assert code == 0
        common = {"bound_kinds": ["exact"] * 3, "focus": 1, "lhs_sq": 0.75,
                  "partners": [2, 3, 4], "state_id": "w"}
        saturated = {"residual": 0.0, "rhs_sq_sum": 0.75, "rhs_terms_sq": [0.25] * 3,
                     "verdict": "saturated"}
        docs = [
            {**common, **saturated, "measure": "ckw"},
            {**common, **saturated, "measure": "cren"},
            {**common, "measure": "negativity", "residual": 0.62132034356,
             "rhs_sq_sum": 0.12867965644, "rhs_terms_sq": [0.0428932188135] * 3,
             "verdict": "holds"},
        ]
        assert out == json.dumps(docs, indent=2, sort_keys=True) + "\n"


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = [
            "audit", "--family", "kim_sanders", "--format", "csv", "--seed", "0",
        ]
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crenaudit.cli", "state", "--family", "ou"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "3x3x3" in proc.stdout

    def test_package_runs_as_a_module(self, capsys):
        argv = ["state", "--family", "ou", "--cut", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "crenaudit", *argv], capture_output=True, text=True
        )
        code, out, _ = run_cli(*argv, capsys=capsys)
        assert (proc.returncode, proc.stdout) == (code, out)
