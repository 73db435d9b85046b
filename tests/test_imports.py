"""Static checks on the package source: no dead sibling imports or private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crenaudit"


def _parsed_modules(include_init: bool):
    paths = sorted(p for p in PACKAGE.glob("*.py") if include_init or p.name != "__init__.py")
    assert paths
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def test_modules_use_every_sibling_name_they_import():
    # __init__.py re-exports its imports, so only the other modules count.
    unused = []
    for path, tree in _parsed_modules(include_init=False):
        imported = {
            alias.asname or alias.name: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"sibling names imported and never used: {unused}"


def _top_level_owners(include_init: bool):
    """(module.top-level name, node) for every node of the package source."""
    for path, tree in _parsed_modules(include_init):
        for top in tree.body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                yield owner, node


def test_only_pair_term_calls_the_roof_optimizer_and_wootters():
    # monogamy.pair_terms and its bracket rule, _bracket, are the one table
    # that picks how a term is computed; a second caller of either solver
    # would be a second table.
    # convexroof.optimize is optimize_many's one-problem call, not a table,
    # and measures.wootters_concurrence_2q is spin_flip_values' one-item call.
    # Every read of a solver's name counts, called or not, so a helper
    # handed one as a value cannot hide a second caller.
    callers = set()
    for owner, node in _top_level_owners(include_init=False):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in ("optimize", "optimize_many", "spin_flip_values", "wootters_concurrence_2q"):
            callers.add((name, owner))
    assert callers == {
        ("optimize_many", "convexroof.optimize"),
        ("optimize_many", "monogamy.pair_terms"),
        ("spin_flip_values", "measures.wootters_concurrence_2q"),
        ("spin_flip_values", "monogamy._bracket"),
    }


def test_only_the_bracket_rule_reads_the_bounds_in_monogamy():
    # monogamy._bracket is the one rule that reads a row's bounds; a second
    # reader of the minor table, the trace norm or the spin-flip values would
    # be a second bracket rule.  range_floor, the minor table's floor for
    # callers outside the package, is the one other reader.
    readers = {
        (node.id, owner)
        for owner, node in _top_level_owners(include_init=False)
        if owner.startswith("monogamy.") and isinstance(node, ast.Name)
        and node.id in ("range_bracket", "negativity_mixed", "spin_flip_values")
    }
    assert readers == {
        ("range_bracket", "monogamy._bracket"),
        ("negativity_mixed", "monogamy._bracket"),
        ("spin_flip_values", "monogamy._bracket"),
        ("range_bracket", "monogamy.range_floor"),
    }


def test_only_memoized_and_pair_terms_touch_a_state_memo():
    # qlinalg.memoized is the one way to keep a value derived from a state
    # (its local supports, pure values, brackets, marginals); pair_terms
    # alone reads and writes its searches, which a stop rule may leave
    # unfinished.  A second reader would be a second copy of where a
    # state's derived values live.
    owners = {
        owner
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Attribute) and node.attr == "_memo"
    }
    assert owners == {"qlinalg.memoized", "monogamy.pair_terms"}


def test_no_function_takes_local_supports():
    # A density keeps its own local supports (measures.local_supports reads
    # them from its memo), so no function takes them from a caller that
    # holds them.
    taking = sorted(
        f"{owner} line {node.lineno}"
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "supports"
    )
    assert not taking, f"functions with a supports parameter: {taking}"


def test_only_optimize_many_runs_the_roof_searches():
    # Every roof problem is solved through optimize_many's grouping, so no
    # other function may call, or hold, either search or build an evaluator
    # (which would bring back a second root layout).
    users = {
        (node.id, owner)
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Name) and node.id in ("_descent", "_polar_ascent", "_objective")
    }
    assert users == {
        ("_descent", "convexroof.optimize_many"),
        ("_polar_ascent", "convexroof.optimize_many"),
        ("_objective", "convexroof.optimize_many"),
    }


def test_only_hunt_stops_searches_early():
    # A stopped search ends above the minimum it would reach, so only hunt,
    # which reports no verdict a stopped trial can still reach, builds a
    # stop rule; pair_terms hands it on to optimize_many, and every audit,
    # measure and roof runs its searches to the end.  Both take it by
    # keyword only, so a positional argument cannot pass one either.
    passing, taking = set(), set()
    for owner, node in _top_level_owners(include_init=True):
        if isinstance(node, ast.keyword) and node.arg == "stop":
            passing.add(owner)
        elif isinstance(node, ast.arguments):
            if any(a.arg == "stop" for a in node.args + node.posonlyargs):
                taking.add(f"{owner} (positional)")
            if any(a.arg == "stop" for a in node.kwonlyargs):
                taking.add(owner)
    assert passing == {"monogamy.hunt", "monogamy.pair_terms"}
    assert taking == {"convexroof.optimize_many", "monogamy.pair_terms"}


def test_only_pair_terms_and_the_dual_helper_compare_roof_directions():
    # The bracket rule, _bracket, sides each search's bound by direction and
    # picks the spin-flip closed form by it, and _is_dual says which audits
    # are duals; _verdict reads brackets alone.  A further comparison with
    # "min" or "max" would be a second copy of the direction decision.
    comparers = {
        owner
        for owner, node in _top_level_owners(include_init=False)
        if owner.startswith("monogamy.") and isinstance(node, ast.Compare)
        and any(isinstance(e, ast.Constant) and e.value in ("min", "max")
                for e in (node.left, *node.comparators))
    }
    assert comparers == {"monogamy._bracket", "monogamy._is_dual"}


def test_modules_use_every_private_name_they_define():
    # A module-level function, class or constant named _x (not __x__) is
    # private to its module, so a module that never reads it carries dead code.
    unused = []
    for path, tree in _parsed_modules(include_init=True):
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined[name.id] = node.lineno
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}:{line} {name}" for name, line in defined.items()
                   if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                   and name not in used]
    assert not unused, f"private names defined and never used in their module: {unused}"


def test_only_qlinalg_eigendecomposes_hermitian_matrices():
    # DensityOperator owns its spectrum (rank, roots, range basis); a second
    # eigh or eigvalsh elsewhere would be a second rank decision.
    callers = {
        owner.split(".")[0]
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
    }
    assert callers == {"qlinalg"}


def test_only_density_operator_decomposes_in_qlinalg():
    # DensityOperator is the one decomposition, with the one rank rule; a
    # Schmidt spectrum is the eigenvalues of a marginal, not a second SVD.
    callers = {
        (node.attr, owner)
        for owner, node in _top_level_owners(include_init=False)
        if owner.startswith("qlinalg.") and isinstance(node, ast.Attribute)
        and node.attr in ("svd", "eigh", "eigvalsh")
    }
    assert callers == {
        ("eigh", "qlinalg.DensityOperator"),
        ("svd", "qlinalg.DensityOperator"),
        ("eigvalsh", "qlinalg.trace_norm"),
    }


def test_monogamy_decomposes_no_matrix_itself():
    # A marginal's spectrum is DensityOperator's, and pure values are the
    # measures' kernels; a decomposition in monogamy (such as a hunt screen
    # that splits marginals itself) would be a second decomposition path.
    callers = sorted({
        f"{owner} line {node.lineno}: {node.attr}"
        for owner, node in _top_level_owners(include_init=False)
        if owner.startswith("monogamy.") and isinstance(node, ast.Attribute)
        and node.attr in ("svd", "eigh", "eigvalsh", "qr")
    })
    assert not callers, f"decompositions in monogamy: {callers}"


def test_only_partial_transpose_reads_matrix():
    # A density is held as its range factor (its roots); the D x D matrix is
    # read only to transpose a party's indices.  optimize checks that its
    # decomposition rebuilds the density from the isometry and the dropped
    # weight, with no D x D matrix.
    readers = {
        owner
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
        and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"qlinalg.partial_transpose"}


def test_no_module_runs_a_general_eigensolve():
    # Every matrix the package decomposes is Hermitian or a factor; the
    # spin-flip concurrence reads singular values of its roots instead.
    callers = sorted({
        f"{owner} line {node.lineno}"
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Attribute) and node.attr in ("eig", "eigvals")
    })
    assert not callers, f"general eigensolves: {callers}"


def test_no_module_draws_haar_unitaries_one_by_one():
    # A set of Haar samples is one haar_unitaries draw, the same stream as a
    # loop of haar_unitary calls; a loop of them pays one QR call per sample.
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = sorted({
        f"{owner} line {node.lineno}"
        for owner, loop in _top_level_owners(include_init=True)
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "haar_unitary"
    })
    assert not found, f"haar_unitary called in a loop: {found}"


def test_no_module_builds_the_density_of_a_pure_state():
    # partial_trace takes a PureState directly, so the package never needs
    # the D x D matrix (and its positivity eigendecomposition) of one.
    callers = {
        owner
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "to_density"
    }
    assert not callers, f"to_density() called in {sorted(callers)}"


def test_only_measures_takes_singular_values_alone():
    # The pure measures are functions of the Schmidt coefficients, read from
    # one batched svd(..., compute_uv=False); every other SVD in the package
    # needs its singular vectors, so a second values-only call elsewhere
    # would be a second copy of the pure measures.
    callers = {
        owner.split(".")[0]
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "svd"
        and any(kw.arg == "compute_uv" and getattr(kw.value, "value", None) is False
                for kw in node.keywords)
    }
    assert callers == {"measures"}


def test_no_literal_lists_the_measure_names():
    # monogamy.PAIR_MEASURES and AUDIT_MEASURES (dict literals) say what
    # each measure computes; a tuple, list or set of measure names is a
    # second copy of that decision, such as a membership test on them.
    names = {"concurrence", "negativity", "cren", "crenoa", "coa", "ckw"}
    found = [
        f"{owner} line {node.lineno}"
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and sum(isinstance(e, ast.Constant) and e.value in names for e in node.elts) >= 2
    ]
    assert not found, f"literals of measure names: {found}"


def test_only_cli_renders():
    # cli is the one renderer of tables, CSV and JSON; a second module
    # importing a format library would be a second copy of the output code.
    importers = {
        (path.stem, alias.name)
        for path, tree in _parsed_modules(include_init=True)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
        for alias in ([ast.alias(node.module)] if isinstance(node, ast.ImportFrom) else node.names)
        if alias.name in ("csv", "io", "json")
    }
    assert {module for module, _ in importers} <= {"cli"}, f"format imports: {sorted(importers)}"


def test_all_lists_exactly_the_names_init_imports():
    # A stale entry breaks `from crenaudit import *`; a missing one hides a name.
    import crenaudit

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names]
    assert sorted(crenaudit.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    assert all(hasattr(crenaudit, name) for name in crenaudit.__all__)


def test_no_cache_is_keyed_by_object_identity():
    # What the package derives from a state lives in that state's own memo
    # and dies with it; an id() key or a functools cache outlives the object.
    found = []
    for owner, node in _top_level_owners(include_init=True):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id":
            found.append(f"{owner} line {node.lineno}: id()")
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if field and getattr(node, field) in ("cache", "lru_cache"):
            found.append(f"{owner} line {node.lineno}: {getattr(node, field)}")
    assert not found, f"identity-keyed caches: {found}"


def test_only_partial_transpose_and_the_kept_rest_reshape_transpose():
    # Cut matrices and partial traces share one kept | rest reshape; a
    # second np.transpose of party axes would be a second copy of it.
    callers = {
        owner
        for owner, node in _top_level_owners(include_init=True)
        if isinstance(node, ast.Attribute) and node.attr == "transpose"
    }
    assert callers == {"qlinalg.partial_transpose", "qlinalg._kept_rest"}


def test_convexroof_builds_pure_states_only_for_decomposition_states():
    # A decomposition is held as its member rows; normalized PureStates are
    # built only when something reads Decomposition.states.
    callers = {
        owner
        for owner, node in _top_level_owners(include_init=False)
        if owner.startswith("convexroof.") and isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "PureState"
    }
    assert callers == {"convexroof.Decomposition"}
