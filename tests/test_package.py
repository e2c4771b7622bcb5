"""The package namespace is the union of the module ``__all__``s, and
every public name has a caller or a row in the README's Paper map."""

import ast
import os
import re
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path

import extensio as ex
from extensio import (
    admissibility,
    boundary,
    cli,
    coupling,
    errors,
    kreinspace,
    linrel,
    models,
    nevanlinna,
    serialize,
    transforms,
)

MODULES = (
    errors,
    linrel,
    kreinspace,
    nevanlinna,
    boundary,
    transforms,
    coupling,
    admissibility,
    models,
    serialize,
)


ROOT = Path(__file__).resolve().parents[1]


def exported(module):
    """The names ``from module import *`` binds."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name in vars(module) if not name.startswith("_")}


def test_import_loads_no_scipy():
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, extensio; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_module_exports_are_disjoint_and_resolve_to_their_module():
    for a, b in combinations(MODULES, 2):
        assert not exported(a) & exported(b), (a.__name__, b.__name__)
    assert len(exported(errors)) == 26
    for module in MODULES:
        for name in exported(module):
            assert getattr(ex, name) is getattr(module, name), name
    public = {
        name
        for name, value in vars(ex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*map(exported, MODULES)) | {"cli_run"}


def _references(path, strings=False):
    """Names a file's code refers to: identifiers, attributes and imported
    names; with ``strings``, also the dotted parts of string constants,
    which is how the bench names the functions it traces."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def _paper_map():
    """{name: cited tests} from the rows of the README's Paper map."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Paper map\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        row = re.match(r"\| `(\w+)` \|", line)
        if row:
            rows[row.group(1)] = re.findall(r"`(test_\w+\.py)::(test_\w+)`", line.rsplit("|", 2)[1])
    return rows


def _uncalled_public_names():
    """Public names that no other module of the package, no CLI command and
    no bench file refers to."""
    src = ROOT / "src" / "extensio"
    refs = {p.stem: _references(p) for p in src.glob("*.py") if p.name != "__init__.py"}
    bench = set().union(*(_references(p, strings=True) for p in (ROOT / "bench").glob("*.py")))
    uncalled = set()
    for module in MODULES + (cli,):
        stem = module.__name__.rpartition(".")[2]
        names = {"cli_run"} if module is cli else exported(module)
        for name in names:
            if name not in bench and not any(name in r for s, r in refs.items() if s != stem):
                uncalled.add(name)
    return uncalled


def test_every_public_name_has_a_caller_or_a_paper_map_row():
    rows = _paper_map()
    public = set().union(*map(exported, MODULES)) | {"cli_run"}
    missing = sorted(_uncalled_public_names() - set(rows))
    assert not missing, f"public names with no caller and no Paper map row: {missing}"
    stale = sorted(set(rows) - public)
    assert not stale, f"Paper map rows for names that are not public: {stale}"
    defined = {}
    for path in (ROOT / "tests").glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined[path.name] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, tests in rows.items():
        assert tests, f"{name}: the row cites no test"
        for file, test in tests:
            assert test in defined.get(file, ()), f"{name}: {file}::{test} does not exist"


SRC = ROOT / "src" / "extensio"


def test_the_real_axis_is_refused_in_one_place():
    """One helper in ``linrel`` applies the rule for spectral points, so
    RealAxis has one raise site."""
    raises = sum(path.read_text(encoding="utf-8").count("raise RealAxis") for path in SRC.glob("*.py"))
    assert raises == 1


def _takes_parity(node):
    """A dimension taken modulo 2, as ``d % 2``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    )


def test_even_dimension_is_checked_in_one_place():
    """One helper, ``kreinspace._halves``, decides that a graph space has
    even dimension; every other function that needs the half dimension
    calls it, so an odd dimension has one test and one error."""
    found = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(_takes_parity(node) for node in ast.walk(func)):
                found.add(f"{path.stem}.{func.name}")
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                assert not any(_takes_parity(node) for node in ast.walk(stmt)), (path.name, stmt.lineno)
    assert found == {"kreinspace._halves"}


def test_a_carried_matrix_is_set_in_one_place():
    """``LinearRelation._matrix`` is declared once, on the class, set only
    by ``linrel._operator``, which builds the graph of that matrix, and
    read only by ``rel_matrix`` and ``rel_product``: no other construction
    can hand a relation a matrix its graph does not hold."""
    sets, reads, declared = set(), set(), []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                declared += [
                    f"{path.stem}.{node.name}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.target) == "_matrix"
                ]
            if not isinstance(node, ast.FunctionDef):
                continue
            name = f"{path.stem}.{node.name}"
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) and inner.attr == "_matrix":
                    (sets if isinstance(inner.ctx, ast.Store) else reads).add(name)
                elif isinstance(inner, ast.Constant) and inner.value == "_matrix":
                    sets.add(name)
    assert declared == ["linrel.LinearRelation"]
    assert sets == {"linrel._operator"}
    assert reads == {"linrel.rel_matrix", "linrel.rel_product"}


def test_each_boundary_relation_takes_a_chosen_route():
    """The Green identity is checked where a relation enters from outside
    (``validate_boundary_relation``), and a construction that is unitary by
    proof enters through ``BoundaryRelation._trusted``, which keeps only
    the maximality count; only ``ordinary_triplet`` (of a boundary relation)
    and the unchecked model reader construct one directly.  A new
    construction has to be added here, to one route, on purpose."""
    checked, trusted, direct = set(), set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = f"{path.stem}.{node.name}"
            for inner in ast.walk(node):
                ref = ast.unparse(inner) if isinstance(inner, (ast.Name, ast.Attribute)) else None
                if ref == "validate_boundary_relation":
                    checked.add(name)
                elif ref in ("BoundaryRelation._trusted", "OrdinaryTriplet._trusted"):
                    trusted.add(name)
                elif isinstance(inner, ast.Call) and ast.unparse(inner.func) in ("BoundaryRelation", "OrdinaryTriplet"):
                    direct.add(name)
    assert checked == {
        "boundary.ordinary_triplet",
        "boundary.reduce_multivalued",
        "cli._check_unitary",
        "cli._couple",
        "cli._weyl_eval",
        "transforms._with_boundary_rows",
        "transforms.compose_boundary",
    }
    assert trusted == {
        "boundary.validate_boundary_relation",
        "boundary.von_neumann_triplet",
        "coupling.canonical_chi",
        "coupling.double_weyl",
        "coupling.induced_chi",
        "transforms._block_transform",
        "transforms.boundary_direct_sum",
    }
    assert direct == {"boundary.ordinary_triplet", "serialize.json_to_triplet"}


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module imports is read somewhere in it; the package
    ``__init__`` re-exports with ``*`` and is left out."""
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - read, f"{path.name} imports {sorted(imported - read)} and never uses them"


def _rank_rule_uses(tree):
    """Calls of ``np.linalg.svd`` or ``_rank`` and reads of ``tol.rank``
    in a module's syntax tree, by line."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "_rank":
                uses.append((node.lineno, "_rank"))
            elif isinstance(func, ast.Attribute) and ast.unparse(func) in ("np.linalg.svd", "numpy.linalg.svd"):
                uses.append((node.lineno, "np.linalg.svd"))
        elif isinstance(node, ast.Attribute) and node.attr == "rank" and ast.unparse(node.value) == "tol":
            uses.append((node.lineno, "tol.rank"))
    return uses


def _names_lapack_svd(node):
    """A reference to ``np.linalg.svd``, to numpy's gufunc module or to the
    lookup of its SVD gufuncs."""
    if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.linalg.svd", "numpy.linalg.svd"):
        return True
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_umath_linalg" for alias in node.names)
    return isinstance(node, ast.Name) and node.id in ("_umath_linalg", "_SVD_GUFUNCS")


def _names_lapack_qr(node):
    """A reference to one of the QR gufuncs of numpy's gufunc module or to
    their lookup."""
    if isinstance(node, ast.Attribute) and node.attr.startswith("qr") and ast.unparse(node.value) == "_umath_linalg":
        return True
    return isinstance(node, ast.Name) and node.id == "_QR_GUFUNCS"


def _names_numpy_qr(node):
    return isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.linalg.qr", "numpy.linalg.qr")


def test_rank_is_decided_in_linrel_only():
    """Every SVD and every rank cutoff is taken in ``linrel``: the other
    modules call its ``_rank_of`` and ``_checked_inverse``, so the rule
    and its hooks live in one module.  Within it, ``_svd`` is the one
    function that reaches LAPACK's SVD: no other function names
    ``np.linalg.svd``, the gufunc module or the SVD gufuncs, and the eight
    SVD sites call ``_svd``.  ``_q_factor`` is the one function that names
    the QR gufuncs, and ``np.linalg.qr`` appears only there (numpy's
    fallback) and in ``_TripletCache.boundary_factor``, which reads R.  At
    module level the gufuncs appear only in one import-time lookup, which
    holds both sets."""
    found = {}
    for path in SRC.glob("*.py"):
        if path.name != "linrel.py":
            uses = _rank_rule_uses(ast.parse(path.read_text(encoding="utf-8")))
            if uses:
                found[path.name] = uses
    assert not found, found
    # the scan sees the rule where it lives
    linrel_uses = {kind for _, kind in _rank_rule_uses(ast.parse((SRC / "linrel.py").read_text(encoding="utf-8")))}
    assert linrel_uses == {"_rank", "np.linalg.svd", "tol.rank"}

    reaching, reaching_qr, numpy_qr, calling = set(), set(), set(), set()
    module_level, module_level_qr = [], []
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                name = f"{path.stem}.{func.name}"
                for names, seen in ((_names_lapack_svd, reaching), (_names_lapack_qr, reaching_qr), (_names_numpy_qr, numpy_qr)):
                    if any(names(node) for node in ast.walk(func)):
                        seen.add(name)
                if any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_svd" for n in ast.walk(func)):
                    calling.add(name)
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                assert not any(_names_numpy_qr(node) for node in ast.walk(stmt)), (path.name, stmt.lineno)
                if any(_names_lapack_svd(node) for node in ast.walk(stmt)):
                    module_level.append((path.name, stmt))
                if any(_names_lapack_qr(node) for node in ast.walk(stmt)):
                    module_level_qr.append((path.name, stmt))
    assert reaching == {"linrel._svd"}
    assert reaching_qr == {"linrel._q_factor"}
    assert numpy_qr == {"linrel._q_factor", "boundary.boundary_factor"}
    sites = ("_rank_of", "_orthonormal_columns", "_nullspace", "containment_gap",
             "_range_and_kernel_image", "_operator_spectrum", "is_simple", "_polar_factor")
    assert calling == {f"linrel.{name}" for name in sites}
    [(name, lookup)] = module_level
    assert module_level_qr == module_level
    assert name == "linrel.py" and isinstance(lookup, ast.Try)
    assigned = {t.id for s in lookup.body if isinstance(s, ast.Assign) for t in s.targets}
    assert assigned == {"_SVD_GUFUNCS", "_QR_GUFUNCS", "_NUMPY_SVD"}


def test_arrays_are_stacked_with_concatenate_only():
    """One stacking idiom: ``np.concatenate`` with an axis, never
    ``np.vstack``, ``np.hstack`` or ``np.block``, whose wrappers cost more
    per call on the library's small blocks."""
    stackers = ("vstack", "hstack", "block")
    found = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in stackers and ast.unparse(node.value) in ("np", "numpy"):
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [(path.name, node.lineno, a.name) for a in node.names if a.name in stackers]
    assert not found, found
