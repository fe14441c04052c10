"""Every LAPACK call of ``pinopt`` goes through the seam in ``spectra``.

``spectra.eigvals``, ``bottom_eigvecs`` and ``solve`` make the package's
eigensolves and dense solves; ``spectra.eig_sym`` and ``lambda1`` are the
checked path for matrices from outside the package. No other module
reads a LAPACK routine of ``numpy.linalg`` (``norm`` is not one), and no
module but ``__init__``, which re-exports it, imports ``eig_sym``. A
solve added beside the seam fails here in well under a second.
"""

import ast
from pathlib import Path

import pinopt

ROOT = Path(pinopt.__file__).parent
# every module of the package, by its path below the package, parsed
TREES = {path.relative_to(ROOT).with_suffix("").as_posix(): ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(ROOT.rglob("*.py"))}
# the names of numpy.linalg that call no LAPACK routine
NOT_LAPACK = {"norm"}


def _linalg_names(tree: ast.AST) -> set[str]:
    """The names a module reads from numpy.linalg: the attribute taken from
    each expression ending in `.linalg`, each name imported from it, and
    "linalg" for the module itself held or imported whole."""
    names = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "linalg":
            names.add(node.attr)
            read.add(id(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" and id(node) not in read:
            names.add("linalg")
        elif isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names):
            names.add("linalg")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.endswith(".linalg"):
                names.update(alias.name for alias in node.names)
            elif any(alias.name == "linalg" for alias in node.names):
                names.add("linalg")
    return names


def test_only_spectra_calls_lapack():
    assert len(TREES) > 5
    lapack = {name: _linalg_names(tree) - NOT_LAPACK for name, tree in TREES.items()}
    assert {name: names for name, names in lapack.items() if names} == {
        "spectra": {"eigvalsh", "eigh", "solve"}}


def test_only_the_package_root_imports_the_checked_path():
    importers = {name for name, tree in TREES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and any(a.name == "eig_sym" for a in node.names)}
    assert importers == {"__init__"}


def test_the_guard_sees_every_way_of_reaching_linalg():
    cases = {
        "np.linalg.eigvalsh(m)": {"eigvalsh"},
        "numpy.linalg.solve(a, b)": {"solve"},
        "la = np.linalg": {"linalg"},
        "import numpy.linalg": {"linalg"},
        "import numpy.linalg as la": {"linalg"},
        "from numpy import linalg": {"linalg"},
        "from numpy.linalg import eigh, norm": {"eigh", "norm"},
        "np.linalg.norm(x, axis=1)": {"norm"},
    }
    for source, names in cases.items():
        assert _linalg_names(ast.parse(source)) == names, source
