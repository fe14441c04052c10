"""Every result is serialised by the two writers in ``cli``.

``cli._json_line`` prints the JSON line of ``analyze``, ``select`` and
``simulate``, and ``cli._csv`` writes the sweep and simulate CSV files.
No other ``pinopt`` module imports ``json`` or formats a float with
``.10g``, and ``cli`` writes ``.10g`` once. A format rule added beside
the writers fails here in well under a second.
"""

import ast
from pathlib import Path

import pinopt

SOURCES = sorted(Path(pinopt.__file__).parent.rglob("*.py"))


def _json_importers_and_10g_formats():
    """The modules that import json, and per module the count of string
    constants other than docstrings that hold ".10g"."""
    importers, formats = set(), {}
    for path in SOURCES:
        name = path.relative_to(Path(pinopt.__file__).parent).with_suffix("").as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "json" for m in modules):
                importers.add(name)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and ".10g" in node.value and id(node) not in docstrings):
                formats[name] = formats.get(name, 0) + 1
    return importers, formats


def test_only_cli_imports_json_and_formats_10g_once():
    assert len(SOURCES) > 5
    importers, formats = _json_importers_and_10g_formats()
    assert importers == {"cli"}
    assert formats == {"cli": 1}
