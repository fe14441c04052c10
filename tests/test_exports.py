"""Every exported name resolves, and so does every function the benchmark traces.

A deleted or renamed function that an ``__all__``, the package's
re-exports or ``perfbench/spans.py``'s ``TRACED`` list still names fails
here in well under a second, not only in the traced benchmark run.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pinopt

ROOT = Path(__file__).resolve().parents[1]


def test_exports_and_traced_functions_resolve():
    for info in pkgutil.iter_modules(pinopt.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI when imported
            continue
        mod = importlib.import_module(f"pinopt.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], (info.name, missing)

    tree = ast.parse(Path(pinopt.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = importlib.import_module(f"pinopt.{node.module}")
            for alias in node.names:
                assert getattr(pinopt, alias.name) is getattr(source, alias.name), alias.name

    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, fn in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), fn, None)), (module, fn)
