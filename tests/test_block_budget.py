"""One memory budget sizes every blocked loop.

The pin-set and Ritz ceilings, the stacked eigensolves of the pruned
search, the betweenness sources and the blowup scan size their blocks
by ``graphs.block_rows``, which reads ``graphs.BLOCK_BYTES`` at each
call. No other module-level name in ``pinopt`` ends in ``_BYTES`` or
``_ENTRIES``, and the pruned walk has no cap of its own (``LAZY_ROWS``):
a per-loop tuning value added beside the budget fails here in well
under a second.
"""

import ast
from pathlib import Path

import pinopt
from pinopt import graphs

ROOT = Path(pinopt.__file__).parent
SOURCES = sorted(ROOT.rglob("*.py"))


def _module_level_names():
    """(module, name) for every name a module assigns at its top level."""
    names = set()
    for path in SOURCES:
        module = path.relative_to(ROOT).with_suffix("").as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names |= {(module, sub.id) for target in targets for sub in ast.walk(target)
                      if isinstance(sub, ast.Name)}
    return names


def test_block_bytes_is_the_only_block_constant():
    assert len(SOURCES) > 5
    sized = {(module, name) for module, name in _module_level_names()
             if name.endswith(("_BYTES", "_ENTRIES")) or name == "LAZY_ROWS"}
    assert sized == {("graphs", "BLOCK_BYTES")}


def test_block_rows_reads_the_budget_at_each_call(monkeypatch):
    assert graphs.block_rows(8) == graphs.BLOCK_BYTES // 8
    assert graphs.block_rows(graphs.BLOCK_BYTES + 1) == 1
    monkeypatch.setattr(graphs, "BLOCK_BYTES", 1 << 40)
    assert graphs.block_rows(8) == 1 << 37
