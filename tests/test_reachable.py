"""Every module-level name, method and property in ``src/perdom`` is used
by the program.

A name counts as used when ``cli.main`` reaches it, or when it is one of the
functions the benchmark's tracer wraps (``bench/spans.py`` ``LAYERS``), or
when one of those reaches it.  A name reaches every name its definition
mentions, followed through the package's relative imports, so a helper that
only tests call belongs in ``tests/helpers.py``.  A method or property of a
class, other than a dunder, counts as used when some code in the package
reads its name as an attribute.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "perdom"
SPANS = ROOT / "bench" / "spans.py"
EXEMPT = {("__init__", "__version__")}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _count, _key in spans.LAYERS]


def _modules():
    """Per module: its top-level definitions by name, the names it imports
    from sibling modules, and its top-level statements that define nothing."""
    defs, imports, loose = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        defs[mod], imports[mod], loose[mod] = {}, {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    defs[mod][name] = stmt
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                loose[mod].append(stmt)
    return defs, imports, loose


def test_every_module_level_name_is_reached():
    defs, imports, loose = _modules()

    def mentioned(mod, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                key = (mod, n.id)
                # follow imports to the module that defines the name
                while key[1] not in defs[key[0]] and key[1] in imports[key[0]]:
                    key = imports[key[0]][key[1]]
                if key[1] in defs[key[0]]:
                    yield key

    todo = [("cli", "main"), *_layers()]
    todo += [key for mod, stmts in loose.items() for stmt in stmts for key in mentioned(mod, stmt)]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(mentioned(key[0], defs[key[0]][key[1]]))
    unreached = [f"{mod}.{name}" for mod in defs for name in defs[mod]
                 if (mod, name) not in reached | EXEMPT]
    assert unreached == []


def test_every_method_and_property_is_read():
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            defined += [(path.stem, cls.name, f.name) for f in cls.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
    assert [f"{mod}.{cls}.{name}" for mod, cls, name in defined if name not in read] == []
