"""Every public module-level function and class of ``nilcomm`` has a caller:
a reference somewhere in ``src/nilcomm`` outside its own definition, or in the
benchmark scripts ``perfbench/*.py``.  A name that only the tests call belongs
in the tests.  The few such names that stay in the library are listed in
``ALLOWED``, and a reference made inside one of their definitions counts as a
test's reference too.

A reference is ``module.name`` (``closure.leq``, ``nc.closure.leq``), also
through a name the module was assigned to (``o.jordan_type`` after
``o, inv = nc.oracle, nc.invariants``), a name imported from a ``nilcomm``
module and then read, or a name read inside its own module.  Attributes of other objects (``edge.is_reduction``) and names
that are only stored (a field) do not count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nilcomm").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = {path.stem for path in SRC}

ALLOWED = {
    # the paper's definition of a reduction, which acceptance criterion 6 checks
    ("closure", "is_reduction"),
    # the paper's non-reducible motif (criterion 6); the computed frontier will
    # report it for each unresolved candidate
    ("closure", "matches_irreducible_motif"),
    # the boolean form of ``validate``, the library's validity predicate
    ("diagrams", "is_valid"),
    # the error that ``is_reduction`` raises for diagrams not strictly comparable
    ("errors", "NotComparable"),
}


def _uses(tree, own):
    """Yield ((module, name), node) for each reference the tree makes; own is
    the tree's nilcomm module, or None outside the package."""
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("nilcomm.")):
            module = (node.module or "").removeprefix("nilcomm.")
            for alias in node.names:
                imported[alias.asname or alias.name] = (module, alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple) else
                         zip(target.elts, getattr(node.value, "elts", ())))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and getattr(value, "attr", None) in MODULES:
                        aliases[name.id] = value.attr
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                yield imported[node.id], node
            elif own is not None:
                yield (own, node.id), node
        elif isinstance(node, ast.Attribute):
            base = node.value
            base = aliases.get(base.id, base.id) if isinstance(base, ast.Name) else getattr(
                base, "attr", None)
            if base in MODULES:
                yield (base, node.attr), node


def _unreferenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC + BENCH}
    allowed = {id(node) for path in SRC for definition in trees[path].body
               if (path.stem, getattr(definition, "name", None)) in ALLOWED
               for node in ast.walk(definition)}
    uses = {}
    for path, tree in trees.items():
        for key, node in _uses(tree, path.stem if path in SRC else None):
            if id(node) not in allowed:
                uses.setdefault(key, []).append(node)
    out = set()
    for path in SRC:
        for definition in trees[path].body:
            if (isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    and not definition.name.startswith("_")):
                inside = {id(node) for node in ast.walk(definition)}
                key = (path.stem, definition.name)
                if all(id(node) in inside for node in uses.get(key, ())):
                    out.add(key)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    unreferenced = _unreferenced()
    assert unreferenced - ALLOWED == set()
    # an entry whose name gained a caller leaves the list
    assert ALLOWED - unreferenced == set()


def test_importing_every_module_loads_neither_dataclasses_nor_inspect():
    """Start-up stays cheap: an interpreter without site hooks (``python
    -S``) that imports every nilcomm module has loaded neither
    ``dataclasses`` nor the ``inspect`` that it imports."""
    modules = ", ".join(f"nilcomm.{path.stem}" for path in SRC if path.stem != "__init__")
    code = f"import sys, {modules}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
