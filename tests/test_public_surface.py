"""The public surface holds only what something reads.

Every name in ``torusbif.__all__``, and every public method or property of a
record class or of ``GalerkinBasis``, the one public class that is not a
record, must be read by a module under ``src/torusbif`` other than
``__init__.py`` (the ``selftest`` criteria included), outside its own
definition, or by the README's library quick tour.  Tests do not count.
Every module-level private function and constant (``_name``, dunders
excepted) must be read somewhere under ``src/torusbif``, ``__init__.py``
included, outside its own definition.

The scan is by name, with the standard library's ``ast``: a read is a loaded
``Name`` or attribute of that name.  An attribute of a module that ``import``
brings in from outside the package (``json.load``, ``np.sum``) is not one,
and a read inside a function or class of the same name is the definition's
own.  ``ALLOWED`` names each exception and the ROADMAP item that will read
it.
"""

import ast
import importlib
import re
import types
from functools import cached_property
from pathlib import Path

import torusbif
from torusbif._record import Record
from torusbif.galerkin import GalerkinBasis

SRC = Path(torusbif.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
ALLOWED = {"rotate_coeffs": "ROADMAP item 9, the isotropy check of a traced branch"}
MEMBER_KINDS = (types.FunctionType, property, cached_property, classmethod, staticmethod)


def _reads(tree: ast.AST) -> set[str]:
    """The names a module reads outside the definitions of the same name."""
    outside = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    reads = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            name = None if isinstance(base, ast.Name) and base.id in outside else node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return reads


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text[text.index("## Library quick tour") :], re.S).group(1)


def _read_names() -> set[str]:
    reads = _reads(ast.parse(_tour()))
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            reads |= _reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return reads


def _class_members() -> set[str]:
    for module in ("weights", "euler_ring", "spaces", "bifurcation", "continuation", "selftest"):
        importlib.import_module(f"torusbif.{module}")
    return {
        f"{cls.__name__}.{name}"
        for cls in (*Record.__subclasses__(), GalerkinBasis)
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, MEMBER_KINDS)
    }


def _private_definitions() -> dict[str, str]:
    """Each module-level function and constant of ``src/torusbif`` whose name
    starts with ``_``, dunders excepted, mapped to its module's file name."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found.update((name, path.name) for name in names if name.startswith("_") and not name.endswith("__"))
    return found


def test_every_exported_name_is_read():
    reads = _read_names()
    assert sorted(name for name in torusbif.__all__ if name not in reads) == sorted(ALLOWED)


def test_every_public_record_member_is_read():
    reads = _read_names()
    assert sorted(member for member in _class_members() if member.split(".")[1] not in reads) == []


def test_every_private_helper_is_read():
    # a private helper or constant that nothing in src/ reads is dead code;
    # a read in its own module counts
    reads = set()
    for path in SRC.glob("*.py"):
        reads |= _reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert sorted(f"{module}:{name}" for name, module in _private_definitions().items() if name not in reads) == []


def test_the_scan_sees_reads_and_skips_definitions():
    tree = ast.parse(
        "import json\n"
        "def used(): return unused_inner()\n"
        "def unused_inner(): return unused_inner()\n"
        "class C:\n"
        "    def method(self): return self.method()\n"
        "    def other(self): return self.prop\n"
        "x = json.load(fh) + used()\n"
    )
    assert _reads(tree) & {"used", "unused_inner", "method", "prop", "load", "C"} == {"used", "unused_inner", "prop"}
