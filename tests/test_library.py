"""Guards over the whole library source rather than one module."""

import ast
from pathlib import Path

import ttqst

SRC = Path(ttqst.__file__).parent


def _units(tree):
    """``(owner, node)`` for each top-level statement, methods split out of classes.

    ``owner`` names the definition a statement belongs to: ``"name"`` for a
    top-level function or class body, ``"Class.method"`` for a method and
    ``""`` for other module-level code.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
                else:
                    yield node.name, item
            for expr in (*node.decorator_list, *node.bases):
                yield "", expr
        else:
            yield "", node


def _references(owner, node):
    """``(owner, name)`` for each name ``node`` reads, skipping its own locals."""
    local = set()
    if isinstance(node, ast.FunctionDef):
        local = {a.arg for a in ast.walk(node) if isinstance(a, ast.arg)}
        local |= {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
            yield owner, n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield owner, n.attr


def test_every_public_name_has_a_library_use():
    """Each top-level function or class, and each method, in the library,
    private ones included and dunders excluded, is read somewhere in the
    library beyond ``__init__`` and beyond its own body, so a helper that only
    the tests call fails. Local variables, stores and loop targets do not
    count as reads; an attribute read of the same name does, since matching
    is by name.

    The allowlist holds entry points kept for callers outside the library:
    ``hermitian_decompose`` truncates a dense operator or an MPO to Hermitian
    cores, and ``read_log`` reads a measurement log back.  ``coeff_to_mpo``
    is not on it: ``hermitian_decompose`` maps its truncation back through it.
    """
    defined = set()  # "name" or "Class.method"
    reads = set()  # (owner, name)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for owner, node in _units(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(owner)
            if path.name != "__init__.py":
                reads.update(_references(owner, node))
        defined.update(n.name for n in tree.body if isinstance(n, ast.ClassDef))

    def read_elsewhere(qualname):
        name = qualname.split(".")[-1]
        return any(
            got == name and owner != qualname and not owner.startswith(qualname + ".")
            for owner, got in reads
        )

    dunder = {q for q in defined if q.split(".")[-1].startswith("__") and q.endswith("__")}
    names = defined - dunder
    unused = {q.split(".")[-1] for q in names if not read_elsewhere(q)}
    assert unused == {"hermitian_decompose", "read_log"}
