"""Every private function, method and class of `mg` is used in `mg`.

A name defined with a leading underscore is not part of the package's
interface, so when nothing in `src/mg` refers to it, it is dead code that a
refactor left behind.  A reference is a name or an attribute that reads it
anywhere in the package, its own definition excepted; dunder methods are
called by the language and are not checked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mg"


def private_names():
    """The private definitions of `src/mg`, {name: [file:line]}, and the
    set of names and attributes read anywhere in it."""
    defined: dict[str, list[str]] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_every_private_definition_is_referenced():
    defined, read = private_names()
    assert defined  # the scan found the package
    unused = {name: where for name, where in defined.items() if name not in read}
    assert unused == {}
