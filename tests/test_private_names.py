"""Every private function, method, class and attribute of `mg` is used in
`mg`.

A name defined with a leading underscore is not part of the package's
interface, so when nothing in `src/mg` refers to it, it is dead code that a
refactor left behind.  A reference is a name or an attribute that reads it
anywhere in the package, its own definition excepted; dunder methods are
called by the language and are not checked.  Likewise a private attribute
stored on an object (`self._x = ...`, `g._x = ...`) is state that some
code must read back: by an attribute access, or by name in a `getattr`
call.  An attribute only ever stored is left over."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mg"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_names():
    """The private definitions of `src/mg`, {name: [file:line]}, and the
    set of names and attributes read anywhere in it."""
    defined: dict[str, list[str]] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def private_attributes():
    """The private attributes stored anywhere in `src/mg`, {name:
    [file:line]}, and the set of attribute names read there: loaded,
    deleted, or named by a string constant passed to `getattr`."""
    stored: dict[str, list[str]] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif _private(node.attr):
                    stored.setdefault(node.attr, []).append(f"{path.name}:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return stored, read


def test_every_private_definition_is_referenced():
    defined, read = private_names()
    assert defined  # the scan found the package
    unused = {name: where for name, where in defined.items() if name not in read}
    assert unused == {}


def test_every_private_attribute_stored_is_read():
    stored, read = private_attributes()
    assert stored  # the scan found the package's state
    unread = {name: where for name, where in stored.items() if name not in read}
    assert unread == {}
