"""Every private function, method, class and attribute of `mg` is used in
`mg`.

A name defined with a leading underscore is not part of the package's
interface, so when nothing in `src/mg` refers to it, it is dead code that a
refactor left behind.  A reference is a name or an attribute that reads it
anywhere in the package, its own definition excepted; dunder methods are
called by the language and are not checked.  Likewise a private attribute
stored on an object (`self._x = ...`, `g._x = ...`) is state that some
code must read back: by an attribute access, or by name in a `getattr`
call.  An attribute only ever stored is left over.  A private class is
used through its methods, so each of its methods that is not a dunder must
be referenced too, even when its name is public.  And a private attribute
or method is loaded only in the module that defines or stores it, so each
kept value has one owner, and another module asks that owner for it."""

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


def private_class_methods():
    """The non-dunder methods of the private classes of `src/mg`,
    {class.method: file:line}."""
    methods: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _private(node.name):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        methods[f"{node.name}.{item.name}"] = f"{path.name}:{item.lineno}"
    return methods


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


def private_loads():
    """{module: the private attributes and methods it loads: by attribute
    access, or by a string constant passed to `getattr`}, and {module: the
    private attributes it stores and the private functions, methods and
    classes it defines}."""
    loads: dict[str, dict[str, int]] = {}
    owns: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        loaded = loads.setdefault(path.name, {})
        owned = owns.setdefault(path.name, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owned.add(node.name)
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                if isinstance(node.ctx, ast.Store):
                    owned.add(node.attr)
                else:
                    loaded.setdefault(node.attr, node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and _private(node.args[1].value)
            ):
                loaded.setdefault(node.args[1].value, node.lineno)
    return loads, owns


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


def test_every_private_class_method_is_referenced():
    methods = private_class_methods()
    assert "_Potential.read" in methods  # the scan found the private classes
    _, read = private_names()
    unused = {m: where for m, where in methods.items() if m.split(".")[1] not in read}
    assert unused == {}


def test_private_attributes_are_loaded_by_their_owner():
    loads, owns = private_loads()
    assert "_factors" in loads["resistance.py"]  # the scan found the loads
    foreign = {
        f"{module}:{line}": name
        for module, loaded in loads.items()
        for name, line in loaded.items()
        if name not in owns[module]
    }
    assert foreign == {}
