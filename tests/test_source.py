"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sdncg"


def self_calls(tree):
    """``(name, line)`` of every function that calls itself by name, as a
    plain call or as a method on ``self`` or ``cls``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append((fn.name, node.lineno))
    return found


def test_no_function_calls_itself():
    # walk depth must never depend on input size: Python's recursion limit
    # would turn a large input into a RecursionError
    hits = {
        path.name: self_calls(ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: calls for name, calls in hits.items() if calls} == {}


def test_detects_self_calls():
    code = """
def rec(i):
    return rec(i - 1) if i else 0

def outer():
    def inner(x):
        yield from inner(x)
    return inner

class A:
    def walk(self):
        return self.walk()

def fine(host):
    return host.fine()
"""
    assert [name for name, _ in self_calls(ast.parse(code))] == ["rec", "inner", "walk"]
