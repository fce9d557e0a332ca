"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

from sdncg import analysis

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


def accumulators(tree):
    """``(name, line)`` of every ``name = name or ...`` assignment: it keeps
    the first value it meets and still computes every later one. The way to
    keep a first counterexample is to stop at it (``analysis._first``)."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.BoolOp)
            and isinstance(node.value.op, ast.Or)
            and isinstance(node.value.values[0], ast.Name)
            and node.value.values[0].id == node.targets[0].id
        ):
            found.append((node.targets[0].id, node.lineno))
    return found


def test_no_first_value_accumulator():
    hits = {
        path.name: accumulators(ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in hits.items() if found} == {}


def test_detects_accumulators():
    code = """
def suite(hosts):
    bad = ""
    weak = None
    for h in hosts:
        if h.bad:
            bad = bad or f"n={h.n}"
        for x in h.xs:
            weak = weak or (
                f"x={x}"
            )
    ok = bad or weak
    bad = weak or bad
    weak = weak and bad
    return bad
"""
    assert accumulators(ast.parse(code)) == [("bad", 7), ("weak", 9)]


def unreferenced_privates(sources):
    """``(file, name)`` of every module-level private function or class that
    no code in ``sources`` (file name to source text) reads outside its own
    definition; an import alone is not a read."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    reads = {}  # name -> ids of the Name and Attribute nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(id(node))
    found = []
    for file, tree in trees.items():
        for d in tree.body:
            if (
                isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and d.name.startswith("_")
                and not d.name.startswith("__")
            ):
                inside = {id(node) for node in ast.walk(d)}
                if all(r in inside for r in reads.get(d.name, ())):
                    found.append((file, d.name))
    return found


def test_every_private_helper_is_used():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_detects_unreferenced_privates():
    sources = {
        "a.py": """
def _used():
    return 1

def _self_only():
    return _self_only

class _Imported:
    pass

def public():
    return _used()
""",
        "b.py": """
from .a import _Imported

def _via_module():
    pass

def reader(mod):
    return mod._via_module
""",
    }
    assert unreferenced_privates(sources) == [("a.py", "_self_only"), ("a.py", "_Imported")]


def unread_imports(sources):
    """``(file, name)`` of every name that a module-level import binds in a
    file of ``sources`` and that no code in that file reads. ``__future__``
    imports are compiler directives and ``__init__.py`` imports are the
    package's exports, so neither counts."""
    found = []
    for file, text in sources.items():
        if file == "__init__.py":
            continue
        tree = ast.parse(text, file)
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for d in tree.body:
            if isinstance(d, ast.Import) or (isinstance(d, ast.ImportFrom) and d.module != "__future__"):
                for alias in d.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in reads:
                        found.append((file, name))
    return found


def test_every_import_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_imports(sources) == []


def test_detects_unread_imports():
    sources = {
        "a.py": """
from __future__ import annotations

import os
import os.path
import json as js
from typing import Iterable, Optional
from .b import helper as _helper

def f(xs: Iterable) -> None:
    return _helper(os.sep, xs)

def g():
    import struct
    return struct
""",
        "__init__.py": "from .a import f\n",
    }
    assert unread_imports(sources) == [("a.py", "js"), ("a.py", "Optional")]


def test_one_module_knows_the_lane_bytes():
    # graphs._lane_kit is the one pack and unpack of packed lanes: no other
    # module imports struct, and none reads the native byte order
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names if name in ("struct", "byteorder")]
    assert found == [("graphs.py", "struct")]


def name_uses(sources, names):
    """Sorted ``(file, name)`` of every use of one of ``names`` in ``sources``
    (file name to source text): as a plain name, as an attribute, or as an
    imported name. A mention in a string or a comment is no use."""
    found = set()
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text, file)):
            if isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                used = [a.name for a in node.names]
            else:
                continue
            found.update((file, name) for name in used if name in names)
    return sorted(found)


def _package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_graphs_reads_the_size_cap():
    # graphs._check_cap is the one comparison against the cap: constructions
    # and graphio refuse through it
    uses = name_uses(_package_sources(), {"MAX_NODES", "MAX_EDGES"})
    assert {file for file, _ in uses} == {"graphs.py"}


def test_only_game_calls_the_unit_removal_lemma():
    # game._removal_rises is the one removal scan and game._non_unit_removals
    # its form over a state set: analysis reads those and never the lemma
    # behind them, per state or in lanes
    uses = name_uses(_package_sources(), {"_unit_removals", "_non_unit_lanes"})
    assert {file for file, _ in uses} == {"game.py"}


def test_detects_name_uses():
    sources = {
        "graphs.py": "MAX_NODES = 1\n",
        "a.py": """
from .graphs import MAX_EDGES as cap
from . import graphs

def f(n):
    return n > graphs.MAX_NODES or cap
""",
        "b.py": '''
"""MAX_NODES is the cap."""
# MAX_EDGES too
LIMIT = "MAX_NODES"
''',
        "c.py": "from .game import _unit_removals\n",
        "d.py": "def g(game, st):\n    return game._unit_removals(st)\n",
    }
    assert name_uses(sources, {"MAX_NODES", "MAX_EDGES"}) == [
        ("a.py", "MAX_EDGES"),
        ("a.py", "MAX_NODES"),
        ("graphs.py", "MAX_NODES"),
    ]
    assert name_uses(sources, {"_unit_removals"}) == [("c.py", "_unit_removals"), ("d.py", "_unit_removals")]


def format_readers(tree):
    """Names of the module-level functions of ``tree`` that read
    ``args.format``, inside a nested function too."""
    found = []
    for fn in tree.body:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(node, ast.Attribute)
            and node.attr == "format"
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            for node in ast.walk(fn)
        ):
            found.append(fn.name)
    return found


def test_one_emitter_decides_the_format():
    # cli._emit writes each subcommand's JSON line or its text; gen alone
    # reads --format itself, as its graph formats belong to graphio
    assert format_readers(ast.parse((SRC / "cli.py").read_text())) == ["_emit", "_cmd_gen"]


def test_detects_format_readers():
    code = """
def _cmd_a(args):
    if args.format == "json":
        return 1

def _cmd_b(args):
    def inner():
        return args.format
    return inner

def _cmd_c(args, opts):
    return opts.format, args.output, "{}".format(args)
"""
    assert format_readers(ast.parse(code)) == ["_cmd_a", "_cmd_b"]


def pass_writers(tree):
    """Sorted names of the functions of ``tree`` that write a ``"pass"`` key,
    in a dict display or by item assignment. A write in a nested function
    names that function; one outside every function names ``<module>``."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions come first, so inner ones win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            continue
        if any(isinstance(k, ast.Constant) and k.value == "pass" for k in keys):
            found.add(owner.get(id(node), "<module>"))
    return sorted(found)


def test_one_builder_of_claims():
    # every campaign suite yields (claim id, pass, detail) per claim, and
    # analysis.theorem_campaign alone turns them into the report's dicts
    suites = [fn for name, fn in vars(analysis).items() if name.startswith("_suite_")]
    assert len(suites) == len(analysis.list_suites())
    assert [fn.__name__ for fn in suites if not inspect.isgeneratorfunction(fn)] == []
    hits = {name: pass_writers(ast.parse(text, name)) for name, text in _package_sources().items()}
    assert {name: found for name, found in hits.items() if found} == {
        "analysis.py": ["theorem_campaign"]
    }


def test_detects_pass_writers():
    code = """
def _claim(cid: str, ok: bool, detail: str = "") -> dict:
    return {"id": cid, "pass": bool(ok), "detail": detail}

def suite(claims):
    def fail(claim):
        claim["pass"] = False
    return [fail(c) for c in claims]

def reader(claim):
    return claim["pass"], {"passed": claim.get("pass")}

DEFAULT = {"pass": True}
"""
    assert pass_writers(ast.parse(code)) == ["<module>", "_claim", "fail"]
