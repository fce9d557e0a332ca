"""Reading and writing graphs in the two supported formats.

Text format: first line ``"n m"``, then m lines ``"u v"`` with 0-indexed,
whitespace-separated endpoints and u < v. JSON format: an object with fields
``"n"`` and ``"edges"`` (array of two-element arrays). Both round-trip
losslessly; edges are always emitted sorted.
Every failure to read a graph, an unopenable or non-UTF-8 file included, is
a ``GraphParseError``; each parser checks ``graphs._check_cap`` before any
edge tuple is built, in the one wrap around ``HostGraph``. Text is parsed
one newline-ended piece at a time, a file as it is read; JSON is read whole.
"""

from __future__ import annotations

import json
import os

from .errors import GraphParseError, StructureError
from .graphs import HostGraph, _check_cap


def dump_text(graph: HostGraph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> HostGraph:
    """Parse the text format, one line at a time: a header with a negative
    count or above the size cap is refused at line 1, and the first edge
    line past its count there."""
    return _parse_pieces(_pieces(text))


def _parse_pieces(pieces) -> HostGraph:
    """``parse_text`` of the text that ``pieces`` make up."""
    lines = _lines(pieces)
    first = next(lines, "")
    if not first.strip():
        raise GraphParseError("line 1: expected header 'n m'")
    head = first.split(maxsplit=2)  # a third piece is refused, however long
    if len(head) != 2:
        raise GraphParseError(f"line 1: expected header 'n m', got {_quote(first)}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError(f"line 1: non-integer header {_quote(first)}") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"line 1: negative count in header {_quote(first)}")
    try:
        _check_cap(n, m)  # before any edge line is split
        edges = []
        lineno = 1
        for lineno, raw in enumerate(lines, 2):
            if not raw.strip():
                continue
            if len(edges) == m:
                raise GraphParseError(f"line {lineno}: header announced {m} edges but found more")
            parts = raw.split(maxsplit=2)
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: expected 'u v', got {_quote(raw)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer endpoints {_quote(raw)}") from None
            if u >= v:
                raise GraphParseError(f"line {lineno}: edges must satisfy u < v, got {_quote(raw)}")
            edges.append((u, v))
        if len(edges) != m:
            raise GraphParseError(
                f"line {lineno}: header announced {m} edges but found {len(edges)}"
            )
        return HostGraph(n, edges)
    except StructureError as exc:
        raise GraphParseError(f"invalid graph: {exc}") from None


# characters of a refused line that its message quotes
_QUOTED = 80


def _quote(line: str) -> str:
    """``repr(line)``, cut to its first ``_QUOTED`` characters when it is
    longer, so the refusal of an overlong line stays short."""
    if len(line) <= _QUOTED:
        return repr(line)
    return f"{line[:_QUOTED]!r}... (cut from {len(line)} characters)"


def _pieces(text: str):
    """``text`` in newline-ended slices, the pieces ``io.StringIO(text)``
    gives, without the copy of four bytes per character it makes first."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(pieces):
    """The lines of the text that ``pieces`` make up, as ``str.splitlines``
    cuts that text. Each piece ends with a newline, the last one may not,
    as ``_pieces`` and a file opened with ``newline="\n"`` give them, so
    no piece splits a ``"\r\n"``."""
    for piece in pieces:
        yield from piece.splitlines()


def dump_json(graph: HostGraph) -> str:
    payload = {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}
    return json.dumps(payload) + "\n"


def parse_json(text: str) -> HostGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise GraphParseError("JSON graph needs fields 'n' and 'edges'")
    n = payload["n"]
    edges = payload["edges"]
    # type() and not isinstance(): JSON true and false load as bools, which are ints
    if type(n) is not int or not isinstance(edges, list):
        raise GraphParseError("'n' must be an integer and 'edges' an array")
    try:
        _check_cap(n, len(edges))  # before any edge tuple is built
        pairs = []
        for i, item in enumerate(edges):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(type(x) is int for x in item)
            ):
                raise GraphParseError(f"edge #{i} must be a two-element integer array")
            pairs.append((item[0], item[1]))
        return HostGraph(n, pairs)
    except StructureError as exc:
        raise GraphParseError(f"invalid graph: {exc}") from None


def load_graph(path: str) -> HostGraph:
    """Load a graph file; JSON when the extension is .json, text otherwise.
    A JSON file is read whole. A text file is parsed as it is read, one
    newline-ended piece at a time, so a refusal at line k reads the file
    little further than line k."""
    is_json = os.path.splitext(path)[1].lower() == ".json"
    try:
        with open(path, "r", encoding="utf-8", newline=None if is_json else "\n") as fh:
            return parse_json(fh.read()) if is_json else _parse_pieces(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from None
