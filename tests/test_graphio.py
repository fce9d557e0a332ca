import io
import subprocess
import sys
from pathlib import Path

import pytest

from sdncg import (
    GraphParseError,
    clique,
    dump_json,
    dump_text,
    load_graph,
    parse_json,
    parse_text,
    path,
)
from sdncg import graphio


def test_text_round_trip():
    for g in (path(5), clique(4)):
        assert parse_text(dump_text(g)) == g


def test_json_round_trip():
    for g in (path(5), clique(4)):
        assert parse_json(dump_json(g)) == g


def test_text_format_shape():
    text = dump_text(path(3))
    assert text == "3 2\n0 1\n1 2\n"


def test_parse_text_tolerates_blank_lines():
    assert parse_text("3 2\n0 1\n\n1 2\n") == path(3)


def test_parse_error_names_line():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_text("3 2\n0 1\n1 x\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_text("3 2\n1 0\n1 2\n")  # u < v required
    with pytest.raises(GraphParseError, match="line 1"):
        parse_text("nope\n")
    with pytest.raises(GraphParseError, match="^line 1: expected header 'n m'$"):
        parse_text("")
    with pytest.raises(GraphParseError, match="^line 1: non-integer header 'three 2'$"):
        parse_text("three 2\n0 1\n1 2\n")
    with pytest.raises(GraphParseError, match="^line 2: expected 'u v', got '0 1 2'$"):
        parse_text("3 2\n0 1 2\n1 2\n")
    with pytest.raises(GraphParseError, match="^line 3: expected 'u v', got '2'$"):
        parse_text("3 2\n0 1\n2\n")


def test_edge_count_mismatch():
    with pytest.raises(GraphParseError, match="announced"):
        parse_text("3 2\n0 1\n")
    with pytest.raises(GraphParseError, match="^line 4: header announced 2 edges but found more$"):
        parse_text("3 2\n0 1\n1 2\n0 2\n")
    # blank lines count as lines, not as edges
    with pytest.raises(GraphParseError, match="^line 5: header announced 2 edges but found more$"):
        parse_text("3 2\n0 1\n\n1 2\n0 2\n")


def test_lines_cut_as_splitlines(tmp_path):
    # one newline-ended piece at a time, the same lines as str.splitlines,
    # whether the pieces are slices of a string, io.StringIO's or a file's
    f = tmp_path / "pieces.txt"
    for text in ("", "\n", "a", "a\n", "a\r\nb", "a\r\rb\n\n", "\x0ca\r\x1c\n\x0c\x85\n\x1c", "a\n\rb\r"):
        f.write_bytes(text.encode())
        with open(f, encoding="utf-8", newline="\n") as fh:
            from_file = list(graphio._lines(fh))
        assert list(graphio._lines(graphio._pieces(text))) == text.splitlines(), repr(text)
        assert list(graphio._lines(io.StringIO(text))) == text.splitlines(), repr(text)
        assert from_file == text.splitlines(), repr(text)


# The head of a child process's script: puts the package on its path and
# defines its own peak RSS in KiB. Not ru_maxrss, which Linux carries from
# the parent across fork and exec: a child of a large test process would
# start at that peak and show no growth.
PEAK_KIB = """
import sys
sys.path.insert(0, sys.argv[1])

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
"""


def test_surplus_edge_lines_refused_in_bounded_memory():
    # 700,000 edge lines under a header of 9 edges, refused at line 11, and
    # under a header with a negative count, refused at line 1: each before
    # the other lines are split, in a child process whose peak RSS grows by
    # less than 25 MB over the 2.8 MB text
    script = PEAK_KIB + """
from sdncg import GraphParseError, parse_text
lines = "0 1\\n" * 700_000
for header in ("10 9", "10 -1", "-1 9"):
    text = header + "\\n" + lines
    before = peak_kib()
    try:
        parse_text(text)
    except GraphParseError as exc:
        print(exc)
    print(peak_kib() - before)
    del text
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(graphio.__file__).parents[1])],
        capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout.splitlines()
    assert out[::2] == [
        "line 11: header announced 9 edges but found more",
        "line 1: negative count in header '10 -1'",
        "line 1: negative count in header '-1 9'",
    ], proc.stderr
    for growth in out[1::2]:
        assert int(growth) < 25 << 10


def test_surplus_edge_lines_in_a_file_refused_in_bounded_memory(tmp_path):
    # a 28 MB file, 7,000,000 edge lines under a header of 9 edges, refused
    # at line 11 while the file is read, in a child process whose peak RSS
    # grows by less than 10 MB
    f = tmp_path / "surplus.txt"
    with open(f, "w") as fh:
        fh.write("10 9\n")
        for _ in range(70):
            fh.write("0 1\n" * 100_000)
    script = PEAK_KIB + """
from sdncg import GraphParseError, load_graph
before = peak_kib()
try:
    load_graph(sys.argv[2])
except GraphParseError as exc:
    print(exc)
print(peak_kib() - before)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(graphio.__file__).parents[1]), str(f)],
        capture_output=True, text=True, timeout=120,
    )
    message, growth = proc.stdout.splitlines()
    assert message == "line 11: header announced 9 edges but found more", proc.stderr
    assert int(growth) < 10 << 10


def test_overlong_line_quoted_cut():
    # a refused line of up to 80 characters is quoted whole, a longer one
    # by its first 80 and its length
    line = "0 1 " + "2" * 76
    with pytest.raises(GraphParseError, match=f"^line 2: expected 'u v', got '{line}'$"):
        parse_text("3 2\n" + line + "\n1 2\n")
    cut = f"line 2: expected 'u v', got '{line}'... (cut from 81 characters)"
    with pytest.raises(GraphParseError) as info:
        parse_text("3 2\n" + line + "2\n1 2\n")
    assert str(info.value) == cut
    with pytest.raises(GraphParseError) as info:
        parse_text("x" * 100 + " 2\n0 1\n")
    assert str(info.value) == f"line 1: non-integer header {'x' * 80!r}... (cut from 102 characters)"


def test_overlong_header_in_a_file_refused_in_bounded_memory(tmp_path):
    # a 6 MB file whose only line is a header of three million pieces,
    # refused at line 1 with a short message, in a child process whose peak
    # RSS grows by less than 23 MB: the line is split into three pieces at
    # most, and quoted by its start
    f = tmp_path / "long.txt"
    f.write_text("10 9" + " 1" * 2_999_998 + "\n")
    script = PEAK_KIB + """
from sdncg import GraphParseError, load_graph
before = peak_kib()
try:
    load_graph(sys.argv[2])
except GraphParseError as exc:
    print(exc)
print(peak_kib() - before)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(graphio.__file__).parents[1]), str(f)],
        capture_output=True, text=True, timeout=120,
    )
    message, growth = proc.stdout.splitlines()
    assert message.startswith("line 1: expected header 'n m', got '10 9 1 1"), proc.stderr
    assert message.endswith("... (cut from 6000000 characters)") and len(message) <= 200
    assert int(growth) < 23 << 10


def test_negative_header_counts_refused_at_line_1():
    for header in ("3 -2", "-3 2", "-1 -1"):
        with pytest.raises(GraphParseError, match=f"^line 1: negative count in header '{header}'$"):
            parse_text(header + "\n0 1\n1 2\n")


def test_invalid_graph_reported():
    with pytest.raises(GraphParseError, match="connected"):
        parse_text("4 2\n0 1\n2 3\n")


def test_json_validation():
    with pytest.raises(GraphParseError):
        parse_json("[1, 2]")
    with pytest.raises(GraphParseError):
        parse_json('{"n": 3}')
    with pytest.raises(GraphParseError, match="edge #1"):
        parse_json('{"n": 3, "edges": [[0, 1], [1]]}')
    with pytest.raises(GraphParseError, match="^invalid JSON: "):
        parse_json("n = 4")
    # three edges pass the edge-count test, and the BFS finds node 3 cut off
    with pytest.raises(GraphParseError, match="^invalid graph: host graph must be connected$"):
        parse_json('{"n": 4, "edges": [[0, 1], [0, 2], [1, 2]]}')


def test_json_refuses_booleans():
    # JSON true and false load as Python bools, and bool is a subclass of int
    with pytest.raises(GraphParseError, match="edge #0"):
        parse_json('{"n": 3, "edges": [[true, 2], [false, true]]}')
    with pytest.raises(GraphParseError, match="edge #1"):
        parse_json('{"n": 3, "edges": [[0, 1], [1, true]]}')
    with pytest.raises(GraphParseError, match="'n' must be an integer"):
        parse_json('{"n": true, "edges": [[0, 1]]}')


def test_load_graph_sniffs_extension(tmp_path):
    g = clique(4)
    t = tmp_path / "g.txt"
    j = tmp_path / "g.json"
    t.write_text(dump_text(g))
    j.write_text(dump_json(g))
    assert load_graph(str(t)) == g
    assert load_graph(str(j)) == g


def test_load_graph_missing_file(tmp_path):
    with pytest.raises(GraphParseError, match="cannot read"):
        load_graph(str(tmp_path / "absent.txt"))

