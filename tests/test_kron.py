"""Edge-list and party-file formats: the numpy readers and writers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblige.errors import MalformedEdgeList, MalformedPartyFile, ObligeError
from oblige.kron import read_edge_list, read_party_file, write_edge_list, write_party_file

U64_MAX = (1 << 64) - 1


# -- the line-loop reader and writers the numpy ones replace, as oracles ---------

def _lines(path):
    """The file's lines: only "\\n" ends one, and a field is split at ASCII whitespace."""
    with open(path, "rb") as fp:
        return fp.read().split(b"\n")


def line_loop_party_file(path):
    keys, edges = [], []
    for line in _lines(path):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == b"v":
            _, key = parts
            keys.append(int(key))
        else:
            assert parts[0] == b"e"
            _, u, v = parts
            edges.append((int(u), int(v)))
    return keys, edges


def line_loop_edge_list(path):
    src, dst = [], []
    for line in _lines(path):
        line = line.strip()
        if not line or line.startswith(b"#"):
            continue
        u, v = line.split()
        src.append(int(u))
        dst.append(int(v))
    return src, dst


def line_loop_write_party_file(path, raw_keys, edges):
    with open(path, "w") as fp:
        for key in raw_keys:
            fp.write("v %d\n" % key)
        for u, v in edges:
            fp.write("e %d %d\n" % (u, v))


def line_loop_write_edge_list(path, src, dst):
    with open(path, "w") as fp:
        for u, v in zip(src, dst):
            fp.write("%d %d\n" % (u, v))


# -- generated files ------------------------------------------------------------

values = st.one_of(st.integers(0, U64_MAX), st.sampled_from([0, U64_MAX]),
                   st.integers(10 ** 19, U64_MAX), st.integers(0, 999))
spaces = st.sampled_from([" ", "\t", "  ", " \t ", "\f\v"])


@st.composite
def field(draw):
    """A value and its spelling, with up to three leading zeros."""
    value = draw(values)
    return value, "0" * draw(st.integers(0, 3)) + str(value)


@st.composite
def text_lines(draw, records):
    """Lines holding `records` (lists of fields) with blank lines mixed in."""
    lines = []
    for record in records:
        while draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        tail = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(lead + "".join(
            (draw(spaces) if i else "") + part for i, part in enumerate(record)) + tail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines)
    if lines and draw(st.booleans()):
        text += end  # else the file has no final newline
    return text.encode()


@st.composite
def party_files(draw):
    """(file bytes, keys, edges) with `v` and `e` lines interleaved."""
    keys, edges, records = [], [], []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.booleans()):
            key, text = draw(field())
            keys.append(key)
            records.append(["v", text])
        else:
            (u, u_text), (v, v_text) = draw(field()), draw(field())
            edges.append((u, v))
            records.append(["e", u_text, v_text])
    return draw(text_lines(records)), keys, edges


@settings(max_examples=80, deadline=None)
@given(party_files())
def test_party_file_matches_line_loop(tmp_path_factory, drawn):
    data, keys, edges = drawn
    path = tmp_path_factory.mktemp("party") / "p.txt"
    path.write_bytes(data)
    got_keys, got_edges = read_party_file(path)
    assert got_keys.dtype == np.uint64 and got_keys.shape == (len(keys),)
    assert got_edges.dtype == np.uint64 and got_edges.shape == (len(edges), 2)
    assert (got_keys.tolist(), list(map(tuple, got_edges.tolist()))) \
        == line_loop_party_file(path) == (keys, edges)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.tuples(field(), field()),
                          st.sampled_from(["#", "# 1 2", "#v 5 x"])), max_size=25),
       st.data())
def test_edge_list_matches_line_loop(tmp_path_factory, rows, data):
    records = [[row] if isinstance(row, str) else [row[0][1], row[1][1]] for row in rows]
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_bytes(data.draw(text_lines(records)))
    src, dst = read_edge_list(path)
    pairs = [(u[0], v[0]) for u, v in (row for row in rows if not isinstance(row, str))]
    assert src.dtype == dst.dtype == np.uint64
    assert list(zip(src.tolist(), dst.tolist())) == pairs
    assert (src.tolist(), dst.tolist()) == line_loop_edge_list(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(values, max_size=30),
       st.lists(st.tuples(values, values), max_size=30))
def test_writers_match_line_loop_and_round_trip(tmp_path_factory, keys, edges):
    base = tmp_path_factory.mktemp("write")
    write_party_file(base / "new.txt", keys, edges)
    line_loop_write_party_file(base / "old.txt", keys, edges)
    assert (base / "new.txt").read_bytes() == (base / "old.txt").read_bytes()
    got_keys, got_edges = read_party_file(base / "new.txt")
    assert got_keys.tolist() == keys
    assert got_edges.tolist() == [list(e) for e in edges]

    src = np.array([u for u, _ in edges], dtype=np.uint64)
    dst = np.array([v for _, v in edges], dtype=np.uint64)
    write_edge_list(base / "g.txt", src, dst)
    line_loop_write_edge_list(base / "g0.txt", src, dst)
    assert (base / "g.txt").read_bytes() == (base / "g0.txt").read_bytes()
    got_src, got_dst = read_edge_list(base / "g.txt")
    assert (got_src == src).all() and (got_dst == dst).all()


def test_party_file_writer_takes_arrays(tmp_path):
    keys = np.array([3, 0, U64_MAX], dtype=np.uint64)
    edges = np.array([[3, 0], [U64_MAX, 3]], dtype=np.uint64)
    write_party_file(tmp_path / "a.txt", keys, edges)
    write_party_file(tmp_path / "b.txt", [], np.zeros((0, 2), dtype=np.uint64))
    assert (tmp_path / "a.txt").read_text() == \
        "v 3\nv 0\nv %d\ne 3 0\ne %d 3\n" % (U64_MAX, U64_MAX)
    assert (tmp_path / "b.txt").read_bytes() == b""


# -- rejected input -------------------------------------------------------------

@pytest.mark.parametrize("line", [
    "v 18446744073709551616",          # 2^64
    "v 0018446744073709551616",        # 2^64 with leading zeros
    "v 99999999999999999999",          # 20 digits, beyond 2^64 - 1
    "e 1 100000000000000000000",       # 21 digits
    "v +5", "v -5", "v 1_000", "v 5.0", "v 0x10", "v ٥",  # Arabic-Indic 5
    "v", "e", "e 1", "v 1 2", "e 1 2 3", "x 1", "vv 1", "V 1", "ve 1", "5",
    "v 1\rv 2",                        # a lone "\r" is not a line end
    "v 1\x00", "v \x1c1",
])
def test_party_file_rejects(tmp_path, line):
    path = tmp_path / "p.txt"
    path.write_bytes(("v 7\n\ne 7 7\n%s\nv 8\n" % line).encode())
    with pytest.raises(MalformedPartyFile) as err:
        read_party_file(path)
    assert str(err.value).startswith("%s: line 4 %r:" % (path, line.strip()))
    assert issubclass(MalformedPartyFile, ObligeError)


def test_party_file_names_its_first_bad_line(tmp_path):
    wide = "v %d" % (1 << 64)
    for lines, first in [(["v 1", wide, "x"], 2), (["v 1", "x", wide], 2),
                         (["e 1 1", "", "v 1 1", wide], 3)]:
        path = tmp_path / "p.txt"
        path.write_text("\n".join(lines))
        with pytest.raises(MalformedPartyFile, match=r": line %d '" % first):
            read_party_file(path)


def test_party_file_extremes(tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(b"v 0\r\nv 00000000000000000000000018446744073709551615\r\n"
                     b"e\t0 \t 0")
    keys, edges = read_party_file(path)
    assert keys.tolist() == [0, U64_MAX] and edges.tolist() == [[0, 0]]
    path.write_bytes(b"v\r5\n")  # a lone "\r" is whitespace
    assert read_party_file(path)[0].tolist() == [5]
    path.write_bytes(b" \n\t\n")
    keys, edges = read_party_file(path)
    assert keys.shape == (0,) and edges.shape == (0, 2)


@pytest.mark.parametrize("line", ["v 5", "1 2 3", "1", "1 x", "+1 2", "1 %d" % (1 << 64),
                                  "1 2 # note"])
def test_edge_list_rejects(tmp_path, line):
    path = tmp_path / "g.txt"
    path.write_text("# header\n0 1\n\n%s\n" % line)
    with pytest.raises(MalformedEdgeList, match=r": line 4 "):
        read_edge_list(path)


# -- byte-mutation fuzz: a mutated file parses as the line loop does, or is refused --

ALPHABET = b"0123456789 \t\r\n\v\fve#+-_x\x00\x1c\xa0\xff"


@st.composite
def mutated(draw, files):
    """A drawn file with one to four bytes replaced, inserted or deleted, or cut short."""
    data = bytearray(draw(files))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(ALPHABET), st.integers(0, 255)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
        if kind == "insert" or not data:
            data.insert(at, byte)
        elif kind == "replace":
            data[min(at, len(data) - 1)] = byte
        elif kind == "delete":
            del data[min(at, len(data) - 1)]
        else:
            del data[at:]
    return bytes(data)


def _fuzz_case(tmp_path_factory, data, read, error, oracle):
    path = tmp_path_factory.getbasetemp() / ("fuzz-%s.txt" % read.__name__)
    path.write_bytes(data)
    try:
        got = read(path)
    except error:
        return
    assert tuple(part.tolist() for part in got) == oracle(path)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated(party_files().map(lambda drawn: drawn[0])))
def test_mutated_party_file_parses_as_line_loop_or_is_refused(tmp_path_factory, data):
    def oracle(path):
        keys, edges = line_loop_party_file(path)
        return keys, [list(edge) for edge in edges]

    _fuzz_case(tmp_path_factory, data, read_party_file, MalformedPartyFile, oracle)


@st.composite
def edge_lists(draw):
    rows = draw(st.lists(st.one_of(st.tuples(field(), field()),
                                   st.sampled_from(["#", "# 1 2", "#v 5 x"])), max_size=25))
    return draw(text_lines([[row] if isinstance(row, str) else [row[0][1], row[1][1]]
                            for row in rows]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated(edge_lists()))
def test_mutated_edge_list_parses_as_line_loop_or_is_refused(tmp_path_factory, data):
    _fuzz_case(tmp_path_factory, data, read_edge_list, MalformedEdgeList,
               lambda path: tuple(line_loop_edge_list(path)))
