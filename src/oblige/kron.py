"""Seeded Kronecker graphs, party splits, and the edge-list and party-file formats.

The generator draws one quadrant per recursion level per edge with the
standard partition probabilities (0.57, 0.19, 0.19, 0.05), vectorized across
all edges.  Self-loops and duplicate edges are permitted, matching the usual
benchmark behavior.

Both file formats are ASCII text with one record per line.  A line ends at
"\\n"; fields are separated by runs of space, tab, "\\r", "\\v" or "\\f" (so a
CRLF file parses, and a lone "\\r" is whitespace, not a line end).  Every
number is a field of ASCII digits, leading zeros allowed, with a value in
[0, 2^64).  A sign ("+5"), digit separators ("1_000") and non-ASCII digits
are rejected: a number has one spelling up to leading zeros.

- An edge list holds `u v` lines; blank lines and lines whose first field
  starts with "#" are skipped.
- A party file holds `v <key>` and `e <u> <v>` lines and blank lines, in any
  order; the record tag is the single byte "v" or "e".

Both readers parse a file's bytes with numpy (no Python loop per line or
field) and raise an error that names the file and its first bad line, by
number and text.  The writers format whole arrays the same way.
"""

import numpy as np

from .errors import MalformedEdgeList, MalformedPartyFile, UsageError

RMAT_PROBS = (0.57, 0.19, 0.19, 0.05)

# Byte classes of the file formats; "#" and the record tags are _OTHER.
_SPACE, _NEWLINE, _DIGIT, _OTHER = range(4)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[list(b" \t\r\v\f")] = _SPACE
_CLASS[ord("\n")] = _NEWLINE
_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_U64_DIGITS = 20  # decimal digits of 2^64 - 1
_POW10 = np.uint64(10) ** np.arange(1, _U64_DIGITS, dtype=np.uint64)  # 10 .. 10^19
_U64_MAX_TENTH = np.uint64(((1 << 64) - 1) // 10)
_OVERFLOW = "a value beyond 2^64 - 1"


def generate_kronecker(scale, num_edges, seed):
    """`num_edges` edges over 2**scale vertices; deterministic in `seed`."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(RMAT_PROBS[:3])
    src = np.zeros(num_edges, dtype=np.uint64)
    dst = np.zeros(num_edges, dtype=np.uint64)
    for bit in range(scale):
        quadrant = np.searchsorted(cum, rng.random(num_edges))
        src |= np.uint64(1 << bit) * (quadrant >> 1).astype(np.uint64)
        dst |= np.uint64(1 << bit) * (quadrant & 1).astype(np.uint64)
    return src, dst


# -- formatting and parsing ----------------------------------------------------

def _ascii_lines(tag, columns):
    """File bytes of one line per row: `tag`, then the uint64 `columns` in decimal.

    Each row is laid out at full width in a zeroed byte grid (20 digit cells
    per column, filled last digit first, then a space or the newline).  The
    cells left of a value's leading digit stay zero, and dropping every zero
    byte joins the lines.
    """
    columns = [np.ascontiguousarray(col, dtype=np.uint64) for col in columns]
    grid = np.zeros((len(columns[0]), len(tag) + (_U64_DIGITS + 1) * len(columns)),
                    dtype=np.uint8)
    grid[:, :len(tag)] = np.frombuffer(tag, dtype=np.uint8)
    at = len(tag)
    for col in columns:
        units = at + _U64_DIGITS - 1
        value = col
        for cell in range(units, units - len(str(col.max(initial=0))), -1):
            quot = value // np.uint64(10)
            digit = (value - quot * np.uint64(10)).astype(np.uint8) + np.uint8(ord("0"))
            if cell < units:
                digit[value == 0] = 0  # a leading zero
            grid[:, cell] = digit
            value = quot
        grid[:, units + 1] = ord(" ")
        at = units + 2
    grid[:, -1] = ord("\n")
    text = grid.ravel()
    return text[text != 0].tobytes()


class _Tokens:
    """A file's whitespace-separated tokens, in file order, with their lines.

    `starts` and `lengths` locate each token in `data`; `lines` is its
    0-based line number, read off a running count of newlines; `first`
    indexes each non-blank line's first token and `count` is that line's
    token count; `others` counts each line's bytes that are neither
    whitespace nor digits.
    """

    def __init__(self, path, error):
        self.path, self.error = path, error
        with open(path, "rb") as fp:
            self.data = np.frombuffer(fp.read(), dtype=np.uint8)
        cls = np.take(_CLASS, self.data)
        line_of = np.cumsum(cls == _NEWLINE, dtype=np.int32)
        solid = np.zeros(len(cls) + 2, dtype=bool)
        solid[1:-1] = cls > _NEWLINE
        bounds = np.flatnonzero(solid[1:] != solid[:-1])
        self.starts = bounds[0::2]
        self.lengths = bounds[1::2] - self.starts
        self.lines = line_of[self.starts]
        self.first = np.flatnonzero(np.diff(self.lines, prepend=-1))
        self.count = np.diff(self.first, append=len(self.lines))
        self.others = np.bincount(line_of[np.flatnonzero(cls == _OTHER)],
                                  minlength=int(line_of[-1]) + 1 if len(cls) else 1)

    def lead(self):
        """The first byte of each non-blank line."""
        return self.data[self.starts[self.first]]

    def values(self, fields):
        """(values, overflow lines) of the tokens in `fields` (a mask), in order.

        Horner's rule over digit positions in uint64: at position j it steps
        the tokens longer than j, which sorting by length makes a prefix.
        Only the 20th digit can overflow; a token longer than 20 digits keeps
        its last 20 and overflows unless the digits before them are zeros.
        The values of tokens that are not all digits are meaningless.
        """
        data = self.data
        starts, lengths = self.starts[fields], self.lengths[fields]
        over = np.zeros(len(starts), dtype=bool)
        long = np.flatnonzero(lengths > _U64_DIGITS)
        if len(long):
            cut = starts[long] + lengths[long] - _U64_DIGITS
            heads = np.stack([starts[long], cut], axis=1).ravel()
            over[long] = np.logical_or.reduceat(data != ord("0"), heads)[::2]
            starts = starts.copy()
            starts[long] = cut
            lengths = np.minimum(lengths, _U64_DIGITS)
        order = np.argsort(-lengths.astype(np.int8), kind="stable")
        starts = starts[order]
        live = len(order) - np.cumsum(np.bincount(lengths, minlength=_U64_DIGITS))
        value = np.zeros(len(order), dtype=np.uint64)
        for j, n in enumerate(live[:_U64_DIGITS].tolist()):
            if not n:
                break
            step, digit = value[:n], data[starts[:n] + j] - np.uint8(ord("0"))
            if j == _U64_DIGITS - 1:
                over[order[:n]] |= (step > _U64_MAX_TENTH) | (
                    (step == _U64_MAX_TENTH) & (digit > 5))
            step *= np.uint64(10)
            step += digit
        out = np.empty_like(value)
        out[order] = value
        return out, self.lines[fields][over] if over.any() else over[:0]

    def reject(self, *faults):
        """Raise `error` for the first line of any (lines, reason) fault."""
        found = [(int(lines.min()), reason) for lines, reason in faults if len(lines)]
        if not found:
            return
        line, reason = min(found)
        newlines = np.flatnonzero(self.data == ord("\n"))
        lo = newlines[line - 1] + 1 if line else 0
        hi = newlines[line] if line < len(newlines) else len(self.data)
        text = self.data[lo:hi].tobytes().decode("utf-8", "replace").strip()
        raise self.error("%s: line %d %r: %s" % (self.path, line + 1, text, reason))


# -- edge lists and party files ------------------------------------------------

def write_edge_list(path, src, dst):
    with open(path, "wb") as fp:
        fp.write(_ascii_lines(b"", [src, dst]))


def read_edge_list(path):
    """(src, dst) uint64 arrays of an edge list's `u v` lines, in file order."""
    tokens = _Tokens(path, MalformedEdgeList)
    comment = tokens.lead() == ord("#")
    lines = tokens.lines[tokens.first[~comment]]
    values, overflow = tokens.values(~np.repeat(comment, tokens.count))
    tokens.reject(
        (lines[(tokens.count[~comment] != 2) | (tokens.others[lines] != 0)],
         "an edge is two fields of ASCII digits"),
        (overflow, _OVERFLOW))
    return values[0::2], values[1::2]


def assign_parties(num_vertices, p, mode, seed):
    """Vertex -> party owner array; `mode` is "random" or "range"."""
    if p < 1 or num_vertices < 0:
        raise UsageError("cannot split %d vertices over %d parties" % (num_vertices, p))
    if mode == "random":
        rng = np.random.default_rng(seed)
        return rng.integers(0, p, size=num_vertices)
    if mode == "range":
        span = -(-num_vertices // p)
        return np.arange(num_vertices) // span
    raise ValueError("unknown partition mode %r" % mode)


def split_parties(src, dst, owner, p):
    """Per-party (raw_keys, edges): each party holds its vertices' out-edges.

    Every vertex in the universe appears in exactly one party's key list;
    edge endpoints that belong to other parties are added to the holder's
    key list too, since a party can only name vertices it knows.  An
    endpoint outside the universe (`owner`'s length) raises UsageError.
    """
    parties = []
    owner = np.asarray(owner)
    if len(src) and max(int(src.max()), int(dst.max())) >= len(owner):
        raise UsageError("an edge endpoint lies outside the %d-vertex universe"
                         % len(owner))
    for i in range(p):
        mine = np.flatnonzero(owner == i)
        keep = owner[src.astype(np.int64)] == i
        edges = list(zip(src[keep].tolist(), dst[keep].tolist()))
        keys = set(mine.tolist())
        for u, v in edges:
            keys.add(u)
            keys.add(v)
        parties.append((sorted(keys), edges))
    return parties


def write_party_file(path, raw_keys, edges):
    edges = np.asarray(edges, dtype=np.uint64).reshape(-1, 2)
    with open(path, "wb") as fp:
        fp.write(_ascii_lines(b"v ", [raw_keys]) + _ascii_lines(b"e ", edges.T))


def read_party_file(path):
    """(keys, edges) of a party file, in file order (format above).

    `keys` is a uint64 array of shape (n,), one per `v` line; `edges` is a
    uint64 array of shape (m, 2), one (u, v) row per `e` line.  A bad tag,
    field count or field raises MalformedPartyFile.
    """
    tokens = _Tokens(path, MalformedPartyFile)
    tag, count = tokens.lead(), tokens.count
    lines = tokens.lines[tokens.first]
    well_formed = ((tokens.lengths[tokens.first] == 1) & (tokens.others[lines] == 1)
                   & (((tag == ord("v")) & (count == 2))
                      | ((tag == ord("e")) & (count == 3))))
    fields = np.ones(len(tokens.starts), dtype=bool)
    fields[tokens.first] = False
    values, overflow = tokens.values(fields)
    tokens.reject((lines[~well_formed], "a record is `v <key>` or `e <u> <v>` "
                   "with fields of ASCII digits"), (overflow, _OVERFLOW))
    is_key = np.repeat(tag == ord("v"), count - 1)
    return values[is_key], values[~is_key].reshape(-1, 2)
