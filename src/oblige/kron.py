"""Seeded Kronecker (recursive-partition) graph generation and party splits.

The generator draws one quadrant per recursion level per edge with the
standard partition probabilities (0.57, 0.19, 0.19, 0.05), vectorized across
all edges.  Self-loops and duplicate edges are permitted, matching the usual
benchmark behavior.
"""

import numpy as np

from .errors import MalformedPartyFile

RMAT_PROBS = (0.57, 0.19, 0.19, 0.05)


def generate_kronecker(scale, num_edges, seed, probs=RMAT_PROBS):
    """`num_edges` edges over 2**scale vertices; deterministic in `seed`."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(probs[:3])
    src = np.zeros(num_edges, dtype=np.uint64)
    dst = np.zeros(num_edges, dtype=np.uint64)
    for bit in range(scale):
        quadrant = np.searchsorted(cum, rng.random(num_edges))
        src |= np.uint64(1 << bit) * (quadrant >> 1).astype(np.uint64)
        dst |= np.uint64(1 << bit) * (quadrant & 1).astype(np.uint64)
    return src, dst


def write_edge_list(path, src, dst):
    with open(path, "w") as fp:
        for u, v in zip(src, dst):
            fp.write("%d %d\n" % (u, v))


def read_edge_list(path):
    src, dst = [], []
    with open(path) as fp:
        for line in fp:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            src.append(int(u))
            dst.append(int(v))
    return np.asarray(src, dtype=np.uint64), np.asarray(dst, dtype=np.uint64)


def assign_parties(num_vertices, p, mode, seed):
    """Vertex -> party owner array; `mode` is "random" or "range"."""
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
    key list too, since a party can only name vertices it knows.
    """
    parties = []
    owner = np.asarray(owner)
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
    with open(path, "w") as fp:
        for key in raw_keys:
            fp.write("v %d\n" % key)
        for u, v in edges:
            fp.write("e %d %d\n" % (u, v))


def read_party_file(path):
    """(keys, edges) from `v <key>` and `e <u> <v>` lines; keys are in [0, 2^64)."""
    keys, edges = [], []
    line = ""
    with open(path) as fp:
        try:
            for line in fp:
                parts = line.split()
                if not parts:
                    continue
                tag = parts[0]
                if tag == "v":
                    _, key = parts
                    keys.append(int(key))
                elif tag == "e":
                    _, u, v = parts
                    edges.append((int(u), int(v)))
                else:
                    raise ValueError("unknown record tag %r" % tag)
        except ValueError as err:  # also raised by a wrong field count
            raise MalformedPartyFile("%s: bad line %r: %s"
                                     % (path, line.strip(), err)) from None
    if keys and (min(keys) < 0 or max(keys) >= 1 << 64):
        raise MalformedPartyFile("%s: vertex keys must lie in [0, 2^64)" % path)
    return keys, edges
