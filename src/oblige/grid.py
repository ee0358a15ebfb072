"""2D grid-partitioned edge storage and its bit-exact wire format.

Vertices are split into chunks of k consecutive mapped IDs, where k is the
largest value such that two chunks of vertex data fit in the oblivious
memory (minus a fixed reserve for scan temporaries).  Edges are grouped into
b x b blocks by the chunks of their endpoints, and every block is padded
with null edges to one public length so the stored shape reveals nothing
about the edge distribution.

On the wire each edge is two w-bit chunk offsets with w = ceil(log2(k+1));
offset value k is the null sentinel (one extra bit per field buys a uniform
validity marker even when k is a power of two).  Fields are packed
little-endian, bit 0 first, padded with zero bits to a byte boundary, so the
encoded size is a pure function of (k, l).  So is the encoded null block
(`null_block`): a grid is encoded onto it and decoded against it, and only
the blocks' real prefixes pass through the codec.
"""

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import BlockOverflow, MalformedBlock, OMTooSmall, ParamMismatch

# Fixed OM reserve for scan-loop temporaries; a concrete, auditable stand-in
# for the constant-size register state the algorithms keep.
RESERVE_BYTES = 4096

EDGE_DTYPE = np.dtype([("src", "<u8"), ("dst", "<u8"), ("pad", "u1")])

GRID_MAGIC = b"OBGE"
GRID_VERSION = 1
GRID_REGION = "grid.edges"


def choose_chunk_size(s, vwidth):
    """Largest k such that 2k vertex records plus the reserve fit in s bytes."""
    if s - RESERVE_BYTES < 2 * vwidth:
        raise OMTooSmall(
            "OM of %d bytes cannot hold two %d-byte vertex chunks plus %d reserve"
            % (s, vwidth, RESERVE_BYTES)
        )
    return (s - RESERVE_BYTES) // (2 * vwidth)


def offset_bits(k):
    """Bits per encoded chunk offset: ceil(log2(k+1)), reserving value k for null."""
    return k.bit_length()


@dataclass(frozen=True)
class PublicParams:
    """The public configuration every oblivious stage's trace is a function of.

    Per-party and merged edge counts are deliberately absent: they are the
    secrets.  N, k, b and l are derived here and nowhere else: N = sum(n_i),
    k = `choose_chunk_size(s, vwidth)`, b = ceil(n / k) and l = sum(l_i).
    Block lengths are None (and l is None) until the parties publish them
    after edge pre-processing.
    """

    p: int
    n_i: Tuple[int, ...]
    N: int = field(init=False)
    n: int
    t: int
    s: int
    k: int = field(init=False)
    b: int = field(init=False)
    vwidth: int
    l_i: Optional[Tuple[int, ...]] = None
    l: Optional[int] = field(init=False)

    def __post_init__(self):
        k = choose_chunk_size(self.s, self.vwidth)
        _codec_width(k)  # ParamMismatch unless the codec holds a chunk offset
        n_i = tuple(int(x) for x in self.n_i)
        if self.p != len(n_i):
            raise ParamMismatch("p must equal the number of per-party vertex counts")
        l_i = None if self.l_i is None else tuple(int(x) for x in self.l_i)
        derived = dict(n_i=n_i, N=sum(n_i), k=k, b=-(-self.n // k), l_i=l_i,
                       l=None if l_i is None else sum(l_i))
        for name, value in derived.items():
            object.__setattr__(self, name, value)  # frozen: set once, here

    @classmethod
    def derive(cls, p, n_i, n, t, s, vwidth, l_i=None):
        return cls(p=p, n_i=n_i, n=n, t=t, s=s, vwidth=vwidth, l_i=l_i)

    def with_block_lengths(self, l_i):
        return replace(self, l_i=l_i)


class GridGraph:
    """b x b blocks of fixed-length edge lists over mapped vertex IDs.

    Immutable after construction; `edges` is one flat array with block (r, c)
    stored row-major at [(r*b + c) * l, ...).  `m` (the non-null total) stays
    out of the public parameter set.  The real edges in the order each scan
    direction visits them (`column_order`, `row_order`) are computed on
    first use and kept.
    """

    def __init__(self, params, edges, m, symmetrized=False):
        if params.l is None:
            raise ParamMismatch("grid needs params with published block lengths")
        if len(edges) != params.b * params.b * params.l:
            raise ParamMismatch("edge storage does not match b^2 * l")
        self.params = params
        self.edges = edges
        self.m = m
        self.symmetrized = symmetrized

    @cached_property
    def column_order(self):
        """Real edges as read-only int64 (src, dst), in column-scan order.

        Columns 0..b-1; within a column, block rows 0..b-1; within a block,
        stored order.
        """
        b, l = self.params.b, self.params.l
        return _real_edges(self.edges.reshape(b, b, l).transpose(1, 0, 2))

    @cached_property
    def row_order(self):
        """Real edges as read-only int64 (src, dst), in storage (row-scan) order."""
        return _real_edges(self.edges)


def _real_edges(slots):
    """(src, dst) of the non-null `slots`, in their C order, as read-only int64."""
    real = slots["pad"] == 0
    out = slots["src"][real].view(np.int64), slots["dst"][real].view(np.int64)
    for side in out:
        side.flags.writeable = False
    return out


def block_loads(src, dst, k, b):
    """Row-major block id (int64) of each edge, and the edge count of each block.

    Edge (u, v) lies in block (u // k, v // k) of the b x b grid; the counts
    cover at least the b^2 blocks.
    """
    src = np.asarray(src, dtype=np.uint64)
    dst = np.asarray(dst, dtype=np.uint64)
    ids = ((src // np.uint64(k)) * np.uint64(b) + dst // np.uint64(k)).astype(np.int64)
    return ids, np.bincount(ids, minlength=b * b)


def block_order(src, dst, k, b, block_length):
    """The edges in block order, and each one's block and slot in it.

    Returns (order, block, rank, loads): `order` sorts the edges by
    `block_loads`' block id and keeps arrival order within a block; `block`
    and `rank` are the block id and in-block slot of each ordered edge, and
    `loads` the b^2 block loads.  Raises :class:`BlockOverflow` when some
    block would exceed the declared length.
    """
    ids, loads = block_loads(src, dst, k, b)
    if len(loads) > b * b or (len(ids) and loads.max() > block_length):
        raise BlockOverflow(
            "block holds %d edges but declared length is %d"
            % (int(loads.max()), block_length)
        )
    # Stable by radix sort while the block ids fit 16 bits.
    order = np.argsort(ids.astype(np.min_scalar_type(b * b - 1)), kind="stable")
    block = ids[order]
    return order, block, np.arange(len(ids)) - (np.cumsum(loads) - loads)[block], loads


def build_grid(edges, params, symmetrized=False):
    """Non-oblivious grid constructor for a party's machine or a test fixture.

    `edges` is a sequence of (src, dst) mapped-ID pairs (anything an (m, 2)
    array can be made of), stored in blocks of the merged length `params.l`.
    Each block holds its edges in arrival order, then null slots.
    """
    if params.l is None:
        raise ParamMismatch("grid needs params with published block lengths")
    arr = np.asarray(list(edges), dtype=np.uint64).reshape(-1, 2)
    src, dst = arr[:, 0], arr[:, 1]
    if len(src) and int(np.max(src)) >= params.n:
        raise ParamMismatch("edge endpoint outside [0, n)")
    if len(dst) and int(np.max(dst)) >= params.n:
        raise ParamMismatch("edge endpoint outside [0, n)")
    l = params.l
    order, block, rank, _ = block_order(src, dst, params.k, params.b, l)
    stored = np.zeros(params.b * params.b * l, dtype=EDGE_DTYPE)
    stored["pad"] = 1
    slots = block * l + rank
    stored["src"][slots] = src[order]
    stored["dst"][slots] = dst[order]
    stored["pad"][slots] = 0
    return GridGraph(params, stored, len(src), symmetrized=symmetrized)


def _codec_width(k):
    """w for chunk size k; ParamMismatch beyond the 57-bit codec.

    Up to 57 bits, a field shifted to its bit within a byte fits one uint64.
    """
    w = offset_bits(k)
    if w > 57:
        raise ParamMismatch("chunk offsets of %d bits exceed the 57-bit codec" % w)
    return w


def _encode_blocks(fields, k):
    """Encode (B, 2l) uint64 chunk offsets (k for null) into (B, nbytes) uint8.

    Eight fields fill exactly w bytes, so the fields go in groups of eight:
    field i of every group starts at the same byte and bit of its group's w
    bytes, and each byte it touches is one strided OR over all groups.
    """
    w = _codec_width(k)
    n_blocks, n_fields = fields.shape
    groups = -(-n_fields // 8)
    fields = np.pad(fields, ((0, 0), (0, 8 * groups - n_fields))).reshape(n_blocks, groups, 8)
    out = np.zeros((n_blocks, groups, w), dtype=np.uint8)
    for i in range(min(8, n_fields)):
        byte, shift = divmod(i * w, 8)
        word = fields[:, :, i] << np.uint64(shift)
        for t in range((shift + w + 7) // 8):
            out[:, :, byte + t] |= (word >> np.uint64(8 * t)).astype(np.uint8)
    return out.reshape(n_blocks, groups * w)[:, :encoded_block_nbytes(k, n_fields // 2)]


def encode_block(block, k):
    """Encode one block as packed w-bit offset pairs; nulls become (k, k)."""
    kk = np.uint64(k)
    null = block["pad"] == 1
    fields = np.empty((len(block), 2), dtype=np.uint64)
    fields[:, 0] = np.where(null, kk, block["src"] % kk)
    fields[:, 1] = np.where(null, kk, block["dst"] % kk)
    return _encode_blocks(fields.reshape(1, -1), k).tobytes()


def null_block(k, l):
    """The encoded block of l null edges, as a uint8 array.

    Eight null fields fill exactly w bytes, so the block is that w-byte
    period tiled over its bytes, with the pad bits past its 2l fields clear.
    """
    period = _encode_blocks(np.full((1, 8), k, dtype=np.uint64), k)[0]
    nbytes = encoded_block_nbytes(k, l)
    out = np.tile(period, -(-nbytes // len(period)))[:nbytes]
    tail = 2 * l * offset_bits(k) % 8
    if tail:
        out[-1] &= (1 << tail) - 1
    return out


def _prefix_buckets(loads, l):
    """(blocks, length) groups of the blocks with a nonzero load.

    A block's prefix length is its load rounded up to a power of two, at
    most l; the groups go by length and hold their blocks in id order.
    """
    blocks = np.flatnonzero(loads)
    lengths = np.minimum(np.int64(1) << np.frexp(loads[blocks] - 1)[1], l)
    return [(blocks[lengths == L], int(L)) for L in np.unique(lengths)]


def decode_block(data, k, l, r, c):
    """Inverse of :func:`encode_block`, rebasing offsets to absolute IDs.

    `r` and `c` are the block's row and column, or equal-length arrays of
    them when `data` holds that many encoded blocks back to back; the
    decoded blocks are returned concatenated.  The fields are read in the
    groups of eight `_encode_blocks` writes.  Raises
    :class:`MalformedBlock` on a wrong payload length, an offset in
    (k, 2^w), or a half-null pair (exactly one field equal to k): none of
    these can be produced by a conforming client.
    """
    rows = np.atleast_1d(np.asarray(r, dtype=np.uint64))
    cols = np.atleast_1d(np.asarray(c, dtype=np.uint64))
    n_blocks = len(rows)
    nbytes = encoded_block_nbytes(k, l)
    if len(data) != n_blocks * nbytes:
        raise MalformedBlock(
            "block payload is %d bytes, expected %d" % (len(data), n_blocks * nbytes)
        )
    out = np.zeros(n_blocks * l, dtype=EDGE_DTYPE)
    if not len(out):
        return out
    w = _codec_width(k)
    groups = -(-2 * l // 8)
    msg = np.zeros((n_blocks, groups * w), dtype=np.uint8)
    msg[:, :nbytes] = np.frombuffer(data, dtype=np.uint8).reshape(n_blocks, nbytes)
    msg = msg.reshape(n_blocks, groups, w)
    fields = np.zeros((n_blocks, groups, 8), dtype=np.uint64)
    for i in range(min(8, 2 * l)):
        byte, shift = divmod(i * w, 8)
        word = fields[:, :, i]
        for t in range((shift + w + 7) // 8):
            word |= msg[:, :, byte + t].astype(np.uint64) << np.uint64(8 * t)
        word >>= np.uint64(shift)
    fields = fields.reshape(n_blocks, 8 * groups)[:, :2 * l]
    fields &= np.uint64((1 << w) - 1)
    src_off, dst_off = fields[:, 0::2], fields[:, 1::2]
    if int(fields.max()) > k:
        raise MalformedBlock("offset exceeds the null sentinel value k=%d" % k)
    src_null = src_off == k
    if (src_null != (dst_off == k)).any():
        raise MalformedBlock("half-null edge encoding")
    kk = np.uint64(k)
    blocks = out.reshape(n_blocks, l)
    blocks["pad"] = src_null
    for off, base, name in ((src_off, rows, "src"), (dst_off, cols, "dst")):
        off += base[:, None] * kk
        np.copyto(off, 0, where=src_null)
        blocks[name] = off
    return out


def encoded_block_nbytes(k, l):
    return (2 * offset_bits(k) * l + 7) // 8


_HEADER = struct.Struct("<4sI5Q")  # magic, version, n, k, b, l, block bytes


def parse_grid_header(payload):
    if len(payload) < _HEADER.size:
        raise MalformedBlock("grid payload shorter than its header")
    magic, version, n, k, b, l, nbytes = _HEADER.unpack_from(payload)
    if magic != GRID_MAGIC or version != GRID_VERSION:
        raise MalformedBlock("bad grid container magic/version")
    if nbytes != encoded_block_nbytes(k, l):
        raise MalformedBlock("inconsistent per-block byte length in header")
    if len(payload) != _HEADER.size + b * b * nbytes:
        raise MalformedBlock("grid payload length does not match header")
    return {"n": n, "k": k, "b": b, "l": l, "block_nbytes": nbytes,
            "header_nbytes": _HEADER.size}


def encode_grid(n, k, b, src, dst, l):
    """GRID_SUBMIT container of the edges (src, dst) in b^2 blocks of l slots.

    The container is the header followed by the b^2 encoded blocks,
    row-major; a block holds its edges in arrival order, then nulls.  Every
    block starts as `null_block(k, l)`, and only its real prefix is
    encoded: the prefixes are bucketed by `_prefix_buckets`, each bucket is
    one dense `_encode_blocks` pass (null past a block's load), and the one
    byte where an encoded prefix meets the template takes the template's
    bits above the prefix.  Raises :class:`BlockOverflow` when a block
    holds more than l edges.
    """
    src = np.asarray(src, dtype=np.uint64)
    dst = np.asarray(dst, dtype=np.uint64)
    order, block, rank, loads = block_order(src, dst, k, b, l)
    w, kk, template = offset_bits(k), np.uint64(k), null_block(k, l)
    out = np.empty(_HEADER.size + b * b * len(template), dtype=np.uint8)
    out[:_HEADER.size] = np.frombuffer(_HEADER.pack(
        GRID_MAGIC, GRID_VERSION, n, k, b, l, len(template)), dtype=np.uint8)
    body = out[_HEADER.size:].reshape(b * b, len(template))
    body[...] = template
    # Every prefix's fields in one flat array, bucket after bucket.
    buckets = _prefix_buckets(loads, l)
    base, size = np.zeros(len(loads), dtype=np.int64), 0
    for blocks, L in buckets:
        base[blocks] = size + 2 * L * np.arange(len(blocks))
        size += 2 * L * len(blocks)
    fields = np.full(size, kk, dtype=np.uint64)
    at = base[block] + 2 * rank
    fields[at] = src[order] % kk
    fields[at + 1] = dst[order] % kk
    size = 0
    for blocks, L in buckets:
        prefix = _encode_blocks(fields[size:size + 2 * L * len(blocks)].reshape(-1, 2 * L), k)
        size += 2 * L * len(blocks)
        body[blocks, :prefix.shape[1]] = prefix
        tail = 2 * L * w % 8
        if tail:
            above = template[prefix.shape[1] - 1] & np.uint8(0xFF << tail & 0xFF)
            body[blocks, prefix.shape[1] - 1] |= above
    return out.tobytes()


def decode_grid(body, k, l, b, out):
    """Decode the b^2 encoded blocks of `body` into `out`; return the real edge count.

    `out` is a (b^2, l) EDGE_DTYPE view of null slots.  A block is decoded
    only as far as its edges cover a byte that differs from
    `null_block(k, l)`; every later field is null byte for byte.  The
    prefixes are bucketed as `encode_grid` buckets them and each bucket is
    one `decode_block` call, so every MalformedBlock check runs on every
    field that is not null.
    """
    nbytes = encoded_block_nbytes(k, l)
    if len(body) != b * b * nbytes:
        raise MalformedBlock("grid body is %d bytes, expected %d"
                             % (len(body), b * b * nbytes))
    if not nbytes:
        return 0
    blocks = np.frombuffer(body, dtype=np.uint8).reshape(b * b, nbytes)
    differs = blocks[:, ::-1] != null_block(k, l)[::-1]
    last = differs.argmax(axis=1)  # counted from the block's end
    touched = np.where(differs[np.arange(b * b), last], nbytes - last, 0)
    slots = out.view(np.dtype((np.void, EDGE_DTYPE.itemsize)))
    m = 0
    for sel, L in _prefix_buckets(np.minimum(-(-4 * touched // offset_bits(k)), l), l):
        edges = decode_block(blocks[sel, :encoded_block_nbytes(k, L)].reshape(-1), k, L,
                             *np.divmod(sel, b))
        slots[sel, :L] = edges.view(slots.dtype).reshape(-1, L)
        m += int(np.count_nonzero(edges["pad"] == 0))
    return m
