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
encoded size is a pure function of (k, l).
"""

import struct
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import BlockOverflow, MalformedBlock, OMTooSmall, ParamMismatch

# Fixed OM reserve for scan-loop temporaries; a concrete, auditable stand-in
# for the constant-size register state the algorithms keep.
RESERVE_BYTES = 4096

# Encoded fields `decode_block` unpacks per batch of blocks.
_DECODE_FIELDS = 1 << 15

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
    secrets.  Block lengths are None until the parties publish them after
    edge pre-processing.
    """

    p: int
    n_i: Tuple[int, ...]
    N: int
    n: int
    t: int
    s: int
    k: int
    b: int
    vwidth: int
    l_i: Optional[Tuple[int, ...]] = None
    l: Optional[int] = None

    def __post_init__(self):
        if self.N != sum(self.n_i):
            raise ParamMismatch("N must equal sum of per-party vertex counts")
        if self.b != -(-self.n // self.k):
            raise ParamMismatch("b must equal ceil(n / k)")
        if 2 * self.k * self.vwidth + RESERVE_BYTES > self.s:
            raise ParamMismatch("two vertex chunks plus reserve exceed the OM size")
        if self.l_i is not None and self.l != sum(self.l_i):
            raise ParamMismatch("l must equal sum of per-party block lengths")

    @classmethod
    def derive(cls, p, n_i, n, t, s, vwidth, l_i=None):
        n_i = tuple(int(x) for x in n_i)
        k = choose_chunk_size(s, vwidth)
        b = -(-n // k)
        l = sum(l_i) if l_i is not None else None
        return cls(p=p, n_i=n_i, N=sum(n_i), n=n, t=t, s=s, k=k, b=b,
                   vwidth=vwidth, l_i=tuple(l_i) if l_i else None, l=l)

    def with_block_lengths(self, l_i):
        l_i = tuple(int(x) for x in l_i)
        return replace(self, l_i=l_i, l=sum(l_i))


class GridGraph:
    """b x b blocks of fixed-length edge lists over mapped vertex IDs.

    Immutable after construction; `edges` is one flat array with block (r, c)
    stored row-major at [(r*b + c) * l, ...).  `m` (the non-null total) stays
    out of the public parameter set.  The real edges in the order each scan
    direction visits them (`column_order`, `row_order`) are computed on
    first use and kept.
    """

    region_name = GRID_REGION

    def __init__(self, params, edges, m, symmetrized=False):
        if params.l is None:
            raise ParamMismatch("grid needs params with published block lengths")
        if len(edges) != params.b * params.b * params.l:
            raise ParamMismatch("edge storage does not match b^2 * l")
        self.params = params
        self.edges = edges
        self.m = m
        self.symmetrized = symmetrized

    def block(self, r, c):
        l = self.params.l
        start = (r * self.params.b + c) * l
        return self.edges[start:start + l]

    def nonnull_edges(self):
        """The (src, dst) pairs of all real edges, in storage order."""
        return tuple(side.view(np.uint64).copy() for side in self.row_order)

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


def group_into_blocks(src, dst, k, b, block_length):
    """Place edges into b^2 row-major blocks padded to `block_length` each.

    Within a block edges keep their arrival order.  Raises
    :class:`BlockOverflow` when some block would exceed the declared length.
    """
    src = np.asarray(src, dtype=np.uint64)
    dst = np.asarray(dst, dtype=np.uint64)
    block_ids, counts = block_loads(src, dst, k, b)
    if len(counts) > b * b or (len(src) and counts.max() > block_length):
        raise BlockOverflow(
            "block holds %d edges but declared length is %d"
            % (int(counts.max()), block_length)
        )
    out = np.zeros(b * b * block_length, dtype=EDGE_DTYPE)
    out["pad"] = 1
    order = np.argsort(block_ids, kind="stable")
    starts = np.zeros(b * b, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    # Positions: block base plus rank within the block (arrival order).
    rank = np.arange(len(src)) - starts[block_ids[order]]
    slots = block_ids[order] * block_length + rank
    out["src"][slots] = src[order]
    out["dst"][slots] = dst[order]
    out["pad"][slots] = 0
    return out, len(src)


def build_grid(edges, params, symmetrized=False, block_length=None):
    """Non-oblivious grid constructor for a party's machine or a test fixture.

    `edges` is a sequence of (src, dst) mapped-ID pairs (anything an (m, 2)
    array can be made of).  The merged block length defaults to `params.l`.
    """
    arr = np.asarray(list(edges), dtype=np.uint64).reshape(-1, 2)
    src, dst = arr[:, 0], arr[:, 1]
    if len(src) and int(np.max(src)) >= params.n:
        raise ParamMismatch("edge endpoint outside [0, n)")
    if len(dst) and int(np.max(dst)) >= params.n:
        raise ParamMismatch("edge endpoint outside [0, n)")
    l = params.l if block_length is None else block_length
    if params.l is None:
        params = params.with_block_lengths([l])
    stored, m = group_into_blocks(src, dst, params.k, params.b, l)
    return GridGraph(params, stored, m, symmetrized=symmetrized)


def _field_layout(k, l):
    """Bit width, start byte and in-byte shift of the 2l fields of one block.

    Every block starts on a byte boundary, so the layout is the same for all
    blocks.  A field plus its shift spans at most 8 bytes for w <= 57.
    """
    w = offset_bits(k)
    if w > 57:
        raise ParamMismatch("chunk offsets of %d bits exceed the 57-bit codec" % w)
    start = np.arange(2 * l, dtype=np.uint64) * np.uint64(w)
    return w, (start >> np.uint64(3)).astype(np.intp), start & np.uint64(7)


def _encode_blocks(blocks, k):
    """Encode a (B, l) array of blocks into a (B, nbytes) uint8 array, one pass."""
    n_blocks, l = blocks.shape
    w, byte, shift = _field_layout(k, l)
    kk = np.uint64(k)
    null = blocks["pad"] == 1
    fields = np.empty((n_blocks, l, 2), dtype=np.uint64)
    fields[..., 0] = np.where(null, kk, blocks["src"] % kk)
    fields[..., 1] = np.where(null, kk, blocks["dst"] % kk)
    fields = fields.reshape(n_blocks, 2 * l)
    out = np.zeros((n_blocks, encoded_block_nbytes(k, l) + 8), dtype=np.uint8)
    # Fields i, i+8, i+16, ... start in distinct bytes, so each class can be
    # OR-ed into place without two fields hitting one byte in a single step.
    for first in range(min(8, 2 * l)):
        cls = slice(first, None, 8)
        word = fields[:, cls] << shift[cls]
        for t in range((w + 14) // 8):
            out[:, byte[cls] + t] |= (word >> np.uint64(8 * t)).astype(np.uint8)
    return out[:, :-8]


def encode_block(block, k):
    """Encode one block as packed w-bit offset pairs; nulls become (k, k)."""
    return _encode_blocks(block.reshape(1, -1), k).tobytes()


def decode_block(data, k, l, r, c):
    """Inverse of :func:`encode_block`, rebasing offsets to absolute IDs.

    `r` and `c` are the block's row and column, or equal-length arrays of
    them when `data` holds that many encoded blocks back to back; the
    decoded blocks are returned concatenated.  Raises
    :class:`MalformedBlock` on a wrong payload length, an offset in
    (k, 2^w), or a half-null pair (exactly one field equal to k): none of
    these can be produced by a conforming client.  Blocks are decoded a
    batch at a time, so the working arrays stay small beside the output.
    """
    rows = np.atleast_1d(np.asarray(r, dtype=np.uint64))
    cols = np.atleast_1d(np.asarray(c, dtype=np.uint64))
    n_blocks = len(rows)
    expected = n_blocks * encoded_block_nbytes(k, l)
    if len(data) != expected:
        raise MalformedBlock(
            "block payload is %d bytes, expected %d" % (len(data), expected)
        )
    out = np.zeros(n_blocks * l, dtype=EDGE_DTYPE)
    if not len(out):
        return out
    msg = np.frombuffer(data, dtype=np.uint8).reshape(n_blocks, -1)
    blocks = out.reshape(n_blocks, l)
    layout = _field_layout(k, l)
    step = max(1, _DECODE_FIELDS // (2 * l))
    for lo in range(0, n_blocks, step):
        hi = lo + step
        _decode_batch(msg[lo:hi], k, layout, rows[lo:hi], cols[lo:hi], blocks[lo:hi])
    return out


def _decode_batch(msg, k, layout, rows, cols, blocks):
    """Decode the (B, nbytes) encoded blocks `msg` into the (B, l) `blocks`."""
    n_blocks, l = blocks.shape
    w, byte, shift = layout
    padded = np.zeros((n_blocks, msg.shape[1] + 8), dtype=np.uint8)
    padded[:, :-8] = msg
    fields = np.zeros((n_blocks, 2 * l), dtype=np.uint64)
    part = np.empty_like(fields)
    for t in range((w + 14) // 8):
        part[...] = padded[:, byte + t]
        part <<= np.uint64(8 * t)
        fields |= part
    fields >>= shift
    fields &= np.uint64((1 << w) - 1)
    src_off, dst_off = fields[:, 0::2], fields[:, 1::2]
    if int(fields.max()) > k:
        raise MalformedBlock("offset exceeds the null sentinel value k=%d" % k)
    src_null = src_off == k
    if (src_null != (dst_off == k)).any():
        raise MalformedBlock("half-null edge encoding")
    kk = np.uint64(k)
    blocks["pad"] = src_null
    for off, base, field in ((src_off, rows, "src"), (dst_off, cols, "dst")):
        off += base[:, None] * kk
        np.copyto(off, 0, where=src_null)
        blocks[field] = off


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


def encode_grid(n, k, b, stored_edges, l):
    """Encode flat block storage (as built by group_into_blocks) to a payload.

    The container is the header followed by the b^2 encoded blocks,
    row-major; all blocks are encoded in one pass.
    """
    body = _encode_blocks(stored_edges.reshape(b * b, l), k)
    header = _HEADER.pack(GRID_MAGIC, GRID_VERSION, n, k, b, l,
                          encoded_block_nbytes(k, l))
    return header + body.tobytes()


def block_coordinates(b):
    """Row and column of each of the b^2 blocks, in row-major storage order."""
    return np.repeat(np.arange(b), b), np.tile(np.arange(b), b)

