"""Basic oblivious routines over fixed-width record buffers.

Every routine's access trace depends only on the public lengths of its
inputs and declared outputs (plus record widths and the OM capacity), never
on record contents.  Values are compared and transformed inside the
oblivious memory; the observable pattern is fixed by the loop structure.
Every stage outside the grid scan runs on the serial server, so these
routines, and the pipeline and baseline stages built from them, record as
worker 0.

`o_sort` is a bitonic sorting network with an OM cutover: strides that fit
inside the OM are handled by copying the segment in, sorting it there
non-obliviously, and copying it back, which drops the in-OM portion of the
network from O(n log^2 n) to O(n log s).  Key extractors return one or more
vectorized unsigned or bool key columns; ties are broken by original
position, so the result matches a stable sort and downstream passes are
deterministic even under duplicate keys.

The simulator runs that network on one int32 rank column instead of the
scratch records it traces: each record's rank in the (pad, keys, position)
total order.  The ranks come from stable 16-bit radix passes over the key
columns, as uint64 values, and only over the bits each column's range
spans.  Ranks compare exactly as the records do, so each pass is a min/max
into the ascending and descending halves of a reshaped view, with no
per-pair direction mask, and the in-OM segments are one row sort whose
descending segments are reversed through a view; each round of segment
reads and writes is one repeated trace record.  The records move once, at
the end, as raw bytes: slot i receives the record whose rank the network
left in slot i.  Nothing else orders them, so a broken network yields
unsorted output.
"""

import numpy as np

from .errors import OMUnavailable, SizeMismatch
from .omsim import READ, WRITE, Buffer, assign_records, gather_records, with_fields

# Ranks are int32, so the padded length may not pass 2^31.
_MAX_PADDED = 1 << 31


def _pow2_floor(x):
    return 1 << (x.bit_length() - 1) if x >= 1 else 0


def _pow2_ceil(x):
    return 1 << (x - 1).bit_length() if x > 1 else 1


def bitonic_cx_count(padded_length, segment):
    """Compare-exchange count of the super-OM part of the network.

    For padded length P = 2^L and in-OM segment 2^S, every merge stage k
    contributes one P/2-pair pass per stride in [segment, k/2], which sums to
    P/2 * (L-S)(L-S+1)/2.  Pure function of public sizes.
    """
    if segment >= padded_length:
        return 0
    big = padded_length.bit_length() - segment.bit_length()
    return (padded_length // 2) * big * (big + 1) // 2


def _key_columns(key, batch):
    """`key(batch)` as a tuple of arrays; TypeError unless each is unsigned or bool."""
    cols = key(batch)
    if isinstance(cols, np.ndarray):
        cols = (cols,)
    cols = tuple(np.asarray(c) for c in cols)
    for c in cols:
        if c.dtype.kind not in "ub":
            raise TypeError("o_sort cannot order key columns of dtype %s" % c.dtype)
    return cols


def _stable_order(cols):
    """The stable permutation sorting by `cols`, the first most significant.

    Equal to ``np.lexsort(cols[::-1])`` for unsigned or bool columns.  Each
    column is taken as uint64 values less its minimum, and neighbouring
    columns whose ranges fit in 64 bits together are packed into one key.
    The keys are sorted by stable 16-bit least-significant-digit passes
    (numpy's radix sort), last key first, over only the bits a key's range
    spans, so a constant column costs none.
    """
    keys = []  # (values, bits), most significant first
    for col in cols:
        u = col.astype(np.uint64)
        u -= u.min(initial=np.iinfo(np.uint64).max)
        bits = int(u.max(initial=0)).bit_length()
        if keys and keys[-1][1] + bits <= 64:
            high, high_bits = keys.pop()
            u = (high << np.uint64(bits)) | u
            bits += high_bits
        keys.append((u, bits))
    order = None
    for u, bits in reversed(keys):
        if order is not None:
            u = u[order]
        for shift in range(0, bits, 16):
            o = np.argsort((u >> np.uint64(shift)).astype(np.uint16), kind="stable")
            order = o if order is None else order[o]
            if shift + 16 < bits:
                u = u[o]
    return np.arange(len(cols[0])) if order is None else order


def _cx_pass(rank, j, k):
    """One compare-exchange pass at stride `j` of merge stage `k`, in place.

    Pair (i, i+j) is ordered ascending when i's `k` bit is clear.  Viewed as
    (P/2k, 2, k/2j, 2, j), index 0 of axis 1 holds the ascending half of
    every 2k-block and index 1 the descending half; axis 3 separates each
    pair's low and high positions.  The last stage, k = P, is all ascending.
    """
    if k == len(rank):
        pairs = rank.reshape(-1, 2, j)
        _order_pairs(pairs[:, 0], pairs[:, 1])
        return
    halves = rank.reshape(-1, 2, k // (2 * j), 2, j)
    _order_pairs(halves[:, 0, :, 0], halves[:, 0, :, 1])
    _order_pairs(halves[:, 1, :, 1], halves[:, 1, :, 0])


def _order_pairs(lo, hi):
    """Leave each pair's min in `lo` and its max in `hi`, in place."""
    low = np.minimum(lo, hi)
    np.maximum(lo, hi, out=hi)
    lo[...] = low


def o_sort(buf, key, arena):
    """Sort `buf` in place, ascending by `key(batch)` columns, ties by position.

    The trace is the classic bitonic network over strides too large for the
    OM, with every compare-exchange reading and writing both positions
    unconditionally; segments that fit in the OM are copied in, sorted there,
    and copied back.  Input is padded to a power of two inside a scratch
    region of (pad flag, keys, position, record) entries; the OM segment is
    sized from that entry width.

    The network runs on one rank column standing in for the scratch region:
    record i carries its rank in the stable (keys, position) order and pad
    slots carry n..P-1, which are exactly the ranks of the (pad, keys,
    position) total order, so every compare-exchange takes the same branch
    as on the full entries.  The records are then placed by the ranks the
    network left in the first n slots, so the output is sorted only if the
    network sorted.  The stable (keys, position) order comes from radix
    passes (see `_stable_order`).  `key` is called once, on the records in
    their input order.  Key columns must be unsigned or bool (TypeError
    otherwise), and the padded length may not exceed 2^31, the int32 rank
    range (ValueError).

    Returns a stats dict with the padded length, in-OM segment size and the
    super-OM compare-exchange count (a pure function of the public sizes).
    """
    trace = buf.trace
    with trace.window("o_sort"):
        n = len(buf.data)
        stats = {"n": n, "padded": 0, "segment": 0, "compare_exchanges": 0}
        if n <= 1:
            return stats

        padded = _pow2_ceil(n)
        if padded > _MAX_PADDED:
            raise ValueError("o_sort of %d records pads past 2^31, beyond int32 ranks" % n)
        cols = _key_columns(key, buf.data)
        # A scratch entry: pad flag, keys, 8-byte position, record.
        width = 1 + sum(c.dtype.itemsize for c in cols) + 8 + buf.data.dtype.itemsize

        seg_records = _pow2_floor(arena.free_bytes // width)
        if seg_records < 2:
            raise OMUnavailable(
                "OM too small for o_sort: %d free bytes cannot hold two %d-byte records"
                % (arena.free_bytes, width)
            )
        seg = min(seg_records, padded)
        om = arena.alloc(seg * width)

        scratch_name = buf.name + ".sortpad"
        trace.register(scratch_name, padded, width)

        # Copy in (one interleaved read/write pass), then write the pad tail.
        trace.zip2(0, buf.name, READ, 0, scratch_name, WRITE, 0, n)
        order = _stable_order(cols)
        rank = np.empty(padded, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        trace.seq(0, scratch_name, WRITE, n, padded - n)
        rank[n:] = np.arange(n, padded, dtype=np.int32)

        segments = rank.reshape(-1, seg)

        def sort_segments(k):
            """Sort every segment, descending where its start has bit `k`."""
            trace.repeat(0, [(scratch_name, READ, 0, seg, seg),
                             (scratch_name, WRITE, 0, seg, seg)], padded // seg)
            segments.sort(axis=1)
            if k < padded:  # the second k-long half of every 2k-block descends
                desc = rank.reshape(-1, 2, k // seg, seg)[:, 1]
                desc[...] = desc[..., ::-1]

        # Build sorted runs of length `seg`, alternating direction as the full
        # network would have left them after its first log2(seg) stages.
        sort_segments(seg)

        cx = 0
        k = 2 * seg
        while k <= padded:
            j = k // 2
            while j >= seg:
                trace.cx_pass(0, scratch_name, j, padded)
                _cx_pass(rank, j, k)
                cx += padded // 2
                j //= 2
            # Remaining strides of this merge stay inside one OM-sized segment,
            # which is bitonic at this point; a full in-OM sort finishes it.
            sort_segments(k)
            k *= 2

        trace.zip2(0, scratch_name, READ, 0, buf.name, WRITE, 0, n)
        assign_records(buf.data, gather_records(buf.data, order[rank[:n]]))
        arena.free(om)
        stats.update(padded=padded, segment=seg, compare_exchanges=cx)
        return stats


def group_ids(keys):
    """Dense 0-based id of each key's run of equal neighbours (on sorted keys, its rank)."""
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return np.cumsum(fresh) - 1


def _mapped(fn, buf, *args):
    """``fn(buf.data, *args)`` as an array; ValueError unless it keeps the length."""
    result = np.asarray(fn(buf.data, *args))
    if len(result) != len(buf.data):
        raise ValueError("o_trans fn changed the array length")
    return result


def o_trans(buf, fn, out_name=None):
    """Map `fn` over the records of `buf` (one read/write pass per element).

    `fn` receives the whole batch and must return an equal-length array; any
    running state it keeps lives in OM/registers and is invisible to the
    trace.  With `out_name` unset the result replaces the buffer contents in
    place (same region), and must keep the record dtype (ValueError
    otherwise: wider records would write lines the trace never saw);
    otherwise it is `o_trans_merge` of the one buffer.
    """
    if out_name is not None and out_name != buf.name:
        return o_trans_merge([buf], lambda batch, _: fn(batch), out_name)
    result = _mapped(fn, buf)
    if result.dtype != buf.data.dtype:
        raise ValueError("an in-place o_trans cannot change the record dtype")
    buf.trace.zip2(0, buf.name, READ, 0, buf.name, WRITE, 0, len(result))
    assign_records(buf.data, result)
    return buf


def o_trans_merge(bufs, fn, out_name):
    """Concatenate `fn(batch_i, i)` over input buffers, i-major then j-minor, into `out_name`.

    Each part must keep its input's length (ValueError otherwise).
    """
    parts = [_mapped(fn, b, i) for i, b in enumerate(bufs)]
    total = sum(len(p) for p in parts)
    out = Buffer(bufs[0].trace, out_name, np.empty(total, dtype=parts[0].dtype))
    pos = 0
    for b, part in zip(bufs, parts):
        out.trace.zip2(0, b.name, READ, 0, out.name, WRITE, pos, len(part))
        assign_records(out.data[pos:pos + len(part)], part)
        pos += len(part)
    return out


def o_merge(bufs, out_name):
    """Concatenate buffers in order (o_trans_merge with identity payload)."""
    return o_trans_merge(bufs, lambda batch, i: batch, out_name)


def o_split_trans(buf, bucket_fn, sizes, names, arena, dtype=None):
    """Sort by bucket id, then copy each record into its bucket as a `dtype` record.

    Bucket i is the buffer `names[i]`, and `sizes[i]` is its publicly
    declared length; the trace places bucket boundaries at exactly those
    positions.  `bucket_fn` maps the records to ids in [0, len(sizes)); it
    is evaluated once, and the ids are the sort key (as uint64).  A
    bucket holds `with_fields` of its records at `dtype` (the input's own by
    default) and is registered at that record width.  If the actual bucket
    counts disagree, the caller declared a non-public-consistent size and a
    :class:`SizeMismatch` is raised loudly.
    """
    nbuckets = len(sizes)
    if len(names) != nbuckets:
        raise ValueError("need one name per bucket")
    ids = np.asarray(bucket_fn(buf.data), dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= nbuckets):
        raise ValueError("bucket ids out of range")
    counts = np.bincount(ids, minlength=nbuckets)

    o_sort(buf, lambda batch: ids.astype(np.uint64), arena)

    if list(counts) != [int(s) for s in sizes]:
        raise SizeMismatch(
            "declared bucket sizes %s but found %s" % (list(sizes), counts.tolist())
        )

    trace = buf.trace
    buckets = []
    lo = 0
    for name, size in zip(names, sizes):
        size = int(size)
        bucket = Buffer(trace, name, with_fields(buf.data[lo:lo + size], dtype))
        trace.zip2(0, buf.name, READ, lo, name, WRITE, 0, size)
        buckets.append(bucket)
        lo += size
    return buckets


def o_filter(buf, pred_fn, kept, out_name, arena):
    """Keep records with `pred_fn` true; `kept` is the declared public count."""
    n = len(buf.data)
    return o_split_trans(buf, pred_fn, [n - kept, kept],
                         [out_name + ".dropped", out_name], arena)[1]
