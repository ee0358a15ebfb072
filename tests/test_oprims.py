"""Oblivious routine contracts: oracle equality, trace purity, declared sizes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblige.errors import OMUnavailable, SizeMismatch
from oblige.omsim import CACHELINE, ELEMENT, READ, WRITE, Buffer, OMSim
from oblige.oprims import (
    _key_columns,
    _pow2_ceil,
    _pow2_floor,
    _stable_order,
    bitonic_cx_count,
    o_filter,
    o_merge,
    o_sort,
    o_split_trans,
    o_trans,
    o_trans_merge,
)

KEY = np.dtype([("k", "<u8")])


def key_buf(sim, values, name="arr"):
    rows = np.zeros(len(values), dtype=KEY)
    rows["k"] = values
    return sim.buffer_from_rows(name, rows)


def test_o_sort_small():
    sim = OMSim(1 << 12)
    buf = key_buf(sim, [3, 1, 2])
    o_sort(buf, lambda b: b["k"], sim.new_arena())
    assert buf.data["k"].tolist() == [1, 2, 3]


def test_o_sort_trace_ignores_values():
    def digest(values):
        sim = OMSim(1 << 10)
        buf = key_buf(sim, values)
        o_sort(buf, lambda b: b["k"], sim.new_arena())
        return sim.trace.digest()

    assert digest(range(1, 17)) == digest(range(16, 0, -1))


def test_o_sort_matches_oracle_on_random_keys():
    rng = np.random.default_rng(42)
    values = rng.integers(0, 1 << 63, size=10_000)
    sim = OMSim(1 << 12)
    buf = key_buf(sim, values)
    o_sort(buf, lambda b: b["k"], sim.new_arena())
    assert (buf.data["k"] == np.sort(values)).all()


def test_o_sort_is_stable_under_duplicates():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 8, size=300)
    payload = np.arange(300, dtype=np.uint64)
    rows = np.zeros(300, dtype=[("k", "<u8"), ("v", "<u8")])
    rows["k"], rows["v"] = keys, payload
    sim = OMSim(1 << 11)
    buf = sim.buffer_from_rows("arr", rows)
    o_sort(buf, lambda b: b["k"], sim.new_arena())
    order = np.argsort(keys, kind="stable")
    assert (buf.data["v"] == payload[order]).all()


def test_o_sort_cx_count_formula():
    # length 2^10, OM fitting 2^5 scratch records
    rows = np.zeros(1 << 10, dtype=KEY)
    scratch_itemsize = 1 + 8 + 8 + rows.dtype.itemsize
    sim = OMSim((1 << 5) * scratch_itemsize)
    rng = np.random.default_rng(0)
    buf = key_buf(sim, rng.integers(0, 1 << 40, size=1 << 10))
    stats = o_sort(buf, lambda b: b["k"], sim.new_arena())
    assert stats["segment"] == 1 << 5
    assert stats["compare_exchanges"] == bitonic_cx_count(1 << 10, 1 << 5)
    assert stats["compare_exchanges"] == (1 << 9) * 5 * 6 // 2


def test_o_sort_cx_count_zero_when_all_in_om():
    sim = OMSim(1 << 20)
    buf = key_buf(sim, [5, 4, 3, 2, 1])
    stats = o_sort(buf, lambda b: b["k"], sim.new_arena())
    assert stats["compare_exchanges"] == 0
    assert buf.data["k"].tolist() == [1, 2, 3, 4, 5]


def test_o_sort_om_too_small():
    sim = OMSim(16)  # cannot hold two scratch records
    buf = key_buf(sim, [2, 1, 3, 0])
    with pytest.raises(OMUnavailable):
        o_sort(buf, lambda b: b["k"], sim.new_arena())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 62), max_size=70))
def test_o_sort_property(values):
    sim = OMSim(1 << 9)
    buf = key_buf(sim, values)
    o_sort(buf, lambda b: b["k"], sim.new_arena())
    assert buf.data["k"].tolist() == sorted(values)


def test_o_sort_rejects_nan_keys():
    rows = np.zeros(4, dtype=[("x", "<f8")])
    rows["x"] = [1.0, np.nan, 0.5, 2.0]
    sim = OMSim(1 << 12)
    buf = sim.buffer_from_rows("arr", rows)
    with pytest.raises(ValueError, match="NaN"):
        o_sort(buf, lambda b: (b["x"],), sim.new_arena())


# -- the structured network as an oracle ----------------------------------------

def _lex_compare(scratch, fields, ii, ll):
    gt = np.zeros(len(ii), dtype=bool)
    lt = np.zeros(len(ii), dtype=bool)
    eq = np.ones(len(ii), dtype=bool)
    for f in fields:
        a = scratch[f][ii]
        b = scratch[f][ll]
        gt |= eq & (a > b)
        lt |= eq & (a < b)
        eq &= a == b
    return gt, lt


def structured_o_sort(buf, key, arena):
    """The bitonic network run on full (pad, keys, position, record) entries.

    Every compare-exchange gathers and swaps whole scratch entries, and every
    in-OM segment is lexsorted on its entries' fields.  `o_sort` must match
    it in output, trace, stats and OM use.
    """
    n = len(buf.data)
    stats = {"n": n, "padded": 0, "segment": 0, "compare_exchanges": 0}
    if n <= 1:
        return stats

    trace = buf.trace
    cols = _key_columns(key, buf.data)
    padded = _pow2_ceil(n)
    dt = np.dtype(
        [("_pad", "u1")]
        + [("_k%d" % i, c.dtype) for i, c in enumerate(cols)]
        + [("_pos", "<u8"), ("_rec", buf.data.dtype)]
    )
    fields = ["_pad"] + ["_k%d" % i for i in range(len(cols))] + ["_pos"]

    seg_records = _pow2_floor(arena.free_bytes // dt.itemsize)
    if seg_records < 2:
        raise OMUnavailable("OM too small")
    seg = min(seg_records, padded)
    om = arena.alloc(seg * dt.itemsize)

    scratch_name = buf.name + ".sortpad"
    scratch = np.zeros(padded, dtype=dt)
    trace.register(scratch_name, padded, dt.itemsize)

    trace.zip2(0, buf.name, READ, 0, scratch_name, WRITE, 0, n)
    scratch["_rec"][:n] = buf.data
    for i, c in enumerate(cols):
        scratch["_k%d" % i][:n] = c
    scratch["_pos"] = np.arange(padded, dtype=np.uint64)
    trace.seq(0, scratch_name, WRITE, n, padded - n)
    scratch["_pad"][n:] = 1

    def sort_segment(start, ascending):
        trace.seq(0, scratch_name, READ, start, seg)
        view = scratch[start:start + seg]
        order = np.lexsort(tuple(view[f] for f in reversed(fields)))
        scratch[start:start + seg] = view[order if ascending else order[::-1]]
        trace.seq(0, scratch_name, WRITE, start, seg)

    for t in range(padded // seg):
        sort_segment(t * seg, ascending=t % 2 == 0)

    cx = 0
    k = 2 * seg
    while k <= padded:
        j = k // 2
        while j >= seg:
            trace.cx_pass(0, scratch_name, j, padded)
            half = np.arange(padded // 2)
            i = (half // j) * (2 * j) + (half % j)
            ll = i + j
            asc = (i & k) == 0
            gt, lt = _lex_compare(scratch, fields, i, ll)
            swap = np.where(asc, gt, lt)
            si, sl = i[swap], ll[swap]
            tmp = scratch[si].copy()
            scratch[si] = scratch[sl]
            scratch[sl] = tmp
            cx += padded // 2
            j //= 2
        for start in range(0, padded, seg):
            sort_segment(start, ascending=(start & k) == 0)
        k *= 2

    trace.zip2(0, scratch_name, READ, 0, buf.name, WRITE, 0, n)
    buf.data[:] = scratch["_rec"][:n]
    arena.free(om)
    stats.update(padded=padded, segment=seg, compare_exchanges=cx)
    return stats


KEY_DTYPES = ["u1", "<u8", "<i8", "<f8"]


@st.composite
def sort_cases(draw):
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    dtypes = draw(st.lists(st.sampled_from(KEY_DTYPES), min_size=1, max_size=3))
    distinct = draw(st.sampled_from([1, 2, 3, 17, 1 << 40]))
    seed = draw(st.integers(0, (1 << 32) - 1))
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, dtype=[("k%d" % i, d) for i, d in enumerate(dtypes)]
                    + [("v", "<u8")])
    for i, d in enumerate(dtypes):
        vals = rng.integers(-distinct, distinct, size=n)
        if d == "u1":
            vals %= 256
        elif d == "<u8":
            top = (rng.random(n) < 0.5).astype(np.uint64) << np.uint64(63)
            vals = np.abs(vals).astype(np.uint64) | top
        elif d == "<f8":
            vals = vals * 0.25
            vals[(vals == 0) & (rng.random(n) < 0.5)] = -0.0
        rows["k%d" % i] = vals
    rows["v"] = np.arange(n)
    # OM from too small for two entries up to a segment of at least P.
    entry = 1 + sum(np.dtype(d).itemsize for d in dtypes) + 8 + rows.dtype.itemsize
    seg_bits = draw(st.integers(0, _pow2_ceil(max(n, 1)).bit_length() + 1))
    om = (1 << seg_bits) * entry + draw(st.integers(0, entry - 1))
    return rows, om


def _sort_run(sort, rows, om, granularity):
    sim = OMSim(om, granularity=granularity)
    buf = sim.buffer_from_rows("arr", rows)
    arena = sim.new_arena()
    try:
        stats = sort(buf, lambda b: tuple(b[f] for f in b.dtype.names[:-1]), arena)
    except OMUnavailable:
        stats = "OMUnavailable"
    return (buf.data.tobytes(), sim.trace.worker_digests(),
            [e.astuple() for e in sim.trace.events()], stats, arena.peak, arena.used)


@settings(max_examples=80, deadline=None)
@given(sort_cases())
def test_o_sort_matches_structured_network(case):
    rows, om = case
    for granularity in (ELEMENT, CACHELINE):
        assert _sort_run(o_sort, rows, om, granularity) \
            == _sort_run(structured_o_sort, rows, om, granularity)


SPECIAL_KEYS = {
    "u1": [0, 1, 255],
    "<u8": [0, 1, (1 << 64) - 1, 1 << 63],
    "<i8": [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1],
    "<f8": [-0.0, 0.0, np.inf, -np.inf, 1.5, -1.5, 5e-324],
}


@st.composite
def order_cases(draw):
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, (1 << 32) - 1)))
    cols = []
    for dtype in draw(st.lists(st.sampled_from(KEY_DTYPES), min_size=1, max_size=3)):
        mode = draw(st.sampled_from(["random", "few", "special", "constant"]))
        special = np.array(SPECIAL_KEYS[dtype], dtype=dtype)
        if mode == "random":
            col = rng.integers(0, 256, size=(n, np.dtype(dtype).itemsize),
                               dtype=np.uint8).view(dtype).reshape(-1)
            if dtype == "<f8":
                col[np.isnan(col)] = 0.0
        elif mode == "few":
            col = rng.choice(special[:2], size=n)
        elif mode == "special":
            col = rng.choice(special, size=n)
        else:
            col = np.full(n, special[rng.integers(len(special))], dtype=dtype)
        cols.append(col)
    return tuple(cols)


@settings(max_examples=200, deadline=None)
@given(order_cases())
def test_stable_order_equals_lexsort(cols):
    assert np.array_equal(_stable_order(cols), np.lexsort(cols[::-1]))


def test_o_sort_output_comes_from_the_network(monkeypatch):
    # With the super-OM passes knocked out the ranks stay unsorted, and so
    # must the records: o_sort may not place them by the key order directly.
    import oblige.oprims as oprims

    monkeypatch.setattr(oprims, "_cx_pass", lambda rank, j, k: None)
    values = np.arange(64)[::-1]
    sim = OMSim(4 * (1 + 8 + 8 + KEY.itemsize))
    buf = key_buf(sim, values)
    oprims.o_sort(buf, lambda b: b["k"], sim.new_arena())
    assert buf.data["k"].tolist() != sorted(values)


def _where_cx_pass(rank, j, k):
    """The masked pass `_cx_pass` replaced: a per-row direction and np.where."""
    pairs = rank.reshape(-1, 2, j)
    asc = ((np.arange(len(pairs)) * (2 * j) & k) == 0)[:, None]
    lo, hi = pairs[:, 0], pairs[:, 1]
    small = np.minimum(lo, hi)
    large = np.maximum(lo, hi)
    lo[...] = np.where(asc, small, large)
    hi[...] = np.where(asc, large, small)


def test_cx_pass_matches_masked_pass_at_every_stage_and_stride():
    from oblige.oprims import _cx_pass

    rng = np.random.default_rng(11)
    for bits in range(1, 13):
        padded = 1 << bits
        k = 2
        while k <= padded:
            j = k // 2
            while j >= 1:
                rank = rng.permutation(padded).astype(np.int32)
                expect = rank.copy()
                _where_cx_pass(expect, j, k)
                _cx_pass(rank, j, k)
                assert rank.tobytes() == expect.tobytes(), (padded, j, k)
                j //= 2
            k *= 2


@pytest.mark.parametrize("segments", [1, 2, 4])
def test_o_sort_matches_structured_network_at_few_segments(segments):
    # One segment skips the descending reversal; two reverse through a
    # (1, 2, 1, seg) view.
    rng = np.random.default_rng(segments)
    rows = np.zeros(40, dtype=[("k0", "<u8"), ("v", "<u8")])
    rows["k0"] = rng.integers(0, 9, size=40)
    rows["v"] = np.arange(40)
    entry = 1 + 8 + 8 + rows.dtype.itemsize
    om = (64 // segments) * entry
    for granularity in (ELEMENT, CACHELINE):
        got = _sort_run(o_sort, rows, om, granularity)
        assert got[3]["segment"] * segments == got[3]["padded"] == 64
        assert got == _sort_run(structured_o_sort, rows, om, granularity)
    assert got[0] == rows[np.argsort(rows["k0"], kind="stable")].tobytes()


def test_o_sort_refuses_more_than_int32_ranks():
    # Zero-width records: 2^31 + 1 of them take no memory.
    sim = OMSim(1 << 12)
    buf = Buffer(sim.trace, "huge", np.zeros((1 << 31) + 1, dtype=np.dtype([])))
    with pytest.raises(ValueError, match="2\\^31"):
        o_sort(buf, lambda b: np.broadcast_to(np.int64(0), len(b)), sim.new_arena())


def test_o_trans_examples():
    sim = OMSim(1 << 10)
    buf = key_buf(sim, [1, 2, 3])

    def plus_one(batch):
        out = batch.copy()
        out["k"] += 1
        return out

    out = o_trans(buf, plus_one, out_name="out")
    assert out.data["k"].tolist() == [2, 3, 4]

    empty = key_buf(sim, [], name="empty")
    assert len(o_trans(empty, plus_one, out_name="eout").data) == 0


def test_o_trans_in_place_refuses_a_new_dtype():
    # 8-byte records widened to 16 would write lines 0 and 1 of a 64-byte
    # granularity trace that registered the buffer at 8 bytes.
    sim = OMSim(1 << 10, granularity=CACHELINE)
    buf = key_buf(sim, list(range(8)))
    before = sim.trace.digest()

    def widen(batch):
        out = np.zeros(len(batch), dtype=[("k", "<u8"), ("w", "<u8")])
        out["k"] = batch["k"]
        return out

    with pytest.raises(ValueError, match="record dtype"):
        o_trans(buf, widen)
    assert sim.trace.digest() == before
    assert o_trans(buf, widen, out_name="wide").data.dtype.itemsize == 16


def _running_max(batch):
    out = batch.copy()
    out["k"] = np.maximum.accumulate(batch["k"])
    return out


def test_o_trans_stateful_running_max():
    sim = OMSim(1 << 10)
    buf = key_buf(sim, [3, 1, 4])
    out = o_trans(buf, _running_max, out_name="o")
    assert out.data["k"].tolist() == [3, 3, 4]


def test_o_trans_trace_equals_identity_trace():
    def digest(fn, values):
        sim = OMSim(1 << 10)
        buf = key_buf(sim, values)
        o_trans(buf, fn, out_name="o")
        return sim.trace.digest()

    assert digest(_running_max, [3, 1, 4]) == digest(lambda b: b, [9, 9, 9])


def test_o_trans_merge_order_and_empty():
    sim = OMSim(1 << 10)
    a = key_buf(sim, [10], name="a")
    bc = key_buf(sim, [20, 30], name="bc")

    def tag(batch, i):
        out = np.zeros(len(batch), dtype=[("k", "<u8"), ("src", "<u8")])
        out["k"], out["src"] = batch["k"], i
        return out

    merged = o_trans_merge([a, bc], tag, "m")
    assert merged.data["k"].tolist() == [10, 20, 30]
    assert merged.data["src"].tolist() == [0, 1, 1]

    e1 = key_buf(sim, [], name="e1")
    e2 = key_buf(sim, [], name="e2")
    assert len(o_trans_merge([e1, e2], tag, "m2").data) == 0


@pytest.mark.parametrize("change", [lambda rows: rows[1:],
                                    lambda rows: np.concatenate([rows, rows[:1]])],
                         ids=["shorter", "longer"])
def test_o_trans_merge_refuses_a_part_of_another_length(change):
    sim = OMSim(1 << 10)
    a = key_buf(sim, [1, 2], name="a")
    b = key_buf(sim, [3, 4, 5], name="b")
    before = sim.trace.digest()
    with pytest.raises(ValueError, match="length"):
        o_trans_merge([a, b], lambda batch, i: change(batch) if i else batch, "m")
    assert sim.trace.digest() == before


def test_o_trans_merge_trace_purity():
    def digest(values_a, values_b):
        sim = OMSim(1 << 10)
        a = key_buf(sim, values_a, name="a")
        b = key_buf(sim, values_b, name="b")
        o_merge([a, b], "m")
        return sim.trace.digest()

    assert digest([1], [2, 3]) == digest([7], [8, 9])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1 << 30), max_size=20),
       st.lists(st.integers(0, 1 << 30), max_size=20))
def test_o_merge_equals_concatenation(xs, ys):
    sim = OMSim(1 << 10)
    a = key_buf(sim, xs, name="a")
    b = key_buf(sim, ys, name="b")
    merged = o_merge([a, b], "m")
    assert merged.data["k"].tolist() == xs + ys


def test_o_split_trans_example():
    sim = OMSim(1 << 10)
    buf = key_buf(sim, [2, 1, 2, 0])
    buckets = o_split_trans(
        buf, lambda b: b["k"].astype(np.int64),
        [1, 1, 2], ["bkt0", "bkt1", "bkt2"], sim.new_arena(),
    )
    assert [b.data["k"].tolist() for b in buckets] == [[0], [1], [2, 2]]


def test_o_split_trans_needs_one_name_per_bucket():
    sim = OMSim(1 << 10)
    buf = key_buf(sim, [1, 0])
    with pytest.raises(ValueError, match="one name per bucket"):
        o_split_trans(buf, lambda b: b["k"].astype(np.int64),
                      [1, 1], ["only"], sim.new_arena())


def test_o_split_trans_size_mismatch():
    sim = OMSim(1 << 10)
    buf = key_buf(sim, [2, 1, 2, 0])
    with pytest.raises(SizeMismatch):
        o_split_trans(buf, lambda b: b["k"].astype(np.int64),
                      [1, 2, 1], ["bkt0", "bkt1", "bkt2"], sim.new_arena())


def test_o_split_trans_evaluates_bucket_fn_twice():
    # Once for the range check and counts, once as o_sort's key.
    calls = []

    def bucket(batch):
        calls.append(len(batch))
        return batch["k"].astype(np.int64)

    sim = OMSim(1 << 10)
    buf = key_buf(sim, [2, 1, 2, 0])
    o_split_trans(buf, bucket, [1, 1, 2], ["bkt0", "bkt1", "bkt2"],
                  sim.new_arena())
    assert calls == [4, 4]
    calls.clear()
    with pytest.raises(SizeMismatch, match=r"declared bucket sizes \[1, 2, 1\] but "
                                           r"found \[1, 1, 2\]"):
        o_split_trans(key_buf(sim, [2, 1, 2, 0], name="b2"), bucket,
                      [1, 2, 1], ["c0", "c1", "c2"], sim.new_arena())
    assert calls == [4, 4]


def test_o_split_trans_equals_sort_then_trans():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 4, size=64)
    payload = rng.integers(0, 1 << 40, size=64)
    rows = np.zeros(64, dtype=[("k", "<u8"), ("v", "<u8")])
    rows["k"], rows["v"] = keys, payload
    sizes = np.bincount(keys, minlength=4).tolist()

    sim = OMSim(1 << 11)
    buf = sim.buffer_from_rows("arr", rows)
    buckets = o_split_trans(
        buf, lambda b: b["k"].astype(np.int64),
        sizes, ["bkt%d" % i for i in range(4)], sim.new_arena(),
    )
    concatenated = np.concatenate([b.data for b in buckets])

    sim2 = OMSim(1 << 11)
    buf2 = sim2.buffer_from_rows("arr", rows)
    o_sort(buf2, lambda b: b["k"], sim2.new_arena())
    via_sort = o_trans(buf2, lambda b: b, out_name="out")
    assert (concatenated == via_sort.data).all()


def test_o_split_trans_casts_buckets_to_a_narrower_dtype():
    rows = np.zeros(6, dtype=[("k", "<u8"), ("v", "<u8"), ("w", "<u8")])
    rows["k"], rows["v"], rows["w"] = [1, 0, 1, 0, 1, 1], np.arange(6), 9
    narrow = np.dtype([("v", "<u8"), ("k", "<u4")])  # fewer fields, reordered
    sim = OMSim(1 << 10)
    buf = sim.buffer_from_rows("arr", rows)
    buckets = o_split_trans(buf, lambda b: b["k"].astype(np.int64), [2, 4],
                            ["bkt0", "bkt1"], sim.new_arena(), dtype=narrow)
    for bucket in buckets:
        assert bucket.data.dtype == narrow
        assert sim.trace._regions[bucket.name].width == narrow.itemsize
    assert [b.data["v"].tolist() for b in buckets] == [[1, 3], [0, 2, 4, 5]]
    assert [b.data["k"].tolist() for b in buckets] == [[0, 0], [1, 1, 1, 1]]


def test_o_filter_examples():
    sim = OMSim(1 << 10)
    buf = key_buf(sim, [1, 2, 3, 4])
    kept = o_filter(buf, lambda b: (b["k"] % 2 == 0).astype(np.int64),
                    2, "kept", sim.new_arena())
    assert kept.data["k"].tolist() == [2, 4]

    none = key_buf(sim, [1, 3], name="odds")
    out = o_filter(none, lambda b: (b["k"] % 2 == 0).astype(np.int64),
                   0, "none", sim.new_arena())
    assert len(out.data) == 0


def test_trace_pure_function_of_public_shape():
    # Randomized pair testing across all routines at once.
    rng = np.random.default_rng(5)

    def one(seed):
        r = np.random.default_rng(seed)
        sim = OMSim(1 << 10)
        buf = key_buf(sim, r.integers(0, 99, size=33))
        arena = sim.new_arena()
        o_sort(buf, lambda b: b["k"], arena)
        o_trans(buf, lambda b: b, out_name="t")
        kept = int((buf.data["k"] % 3 == 0).sum())
        # declared sizes must match the secret data here, so fix them by
        # construction instead: bucket on a public derived index
        o_split_trans(buf, lambda b: np.arange(33, dtype=np.int64) % 3,
                      [11, 11, 11], ["b0", "b1", "b2"], arena)
        return sim.trace.digest()

    assert one(1) == one(2) == one(3)
