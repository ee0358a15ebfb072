"""Arena budgeting, trace recording, quantization and digest behavior."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblige.errors import CapacityExceeded
from oblige.omsim import (
    _X,
    CACHELINE,
    ELEMENT,
    READ,
    WRITE,
    AccessTrace,
    Buffer,
    OMArena,
    OMSim,
    assign_records,
    copy_records,
    gather_records,
    with_fields,
)
from oblige.oprims import o_trans


def test_alloc_exact_fit():
    arena = OMArena(1024)
    a = arena.alloc(512)
    b = arena.alloc(512)
    assert arena.used == 1024
    assert arena.peak == 1024
    arena.free(a)
    arena.free(b)
    assert arena.used == 0


def test_alloc_over_capacity():
    arena = OMArena(1024)
    with pytest.raises(CapacityExceeded):
        arena.alloc(1025)


def test_alloc_budget_returns_on_free():
    arena = OMArena(100)
    a = arena.alloc(40)
    b = arena.alloc(40)
    with pytest.raises(CapacityExceeded):
        arena.alloc(21)
    arena.free(a)
    arena.free(b)
    arena.alloc(100)  # the whole budget is back
    assert (arena.used, arena.peak, arena.free_bytes) == (100, 100, 0)
    with pytest.raises(ValueError):
        arena.free(a)
    with pytest.raises(ValueError):
        arena.alloc(0)


def test_scan_budget_two_chunks():
    # The scan contract: reserve plus two k-record chunk buffers.
    from oblige.grid import RESERVE_BYTES, choose_chunk_size

    s = 1 << 20
    k = choose_chunk_size(s, 8)
    arena = OMArena(s)
    arena.alloc(RESERVE_BYTES)
    arena.alloc(k * 8)
    arena.alloc(k * 8)
    assert arena.peak == 2 * k * 8 + RESERVE_BYTES <= s


def test_record_quantizes_byte_offsets():
    trace = AccessTrace(granularity=CACHELINE)
    trace.register("edges", 100, width=1)
    trace.seq(0, "edges", READ, 70, 1)  # byte 70 -> line 1
    (ev,) = list(trace.events())
    assert ev.offset == 1 and ev.region == "edges" and ev.kind == READ


def test_element_granularity_uses_record_index():
    trace = AccessTrace(granularity=ELEMENT)
    trace.register("x", 10, width=16)
    trace.seq(0, "x", READ, 4, 1)  # bytes 64..79 of 16-byte records
    (ev,) = list(trace.events())
    assert ev.offset == 4


@pytest.mark.parametrize("granularity", [ELEMENT, CACHELINE])
def test_rebinding_a_region_keeps_earlier_records(granularity):
    trace = AccessTrace(granularity=granularity)
    trace.register("r", 64, 8)
    trace.seq(0, "r", READ, 0, 64)
    before = trace.digest(), [ev.astuple() for ev in trace.events()]
    trace.register("r", 64, 16)
    assert (trace.digest(), [ev.astuple() for ev in trace.events()]) == before
    # Records taken after the rebind use the new width.
    trace.seq(0, "r", READ, 0, 64)
    assert [ev.offset for ev in trace.events()][-1] == (63 if granularity is ELEMENT
                                                        else 63 * 16 // 64)


def test_om_accesses_invisible():
    sim = OMSim(4096)
    arena = sim.new_arena()
    handle = arena.alloc(16 * 8)
    data = np.arange(16, dtype="<u8")  # the allocation's storage
    data[3] = 99
    arena.free(handle)
    assert list(sim.trace.events()) == []


def test_buffer_registers_and_buffer_from_rows_records_one_write():
    sim = OMSim(4096)
    rows = np.arange(5, dtype="<u8").view([("v", "<u8")])
    Buffer(sim.trace, "plain", rows)
    assert list(sim.trace.events()) == []
    buf = sim.buffer_from_rows("copied", rows)
    assert buf.data is not rows and buf.data.tobytes() == rows.tobytes()
    assert [ev.astuple() for ev in sim.trace.events()] \
        == [(0, "copied", i, "write") for i in range(5)]


def test_unregistered_region_rejected():
    trace = AccessTrace(ELEMENT)
    with pytest.raises(KeyError):
        trace.seq(0, "nope", READ, 0, 1)


def test_replay_determinism():
    def run():
        sim = OMSim(4096)
        buf = sim.buffer_from_rows("a", np.arange(7, dtype="<u8").view([("v", "<u8")]))
        sim.trace.seq(0, buf.name, READ, 0, 7)
        copy_records(buf.data[0:7])
        sim.trace.seq(0, buf.name, WRITE, 2, 3)
        assign_records(buf.data[2:5], buf.data[2:5])
        return [ev.astuple() for ev in sim.trace.events()], sim.trace.digest()

    first = run()
    second = run()
    assert first == second


def test_digest_empty_and_order():
    t1 = AccessTrace(granularity=ELEMENT)
    assert t1.digest() == AccessTrace(granularity=ELEMENT).digest()
    t1.register("r", 4, 8)
    t2 = AccessTrace(granularity=ELEMENT)
    t2.register("r", 4, 8)
    t1.seq(0, "r", READ, 0, 2)
    t2.seq(0, "r", READ, 0, 2)
    assert t1.digest() == t2.digest()
    t2.seq(0, "r", READ, 2, 1)
    assert t1.digest() != t2.digest()


def test_digest_worker_order_independent():
    def run(order):
        trace = AccessTrace(granularity=ELEMENT)
        trace.register("r", 8, 8)
        for w in order:
            trace.seq(w, "r", READ, w, 2)
        return trace.digest()

    assert run([0, 1, 2]) == run([2, 0, 1])


def test_digest_collision_sanity():
    # Any single-event offset mutation must change the digest.
    rng = np.random.default_rng(0)
    base_offsets = rng.integers(0, 1 << 20, size=64)

    def digest_of(offsets):
        trace = AccessTrace(granularity=ELEMENT)
        trace.register("r", 1 << 21, 8)
        trace.points(0, "r", READ, offsets)
        return trace.digest()

    base = digest_of(base_offsets)
    seen = {base}
    for _ in range(10_000):
        mutated = base_offsets.copy()
        pos = rng.integers(0, len(mutated))
        mutated[pos] = (mutated[pos] + rng.integers(1, 1 << 20)) % (1 << 21)
        if (mutated == base_offsets).all():
            continue
        d = digest_of(mutated)
        assert d != base
        seen.add(d)
    assert len(seen) > 9_000  # distinct mutations hash apart too


def test_zip_interleaves_events():
    trace = AccessTrace(granularity=ELEMENT)
    trace.register("a", 4, 8)
    trace.register("b", 4, 8)
    trace.zip2(0, "a", READ, 0, "b", WRITE, 0, 2)
    got = [ev.astuple() for ev in trace.events()]
    assert got == [
        (0, "a", 0, "read"), (0, "b", 0, "write"),
        (0, "a", 1, "read"), (0, "b", 1, "write"),
    ]


def test_cx_pass_expansion():
    trace = AccessTrace(granularity=ELEMENT)
    trace.register("r", 4, 8)
    trace.cx_pass(0, "r", 2, 4)
    got = [ev.astuple() for ev in trace.events()]
    assert got == [
        (0, "r", 0, "read"), (0, "r", 2, "read"),
        (0, "r", 0, "write"), (0, "r", 2, "write"),
        (0, "r", 1, "read"), (0, "r", 3, "read"),
        (0, "r", 1, "write"), (0, "r", 3, "write"),
    ]


def test_first_divergence_located():
    t1 = AccessTrace(granularity=ELEMENT)
    t2 = AccessTrace(granularity=ELEMENT)
    for t in (t1, t2):
        t.register("r", 16, 8)
    t1.seq(0, "r", READ, 0, 3)
    t2.seq(0, "r", READ, 0, 2)
    t2.points(0, "r", READ, [9])
    worker, idx, a, b = t1.first_divergence(t2)
    assert (worker, idx) == (0, 2)
    assert a.offset == 2 and b.offset == 9
    assert t1.first_divergence(t1) is None


def test_element_equality_implies_line_equality():
    # Quantization is a function of the element offsets alone.
    def traces(granularity):
        t = AccessTrace(granularity=granularity)
        t.register("r", 64, 16)
        t.seq(0, "r", READ, 0, 64)
        return t.digest()

    assert traces(ELEMENT) != traces(64)  # different offset domains
    # but identical element traces always map to identical line traces
    ta = AccessTrace(granularity=64)
    tb = AccessTrace(granularity=64)
    for t in (ta, tb):
        t.register("r", 64, 16)
        t.seq(0, "r", READ, 8, 4)
    assert ta.digest() == tb.digest()


def test_disabled_trace_records_nothing():
    sim = OMSim(4096, enabled=False)
    buf = sim.buffer_from_rows("a", np.zeros(4, dtype=[("v", "<u8")]))
    sim.trace.seq(0, buf.name, READ, 0, 4)
    copy_records(buf.data[0:4])
    assert list(sim.trace.events()) == []


# -- record validation ----------------------------------------------------------

def _trace_ab():
    trace = AccessTrace(granularity=ELEMENT)
    trace.register("a", 16, 8)
    trace.register("b", 8, 8)
    return trace


@pytest.mark.parametrize("stride,length", [(0, 0), (0, 8), (-1, 8), (2, 6), (4, 4), (3, 9)])
def test_cx_pass_rejects_partial_pairs(stride, length):
    with pytest.raises(ValueError):
        _trace_ab().cx_pass(0, "a", stride, length)


def test_cx_pass_rejects_length_past_region():
    with pytest.raises(IndexError):
        _trace_ab().cx_pass(0, "a", 2, 20)


@pytest.mark.parametrize("sa,sb,count", [(14, 0, 3), (0, 6, 3), (-1, 0, 2), (0, -1, 2)])
def test_zip2_bounds_checked(sa, sb, count):
    with pytest.raises(IndexError):
        _trace_ab().zip2(0, "a", READ, sa, "b", WRITE, sb, count)


@pytest.mark.parametrize("offsets", [[16], [3, 16], [-1]])
def test_points_bounds_checked(offsets):
    with pytest.raises(IndexError):
        _trace_ab().points(0, "a", READ, offsets)


def test_in_region_records_accepted():
    trace = _trace_ab()
    trace.cx_pass(0, "a", 4, 16)
    trace.zip2(0, "a", READ, 8, "b", WRITE, 0, 8)
    trace.points(0, "a", READ, [0, 15])
    assert trace.mark() == {0: 3}


# -- byte-wise record assignment --------------------------------------------------

REC_DTYPE = np.dtype([("k", "<u8"), ("tag", "u1"), ("w", "<f8")])


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, dtype=REC_DTYPE)
    rows["k"] = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
    rows["tag"] = rng.integers(0, 256, size=n)
    rows["w"] = rng.standard_normal(n)
    rows["w"][:3] = [-0.0, np.inf, np.nan]
    return rows


def test_assign_records_strided_bytes():
    src = _records(40)
    dst = np.zeros(20, dtype=REC_DTYPE)
    assign_records(dst, src[::2])
    assert dst.tobytes() == src[::2].copy().tobytes()
    # and into a strided destination
    wide = np.zeros(40, dtype=REC_DTYPE)
    assign_records(wide[1::2], src[:20])
    assert wide[1::2].tobytes() == src[:20].tobytes()
    assert not wide[0::2].tobytes().strip(b"\0")


def test_assign_records_converts_other_dtypes():
    dst = np.zeros(3, dtype=[("v", "<u8")])
    assign_records(dst, np.array([(1,), (2,), (3,)], dtype=[("v", "<u4")]))
    assert dst["v"].tolist() == [1, 2, 3]


_FIELD_TYPES = ["<u8", "<u4", "u1", "<f8"]


@st.composite
def record_dtypes(draw):
    names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    return np.dtype([(name, draw(st.sampled_from(_FIELD_TYPES))) for name in names])


@settings(max_examples=300, deadline=None)
@given(record_dtypes(), record_dtypes(), st.booleans(), st.booleans(),
       st.integers(0, 6), st.data())
def test_with_fields_equals_per_field_construction(source, target, same, strided, n, data):
    byte = st.integers(0, 255)  # exact in every field type
    base = np.zeros(2 * n if strided else n, dtype=source)
    for name in source.names:
        base[name] = data.draw(st.lists(byte, min_size=len(base), max_size=len(base)))
    rows = base[::2] if strided else base
    if same:
        target = source
    values = {name: data.draw(st.one_of(byte, st.lists(byte, min_size=n, max_size=n)
                                        .map(np.array)))
              for name in data.draw(st.lists(st.sampled_from(target.names), unique=True))}

    want = np.zeros(n, dtype=target)
    for name in target.names:
        if name in values:
            want[name] = values[name]
        elif name in source.names:
            want[name] = rows[name]
    got = with_fields(rows, None if same and data.draw(st.booleans()) else target, **values)
    assert got.dtype == target and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, base)
    if same:
        ref = copy_records(rows)
        for name, value in values.items():
            ref[name] = value
        assert got.tobytes() == ref.tobytes()


def _random_rows(dtype, n, seed):
    raw = np.random.default_rng(seed).integers(0, 256, size=n * dtype.itemsize,
                                               dtype=np.uint8)
    return raw.view(dtype)


@pytest.mark.parametrize("which", ["edge", "s", "strided"])
def test_gather_records_equals_fancy_index_bytes(which):
    from oblige.grid import EDGE_DTYPE
    from oblige.pipeline import S_DTYPE

    assert EDGE_DTYPE.itemsize == 17  # packed, no alignment padding
    rows = {"edge": _random_rows(EDGE_DTYPE, 50, 1),
            "s": _random_rows(S_DTYPE, 50, 2),
            "strided": _records(150, seed=3)[::3]}[which]
    rng = np.random.default_rng(4)
    for index in (rng.permutation(50), rng.integers(-50, 50, size=80),
                  np.array([-1, -50, 0, 49]), np.array([], dtype=np.intp),
                  np.array([], dtype=np.int32)):
        got = gather_records(rows, index)
        assert got.dtype == rows.dtype and got.shape == index.shape
        assert got.tobytes() == rows[index].tobytes()
    for bad in ([50], [-51], [0, 1 << 40]):
        with pytest.raises(IndexError):
            gather_records(rows, np.array(bad))


def test_buffer_write_strided_rows_byte_equal():
    sim = OMSim(4096)
    buf = sim.buffer_from_rows("a", np.zeros(16, dtype=REC_DTYPE))
    rows = _records(10, seed=1)
    sim.trace.seq(0, buf.name, WRITE, 3, 5)
    assign_records(buf.data[3:8], rows[::2])
    assert buf.data[3:8].tobytes() == rows[::2].copy().tobytes()
    assert buf.data[:3].tobytes() == bytes(3 * REC_DTYPE.itemsize)


def test_o_trans_in_place_byte_equal():
    sim = OMSim(4096)
    rows = _records(12, seed=2)
    buf = sim.buffer_from_rows("a", rows)
    out = o_trans(buf, lambda batch: batch[::-1])
    assert out is buf
    assert buf.data.tobytes() == rows[::-1].copy().tobytes()


# -- the digest against its definition ----------------------------------------

P127 = (1 << 127) - 1


def explicit_worker_digests(trace):
    """The documented hash, evaluated event by event."""
    out = {}
    for w in sorted(trace._streams):
        h = n = 0
        for ev in trace.events(w):
            tag = int.from_bytes(hashlib.blake2b(ev.region.encode(), digest_size=4).digest(),
                                 "little")
            e = 1 + ev.offset + (ev.kind << 64) + (tag << 65)
            h = (h * _X + e) % P127
            n += 1
        out[w] = hashlib.sha256(b"%d:%d" % (n, h)).hexdigest()
    return out


REGIONS = [("r0", 300, 8), ("r1", 260, 17), ("r2", 200, 40), ("r3", 128, 1), ("r4", 96, 128)]


LANE = st.tuples(st.integers(0, 1),               # region
                 st.sampled_from([READ, WRITE]),
                 st.integers(0, 64),              # start
                 st.one_of(st.just(0), st.integers(1, 80)))  # rise
RUN = st.tuples(st.lists(LANE, min_size=1, max_size=2), st.integers(0, 24))


OPS = st.tuples(
    st.sampled_from(["seq", "zip", "cx", "pts", "rep"]),
    st.integers(0, 2),                          # worker
    st.integers(0, len(REGIONS) - 1),           # region
    st.integers(0, len(REGIONS) - 1),           # second region (zip)
    st.sampled_from([READ, WRITE]),
    st.sampled_from([READ, WRITE]),
    st.integers(0, 1 << 16),                    # start
    st.integers(0, 1 << 16),                    # second start / stride pick
    st.integers(0, 1 << 16),                    # count
    st.lists(st.integers(0, 1 << 16), max_size=12),
    st.lists(RUN, min_size=1, max_size=3),      # repeat runs, lane region 0/1 = the two regions
)


@st.composite
def traces(draw):
    granularity = draw(st.sampled_from([ELEMENT, 1, 8, 24, 32, 64]))
    return granularity, draw(st.lists(OPS, max_size=10))


def build(granularity, ops):
    trace = AccessTrace(granularity=granularity)
    for name, length, width in REGIONS:
        trace.register(name, length, width)
    for code, w, ra, rb, ka, kb, x, y, z, pts, runs in ops:
        name, length, _ = REGIONS[ra]
        if code == "seq":
            start = x % length
            trace.seq(w, name, ka, start, z % (length - start + 1))
        elif code == "zip":
            other, olen, _ = REGIONS[rb]
            count = z % (min(length, olen) + 1)
            trace.zip2(w, name, ka, x % (length - count + 1), other, kb,
                       y % (olen - count + 1), count)
        elif code == "cx":
            stride = [1, 2, 3, 4, 5, 7, 8, 16, 17, 32, 64][y % 11]
            pairs = length // (2 * stride)
            trace.cx_pass(w, name, stride, 2 * stride * (z % (pairs + 1)))
        elif code == "pts":
            trace.points(w, name, ka, [p % length for p in pts])
        else:
            # The first copy fits every region (start <= 64, length <= 24, regions >= 96);
            # the count keeps the last copy inside too.
            spec, copies = [], 200
            for lanes, run_length in runs:
                regions, kinds, starts, rises = zip(*lanes)
                for r, x0, rise in zip(regions, starts, rises):
                    if rise:
                        room = REGIONS[(ra, rb)[r]][1] - x0 - run_length
                        copies = min(copies, room // rise + 1)
                names = tuple(REGIONS[(ra, rb)[r]][0] for r in regions)
                spec.append((names, kinds, starts, run_length, rises))
            trace.repeat(w, spec, 1 + z % copies)
    return trace


@settings(max_examples=300, deadline=None)
@given(traces())
def test_worker_digests_match_explicit_hash(case):
    trace = build(*case)
    assert trace.worker_digests() == explicit_worker_digests(trace)


@settings(max_examples=60, deadline=None)
@given(traces(), st.data())
def test_stage_digests_match_explicit_hash(case, data):
    trace = build(*case)
    streams = {w: list(s) for w, s in trace._streams.items()}
    cut = {w: data.draw(st.integers(0, len(s))) for w, s in streams.items()}
    sub = AccessTrace(granularity=trace.granularity)
    sub._regions = trace._regions
    sub._streams = {w: s[cut[w]:] for w, s in streams.items()}
    assert trace.worker_digests(start=cut) == explicit_worker_digests(sub)


def test_worker_digests_window_excludes_workers_that_start_after_it():
    trace = AccessTrace(granularity=ELEMENT)
    trace.register("a", 8, 8)
    trace.seq(0, "a", READ, 0, 2)
    m0 = trace.mark()
    m1 = trace.mark()
    trace.seq(1, "a", READ, 0, 3)  # worker 1 has no stream at either mark
    window = trace.worker_digests(start=m0, end=m1)
    empty = hashlib.sha256(b"0:0").hexdigest()
    assert window == {0: empty, 1: empty}


# -- the same events in different recorded forms ------------------------------

def _pair(granularity=ELEMENT):
    out = []
    for _ in range(2):
        trace = AccessTrace(granularity=granularity)
        trace.register("a", 4096, 24)
        trace.register("b", 4096, 8)
        out.append(trace)
    return out


@pytest.mark.parametrize("granularity", [ELEMENT, 8, 64])
def test_seq_split_in_two_digests_alike(granularity):
    one, two = _pair(granularity)
    one.seq(0, "a", READ, 5, 300)
    two.seq(0, "a", READ, 5, 123)
    two.seq(0, "a", READ, 128, 177)
    assert one.digest() == two.digest()
    assert one.first_divergence(two) is None


@pytest.mark.parametrize("granularity", [ELEMENT, 8, 64])
def test_seq_and_points_digest_alike(granularity):
    one, two = _pair(granularity)
    one.seq(1, "a", WRITE, 7, 100)
    two.points(1, "a", WRITE, range(7, 107))
    assert one.digest() == two.digest()


def test_zip_of_one_and_two_single_records_digest_alike():
    one, two = _pair(ELEMENT)
    one.zip2(0, "a", READ, 3, "b", WRITE, 9, 1)
    two.seq(0, "a", READ, 3, 1)
    two.seq(0, "b", WRITE, 9, 1)
    assert one.digest() == two.digest()


@pytest.mark.parametrize("granularity", [ELEMENT, 8, 64])
@pytest.mark.parametrize("stride,length", [(1, 16), (4, 64), (3, 48), (16, 2048)])
def test_cx_pass_and_its_points_digest_alike(granularity, stride, length):
    one, two = _pair(granularity)
    one.cx_pass(0, "a", stride, length)
    for i in range(length):
        if (i // stride) % 2 == 0:
            two.points(0, "a", READ, [i, i + stride])
            two.points(0, "a", WRITE, [i, i + stride])
    assert one.digest() == two.digest()
    assert list(one.events()) == list(two.events())


def test_different_events_digest_apart():
    one, two = _pair(64)
    one.seq(0, "a", READ, 0, 100)
    two.seq(0, "a", READ, 0, 99)
    assert one.digest() != two.digest()
    two.seq(0, "a", READ, 99, 1)
    assert one.digest() == two.digest()
    two.seq(0, "a", WRITE, 0, 1)
    assert one.digest() != two.digest()


# -- first_divergence against an event walk --------------------------------------

def walk_first_divergence(mine, theirs):
    """Event-by-event comparison, the definition `first_divergence` must match."""
    workers = sorted(set(mine._streams) | set(theirs._streams))
    for w in workers:
        idx = 0
        a_events = mine.events(w)
        b_events = theirs.events(w)
        while True:
            a = next(a_events, None)
            b = next(b_events, None)
            if a is None and b is None:
                break
            if a is None or b is None or a != b:
                return (w, idx, a, b)
            idx += 1
    return None


@settings(max_examples=200, deadline=None)
@given(traces(), st.data())
def test_first_divergence_matches_event_walk(case, data):
    granularity, ops = case
    other = list(ops)
    edit = data.draw(st.sampled_from(["same", "replace", "insert", "delete"]))
    if edit == "insert" or (edit != "same" and not other):
        other.insert(data.draw(st.integers(0, len(other))), data.draw(OPS))
    elif edit == "replace":
        i = data.draw(st.integers(0, len(other) - 1))
        other[i] = other[i][:8] + (data.draw(st.integers(0, 1 << 16)),) + other[i][9:]
    elif edit == "delete":
        del other[data.draw(st.integers(0, len(other) - 1))]
    mine, theirs = build(granularity, ops), build(granularity, other)
    assert mine.first_divergence(theirs) == walk_first_divergence(mine, theirs)
    assert theirs.first_divergence(mine) == walk_first_divergence(theirs, mine)


def test_first_divergence_after_long_cx_pass(monkeypatch):
    length = 1 << 19  # 2^20 events in the pass
    one, two = _pair(ELEMENT)
    for trace in (one, two):
        trace.register("big", length, 16)
        trace.seq(0, "b", READ, 0, 10)
        trace.cx_pass(0, "big", 1 << 10, length)
    one.seq(0, "b", WRITE, 0, 3)
    two.seq(0, "b", WRITE, 0, 2)
    two.points(0, "b", WRITE, [7])

    def no_walk(*args, **kwargs):
        raise AssertionError("events() walked")

    monkeypatch.setattr(AccessTrace, "events", no_walk)
    worker, idx, a, b = one.first_divergence(two)
    assert (worker, idx) == (0, 10 + 2 * length + 2)
    assert (a.region, a.offset, a.kind) == ("b", 2, WRITE)
    assert (b.region, b.offset, b.kind) == ("b", 7, WRITE)
    assert two.first_divergence(one)[3].offset == 2


def test_first_divergence_inside_long_cx_pass():
    length = 1 << 19
    one, two = _pair(ELEMENT)
    for trace in (one, two):
        trace.register("big", length, 16)
    one.cx_pass(0, "big", 1 << 10, length)
    two.cx_pass(0, "big", 1 << 10, length - (1 << 11))
    two.seq(0, "big", READ, 0, 1)
    worker, idx, a, b = one.first_divergence(two)
    assert idx == 2 * (length - (1 << 11))
    assert (a.offset, a.kind, b.offset, b.kind) == (length - (1 << 11), READ, 0, READ)


def test_first_divergence_missing_worker_and_end_of_stream():
    one, two = _pair(ELEMENT)
    one.seq(0, "a", READ, 0, 4)
    two.seq(0, "a", READ, 0, 4)
    two.seq(2, "a", READ, 0, 1)
    worker, idx, a, b = one.first_divergence(two)
    assert (worker, idx, a) == (2, 0, None) and b.offset == 0
    two.seq(0, "a", READ, 4, 1)
    worker, idx, a, b = one.first_divergence(two)
    assert (worker, idx, a) == (0, 4, None) and b.offset == 4


# -- repeated run groups ------------------------------------------------------

REP_WIDTHS = [1, 8, 17, 40, 49, 57, 128]
REP_LENGTH = 1 << 15


@st.composite
def repeat_cases(draw):
    granularity = draw(st.sampled_from([ELEMENT, 1, 8, 24, 32, 64]))
    widths = draw(st.lists(st.sampled_from(REP_WIDTHS), min_size=2, max_size=2))
    workers = draw(st.integers(1, 3))
    record = st.tuples(st.integers(0, workers - 1),
                       st.lists(RUN, min_size=1, max_size=3), st.integers(1, 200))
    return granularity, widths, draw(st.lists(record, min_size=1, max_size=3))


def build_repeats(granularity, widths, records, per_copy, skip=None):
    """The records as `repeat` calls, or as per-copy seq/zip2 records.

    A plain seq record precedes each one, so marks fall between kinds.
    `skip` = (record, copy) leaves that copy out (per-copy form only).
    """
    trace = AccessTrace(granularity=granularity)
    for r, width in enumerate(widths):
        trace.register("q%d" % r, REP_LENGTH, width)
    marks = [trace.mark()]
    for i, (w, runs, count) in enumerate(records):
        trace.seq(w, "q0", READ, w, 3)
        if not per_copy:
            spec = []
            for lanes, length in runs:
                regions, kinds, starts, rises = zip(*lanes)
                names = tuple("q%d" % r for r in regions)
                spec.append((names[0], kinds[0], starts[0], length, rises[0])
                            if len(lanes) == 1 else (names, kinds, starts, length, rises))
            trace.repeat(w, spec, count)
        for a in range(count) if per_copy else ():
            if (i, a) == skip:
                continue
            for lanes, length in runs:
                at = [("q%d" % r, kind, x + a * rise) for r, kind, x, rise in lanes]
                if len(at) == 1:
                    trace.seq(w, *at[0], length)
                else:
                    trace.zip2(w, *at[0], *at[1], length)
        marks.append(trace.mark())
    return trace, marks


def event_tuples(trace):
    return [e.astuple() for e in trace.events()]


@settings(max_examples=120, deadline=None)
@given(repeat_cases(), st.data())
def test_repeat_equals_its_copies(case, data):
    rep, rep_marks = build_repeats(*case, per_copy=False)
    cop, cop_marks = build_repeats(*case, per_copy=True)
    assert rep.worker_digests() == cop.worker_digests()
    assert event_tuples(rep) == event_tuples(cop)
    i = data.draw(st.integers(0, len(rep_marks) - 1))
    j = data.draw(st.integers(i, len(rep_marks) - 1))
    assert rep.worker_digests(start=rep_marks[i], end=rep_marks[j]) \
        == cop.worker_digests(start=cop_marks[i], end=cop_marks[j])
    records = case[2]
    r = data.draw(st.integers(0, len(records) - 1))
    skip = (r, data.draw(st.integers(0, records[r][2] - 1)))
    other, _ = build_repeats(*case, per_copy=True, skip=skip)
    assert rep.first_divergence(other) == cop.first_divergence(other)
    assert other.first_divergence(rep) == other.first_divergence(cop)


@pytest.mark.parametrize("granularity", [ELEMENT, 64])
def test_repeat_scan_line_digest_and_count(granularity):
    # b pairs of (chunk k, block l) down a column: one record, not 2b.
    b, k, l = 40, 24, 7
    one, two = AccessTrace(granularity), AccessTrace(granularity)
    for trace in (one, two):
        trace.register("v", b * k, 16)
        trace.register("g", b * b * l, 17)
    one.repeat(0, [("v", READ, 0, k, k), ("g", READ, 3 * l, l, b * l)], b)
    for inner in range(b):
        two.seq(0, "v", READ, inner * k, k)
        two.seq(0, "g", READ, (inner * b + 3) * l, l)
    assert one.mark() == {0: 1} and two.mark() == {0: 2 * b}
    assert one.digest() == two.digest()
    assert one.first_divergence(two) is None


def _rep_trace():
    trace = AccessTrace(ELEMENT)
    trace.register("a", 100, 8)
    trace.register("b", 100, 8)
    return trace


def test_repeat_rejects_first_copy_outside_region():
    with pytest.raises(IndexError):
        _rep_trace().repeat(0, [("a", READ, 95, 10, 0)], 1)


def test_repeat_rejects_last_copy_outside_region():
    trace = _rep_trace()
    trace.repeat(0, [("a", READ, 0, 10, 10)], 10)  # copies end at 100
    with pytest.raises(IndexError):
        trace.repeat(0, [("a", READ, 0, 10, 10)], 11)
    with pytest.raises(IndexError):
        trace.repeat(0, [(("a", "b"), (READ, WRITE), (0, 0), 10, (1, 10))], 11)


def test_repeat_rejects_negative_rise():
    with pytest.raises(ValueError):
        _rep_trace().repeat(0, [("a", READ, 50, 10, -1)], 2)


def test_repeat_rejects_negative_count_and_length():
    with pytest.raises(ValueError):
        _rep_trace().repeat(0, [("a", READ, 0, 10, 0)], -1)
    with pytest.raises(ValueError):
        _rep_trace().repeat(0, [("a", READ, 0, -1, 0)], 1)


def test_repeat_rejects_lanes_of_unequal_arity():
    with pytest.raises(ValueError):
        _rep_trace().repeat(0, [(("a", "b"), (READ,), (0, 0), 4, (1, 1))], 2)


def test_repeat_records_nothing_when_empty_or_disabled():
    trace = _rep_trace()
    trace.repeat(0, [("a", READ, 0, 10, 1)], 0)
    trace.repeat(0, [("a", READ, 0, 0, 1), ("b", WRITE, 0, 0, 1)], 5)
    assert trace.mark() == {}
    off = AccessTrace(ELEMENT, enabled=False)
    off.repeat(0, [("missing", READ, 0, 10, 1)], 3)
    assert off.mark() == {}
