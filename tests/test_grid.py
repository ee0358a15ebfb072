"""Grid shape invariants, chunk sizing and the bit-exact block wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblige.errors import BlockOverflow, MalformedBlock, OMTooSmall, ParamMismatch
from oblige.grid import (
    EDGE_DTYPE,
    RESERVE_BYTES,
    PublicParams,
    build_grid,
    choose_chunk_size,
    decode_block,
    encode_block,
    encode_grid,
    encoded_block_nbytes,
    null_block,
    offset_bits,
    parse_grid_header,
)
from oblige.omsim import OMSim
from oblige.pipeline import merge_grids


def block_coordinates(b):
    """Row and column of each of the b^2 blocks, in row-major storage order."""
    return np.divmod(np.arange(b * b), b)


def micro_params(l=2):
    return PublicParams.derive(p=1, n_i=[4], n=4, t=1,
                               s=2 * 2 * 8 + RESERVE_BYTES, vwidth=8, l_i=[l])


def test_choose_chunk_size_examples():
    assert choose_chunk_size(1 << 20, 8) == (1 << 20) // 16 - 256  # 65280
    assert choose_chunk_size(2 * 8 + RESERVE_BYTES, 8) == 1
    with pytest.raises(OMTooSmall):
        choose_chunk_size(RESERVE_BYTES, 8)


def test_params_invariants():
    p = micro_params()
    assert p.b == -(-p.n // p.k) and p.N == sum(p.n_i) and p.l == sum(p.l_i)
    assert p == PublicParams(p=1, n_i=(4,), n=4, t=1, s=p.s, vwidth=8, l_i=(2,))
    assert p.with_block_lengths([1, 1]).l == 2
    assert (p.with_block_lengths([]).l_i, p.with_block_lengths([]).l) == ((), 0)
    with pytest.raises(TypeError):  # derived values are not arguments
        PublicParams(p=1, n_i=(4,), N=5, n=4, t=1, s=1 << 20, vwidth=8)
    for parties in (0, 2):  # a party count other than len(n_i)
        with pytest.raises(ParamMismatch, match="p must equal"):
            PublicParams.derive(p=parties, n_i=[4], n=4, t=1, s=1 << 20, vwidth=8)
    with pytest.raises(ParamMismatch, match="57-bit codec"):  # k of 2^66 - 256
        PublicParams.derive(p=1, n_i=[4], n=4, t=1, s=1 << 70, vwidth=8)


def test_build_grid_micro_case():
    g = build_grid([(0, 3), (1, 0), (3, 3)], micro_params())
    blocks = g.edges.reshape(g.params.b, g.params.b, g.params.l)

    def real(r, c):
        blk = blocks[r, c]
        return [(int(e["src"]), int(e["dst"])) for e in blk[blk["pad"] == 0]]

    assert real(0, 1) == [(0, 3)]
    assert real(0, 0) == [(1, 0)]
    assert real(1, 1) == [(3, 3)]
    assert real(1, 0) == []
    assert all(len(blocks[r, c]) == 2 for r in range(2) for c in range(2))
    assert g.m == 3


def test_build_grid_empty_and_overflow():
    g = build_grid([], micro_params())
    assert (g.edges["pad"] == 1).all()
    with pytest.raises(BlockOverflow):
        build_grid([(0, 0)], micro_params(l=0))


def test_worked_wire_example():
    # k=2 (w=2): real edge offsets (1, 0) then a null -> bits 01 00 10 10
    block = np.zeros(2, dtype=EDGE_DTYPE)
    block[0] = (1, 0, 0)
    block[1] = (0, 0, 1)
    assert offset_bits(2) == 2
    assert encode_block(block, 2) == b"\xa1"
    assert (decode_block(b"\xa1", 2, 2, 0, 0) == block).all()


def test_encode_empty_block():
    assert encode_block(np.zeros(0, dtype=EDGE_DTYPE), 4) == b""


def test_decode_all_null():
    k, l = 3, 5
    blob = encode_block(_null_block(l), k)
    out = decode_block(blob, k, l, 1, 2)
    assert (out["pad"] == 1).all()


def _null_block(l):
    blk = np.zeros(l, dtype=EDGE_DTYPE)
    blk["pad"] = 1
    return blk


def test_decode_length_and_range_errors():
    k, l = 2, 4
    blob = encode_block(_null_block(l), k)
    with pytest.raises(MalformedBlock):
        decode_block(blob[:-1], k, l, 0, 0)
    # out-of-range offset: value 3 for k=2 lives in (k, 2^w)
    bad = np.packbits(np.array([1, 1, 1, 1] * l, dtype=np.uint8) , bitorder="little")
    with pytest.raises(MalformedBlock):
        decode_block(bad.tobytes()[:encoded_block_nbytes(k, l)], k, l, 0, 0)


def test_decode_half_null_rejected():
    k, l = 2, 1
    # src offset k (null marker) with a real dst offset
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)  # src=2, dst=1
    blob = np.packbits(bits, bitorder="little").tobytes()
    with pytest.raises(MalformedBlock):
        decode_block(blob, k, l, 0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_encode_decode_round_trip(k, data):
    l = data.draw(st.integers(0, 12))
    r = data.draw(st.integers(0, 3))
    c = data.draw(st.integers(0, 3))
    block = np.zeros(l, dtype=EDGE_DTYPE)
    for i in range(l):
        if data.draw(st.booleans()):
            block[i] = (r * k + data.draw(st.integers(0, k - 1)),
                        c * k + data.draw(st.integers(0, k - 1)), 0)
        else:
            block[i] = (0, 0, 1)
    blob = encode_block(block, k)
    assert len(blob) == encoded_block_nbytes(k, l)
    assert (decode_block(blob, k, l, r, c) == block).all()


def container(grid):
    p = grid.params
    return encode_grid(p.n, p.k, p.b, *grid.row_order, p.l)


def decode_container(payload):
    header = parse_grid_header(payload)
    body = memoryview(payload)[header["header_nbytes"]:]
    return decode_block(body, header["k"], header["l"], *block_coordinates(header["b"]))


def test_edge_conservation_through_container():
    rng = np.random.default_rng(1)
    n, m = 64, 300
    params = PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                                 s=2 * 16 * 8 + RESERVE_BYTES, vwidth=8,
                                 l_i=[m])
    edges = rng.integers(0, n, size=(m, 2))
    g = build_grid(edges, params)
    loaded = decode_container(container(g))
    assert (loaded == g.edges).all() and g.m == m
    real = loaded[loaded["pad"] == 0]
    assert sorted(zip(real["src"].tolist(), real["dst"].tolist())) == \
        sorted(map(tuple, edges.tolist()))


def test_container_header_checked():
    payload = container(build_grid([(0, 1)], micro_params()))
    header = parse_grid_header(payload)
    assert (header["n"], header["k"], header["b"], header["l"]) == (4, 2, 2, 2)
    with pytest.raises(MalformedBlock):
        parse_grid_header(payload[:-1])
    with pytest.raises(MalformedBlock):
        parse_grid_header(b"XXXX" + payload[4:])


def test_placement_invariant_random():
    rng = np.random.default_rng(9)
    n = 40
    params = PublicParams.derive(p=1, n_i=[n], n=n, t=1,
                                 s=2 * 7 * 8 + RESERVE_BYTES, vwidth=8,
                                 l_i=[200])
    edges = rng.integers(0, n, size=(200, 2))
    g = build_grid(edges, params)
    k, b = params.k, params.b
    blocks = g.edges.reshape(b, b, params.l)
    for r in range(b):
        for c in range(b):
            blk = blocks[r, c]
            real = blk[blk["pad"] == 0]
            assert (real["src"] // k == r).all()
            assert (real["dst"] // k == c).all()


# -- whole-grid encode and decode against a bit-matrix oracle ----------------------

def padded_blocks(src, dst, k, b, l):
    """The padded grid a party once built: each block's edges in arrival order, then nulls."""
    out = np.zeros(b * b * l, dtype=EDGE_DTYPE)
    out["pad"] = 1
    fill = [0] * (b * b)
    for u, v in zip(src.tolist(), dst.tolist()):
        x = (u // k) * b + v // k
        out[x * l + fill[x]] = (u, v, 0)
        fill[x] += 1
    return out


def drawn_edges(data, n, k, b, l):
    """Drawn (src, dst) uint64 edges over [0, n) with at most l in any block."""
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * l))
    ids = [(u // k) * b + v // k for u, v in edges]
    edges = [e for i, e in enumerate(edges) if ids[:i].count(ids[i]) < l]
    return (np.array([u for u, _ in edges], dtype=np.uint64),
            np.array([v for _, v in edges], dtype=np.uint64))


def bit_matrix_encode(block, k):
    """One block through an explicit (2l, w) bit matrix, bit 0 first."""
    w = offset_bits(k)
    kk = np.uint64(k)
    fields = np.empty(2 * len(block), dtype=np.uint64)
    fields[0::2] = np.where(block["pad"] == 1, kk, block["src"] % kk)
    fields[1::2] = np.where(block["pad"] == 1, kk, block["dst"] % kk)
    bits = ((fields[:, None] >> np.arange(w, dtype=np.uint64)) & np.uint64(1))
    return np.packbits(bits.astype(np.uint8).reshape(-1), bitorder="little").tobytes()


def bit_matrix_decode(data, k, l, r, c):
    w = offset_bits(k)
    out = np.zeros(l, dtype=EDGE_DTYPE)
    raw = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = raw[:2 * w * l].reshape(2 * l, w).astype(np.uint64)
    fields = bits @ (np.uint64(1) << np.arange(w, dtype=np.uint64))
    null = fields[0::2] == k
    out["pad"] = null
    out["src"] = np.where(null, 0, fields[0::2] + np.uint64(r * k))
    out["dst"] = np.where(null, 0, fields[1::2] + np.uint64(c * k))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 7, 8, 255, 256, 300, 1 << 20, (1 << 40) + 3]),
       st.integers(1, 6), st.integers(0, 11), st.data())
def test_grid_codec_matches_bit_matrix(k, b, l, data):
    n = data.draw(st.integers((b - 1) * k + 1, b * k))
    src, dst = drawn_edges(data, n, k, b, l)
    stored = padded_blocks(src, dst, k, b, l)
    payload = encode_grid(n, k, b, src, dst, l)
    header = parse_grid_header(payload)
    blocks = [stored[x * l:(x + 1) * l] for x in range(b * b)]
    body = payload[header["header_nbytes"]:]
    assert body == b"".join(bit_matrix_encode(blk, k) for blk in blocks)
    decoded = decode_block(body, k, l, *block_coordinates(b))
    assert decoded.tobytes() == stored.tobytes()
    for x in range(b * b):
        r, c = divmod(x, b)
        off = header["header_nbytes"] + x * header["block_nbytes"]
        blob = payload[off:off + header["block_nbytes"]]
        assert encode_block(blocks[x], k) == blob
        assert decode_block(blob, k, l, r, c).tobytes() == blocks[x].tobytes()
        assert bit_matrix_decode(blob, k, l, r, c).tobytes() == blocks[x].tobytes()


def test_grid_decode_rejects_any_bad_block():
    k, l, b = 2, 3, 3
    blocks = [encode_block(_null_block(l), k) for _ in range(b * b)]
    rows, cols = block_coordinates(b)
    half_null = np.packbits(np.array([0, 1, 1, 0] + [0, 1, 0, 1] * 2, dtype=np.uint8),
                            bitorder="little").tobytes()
    too_big = np.packbits(np.array([1, 1] * 2 * l, dtype=np.uint8),
                          bitorder="little").tobytes()
    for bad in (half_null, too_big):
        body = b"".join(blocks[:-1] + [bad])
        with pytest.raises(MalformedBlock):
            decode_block(body, k, l, rows, cols)
    with pytest.raises(MalformedBlock):
        decode_block(b"".join(blocks)[:-1], k, l, rows, cols)


@pytest.mark.parametrize("batch_fields", [1, 6, 14, 1 << 16])
def test_grid_decode_in_batches_equals_whole_decode(batch_fields):
    """Blocks decode alike in one call and in batches of `batch_fields` fields.

    `decode_grid` hands `decode_block` any subset of blocks, so each block's
    decoding must not depend on its neighbours; a malformed last block fails
    the whole call.
    """
    k, b, l = 5, 7, 3
    n = b * k - 2
    rng = np.random.default_rng(3)
    src = rng.integers(0, n, size=200, dtype=np.uint64)
    dst = rng.integers(0, n, size=200, dtype=np.uint64)
    ids = (src // k) * b + dst // k
    keep = np.array([np.sum(ids[:i] == x) < l for i, x in enumerate(ids)])
    stored = padded_blocks(src[keep], dst[keep], k, b, l)
    encoded = [encode_block(stored[x * l:(x + 1) * l], k) for x in range(b * b)]
    rows, cols = block_coordinates(b)
    assert decode_block(b"".join(encoded), k, l, rows, cols).tobytes() == stored.tobytes()
    step = max(1, batch_fields // (2 * l))
    batches = [decode_block(b"".join(encoded[lo:lo + step]), k, l,
                            rows[lo:lo + step], cols[lo:lo + step])
               for lo in range(0, b * b, step)]
    assert np.concatenate(batches).tobytes() == stored.tobytes()
    bad = np.packbits(np.array([1, 1, 1] * 2 * l, dtype=np.uint8),
                      bitorder="little").tobytes()[:encoded_block_nbytes(k, l)]
    with pytest.raises(MalformedBlock):
        decode_block(b"".join(encoded[:-1]) + bad, k, l, rows, cols)


# -- the null template and prefix-only decoding ---------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 5, 255, 384, 3840, 40832, 1 << 20])
def test_null_block_is_the_encoded_null_block(k):
    tails = set()
    for l in (0, 1, 2, 3, 7, 8, 1001):
        assert null_block(k, l).tobytes() == encode_block(_null_block(l), k)
        tails.add(2 * l * offset_bits(k) % 8)
    assert tails == ({0} if offset_bits(k) % 4 == 0 else
                     {0, 4} if offset_bits(k) % 2 == 0 else {0, 2, 4, 6})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 7, 255, 384]), st.integers(1, 4), st.integers(0, 12),
       st.data())
def test_merge_grids_and_whole_decode_agree_on_corrupted_payloads(k, b, l, data):
    """Corrupted bytes inside real prefixes, past them or in the pad bits are read alike.

    The prefix-only `merge_grids` path and one `decode_block` of the whole
    body accept and refuse the same payloads, and give the same slots and m.
    """
    n = data.draw(st.integers((b - 1) * k + 1, b * k))
    src, dst = drawn_edges(data, n, k, b, l)
    payload = bytearray(encode_grid(n, k, b, src, dst, l))
    header = parse_grid_header(payload)
    w, nbytes, at = offset_bits(k), header["block_nbytes"], header["header_nbytes"]
    loads = np.bincount(((src // k) * b + dst // k).astype(np.int64), minlength=b * b)
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.integers(0, b * b - 1))
        real = -(-2 * int(loads[x]) * w // 8)
        zone = data.draw(st.sampled_from(["prefix", "past", "pad bits"]))
        tail = 2 * l * w % 8
        if zone == "prefix" and real:
            byte, flip = data.draw(st.integers(0, real - 1)), data.draw(st.integers(1, 255))
        elif zone == "past" and real < nbytes:
            byte = data.draw(st.integers(max(real - 1, 0), nbytes - 1))
            flip = data.draw(st.integers(1, 255))
        elif zone == "pad bits" and tail:
            byte, flip = nbytes - 1, data.draw(st.integers(1, 255)) & (0xFF << tail) & 0xFF
        else:
            continue
        payload[at + x * nbytes + byte] ^= flip

    def outcome(read):
        try:
            return read()
        except MalformedBlock:
            return "MalformedBlock"

    def whole():
        slots = decode_block(memoryview(payload)[at:], k, l, *block_coordinates(b))
        return slots.tobytes(), int((slots["pad"] == 0).sum())

    def merged():
        params = PublicParams.derive(p=1, n_i=[n], n=n, t=1, s=2 * k * 8 + RESERVE_BYTES,
                                     vwidth=8, l_i=[l])
        grid = merge_grids(OMSim(1 << 16), [bytes(payload)], params)
        return grid.edges.tobytes(), grid.m

    assert outcome(merged) == outcome(whole)
