"""Simulated oblivious memory and memory-access trace recording.

Storage is split into two worlds.  :class:`OMArena` models the bounded
on-chip oblivious memory (OM): allocations are budget-checked, and nothing
that happens inside an arena is ever recorded.  :class:`Buffer` models
ordinary observable memory: every read or write of a registered buffer is
appended to an :class:`AccessTrace`.

An algorithm is data-oblivious exactly when its trace is a pure function of
public parameters.  The trace therefore supports cheap equality testing via
digests: per-worker event streams are digested independently and combined
order-independently across workers, because cross-worker interleaving is not
part of the oblivious contract (each worker's stream is deterministic on its
own).

Traces can be recorded at element granularity (offset = record index, the
strictest test) or quantized to a line size in bytes (offset = starting byte
// granularity), modeling cacheline-level observation.  Element-level
equality implies line-level equality, so tests default to element
granularity.

Internally the recorder stores access runs in a compressed form (sequential
runs, interleaved transform passes, compare-exchange passes).  Digests and
event iteration always operate on the fully expanded per-element event
sequence, so the digest is a function of the event sequence alone, not of
how it was recorded.
"""

import hashlib

import numpy as np

from .errors import CapacityExceeded

READ = 0
WRITE = 1
KIND_NAMES = ("read", "write")

# Granularity sentinel: record per-element indexes instead of byte lines.
ELEMENT = None

CACHELINE = 64

# Packed event layout used for hashing: 4-byte region tag, 1 kind byte,
# 8-byte little-endian offset.
_EVENT_BYTES = 13


def _region_tag(name):
    return hashlib.blake2b(name.encode(), digest_size=4).digest()


class AccessEvent:
    """One observable memory access: (worker, region, offset, kind)."""

    __slots__ = ("worker", "region", "offset", "kind")

    def __init__(self, worker, region, offset, kind):
        self.worker = worker
        self.region = region
        self.offset = offset
        self.kind = kind

    def astuple(self):
        return (self.worker, self.region, self.offset, KIND_NAMES[self.kind])

    def __eq__(self, other):
        return self.astuple() == other.astuple()

    def __repr__(self):
        return "AccessEvent(worker=%d, region=%r, offset=%d, kind=%s)" % self.astuple()


class _Region:
    __slots__ = ("name", "length", "width", "tag")

    def __init__(self, name, length, width):
        self.name = name
        self.length = length
        self.width = width
        self.tag = _region_tag(name)


class AccessTrace:
    """Append-only log of all memory accesses outside the oblivious memory.

    Only registered named buffers are traced; loop counters and other O(1)
    register-like state are deliberately invisible, matching the constant
    per-core state the scan algorithms keep outside their vertex chunks.
    """

    def __init__(self, granularity=CACHELINE, enabled=True):
        if granularity is not ELEMENT and granularity < 1:
            raise ValueError("granularity must be ELEMENT or a positive byte count")
        self.granularity = granularity
        self.enabled = enabled
        self._regions = {}
        self._streams = {}  # worker -> list of compressed access records

    # -- region registry ---------------------------------------------------

    def register(self, name, length, width=1):
        """Register (or rebind) a named non-OM buffer of `length` records."""
        self._regions[name] = _Region(name, length, width)

    def is_registered(self, name):
        return name in self._regions

    def _require(self, name):
        region = self._regions.get(name)
        if region is None:
            raise KeyError("access to unregistered region %r" % name)
        return region

    def _stream(self, worker):
        stream = self._streams.get(worker)
        if stream is None:
            stream = self._streams[worker] = []
        return stream

    # -- recording ---------------------------------------------------------

    def record(self, worker, region, byte_offset, kind):
        """Record a single access at a byte offset, quantized to granularity."""
        if not self.enabled:
            return
        reg = self._require(region)
        if not 0 <= byte_offset < reg.length * reg.width:
            raise IndexError("offset %d outside region %r" % (byte_offset, region))
        if self.granularity is ELEMENT:
            offset = byte_offset // reg.width
        else:
            offset = byte_offset // self.granularity
        self._stream(worker).append(("one", region, kind, offset))

    def seq(self, worker, region, kind, start, count):
        """Record a sequential run over elements [start, start+count)."""
        if not self.enabled or count == 0:
            return
        reg = self._require(region)
        if not (0 <= start and start + count <= reg.length):
            raise IndexError("run [%d,%d) outside region %r" % (start, start + count, region))
        self._stream(worker).append(("seq", region, kind, start, count))

    def zip2(self, worker, region_a, kind_a, start_a, region_b, kind_b, start_b, count):
        """Record two interleaved element runs: a0, b0, a1, b1, ..."""
        if not self.enabled or count == 0:
            return
        self._require(region_a)
        self._require(region_b)
        self._stream(worker).append(
            ("zip", region_a, kind_a, start_a, region_b, kind_b, start_b, count)
        )

    def cx_pass(self, worker, region, stride, length):
        """Record one full compare-exchange pass at `stride` over [0, length).

        Expands to (read i, read i+stride, write i, write i+stride) for every
        i with the stride bit clear, in ascending i order; both positions are
        always written, so the pattern carries no data dependence.
        """
        if not self.enabled:
            return
        self._require(region)
        self._stream(worker).append(("cx", region, stride, length))

    def points(self, worker, region, kind, offsets):
        """Record accesses at explicit element offsets (in the given order)."""
        if not self.enabled or len(offsets) == 0:
            return
        self._require(region)
        self._stream(worker).append(("pts", region, kind, tuple(int(o) for o in offsets)))

    # -- expansion ---------------------------------------------------------

    def _quantize(self, region, element_offsets):
        reg = self._regions[region]
        offs = np.asarray(element_offsets, dtype=np.uint64)
        if self.granularity is ELEMENT:
            return offs
        return (offs * np.uint64(reg.width)) // np.uint64(self.granularity)

    def _expand(self, rec):
        """Yield (region, kinds array, quantized offsets array) chunks."""
        code = rec[0]
        if code == "seq":
            _, region, kind, start, count = rec
            offs = np.arange(start, start + count, dtype=np.uint64)
            yield region, np.full(count, kind, dtype=np.uint8), self._quantize(region, offs)
        elif code == "one":
            _, region, kind, offset = rec
            # Already quantized at record time.
            yield region, np.array([kind], dtype=np.uint8), np.array([offset], dtype=np.uint64)
        elif code == "pts":
            _, region, kind, offsets = rec
            offs = np.asarray(offsets, dtype=np.uint64)
            yield region, np.full(len(offs), kind, dtype=np.uint8), self._quantize(region, offs)
        elif code == "zip":
            _, ra, ka, sa, rb, kb, sb, count = rec
            # Alternating events from two regions; emit as per-event tuples to
            # preserve the interleaved order.
            qa = self._quantize(ra, np.arange(sa, sa + count, dtype=np.uint64))
            qb = self._quantize(rb, np.arange(sb, sb + count, dtype=np.uint64))
            yield ("interleave", (ra, ka, qa), (rb, kb, qb))
        elif code == "cx":
            _, region, stride, length = rec
            half = np.arange(length // 2, dtype=np.uint64)
            i = (half // stride) * np.uint64(2 * stride) + (half % stride)
            quad = np.empty((length // 2, 4), dtype=np.uint64)
            quad[:, 0] = i
            quad[:, 1] = i + np.uint64(stride)
            quad[:, 2] = i
            quad[:, 3] = i + np.uint64(stride)
            kinds = np.tile(np.array([READ, READ, WRITE, WRITE], dtype=np.uint8), length // 2)
            yield region, kinds, self._quantize(region, quad.reshape(-1))
        else:  # pragma: no cover - internal invariant
            raise AssertionError("unknown trace record %r" % (code,))

    def _packed_chunks(self, stream):
        """Yield the packed byte form of each record; see _EVENT_BYTES layout."""
        for rec in stream:
            for chunk in self._expand(rec):
                if chunk[0] == "interleave":
                    _, (ra, ka, qa), (rb, kb, qb) = chunk
                    n = len(qa)
                    out = np.empty((2 * n, _EVENT_BYTES), dtype=np.uint8)
                    ta = np.frombuffer(self._regions[ra].tag, dtype=np.uint8)
                    tb = np.frombuffer(self._regions[rb].tag, dtype=np.uint8)
                    out[0::2, 0:4] = ta
                    out[1::2, 0:4] = tb
                    out[0::2, 4] = ka
                    out[1::2, 4] = kb
                    out[0::2, 5:] = qa.astype("<u8").view(np.uint8).reshape(n, 8)
                    out[1::2, 5:] = qb.astype("<u8").view(np.uint8).reshape(n, 8)
                else:
                    region, kinds, offs = chunk
                    n = len(offs)
                    out = np.empty((n, _EVENT_BYTES), dtype=np.uint8)
                    out[:, 0:4] = np.frombuffer(self._regions[region].tag, dtype=np.uint8)
                    out[:, 4] = kinds
                    out[:, 5:] = offs.astype("<u8").view(np.uint8).reshape(n, 8)
                yield out.tobytes()

    def events(self, worker=None):
        """Iterate the fully expanded event sequence (one worker or all).

        Intended for tests and small traces; digests avoid materializing
        events one at a time.
        """
        workers = sorted(self._streams) if worker is None else [worker]
        for w in workers:
            for rec in self._streams.get(w, []):
                for chunk in self._expand(rec):
                    if chunk[0] == "interleave":
                        _, (ra, ka, qa), (rb, kb, qb) = chunk
                        for a, b in zip(qa, qb):
                            yield AccessEvent(w, ra, int(a), ka)
                            yield AccessEvent(w, rb, int(b), kb)
                    else:
                        region, kinds, offs = chunk
                        for kind, off in zip(kinds, offs):
                            yield AccessEvent(w, region, int(off), int(kind))

    # -- digests -----------------------------------------------------------

    def mark(self):
        """Checkpoint the current stream lengths (used for per-stage digests)."""
        return {w: len(s) for w, s in self._streams.items()}

    def worker_digests(self, start=None, end=None):
        """Hex digest of each worker's expanded event stream."""
        out = {}
        for w in sorted(self._streams):
            stream = self._streams[w]
            lo = 0 if start is None else start.get(w, 0)
            hi = len(stream) if end is None else end.get(w, len(stream))
            h = hashlib.sha256()
            for blob in self._packed_chunks(stream[lo:hi]):
                h.update(blob)
            out[w] = h.hexdigest()
        return out

    def digest(self, start=None, end=None):
        """Combined digest: order-dependent per worker, order-free across workers."""
        per_worker = self.worker_digests(start, end)
        h = hashlib.sha256()
        for d in sorted(per_worker.values()):
            h.update(bytes.fromhex(d))
        return h.hexdigest()

    def event_count(self, worker=None):
        total = 0
        for ev in self.events(worker):
            total += 1
        return total

    def dump(self, fp):
        """Write one `worker,region,offset,kind` line per event."""
        for ev in self.events():
            fp.write("%d,%s,%d,%s\n" % ev.astuple())

    def first_divergence(self, other):
        """First differing (worker, event index, ours, theirs), or None.

        Workers are compared pairwise; a missing worker diverges at index 0.
        """
        workers = sorted(set(self._streams) | set(other._streams))
        for w in workers:
            idx = 0
            mine = self.events(w)
            theirs = other.events(w)
            while True:
                a = next(mine, None)
                b = next(theirs, None)
                if a is None and b is None:
                    break
                if a is None or b is None or a != b:
                    return (w, idx, a, b)
                idx += 1
        return None


class OMAlloc:
    """A live allocation inside an arena; `data` holds in-OM record storage."""

    __slots__ = ("offset", "nbytes", "data")

    def __init__(self, offset, nbytes, data=None):
        self.offset = offset
        self.nbytes = nbytes
        self.data = data


class OMArena:
    """Bounded oblivious-memory allocator; accesses to its storage are untraced.

    Capacity violations raise :class:`CapacityExceeded` immediately: the
    caller broke its published OM budget, which is a test failure rather
    than a recoverable condition.
    """

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.used = 0
        self.peak = 0
        self._free = [(0, capacity)]  # disjoint (offset, length), sorted
        self._live = {}

    @property
    def free_bytes(self):
        return self.capacity - self.used

    def alloc(self, nbytes):
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if self.used + nbytes > self.capacity:
            raise CapacityExceeded(
                "OM budget violated: %d bytes requested, %d of %d free"
                % (nbytes, self.free_bytes, self.capacity)
            )
        for idx, (off, length) in enumerate(self._free):
            if length >= nbytes:
                if length == nbytes:
                    del self._free[idx]
                else:
                    self._free[idx] = (off + nbytes, length - nbytes)
                self.used += nbytes
                self.peak = max(self.peak, self.used)
                handle = OMAlloc(off, nbytes)
                self._live[id(handle)] = handle
                return handle
        raise CapacityExceeded(
            "OM arena fragmented: no contiguous %d bytes available" % nbytes
        )

    def alloc_array(self, dtype, count):
        """Allocate OM space for `count` records and attach zeroed storage."""
        dtype = np.dtype(dtype)
        handle = self.alloc(dtype.itemsize * max(count, 1))
        handle.data = np.zeros(count, dtype=dtype)
        return handle

    def free(self, handle):
        if self._live.pop(id(handle), None) is None:
            raise ValueError("double free or foreign handle")
        self.used -= handle.nbytes
        self._free.append((handle.offset, handle.nbytes))
        self._free.sort()
        # Coalesce neighbors so exact-fit reuse keeps working.
        merged = []
        for off, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((off, length))
        self._free = merged
        handle.data = None


class Buffer:
    """Fixed-width record array in observable memory.

    All element reads and writes go through the trace.  `data` is exposed for
    in-OM computation over values already accounted for by a recorded access;
    bulk helpers keep the recorded pattern and the actual data movement side
    by side so they cannot drift apart.  The grid scan is the exception: it
    records its per-block reads with ``trace.seq`` directly and copies
    nothing, then moves each column's data in one step (see `oblige.scan`).
    """

    def __init__(self, trace, name, data, record_init=False, worker=0):
        self.trace = trace
        self.name = name
        self.data = data
        trace.register(name, len(data), data.dtype.itemsize)
        if record_init:
            trace.seq(worker, name, WRITE, 0, len(data))

    @classmethod
    def wrap(cls, trace, name, data):
        """Register existing storage without recording its initialization."""
        return cls(trace, name, data)

    @classmethod
    def from_rows(cls, trace, name, rows, worker=0):
        """Create a buffer by sequentially writing `rows` (traced)."""
        return cls(trace, name, rows.copy(), record_init=True, worker=worker)

    def __len__(self):
        return len(self.data)

    def read(self, lo, hi, worker=0):
        """Sequentially read records [lo, hi) into OM; returns a private copy."""
        self.trace.seq(worker, self.name, READ, lo, hi - lo)
        return self.data[lo:hi].copy()

    def write(self, lo, rows, worker=0):
        """Sequentially write `rows` at [lo, lo+len(rows))."""
        self.trace.seq(worker, self.name, WRITE, lo, len(rows))
        self.data[lo:lo + len(rows)] = rows


class OMSim:
    """One simulated run: a trace recorder plus an OM arena factory.

    `om_bytes` is the public OM capacity every arena gets.  Tests default to
    element granularity (the stricter check); pass ``granularity=CACHELINE``
    for the 64-byte line model.  With ``enabled=False`` recording is skipped
    entirely, which is how timing benchmarks avoid recorder overhead.
    """

    def __init__(self, om_bytes, granularity=ELEMENT, enabled=True):
        self.om_bytes = om_bytes
        self.trace = AccessTrace(granularity=granularity, enabled=enabled)
        self.arenas = []
        self.osort_log = []
        self.last_scan_peaks = []

    def new_arena(self):
        arena = OMArena(self.om_bytes)
        self.arenas.append(arena)
        return arena

    def buffer_from_rows(self, name, rows, worker=0):
        return Buffer.from_rows(self.trace, name, rows, worker=worker)
