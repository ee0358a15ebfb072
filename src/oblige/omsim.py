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

The recorder stores access runs in a compressed form: sequential runs,
interleaved two-region runs, compare-exchange passes, explicit points.
The digest is nevertheless defined on the expanded event sequence.  Event
(region, quantized offset q, kind) is the integer

    e = 1 + q + (kind << 64) + (tag << 65),

with `tag` the region name's 4-byte blake2b tag read as a little-endian
int; the map is injective for q < 2^64 - 1.  A worker's events
e_0 .. e_{N-1} hash to H = sum_i e_i * X^(N-1-i) mod p, p = 2^127 - 1 (a
prime) and X a fixed point taken from sha256, and the worker digest is
sha256 of "N:H".  Two distinct streams of the same length collide only if X
is a root of their difference, a nonzero polynomial of degree below N, so
for streams chosen without regard to X the chance is at most N/p; streams
of different lengths differ in N.  Because H is a function of the events
alone, one run or two, a run or the same points, a compare-exchange pass or
its quads spelled out all digest alike.

H is evaluated per record in closed form, never by expanding events.  A
record is a block of m events repeated A times, copy a adding a*delta_j to
event j; with y = X^m and d = sum_j delta_j * X^(m-1-j) it hashes to
h * S0(y, A) + d * S1(y, A), where S0 and S1 are the plain and index-weighted
geometric sums (computed by doubling and memoized per exponent), and
records concatenate as H <- H * X^m_rec + h_rec.  A digest therefore costs
O(records), and the same prefix states locate a divergence without walking
the events before it.
"""

import functools
import hashlib
import math

import numpy as np

from .errors import CapacityExceeded

READ = 0
WRITE = 1
KIND_NAMES = ("read", "write")

# Granularity sentinel: record per-element indexes instead of byte lines.
ELEMENT = None

CACHELINE = 64

# The trace hash works in GF(p), p = 2^127 - 1, at the point _X.
_P = (1 << 127) - 1
_X = int.from_bytes(hashlib.sha256(b"oblige access-trace hash").digest(), "little") % _P
_MEMO = 1 << 14


def _raw(rows):
    """The records as one opaque fixed-width item each (strides kept)."""
    return rows.view(np.dtype((np.void, rows.dtype.itemsize)))


def copy_records(rows):
    """Private copy of a record array, made as one copy of the raw record bytes.

    A structured array's own ``.copy()`` converts field by field, which is
    many times slower for the same bytes; viewing the records as opaque
    fixed-width values copies them whole, strided input included.
    """
    return _raw(rows).copy().view(rows.dtype)


def assign_records(dst, rows):
    """Write `rows` into `dst` (same length) as raw record bytes.

    Like `copy_records`, this skips the field-by-field conversion of a
    structured assignment.  Rows of another dtype are converted by numpy.
    """
    if rows.dtype == dst.dtype:
        _raw(dst)[...] = _raw(rows)
    else:
        dst[...] = rows


def _region_tag(name):
    return hashlib.blake2b(name.encode(), digest_size=4).digest()


# -- polynomial trace hash ---------------------------------------------------
# A lane is (c, x, num, den): its t-th event is c + ((x + t) * num) // den,
# where c holds the event's region tag and kind bits and num/den is the
# element width over the granularity in lowest terms (1/1 at ELEMENT).


@functools.lru_cache(maxsize=_MEMO)
def _xpow(n):
    return pow(_X, n, _P)


@functools.lru_cache(maxsize=_MEMO)
def _geo(m, count):
    """(S0, S1) at y = X^m: the sums of y^(count-1-a) and a * y^(count-1-a)."""
    y = _xpow(m)
    s0 = s1 = k = 0
    yk = 1
    for bit in bin(count)[2:]:
        # k copies twice over, then one more if the bit is set.
        s1 = (s1 * (yk + 1) + k * s0) % _P
        s0 = s0 * (yk + 1) % _P
        yk = yk * yk % _P
        k *= 2
        if bit == "1":
            s1 = (s1 * y + k) % _P
            s0 = (s0 * y + 1) % _P
            yk = yk * y % _P
            k += 1
    return s0, s1


@functools.lru_cache(maxsize=_MEMO)
def _rise_hash(rises, units):
    """Hash of how far each lane's offset has risen since its first event.

    `rises` holds (num, den, phase) per lane, phase = x mod den; the
    quantized offset depends on the phase only through these rises.
    """
    h = 0
    for t in range(units):
        for num, den, phase in rises:
            h = (h * _X + (phase + t) * num // den - phase * num // den) % _P
    return h


def _lanes_hash(lanes, units):
    """Hash of `units` rounds of interleaved lanes, one event per lane a round.

    Every `period` rounds each lane's offset rises by period * num // den,
    so the rounds are a block of `period` rounds repeated, plus a remainder.
    """
    width = len(lanes)
    period = 1
    for _, _, _, den in lanes:
        period = period * den // math.gcd(period, den)
    first = step = 0
    rises = []
    for c, x, num, den in lanes:
        first = (first * _X + c + x * num // den) % _P
        step = (step * _X + period * num // den) % _P
        rises.append((num, den, x % den))
    rises = tuple(rises)
    blocks, rem = divmod(units, period)
    h = 0
    if blocks:
        s0, s1 = _geo(width * period, blocks)
        h = _rise_hash(rises, period) * s0 + step * _geo(width, period)[0] * s1
    if rem:
        h = (h * _xpow(width * rem) + blocks * step * _geo(width, rem)[0]
             + _rise_hash(rises, rem))
    return (first * _geo(width, units)[0] + h) % _P


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
    __slots__ = ("name", "length", "width", "tag", "code")

    def __init__(self, name, length, width):
        self.name = name
        self.length = length
        self.width = width
        self.tag = _region_tag(name)
        self.code = 1 + (int.from_bytes(self.tag, "little") << 65)

    def event(self, kind):
        """The part of this region's event integers that is not the offset."""
        return self.code + (kind << 64)


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
        """Register (or rebind) a named non-OM buffer of `length` records.

        Records already taken keep the region they were taken against, so
        rebinding a name never changes how they quantize.  Registering the
        same shape again keeps the region, so its records stay equal to the
        earlier ones (a digest hashes each distinct record once).
        """
        reg = self._regions.get(name)
        if reg is None or (reg.length, reg.width) != (length, width):
            self._regions[name] = _Region(name, length, width)

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

    def _check_run(self, name, start, count):
        """Region `name`, checked to hold elements [start, start+count)."""
        reg = self._require(name)
        if not (0 <= start and start + count <= reg.length):
            raise IndexError("run [%d,%d) outside region %r" % (start, start + count, name))
        return reg

    def seq(self, worker, region, kind, start, count):
        """Record a sequential run over elements [start, start+count)."""
        if not self.enabled or count == 0:
            return
        reg = self._check_run(region, start, count)
        self._stream(worker).append(("seq", reg, kind, int(start), int(count)))

    def zip2(self, worker, region_a, kind_a, start_a, region_b, kind_b, start_b, count):
        """Record two interleaved element runs: a0, b0, a1, b1, ..."""
        if not self.enabled or count == 0:
            return
        reg_a = self._check_run(region_a, start_a, count)
        reg_b = self._check_run(region_b, start_b, count)
        self._stream(worker).append(
            ("zip", reg_a, kind_a, int(start_a), reg_b, kind_b, int(start_b), int(count))
        )

    def cx_pass(self, worker, region, stride, length):
        """Record one full compare-exchange pass at `stride` over [0, length).

        Expands to (read i, read i+stride, write i, write i+stride) for every
        i with the stride bit clear, in ascending i order; both positions are
        always written, so the pattern carries no data dependence.  `length`
        must be a multiple of 2 * stride (ValueError) inside the region
        (IndexError).
        """
        if not self.enabled:
            return
        if stride < 1 or length % (2 * stride):
            raise ValueError("cx pass of length %d at stride %d is not whole pairs of "
                             "stride-long runs" % (length, stride))
        reg = self._check_run(region, 0, length)
        self._stream(worker).append(("cx", reg, int(stride), int(length)))

    def points(self, worker, region, kind, offsets):
        """Record accesses at explicit element offsets (in the given order)."""
        if not self.enabled or len(offsets) == 0:
            return
        reg = self._require(region)
        offsets = tuple(int(o) for o in offsets)
        if min(offsets) < 0 or max(offsets) >= reg.length:
            raise IndexError("point outside region %r" % region)
        self._stream(worker).append(("pts", reg, kind, offsets))

    # -- expansion ---------------------------------------------------------

    def _ratio(self, reg):
        """Element width over the granularity, in lowest terms (1/1 at ELEMENT)."""
        if self.granularity is ELEMENT:
            return 1, 1
        g = math.gcd(reg.width, self.granularity)
        return reg.width // g, self.granularity // g

    def _quantize(self, reg, element_offsets):
        num, den = self._ratio(reg)
        return (np.asarray(element_offsets, dtype=np.uint64) * np.uint64(num)) // np.uint64(den)

    def _expand(self, rec):
        """(region names, region index, kind and quantized offset per event)."""
        code = rec[0]
        if code == "seq":
            _, reg, kind, start, count = rec
            offs = self._quantize(reg, np.arange(start, start + count))
            return ((reg.name,), np.zeros(count, np.uint8), np.full(count, kind, np.uint8),
                    offs)
        if code == "pts":
            _, reg, kind, offsets = rec
            n = len(offsets)
            return ((reg.name,), np.zeros(n, np.uint8), np.full(n, kind, np.uint8),
                    self._quantize(reg, offsets))
        if code == "zip":
            _, ra, ka, sa, rb, kb, sb, count = rec
            offs = np.empty((count, 2), np.uint64)
            offs[:, 0] = self._quantize(ra, np.arange(sa, sa + count))
            offs[:, 1] = self._quantize(rb, np.arange(sb, sb + count))
            return ((ra.name, rb.name), np.tile(np.array([0, 1], np.uint8), count),
                    np.tile(np.array([ka, kb], np.uint8), count), offs.reshape(-1))
        if code == "cx":
            _, reg, stride, length = rec
            half = np.arange(length // 2)
            i = (half // stride) * (2 * stride) + half % stride
            quad = np.stack([i, i + stride, i, i + stride], axis=1)
            n = len(quad) * 4
            return ((reg.name,), np.zeros(n, np.uint8),
                    np.tile(np.array([READ, READ, WRITE, WRITE], np.uint8), len(quad)),
                    self._quantize(reg, quad.reshape(-1)))
        raise AssertionError("unknown trace record %r" % (code,))  # pragma: no cover

    def events(self, worker=None):
        """Iterate the fully expanded event sequence (one worker or all).

        Intended for tests and small traces; digests and `first_divergence`
        never materialize events one at a time.
        """
        workers = sorted(self._streams) if worker is None else [worker]
        for w in workers:
            for rec in self._streams.get(w, []):
                names, which, kinds, offs = self._expand(rec)
                for r, kind, off in zip(which.tolist(), kinds.tolist(), offs.tolist()):
                    yield AccessEvent(w, names[r], off, kind)

    # -- digests -----------------------------------------------------------

    def _lane(self, reg, kind, start):
        num, den = self._ratio(reg)
        return reg.event(int(kind)), start, num, den

    def _record_hash(self, rec):
        """(event count, polynomial hash) of one record's events."""
        code = rec[0]
        if code == "seq":
            _, reg, kind, start, count = rec
            return count, _lanes_hash((self._lane(reg, kind, start),), count)
        if code == "zip":
            _, ra, ka, sa, rb, kb, sb, count = rec
            lanes = (self._lane(ra, ka, sa), self._lane(rb, kb, sb))
            return 2 * count, _lanes_hash(lanes, count)
        if code == "cx":
            return self._cx_hash(rec)
        if code == "pts":
            _, reg, kind, offsets = rec
            c = reg.event(int(kind))
            num, den = self._ratio(reg)
            h = 0
            for o in offsets:
                h = (h * _X + c + o * num // den) % _P
            return len(offsets), h
        raise AssertionError("unknown trace record %r" % (code,))  # pragma: no cover

    def _cx_hash(self, rec):
        """A cx pass is groups of `stride` quads, group g covering [2sg, 2sg + 2s).

        A group is four lanes of `stride` rounds.  Group g + c repeats group
        g with every offset raised by the same amount once 2sc elements are
        a whole number of quantization periods, c = den / gcd(den, 2s).
        """
        _, reg, s, length = rec
        num, den = self._ratio(reg)
        read = reg.event(READ)
        write = reg.event(WRITE)
        groups = length // (2 * s)
        c = den // math.gcd(den, 2 * s)
        m = 4 * s  # events per group
        rise = c * 2 * s * num // den  # per event from group g to g + c
        hashes = []
        for g in range(min(c, groups)):
            x = 2 * s * g
            lanes = ((read, x, num, den), (read, x + s, num, den),
                     (write, x, num, den), (write, x + s, num, den))
            hashes.append(_lanes_hash(lanes, s))
        copies, rem = divmod(groups, c)
        h = 0
        if copies:
            block = 0
            for hg in hashes:
                block = (block * _xpow(m) + hg) % _P
            s0, s1 = _geo(c * m, copies)
            h = block * s0 + rise * _geo(1, c * m)[0] * s1
        lift = copies * rise * _geo(1, m)[0]
        for hg in hashes[:rem]:
            h = (h * _xpow(m) + hg + lift) % _P
        return groups * m, h % _P

    def _prefix_states(self, worker, start=0, end=None):
        """(event count, hash) of the worker's stream after each record, from (0, 0)."""
        count = h = 0
        states = [(0, 0)]
        known = {}  # a repeated record is hashed once per call
        for rec in self._streams.get(worker, [])[start:end]:
            hashed = known.get(rec)
            if hashed is None:
                hashed = known[rec] = self._record_hash(rec)
            n, hr = hashed
            count += n
            h = (h * _xpow(n) + hr) % _P
            states.append((count, h))
        return states

    def mark(self):
        """Checkpoint the current stream lengths (used for per-stage digests)."""
        return {w: len(s) for w, s in self._streams.items()}

    def worker_digests(self, start=None, end=None):
        """Hex digest of each worker's expanded event stream.

        For events e_0 .. e_{N-1} (see the module docstring for the event
        integers) this is sha256 of "N:H", H = sum_i e_i * X^(N-1-i) mod
        2^127 - 1.  H is computed per record in closed form, in O(records),
        and is a function of the event sequence alone, not of how it was
        recorded.  Distinct sequences of equal length N collide with
        probability at most N / (2^127 - 1).  `start` and `end` are `mark()`
        checkpoints bounding the records digested.
        """
        out = {}
        for w in sorted(self._streams):
            lo = 0 if start is None else start.get(w, 0)
            hi = None if end is None else end.get(w)
            count, h = self._prefix_states(w, lo, hi)[-1]
            out[w] = hashlib.sha256(b"%d:%d" % (count, h)).hexdigest()
        return out

    def digest(self, start=None, end=None):
        """Combined digest: order-dependent per worker, order-free across workers."""
        per_worker = self.worker_digests(start, end)
        h = hashlib.sha256()
        for d in sorted(per_worker.values()):
            h.update(bytes.fromhex(d))
        return h.hexdigest()

    def dump(self, fp):
        """Write one `worker,region,offset,kind` line per event."""
        for ev in self.events():
            fp.write("%d,%s,%d,%s\n" % ev.astuple())

    def first_divergence(self, other):
        """First differing (worker, event index, ours, theirs), or None.

        Workers are compared pairwise; a missing worker diverges at index 0.
        Workers with equal hashes are skipped, and so is the longest record
        prefix whose (event count, hash) state both traces reach; only the
        records after it are expanded, a record at a time, and compared as
        arrays.
        """
        for w in sorted(set(self._streams) | set(other._streams)):
            mine, theirs = self._prefix_states(w), other._prefix_states(w)
            if mine[-1] == theirs[-1]:
                continue
            reached = {state: j for j, state in enumerate(theirs)}
            i = max(i for i, state in enumerate(mine) if state in reached)
            found = _first_mismatch(self._event_chunks(w, i), other._event_chunks(w, reached[mine[i]]))
            if found is not None:
                idx, a, b = found
                return w, mine[i][0] + idx, _event(w, a), _event(w, b)
        return None

    def _event_chunks(self, worker, first):
        """Per record from `first` on: an (region name, kind, offset) event array."""
        for rec in self._streams[worker][first:] if worker in self._streams else ():
            names, which, kinds, offs = self._expand(rec)
            ev = np.empty(len(offs), _EVENT_DTYPE)
            ev["region"] = np.array(names, dtype=object)[which]
            ev["kind"] = kinds
            ev["offset"] = offs
            yield ev


_EVENT_DTYPE = np.dtype([("region", object), ("kind", np.uint8), ("offset", np.uint64)])


def _event(worker, ev):
    if ev is None:
        return None
    return AccessEvent(worker, ev["region"], int(ev["offset"]), int(ev["kind"]))


def _first_mismatch(mine, theirs):
    """(index, ours, theirs) of the first differing event of two chunk streams.

    An exhausted side reads as None; None if both streams are equal.
    """
    a = b = None
    done = 0
    while True:
        if a is None or not len(a):
            a = next((c for c in mine if len(c)), None)
        if b is None or not len(b):
            b = next((c for c in theirs if len(c)), None)
        if a is None or b is None:
            if a is None and b is None:
                return None
            return done, None if a is None else a[0], None if b is None else b[0]
        n = min(len(a), len(b))
        diff = np.flatnonzero((a[:n]["offset"] != b[:n]["offset"])
                              | (a[:n]["kind"] != b[:n]["kind"])
                              | (a[:n]["region"] != b[:n]["region"]))
        if len(diff):
            j = diff[0]
            return done + int(j), a[j], b[j]
        a, b, done = a[n:], b[n:], done + n


class OMAlloc:
    """A live allocation inside an arena (its storage is the caller's)."""

    __slots__ = ("offset", "nbytes")

    def __init__(self, offset, nbytes):
        self.offset = offset
        self.nbytes = nbytes


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


class Buffer:
    """Fixed-width record array in observable memory.

    All element reads and writes go through the trace.  `data` is exposed for
    in-OM computation over values already accounted for by a recorded access;
    bulk helpers keep the recorded pattern and the actual data movement side
    by side so they cannot drift apart.  The grid scan is the exception: it
    records its per-block reads with ``trace.seq`` directly and copies
    nothing for them, then moves a whole scan's edge data in one kernel call,
    with its output buffer's data as the owned side (see `oblige.scan`).
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
        return cls(trace, name, copy_records(rows), record_init=True, worker=worker)

    def __len__(self):
        return len(self.data)

    def read(self, lo, hi, worker=0):
        """Sequentially read records [lo, hi) into OM; returns a private copy."""
        self.trace.seq(worker, self.name, READ, lo, hi - lo)
        return copy_records(self.data[lo:hi])

    def write(self, lo, rows, worker=0):
        """Sequentially write `rows` at [lo, lo+len(rows))."""
        self.trace.seq(worker, self.name, WRITE, lo, len(rows))
        assign_records(self.data[lo:lo + len(rows)], rows)


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
