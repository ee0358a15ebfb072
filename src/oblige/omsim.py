"""Simulated oblivious memory and memory-access trace recording.

Storage is split into two worlds.  :class:`OMArena` models the bounded
on-chip oblivious memory (OM) as a byte budget: allocations are checked
against it, and nothing that happens inside the OM is ever recorded.
:class:`Buffer` models ordinary observable memory: a named record array
registered with an :class:`AccessTrace`.  It records nothing itself; the
code that moves its records records each access beside the move.

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

The recorder stores every access in one compressed form, the record made
by `AccessTrace.repeat`: a group of runs repeated `count` times, each run's
offsets rising by a constant per copy, a run being one sequential lane or
several lanes interleaved element by element.  A `seq` is one lane once, a
`zip2` two lanes once, a compare-exchange pass four lanes of `stride`
rounds repeated with rise 2*stride, and `points` one run of length 1 per
offset; a scan line's b (chunk, block) pairs, an o_sort round's P/seg
segment reads and writes, or the b^2 blocks of a grid decode or merge are
each one record too.  The digest is nevertheless defined on the expanded
event sequence.  Event (region, quantized offset q, kind) is the integer

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
its quads spelled out, a repeated group or its copies one by one all digest
alike.

H is evaluated per record in closed form, never by expanding events.  A
record is a block of m events repeated A times, copy a adding a*delta_j to
event j; with y = X^m and d = sum_j delta_j * X^(m-1-j) it hashes to
h * S0(y, A) + d * S1(y, A), where S0 and S1 are the plain and
index-weighted geometric sums (computed by doubling and memoized per
exponent), and records concatenate as H <- H * X^m_rec + h_rec.  At line
granularity a quantized offset rises by a constant only every c copies, c
the least common period of the lanes, so the block is c copies hashed one
by one, then repeated, then a remainder.  A digest therefore costs
O(records), and the same prefix states locate a divergence without walking
the events before it.
"""

import functools
import hashlib
import math
import operator

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


def with_fields(rows, dtype=None, **values):
    """Records of `dtype` (the rows' own by default) with each named field set.

    Every field not named in `values` is copied by name from `rows`, or left
    zero where `rows` has no such field.  At the rows' own dtype the copy is
    `copy_records`, one raw-byte copy.
    """
    dtype = rows.dtype if dtype is None else np.dtype(dtype)
    if dtype == rows.dtype:
        out = copy_records(rows)
    else:
        out = np.zeros(len(rows), dtype=dtype)
        for name in dtype.names:
            if name in rows.dtype.names and name not in values:
                out[name] = rows[name]
    for name, value in values.items():
        out[name] = value
    return out


def gather_records(rows, index):
    """``rows[index]`` for an integer index array, gathered as raw record bytes.

    A structured fancy gather converts field by field; gathering the opaque
    fixed-width values moves each record whole.  Indexing follows numpy:
    negative indices count from the end, out-of-range ones raise IndexError.
    """
    return _raw(rows)[index].view(rows.dtype)


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
# Its tuples are built from lists, not generators, so a digest leaves the
# collector's young-object count as it found it (no collection lands in it).


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


def _periodic(m, count, period, d, prefix, arg):
    """Hash of `count` units of m events: `period` units repeated, then a remainder.

    `prefix(arg, j)` hashes the first j <= period units; unit u + period is
    unit u with its m events risen by the values `d` hashes.
    """
    blocks, rem = divmod(count, period)
    h = 0
    if blocks:
        s0, s1 = _geo(m * period, blocks)
        h = prefix(arg, period) * s0 + d * _geo(m, period)[0] * s1
    if rem:
        h = h * _xpow(m * rem) + blocks * d * _geo(m, rem)[0] + prefix(arg, rem)
    return h % _P


def _lanes_hash(lanes, units):
    """Hash of `units` rounds of interleaved lanes, one event per lane a round.

    Every `period` rounds each lane's offset rises by period * num // den,
    so the rounds are periodic (see `_periodic`) after their first events.
    """
    period = 1
    for lane in lanes:
        period = math.lcm(period, lane[3])
    first = step = 0
    rises = []
    for c, x, num, den in lanes:
        first = (first * _X + c + x * num // den) % _P
        step = (step * _X + period * num // den) % _P
        rises.append((num, den, x % den))
    h = _periodic(len(lanes), units, period, step, _rise_hash, tuple(rises))
    return (first * _geo(len(lanes), units)[0] + h) % _P


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
    """A registered buffer; num/den is its width over the granularity, 1/1 at ELEMENT."""

    __slots__ = ("name", "length", "width", "tag", "code", "num", "den")

    def __init__(self, name, length, width, granularity):
        self.name = name
        self.length = length
        self.width = width
        self.tag = _region_tag(name)
        self.code = 1 + (int.from_bytes(self.tag, "little") << 65)
        g = 0 if granularity is ELEMENT else math.gcd(width, granularity)
        self.num, self.den = (width // g, granularity // g) if g else (1, 1)

    def event(self, kind):
        """The part of this region's event integers that is not the offset."""
        return self.code + (kind << 64)


class AccessTrace:
    """Append-only log of all memory accesses outside the oblivious memory.

    Only registered named buffers are traced; loop counters and other O(1)
    register-like state are deliberately invisible, matching the constant
    per-core state the scan algorithms keep outside their vertex chunks.
    `granularity` is ELEMENT or a line size in bytes, and has no default.
    """

    def __init__(self, granularity, enabled=True):
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
            self._regions[name] = _Region(name, length, width, self.granularity)

    def _require(self, name):
        region = self._regions.get(name)
        if region is None:
            raise KeyError("access to unregistered region %r" % name)
        return region

    # -- recording ---------------------------------------------------------

    def _check_run(self, name, start, count):
        """Region `name`, checked to hold elements [start, start+count)."""
        reg = self._require(name)
        if not (0 <= start and start + count <= reg.length):
            raise IndexError("run [%d,%d) outside region %r" % (start, start + count, name))
        return reg

    def seq(self, worker, region, kind, start, count):
        """Record a sequential run over elements [start, start+count)."""
        self.repeat(worker, [(region, kind, start, count, 0)], 1)

    def zip2(self, worker, region_a, kind_a, start_a, region_b, kind_b, start_b, count):
        """Record two interleaved element runs: a0, b0, a1, b1, ..."""
        self.repeat(worker, [((region_a, region_b), (kind_a, kind_b), (start_a, start_b),
                              count, (0, 0))], 1)

    def cx_pass(self, worker, region, stride, length):
        """Record one full compare-exchange pass at `stride` over [0, length).

        Expands to (read i, read i+stride, write i, write i+stride) for every
        i with the stride bit clear, in ascending i order; both positions are
        always written, so the pattern carries no data dependence.  `length`
        must be a multiple of 2 * stride (ValueError) inside the region
        (IndexError).  Group g of the pass is `stride` quads at
        [2*stride*g, 2*stride*(g+1)).
        """
        if not self.enabled:
            return
        if stride < 1 or length % (2 * stride):
            raise ValueError("cx pass of length %d at stride %d is not whole pairs of "
                             "stride-long runs" % (length, stride))
        self.repeat(worker, [((region,) * 4, (READ, READ, WRITE, WRITE), (0, stride, 0, stride),
                              stride, (2 * stride,) * 4)], length // (2 * stride))

    def repeat(self, worker, runs, count):
        """Record `count` copies of a group of runs, each copy's runs risen by a constant.

        This is the one record form: the other recording calls are special
        cases of it.  Each run is (region, kind, start, length, rise).  The
        events are, for a = 0 .. count-1 and each run in order, elements
        start + a*rise .. start + a*rise + length-1.  A run of interleaved
        lanes gives region, kind, start and rise as equal-length tuples, one
        entry per lane, and takes one element from each lane in turn, as
        `zip2` does.  Every lane's first and last copy must lie inside its
        region (IndexError) and no rise may be negative (ValueError).  Runs of
        length 0 add nothing.  The record is stored as (runs, count), a run
        as (lanes, length) and a lane as (region, kind, start, rise).
        """
        if not self.enabled or count == 0:
            return
        if count < 0:
            raise ValueError("repeat count %d is negative" % count)
        packed = []
        for region, kind, start, length, rise in runs:
            if length < 0:
                raise ValueError("run length %d is negative" % length)
            if isinstance(region, str):
                region, kind, start, rise = (region,), (kind,), (start,), (rise,)
            if not len(region) == len(kind) == len(start) == len(rise):
                raise ValueError("an interleaved run needs a kind, start and rise per lane")
            lanes = []
            for name, k, x, r in zip(region, kind, start, rise):
                if r < 0:
                    raise ValueError("run rise %d is negative" % r)
                reg = self._check_run(name, x, length)
                self._check_run(name, x + (count - 1) * r, length)
                lanes.append((reg, int(k), int(x), int(r)))
            if length:
                packed.append((tuple(lanes), int(length)))
        if packed:
            self._streams.setdefault(worker, []).append((tuple(packed), int(count)))

    def points(self, worker, region, kind, offsets):
        """Record accesses at explicit element offsets (in the given order).

        Each offset is a run of length 1 (IndexError outside the region).
        """
        self.repeat(worker, [(region, kind, o, 1, 0) for o in offsets], 1)

    # -- expansion ---------------------------------------------------------

    def _expand(self, rec):
        """(region names, region index, kind and quantized offset per event)."""
        runs, count = rec
        names = []
        # Per run: start, rise, region index, kind, num and den of each event
        # of copy 0.
        parts = []
        for lanes, length in runs:
            lane = []
            for reg, kind, start, rise in lanes:
                if reg.name not in names:
                    names.append(reg.name)
                lane.append((start, rise, names.index(reg.name), kind, reg.num, reg.den))
            lane = np.array(lane, dtype=np.uint64).T
            parts.append(np.repeat(lane[:, None, :], length, axis=1))
            parts[-1][0] += np.arange(length, dtype=np.uint64)[:, None]
        start, rise, which, kinds, num, den = (
            np.concatenate([p[f].reshape(-1) for p in parts]) for f in range(6))
        copies = np.arange(count, dtype=np.uint64)[:, None]
        offs = ((start + copies * rise) * num // den).reshape(-1)
        return (tuple(names), np.tile(which.astype(np.uint8), count),
                np.tile(kinds.astype(np.uint8), count), offs)

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

    def _repeat_hash(self, runs, count):
        """(event count, hash) of `count` copies of a group of runs (see `repeat`).

        A lane's quantized offset rises by the same amount from copy a to
        a + c once c * rise is a whole number of quantization periods,
        c = den / gcd(den, rise * num).  So the copies are periodic (see
        `_periodic`) with `period` the lcm of those c.
        """
        m = sum(len(lanes) * length for lanes, length in runs)

        def copy_hash(a):
            h = 0
            for lanes, length in runs:
                lane = tuple([(reg.event(kind), start + a * rise, reg.num, reg.den)
                              for reg, kind, start, rise in lanes])
                h = (h * _xpow(len(lanes) * length) + _lanes_hash(lane, length)) % _P
            return h

        if count == 1:  # a seq, zip2 or points record
            return m, copy_hash(0)
        period = math.lcm(*[reg.den // math.gcd(reg.den, rise * reg.num)
                            for lanes, _ in runs for reg, _, _, rise in lanes])
        # d: how much each event has risen after `period` copies, as a hash.
        d = 0
        for lanes, length in runs:
            step = 0
            for reg, _, _, rise in lanes:
                step = step * _X + period * rise * reg.num // reg.den
            d = (d * _xpow(len(lanes) * length) + step * _geo(len(lanes), length)[0]) % _P
        prefixes = [0]  # hash of the first j copies
        for a in range(min(period, count)):
            prefixes.append((prefixes[-1] * _xpow(m) + copy_hash(a)) % _P)
        return count * m, _periodic(m, count, period, d, operator.getitem, prefixes)

    def _prefix_states(self, worker, start=0, end=None):
        """(event count, hash) of the worker's stream after each record, from (0, 0)."""
        count = h = 0
        states = [(0, 0)]
        known = {}  # a repeated record is hashed once per call
        for rec in self._streams.get(worker, [])[start:end]:
            hashed = known.get(rec)
            if hashed is None:
                hashed = known[rec] = self._repeat_hash(*rec)
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
            hi = None if end is None else end.get(w, 0)
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


class OMArena:
    """The oblivious-memory byte budget; accesses to OM storage are untraced.

    `alloc` takes bytes and returns a handle that `free` gives back; OM
    contents live in ordinary arrays, so only the bytes in use and the peak
    are kept.  Going over capacity raises :class:`CapacityExceeded` at once:
    the caller broke its published OM budget, a test failure rather than a
    recoverable condition.
    """

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.used = 0
        self.peak = 0
        self._live = {}  # handle -> bytes

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
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        handle = object()
        self._live[handle] = nbytes
        return handle

    def free(self, handle):
        nbytes = self._live.pop(handle, None)
        if nbytes is None:
            raise ValueError("double free or foreign handle")
        self.used -= nbytes


class Buffer:
    """Fixed-width record array in observable memory, registered with a trace.

    `data` holds the records.  Constructing a buffer only registers it;
    code that moves its records records the access beside the move, with
    the trace's recording calls (each stored as one `repeat` record).
    """

    def __init__(self, trace, name, data):
        self.trace = trace
        self.name = name
        self.data = data
        trace.register(name, len(data), data.dtype.itemsize)

    def __len__(self):
        return len(self.data)


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

    def buffer_from_rows(self, name, rows):
        """A buffer holding a copy of `rows`, written by one sequential pass."""
        buf = Buffer(self.trace, name, copy_records(rows))
        self.trace.seq(0, name, WRITE, 0, len(rows))
        return buf
