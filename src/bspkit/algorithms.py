"""Teaching algorithms written against the bsml/sgl primitives.

Each algorithm is paired with a plain sequential oracle used by the check and
acceptance suites, and each is addressable by name from the CLI through
``ALGORITHMS``.  Floating-point reductions use a fixed left-balanced tree
order and the n-body force loop a fixed ascending-index summation order, so
results are bit-identical across backends and processor counts.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from hashlib import blake2b
from itertools import accumulate, chain
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .bsml import apply, mkpar, nprocs, proj, put
from .errors import UsageError, ValidationError
from .library import broadcast, reduce, scan, split_blocks, tree_fold  # re-exported: the collectives live in library
from .model import ParVec
from .sgl import lmap, scatter


def _papply(f: Callable[[int, Any], Any], pv: ParVec, work: Any = 1) -> ParVec:
    """apply with the pid passed alongside the element; the function vector is code and holds no words."""
    return apply(ParVec(partial(f, i) for i in range(nprocs())), pv, work=work)


def _block_work(blk) -> int:
    return max(len(blk), 1)


def _rows_work(rows) -> int:
    """Work of reading an inbox: the items received, at least 1."""
    return sum(len(r) for r in rows if r) or 1


# --- distributed arrays -----------------------------------------------------


@dataclass(frozen=True)
class DistArray:
    """Block-distributed sequence: ParVec of local blocks, global order by pid."""

    blocks: ParVec

    def to_list(self) -> list:
        return [x for blk in self.blocks for x in blk]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(blk) for blk in self.blocks)


def distribute(xs: Sequence) -> DistArray:
    """Materialize a sequence as near-equal contiguous blocks (sizes differ <= 1)."""
    blocks = split_blocks(xs, nprocs())
    return DistArray(mkpar(lambda i: blocks[i], work=0))


# --- elementary collectives -------------------------------------------------


def total_exchange(n: int) -> ParVec:
    """Every pid sends an n-word payload to every other pid; one superstep.

    The payload from s to d is n copies of 10*s + d, so receptions are
    checkable by inspection.
    """
    p = nprocs()
    plans = mkpar(lambda s: {d: (10 * s + d,) * n for d in range(p) if d != s}, work=0)
    return put(plans)


def ring_shift(n: int) -> ParVec:
    """Each pid sends an n-word payload to (pid+1) mod p; one superstep."""
    p = nprocs()
    plans = mkpar(lambda s: {(s + 1) % p: tuple([s] * n)}, work=0)
    return put(plans)


# --- parallel sample sort ----------------------------------------------------


def sample_sort(d: DistArray) -> DistArray:
    """Sort by regular sampling; exactly 3 data-bearing supersteps.

    Ties are broken by (key, origin pid, origin index), which makes the
    element order total and the redistribution deterministic; with
    oversampling factor p no output block exceeds 2n/p + p elements.  Each
    block is sorted stably as plain keys, so a key's position in its sorted
    block orders its ties as its origin index does; only the samples and
    splitters carry the tag ``(key, pid, position)``.
    """
    p = nprocs()

    ordered = _papply(lambda i, blk: tuple(sorted(blk)), d.blocks, work=_block_work)

    def local_samples(i, blk):
        m = len(blk)
        if m == 0:
            return ()
        positions = sorted({(j * m) // p for j in range(p)})
        return tuple((blk[t], i, t) for t in positions)

    sample_plans = _papply(lambda i, blk: {0: local_samples(i, blk)}, ordered, work=1)
    at_root = put(sample_plans)  # superstep 1: sample gather

    def pick_splitters(rows):
        samples = sorted(chain.from_iterable(r for r in rows if r))
        m = len(samples)
        if m == 0 or p == 1:
            return ()
        return tuple(samples[min((k * m) // p, m - 1)] for k in range(1, p))

    splitter_plans = _papply(
        lambda i, rows: dict.fromkeys(range(p), pick_splitters(rows)) if i == 0 else {},
        at_root,
        work=_rows_work,
    )
    with_splitters = put(splitter_plans)  # superstep 2: splitter broadcast

    bucket_plans = _papply(lambda i, blk: _partition(i, blk, with_splitters[i][0]), ordered, work=_block_work)
    exchanged = put(bucket_plans)  # superstep 3: all-to-all redistribution

    # the runs arrive in source-pid order, so a stable sort orders equal keys by (origin pid, origin index)
    merged = _papply(
        lambda i, rows: tuple(sorted(chain.from_iterable(r for r in rows if r))),
        exchanged,
        work=_rows_work,
    )
    return DistArray(merged)


def _partition(i: int, blk, splitters) -> dict[int, tuple]:
    """Split pid i's sorted block into per-destination runs at the tagged splitters.

    Splitter ``(k, q, t)`` cuts where the tag ``(k, q, t)`` falls among the
    block's tags ``(key, i, position)``: at its own position t when q is i,
    after the keys equal to k when i < q, and before them when i > q.  The
    cut points never decrease, so each key lands in one run even where the
    keys have no total order (NaN).
    """
    if not splitters:
        return {0: blk} if blk else {}
    bounds = [t if q == i else (bisect_right if i < q else bisect_left)(blk, k) for k, q, t in splitters]
    out: dict[int, tuple] = {}
    start = 0
    for dest, end in enumerate(bounds + [len(blk)]):
        if end > start:
            out[dest] = blk[start:end]
        start = max(start, end)
    return out


def seq_sort(xs: Sequence) -> list:
    """Oracle: plain sequential sort."""
    return sorted(xs)


# --- n-body -----------------------------------------------------------------


@dataclass(frozen=True)
class Body:
    """Point mass in the plane."""

    pos: tuple[float, float]
    vel: tuple[float, float]
    mass: float


def _check_bodies(bodies: Iterable[Body]) -> None:
    for i, b in enumerate(bodies):
        values = (*b.pos, *b.vel, b.mass)
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"body {i} has a non-finite component: {b}")
        if not b.mass > 0:
            raise ValidationError(f"body {i} has non-positive mass {b.mass}")


_G = 1.0  # gravitational constant
_EPS2 = 0.01 * 0.01  # squared softening length
_CELLS = 1 << 16  # body pairs per numpy chunk in _accels, which bounds its temporary arrays


def _accel(i: int, positions: Sequence[tuple[float, float]], masses: Sequence[float]) -> tuple[float, float]:
    """All-pairs acceleration on body i (G = 1, softening 0.01), summed in ascending j order."""
    ax = 0.0
    ay = 0.0
    xi, yi = positions[i]
    for j in range(len(positions)):
        if j == i:
            continue
        dx = positions[j][0] - xi
        dy = positions[j][1] - yi
        r2 = dx * dx + dy * dy + _EPS2
        w = _G * masses[j] / (r2 * math.sqrt(r2))
        ax += w * dx
        ay += w * dy
    return ax, ay


def _accels(rows: range, positions, masses) -> list[tuple[float, float]]:
    """``[_accel(i, positions, masses) for i in rows]`` of float positions and masses, bit for bit, in numpy.

    Every term is _accel's expression in its order, and each operation is
    correctly rounded in numpy as in Python.  The term j == i is +0.0, and
    each row is summed left to right from +0.0 with ``np.add.accumulate``
    (``np.sum`` would sum pairwise).  A running sum from +0.0 is never -0.0,
    so adding the +0.0 term leaves it unchanged.
    """
    xy = np.asarray(positions, dtype=float).reshape(-1, 2)
    x, y = xy[:, 0], xy[:, 1]
    gm = _G * np.asarray(masses, dtype=float)
    n = len(x)
    out: list[tuple[float, float]] = []
    chunk = max(_CELLS // (n + 1), 1)
    with np.errstate(all="ignore"):  # overflow and nan arise silently, as in Python float arithmetic
        for start in range(rows.start, rows.stop, chunk):
            i = np.arange(start, min(start + chunk, rows.stop))
            dx = x - x[i, None]
            dy = y - y[i, None]
            r2 = (dx * dx + dy * dy) + _EPS2
            w = gm / (r2 * np.sqrt(r2))
            terms = np.zeros((2, len(i), n + 1))  # column 0 is the +0.0 each sum starts from
            np.multiply(w, dx, out=terms[0, :, 1:])
            np.multiply(w, dy, out=terms[1, :, 1:])
            terms[:, np.arange(len(i)), i + 1] = 0.0
            ax, ay = np.add.accumulate(terms, axis=2)[:, :, -1].tolist()
            out += zip(ax, ay)
    return out


def _float_bodies(positions, masses) -> bool:
    """Whether every mass is a float and every position a tuple of two floats, whose arithmetic numpy repeats exactly."""
    return all(type(m) is float for m in masses) and all(
        type(q) is tuple and len(q) == 2 and type(q[0]) is type(q[1]) is float for q in positions
    )


def nbody_step(d: DistArray, dt: float) -> DistArray:
    """One kick-drift-kick leapfrog step over all-pairs gravity.

    The full body list is replicated twice (before each force evaluation), so
    one step carries exactly two communication supersteps regardless of n or
    p; the final kick's local work is closed by the next barrier.
    """
    if not dt > 0:
        raise ValidationError(f"dt must be > 0, got {dt!r}")
    _check_bodies(d.to_list())

    half_dt = dt * 0.5

    def kick_drift(b, ax, ay):
        vx = b.vel[0] + ax * half_dt
        vy = b.vel[1] + ay * half_dt
        return Body(pos=(b.pos[0] + vx * dt, b.pos[1] + vy * dt), vel=(vx, vy), mass=b.mass)

    def kick(b, ax, ay):
        return Body(pos=b.pos, vel=(b.vel[0] + ax * half_dt, b.vel[1] + ay * half_dt), mass=b.mass)

    moved = _replicate_and_update(d.blocks, kick_drift)  # superstep 1: replicate current state
    return DistArray(_replicate_and_update(moved, kick))  # superstep 2: replicate drifted positions


def _replicate_and_update(blocks: ParVec, update: Callable) -> ParVec:
    """Replicate every body with proj, then replace each local body b by update(b, *its acceleration)."""
    snapshot = proj(blocks)
    offsets = list(accumulate(map(len, snapshot), initial=0))  # global index of each pid's first body
    flat = [b for blk in snapshot for b in blk]
    positions = [b.pos for b in flat]
    masses = [b.mass for b in flat]
    if _float_bodies(positions, masses):
        xy, ms = np.array(positions), np.array(masses)
        forces = lambda rows: _accels(rows, xy, ms)
    else:  # ints, Fractions and the like keep Python's own arithmetic, and its errors
        forces = lambda rows: (_accel(j, positions, masses) for j in rows)
    return _papply(
        lambda i, blk: tuple(update(b, *a) for b, a in zip(blk, forces(range(offsets[i], offsets[i + 1])))),
        blocks,
        work=_nbody_work(len(flat)),
    )


def _nbody_work(n: int):
    return lambda blk: max(len(blk) * max(n - 1, 1), 1)


def seq_nbody_step(bodies: Sequence[Body], dt: float) -> list[Body]:
    """Oracle: one leapfrog step computed by a direct sequential loop.

    Mirrors the parallel step's arithmetic (same expressions, same ascending
    summation order) so equality is bit-exact.
    """
    _check_bodies(bodies)
    half_dt = dt * 0.5
    positions = [b.pos for b in bodies]
    masses = [b.mass for b in bodies]
    moved = []
    for i, b in enumerate(bodies):
        ax, ay = _accel(i, positions, masses)
        vx = b.vel[0] + ax * half_dt
        vy = b.vel[1] + ay * half_dt
        moved.append(Body(pos=(b.pos[0] + vx * dt, b.pos[1] + vy * dt), vel=(vx, vy), mass=b.mass))
    positions2 = [b.pos for b in moved]
    masses2 = [b.mass for b in moved]
    out = []
    for i, b in enumerate(moved):
        ax, ay = _accel(i, positions2, masses2)
        out.append(Body(pos=b.pos, vel=(b.vel[0] + ax * half_dt, b.vel[1] + ay * half_dt), mass=b.mass))
    return out


# --- balanced parallel hashing ------------------------------------------------


class _Absent:
    """Singleton marker for keys not present in a DistHash."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()

DEFAULT_HASH_SEED = 0x5EED

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit mixing function."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def key_hash(key, seed: int) -> int:
    """Deterministic 64-bit key hash, independent of interpreter salting."""
    if isinstance(key, int):
        return mix64((key & _M64) ^ mix64(seed & _M64))
    if isinstance(key, str):
        data = key.encode("utf-8", "surrogatepass")
    elif isinstance(key, bytes):
        data = key
    else:
        data = repr(key).encode("utf-8")
    digest = blake2b(data, digest_size=8, key=(seed & _M64).to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


_SPLITMIX = tuple(map(np.uint64, (0x9E3779B97F4A7C15, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))  # mix64's constants


def _mix64s(z: np.ndarray) -> np.ndarray:
    """mix64 of each element of a uint64 array: numpy's uint64 arithmetic wraps modulo 2**64 as mix64's masks do."""
    add, shift1, mul1, shift2, mul2, shift3 = _SPLITMIX
    z = z + add
    z = (z ^ (z >> shift1)) * mul1
    z = (z ^ (z >> shift2)) * mul2
    return z ^ (z >> shift3)


def key_owners(keys: Iterable, seed: int, p: int) -> list[int]:
    """key_hash(k, seed) % p for each key in order; the batch's int keys are mixed together as one uint64 array."""
    batch: list = []
    try:
        batch.extend(keys)
    finally:  # if the key iterator fails, the keys it gave are still hashed first, so an error of their own comes first
        ints = [k & _M64 for k in batch if isinstance(k, int)]
        mixed = iter(_mix64s(np.array(ints, dtype=np.uint64) ^ np.uint64(mix64(seed & _M64))).tolist())
        owners = [(next(mixed) if isinstance(k, int) else key_hash(k, seed)) % p for k in batch]
    return owners


def key_owner(key, seed: int, p: int) -> int:
    return key_owners((key,), seed, p)[0]


@dataclass(frozen=True)
class DistHash:
    """Distributed hash table: pair (k, v) lives at pid hash(k) mod p."""

    table: ParVec  # of dict


def hash_build(pairs: Iterable[tuple]) -> DistHash:
    """Bucket pairs by key hash and distribute from the root; one superstep."""
    p = nprocs()
    items: list[tuple] = []

    def keys():  # unpacks each pair just before its key is hashed, so a malformed pair and an unhashable key fail in input order
        for k, v in pairs:
            items.append((k, v))
            yield k

    owners = key_owners(keys(), DEFAULT_HASH_SEED, p)
    buckets: list[list] = [[] for _ in range(p)]
    for item, d in zip(items, owners):
        buckets[d].append(item)
    pv = scatter(0, [tuple(b) for b in buckets])
    table = lmap(dict, pv, work=_block_work)
    return DistHash(table=table)


def hash_lookup(table: DistHash, queries: DistArray) -> DistArray:
    """Resolve a distributed batch of keys; exactly 2 supersteps per batch.

    Each pid routes its queries to the owning pids, owners answer, and the
    results come back aligned with the query blocks; missing keys map to
    ABSENT.
    """
    p = nprocs()
    block_sizes = queries.sizes()

    def route(i, qblk):
        per_owner: dict[int, list] = {}
        for j, (k, d) in enumerate(zip(qblk, key_owners(qblk, DEFAULT_HASH_SEED, p))):
            per_owner.setdefault(d, []).append((j, k))
        return {d: tuple(v) for d, v in per_owner.items()}

    question_plans = _papply(route, queries.blocks, work=_block_work)
    questions = put(question_plans)  # superstep 1: queries to owners

    def answer(i, rows):
        local = table.table[i]
        return {s: tuple((j, local.get(k, ABSENT)) for j, k in r) for s, r in enumerate(rows) if r}

    answer_plans = _papply(answer, questions, work=_rows_work)
    answers = put(answer_plans)  # superstep 2: answers back

    def assemble(i, rows):
        out: list = [ABSENT] * block_sizes[i]
        for r in rows:
            if r:
                for j, val in r:
                    out[j] = val
        return tuple(out)

    return DistArray(_papply(assemble, answers, work=_rows_work))


def seq_lookup(pairs: Iterable[tuple], keys: Sequence) -> list:
    """Oracle: dict lookup with the same absent marker."""
    d = dict(pairs)
    return [d.get(k, ABSENT) for k in keys]


# --- input generators and the CLI registry ------------------------------------

DISTRIBUTIONS = ("uniform", "sorted", "reverse", "equal")


def gen_keys(n: int, seed: int, distribution: str = "uniform") -> list[int]:
    rng = random.Random(seed)
    if distribution == "uniform":
        return [rng.getrandbits(32) for _ in range(n)]
    if distribution == "sorted":
        return sorted(rng.getrandbits(32) for _ in range(n))
    if distribution == "reverse":
        return sorted((rng.getrandbits(32) for _ in range(n)), reverse=True)
    if distribution == "equal":
        return [42] * n
    raise UsageError(f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}")


def gen_bodies(n: int, seed: int) -> list[Body]:
    rng = random.Random(seed)
    return [
        Body(
            pos=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            vel=(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)),
            mass=rng.uniform(0.5, 2.0),
        )
        for _ in range(n)
    ]


def _prog_broadcast(n, seed, distribution):
    payload = tuple(gen_keys(n, seed, distribution))

    def program():
        return broadcast(0, payload)

    return program


def _prog_total_exchange(n, seed, distribution):
    def program():
        return total_exchange(n)

    return program


def _prog_ring_shift(n, seed, distribution):
    def program():
        return ring_shift(n)

    return program


def _prog_reduce(n, seed, distribution):
    xs = gen_keys(n, seed, distribution)

    def program():
        d = distribute(xs)
        partial = lmap(sum, d.blocks, work=_block_work)
        return reduce(lambda a, b: a + b, partial)

    return program


def _prog_scan(n, seed, distribution):
    xs = gen_keys(n, seed, distribution)

    def program():
        d = distribute(xs)
        partial = lmap(sum, d.blocks, work=_block_work)
        return scan(lambda a, b: a + b, partial)

    return program


def _prog_samplesort(n, seed, distribution):
    xs = gen_keys(n, seed, distribution)

    def program():
        return sample_sort(distribute(xs))

    return program


def _prog_nbody(n, seed, distribution):
    bodies = gen_bodies(n, seed)

    def program():
        return nbody_step(distribute(bodies), dt=0.01)

    return program


def _prog_hashlookup(n, seed, distribution):
    rng = random.Random(seed ^ 0xA5A5)
    pairs = [(k, k * 3 + 1) for k in gen_keys(n, seed, distribution)]
    present = [k for k, _v in pairs]
    keys = [rng.choice(present) if present and rng.random() < 0.8 else rng.getrandbits(34) for _ in range(max(n // 2, 1))]

    def program():
        table = hash_build(pairs)
        return hash_lookup(table, distribute(keys))

    return program


def _prog_empty(n, seed, distribution):
    def program():
        return None

    return program


#: name -> builder(n, seed, distribution) -> zero-argument program
ALGORITHMS: dict[str, Callable] = {
    "broadcast": _prog_broadcast,
    "total-exchange": _prog_total_exchange,
    "ring-shift": _prog_ring_shift,
    "reduce": _prog_reduce,
    "scan": _prog_scan,
    "samplesort": _prog_samplesort,
    "nbody": _prog_nbody,
    "hashlookup": _prog_hashlookup,
    "empty": _prog_empty,
}


def build_program(name: str, n: int, seed: int, distribution: str = "uniform"):
    if name not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {name!r}; known: {', '.join(sorted(ALGORITHMS))}")
    return ALGORITHMS[name](n, seed, distribution)
