"""Columnar (struct-of-arrays) state engine for million-node simulation.

The object model tops out around N = 4096: every node is a Python object
and every event touches one lease at a time.  This module keeps the hot
per-node state in parallel NumPy columns instead and processes whole
event batches with vectorised kernels:

* :class:`ColumnarStore` — the location-record table as sorted parallel
  columns (key, address triple, lease times, replica holders) with a
  precomputed expiry ordering, so a TTL sweep slices off the expired
  prefix instead of checking every lease;
* :class:`ColumnarDirectory` — the scale engine's location directory
  over that store and a static stationary membership.  The object
  directory (:class:`repro.core.location.LocationDirectory` over a
  ring-nearest overlay) is its **parity oracle**: on any seeded
  interleaving both must hold bit-identical snapshot rows;
* placement kernels — :func:`ring_nearest` (vectorised
  ``KeySpace.nearest_key``) and :func:`expand_holders` (vectorised
  replica placement, exact replica order of
  ``LocationDirectory._holders_near``);
* :func:`ldt_fanout` — closed-form batched Fig-4 dissemination fanout
  (message count and tree depth for many LDTs at once, validated against
  ``build_ldt`` on uniform-capacity registries);
* :class:`StatePairColumns` — registration/state-pair tables as columns
  (registrant, key, address, lease), bridged to/from the per-node
  :class:`repro.overlay.state.StateTable` object model;
* :func:`run_scale_shard` / :func:`run_traffic_shard` — one keyspace
  shard of the million-node churn and Zipf traffic-mix scenarios, built
  from the same shared steps (partition, publish, forest advertise,
  lookup).  Every per-key event stream is derived by hashing the key
  itself (:func:`mix64`), so any shard partition of the key population
  replays bit-identically to the serial run; the driver
  (``repro.experiments.ext_scaling``) fans shards out through
  ``sweep_map`` and merges snapshots by concatenation.

Kernels operate on whole columns; per-node Python loops over full
membership arrays are banned here by lint rule BRS009.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import sanitize as _sanitize
from ..core.ldt_forest import build_forest_columns, forest_depths, forest_from_columns
from .rng import derive_seed

__all__ = [
    "mix64",
    "ring_nearest",
    "replica_offsets",
    "expand_holders",
    "ldt_fanout",
    "ExpiryHeap",
    "ColumnarStore",
    "ColumnarDirectory",
    "StatePairColumns",
    "OWNED_COLUMNS",
    "ScaleShardParams",
    "ScaleShardResult",
    "TrafficMixParams",
    "run_scale_shard",
    "run_traffic_shard",
    "merge_shard_results",
    "snapshot_checksum",
]

#: Columnar kernels pack keys into uint64 columns; identifier rings wider
#: than 63 bits would overflow the ring-distance arithmetic.
MAX_COLUMNAR_BITS = 63

#: Every column attribute owned by this module's struct-of-arrays tables
#: (:class:`ColumnarStore` rows plus :class:`StatePairColumns.COLUMNS`).
#: The whole-program linter (BRS013, :mod:`repro.lint.wholeprogram`)
#: flags any store to one of these attributes on a columnar table
#: outside this kernel module: column invariants (sort order, expiry
#: ordering, holder fan-out) only hold when mutations go through the
#: batch API (``upsert``/``remove``/``expire``/``refresh``).
OWNED_COLUMNS = (
    "keys",
    "router",
    "port",
    "epoch",
    "published",
    "ttl",
    "expiry",
    "holders",
    "holder_count",
    "registrant",
    "key",
    "refreshed",
    "capacity",
    # LDT forest columns (repro.core.ldt_forest — the other columnar
    # kernel module): level-synchronous build invariants only hold when
    # these are written by build_forest_columns/build_ldt_forest.
    "tree_id",
    "tree_offsets",
    "parent",
    "parent_row",
    "level",
    "assigned",
)

_U64 = np.uint64
_I64 = np.int64
_F64 = np.float64

# splitmix64 finalizer constants (same mixing as repro.sim.rng.derive_seed).
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_MIX_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a uint64 column.

    Per-key randomness for the scale engine comes from hashing the key
    itself (plus a salt derived from the master seed), never from a
    sequential stream — that is what makes event streams independent of
    how the key population is sharded.
    """
    with np.errstate(over="ignore"):
        z = values.astype(_U64, copy=True)
        z += _U64(salt & 0xFFFFFFFFFFFFFFFF) + _MIX_GOLDEN
        z = (z ^ (z >> _U64(30))) * _MIX_MUL1
        z = (z ^ (z >> _U64(27))) * _MIX_MUL2
        return z ^ (z >> _U64(31))


def ring_nearest(
    sorted_keys: np.ndarray, targets: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised ``KeySpace.nearest_key`` over a whole target column.

    Returns ``(owner_idx, owner_key)`` — for each target, the index and
    value of the member key with minimal ring distance (ties to the
    numerically smaller key, bit-identical to the scalar oracle).
    """
    if sorted_keys.size == 0:
        raise ValueError("empty key array")
    if bits > MAX_COLUMNAR_BITS:
        raise ValueError(f"columnar kernels support bits <= {MAX_COLUMNAR_BITS}")
    keys = sorted_keys.astype(_U64, copy=False)
    tgt = targets.astype(_U64, copy=False)
    n = keys.size
    size = _U64(1 << bits)
    idx = np.searchsorted(keys, tgt)
    ia = idx % n  # successor (wraps to 0 past the end)
    ib = (idx - 1) % n  # predecessor
    ka, kb = keys[ia], keys[ib]
    with np.errstate(over="ignore"):
        mask = size - _U64(1)
        da_fwd = (ka - tgt) & mask
        db_fwd = (kb - tgt) & mask
    da = np.minimum(da_fwd, size - da_fwd)
    db = np.minimum(db_fwd, size - db_fwd)
    take_b = (db < da) | ((db == da) & (kb < ka))
    owner_idx = np.where(take_b, ib, ia)
    return owner_idx.astype(_I64), keys[owner_idx]


def replica_offsets(count: int) -> np.ndarray:
    """The replica placement order around an owner: 0, +1, −1, +2, −2, …

    Matches the alternate right/left walk of
    ``LocationDirectory._holders_near``; the first ``count`` offsets are
    always distinct modulo any membership size ``n >= count`` (their span
    is ``count − 1``), so no per-holder dedup is ever needed.
    """
    steps = np.arange(1, count, dtype=_I64)
    signed = np.where(steps % 2 == 1, (steps + 1) // 2, -(steps // 2))
    return np.concatenate([np.zeros(1, dtype=_I64), signed])


def expand_holders(
    sorted_keys: np.ndarray, owner_idx: np.ndarray, replication: int
) -> np.ndarray:
    """Vectorised replica expansion: holder matrix of shape ``(Q, count)``.

    Row ``q`` lists the holders for a record owned by the member at sorted
    index ``owner_idx[q]`` — the owner plus its ring neighbours in the
    alternate right/left order, ``min(replication, n)`` holders total,
    byte-identical (values and order) to the scalar oracle's walk.
    """
    keys = sorted_keys.astype(_U64, copy=False)
    n = keys.size
    count = min(replication, int(n))
    offs = replica_offsets(count)
    idx = (owner_idx.astype(_I64).reshape(-1, 1) + offs.reshape(1, -1)) % n
    return keys[idx]


def ldt_fanout(
    registry_sizes: np.ndarray,
    root_k: np.ndarray,
    member_k: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Fig-4 dissemination cost for many LDTs at once.

    For uniform-capacity registries the Fig-4 recursion is closed-form:
    a root with capacity for ``k`` partitions splits its ``R`` members
    round-robin, each partition head (capacity ``member_k``) recurses on
    its partition minus itself.  Messages are always ``R`` (every member
    receives the advertisement exactly once); depth follows the shrinking
    recursion ``R → ceil(R / k) − 1``.

    Parameters are per-tree columns: registry size, the root's partition
    count ``max(1, floor(Avail_root / v))`` and the members' shared
    partition count.  Returns ``(messages, depth)`` columns, validated
    against ``repro.core.ldt.build_ldt`` in the parity tests.
    """
    sizes = registry_sizes.astype(_I64, copy=True)
    rk = np.maximum(root_k.astype(_I64, copy=False), 1)
    mk = np.maximum(member_k.astype(_I64, copy=False), 1)
    messages = sizes.copy()
    depth = np.zeros_like(sizes)
    remaining = sizes.copy()
    k = rk.copy()
    active = remaining > 0
    while np.any(active):
        depth[active] += 1
        rem = remaining[active]
        kk = k[active]
        remaining[active] = -(-rem // kk) - 1  # ceil(rem / k) − 1
        k[active] = mk[active]
        active = remaining > 0
    return messages, depth


def snapshot_checksum(rows: Sequence[tuple]) -> str:
    """SHA-256 over a canonical snapshot (the cross-run identity)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


class ExpiryHeap:
    """Min-expiry index of ``LocationDirectory`` (lazy deletion).

    ``push`` records ``(expires_at, key)``; ``pop_expired`` pops every
    entry strictly below ``now`` and hands each to a validity callback
    (re-published or withdrawn keys leave stale entries behind, which the
    callback rejects).  Expiry cost is O(expired · log K) instead of the
    O(total records) full scan it replaces.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, expires_at: float, key: int) -> None:
        """Record that ``key``'s current lease lapses at ``expires_at``."""
        heapq.heappush(self._heap, (float(expires_at), int(key)))

    def clear(self) -> None:
        """Drop every entry (callers re-push on a full re-placement)."""
        self._heap.clear()

    def pop_expired(self, now: float) -> List[Tuple[float, int]]:
        """Pop every entry with ``expires_at < now`` (stale ones included;
        the caller validates against its own record table)."""
        out: List[Tuple[float, int]] = []
        heap = self._heap
        while heap and heap[0][0] < now:
            out.append(heapq.heappop(heap))
        return out


class ColumnarStore:
    """The location-record table as sorted parallel columns.

    One row per *key* (all replicas of a record share its lease and
    address, so the replica dimension folds into a fixed-width holder
    matrix).  Rows stay sorted by key; every mutation is a batch rebuild
    (O(K + B log B) for a B-row batch), and a stable expiry ordering is
    recomputed alongside so :meth:`expire` is a prefix slice.
    """

    def __init__(self, replication: int) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self.keys = np.empty(0, dtype=_U64)
        self.router = np.empty(0, dtype=_I64)
        self.port = np.empty(0, dtype=_I64)
        self.epoch = np.empty(0, dtype=_I64)
        self.published = np.empty(0, dtype=_F64)
        self.ttl = np.empty(0, dtype=_F64)
        self.expiry = np.empty(0, dtype=_F64)
        self.holders = np.empty((0, replication), dtype=_U64)
        self.holder_count = np.empty(0, dtype=_I64)
        #: Stable argsort of ``expiry`` (ties resolve in key order), the
        #: sorted expiry column behind the one-pass TTL sweep.
        self._exp_order = np.empty(0, dtype=_I64)

    def __len__(self) -> int:
        return int(self.keys.size)

    # ------------------------------------------------------------------
    # Mutation (batch-first)
    # ------------------------------------------------------------------
    def _set(self, **cols: np.ndarray) -> None:
        for name, arr in cols.items():
            setattr(self, name, arr)
        self._exp_order = np.argsort(self.expiry, kind="stable").astype(_I64)
        if _sanitize.ACTIVE:
            _sanitize.check_columnar_store(self)

    def _select(self, mask: np.ndarray) -> Dict[str, np.ndarray]:
        return {
            "keys": self.keys[mask],
            "router": self.router[mask],
            "port": self.port[mask],
            "epoch": self.epoch[mask],
            "published": self.published[mask],
            "ttl": self.ttl[mask],
            "expiry": self.expiry[mask],
            "holders": self.holders[mask],
            "holder_count": self.holder_count[mask],
        }

    def upsert(
        self,
        keys: np.ndarray,
        router: np.ndarray,
        port: np.ndarray,
        epoch: np.ndarray,
        published: np.ndarray,
        ttl: np.ndarray,
        holders: np.ndarray,
        holder_count: np.ndarray,
    ) -> None:
        """Insert-or-replace a batch of rows (batch keys must be unique)."""
        keys = keys.astype(_U64, copy=False)
        if keys.size == 0:
            return
        if self.keys.size:
            keep = ~np.isin(self.keys, keys)
            base = self._select(keep)
        else:
            base = self._select(np.zeros(0, dtype=bool))
        new_expiry = published + ttl
        pad = self.replication - holders.shape[1]
        if pad > 0:
            holders = np.concatenate(
                [holders, np.zeros((holders.shape[0], pad), dtype=_U64)], axis=1
            )
        merged_keys = np.concatenate([base["keys"], keys])
        order = np.argsort(merged_keys, kind="stable")
        self._set(
            keys=merged_keys[order],
            router=np.concatenate([base["router"], router.astype(_I64)])[order],
            port=np.concatenate([base["port"], port.astype(_I64)])[order],
            epoch=np.concatenate([base["epoch"], epoch.astype(_I64)])[order],
            published=np.concatenate([base["published"], published.astype(_F64)])[order],
            ttl=np.concatenate([base["ttl"], ttl.astype(_F64)])[order],
            expiry=np.concatenate([base["expiry"], new_expiry.astype(_F64)])[order],
            holders=np.concatenate([base["holders"], holders.astype(_U64)])[order],
            holder_count=np.concatenate(
                [base["holder_count"], holder_count.astype(_I64)]
            )[order],
        )

    def remove(self, keys: np.ndarray) -> np.ndarray:
        """Drop rows for ``keys``; returns the removed keys' holder counts
        (zero-length when nothing matched)."""
        keys = keys.astype(_U64, copy=False)
        if not self.keys.size or not keys.size:
            return np.empty(0, dtype=_I64)
        hit = np.isin(self.keys, keys)
        counts = self.holder_count[hit]
        self._set(**self._select(~hit))
        return counts

    def expire(self, now: float) -> np.ndarray:
        """One-pass TTL sweep: remove every row with ``expiry < now``.

        The expired rows form a prefix of the precomputed expiry ordering,
        so the sweep costs O(expired) plus one ``searchsorted`` — never a
        scan of the live rows.  Returns the expired keys, ascending.
        """
        if not self.keys.size:
            return np.empty(0, dtype=_U64)
        order = self._exp_order
        cut = int(np.searchsorted(self.expiry[order], now, side="left"))
        if cut == 0:
            return np.empty(0, dtype=_U64)
        dead_rows = order[:cut]
        dead_keys = np.sort(self.keys[dead_rows])
        keep = np.ones(self.keys.size, dtype=bool)
        keep[dead_rows] = False
        self._set(**self._select(keep))
        return dead_keys

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices for ``keys``: ``(rows, found_mask)`` via one
        ``searchsorted`` over the full key column."""
        q = keys.astype(_U64, copy=False)
        if not self.keys.size:
            return np.zeros(q.size, dtype=_I64), np.zeros(q.size, dtype=bool)
        idx = np.searchsorted(self.keys, q)
        idx_c = np.minimum(idx, self.keys.size - 1)
        found = self.keys[idx_c] == q
        return idx_c.astype(_I64), found

    def resolve_many(
        self, keys: np.ndarray, now: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk lookup: ``(rows, hit_mask)`` where a hit is a stored row
        whose lease is still fresh at ``now``."""
        rows, found = self.find(keys)
        fresh = np.zeros(found.shape, dtype=bool)
        fresh[found] = self.expiry[rows[found]] >= now
        return rows, found & fresh

    def snapshot_rows(self) -> List[tuple]:
        """Canonical per-replica rows, sorted by (key, holder) — the
        parity contract shared with ``LocationDirectory.snapshot``."""
        out: List[tuple] = []
        for i in range(len(self)):  # repro-lint: disable=BRS009 canonical export walks rows by design
            base = (
                int(self.router[i]),
                int(self.port[i]),
                int(self.epoch[i]),
                float(self.published[i]),
                float(self.ttl[i]),
            )
            key = int(self.keys[i])
            for h in sorted(
                int(h) for h in self.holders[i, : int(self.holder_count[i])]
            ):
                out.append((key, h) + base)
        return out


class ColumnarDirectory:
    """The scale engine's location directory over a static membership.

    Owners come from the vectorised :func:`ring_nearest` kernel over a
    sorted stationary-key column and replicas from
    :func:`expand_holders`; records live in a :class:`ColumnarStore`.
    The shard runners write whole batches through :attr:`store` and read
    them back with :meth:`resolve_array` — no overlay objects at all.
    ``LocationDirectory`` over a ring-nearest overlay is the parity
    oracle for this state evolution.
    """

    def __init__(
        self, space, *, stationary_keys: np.ndarray, replication: int = 3
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if space.bits > MAX_COLUMNAR_BITS:
            raise ValueError(
                f"ColumnarDirectory supports key_bits <= {MAX_COLUMNAR_BITS}"
            )
        self.space = space
        self._members = np.sort(stationary_keys.astype(_U64, copy=False))
        self.replication = replication
        self.store = ColumnarStore(replication)

    def holders_matrix(self, keys: np.ndarray) -> Tuple[np.ndarray, int]:
        """Vectorised holder sets: ``(holders (Q, count), count)``."""
        owner_idx, _ = ring_nearest(self._members, keys, self.space.bits)
        mat = expand_holders(self._members, owner_idx, self.replication)
        return mat, mat.shape[1]

    def resolve_array(
        self, keys: np.ndarray, now: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk lookup resolution: one searchsorted over the full key
        column.  Returns ``(hit, router, port, epoch)`` columns."""
        rows, hit = self.store.resolve_many(keys, now)
        found = rows[hit]  # only hit rows index the columns (the store may be empty)

        def column(values: np.ndarray) -> np.ndarray:
            out = np.full(hit.size, -1, dtype=_I64)
            out[hit] = values[found]
            return out

        s = self.store
        return hit, column(s.router), column(s.port), column(s.epoch)

    def withdraw_many(self, keys: np.ndarray) -> int:
        """Bulk withdrawal; returns total replicas removed."""
        counts = self.store.remove(keys)
        return int(counts.sum())

    def expire_leases(self, now: float) -> List[int]:
        """Drop every record whose lease lapsed before ``now`` — the
        sorted-expiry prefix sweep.  Returns the expired keys, ascending."""
        return [int(k) for k in self.store.expire(now)]


class StatePairColumns:
    """Registration/state-pair tables as parallel columns.

    Rows are (registrant, key) pairs — "registrant holds a leased
    state-pair for key" — sorted lexicographically, with address triple,
    lease times and the advertised capacity alongside.  Bridges to and
    from the per-node ``StateTable`` object model so parity tests can
    check the columnar lease kernels against the scalar ones.
    """

    COLUMNS = (
        "registrant",
        "key",
        "router",
        "port",
        "epoch",
        "refreshed",
        "ttl",
        "capacity",
    )

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        missing = set(self.COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"missing columns: {sorted(missing)}")
        order = np.lexsort((columns["key"], columns["registrant"]))
        for name in self.COLUMNS:
            setattr(self, name, np.asarray(columns[name])[order])

    def __len__(self) -> int:
        return int(self.registrant.size)

    @classmethod
    def from_tables(cls, tables: Dict[int, "StateTable"]) -> "StatePairColumns":
        """Flatten many nodes' state tables into one column set."""
        cols: Dict[str, List] = {name: [] for name in cls.COLUMNS}
        for owner in sorted(tables):
            for pair in tables[owner]:
                cols["registrant"].append(owner)
                cols["key"].append(pair.key)
                cols["router"].append(pair.addr.router if pair.addr else -1)
                cols["port"].append(pair.addr.port if pair.addr else -1)
                cols["epoch"].append(pair.addr.epoch if pair.addr else -1)
                cols["refreshed"].append(pair.refreshed_at)
                cols["ttl"].append(pair.ttl)
                cols["capacity"].append(pair.capacity)
        return cls(
            {
                "registrant": np.asarray(cols["registrant"], dtype=_U64),
                "key": np.asarray(cols["key"], dtype=_U64),
                "router": np.asarray(cols["router"], dtype=_I64),
                "port": np.asarray(cols["port"], dtype=_I64),
                "epoch": np.asarray(cols["epoch"], dtype=_I64),
                "refreshed": np.asarray(cols["refreshed"], dtype=_F64),
                "ttl": np.asarray(cols["ttl"], dtype=_F64),
                "capacity": np.asarray(cols["capacity"], dtype=_F64),
            }
        )

    def expire(self, now: float) -> "StatePairColumns":
        """Columnar lease sweep: drop every pair with
        ``refreshed + ttl < now`` (exactly ``StatePair.is_fresh``'s
        complement) in one vectorised pass."""
        keep = (self.refreshed + self.ttl) >= now
        return StatePairColumns(
            {name: getattr(self, name)[keep] for name in self.COLUMNS}
        )

    def refresh_keys(self, keys: np.ndarray, now: float) -> int:
        """Bulk lease renewal for every pair referencing ``keys``; returns
        the number of pairs refreshed."""
        hit = np.isin(self.key, keys.astype(_U64, copy=False))
        self.refreshed = np.where(hit, float(now), self.refreshed)
        return int(hit.sum())

    def registry_sizes(self) -> Dict[int, int]:
        """Pairs per referenced key — |R(i)| over the whole population."""
        uniq, counts = np.unique(self.key, return_counts=True)
        return {int(k): int(c) for k, c in zip(uniq, counts)}

    def rows(self) -> List[tuple]:
        """Canonical (registrant, key, router, port, epoch, refreshed,
        ttl, capacity) tuples, ascending — the parity contract."""
        out = []
        for i in range(len(self)):  # repro-lint: disable=BRS009 canonical export walks rows by design
            out.append(
                tuple(
                    (float if name in ("refreshed", "ttl", "capacity") else int)(
                        getattr(self, name)[i]
                    )
                    for name in self.COLUMNS
                )
            )
        return out


# ----------------------------------------------------------------------
# Keyspace-sharded million-node scenarios
# ----------------------------------------------------------------------
def _check_population(p) -> None:
    """Up-front checks shared by both shard parameter sets."""
    if not 1 <= p.key_bits <= MAX_COLUMNAR_BITS:
        raise ValueError(f"key_bits must be in [1, {MAX_COLUMNAR_BITS}]")
    if p.num_stationary < 1:
        raise ValueError("num_stationary must be >= 1")
    if p.num_mobile < 0 or p.lookups < 0:
        raise ValueError("num_mobile and lookups must be >= 0")
    if max(p.num_stationary, p.num_mobile) > 1 << p.key_bits:
        raise ValueError(
            f"{max(p.num_stationary, p.num_mobile)} unique keys do not fit "
            f"in a {p.key_bits}-bit key space"
        )
    if not 0 <= p.shard < p.shards:
        raise ValueError("shard index out of range")


@dataclasses.dataclass(frozen=True)
class ScaleShardParams:
    """One keyspace shard of the churn+traffic scale scenario.

    The full population parameters travel with every shard: each worker
    regenerates the (deterministic) stationary membership and the shared
    lookup stream, then keeps only the mobile keys whose owner position
    falls inside its shard.  Because every per-key event stream is a pure
    function of ``mix64(key, seed)``, the union of any shard partition is
    bit-identical to the serial run.
    """

    num_stationary: int
    num_mobile: int
    lookups: int
    rounds: int
    shard: int
    shards: int
    seed: int
    key_bits: int = 32
    replication: int = 3
    base_ttl: float = 60.0
    round_dt: float = 25.0
    registry_size: int = 20

    def __post_init__(self) -> None:
        _check_population(self)
        if self.registry_size < 1:
            raise ValueError("registry_size must be >= 1")


@dataclasses.dataclass
class ScaleShardResult:
    """Shard outcome: additive stats plus the shard's final store rows."""

    stats: Dict[str, int]
    rows: List[tuple]


def _draw_unique_keys(seed: int, name: str, count: int, bits: int) -> np.ndarray:
    """Sorted unique uint64 keys, deterministic in (seed, name).

    ``count`` must not exceed ``2**bits`` (the parameter classes check)."""
    gen = np.random.default_rng(derive_seed(seed, name))
    size = 1 << bits
    keys = np.unique(gen.integers(0, size, size=count, dtype=_U64))
    while keys.size < count:
        extra = gen.integers(0, size, size=count - keys.size, dtype=_U64)
        keys = np.unique(np.concatenate([keys, extra]))
    return keys[:count]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR tree offsets for per-tree registry sizes."""
    offsets = np.zeros(sizes.size + 1, dtype=_I64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _capacity(hashed: np.ndarray) -> np.ndarray:
    """Hashed capacity in 1..15 (the scale scenarios' ``Avail`` law)."""
    return ((hashed % _U64(15)) + _U64(1)).astype(_F64)


class _Shard:
    """The steps both shard runners share, over one keyspace shard.

    ``tag`` names the scenario in every hash salt and stream name, so the
    two scenarios draw independent populations from the same seed.
    """

    def __init__(self, p, tag: str) -> None:
        from ..overlay.keyspace import KeySpace

        self.p = p
        self.tag = tag
        stationary = _draw_unique_keys(
            p.seed, f"{tag}|stationary", p.num_stationary, p.key_bits
        )
        self.mobile = _draw_unique_keys(
            p.seed, f"{tag}|mobile", p.num_mobile, p.key_bits
        )
        # Keyspace sharding: a mobile key belongs to the shard owning its
        # ring position, a pure function of (key, membership) —
        # shard-invariant.
        pos = np.searchsorted(stationary, self.mobile) % p.num_stationary
        self.shard_of = (pos.astype(_I64) * p.shards) // p.num_stationary
        self.mine = self.shard_of == p.shard
        self.keys = self.mobile[self.mine]
        digit_bits = 4 if p.key_bits % 4 == 0 else 1
        self.directory = ColumnarDirectory(
            KeySpace(bits=p.key_bits, digit_bits=digit_bits),
            stationary_keys=stationary,
            replication=p.replication,
        )
        self.h_attr = self.hash(self.keys, "attrs")
        self.ttl = (
            p.base_ttl * (1.0 + (self.h_attr >> _U64(16)) % _U64(3)).astype(_F64) / 2.0
        )
        self.stats = {
            "keys": int(self.keys.size),
            "published": 0,
            "expired": 0,
            "lookups": 0,
            "hits": 0,
            "replica_messages": 0,
            "ldt_trees": 0,
            "ldt_messages": 0,
            "ldt_depth_sum": 0,
            "multicast_deliveries": 0,
        }

    def hash(self, values: np.ndarray, name: str) -> np.ndarray:
        """Per-value hash salted by ``(seed, tag, name)``."""
        return mix64(values, derive_seed(self.p.seed, f"{self.tag}|{name}"))

    def lookup_rounds(self, target_idx: np.ndarray) -> np.ndarray:
        """Round of each global lookup, or -1 for another shard's."""
        p = self.p
        rounds = (np.arange(p.lookups, dtype=_I64) * p.rounds) // max(p.lookups, 1)
        return np.where(self.shard_of[target_idx] == p.shard, rounds, -1)

    def publish(self, batch: np.ndarray, now: float, epoch: int) -> None:
        """Batched publish of ``batch`` (ascending shard keys) with hashed
        addresses and the keys' lease TTLs."""
        if not batch.size:
            return
        hb = self.hash(batch, "addr")
        mat, count = self.directory.holders_matrix(batch)
        self.directory.store.upsert(
            keys=batch,
            router=(hb & _U64(0xFFFF)).astype(_I64),
            port=((hb >> _U64(16)) & _U64(0xFFFF)).astype(_I64),
            epoch=np.full(batch.size, epoch, dtype=_I64),
            published=np.full(batch.size, now, dtype=_F64),
            ttl=self.ttl[np.searchsorted(self.keys, batch)],
            holders=mat,
            holder_count=np.full(batch.size, count, dtype=_I64),
        )
        self.stats["published"] += int(batch.size)
        self.stats["replica_messages"] += int(batch.size) * count

    def expire(self, now: float) -> None:
        """One-pass TTL sweep of the shard's store."""
        self.stats["expired"] += len(self.directory.expire_leases(now))

    def advertise(
        self, offsets: np.ndarray, member_avail: np.ndarray, root_avail: np.ndarray
    ) -> None:
        """Materialise a batch of Fig-4 trees as one columnar forest
        (:func:`repro.core.ldt_forest.build_forest_columns`) and count
        the multicast wave: every member row is one delivery."""
        trees = offsets.size - 1
        if not trees:
            return
        unit = np.ones(trees, dtype=_F64)
        level, assigned, parent_row = build_forest_columns(
            offsets, member_avail, root_avail, unit
        )
        self.stats["ldt_trees"] += trees
        self.stats["ldt_messages"] += int(offsets[-1])
        self.stats["ldt_depth_sum"] += int(forest_depths(offsets, level).sum())
        self.stats["multicast_deliveries"] += int(level.size)
        if _sanitize.ACTIVE:
            _sanitize.check_ldt_forest(
                forest_from_columns(
                    offsets, member_avail, root_avail, unit,
                    level, assigned, parent_row,
                )
            )

    def lookup(self, q_idx: np.ndarray, now: float) -> None:
        """Resolve the mobile keys at ``q_idx`` half a round after ``now``."""
        if not q_idx.size:
            return
        hit, _, _, _ = self.directory.resolve_array(
            self.mobile[q_idx], now + self.p.round_dt / 2.0
        )
        self.stats["lookups"] += int(q_idx.size)
        self.stats["hits"] += int(hit.sum())

    def result(self) -> ScaleShardResult:
        """The shard's stats and final store rows."""
        return ScaleShardResult(
            stats=self.stats, rows=self.directory.store.snapshot_rows()
        )


def run_scale_shard(p: ScaleShardParams) -> ScaleShardResult:
    """Run one keyspace shard of the scale scenario, fully vectorised.

    Per round: a one-pass TTL expiry sweep, a batched withdrawal of
    leaving keys, a batched republish of every mobile key whose
    (key-hashed) schedule says it moves, the Fig-4 advertisement trees of
    the movers materialised as one columnar forest, and this shard's
    slice of the global lookup stream resolved in one kernel call.
    """
    shard = _Shard(p, "scale")
    keys = shard.keys
    shard.stats["withdrawn"] = 0
    move_mask = shard.hash(keys, "moves")  # bit r set → republish in round r
    leaves = (shard.h_attr % _U64(8)) == 0  # ~1/8 of keys leave mid-run
    leave_round = ((shard.h_attr >> _U64(8)) % _U64(max(p.rounds, 1))).astype(_I64)

    # The global lookup stream (every shard derives the same one and keeps
    # its own targets, so any partition replays the serial stream).
    lgen = np.random.default_rng(derive_seed(p.seed, "scale|lookups"))
    target_idx = lgen.integers(0, p.num_mobile, size=p.lookups)
    lookup_round = shard.lookup_rounds(target_idx)

    departed = np.zeros(keys.size, dtype=bool)
    shard.publish(keys, 0.0, 0)

    for r in range(p.rounds):
        now = (r + 1) * p.round_dt
        shard.expire(now)

        leave_now = leaves & (leave_round == r) & ~departed
        if np.any(leave_now):
            shard.stats["withdrawn"] += shard.directory.withdraw_many(keys[leave_now])
            departed |= leave_now

        movers = ((move_mask >> _U64(r % 64)) & _U64(1)).astype(bool) & ~departed
        move_keys = keys[movers]
        shard.publish(move_keys, now, r + 1)
        # Uniform-capacity registries: the closed-form ``ldt_fanout``
        # stays a parity oracle for these trees' depths.
        caps = _capacity(shard.hash(move_keys, "caps"))
        sizes = np.full(move_keys.size, p.registry_size, dtype=_I64)
        shard.advertise(_offsets(sizes), np.repeat(caps, sizes), caps)

        shard.lookup(target_idx[lookup_round == r], now)

    return shard.result()


@dataclasses.dataclass(frozen=True)
class TrafficMixParams:
    """One keyspace shard of the Zipf-skewed traffic-mix scenario.

    The heavy-traffic companion of :class:`ScaleShardParams`: key
    popularity follows a Zipf law (rank hashed from the key population,
    exponent ``zipf_s``), the *lookup* stream draws targets by popularity
    weight, and *advertisement* load skews the same way — a key's
    registry size shrinks with its popularity rank between
    ``max_registry`` (rank 0) and ``min_registry`` (the tail), and every
    mover's LDT is materialised through the columnar forest builder with
    per-member hashed capacities.  All randomness is a pure function of
    ``(key, seed)`` or a globally-replayed stream, so any shard partition
    merges bit-identically to the serial run.
    """

    num_stationary: int
    num_mobile: int
    lookups: int
    rounds: int
    shard: int
    shards: int
    seed: int
    key_bits: int = 32
    replication: int = 3
    base_ttl: float = 60.0
    round_dt: float = 25.0
    zipf_s: float = 1.1
    min_registry: int = 4
    max_registry: int = 64

    def __post_init__(self) -> None:
        _check_population(self)
        if not 1 <= self.min_registry <= self.max_registry:
            raise ValueError("need 1 <= min_registry <= max_registry")


def run_traffic_shard(p: TrafficMixParams) -> ScaleShardResult:
    """Run one keyspace shard of the Zipf traffic mix, fully vectorised.

    Per round: TTL expiry, batched republish of the movers, one columnar
    forest build over the movers' skew-sized registries (the multicast
    wave — every member row is one delivery), and this shard's slice of
    the popularity-weighted lookup stream.
    """
    shard = _Shard(p, "traffic")
    keys = shard.keys
    shard.stats["hot_lookups"] = 0

    # Popularity: rank 0 is the hottest key.  The rank permutation is
    # hashed from the key population itself, so it is shard-invariant.
    rank = np.empty(p.num_mobile, dtype=_I64)
    rank[np.argsort(shard.hash(shard.mobile, "rank"), kind="stable")] = np.arange(
        p.num_mobile, dtype=_I64
    )
    # Advertisement skew: popular keys accumulate more interested nodes.
    registry_sizes = np.maximum(
        np.int64(p.min_registry),
        (p.max_registry / np.sqrt(rank + 1.0)).astype(_I64),
    )
    reg_sizes = registry_sizes[shard.mine]
    h_move = shard.hash(keys, "moves")

    # Lookup skew: the global stream draws targets Zipf(s) by rank.
    weights = (rank.astype(_F64) + 1.0) ** (-p.zipf_s)
    weights /= weights.sum()
    lgen = np.random.default_rng(derive_seed(p.seed, "traffic|lookups"))
    target_idx = lgen.choice(p.num_mobile, size=p.lookups, p=weights)
    lookup_round = shard.lookup_rounds(target_idx)
    # Hot-set accounting: lookups landing on the top 1% of ranks.
    hot_cut = max(p.num_mobile // 100, 1)

    def advertise(batch: np.ndarray) -> None:
        """The movers' trees, with per-member hashed capacities."""
        sz = reg_sizes[np.searchsorted(keys, batch)]
        offsets = _offsets(sz)
        base = shard.hash(batch, "members")
        with np.errstate(over="ignore"):
            member_slot = (
                np.repeat(base, sz)
                + np.arange(int(offsets[-1]), dtype=_U64)
                - np.repeat(offsets[:-1].astype(_U64), sz)
            )
        shard.advertise(
            offsets,
            _capacity(shard.hash(member_slot, "mcaps")),
            _capacity(shard.hash(batch, "caps")),
        )

    shard.publish(keys, 0.0, 0)
    advertise(keys)

    for r in range(p.rounds):
        now = (r + 1) * p.round_dt
        shard.expire(now)

        movers = ((h_move >> _U64(r % 64)) & _U64(1)).astype(bool)
        move_keys = keys[movers]
        shard.publish(move_keys, now, r + 1)
        advertise(move_keys)

        q_idx = target_idx[lookup_round == r]
        shard.lookup(q_idx, now)
        shard.stats["hot_lookups"] += int((rank[q_idx] < hot_cut).sum())

    return shard.result()


def merge_shard_results(
    results: Sequence[ScaleShardResult],
) -> Tuple[Dict[str, int], List[tuple], str]:
    """Combine shard outcomes: summed stats, the merged (sorted) snapshot
    and its checksum.  Keys never cross shards, so concatenation plus one
    sort reproduces the serial run's snapshot exactly."""
    stats: Dict[str, int] = {}
    rows: List[tuple] = []
    for res in results:
        for k, v in res.stats.items():
            stats[k] = stats.get(k, 0) + v
        rows.extend(res.rows)
    rows.sort()
    return stats, rows, snapshot_checksum(rows)
