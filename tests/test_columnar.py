"""Parity tests for the columnar state engine (``repro.sim.columnar``).

The object model (``LocationDirectory``, ``StateTable``) is the oracle:
every columnar kernel must reproduce its state evolution bit-for-bit on
randomized seeded scenarios — same snapshots, same expiry order, same
holder sets, same LDT costs — across all five stationary overlays.  The
keyspace-sharded scale path must additionally merge to results identical
to a serial run for any shard count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bristle import BristleNetwork
from repro.core.config import BristleConfig
from repro.core.ldt import LDTMember, build_ldt
from repro.core.location import LocationDirectory, shared_multicast_hops
from repro.experiments.ext_scaling import ColumnarScaleParams, run_columnar_scale
from repro.experiments.manifest import (
    ManifestError,
    build_manifest,
    peak_rss_kb,
    validate_manifest,
)
from repro.net.address import NetworkAddress
from repro.overlay import KeySpace, make_overlay
from repro.overlay.state import StatePair, StateTable
from repro.sim import RngStreams
from repro.sim.columnar import (
    ColumnarDirectory,
    ExpiryHeap,
    ScaleShardParams,
    StatePairColumns,
    expand_holders,
    ldt_fanout,
    merge_shard_results,
    mix64,
    replica_offsets,
    ring_nearest,
    run_scale_shard,
    run_traffic_shard,
    snapshot_checksum,
    TrafficMixParams,
)
from repro.sim.telemetry import Telemetry


@pytest.fixture
def space() -> KeySpace:
    return KeySpace(bits=32, digit_bits=4)


def addr(rng: np.random.Generator) -> NetworkAddress:
    return NetworkAddress(
        router=int(rng.integers(0, 1 << 16)),
        port=int(rng.integers(0, 1 << 16)),
        epoch=int(rng.integers(0, 8)),
    )


# ----------------------------------------------------------------------
# Kernels vs scalar oracles
# ----------------------------------------------------------------------
class TestKernels:
    def test_ring_nearest_matches_keyspace_oracle(self, space):
        gen = np.random.default_rng(11)
        members = np.unique(
            gen.integers(0, 1 << 32, size=400, dtype=np.uint64)
        )
        targets = gen.integers(0, 1 << 32, size=2000, dtype=np.uint64)
        _, owner_keys = ring_nearest(members, targets, bits=32)
        for t, got in zip(targets[:500], owner_keys[:500]):
            assert int(got) == int(space.nearest_key(members, int(t)))

    def test_expand_holders_matches_directory(self, space):
        gen = np.random.default_rng(12)
        member_list = sorted(
            int(k) for k in np.unique(gen.integers(0, 1 << 32, size=60, dtype=np.uint64))
        )
        ov = make_overlay("chord", space)
        ov.build(member_list)
        oracle = LocationDirectory(space, ov, replication=4)
        members = np.asarray(member_list, dtype=np.uint64)
        targets = gen.integers(0, 1 << 32, size=300, dtype=np.uint64)
        # The oracle's owner comes from the overlay's own geometry (Chord
        # successor here); the kernel's job is the replica expansion
        # around that owner, so feed it the same owner indices.
        owners = np.asarray([ov.owner_of(int(t)) for t in targets], dtype=np.uint64)
        owner_idx = np.searchsorted(members, owners)
        mat = expand_holders(members, owner_idx, replication=4)
        for q, t in enumerate(targets):
            assert [int(h) for h in mat[q]] == oracle.holders_for(int(t))

    def test_replica_offsets_distinct_mod_n(self):
        for count in (1, 2, 3, 5, 8):
            offs = replica_offsets(count)
            assert offs[0] == 0
            for n in range(count, count + 5):
                assert len({int(o) % n for o in offs}) == count

    def test_ldt_fanout_matches_build_ldt(self):
        sizes, roots, members = [], [], []
        expected = []
        for size in (1, 2, 3, 7, 20, 64):
            for cap in (1, 2, 3, 8, 15):
                registry = [
                    LDTMember(key=i + 1, capacity=cap) for i in range(size)
                ]
                tree = build_ldt(LDTMember(key=0, capacity=cap), registry)
                sizes.append(size)
                roots.append(cap)
                members.append(cap)
                expected.append((tree.message_count, tree.depth))
        msgs, depth = ldt_fanout(
            np.asarray(sizes, dtype=np.int64),
            np.asarray(roots, dtype=np.int64),
            np.asarray(members, dtype=np.int64),
        )
        assert list(zip(msgs.tolist(), depth.tolist())) == expected

    def test_mix64_deterministic_and_salted(self):
        keys = np.arange(1000, dtype=np.uint64)
        a = mix64(keys, 5)
        assert np.array_equal(a, mix64(keys, 5))
        assert not np.array_equal(a, mix64(keys, 6))
        # The finalizer is a bijection — no collisions on distinct inputs.
        assert np.unique(a).size == keys.size


# ----------------------------------------------------------------------
# Expiry heap
# ----------------------------------------------------------------------
class TestExpiryHeap:
    def test_pops_overdue_prefix_in_order(self):
        h = ExpiryHeap()
        for t, k in [(30.0, 3), (10.0, 1), (20.0, 2), (40.0, 4)]:
            h.push(t, k)
        assert h.pop_expired(25.0) == [(10.0, 1), (20.0, 2)]
        assert len(h) == 2
        # Strictness: a lease expiring exactly at ``now`` is still fresh.
        assert h.pop_expired(30.0) == []
        assert h.pop_expired(30.1) == [(30.0, 3)]

    def test_clear(self):
        h = ExpiryHeap()
        h.push(1.0, 1)
        h.clear()
        assert h.pop_expired(100.0) == []

    def test_directory_lazy_deletion_on_republish(self, space):
        ov = make_overlay("chord", space)
        ov.build([100, 2000, 50000, 700000])
        d = LocationDirectory(space, ov, replication=2)
        a = NetworkAddress(router=1, port=2)
        d.publish(42, a, now=0.0, ttl=10.0)
        # Re-publish with a longer lease: the stale heap entry must not
        # expire the fresh record.
        d.publish(42, a, now=5.0, ttl=100.0)
        assert d.expire_leases(20.0) == []
        assert d.resolve(42, 20.0) is not None
        # Withdrawal leaves a stale entry behind too.
        d.publish(43, a, now=0.0, ttl=10.0)
        d.withdraw(43)
        assert d.expire_leases(50.0) == []


# ----------------------------------------------------------------------
# Store parity: the scale engine's directory vs the object oracle
# ----------------------------------------------------------------------
#: Overlays that store a key at its ring-nearest member — the owner rule
#: of the array-mode directory's ``ring_nearest`` kernel.
RING_NEAREST_OVERLAYS = ("pastry", "tornado")


def _build_pair(space, name: str, seed: int, members: int = 48):
    rng = RngStreams(seed)
    keys = sorted(int(k) for k in space.random_keys(rng, f"members|{name}", members))
    ov = make_overlay(name, space)
    ov.build(keys)
    oracle = LocationDirectory(space, ov, replication=3)
    columnar = ColumnarDirectory(
        space, stationary_keys=np.asarray(keys, dtype=np.uint64), replication=3
    )
    return oracle, columnar


def _publish(columnar, updates, now: float, ttl: float):
    """Batched publish through the store, as the shard runners do."""
    keys = np.asarray(sorted(updates), dtype=np.uint64)
    addrs = [updates[int(k)] for k in keys]
    mat, count = columnar.holders_matrix(keys)
    columnar.store.upsert(
        keys=keys,
        router=np.asarray([a.router for a in addrs], dtype=np.int64),
        port=np.asarray([a.port for a in addrs], dtype=np.int64),
        epoch=np.asarray([a.epoch for a in addrs], dtype=np.int64),
        published=np.full(keys.size, now),
        ttl=np.full(keys.size, ttl),
        holders=mat,
        holder_count=np.full(keys.size, count, dtype=np.int64),
    )
    return {int(k): [int(h) for h in mat[i]] for i, k in enumerate(keys)}


def _assert_resolves_alike(oracle, columnar, keys, now: float):
    hit, router, port, epoch = columnar.resolve_array(
        np.asarray(keys, dtype=np.uint64), now
    )
    for i, k in enumerate(keys):
        want = oracle.resolve(int(k), now)
        if want is None:
            assert not hit[i]
        else:
            assert hit[i]
            assert (int(router[i]), int(port[i]), int(epoch[i])) == (
                want.router,
                want.port,
                want.epoch,
            )


@pytest.mark.parametrize("overlay_name", RING_NEAREST_OVERLAYS)
def test_directory_parity_randomized(space, overlay_name):
    oracle, columnar = _build_pair(space, overlay_name, seed=321)
    gen = np.random.default_rng(99)
    population = [int(k) for k in gen.integers(0, 1 << 32, size=120, dtype=np.uint64)]
    now = 0.0
    for step in range(250):
        now += float(gen.uniform(0.0, 4.0))
        op = int(gen.integers(0, 5))
        if op == 0:
            k = population[int(gen.integers(len(population)))]
            a = addr(gen)
            ttl = float(gen.uniform(5.0, 40.0))
            got = _publish(columnar, {k: a}, now, ttl)
            assert got[k] == oracle.publish(k, a, now=now, ttl=ttl)
        elif op == 1:
            count = int(gen.integers(1, 12))
            picks = gen.choice(len(population), size=count, replace=False)
            updates = {population[int(i)]: addr(gen) for i in picks}
            ttl = float(gen.uniform(5.0, 40.0))
            got = _publish(columnar, updates, now, ttl)
            assert got == oracle.publish_many(updates, now=now, ttl=ttl).holders
        elif op == 2:
            count = int(gen.integers(1, 4))
            picks = sorted({population[int(i)] for i in gen.integers(0, 120, size=count)})
            want = sum(oracle.withdraw(k) for k in picks)
            assert columnar.withdraw_many(np.asarray(picks, dtype=np.uint64)) == want
        elif op == 3:
            assert columnar.expire_leases(now) == oracle.expire_leases(now)
        else:
            _assert_resolves_alike(oracle, columnar, population[:30], now)
        if step % 25 == 0:
            assert tuple(columnar.store.snapshot_rows()) == oracle.snapshot()
    assert tuple(columnar.store.snapshot_rows()) == oracle.snapshot()
    assert snapshot_checksum(columnar.store.snapshot_rows()) == snapshot_checksum(
        list(oracle.snapshot())
    )


def test_resolve_array_matches_scalar(space):
    oracle, columnar = _build_pair(space, "pastry", seed=13)
    gen = np.random.default_rng(5)
    population = np.unique(gen.integers(0, 1 << 32, size=80, dtype=np.uint64))
    for step, k in enumerate(population[:50]):
        a = addr(gen)
        ttl = 15.0 if step % 2 else 40.0
        oracle.publish(int(k), a, now=float(step % 3), ttl=ttl)
        _publish(columnar, {int(k): a}, float(step % 3), ttl)
    for k in population[40:45]:
        oracle.withdraw(int(k))
    columnar.withdraw_many(population[40:45])
    # Mixed outcome at t=16: fresh, lapsed-but-unswept, withdrawn, absent.
    _assert_resolves_alike(oracle, columnar, population, 16.0)
    assert columnar.expire_leases(16.0) == oracle.expire_leases(16.0)
    _assert_resolves_alike(oracle, columnar, population, 16.0)


def test_shared_multicast_hops_accounting():
    net = BristleNetwork(
        BristleConfig(seed=23, naming="clustered"),
        num_stationary=50,
        num_mobile=30,
        router_count=100,
    )
    ov = net.stationary_layer
    holders = net.directory.holders_for_many(net.mobile_keys[:6])
    distinct = sorted({h for hs in holders.values() for h in hs})
    entry = ov.owner_of(net.mobile_keys[0])
    shared = shared_multicast_hops(ov, distinct, entry=entry)
    per_holder = sum(ov.route(entry, h).hop_count for h in distinct)
    assert shared >= 0
    # One traversal plus near-neighbour legs never exceeds one full
    # traversal per holder.
    assert shared <= max(per_holder, len(distinct))
    assert shared == shared_multicast_hops(ov, distinct, entry=entry)
    assert shared_multicast_hops(ov, [], entry=entry) == 0


# ----------------------------------------------------------------------
# Keyspace-sharded scale engine
# ----------------------------------------------------------------------
class TestShardedScale:
    PARAMS = dict(num_stationary=600, num_mobile=300, lookups=400, rounds=5, seed=29)

    def _run(self, shards: int):
        results = [
            run_scale_shard(
                ScaleShardParams(shard=s, shards=shards, **self.PARAMS)
            )
            for s in range(shards)
        ]
        return merge_shard_results(results)

    def test_sharded_bit_identical_to_serial(self):
        serial = self._run(1)
        for shards in (2, 4, 7):
            assert self._run(shards) == serial

    def test_shards_partition_population(self):
        stats, _, _ = self._run(3)
        assert stats["keys"] == self.PARAMS["num_mobile"]
        assert stats["lookups"] == self.PARAMS["lookups"]
        assert 0 < stats["hits"] <= stats["lookups"]
        assert stats["expired"] > 0 and stats["withdrawn"] > 0

    def test_experiment_table_shard_invariant(self):
        base = dict(num_stationary=600, num_mobile=300, lookups=400, rounds=5)
        rows = []
        for shards in (1, 3):
            t = run_columnar_scale(ColumnarScaleParams(shards=shards, **base))
            row = dict(t.rows[0])
            assert row.pop("shards") == shards
            rows.append(row)
        assert rows[0] == rows[1]

    def test_shard_index_validated(self):
        with pytest.raises(ValueError):
            run_scale_shard(ScaleShardParams(shard=4, shards=4, **self.PARAMS))


# ----------------------------------------------------------------------
# Zipf traffic mix on the columnar LDT forest
# ----------------------------------------------------------------------
class TestTrafficMix:
    PARAMS = dict(num_stationary=700, num_mobile=320, lookups=500, rounds=5, seed=31)

    def _run(self, shards: int):
        results = [
            run_traffic_shard(
                TrafficMixParams(shard=s, shards=shards, **self.PARAMS)
            )
            for s in range(shards)
        ]
        return merge_shard_results(results)

    def test_sharded_bit_identical_to_serial(self):
        serial = self._run(1)
        for shards in (2, 4, 7):
            assert self._run(shards) == serial

    def test_forest_stats_populated(self):
        stats, _, _ = self._run(3)
        assert stats["keys"] == self.PARAMS["num_mobile"]
        assert stats["ldt_trees"] > 0
        # One advertisement message == one multicast delivery per member.
        assert stats["multicast_deliveries"] == stats["ldt_messages"]
        assert stats["ldt_depth_sum"] >= stats["ldt_trees"]

    def test_zipf_skew_concentrates_lookups(self):
        stats, _, _ = self._run(1)
        assert stats["lookups"] == self.PARAMS["lookups"]
        # The top 1% of ranks draw far more than a uniform 1% share.
        assert stats["hot_lookups"] / stats["lookups"] > 0.10

    def test_experiment_table_jobs_invariant(self):
        from repro.experiments.ext_scaling import (
            TrafficMixScaleParams,
            run_traffic_mix,
        )
        from repro.experiments.parallel import SweepConfig, sweep_session

        base = TrafficMixScaleParams(
            num_stationary=700, num_mobile=320, lookups=500, rounds=5, shards=3
        )
        rows = []
        for jobs in (1, 3):
            with sweep_session(SweepConfig(jobs=jobs)):
                rows.append(dict(run_traffic_mix(base).rows[0]))
        assert rows[0] == rows[1]

    def test_shard_index_validated(self):
        with pytest.raises(ValueError):
            run_traffic_shard(
                TrafficMixParams(shard=3, shards=3, **self.PARAMS)
            )


_SHARD_BASE = dict(num_stationary=4, num_mobile=10, lookups=10, rounds=2, shard=0, shards=1, seed=1)


_BAD_POPULATIONS = [
    # More unique keys than a 4-bit space holds: used to loop forever.
    dict(num_mobile=40, key_bits=4),
    dict(num_stationary=17, key_bits=4),
    dict(num_stationary=0),
    dict(num_mobile=-1),
    dict(lookups=-1),
    dict(key_bits=64),
    dict(shard=1),
]


@pytest.mark.parametrize(
    "cls,overrides",
    [(cls, o) for cls in (ScaleShardParams, TrafficMixParams) for o in _BAD_POPULATIONS]
    + [
        (ScaleShardParams, dict(registry_size=0)),
        (TrafficMixParams, dict(min_registry=0)),
        (TrafficMixParams, dict(min_registry=9, max_registry=8)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(
        f"{k}={x}" for k, x in v.items()
    ),
)
def test_shard_params_validated_up_front(cls, overrides):
    with pytest.raises(ValueError):
        cls(**{**_SHARD_BASE, **overrides})


def test_shard_params_at_key_space_limit_run():
    # Exactly 2**key_bits keys is the largest population that fits.
    p = ScaleShardParams(**{**_SHARD_BASE, "num_mobile": 16, "key_bits": 4})
    assert run_scale_shard(p).stats["keys"] == 16
    t = TrafficMixParams(**{**_SHARD_BASE, "num_stationary": 16, "key_bits": 4})
    assert run_traffic_shard(t).stats["keys"] == 10


# ----------------------------------------------------------------------
# State-pair columns bridge
# ----------------------------------------------------------------------
class TestStatePairColumns:
    def _table(self, space, owner: int, seed: int) -> StateTable:
        gen = np.random.default_rng(seed)
        table = StateTable(space, owner)
        for k in gen.integers(1, 1 << 32, size=25, dtype=np.uint64):
            if int(k) == owner:
                continue
            a = None if gen.uniform() < 0.3 else addr(gen)
            table.insert(
                StatePair(
                    key=int(k),
                    addr=a,
                    ttl=float(gen.uniform(5.0, 50.0)),
                    refreshed_at=float(gen.uniform(0.0, 10.0)),
                    capacity=float(gen.integers(1, 9)),
                )
            )
        return table

    def test_round_trip(self, space):
        table = self._table(space, owner=42, seed=3)
        cols = table.to_columns()
        restored = StateTable(space, 42)
        assert restored.load_columns(cols) == len(table)
        assert [
            (p.key, p.addr, p.ttl, p.refreshed_at, p.capacity) for p in restored
        ] == [(p.key, p.addr, p.ttl, p.refreshed_at, p.capacity) for p in table]

    def test_columnar_expiry_matches_object_sweep(self, space):
        tables = {o: self._table(space, o, seed=o) for o in (7, 8, 9)}
        cols = StatePairColumns.from_tables(tables)
        now = 30.0
        survivors = cols.expire(now)
        for o, table in tables.items():
            table.expire(now)
            check = StateTable(space, o)
            check.load_columns(survivors)
            assert check.keys() == table.keys()

    def test_registry_sizes(self, space):
        tables = {o: self._table(space, o, seed=11) for o in (5, 6)}
        cols = StatePairColumns.from_tables(tables)
        sizes = cols.registry_sizes()
        # Both tables were drawn from the same seed, so every key is
        # referenced by both registrants.
        assert set(sizes.values()) == {2}

    def test_refresh_keys_bulk(self, space):
        table = self._table(space, owner=4, seed=6)
        cols = table.to_columns()
        keys = cols.key[:5].copy()
        assert cols.refresh_keys(keys, now=100.0) == 5
        # Un-refreshed pairs (refreshed <= 10, ttl <= 50) all lapse by
        # t=101; the five renewed ones (ttl >= 5) all survive.
        survivors = cols.expire(101.0)
        assert len(survivors) == 5
        assert sorted(survivors.key.tolist()) == sorted(keys.tolist())


# ----------------------------------------------------------------------
# Manifest schema v4 (peak RSS)
# ----------------------------------------------------------------------
class TestManifestV4:
    def test_build_manifest_carries_peak_rss(self):
        telemetry = Telemetry()
        payload = build_manifest(
            experiments=["ext-scale-columnar"], scale="quick", telemetry=telemetry
        )
        assert payload["schema_version"] >= 4
        validate_manifest(payload)
        rss = payload["peak_rss_kb"]
        assert rss is None or (isinstance(rss, int) and rss > 0)

    def test_peak_rss_helper_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0

    def test_validator_rejects_bad_rss(self):
        telemetry = Telemetry()
        payload = build_manifest(
            experiments=["x"], scale="quick", telemetry=telemetry
        )
        payload["peak_rss_kb"] = -3
        with pytest.raises(ManifestError, match="peak_rss_kb"):
            validate_manifest(payload)
        payload["peak_rss_kb"] = True
        with pytest.raises(ManifestError, match="peak_rss_kb"):
            validate_manifest(payload)
        payload["peak_rss_kb"] = None
        validate_manifest(payload)
