"""Tests for repro.core.statebinding and repro.core.mobility."""

import pytest

from repro.core import (
    BristleConfig,
    BristleNetwork,
    EarlyBinding,
    LateBinding,
    MobilityProcess,
    shuffle_all_mobile,
)


@pytest.fixture
def net():
    cfg = BristleConfig(seed=9, naming="scrambled", state_ttl=30.0, refresh_period=10.0)
    n = BristleNetwork(cfg, num_stationary=30, num_mobile=20, router_count=100)
    n.setup_random_registrations(registry_size=4)
    return n


class TestEarlyBinding:
    def test_refresh_keeps_caches_warm(self, net, engine):
        policy = EarlyBinding(net, engine)
        policy.start()
        engine.run(until=25.0)
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        assert policy.lookup(registrant, mk)
        assert policy.stats.advertisements > 0
        assert policy.stats.registrations > 0
        assert policy.stats.discoveries == 0

    def test_no_refresh_before_first_period(self, net, engine):
        policy = EarlyBinding(net, engine)
        policy.start()
        engine.run(until=5.0)  # refresh period is 10
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        assert not policy.lookup(registrant, mk)

    def test_stop_halts_refreshes(self, net, engine):
        policy = EarlyBinding(net, engine)
        policy.start()
        engine.run(until=10.5)
        count = policy.stats.advertisements
        policy.stop()
        engine.run(until=50.0)
        assert policy.stats.advertisements == count

    def test_advertisements_follow_ldt_size(self, net, engine):
        policy = EarlyBinding(net, engine)
        policy.start()
        engine.run(until=10.5)  # exactly one refresh round
        expected = sum(
            len(net.nodes[mk].registry) for mk in net.mobile_keys
        )
        assert policy.stats.advertisements == expected


class TestLateBinding:
    def test_miss_triggers_discovery_and_caches(self, net, engine):
        policy = LateBinding(net, engine)
        policy.start()
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        # First lookup: cold cache → discovery.
        assert policy.lookup(registrant, mk) is False
        assert policy.stats.discoveries == 1
        # Second lookup within the TTL: warm.
        assert policy.lookup(registrant, mk) is True
        assert policy.stats.discoveries == 1

    def test_cache_expires_and_rediscovers(self, net, engine):
        policy = LateBinding(net, engine)
        mk = net.mobile_keys[0]
        registrant = net.nodes[mk].registry_entries()[0].key
        policy.lookup(registrant, mk)
        # Advance past the TTL; the mobile node republished at move time
        # so the directory stays fresh but the local cache lapses.
        net.move(mk)
        engine.schedule(net.config.state_ttl + 1, lambda: None)
        engine.run()  # advances the virtual clock past the TTL
        net.now = engine.now
        net.directory.publish(mk, net.nodes[mk].address, now=net.now, ttl=net.config.state_ttl)
        assert policy.lookup(registrant, mk) is False
        assert policy.stats.discoveries == 2

    def test_no_periodic_work(self, net, engine):
        policy = LateBinding(net, engine)
        policy.start()
        assert engine.pending == 0


class TestMobilityProcess:
    def test_moves_happen_at_rate(self, net, engine):
        proc = MobilityProcess(net=net, engine=engine, rate=0.5, advertise=False)
        proc.start()
        engine.run(until=20.0)
        # 20 mobile nodes × rate 0.5 × 20 time units ≈ 200 expected moves;
        # just assert a healthy number happened and addresses changed.
        assert proc.moves_performed > 50
        assert net.placement.move_count == proc.moves_performed

    def test_observer_called(self, net, engine):
        seen = []
        proc = MobilityProcess(
            net=net, engine=engine, rate=1.0, on_move=seen.append, advertise=False
        )
        proc.start()
        engine.run(until=3.0)
        assert len(seen) == proc.moves_performed
        assert all(r.new_address is not None for r in seen)

    def test_stop(self, net, engine):
        proc = MobilityProcess(net=net, engine=engine, rate=1.0, advertise=False)
        proc.start()
        engine.run(until=2.0)
        count = proc.moves_performed
        proc.stop()
        engine.run(until=10.0)
        assert proc.moves_performed == count

    def test_invalid_rate(self, net, engine):
        proc = MobilityProcess(net=net, engine=engine, rate=0.0)
        with pytest.raises(ValueError):
            proc.start()

    def test_directory_stays_fresh_under_mobility(self, net, engine):
        proc = MobilityProcess(net=net, engine=engine, rate=0.3, advertise=False)
        proc.start()
        engine.run(until=10.0)
        net.now = engine.now
        for mk in net.mobile_keys:
            assert net.directory.resolve(mk, now=net.now) == net.nodes[mk].address


class TestShuffle:
    def test_every_mobile_moves_once(self, net):
        reports = shuffle_all_mobile(net)
        assert len(reports) == len(net.mobile_keys)
        assert all(net.nodes[mk].moves == 1 for mk in net.mobile_keys)

    def test_publish_flag(self, net):
        shuffle_all_mobile(net, publish=False)
        stale = [
            mk
            for mk in net.mobile_keys
            if net.directory.resolve(mk, now=0.0) != net.nodes[mk].address
        ]
        assert len(stale) > 0


class TestRefreshTreesUseRecursion:
    """Every tree on the ``BristleNetwork`` path comes from ``build_ldt``;
    the columnar forest builder belongs to the scale engine only."""

    def test_refresh_trees_and_cache_counters(self, monkeypatch):
        import sys

        from repro.core import LiveSimulation
        from repro.core import ldt_forest
        from repro.core.ldt import LDTMember, build_ldt, merge_registry_members

        def forbidden(*args, **kwargs):
            raise AssertionError("a network tree was built by the columnar forest")

        original = ldt_forest.build_ldt_forest
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and vars(mod).get("build_ldt_forest") is original:
                monkeypatch.setattr(mod, "build_ldt_forest", forbidden)

        cfg = BristleConfig(
            seed=17, naming="scrambled", state_ttl=30.0, refresh_period=10.0
        )
        sim = LiveSimulation.create(
            40, 24, config=cfg, router_count=100, registry_size=4,
            move_rate=0.05, binding="none",
        )
        net, engine = sim.net, sim.engine
        group = net.mobile_keys[:5]
        sim.binding = EarlyBinding(net, engine, host_groups=[group])

        def member(k):
            node = net.nodes[k]
            return LDTMember(key=k, capacity=node.capacity, used=node.used)

        def registry(k):
            return [member(e.key) for e in net.nodes[k].registry_entries()]

        def expect_tree(tree, root, members):
            want = build_ldt(member(root), members, cfg.unit_advertise_cost)
            assert tree == want
            assert list(tree.nodes) == list(want.nodes)

        # Scalar cache model: a lookup hits iff the Fig-4 inputs' epochs
        # are unchanged since the previous lookup of the same key/group.
        last_fp = {}
        seen = {"hits": 0, "misses": 0, "single": 0, "group": 0}

        def account(cache_key, keys):
            regs = sorted({r for k in keys for r in net.nodes[k].registry})
            fp = (
                tuple(net.nodes[k].ldt_epoch for k in keys),
                tuple(net.nodes[r].ldt_epoch for r in regs),
            )
            seen["hits" if last_fp.get(cache_key) == fp else "misses"] += 1
            last_fp[cache_key] = fp

        scalar_ldt_for, scalar_group = net.ldt_for, net.ldt_for_group

        def ldt_for(mk):
            account(mk, (mk,))
            tree = scalar_ldt_for(mk)
            expect_tree(tree, mk, registry(mk))
            seen["single"] += 1
            return tree

        def ldt_for_group(keys):
            g = tuple(sorted(set(keys)))
            account(g, g)
            rep, tree = scalar_group(keys)
            assert rep == max(g, key=lambda k: (net.nodes[k].available, -k))
            merged = merge_registry_members((registry(k) for k in g), exclude=g)
            expect_tree(tree, rep, merged)
            seen["group"] += 1
            return rep, tree

        monkeypatch.setattr(net, "ldt_for", ldt_for)
        monkeypatch.setattr(net, "ldt_for_group", ldt_for_group)
        counters = net.telemetry.metrics
        before = {
            k: counters.counter(f"ldt.cache_{k}").value for k in ("hits", "misses")
        }
        moved = []

        def move_group():
            report = net.move_many(group)
            g = tuple(sorted(group))
            merged = merge_registry_members((registry(k) for k in g), exclude=g)
            expect_tree(report.ldt, report.ldt_root, merged)
            moved.append(report)

        engine.schedule(15.0, move_group)
        # A registrant's workload change invalidates every tree it sits in.
        busy = net.nodes[net.mobile_keys[-1]].registry_entries()[0].key
        engine.schedule(25.0, lambda: net.nodes[busy].consume(1.0))
        sim.binding.start()
        sim.run(until=45.0)

        assert seen["single"] and seen["group"] and seen["hits"] and seen["misses"]
        for k in ("hits", "misses"):
            assert counters.counter(f"ldt.cache_{k}").value - before[k] == seen[k]
        assert len(moved) == 1
