"""Early and late state binding over TTL leases (§2.3.2).

Every state a mobile-layer node caches is leased.  Under **early
binding** both sides refresh proactively: the mobile node periodically
publishes its state to its registry nodes, and each registry node
periodically re-registers.  Under **late binding** a registry node that
missed the periodic advertisement (because it was itself moving) resolves
the address reactively with a discovery message.

:class:`BindingPolicy` drives both behaviours against a simulation engine
and records how many refreshes/discoveries each policy costs — the
trade-off the Table-1 "performance vs reliability" row captures.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Set

from ..sim.engine import Engine
from .bristle import BristleNetwork
from .ldt import LDTree

__all__ = ["BindingPolicy", "EarlyBinding", "LateBinding", "BindingStats"]


@dataclasses.dataclass
class BindingStats:
    """Message accounting for a binding policy run."""

    advertisements: int = 0
    registrations: int = 0
    discoveries: int = 0
    publishes: int = 0

    @property
    def total_messages(self) -> int:
        return (
            self.advertisements
            + self.registrations
            + self.discoveries
            + self.publishes
        )


class BindingPolicy:
    """Base: owns the stats and the refresh plumbing."""

    def __init__(self, net: BristleNetwork, engine: Engine) -> None:
        self.net = net
        self.engine = engine
        self.stats = BindingStats()
        self._cancels: List[Callable[[], None]] = []

    def start(self) -> None:
        """Install the policy's periodic behaviour on the engine."""
        raise NotImplementedError

    def stop(self) -> None:
        """Cancel the policy's periodic work."""
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()

    def lookup(self, registrant: int, mobile_key: int) -> bool:
        """A registry node needs the mobile node's address *now*.

        Returns True when the locally-cached state suffices, False when
        the policy had to (or could not) take remedial action.
        """
        raise NotImplementedError


class EarlyBinding(BindingPolicy):
    """Proactive refresh on both sides.

    "Each mobile periodically publishes its state to the registry nodes
    and each registry node also periodically registers itself to the
    mobile node it interested in." (§2.3.2)

    ``host_groups`` optionally declares sets of co-hosted mobile keys (the
    resources one physical host carries).  Grouped keys refresh through
    the batched path: one :meth:`LocationDirectory.publish_many` per group
    (one message per distinct holder), one cached union-LDT wave, and one
    re-registration message per distinct registrant — O(K + log N) per
    period instead of O(K · log N).  Ungrouped keys keep the per-key path,
    with the dissemination tree served from :meth:`BristleNetwork.ldt_for`
    so an unchanged registry costs no rebuild.

    ``shared_multicast`` switches the *accounting* of each grouped refresh
    from one message per distinct holder to the hops of one shared ring
    multicast (:func:`repro.core.location.shared_multicast_hops`): the
    batch enters the stationary layer once and travels holder-to-holder.
    Directory state is identical either way — only the message model
    changes.
    """

    def __init__(
        self,
        net: BristleNetwork,
        engine: Engine,
        *,
        host_groups: Optional[Sequence[Sequence[int]]] = None,
        shared_multicast: bool = False,
    ) -> None:
        super().__init__(net, engine)
        self.shared_multicast = bool(shared_multicast)
        self.host_groups: List[List[int]] = (
            [sorted({int(k) for k in g}) for g in host_groups]
            if host_groups is not None
            else []
        )
        grouped: Set[int] = set()
        for g in self.host_groups:
            if not g:
                raise ValueError("empty host group")
            dup = grouped.intersection(g)
            if dup:
                raise ValueError(f"keys in more than one host group: {sorted(dup)}")
            grouped.update(g)
        self._grouped = grouped

    def start(self) -> None:
        """Install the periodic two-sided refresh."""
        period = self.net.config.refresh_period
        self._cancels.append(
            self.engine.schedule_every(period, self._refresh_all, label="early-binding")
        )

    def _refresh_all(self) -> None:
        net = self.net
        net.now = self.engine.now
        for group in self.host_groups:
            # Departed members (leave_mobile_node) drop out of the group.
            live = [k for k in group if k in net.nodes]
            if live:
                self._refresh_group(live)
        ungrouped = [mk for mk in net.mobile_keys if mk not in self._grouped]
        # Every tree (cached, or rebuilt on a miss) is fetched before the
        # first publish: the LDT histograms and the load ledger record in
        # this order.
        trees = {mk: net.ldt_for(mk) for mk in ungrouped if net.nodes[mk].registry}
        for mk in ungrouped:
            self._refresh_one(mk, tree=trees.get(mk))

    def _refresh_one(self, mk: int, tree: Optional[LDTree]) -> None:
        net = self.net
        node = net.nodes[mk]
        # §2.3.1 note (2): besides the LDT advertisement, the node
        # "also publishes its state to the location management layer"
        # so reactive discovery never sees an expired record.
        holders = net.directory.publish(
            mk, node.address, now=self.engine.now, ttl=net.config.state_ttl
        )
        self.stats.publishes += len(holders)
        if tree is None:  # no registrants to advertise to
            return
        # Mobile node advertises its state down the (cached) LDT.
        self.stats.advertisements += tree.message_count
        for entry in node.registry_entries():
            registrant = net.nodes.get(entry.key)
            if registrant is None:
                continue
            # ...registry nodes' caches are renewed...
            st = registrant.state.get(mk)
            if st is None:
                from ..overlay.state import StatePair

                st = registrant.state.insert(
                    StatePair(key=mk, addr=node.address, ttl=net.config.state_ttl)
                )
            st.refresh(self.engine.now, addr=node.address, ttl=net.config.state_ttl)
            # ...and each registry node re-registers (one message each).
            self.stats.registrations += 1

    def _refresh_group(self, live: List[int]) -> None:
        net = self.net
        result = net.directory.publish_many(
            {k: net.nodes[k].address for k in live},
            now=self.engine.now,
            ttl=net.config.state_ttl,
        )
        if self.shared_multicast:
            # One shared ring multicast: entry traversal + holder legs.
            from .location import shared_multicast_hops

            self.stats.publishes += shared_multicast_hops(
                net.stationary_layer,
                result.holder_batches,
                entry=net.stationary_layer.owner_of(live[0]),
            )
        else:
            # Batched publish: one message per distinct stationary holder.
            self.stats.publishes += result.message_count
        with_registry = [k for k in live if net.nodes[k].registry]
        if not with_registry:
            return
        # One coalesced wave over the union of the group's registries.
        _, tree = net.ldt_for_group(live)
        self.stats.advertisements += tree.message_count
        group_set = set(live)
        refreshers: Set[int] = set()
        for mk in with_registry:
            node = net.nodes[mk]
            for entry in node.registry_entries():
                registrant = net.nodes.get(entry.key)
                if registrant is None:
                    continue
                st = registrant.state.get(mk)
                if st is None:
                    from ..overlay.state import StatePair

                    st = registrant.state.insert(
                        StatePair(key=mk, addr=node.address, ttl=net.config.state_ttl)
                    )
                st.refresh(
                    self.engine.now, addr=node.address, ttl=net.config.state_ttl
                )
                # Co-hosted registrants renew locally — no network message.
                if entry.key not in group_set:
                    refreshers.add(entry.key)
        # Each registrant re-registers once per period; one message renews
        # all of its co-hosted subscriptions.
        self.stats.registrations += len(refreshers)

    def lookup(self, registrant: int, mobile_key: int) -> bool:
        """True when the proactively-refreshed cache is usable."""
        st = self.net.nodes[registrant].state.get(mobile_key)
        return st is not None and st.is_resolved(self.engine.now)


class LateBinding(BindingPolicy):
    """Reactive resolution: no periodic advertisement; a registry node
    that finds its cached state expired issues a discovery (§2.3.2:
    "The registry node can thus issue a discovery message to the location
    management layer to resolve the network address of the mobile
    node.")."""

    def start(self) -> None:
        """Late binding installs no periodic work."""
        # Late binding installs no periodic work.
        return

    def lookup(self, registrant: int, mobile_key: int) -> bool:
        """Serve from cache, else resolve reactively via discovery."""
        net = self.net
        node = net.nodes[registrant]
        st = node.state.get(mobile_key)
        if st is not None and st.is_resolved(self.engine.now):
            return True
        disc = net.discover(registrant, mobile_key)
        self.stats.discoveries += 1
        if not disc.found:
            return False
        from ..overlay.state import StatePair

        if st is None:
            node.state.insert(
                StatePair(
                    key=mobile_key,
                    addr=disc.address,
                    ttl=net.config.state_ttl,
                    refreshed_at=self.engine.now,
                )
            )
        else:
            st.refresh(self.engine.now, addr=disc.address, ttl=net.config.state_ttl)
        return False
