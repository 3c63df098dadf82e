"""Fast-state network for the event-driven core.

Three changes over the scalar :class:`Network`, all invisible to the
reproduced numbers:

* **Per-(channel, plane) arbitration state.**  Queues, budgets and
  grant counters live on :class:`_Chan` objects reached through a
  memoized per-(src, dst) :class:`_Route`, instead of dictionaries
  keyed by ``(channel, WireClass)`` tuples.  Every run takes this path:
  plane kills, NACK/retransmission, bit-error corruption, latency
  derates, power gating and telemetry are handled on it by the scalar
  network's own helpers, called in the scalar order.

* **Batched grant accounting.**  Instead of touching ``by_plane`` /
  ``by_kind`` dictionaries on every grant, :class:`BatchedStats` tallies
  occurrences of each distinct ``(plane, bits, weight, kind)`` grant
  shape and folds the tally on first read.  All counters are integers
  and the tally preserves first-touch ordering, so the fold -- via
  :meth:`InterconnectStats.merge` -- reproduces the scalar stats (and
  their float summation order in ``dynamic_energy``) exactly.

* **Pooled-transfer delivery.**  Transfers acquired from the event
  core's pool carry no per-transfer callback closures; arrivals dispatch
  through per-kind handler tables instead, and a segment refcount
  returns the transfer to the pool once its last slice has arrived.
  Raw transfers (tests, external users) keep their callbacks.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry import EventKind
from ..wires import WireClass
from .errors import ConfigError
from .fastselect import CachingWireSelector
from .message import Transfer, TransferKind
from .network import _NO_AVOID, Network, _Queued
from .stats import InterconnectStats, PlaneActivity

#: Arrival handler: (transfer, arrival cycle) -> None.
Handler = Callable[[Transfer, int], None]

# Dense per-plane index, stamped once: lets hot paths use list indexing
# instead of enum-keyed dict lookups (Python-level ``Enum.__hash__`` was
# a top-five profile entry).  Additive only, like the fastops stamps.
_NUM_PLANES = len(WireClass)
for _i, _wc in enumerate(WireClass):
    _wc._fast_idx = _i
del _i, _wc

#: Capacity of a killed (channel, plane): every budget check fails.
_DEAD = -1


class _Route:
    """Memoized per-(src, dst) routing state for the fast submit path.

    ``by_plane[wire_class._fast_idx]`` is ``None`` when the link has no
    such plane, else ``(latency, chan, peers)``.  ``latency`` already
    carries the fault injector's derate, or is ``None`` when the
    topology has none for the plane (raises like the scalar path);
    ``chan`` arbitrates the first hop and ``peers`` lists every hop's
    :class:`_Chan` for multi-hop paths (``None`` on single-hop ones).
    """

    __slots__ = ("channels", "latencies", "energy_weight", "by_plane")


class _Chan:
    """Hot per-(channel, plane) arbitration state.

    The scalar network keys half a dozen dicts by ``(channel,
    WireClass)`` tuples, whose hashes go through Python-level
    ``Enum.__hash__`` on every access.  In the healthy fast path each
    key resolves to one of these once per submit/tick, and the per-grant
    bookkeeping becomes plain attribute arithmetic.
    """

    __slots__ = ("key", "order", "queue", "head", "capacity",
                 "budget", "budget_cycle", "grants", "bits")

    def __init__(self, key: Tuple[str, WireClass], capacity: int) -> None:
        self.key = key
        #: Arbitration order, identical to the scalar ``_queue_order``.
        self.order = (key[0], key[1].value)
        self.queue: List[_Queued] = []
        self.head = 0
        self.capacity = capacity
        self.budget = 0
        self.budget_cycle = -1
        self.grants = 0
        self.bits = 0


def _chan_order(chan: "_Chan") -> Tuple[str, str]:
    return chan.order


class BatchedStats(InterconnectStats):
    """Tally-based :class:`InterconnectStats`; folds lazily on read."""

    def __init__(self, specs=None) -> None:
        super().__init__(specs=specs)
        #: (wire_class, bits, energy_weight, kind) -> grant count, in
        #: first-grant order (dict insertion order).
        self._tally: Dict[Tuple[WireClass, int, int, TransferKind], int] = {}

    def record_segment(self, wire_class: WireClass, bits: int,
                       energy_weight: int, kind: TransferKind) -> None:
        key = (wire_class, bits, energy_weight, kind)
        tally = self._tally
        tally[key] = tally.get(key, 0) + 1

    def flush(self) -> "BatchedStats":
        """Fold the tally into the plane/kind activity dictionaries."""
        tally = self._tally
        if not tally:
            return self
        batch = InterconnectStats()
        by_plane = batch.by_plane
        by_kind = batch.by_kind
        for (wire_class, bits, weight, kind), count in tally.items():
            activity = by_plane.get(wire_class)
            if activity is None:
                activity = by_plane.setdefault(wire_class, PlaneActivity())
            activity.transfers += count
            activity.bits += count * bits
            activity.weighted_bits += count * bits * weight
            by_kind[kind] = by_kind.get(kind, 0) + count
        # Cleared in place: the network's tick holds the dict across a
        # grant loop that a power transition may flush mid-way.
        tally.clear()
        self.merge(batch)
        return self

    def dynamic_energy(self) -> float:
        self.flush()
        return super().dynamic_energy()

    def transfers_on(self, wire_class: WireClass) -> int:
        self.flush()
        return super().transfers_on(wire_class)

    def total_transfers(self) -> int:
        self.flush()
        return super().total_transfers()


class BatchedNetwork(Network):
    """Scalar network semantics on per-(channel, plane) fast state.

    Every run of the event engine -- healthy, traced, fault-injected or
    power-gated -- arbitrates on :class:`_Chan` queues.  The fault,
    gating and telemetry decisions reuse the scalar helpers
    (``_activate_kills``, ``_reroute``, ``_process_retries``,
    ``route_avoid``...) and happen in the scalar order, so the results
    stay bit-exact with :class:`Network`.
    """

    SELECTOR_CLS = CachingWireSelector

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = BatchedStats(specs=self.composition.specs_map())
        if self.power is not None:
            # DESIGN §15 flush contract: fold the grant tally at every
            # power-state transition so the accounting order around a
            # transition matches the scalar network bit-for-bit.
            self.power.on_transition = self.stats.flush
        #: Per-kind arrival dispatch for pooled (callback-free)
        #: transfers; installed by the event core.
        self._final_handlers: Dict[TransferKind, Handler] = {}
        self._partial_handlers: Dict[TransferKind, Handler] = {}
        #: Free list fully-delivered pooled transfers return to.
        self._pool: Optional[List[Transfer]] = None
        #: Recycled queue items (a delivery is a _Queued's last act).
        self._qpool: List[_Queued] = []
        #: Memoized per-(src, dst) routing state.
        self._routes: Dict[Tuple[str, str], _Route] = {}
        self._planes = frozenset(
            w for w in WireClass if self.composition.has_plane(w)
        )
        #: Arbitration state; replaces the scalar ``_queues``/``_active``.
        self._chans: Dict[Tuple[str, WireClass], _Chan] = {}
        self._fast_active: set = set()
        self._peer_cache: Dict[Tuple[Tuple[str, ...], WireClass],
                               List[_Chan]] = {}

    # -- submission ----------------------------------------------------------

    def submit(self, transfer: Transfer, cycle: int) -> None:
        src = transfer.src
        dst = transfer.dst
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        channels = route.channels
        selector = self.selector
        # The avoid set, built exactly as Network.submit builds it.
        avoid = _NO_AVOID
        if self._pending_kills:
            self._activate_kills(cycle)
        if self._dead:
            avoid = self._dead_planes_on(channels)
        power = self.power
        if power is not None:
            avoid = power.route_avoid(channels, cycle,
                                      selector.demand_planes(transfer),
                                      avoid)
        segments = selector.select(transfer, cycle, avoid=avoid)
        if len(segments) > 1:
            self.stats.split_transfers += 1
        latencies = route.latencies
        energy_weight = route.energy_weight
        by_plane = route.by_plane
        tel = self.telemetry
        traced = tel.enabled
        qpool = self._qpool
        active = self._fast_active
        count = 0
        for segment in segments:
            wire_class = segment.wire_class
            entry = by_plane[wire_class._fast_idx]
            if entry is None:
                raise ConfigError(
                    f"transfer {transfer.kind.value} "
                    f"({transfer.src}->{transfer.dst}) requests "
                    f"{wire_class.value}-Wires, but the link composition "
                    f"({self.composition.describe()}) has no such plane"
                )
            latency, chan, peers = entry
            selector.record_injection(cycle, wire_class)
            if power is not None:
                power.note_activity(channels, wire_class, cycle)
            if traced:
                tel.count("network.segments_routed")
                tel.emit(cycle, EventKind.TRANSFER_ROUTED, {
                    "kind": transfer.kind.value,
                    "plane": wire_class.value,
                    "bits": segment.bits,
                    "src": src,
                    "dst": dst,
                    "channel": channels[0],
                })
            if latency is None:
                self._plane_latency(transfer, latencies, wire_class)
            if qpool:
                item = qpool.pop()
                item.transfer = transfer
                item.segment = segment
                item.path_channels = channels
                item.latencies = latencies
                item.latency = latency
                item.energy_weight = energy_weight
                item.earliest_cycle = cycle + segment.submit_delay
                item.attempt = 0
            else:
                item = _Queued(
                    transfer=transfer,
                    segment=segment,
                    path_channels=channels,
                    latencies=latencies,
                    latency=latency,
                    energy_weight=energy_weight,
                    earliest_cycle=cycle + segment.submit_delay,
                )
            # Inlined _enqueue: the route already resolved chan/peers.
            item.peers = peers
            chan.queue.append(item)
            active.add(chan)
            count += 1
        if getattr(transfer, "_pooled", False):
            transfer._segs_left = count

    def _enqueue(self, key: Tuple[str, WireClass], item: _Queued) -> None:
        """Queue a rerouted or retransmitted segment on its channel."""
        chan = self._chans.get(key)
        if chan is None:
            chan = self._chan(key)
        channels = item.path_channels
        item.peers = (self._peers(channels, key[1])
                      if len(channels) > 1 else None)
        chan.queue.append(item)
        self._fast_active.add(chan)

    # -- routing state -------------------------------------------------------

    def _chan(self, key: Tuple[str, WireClass]) -> _Chan:
        capacity = _DEAD if key in self._dead else self._capacity(key)
        chan = self._chans[key] = _Chan(key, capacity)
        return chan

    def _route(self, src: str, dst: str) -> _Route:
        """Build and memoize the fast routing state for one (src, dst)."""
        path = self.topology.path(src, dst)
        route = _Route()
        route.channels = channels = path.channels
        route.latencies = latencies = path.latency
        route.energy_weight = path.energy_weight
        route.by_plane = by_plane = [None] * _NUM_PLANES
        multi = len(channels) > 1
        chans = self._chans
        planes = self._planes
        injector = self.injector
        for wire_class in WireClass:
            if wire_class not in planes:
                continue
            key = (channels[0], wire_class)
            chan = chans.get(key)
            if chan is None:
                chan = self._chan(key)
            latency = latencies.get(wire_class)
            if latency is not None and injector is not None:
                # Derates are per-plane constants: scale once per route.
                latency = injector.scaled_latency(wire_class, latency)
            peers = self._peers(channels, wire_class) if multi else None
            by_plane[wire_class._fast_idx] = (latency, chan, peers)
        self._routes[(src, dst)] = route
        return route

    def _peers(self, channels: Tuple[str, ...],
               plane: WireClass) -> List[_Chan]:
        """The per-hop arbitration states of a multi-hop path."""
        pkey = (channels, plane)
        peers = self._peer_cache.get(pkey)
        if peers is None:
            chans = self._chans
            peers = []
            for channel in channels:
                key = (channel, plane)
                chan = chans.get(key)
                if chan is None:
                    chan = self._chan(key)
                peers.append(chan)
            self._peer_cache[pkey] = peers
        return peers

    # -- faults --------------------------------------------------------------

    def _kill(self, channel: str, plane: WireClass, cycle: int) -> None:
        super()._kill(channel, plane, cycle)
        chan = self._chans.get((channel, plane))
        if chan is not None:
            chan.capacity = _DEAD

    def _nack(self, item: _Queued, plane: WireClass, cycle: int) -> None:
        """Schedule a corrupted segment's retransmission after a round
        trip (the corruption branch of ``Network._grant``)."""
        self.stats.corrupted_segments += 1
        tel = self.telemetry
        if tel.enabled:
            tel.count("faults.corrupted_segments")
            tel.emit(cycle, EventKind.CORRUPTION, {
                "kind": item.transfer.kind.value,
                "plane": plane.value,
                "seq": item.transfer.seq,
                "attempt": item.attempt,
            })
        self._retry_seq += 1
        heapq.heappush(
            self._retries,
            (cycle + 2 * item.latency + 1, self._retry_seq, item),
        )

    # -- arbitration ---------------------------------------------------------

    def tick(self, cycle: int) -> None:
        if self._pending_kills:
            self._activate_kills(cycle)
        if self._retries:
            self._process_retries(cycle)
        active = self._fast_active
        if not active:
            return
        # Mode flags, hoisted.  Dead planes cost nothing per grant: a
        # dead channel has negative capacity, so a segment crossing one
        # always fails its budget check, and only that failure path
        # asks whether to reroute.
        faulty = bool(self._dead)
        tel = self.telemetry
        traced = tel.enabled
        ber = self._ber_active
        extras = traced or ber
        injector = self.injector
        stats = self.stats
        deliveries = self._deliveries
        tally = stats._tally
        granted_any = False
        drained = None
        # A snapshot, as in the scalar tick: a segment rerouted onto a
        # later channel of it is granted in this same cycle.
        order = (sorted(active, key=_chan_order)
                 if len(active) > 1 else tuple(active))
        for chan in order:
            queue = chan.queue
            head = chan.head
            length = len(queue)
            plane = chan.key[1]
            if chan.budget_cycle != cycle:
                chan.budget = 0
                chan.budget_cycle = cycle
            budget = chan.budget
            capacity = chan.capacity
            while head < length:
                item = queue[head]
                if item.earliest_cycle > cycle:
                    break
                bits = item.segment.bits
                peers = item.peers
                if peers is None:
                    if budget + bits > capacity:
                        if faulty and self._blocked_by_kill(item, plane):
                            head += 1
                            self._reroute(item, cycle)
                            continue
                        break
                    budget += bits
                    chan.grants += 1
                    chan.bits += bits
                else:
                    chan.budget = budget
                    blocked = False
                    for peer in peers:
                        if peer.budget_cycle != cycle:
                            peer.budget = 0
                            peer.budget_cycle = cycle
                        if peer.budget + bits > peer.capacity:
                            blocked = True
                            break
                    if blocked:
                        if faulty and self._blocked_by_kill(item, plane):
                            head += 1
                            self._reroute(item, cycle)
                            continue
                        break
                    for peer in peers:
                        peer.budget += bits
                        peer.grants += 1
                        peer.bits += bits
                    budget = chan.budget
                granted_any = True
                tkey = (plane, bits, item.energy_weight,
                        item.transfer.kind)
                tally[tkey] = tally.get(tkey, 0) + 1
                head += 1
                if extras:
                    if traced:
                        tel.observe("network.segment_bits", bits,
                                    self.SEGMENT_BITS_BUCKETS)
                        tel.observe("network.grant_wait_cycles",
                                    max(0, cycle - item.earliest_cycle),
                                    self.GRANT_WAIT_BUCKETS)
                    if ber and injector.corrupts(
                            plane, item.transfer.kind.value,
                            item.transfer.seq, bits,
                            len(item.path_channels), item.attempt,
                            item.segment.is_leading_slice):
                        self._nack(item, plane, cycle)
                        continue
                self._delivery_seq += 1
                heapq.heappush(
                    deliveries,
                    (cycle + item.latency, self._delivery_seq, item),
                )
            chan.budget = budget
            stats.buffered_cycles += length - head
            if head >= length:
                queue.clear()
                head = 0
                if drained is None:
                    drained = [chan]
                else:
                    drained.append(chan)
            elif head > 64:
                del queue[:head]
                head = 0
            chan.head = head
        if granted_any:
            if self._first_grant_cycle is None:
                self._first_grant_cycle = cycle
            self._last_grant_cycle = cycle
        if drained:
            for chan in drained:
                active.discard(chan)

    # -- reporting ---------------------------------------------------------

    def idle(self) -> bool:
        return (not self._fast_active and not self._deliveries
                and not self._retries)

    def _fold_channels(self) -> None:
        """Fold fast-path grant/bit counters into the scalar dicts."""
        grants = self._channel_grants
        bits = self._channel_bits
        for chan in self._chans.values():
            if chan.grants:
                key = chan.key
                grants[key] = grants.get(key, 0) + chan.grants
                bits[key] = bits.get(key, 0) + chan.bits
                chan.grants = 0
                chan.bits = 0

    def utilization_report(self, cycles=None):
        self._fold_channels()
        return super().utilization_report(cycles)

    # -- delivery ----------------------------------------------------------

    def deliver_due(self, cycle: int) -> None:
        deliveries = self._deliveries
        if not deliveries or deliveries[0][0] > cycle:
            return
        heappop = heapq.heappop
        finals = self._final_handlers
        partials = self._partial_handlers
        pool = self._pool
        qpool = self._qpool
        while deliveries and deliveries[0][0] <= cycle:
            arrival, _, item = heappop(deliveries)
            transfer = item.transfer
            segment = item.segment
            if segment.is_leading_slice:
                callback = transfer.on_partial_arrival
                if callback is not None:
                    callback(arrival)
                else:
                    handler = partials.get(transfer.kind)
                    if handler is not None:
                        handler(transfer, arrival)
            if segment.is_final_slice:
                callback = transfer.on_arrival
                if callback is not None:
                    callback(arrival)
                else:
                    handler = finals.get(transfer.kind)
                    if handler is not None:
                        handler(transfer, arrival)
            if getattr(transfer, "_pooled", False):
                transfer._segs_left -= 1
                if transfer._segs_left <= 0 and pool is not None:
                    transfer.payload = None
                    pool.append(transfer)
            # A delivery is the queue item's last act: recycle it.
            item.transfer = None
            qpool.append(item)
