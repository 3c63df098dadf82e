"""The event-driven fast engine ("event") for the clustered processor.

Same model, different execution strategy.  :class:`EventProcessor`
subclasses the scalar reference :class:`ClusteredProcessor` and keeps
its semantics bit-for-bit (the differential suite pins this), while
restructuring the hot path:

* **Annotated front end** -- trace generation, branch prediction, BTB
  and I-cache behaviour are precomputed per benchmark/seed
  (:mod:`repro.workloads.annotate`) and replayed by
  :class:`~repro.frontend.fastfetch.AnnotatedFetchUnit`, so an
  interconnect sweep pays the front-end cost once per benchmark.
* **Event wheel with idle skipping** -- pending work lives in an
  :class:`~repro.core.wheel.EventWheel`; when no pipeline stage can make
  progress this cycle, the core jumps straight to the next cycle holding
  an event instead of stepping through idle cycles one at a time.
* **Pooled transfers** -- network messages come from a free list and
  dispatch their arrivals through per-kind handler tables on the
  :class:`~repro.interconnect.fastnet.BatchedNetwork`, instead of
  allocating a fresh dataclass plus callback closures per hop.
* **Vectorized steering and cached wire selection** -- installed via the
  ``STEERING_CLS`` / ``NETWORK_CLS`` substrate hooks.

The scalar tree is untouched: every override here either replays
precomputed state or reorders *when* work happens, never *what* happens.
"""

from __future__ import annotations

from typing import List, Optional

from ..clusters.fastcluster import FastCluster
from ..clusters.faststeer import VectorSteering
from ..frontend.fastfetch import AnnotatedFetchUnit
from ..interconnect.fastnet import BatchedNetwork
from ..interconnect.message import DEFAULT_BITS, Transfer, TransferKind
from ..interconnect.topology import CACHE_NODE
from ..memory.fastlsq import FastLoadStoreQueue
from ..telemetry import EventKind
from ..workloads.annotate import AnnotatedTrace
from ..workloads.trace import EXECUTION_LATENCY, OpClass
from .config import InterconnectConfig, ProcessorConfig
from .instruction import DynInstr
from .processor import DEADLOCK_HORIZON, ClusteredProcessor, ProcessorStats
from .wheel import EventWheel

# Latency and memory-ness as plain attributes on the enum members:
# one attribute load instead of a dict hash plus a property call on the
# hottest per-instruction path.  Additive only -- scalar-tree users keep
# reading EXECUTION_LATENCY / OpClass.is_memory.
for _op in OpClass:
    _op._fast_lat = EXECUTION_LATENCY[_op]
    _op._fast_mem = _op.is_memory
del _op
for _kind in TransferKind:
    _kind._fast_bits = DEFAULT_BITS[_kind]
del _kind

#: Post-prewarm cache images, keyed by (region tuple, cache geometry):
#: {set index: tag tuple}.  A sweep rebuilds identical processors per
#: benchmark; restoring the analytic warmup from a snapshot is much
#: cheaper than recomputing it per cache set.
_PREWARM_CACHE: dict = {}


def _prewarm_cached(cache, regions) -> None:
    key = (regions, cache.num_sets, cache.assoc, cache.line_size)
    image = _PREWARM_CACHE.get(key)
    if image is None:
        for base, size in regions:
            cache.prewarm_region(base, size)
        _PREWARM_CACHE[key] = {
            index: tuple(tags) for index, tags in cache._sets.items()
        }
    else:
        cache._sets = {index: list(tags) for index, tags in image.items()}


class EventProcessor(ClusteredProcessor):
    """Event-driven engine: scalar semantics, restructured hot path."""

    NETWORK_CLS = BatchedNetwork
    CLUSTER_CLS = FastCluster
    STEERING_CLS = VectorSteering
    LSQ_CLS = FastLoadStoreQueue

    def __init__(self, config: ProcessorConfig,
                 interconnect: InterconnectConfig,
                 annotated: AnnotatedTrace, seed_tag: str = "",
                 faults=None, telemetry=None, gating=None) -> None:
        self._ann = annotated
        super().__init__(config, interconnect, iter(()), seed_tag,
                         faults=faults, telemetry=telemetry,
                         gating=gating)
        # Replace the live front end with the annotation replayer.  The
        # live FetchUnit built by the base constructor never ticked, so
        # its predictor/BTB/I-cache state is pristine and discardable.
        self.fetch = AnnotatedFetchUnit(
            annotated,
            width=config.fetch_width,
            queue_size=config.fetch_queue_size,
            max_blocks=config.max_fetch_blocks,
            refill_penalty=config.frontend_refill,
            icache_miss_penalty=config.icache_miss_penalty,
        )
        self._wheel = EventWheel()
        #: predict_and_train calls replayed so far; indexes the
        #: annotation's narrow-counter prefix snapshots.
        self._narrow_calls = 0
        self._pool: List[Transfer] = []
        net = self.network
        net._pool = self._pool
        net._partial_handlers = {
            TransferKind.LOAD_ADDRESS: self._arrive_partial_address,
            TransferKind.STORE_ADDRESS: self._arrive_partial_address,
        }
        net._final_handlers = {
            TransferKind.OPERAND: self._arrive_operand,
            TransferKind.LOAD_ADDRESS: self._arrive_full_address,
            TransferKind.STORE_ADDRESS: self._arrive_full_address,
            TransferKind.STORE_DATA: self._arrive_store_data,
            TransferKind.LOAD_DATA: self._arrive_load_data,
            TransferKind.MISPREDICT: self._arrive_redirect,
        }

    def prewarm(self, footprint=None) -> None:
        if footprint is None:
            footprint = self._ann.footprint
        regions = tuple(footprint)
        _prewarm_cached(self.hierarchy.l2, regions)
        if regions:
            _prewarm_cached(self.hierarchy.l1, regions[-1:])

    # -- event wheel ---------------------------------------------------------

    def _schedule(self, cycle, fn) -> None:
        if cycle <= self.cycle:
            cycle = self.cycle + 1
        self._wheel.schedule(cycle, fn, None)

    # -- per-cycle step ------------------------------------------------------

    def step(self) -> None:
        cycle = self.cycle
        net = self.network
        deliveries = net._deliveries
        if deliveries and deliveries[0][0] <= cycle:
            net.deliver_due(cycle)
        for entry in self._wheel.pop_due(cycle):
            if entry is not None:
                fn, arg = entry
                if arg is None:
                    fn()
                else:
                    fn(arg)
        rob = self.rob
        if rob and rob[0].completed:
            self._commit(cycle)
        for cluster in self.clusters:
            if cluster._ready_instrs:
                self._issue_cluster(cluster, cycle)
        fetch = self.fetch
        if fetch.queue:
            self._dispatch(cycle)
        if fetch._redirect_seq is None and cycle >= fetch._resume_cycle:
            fetch.tick(cycle)
        if net._fast_active or net._pending_kills or net._retries:
            net.tick(cycle)
        self.stats.cycles += 1
        self.cycle = cycle + 1

    def _run_until(self, target_committed: int,
                   max_cycles: Optional[int]) -> None:
        stats = self.stats
        wheel = self._wheel
        net = self.network
        fetch = self.fetch
        lsq = self.lsq
        rob = self.rob
        clusters = self.clusters
        while stats.committed < target_committed:
            if max_cycles is not None and stats.cycles >= max_cycles:
                break
            self.step()
            if self.cycle - self._last_commit_cycle > DEADLOCK_HORIZON:
                raise RuntimeError(
                    f"no commit for {DEADLOCK_HORIZON} cycles at cycle "
                    f"{self.cycle}; rob={len(rob)}, "
                    f"head={rob[0] if rob else None}"
                )
            if stats.committed >= target_committed:
                # Done: an idle-skip now would charge cycles past the
                # step that reached the target.
                break
            # Idle-skip: if no stage can make progress next cycle, jump
            # straight to the next cycle holding pending work.  Every
            # check is conservative -- any doubt means "step normally".
            if fetch.queue:
                continue
            if fetch._redirect_seq is None and self.cycle >= fetch._resume_cycle:
                continue
            if net._fast_active:
                continue
            if rob:
                head = rob[0]
                if head.completed and (
                        head.rec.op is not OpClass.STORE
                        or lsq.store_ready_to_commit(head)):
                    continue
            busy = False
            for cluster in clusters:
                if cluster._ready_instrs:
                    busy = True
                    break
            if busy:
                continue
            target = wheel.next_cycle()
            net_next = net.next_event_cycle()
            if net_next is not None and (target is None or net_next < target):
                target = net_next
            if fetch._redirect_seq is None and fetch._resume_cycle > self.cycle:
                if target is None or fetch._resume_cycle < target:
                    target = fetch._resume_cycle
            if target is None or target <= self.cycle:
                continue
            if max_cycles is not None:
                limit = self.cycle + (max_cycles - stats.cycles)
                if target > limit:
                    target = limit
            horizon = self._last_commit_cycle + DEADLOCK_HORIZON + 1
            if target > horizon:
                target = horizon
            if target > self.cycle:
                stats.cycles += target - self.cycle
                self.cycle = target

    def run(self, instructions: int, warmup: int = 0,
            max_cycles: Optional[int] = None) -> ProcessorStats:
        stats = super().run(instructions, warmup, max_cycles)
        # The annotation trained the narrow predictor ahead of time; the
        # run's timing decides where it stops, so install the accuracy
        # counters as of this run's last predict_and_train call.
        npred = self.narrow_predictor
        (npred.narrow_results,
         npred.narrow_predicted_and_narrow,
         npred.predicted_narrow,
         npred.predicted_narrow_but_wide) = \
            self._ann.narrow_prefix[self._narrow_calls]
        self.network.stats.flush()
        return stats

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        budget = self.config.dispatch_width
        queue = self.fetch.queue
        stats = self.stats
        rob = self.rob
        rob_size = self.config.rob_size
        lsq = self.lsq
        rename = self.rename
        narrow_pred = self._ann.narrow_pred
        fv = self.frequent_values
        while budget > 0 and queue:
            if len(rob) >= rob_size:
                stats.dispatch_stalls += 1
                return
            instr = queue[0]
            rec = instr.rec
            op = rec.op
            if op._fast_mem and not lsq.has_room():
                stats.dispatch_stalls += 1
                return
            producers = []
            for reg in rec.srcs:
                producer = rename[reg]
                if producer is not None and not producer.committed:
                    producers.append((reg, producer))
            cluster = self.steering.choose(instr, producers, cycle)
            if cluster is None:
                stats.dispatch_stalls += 1
                return
            queue.popleft()
            budget -= 1
            cluster.admit(instr)
            instr.dispatch_cycle = cycle
            rob.append(instr)
            if op._fast_mem:
                lsq.allocate(instr)
            if rec.writes_int_register:
                # Replay the annotation's prediction; this is the
                # (narrow_calls)-th predict_and_train call in stream
                # order, exactly as the scalar core would make it.
                instr.narrow_predicted = narrow_pred[instr.seq] != 0
                self._narrow_calls += 1
                if fv is not None:
                    fv.observe(rec.value)
            self._rename(instr, producers, cluster, cycle)
            if rec.dest >= 0:
                rename[rec.dest] = instr

    def _rename(self, instr: DynInstr, producers, cluster, cycle: int) -> None:
        outstanding = 0
        data_outstanding = 0
        home = cluster.index
        pcs = []
        rename = self.rename
        is_store = instr.rec.op is OpClass.STORE
        for idx, reg in enumerate(instr.rec.srcs):
            producer = rename[reg]
            if producer is None or producer.committed:
                continue
            pcs.append(producer.rec.pc)
            is_data = is_store and idx >= 1
            avail = producer.avail_cycle.get(home, -1)
            if avail != -1 and avail <= cycle:
                continue
            if is_data:
                data_outstanding += 1
            else:
                outstanding += 1
            producer.waiters.setdefault(home, []).append((instr, is_data))
            if (producer.completed and home != producer.cluster
                    and home not in producer.transfer_started):
                self._start_operand_transfer(
                    producer, home, cycle, ready_at_dispatch=True
                )
        instr.producer_pcs = pcs
        instr.outstanding = outstanding
        instr.data_outstanding = data_outstanding
        if is_store and data_outstanding == 0:
            self._wheel.schedule(cycle + 1, self._send_store_data, instr)
        if outstanding == 0:
            cluster.make_ready(instr)

    # -- issue ---------------------------------------------------------------

    def _issue_cluster(self, cluster, cycle: int) -> None:
        wheel = self._wheel
        for instr in cluster.select():
            instr.issue_cycle = cycle
            op = instr.rec.op
            done = cycle + op._fast_lat
            if op._fast_mem:
                instr.addr_known_cycle = done
                wheel.schedule(done, self._send_address, instr)
            else:
                wheel.schedule(done, self._complete, instr)

    # -- pooled transfers ----------------------------------------------------

    def _acquire(self, kind: TransferKind, src: str, dst: str,
                 seq: int, payload) -> Transfer:
        pool = self._pool
        if pool:
            t = pool.pop()
            t.kind = kind
            t.src = src
            t.dst = dst
            t.bits = kind._fast_bits
            t.seq = seq
            t.ready_at_dispatch = False
            t.narrow_predicted = False
            t.narrow_actual = False
            t.fv_encodable = False
            t.payload = payload
        else:
            t = Transfer(kind=kind, src=src, dst=dst, seq=seq,
                         payload=payload)
            t._pooled = True
            t._segs_left = 0
            t._target = -1
        return t

    # -- arrival handlers (pooled transfers) ---------------------------------

    def _arrive_operand(self, transfer: Transfer, arrival: int) -> None:
        producer = transfer.payload
        target = transfer._target
        producer.avail_cycle[target] = arrival
        self._wake_cluster(producer, target, arrival)

    def _arrive_partial_address(self, transfer: Transfer,
                                arrival: int) -> None:
        instr = transfer.payload
        self.lsq.on_partial_address(instr, instr.rec.addr, arrival)

    def _arrive_full_address(self, transfer: Transfer, arrival: int) -> None:
        instr = transfer.payload
        self.lsq.on_full_address(instr, instr.rec.addr, arrival)

    def _arrive_store_data(self, transfer: Transfer, arrival: int) -> None:
        self.lsq.on_store_data(transfer.payload, arrival)

    def _arrive_load_data(self, transfer: Transfer, arrival: int) -> None:
        self._load_complete(transfer.payload, arrival)

    def _arrive_redirect(self, transfer: Transfer, arrival: int) -> None:
        self.fetch.redirect_arrived(transfer.payload.seq, arrival)

    # -- transfer launch overrides -------------------------------------------

    def _start_operand_transfer(self, producer: DynInstr, target: int,
                                cycle: int, ready_at_dispatch: bool) -> None:
        producer.transfer_started.add(target)
        self.stats.cross_cluster_operands += 1
        t = self._acquire(TransferKind.OPERAND,
                          self._node_of[producer.cluster],
                          self._node_of[target],
                          producer.seq, producer)
        t.ready_at_dispatch = ready_at_dispatch
        t.narrow_predicted = producer.narrow_predicted
        t.narrow_actual = producer.rec.is_narrow
        if self.frequent_values is not None:
            t.fv_encodable = self._fv_encodable(producer)
        t._target = target
        self.network.submit(t, cycle)

    def _send_address(self, instr: DynInstr) -> None:
        cycle = self.cycle
        is_store = instr.rec.op is OpClass.STORE
        kind = (TransferKind.STORE_ADDRESS if is_store
                else TransferKind.LOAD_ADDRESS)
        t = self._acquire(kind, self._node_of[instr.cluster], CACHE_NODE,
                          instr.seq, instr)
        self.network.submit(t, cycle)
        if is_store:
            instr.completed = True
            instr.complete_cycle = cycle

    def _send_store_data(self, instr: DynInstr) -> None:
        t = self._acquire(TransferKind.STORE_DATA,
                          self._node_of[instr.cluster], CACHE_NODE,
                          instr.seq, instr)
        self.network.submit(t, self.cycle)

    def _load_data_ready(self, instr: DynInstr, cycle: int, level) -> None:
        stats = self.stats
        stats.hit_levels[level] = stats.hit_levels.get(level, 0) + 1
        tel = self.telemetry
        if tel.enabled:
            tel.count(f"cache.{level.value}")
            tel.emit(self.cycle, EventKind.CACHE_ACCESS,
                     {"level": level.value, "seq": instr.seq})
        if cycle <= self.cycle:
            cycle = self.cycle + 1
        self._wheel.schedule(cycle, self._send_load_data, instr)

    def _send_load_data(self, instr: DynInstr) -> None:
        t = self._acquire(TransferKind.LOAD_DATA, CACHE_NODE,
                          self._node_of[instr.cluster],
                          instr.seq, instr)
        t.narrow_predicted = instr.narrow_predicted
        t.narrow_actual = instr.rec.is_narrow
        if self.frequent_values is not None:
            t.fv_encodable = self._fv_encodable(instr)
        self.network.submit(t, self.cycle)

    def _send_redirect(self, instr: DynInstr, cycle: int) -> None:
        self.stats.redirects += 1
        t = self._acquire(TransferKind.MISPREDICT,
                          self._node_of[instr.cluster], CACHE_NODE,
                          instr.seq, instr)
        self.network.submit(t, cycle)
