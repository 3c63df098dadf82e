"""Synthetic instruction-stream generator.

Stands in for the paper's SPEC2k/Alpha SimPoint windows.  A seeded
stochastic *static program* -- basic blocks of typed instruction slots with
fixed register operands, memory-reference streams, value-width behaviour
and branch biases -- is walked to produce a dynamic instruction stream.
Because the static structure is fixed per seed, PC-indexed structures
(branch predictors, the narrow-width predictor, the BTB) see realistic
per-static-instruction consistency, and register dependences exhibit the
locality that cluster steering heuristics exploit.

All the aggregate statistics the paper's evaluation leans on are exposed
as profile parameters: instruction mix, dependence locality (ILP), branch
predictability, memory working set and access patterns, and the fraction
of narrow (0..1023) integer results.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .params import WorkloadProfile
from .trace import NO_REG, NUM_ARCH_REGS, InstructionRecord, OpClass


class StreamKind(enum.Enum):
    """Memory-reference behaviour of a static load/store slot."""

    STACK = "stack"      # small, hot region: near-perfect L1 hits
    GLOBAL = "global"    # a fixed scalar address
    STREAM = "stream"    # sequential striding through the working set
    POINTER = "pointer"  # uniform random within the working set


@dataclass(slots=True)
class _StaticInstr:
    pc: int
    op: OpClass
    dest: int
    srcs: Tuple[int, ...]
    stream_kind: Optional[StreamKind] = None
    stream_id: int = 0
    stream_base: int = 0
    narrow_habit: bool = False


@dataclass(slots=True)
class _StaticBranch:
    pc: int
    srcs: Tuple[int, ...]
    target_block: int
    is_loop_back: bool
    taken_bias: float


@dataclass(slots=True)
class _Block:
    index: int
    base_pc: int
    body: List[_StaticInstr]
    branch: _StaticBranch


class TraceGenerator:
    """Walks a seeded static program, yielding dynamic instructions."""

    #: Architectural registers reserved for long-lived values (stack and
    #: global base pointers, loop-invariant constants).  Compiled code
    #: rewrites these rarely, so reads of them are almost always ready;
    #: without this partition every "architected" read would alias some
    #: in-flight writer and create spurious dependence chains.
    STABLE_REGS = 8
    #: Probability a result is written to a stable register.
    STABLE_WRITE_PROB = 0.02

    #: Base virtual address of the data working set.
    DATA_BASE = 0x1000_0000
    #: Base virtual address of the stack region.
    STACK_BASE = 0x7FF0_0000
    #: Stack region size in bytes (hot; fits easily in L1).
    STACK_SPAN = 4096
    #: Stride of streaming references (bytes).
    STREAM_STRIDE = 8

    def __init__(self, profile: WorkloadProfile, seed: int = 42) -> None:
        self.profile = profile
        self._build_rng = random.Random(f"{seed}:{profile.name}:static")
        self._walk_rng = random.Random(f"{seed}:{profile.name}:dynamic")
        # Values are drawn from their own stream so value-model changes
        # never perturb the timing-relevant dynamic walk.
        self._value_rng = random.Random(f"{seed}:{profile.name}:values")
        self._frequent_pool = [
            self._value_rng.getrandbits(self._value_rng.randint(11, 40))
            | (1 << 10)
            for _ in range(profile.frequent_value_pool)
        ]
        self._blocks = self._build_program()
        self._working_set = profile.working_set_kb * 1024
        # Dynamic walk state.
        self._current = 0
        self._loop_trips: dict[int, int] = {}
        self._stream_counters: dict[int, int] = {}
        self._global_addrs: dict[int, int] = {}
        # One persistent walk, so interleaved stream() calls resume
        # exactly where the previous call stopped (mid-block included).
        self._walk = self._walk_forever()

    # -- static program construction --------------------------------------

    def _build_program(self) -> List[_Block]:
        p = self.profile
        rng = self._build_rng
        blocks: List[_Block] = []
        pc = 0x0040_0000
        recent_int: List[int] = [0, 1]
        recent_fp: List[int] = [NUM_ARCH_REGS, NUM_ARCH_REGS + 1]
        stream_seq = 0
        for index in range(p.num_blocks):
            base_pc = pc
            size = rng.randint(*p.block_size_range)
            body: List[_StaticInstr] = []
            for _ in range(size):
                op = self._pick_op(rng)
                is_fp = op.is_fp
                srcs = self._pick_srcs(rng, op, recent_int, recent_fp)
                dest = self._pick_dest(rng, op, is_fp)
                stream_kind = None
                stream_id = 0
                stream_base = 0
                if op.is_memory:
                    stream_kind = self._pick_stream_kind(rng)
                    stream_id = stream_seq
                    stream_seq += 1
                    # Random 8-byte-aligned start so concurrent streams
                    # spread across cache sets instead of marching in
                    # lockstep through the same one.
                    working_set = p.working_set_kb * 1024
                    stream_base = 8 * rng.randrange(working_set // 8)
                narrow_habit = (
                    op in (OpClass.IALU, OpClass.IMUL, OpClass.LOAD)
                    and not is_fp
                    and rng.random() < p.narrow_static_frac
                )
                instr = _StaticInstr(
                    pc=pc, op=op, dest=dest, srcs=srcs,
                    stream_kind=stream_kind, stream_id=stream_id,
                    stream_base=stream_base, narrow_habit=narrow_habit,
                )
                body.append(instr)
                if dest != NO_REG:
                    recent = recent_fp if is_fp else recent_int
                    recent.append(dest)
                    if len(recent) > 12:
                        recent.pop(0)
                pc += 4
            branch = self._pick_branch(rng, index, recent_int)
            branch_pc = pc
            pc += 4
            blocks.append(_Block(
                index=index,
                base_pc=base_pc,
                body=body,
                branch=_StaticBranch(
                    pc=branch_pc,
                    srcs=branch.srcs,
                    target_block=branch.target_block,
                    is_loop_back=branch.is_loop_back,
                    taken_bias=branch.taken_bias,
                ),
            ))
        return blocks

    def _pick_op(self, rng: random.Random) -> OpClass:
        p = self.profile
        r = rng.random()
        if r < p.load_frac:
            return OpClass.LOAD
        r -= p.load_frac
        if r < p.store_frac:
            return OpClass.STORE
        r -= p.store_frac
        # Remaining slots are computation; split int/fp.
        remaining = max(1e-9, 1.0 - p.load_frac - p.store_frac)
        frac = r / remaining
        if frac < p.fp_frac:
            if frac < p.fpmul_frac:
                return OpClass.FPMUL
            return OpClass.FPALU
        if frac < p.fp_frac + p.imul_frac:
            return OpClass.IMUL
        return OpClass.IALU

    def _pick_srcs(self, rng: random.Random, op: OpClass,
                   recent_int: List[int],
                   recent_fp: List[int]) -> Tuple[int, ...]:
        p = self.profile
        pool = recent_fp if op.is_fp else recent_int
        n_srcs = 1
        if op in (OpClass.IALU, OpClass.IMUL, OpClass.FPALU, OpClass.FPMUL,
                  OpClass.STORE, OpClass.BRANCH):
            if rng.random() < p.two_src_frac:
                n_srcs = 2
        srcs = []
        for src_index in range(n_srcs):
            if op.is_memory and src_index == 0:
                ready_prob = (p.store_addr_ready if op is OpClass.STORE
                              else p.addr_base_ready)
                if rng.random() < ready_prob:
                    # Address base register: a long-lived stable value.
                    srcs.append(rng.randrange(self.STABLE_REGS))
                    continue
            r = rng.random()
            if pool and r < p.dep_locality:
                # A recent writer: short dependence distance.
                srcs.append(pool[-1 - rng.randrange(min(6, len(pool)))])
            elif pool and r < p.dep_locality + (1 - p.dep_locality) * 0.5:
                srcs.append(rng.choice(pool))
            else:
                # A long-lived stable value: almost always ready.
                base = NUM_ARCH_REGS if op.is_fp else 0
                srcs.append(base + rng.randrange(self.STABLE_REGS))
        return tuple(srcs)

    def _pick_dest(self, rng: random.Random, op: OpClass,
                   is_fp: bool) -> int:
        if op in (OpClass.STORE, OpClass.BRANCH):
            return NO_REG
        base = NUM_ARCH_REGS if is_fp else 0
        if rng.random() < self.STABLE_WRITE_PROB:
            return base + rng.randrange(self.STABLE_REGS)
        return base + self.STABLE_REGS + rng.randrange(
            NUM_ARCH_REGS - self.STABLE_REGS
        )

    def _pick_stream_kind(self, rng: random.Random) -> StreamKind:
        p = self.profile
        r = rng.random()
        if r < p.stream_frac:
            return StreamKind.STREAM
        r -= p.stream_frac
        if r < p.pointer_frac:
            return StreamKind.POINTER
        r -= p.pointer_frac
        if r < p.stack_frac:
            return StreamKind.STACK
        return StreamKind.GLOBAL

    @dataclass(slots=True)
    class _BranchChoice:
        srcs: Tuple[int, ...]
        target_block: int
        is_loop_back: bool
        taken_bias: float

    def _pick_branch(self, rng: random.Random, index: int,
                     recent_int: List[int]) -> "_BranchChoice":
        p = self.profile
        srcs = (rng.choice(recent_int),) if recent_int else ()
        if index > 0 and rng.random() < p.loop_frac:
            # Loop back-edge to a nearby earlier block.
            span = min(index, 4)
            target = index - rng.randint(1, span)
            return self._BranchChoice(
                srcs=srcs, target_block=target,
                is_loop_back=True, taken_bias=0.0,
            )
        # Forward conditional branch.
        target = rng.randrange(p.num_blocks)
        if rng.random() < p.hard_branch_frac:
            bias = rng.uniform(0.35, 0.65)
        else:
            bias = rng.choice((rng.uniform(0.01, 0.1),
                               rng.uniform(0.9, 0.99)))
        return self._BranchChoice(
            srcs=srcs, target_block=target,
            is_loop_back=False, taken_bias=bias,
        )

    # -- dynamic walk ------------------------------------------------------

    def _walk_forever(self) -> Iterator[InstructionRecord]:
        while True:
            block = self._blocks[self._current]
            for instr in block.body:
                yield self._dynamic_instr(instr)
            yield self._dynamic_branch(block)

    def stream_forever(self) -> Iterator[InstructionRecord]:
        """The generator's single dynamic instruction stream.

        All consumers share one walk: records handed out here are never
        replayed by a later ``stream``/``stream_forever`` call.
        """
        return self._walk

    def stream(self, count: int) -> Iterator[InstructionRecord]:
        """Yield the next ``count`` dynamic instructions."""
        if count < 0:
            raise ValueError("count must be non-negative")
        yield from itertools.islice(self._walk, count)

    def _dynamic_instr(self, instr: _StaticInstr) -> InstructionRecord:
        addr = 0
        if instr.stream_kind is not None:
            addr = self._next_address(instr)
        width = self._value_width(instr)
        value = self._value_for(instr, width)
        if value:
            width = value.bit_length()
        return InstructionRecord(
            pc=instr.pc, op=instr.op, dest=instr.dest, srcs=instr.srcs,
            addr=addr, value_width=width, value=value,
        )

    def _dynamic_branch(self, block: _Block) -> InstructionRecord:
        branch = block.branch
        rng = self._walk_rng
        if branch.is_loop_back:
            trips = self._loop_trips.get(block.index)
            if trips is None:
                mean = self.profile.mean_loop_trips
                trips = max(1, int(rng.expovariate(1.0 / mean)) + 1)
            trips -= 1
            taken = trips > 0
            if taken:
                self._loop_trips[block.index] = trips
            else:
                self._loop_trips.pop(block.index, None)
        else:
            taken = rng.random() < branch.taken_bias
        if taken:
            next_block = branch.target_block
        else:
            next_block = (block.index + 1) % len(self._blocks)
        self._current = next_block
        target_pc = self._blocks[branch.target_block].base_pc
        return InstructionRecord(
            pc=branch.pc, op=OpClass.BRANCH, srcs=branch.srcs,
            taken=taken, target=target_pc,
        )

    def _next_address(self, instr: _StaticInstr) -> int:
        rng = self._walk_rng
        kind = instr.stream_kind
        if kind is StreamKind.STACK:
            return self.STACK_BASE + 8 * rng.randrange(self.STACK_SPAN // 8)
        if kind is StreamKind.GLOBAL:
            addr = self._global_addrs.get(instr.stream_id)
            if addr is None:
                addr = self.DATA_BASE + 8 * rng.randrange(1024)
                self._global_addrs[instr.stream_id] = addr
            return addr
        if kind is StreamKind.STREAM:
            counter = self._stream_counters.get(instr.stream_id, 0)
            self._stream_counters[instr.stream_id] = counter + 1
            offset = counter * self.STREAM_STRIDE
            return self.DATA_BASE + (
                (instr.stream_base + offset) % self._working_set
            )
        # Pointer chase: mostly within a hot subset, sometimes anywhere.
        p = self.profile
        hot = min(p.pointer_hot_bytes, self._working_set)
        if rng.random() < p.pointer_hot_frac:
            # Skewed toward the front of the hot region: pointer codes
            # touch a few structures far more often than the rest.
            offset = int((hot // 8) * rng.random() ** 3)
            return self.DATA_BASE + 8 * offset
        return self.DATA_BASE + 8 * rng.randrange(self._working_set // 8)

    def _value_width(self, instr: _StaticInstr) -> int:
        if instr.dest == NO_REG:
            return 0
        if instr.op.is_fp:
            return 64
        rng = self._walk_rng
        p = self.profile
        if instr.narrow_habit:
            if rng.random() < p.narrow_consistency:
                return rng.randint(1, 10)
            return rng.randint(11, 64)
        if rng.random() < p.narrow_background:
            return rng.randint(1, 10)
        return rng.randint(11, 64)

    def _value_for(self, instr: _StaticInstr, width: int) -> int:
        """A concrete value consistent with ``width``.

        Wide integer results come from the program's frequent-value pool
        with probability ``frequent_value_frac`` (value-locality per
        Yang et al.); everything else is a random value of exactly the
        drawn width.  Uses the dedicated value stream, so the timing-
        relevant walk is untouched.
        """
        if instr.dest == NO_REG:
            return 0
        rng = self._value_rng
        if width > 10 and not instr.op.is_fp:
            if rng.random() < self.profile.frequent_value_frac:
                return rng.choice(self._frequent_pool)
        if width <= 1:
            return width  # 0 or 1
        return (1 << (width - 1)) | rng.getrandbits(width - 1)

    def data_footprint(self) -> list:
        """(base, size) regions this workload touches, for cache prewarm."""
        return [
            (self.DATA_BASE, self._working_set),
            (self.STACK_BASE, self.STACK_SPAN),
        ]

    # -- measurement helpers ----------------------------------------------

    def measure(self, count: int) -> dict:
        """Aggregate statistics of the next ``count`` instructions.

        Used by calibration tests to check the stream matches the paper's
        quoted workload properties.
        """
        totals = {
            "instructions": 0, "loads": 0, "stores": 0, "branches": 0,
            "fp": 0, "int_results": 0, "narrow_results": 0, "taken": 0,
        }
        for rec in self.stream(count):
            totals["instructions"] += 1
            if rec.op is OpClass.LOAD:
                totals["loads"] += 1
            elif rec.op is OpClass.STORE:
                totals["stores"] += 1
            elif rec.op is OpClass.BRANCH:
                totals["branches"] += 1
                totals["taken"] += rec.taken
            if rec.op.is_fp:
                totals["fp"] += 1
            if rec.writes_int_register:
                totals["int_results"] += 1
                totals["narrow_results"] += rec.is_narrow
        return totals
