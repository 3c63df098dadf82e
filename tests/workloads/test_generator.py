"""Tests for the synthetic instruction-stream generator."""

import pytest

from repro.workloads.generator import TraceGenerator
from repro.workloads.params import WorkloadProfile
from repro.workloads.trace import NO_REG, NUM_ARCH_REGS, OpClass


def make_gen(seed=42, **kw):
    return TraceGenerator(WorkloadProfile(name="test", **kw), seed=seed)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = list(make_gen(seed=7).stream(500))
        b = list(make_gen(seed=7).stream(500))
        assert a == b

    def test_different_seed_different_stream(self):
        a = list(make_gen(seed=7).stream(500))
        b = list(make_gen(seed=8).stream(500))
        assert a != b

    def test_stream_is_resumable(self):
        gen = make_gen(seed=7)
        first = list(gen.stream(100))
        second = list(gen.stream(100))
        reference = list(make_gen(seed=7).stream(200))
        assert first + second == reference


class TestInstructionMix:
    def test_load_store_fractions(self):
        """Dynamic mix tracks the requested static mix.  Loop weighting
        (hot blocks execute more) adds benchmark-level variance, so the
        check averages several seeds."""
        loads = stores = total = 0
        for seed in (1, 2, 3, 4):
            gen = make_gen(seed=seed, load_frac=0.26, store_frac=0.12)
            m = gen.measure(15000)
            loads += m["loads"]
            stores += m["stores"]
            total += m["instructions"]
        assert loads / total == pytest.approx(0.26, abs=0.05)
        assert stores / total == pytest.approx(0.12, abs=0.04)

    def test_paper_memory_traffic_claim(self):
        """'More than one third of all instructions are loads or stores'
        -- the default mix honours the paper's premise."""
        gen = make_gen()
        m = gen.measure(20000)
        assert (m["loads"] + m["stores"]) / m["instructions"] > 1 / 3 - 0.04

    def test_fp_fraction(self):
        gen = make_gen(fp_frac=0.5, fpmul_frac=0.2)
        m = gen.measure(20000)
        assert m["fp"] / m["instructions"] > 0.2

    def test_int_profile_has_no_fp(self):
        gen = make_gen(fp_frac=0.0, fpmul_frac=0.0)
        m = gen.measure(5000)
        assert m["fp"] == 0

    def test_branch_fraction_tracks_block_size(self):
        small = make_gen(block_size_range=(4, 6)).measure(10000)
        large = make_gen(block_size_range=(12, 16)).measure(10000)
        assert (small["branches"] / small["instructions"]
                > large["branches"] / large["instructions"])


class TestRecords:
    def test_memory_ops_have_addresses(self):
        for rec in make_gen().stream(2000):
            if rec.op.is_memory:
                assert rec.addr > 0
                assert rec.addr % 8 == 0  # word aligned
            elif rec.op is not OpClass.BRANCH:
                assert rec.addr == 0

    def test_branches_have_targets(self):
        seen = 0
        for rec in make_gen().stream(5000):
            if rec.op is OpClass.BRANCH:
                seen += 1
                assert rec.target > 0
                assert rec.dest == NO_REG
        assert seen > 100

    def test_registers_in_range(self):
        for rec in make_gen(fp_frac=0.4).stream(5000):
            if rec.dest != NO_REG:
                assert 0 <= rec.dest < 2 * NUM_ARCH_REGS
            for src in rec.srcs:
                assert 0 <= src < 2 * NUM_ARCH_REGS

    def test_fp_ops_use_fp_registers(self):
        for rec in make_gen(fp_frac=0.5).stream(5000):
            if rec.op.is_fp and rec.dest != NO_REG:
                assert rec.dest >= NUM_ARCH_REGS

    def test_value_widths_sane(self):
        for rec in make_gen().stream(2000):
            if rec.dest != NO_REG:
                assert 1 <= rec.value_width <= 64
            if rec.op.is_fp and rec.dest != NO_REG:
                assert rec.value_width == 64


class TestNarrowness:
    def test_narrow_fraction_controllable(self):
        lo = make_gen(narrow_static_frac=0.0, narrow_background=0.0)
        hi = make_gen(narrow_static_frac=0.6)
        m_lo, m_hi = lo.measure(15000), hi.measure(15000)
        assert m_lo["narrow_results"] == 0
        assert m_hi["narrow_results"] / max(1, m_hi["int_results"]) > 0.3

    def test_narrow_is_pc_consistent(self):
        """Per-PC consistency is what makes the paper's predictor work."""
        gen = make_gen(narrow_static_frac=0.3)
        by_pc = {}
        for rec in gen.stream(20000):
            if rec.writes_int_register:
                by_pc.setdefault(rec.pc, []).append(rec.is_narrow)
        consistent = 0
        eligible = 0
        for outcomes in by_pc.values():
            if len(outcomes) >= 10:
                eligible += 1
                rate = sum(outcomes) / len(outcomes)
                if rate < 0.1 or rate > 0.9:
                    consistent += 1
        assert eligible > 10
        assert consistent / eligible > 0.9


class TestMemoryBehaviour:
    def test_stream_addresses_stride(self):
        gen = make_gen(stream_frac=1.0, pointer_frac=0.0, stack_frac=0.0)
        last = {}
        strided = total = 0
        for rec in gen.stream(10000):
            if rec.op.is_memory:
                if rec.pc in last:
                    total += 1
                    strided += (rec.addr - last[rec.pc]) == 8
                last[rec.pc] = rec.addr
        assert strided / total > 0.95

    def test_working_set_bounds_addresses(self):
        gen = make_gen(working_set_kb=64, stream_frac=0.5,
                       pointer_frac=0.5, stack_frac=0.0)
        base = TraceGenerator.DATA_BASE
        for rec in gen.stream(5000):
            if rec.op.is_memory and rec.addr < TraceGenerator.STACK_BASE:
                assert base <= rec.addr < base + 64 * 1024

    def test_footprint_covers_regions(self):
        gen = make_gen(working_set_kb=128)
        regions = gen.data_footprint()
        assert (TraceGenerator.DATA_BASE, 128 * 1024) in regions
        assert any(b == TraceGenerator.STACK_BASE for b, _ in regions)


class TestValidation:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", load_frac=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", load_frac=0.6, store_frac=0.5)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", num_blocks=1)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", block_size_range=(5, 3))
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", working_set_kb=0)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", mean_loop_trips=0.5)

    def test_stream_rejects_negative(self):
        with pytest.raises(ValueError):
            list(make_gen().stream(-1))
