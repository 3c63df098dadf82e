"""Differential suite: plane gating is bit-exact across both engines.

The power manager decides lazily (closed-form settlement of each
plane's state from its injection history) precisely so that the
event engine -- which skips idle cycles entirely -- reaches the same
gate-down points, the same wake latencies and the same state-weighted
leakage as the scalar reference stepping every cycle.  These tests pin
that contract across every gating policy kind, crossed with fault
injection (dead planes and gated planes merge into one avoid set) and
telemetry (the gate/wake event streams must match event for event).

Also pinned: the never-gate policy builds no power manager at all, so
``gating="never"`` is bit-identical to a run with no gating argument.
"""

import pytest

from repro.core.models import model
from repro.core.simulation import ENGINES, simulate_benchmark
from repro.power import PlanePowerManager
from repro.telemetry import EventKind, RingBufferSink, Telemetry

INSTRUCTIONS = 800
WARMUP = 200

#: One policy per kind, plus an aggressive idle variant that actually
#: reaches GATED (not just DROWSY) inside the short test window.
POLICIES = (
    "idle:drowsy=64,gate=256",
    "idle:drowsy=16,gate=64",
    "ewma:halflife=32,thr=0.5",
    "ewma:halflife=64,thr=0.5,gthr=0.25,hold=16",
)


def run_pair(model_name="X", benchmark="gzip", *, num_clusters=4,
             gating=None, fault_spec=None, telemetry=False,
             instructions=INSTRUCTIONS, warmup=WARMUP, seed=42):
    """One (scalar, event) run pair plus their telemetry handles."""
    results = []
    for engine in ENGINES:
        tel = (Telemetry(sink=RingBufferSink(capacity=None))
               if telemetry else None)
        run = simulate_benchmark(
            model(model_name).config, benchmark,
            instructions=instructions, warmup=warmup,
            num_clusters=num_clusters, seed=seed, gating=gating,
            fault_spec=fault_spec, telemetry=tel, engine=engine,
        )
        results.append((run, tel))
    (scalar, scalar_tel), (event, event_tel) = results
    return scalar, event, scalar_tel, event_tel


def assert_runs_equal(scalar, event):
    """Equality with a readable per-field diff on failure."""
    if scalar == event:
        return
    diffs = []
    for field in ("benchmark", "instructions", "cycles",
                  "interconnect_dynamic", "interconnect_leakage"):
        a, b = getattr(scalar, field), getattr(event, field)
        if a != b:
            diffs.append(f"{field}: scalar={a!r} event={b!r}")
    a_extra, b_extra = dict(scalar.extra), dict(event.extra)
    for key in sorted(set(a_extra) | set(b_extra)):
        a, b = a_extra.get(key), b_extra.get(key)
        if a != b:
            diffs.append(f"extra[{key}]: scalar={a!r} event={b!r}")
    pytest.fail("engines diverged:\n  " + "\n  ".join(diffs))


class TestGatedHealthyRuns:
    @pytest.mark.parametrize("gating", POLICIES)
    def test_policies_match(self, gating):
        scalar, event, _, _ = run_pair(gating=gating)
        assert_runs_equal(scalar, event)

    @pytest.mark.parametrize("gating", POLICIES[:2])
    @pytest.mark.parametrize("name", ["II", "VII", "X"])
    def test_models_match(self, name, gating):
        # II: PW-only (single ungateable bulk plane); VII: B+L; X: all
        # three planes.  Each flips which planes the manager may gate.
        scalar, event, _, _ = run_pair(model_name=name, gating=gating)
        assert_runs_equal(scalar, event)

    @pytest.mark.parametrize("bench", ["art", "mcf"])
    def test_benchmarks_match(self, bench):
        scalar, event, _, _ = run_pair(benchmark=bench,
                                       gating=POLICIES[1])
        assert_runs_equal(scalar, event)

    def test_sixteen_clusters_match(self):
        scalar, event, _, _ = run_pair(num_clusters=16,
                                       gating=POLICIES[1])
        assert_runs_equal(scalar, event)

    def test_gating_engages_in_window(self):
        # Guard against a vacuous suite: the aggressive policy must
        # actually gate and wake planes inside the test window.
        scalar, event, _, _ = run_pair(gating=POLICIES[1])
        extra = dict(scalar.extra)
        assert extra["plane_wakes"] > 0
        assert extra["gated_wire_cycle_share"] > 0.0
        assert dict(event.extra)["plane_wakes"] == extra["plane_wakes"]


#: (fault spec, clusters, traced).  The two late B kills land while
#: segments wait on the dying plane, so the arbitration loop reroutes
#: them; at cycle 1401 a reroute also changes a power state mid-cycle,
#: which folds the grant tally in the middle of arbitration.  The last
#: case runs gated, faulted and traced together on the 16-cluster ring.
FAULT_CASES = [
    ("kill=B@*@600", 4, False),
    ("kill=PW@*@500", 4, False),
    ("kill=L@c0@400", 4, False),
    ("ber=2e-4", 4, False),
    ("derate=PW:1.3,B:1.1", 4, False),
    ("kill=B@*@600; ber=1e-4; retries=2", 4, False),
    ("kill=B@*@1362", 4, False),
    ("kill=B@*@1401", 4, False),
    ("kill=PW@*@500; ber=1e-4", 16, True),
]


class TestGatedFaultedRuns:
    """Dead planes and sleeping planes merge into one avoid set."""

    @pytest.mark.parametrize(
        "spec,clusters,telemetry", FAULT_CASES,
        ids=[spec if clusters == 4 and not traced
             else f"{clusters}cl-traced-{spec}"
             for spec, clusters, traced in FAULT_CASES])
    @pytest.mark.parametrize("gating", POLICIES[:2])
    def test_fault_specs_match(self, spec, clusters, telemetry, gating):
        scalar, event, scalar_tel, event_tel = run_pair(
            gating=gating, fault_spec=spec, num_clusters=clusters,
            telemetry=telemetry)
        assert_runs_equal(scalar, event)
        if telemetry:
            assert scalar_tel.events() == event_tel.events()

    def test_degraded_sixteen_clusters_match(self):
        scalar, event, _, _ = run_pair(num_clusters=16,
                                       gating=POLICIES[1],
                                       fault_spec="kill=PW@*@500")
        assert_runs_equal(scalar, event)


class TestGatedTelemetry:
    def test_event_streams_identical(self):
        scalar, event, scalar_tel, event_tel = run_pair(
            gating=POLICIES[1], telemetry=True)
        assert_runs_equal(scalar, event)
        assert scalar_tel.events() == event_tel.events()

    def test_power_events_present_and_identical(self):
        _, _, scalar_tel, event_tel = run_pair(gating=POLICIES[1],
                                               telemetry=True)
        power_kinds = (EventKind.PLANE_GATED, EventKind.PLANE_WOKEN)
        scalar_power = [e for e in scalar_tel.events()
                        if e.kind in power_kinds]
        event_power = [e for e in event_tel.events()
                       if e.kind in power_kinds]
        assert scalar_power, "no gate/wake events in the window"
        assert scalar_power == event_power

    def test_metrics_snapshots_identical(self):
        _, _, scalar_tel, event_tel = run_pair(gating=POLICIES[1],
                                               telemetry=True)
        assert (scalar_tel.metrics.snapshot()
                == event_tel.metrics.snapshot())

    def test_traced_run_equals_untraced_run(self):
        # Telemetry observes gating without perturbing it, both engines.
        traced, traced_event, _, _ = run_pair(gating=POLICIES[1],
                                              telemetry=True)
        untraced, untraced_event, _, _ = run_pair(gating=POLICIES[1],
                                                  telemetry=False)
        assert traced == untraced
        assert traced_event == untraced_event

    def test_faulted_gated_event_streams_identical(self):
        scalar, event, scalar_tel, event_tel = run_pair(
            gating=POLICIES[1], fault_spec="kill=B@*@600; ber=1e-4",
            telemetry=True)
        assert_runs_equal(scalar, event)
        assert scalar_tel.events() == event_tel.events()


class TestNeverGate:
    """'never' must be indistinguishable from no gating at all."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("spelling", ["never", "", None])
    def test_never_bit_identical_to_ungated(self, engine, spelling):
        base = simulate_benchmark(
            model("X").config, "gzip", instructions=INSTRUCTIONS,
            warmup=WARMUP, engine=engine,
        )
        never = simulate_benchmark(
            model("X").config, "gzip", instructions=INSTRUCTIONS,
            warmup=WARMUP, engine=engine, gating=spelling,
        )
        assert base == never
        # No power extras: the manager is never even constructed.
        assert "plane_wakes" not in dict(never.extra)

    def test_never_builds_no_manager(self):
        from repro.core.simulation import build_processor

        cpu = build_processor(model("X").config, "gzip",
                              gating="never", engine="scalar")
        assert cpu.network.power is None
        gated = build_processor(model("X").config, "gzip",
                                gating="idle:drowsy=16,gate=64",
                                engine="scalar")
        assert isinstance(gated.network.power, PlanePowerManager)
