"""Differential suite: the event engine is bit-exact with the scalar tree.

The fast engine's correctness contract is *equality of the measured
numbers*: for any (model, benchmark, topology, fault spec, telemetry)
combination, ``simulate_benchmark(engine="event")`` must return a
:class:`BenchmarkRun` that compares equal -- field for field, including
the extra-stats tuple with its operand/degradation counters -- to the
scalar reference's.  These tests pin that contract across the
dimensions the engines diverge on internally: wire compositions (which
planes exist drives selection), cluster counts (4 vs the paper's 16,
which flips the vectorized-steering path), fault injection (plane
kills, reroutes, retransmissions and derates on the fast network's
per-channel state), telemetry (whose event stream must also match,
event for event) and memory-dependence speculation (which exercises the
fast LSQ's wake filtering).  A last class pins that the event engine
never hands a traced, faulted or gated run to the scalar network.

Runs here are short -- the point is covering engine-divergent paths,
not reproducing paper numbers (the tier-1 suites do that on the scalar
tree, and equality transfers them to the fast engine for free).
"""

import os

import pytest

from repro.clusters.cluster import FU_POOL
from repro.core.config import ProcessorConfig
from repro.core.models import MODEL_NAMES, model
from repro.core.simulation import ENGINES, _resolve_engine, simulate_benchmark
from repro.interconnect.network import Network
from repro.telemetry import RingBufferSink, Telemetry
from repro.workloads import fastops

INSTRUCTIONS = 800
WARMUP = 200


def run_one(engine, model_name="X", benchmark="gzip", *, num_clusters=4,
            fault_spec=None, gating=None, telemetry=False, config=None,
            instructions=INSTRUCTIONS, warmup=WARMUP, seed=42):
    """One run on ``engine`` plus its telemetry handle."""
    tel = (Telemetry(sink=RingBufferSink(capacity=None))
           if telemetry else None)
    run = simulate_benchmark(
        model(model_name).config, benchmark,
        instructions=instructions, warmup=warmup,
        num_clusters=num_clusters, seed=seed, config=config,
        fault_spec=fault_spec, gating=gating, telemetry=tel,
        engine=engine,
    )
    return run, tel


def run_pair(*args, **kwargs):
    """One (scalar, event) run pair plus their telemetry handles."""
    (scalar, scalar_tel), (event, event_tel) = (
        run_one(engine, *args, **kwargs) for engine in ENGINES)
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


class TestHealthyRuns:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_model_matches(self, name):
        scalar, event, _, _ = run_pair(model_name=name)
        assert_runs_equal(scalar, event)

    @pytest.mark.parametrize("bench", ["gzip", "art", "mcf", "gcc"])
    def test_benchmarks_match(self, bench):
        scalar, event, _, _ = run_pair(benchmark=bench)
        assert_runs_equal(scalar, event)

    @pytest.mark.parametrize("name", ["III", "X"])
    def test_sixteen_clusters_match(self, name):
        # 16 clusters crosses VectorSteering.NUMPY_MIN_CLUSTERS, so this
        # pins the numpy scoring path against the scalar heuristic.
        scalar, event, _, _ = run_pair(model_name=name, num_clusters=16)
        assert_runs_equal(scalar, event)

    def test_different_seed_matches(self):
        scalar, event, _, _ = run_pair(seed=7)
        assert_runs_equal(scalar, event)

    def test_memory_dependence_speculation_matches(self):
        config = ProcessorConfig(num_clusters=4,
                                 memory_dependence_speculation=True)
        scalar, event, _, _ = run_pair(config=config)
        assert_runs_equal(scalar, event)

    def test_run_stops_at_commit_target(self):
        # A window whose last commit leaves the core idle: the event
        # engine must not idle-skip past the step that reached the
        # target (it used to charge the skipped cycles to the run).
        scalar, event, _, _ = run_pair(model_name="I", benchmark="art",
                                       seed=84, instructions=120,
                                       warmup=40)
        assert_runs_equal(scalar, event)


#: (fault spec, clusters): kills that land while segments wait on the
#: dying plane, so the arbitration loop itself reroutes them.
KILL_WHILE_QUEUED = [
    ("kill=B@*@1362", 4),
    ("kill=B@*@750", 16),
]

#: (fault spec, clusters).  The 16-cluster cases cross multi-hop ring
#: paths: derated latencies memoized per route, and retry escalation
#: (kill, reroute onto a new plane, new per-hop peers).
FAULT_CASES = [
    ("kill=B@*@600", 4),
    ("kill=PW@*@500", 4),
    ("kill=L@c0@400", 4),
    ("ber=2e-4", 4),
    ("derate=PW:1.3,B:1.1", 4),
    ("kill=B@*@600; ber=1e-4; retries=2", 4),
    ("derate=PW:1.3,B:1.1", 16),
    ("ber=3e-5; retries=0", 16),
] + KILL_WHILE_QUEUED


class TestFaultedRuns:
    """Fault injection on the fast network's per-channel state."""

    @pytest.mark.parametrize(
        "spec,clusters", FAULT_CASES,
        ids=[spec if clusters == 4 else f"{clusters}cl-{spec}"
             for spec, clusters in FAULT_CASES])
    def test_fault_specs_match(self, spec, clusters):
        scalar, event, _, _ = run_pair(fault_spec=spec,
                                       num_clusters=clusters)
        assert_runs_equal(scalar, event)

    @pytest.mark.parametrize("spec,clusters", KILL_WHILE_QUEUED)
    def test_kill_strands_queued_segments(self, spec, clusters):
        # Guard against vacuous cases: without bit errors every reroute
        # is of a segment already queued on the killed plane.
        run, _ = run_one("scalar", fault_spec=spec, num_clusters=clusters)
        assert dict(run.extra)["degraded_reroutes"] > 0

    def test_retry_escalation_engages_at_sixteen_clusters(self):
        # Guard against a vacuous case: the escalation spec must kill
        # and reroute inside the window without going unroutable.
        run, _ = run_one("scalar", fault_spec="ber=3e-5; retries=0",
                         num_clusters=16)
        extra = dict(run.extra)
        assert extra["retry_escalations"] > 0
        assert extra["degraded_reroutes"] > 0

    def test_degraded_sixteen_clusters_match(self):
        scalar, event, _, _ = run_pair(model_name="X", num_clusters=16,
                                       fault_spec="kill=PW@*@500")
        assert_runs_equal(scalar, event)


class TestTelemetry:
    def test_event_streams_identical(self):
        scalar, event, scalar_tel, event_tel = run_pair(telemetry=True)
        assert_runs_equal(scalar, event)
        assert scalar_tel.events() == event_tel.events()

    def test_metrics_snapshots_identical(self):
        _, _, scalar_tel, event_tel = run_pair(telemetry=True)
        assert (scalar_tel.metrics.snapshot()
                == event_tel.metrics.snapshot())

    def test_traced_run_equals_untraced_run(self):
        # Telemetry observes without perturbing -- on both engines.
        traced, traced_event, _, _ = run_pair(telemetry=True)
        untraced, untraced_event, _, _ = run_pair(telemetry=False)
        assert traced == untraced
        assert traced_event == untraced_event

    def test_faulted_event_streams_identical(self):
        scalar, event, scalar_tel, event_tel = run_pair(
            fault_spec="kill=B@*@600; ber=1e-4", telemetry=True)
        assert_runs_equal(scalar, event)
        assert scalar_tel.events() == event_tel.events()


class TestNoScalarFallback:
    """Traced, faulted and gated runs stay on the fast network.

    The scalar network's ``submit``/``tick`` are made to raise while the
    event engine runs; the run must still equal the scalar reference.
    """

    @pytest.mark.parametrize("kwargs", [
        pytest.param({"fault_spec": "kill=B@*@600; ber=1e-4; retries=2"},
                     id="faulted"),
        pytest.param({"gating": "idle:drowsy=16,gate=64"}, id="gated"),
        pytest.param({"telemetry": True}, id="traced"),
        pytest.param({"fault_spec": "kill=PW@*@500; ber=1e-4",
                      "gating": "idle:drowsy=16,gate=64",
                      "telemetry": True, "num_clusters": 16},
                     id="all-16cl"),
    ])
    def test_event_engine_never_enters_scalar_network(self, monkeypatch,
                                                      kwargs):
        scalar, scalar_tel = run_one("scalar", **kwargs)

        def refuse(*args, **kw):
            raise AssertionError("event engine entered the scalar network")

        monkeypatch.setattr(Network, "submit", refuse)
        monkeypatch.setattr(Network, "tick", refuse)
        event, event_tel = run_one("event", **kwargs)
        assert_runs_equal(scalar, event)
        if scalar_tel is not None:
            assert scalar_tel.events() == event_tel.events()


class TestEngineResolution:
    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "event")
        assert _resolve_engine("scalar") == "scalar"

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "event")
        assert _resolve_engine(None) == "event"
        monkeypatch.delenv("REPRO_ENGINE")
        assert _resolve_engine(None) == "scalar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            _resolve_engine("warp")

    def test_cli_does_not_leak_engine_override(self):
        from repro.__main__ import main

        assert "REPRO_ENGINE" not in os.environ
        main(["models"])
        assert "REPRO_ENGINE" not in os.environ


def test_fastops_fu_pool_mirrors_cluster_table():
    # fastops duplicates FU_POOL to avoid a workloads -> clusters
    # dependency cycle; this is the pin promised in its comment.
    assert fastops._FU_POOL == FU_POOL
