"""Smoke tests for the table/figure regeneration functions.

Tiny windows and two benchmarks: these check plumbing and rendering,
not magnitudes (the benchmark harness owns those).
"""

import pytest

from repro.core.simulation import DEFAULT_SEED
from repro.harness import (
    ExperimentRunner,
    ResultCache,
    render_claims,
    render_figure3,
    render_table3,
    render_table4,
    run_claims,
    run_figure3,
    run_table3,
    run_table4,
)

BENCHES = ("gzip", "mesa")
KW = dict(benchmarks=BENCHES, instructions=700, warmup=200)


@pytest.fixture
def runner(tmp_path):
    return ExperimentRunner(cache=ResultCache(tmp_path), verbose=False)


class TestFigure3:
    def test_runs_and_renders(self, runner):
        result = run_figure3(runner, **KW)
        assert result.benchmarks == BENCHES
        assert all(ipc > 0 for ipc in result.baseline_ipc)
        text = render_figure3(result)
        assert "Figure 3" in text
        assert "gzip" in text and "mesa" in text
        assert "paper" in text

    def test_am_math(self, runner):
        result = run_figure3(runner, **KW)
        assert result.baseline_am == pytest.approx(
            sum(result.baseline_ipc) / 2
        )


class TestTable3:
    def test_runs_subset_of_models(self, runner):
        result = run_table3(runner, models=("I", "II", "VII"), **KW)
        assert [r.model for r in result.rows] == ["I", "II", "VII"]
        baseline = result.row("I")
        assert baseline.relative_dynamic == pytest.approx(1.0)
        assert baseline.relative_leakage == pytest.approx(1.0)
        assert baseline.ed2(0.10) == pytest.approx(100.0)

    def test_render_includes_paper_comparison(self, runner):
        result = run_table3(runner, models=("I", "II"), **KW)
        text = render_table3(result)
        assert "Paper's Table 3" in text
        assert "288 PW-Wires" in text

    def test_best_ed2_lookup(self, runner):
        result = run_table3(runner, models=("I", "VII"), **KW)
        assert result.best_ed2(0.20).model in ("I", "VII")

    def test_row_lookup_raises(self, runner):
        result = run_table3(runner, models=("I",), **KW)
        with pytest.raises(KeyError):
            result.row("X")


class TestTable4:
    def test_sixteen_cluster_runs(self, runner):
        result = run_table4(runner, models=("I", "VII"), **KW)
        assert result.num_clusters == 16
        text = render_table4(result)
        assert "16-cluster" in text
        assert "best ED2(20%)" in text


class TestClaims:
    def test_all_claims_present(self, runner):
        claims = run_claims(runner, **KW)
        names = {c.name for c in claims}
        assert names == {
            "latency_doubling_ipc_loss", "figure3_lwire_gain",
            "lwire_gain_2x_latency", "scaling_4_to_16",
            "lwire_gain_16cl", "narrow_register_traffic",
            "narrow_predictor_coverage", "narrow_predictor_false",
            "false_dependence_rate",
        }
        text = render_claims(claims)
        assert "paper" in text

    def test_claims_carry_paper_values(self, runner):
        claims = run_claims(runner, **KW)
        by_name = {c.name: c for c in claims}
        assert by_name["latency_doubling_ipc_loss"].paper == -12.0
        assert by_name["figure3_lwire_gain"].paper == 4.2


class RecordingRunner(ExperimentRunner):
    """Records every plan handed to :meth:`run_many`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plans = []

    def run_many(self, plans, *args, **kwargs):
        self.plans.extend(plans)
        return super().run_many(plans, *args, **kwargs)


TINY = dict(benchmarks=("gzip",), instructions=200, warmup=50)

SWEEPS = [
    pytest.param(lambda r, **kw: render_table3(
        run_table3(r, models=("I", "VII"), **kw)), id="table3"),
    pytest.param(lambda r, **kw: render_table4(
        run_table4(r, models=("I", "VII"), **kw)), id="table4"),
    pytest.param(lambda r, **kw: render_figure3(run_figure3(r, **kw)),
                 id="figure3"),
    pytest.param(lambda r, **kw: render_claims(run_claims(r, **kw)),
                 id="claims"),
]


class TestSeed:
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_plans_carry_the_seed(self, tmp_path, sweep):
        runner = RecordingRunner(cache=ResultCache(tmp_path),
                                 verbose=False)
        sweep(runner, seed=7, **TINY)
        assert runner.plans
        assert {plan.seed for plan in runner.plans} == {7}

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_default_seed_output_unchanged(self, tmp_path, sweep):
        runner = RecordingRunner(cache=ResultCache(tmp_path / "default"),
                                 verbose=False)
        default = sweep(runner, **TINY)
        assert {plan.seed for plan in runner.plans} == {DEFAULT_SEED}
        explicit = sweep(ExperimentRunner(
            cache=ResultCache(tmp_path / "explicit"), verbose=False),
            seed=DEFAULT_SEED, **TINY)
        assert default == explicit
        other = sweep(ExperimentRunner(
            cache=ResultCache(tmp_path / "other"), verbose=False),
            seed=7, **TINY)
        assert other != default

    def test_cli_passes_seed_to_table3(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        seen = []
        original = ExperimentRunner.run_many

        def run_many(self, plans, *args, **kwargs):
            seen.extend(plans)
            return original(self, plans, *args, **kwargs)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(ExperimentRunner, "run_many", run_many)
        assert main(["table3", "--seed", "7", "--benchmarks", "gzip",
                     "--instructions", "200", "--warmup", "50"]) == 0
        assert seen
        assert {plan.seed for plan in seen} == {7}
