"""Tests for the Monte Carlo engine."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mnri import numerics, sim
from mnri.errors import ExcessiveFitFailures
from mnri.sim import (
    SimConfig,
    gen_replicate,
    replicate_stream,
    run_cell,
    run_grid,
)
from null_statistics import collect_null_statistics
from propriety import propriety_mc_check


def config(**kwargs):
    defaults = dict(n=200, pi0=0.5, mu_x=0.5, rho=0.0, replicates=100, seed=42)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n=10),
            dict(pi0=0.0),
            dict(pi0=1.0),
            dict(rho=1.0),
            dict(replicates=0),
            dict(mode="bootstrap"),
            dict(null_style="exact"),
            dict(alpha=0.0),
            dict(mu_x=float("nan")),
            dict(mu_x=float("inf")),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            config(**bad)


class TestGenReplicate:
    def test_shapes_and_intercept(self):
        cfg = config(n=150)
        data = gen_replicate(cfg, replicate_stream(cfg.seed, 0, 0))
        assert data.n == 150
        assert data.p == 2 and data.q == 1
        assert np.all(data.x[:, 0] == 1.0)
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_styles_coincide_at_rho_zero(self):
        for style in ("literal", "enforced"):
            cfg = config(n=500, rho=0.0, null_style=style)
            data = gen_replicate(cfg, replicate_stream(cfg.seed, 0, 7))
            if style == "literal":
                literal = data
            else:
                np.testing.assert_array_equal(literal.x, data.x)
                np.testing.assert_array_equal(literal.z, data.z)
                np.testing.assert_array_equal(literal.y, data.y)

    def test_event_rate(self):
        cfg = config(n=100_000, pi0=0.25)
        data = gen_replicate(cfg, replicate_stream(cfg.seed, 0, 0))
        assert abs(data.ybar - 0.25) <= 0.01

    def test_literal_within_class_correlation(self):
        cfg = config(n=100_000, pi0=0.5, mu_x=1.0, rho=0.5, null_style="literal")
        data = gen_replicate(cfg, replicate_stream(cfg.seed, 0, 1))
        for label in (0.0, 1.0):
            mask = data.y == label
            corr = np.corrcoef(data.x[mask, 1], data.z[mask, 0])[0, 1]
            assert abs(corr - 0.5) <= 0.02
            # literal style keeps the z class means at zero
            assert abs(data.z[mask, 0].mean()) <= 0.02

    def test_enforced_style_ties_z_to_x(self):
        cfg = config(n=100_000, pi0=0.5, mu_x=1.0, rho=0.5, null_style="enforced")
        data = gen_replicate(cfg, replicate_stream(cfg.seed, 0, 1))
        events = data.y == 1.0
        # z inherits rho * mu_x of the class shift through x
        assert abs(data.z[events, 0].mean() - 0.5) <= 0.02
        corr = np.corrcoef(data.x[events, 1], data.z[events, 0])[0, 1]
        assert abs(corr - 0.5) <= 0.02

    def test_determinism(self):
        cfg = config()
        d1 = gen_replicate(cfg, replicate_stream(cfg.seed, 3, 9, attempt=2))
        d2 = gen_replicate(cfg, replicate_stream(cfg.seed, 3, 9, attempt=2))
        np.testing.assert_array_equal(d1.x, d2.x)
        d3 = gen_replicate(cfg, replicate_stream(cfg.seed, 3, 9, attempt=3))
        assert not np.array_equal(d1.z, d3.z)


class TestRunCell:
    def test_deterministic_rows(self):
        cfg = config(replicates=60)
        row1 = run_cell(cfg)
        row2 = run_cell(cfg)
        assert row1 == row2

    def test_worker_count_does_not_change_results(self):
        cfg = config(replicates=60)
        sequential = run_cell(cfg, workers=1)
        parallel = run_cell(cfg, workers=2)
        assert sequential == parallel

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # A stand-in executor records its size and maps in-process, so no
        # process is started.
        sizes = []

        class FakeExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", FakeExecutor)
        return sizes

    @pytest.mark.parametrize("replicates, pool_size", [(3, 3), (1, None)])
    def test_pool_no_larger_than_the_cell(self, monkeypatch, pool_sizes, replicates, pool_size):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        cfg = config(replicates=replicates)
        row = run_cell(cfg, workers=8)
        assert pool_sizes == ([] if pool_size is None else [pool_size])
        assert row == run_cell(cfg, workers=1)

    @pytest.mark.parametrize("cpus, pool_size", [(2, 2), (1, None)])
    def test_pool_no_larger_than_the_cpus(self, monkeypatch, pool_sizes, cpus, pool_size):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        cfg = config(replicates=5)
        row = run_cell(cfg, workers=250)
        assert pool_sizes == ([] if pool_size is None else [pool_size])
        assert row == run_cell(cfg, workers=1)

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert sim._usable_cpus() == 3
        monkeypatch.delattr(sim.os, "sched_getaffinity")
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 6)
        assert sim._usable_cpus() == 6
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        assert sim._usable_cpus() == 1

    def test_single_replicate_rates_degenerate(self):
        row = run_cell(config(replicates=1))
        assert row.rejection_rate_mnri in (0.0, 1.0)
        assert row.rejection_rate_nri_normal in (0.0, 1.0)
        assert row.mc_se_mnri == 0.0

    def test_mc_se_formula(self):
        row = run_cell(config(replicates=200))
        rate = row.rejection_rate_mnri
        assert row.mc_se_mnri == pytest.approx(math.sqrt(rate * (1 - rate) / 200))

    def test_null_rejection_near_nominal(self):
        row = run_cell(config(n=200, replicates=500, seed=7))
        assert abs(row.rejection_rate_mnri - 0.05) <= 0.03

    def test_train_test_mode_runs(self):
        row = run_cell(config(replicates=60, mode="train_test"))
        assert 0.0 <= row.rejection_rate_mnri <= 1.0
        assert row.redraws == 0

    def test_literal_style_with_correlation_is_not_null(self):
        # With rho = 0.5 the literal design leaves z informative given x,
        # so the mNRI test has power rather than size.
        cfg = config(n=500, mu_x=1.0, rho=0.5, null_style="literal", replicates=100)
        row = run_cell(cfg)
        assert row.rejection_rate_mnri > 0.5

    def test_enforced_style_with_correlation_keeps_size(self):
        cfg = config(n=500, mu_x=1.0, rho=0.5, null_style="enforced", replicates=400)
        row = run_cell(cfg)
        assert abs(row.rejection_rate_mnri - 0.05) <= 0.035

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_one_statistics_pass_per_attempt(self, half_nris_calls, mode):
        sim._trial(config(mode=mode), 0, 0, 0)
        assert len(half_nris_calls) == 1

    def test_one_task_per_replicate(self, monkeypatch):
        # The pool task is the per-replicate boundary the benchmark traces.
        results = []
        original = sim._replicate_rejections

        def counted(args):
            results.append(original(args))
            return results[-1]

        monkeypatch.setattr(sim, "_replicate_rejections", counted)
        cfg = config(replicates=7)
        run_cell(cfg, workers=1)
        assert len(results) == cfg.replicates
        assert all(type(result[-1]) is int for result in results)

    def test_excessive_failures_abort(self):
        # Near-disjoint classes separate almost every draw.
        cfg = config(n=50, mu_x=8.0, replicates=10)
        with pytest.raises(ExcessiveFitFailures):
            run_cell(cfg)


class TestRunGrid:
    def test_singleton_equals_run_cell(self):
        cfg = config(replicates=50)
        assert run_grid([cfg]) == [run_cell(cfg)]

    def test_rows_in_input_order_with_cell_seeds(self):
        cfgs = [config(replicates=40, n=200), config(replicates=40, n=300)]
        rows = run_grid(cfgs)
        assert [r.config for r in rows] == cfgs
        # same config at a different grid position uses a different stream
        again = run_grid([cfgs[0], cfgs[0]])
        assert again[0] == run_grid([cfgs[0]])[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid([])

    def test_deterministic(self):
        cfgs = [config(replicates=30), config(replicates=30, pi0=0.25)]
        assert run_grid(cfgs) == run_grid(cfgs)


class TestNullStatistics:
    def test_enforced_null_chisq_calibration(self):
        cfg = config(n=500, mu_x=1.0, rho=0.5, null_style="enforced", replicates=500)
        draws = collect_null_statistics(cfg)
        ks = stats.kstest(draws.mnri_scaled, lambda v: stats.chi2.cdf(v, 1))
        assert ks.statistic <= 0.09

    def test_mean_statistic_matches_reference_mean(self):
        # E[n T / k] = q = 1 under the null.
        cfg = config(n=500, mu_x=0.5, replicates=400)
        draws = collect_null_statistics(cfg)
        se = draws.mnri_scaled.std(ddof=1) / math.sqrt(draws.mnri_scaled.shape[0])
        assert abs(draws.mnri_scaled.mean() - 1.0) <= 3 * se

    def test_rejects_train_test_mode(self):
        with pytest.raises(ValueError):
            collect_null_statistics(config(mode="train_test"))

    def test_same_replicates_as_the_size_table(self):
        cfg = config(replicates=200)
        draws = collect_null_statistics(cfg)
        p_mnri = numerics.chisq_sf(np.maximum(draws.mnri_scaled, 0.0), 1)
        assert (p_mnri <= cfg.alpha).mean() == run_cell(cfg).rejection_rate_mnri

    def test_workers_equivalent(self):
        cfg = config(replicates=50)
        a = collect_null_statistics(cfg, workers=1)
        b = collect_null_statistics(cfg, workers=2)
        np.testing.assert_array_equal(a.mnri_scaled, b.mnri_scaled)
        np.testing.assert_array_equal(a.nri_scaled, b.nri_scaled)


class TestPropriety:
    def test_true_parameters_dominate_perturbations(self):
        check = propriety_mc_check(draws=30_000, seed=99)
        assert check.mean_diffs.shape == (20,)
        assert np.all(check.mean_diffs > 0)
        assert np.all(check.se_diffs > 0)


def test_simconfig_is_frozen():
    cfg = config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 300
