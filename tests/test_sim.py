"""Tests for the Monte Carlo engine."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mnri import glm, numerics, sim
from mnri.errors import DegenerateOutcome, ExcessiveFitFailures
from mnri.glm import LOGIT, NestedFits
from mnri.reclass import TrainTestPair
from mnri.sim import (
    SimConfig,
    gen_replicate,
    replicate_stream,
    run_cell,
    run_grid,
)
from conftest import stacked
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


@pytest.fixture
def pool_sizes(monkeypatch):
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

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(sim, "ProcessPoolExecutor", FakeExecutor)
    return sizes


# A correlation whose sqrt(1 - rho**2) differs in its last bit when rho**2 is
# the array square rho * rho rather than the scalar pow a lone draw uses.
POW_RHO = -0.6777158105489078


def scalar_draw(cfg, stream):
    """The documented draw of one dataset, with Python scalar coefficients."""
    y = (stream.random(cfg.n) < cfg.pi0).astype(float)
    e1, e2 = stream.standard_normal(cfg.n), stream.standard_normal(cfg.n)
    x = cfg.mu_x * y + e1
    z = cfg.rho * (e1 if cfg.null_style == "literal" else x) + np.sqrt(1.0 - cfg.rho**2) * e2
    return y, np.column_stack([np.ones(cfg.n), x]), z[:, None]


class TestStackedDraw:
    """A chunk's draw: every row of the stack has the bytes of its lone draw,
    ``gen_replicate``'s and the scalar formula's."""

    def test_rows_are_lone_draws(self):
        tiny = config(n=60, pi0=1e-6)
        cfgs = [config(n=60, rho=POW_RHO, mu_x=1.3, null_style="literal"),
                config(n=60, rho=POW_RHO, mu_x=0.7, pi0=0.3),
                tiny,
                config(n=60, rho=0.4, mu_x=1.0, pi0=0.25, mode="train_test"),
                config(n=60, rho=0.4, mu_x=1.0, pi0=0.25, mode="train_test")]
        assert np.sqrt(1.0 - np.array([POW_RHO]) ** 2)[0] != np.sqrt(1.0 - POW_RHO**2)
        keys = [(0, 3, 0, 0), (1, 5, 2, 0), (2, 0, 0, 0), (3, 1, 1, 0), (3, 1, 1, 1)]

        def streams():
            return [replicate_stream(cfg.seed, cell, rep, attempt, part)
                    for cfg, (cell, rep, attempt, part) in zip(cfgs, keys)]

        y, x, z, constant = sim._draw(cfgs, streams(), 60)
        assert constant.tolist() == [False, False, True, False, False]
        for r, (cfg, stream) in enumerate(zip(cfgs, streams())):
            if constant[r]:
                with pytest.raises(DegenerateOutcome):
                    gen_replicate(cfg, stream)
                continue
            alone = gen_replicate(cfg, stream)
            want = [a.tobytes() for a in scalar_draw(cfg, streams()[r])]
            assert [y[r].tobytes(), x[r].tobytes(), z[r].tobytes()] == want
            assert [alone.y.tobytes(), alone.x.tobytes(), alone.z.tobytes()] == want

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_constant_outcome_is_flagged_and_neighbours_kept(self, mode):
        # The tiny-pi0 key draws a constant outcome: it alone is left out of
        # the batch, and its neighbours get the records they get alone.
        cfg, tiny = config(n=60, mode=mode), config(n=60, pi0=1e-6, mode=mode)
        keys = [(cfg, 0, 0), (tiny, 1, 0), (cfg, 0, 1)]
        records = sim._attempt_records(keys, 0)
        assert records[1] is None
        for key, record in zip(keys[::2], records[::2]):
            assert record is not None and record == sim._attempt_records([key], 0)[0]


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
    def test_one_statistics_pass_per_chunk(self, half_nris_calls, mode):
        # One pass for each chunk's attempt-0 batch, and one for each redraw
        # whose parts all fit. In REDRAW_CELL every chunk holds a row that
        # fits, and a redrawn replicate fails only in its fits, so the last
        # of its redraws is the one that reaches the statistics.
        cfg = config(**{**REDRAW_CELL, "mode": mode})
        chunks = [range(start, min(start + 7, cfg.replicates))
                  for start in range(0, cfg.replicates, 7)]
        records = [record for reps in chunks
                   for record in sim._chunk_records([(cfg, 0, rep) for rep in reps])]
        redrawn = sum(1 for record in records if record[-1])
        assert redrawn > 0
        assert len(half_nris_calls) == len(chunks) + redrawn
        assert [args[0].shape[0] for args in half_nris_calls].count(1) == redrawn

    def test_one_task_per_replicate(self, monkeypatch):
        # Each chunk's task calls _replicate_rejections once per replicate, in
        # order, with the replicate's attempt-0 record from the chunk's batch.
        calls, results = [], []
        original = sim._replicate_rejections

        def counted(args):
            calls.append(args)
            results.append(original(args))
            return results[-1]

        monkeypatch.setattr(sim, "_replicate_rejections", counted)
        monkeypatch.setattr(sim, "_CHUNK_OBSERVATIONS", 3 * 200)
        cfg = config(replicates=7)
        run_cell(cfg, workers=1)
        assert [(c, cell, rep) for c, cell, rep, _ in calls] == [(cfg, 0, rep) for rep in range(7)]
        assert [record for *_, record in calls] == [result[:-1] for result in results]
        assert all(type(result[-1]) is int for result in results)

    def test_excessive_failures_abort(self):
        # Near-disjoint classes separate almost every draw.
        cfg = config(n=50, mu_x=8.0, replicates=10)
        with pytest.raises(ExcessiveFitFailures):
            run_cell(cfg)


# A cell with redraws in both modes: nearly separated classes make about
# one attempt in five fail to fit.
REDRAW_CELL = dict(n=60, pi0=0.15, mu_x=2.5, rho=0.3, replicates=30, seed=12)


class TestBatches:
    @pytest.fixture(autouse=True)
    def no_budget(self, monkeypatch):
        monkeypatch.setattr(sim, "_FAILURE_BUDGET", 1.0)

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    @pytest.mark.parametrize("cell", [dict(replicates=30), REDRAW_CELL], ids=["plain", "redraws"])
    def test_records_do_not_depend_on_chunks(self, monkeypatch, mode, cell):
        cfg = config(**{**cell, "mode": mode})
        records = []
        for reps_per_chunk in (1, 7, cfg.replicates):
            monkeypatch.setattr(sim, "_CHUNK_OBSERVATIONS", reps_per_chunk * cfg.n)
            columns, redraws = sim._run_replicates(cfg, 3, 1)
            records.append((b"".join(c.tobytes() for c in columns), redraws))
        assert records[0] == records[1] == records[2]
        if cell is REDRAW_CELL:
            assert records[0][1] > 0

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_records_match_replicates_fitted_alone(self, mode):
        # Attempt 0 of replicate r draws part k under key (seed, cell, r, 0, k).
        cfg = config(replicates=12, mode=mode)
        columns, redraws = sim._run_replicates(cfg, 5, 1)
        assert redraws == 0
        for rep in range(cfg.replicates):
            parts = [
                glm.fit_nested(gen_replicate(cfg, replicate_stream(cfg.seed, 5, rep, 0, part)), LOGIT)
                for part in range(1 if mode == "single" else 2)
            ]
            comparison = parts[0] if mode == "single" else TrainTestPair(*parts)
            assert sim._records(cfg, stacked([comparison])) == [
                tuple(column[rep] for column in columns)]

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_batch_records_match_records_made_alone(self, mode):
        # A chunk's attempt 0, some of whose rows fail to fit, tested as one
        # batch gives each row the record bits it gets as a batch of one.
        cfg = config(**{**REDRAW_CELL, "mode": mode})
        keys = [(cfg, 2, rep) for rep in range(cfg.replicates)]
        batch = sim._attempt_records(keys, 0)
        alone = [sim._attempt_records([key], 0)[0] for key in keys]
        assert None in batch and batch.count(None) < len(batch) - 1
        assert [np.array(r).tobytes() if r else r for r in batch] == [
            np.array(r).tobytes() if r else r for r in alone
        ]

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_records_do_not_depend_on_workers(self, mode):
        cfg = config(**{**REDRAW_CELL, "mode": mode})
        (one, redraws_one), (two, redraws_two) = (
            sim._run_replicates(cfg, 1, workers) for workers in (1, 2)
        )
        assert redraws_one == redraws_two > 0
        for a, b in zip(one, two):
            assert a.tobytes() == b.tobytes()


class TestCallShape:
    """The call shape a layer-by-layer trace of simulate relies on: every
    glm.fit inside glm.fit_nested, three per call; one
    _replicate_rejections per replicate; a fit's iterations a Python int."""

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_call_shape(self, monkeypatch, mode):
        stack, events = [], []

        def traced(module, name, measure=None):
            original = getattr(module, name)

            def call(*args, **kwargs):
                events.append((name, stack[-1] if stack else None, args))
                stack.append(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                if measure:
                    events.append((name + ".result", None, measure(result)))
                return result

            monkeypatch.setattr(module, name, call)

        traced(glm, "fit", lambda result: result.iterations)
        traced(glm, "fit_nested")
        traced(sim, "_replicate_rejections")
        # A batch holds at most 4 x 200 observations, counting both parts: the
        # 9 replicates split evenly into the fewest chunks under that cap, 3
        # chunks of 3 in single mode, and in train/test mode 5 chunks of 1, 2,
        # 2, 2 and 2 replicates, each fitting both its parts as one batch.
        monkeypatch.setattr(sim, "_CHUNK_OBSERVATIONS", 4 * 200)
        cfg = config(replicates=9, mode=mode)
        run_cell(cfg, workers=1)

        calls = [e for e in events if not e[0].endswith(".result")]
        fits = [e for e in calls if e[0] == "fit"]
        nested = [e for e in calls if e[0] == "fit_nested"]
        assert all(parent == "fit_nested" for _, parent, _ in fits)
        assert len(fits) == 3 * len(nested)
        assert len([e for e in calls if e[0] == "_replicate_rejections"]) == cfg.replicates
        sizes = {len(args[0].y) for _, _, args in nested}
        assert sizes == {"single": {3}, "train_test": {2, 4}}[mode]
        iterations = [value for name, _, value in events if name == "fit.result"]
        assert len(iterations) == len(fits)
        assert all(type(value) is int for value in iterations)


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

    def test_one_pool_per_grid(self, monkeypatch, pool_sizes):
        # The grid's cells share one pool, sized by its chunks: the 6 keys of
        # one n split into 4 chunks, one per usable CPU. The rows are those of
        # the cells run one at a time.
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        cfgs = [config(replicates=2), config(replicates=3, pi0=0.25), config(replicates=1)]
        rows = run_grid(cfgs, workers=8)
        assert pool_sizes == [4]
        assert rows == [run_cell(cfg, cell=i) for i, cfg in enumerate(cfgs)]

    def test_pool_sized_by_chunks_not_cells(self, monkeypatch, pool_sizes):
        # Twelve one-replicate cells of one n make two chunks for two workers,
        # and so a pool of two, though no cell has more than one replicate.
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        cfgs = [config(replicates=1, pi0=0.2 + 0.05 * i) for i in range(12)]
        assert len(sim._chunks(list(enumerate(cfgs)), 2)) == 2
        rows = run_grid(cfgs, workers=2)
        assert pool_sizes == [2]
        assert rows == run_grid(cfgs, workers=1)

    def test_first_failing_cell_stops_the_grid(self, monkeypatch):
        # The middle cell's redraws exceed the failure budget: the grid raises
        # its error once the cell's chunks are in, before the last cell runs.
        cfgs = [config(replicates=20), config(**REDRAW_CELL), config(replicates=20)]
        ran = []
        original = sim._chunk_records

        def recorded(keys):
            ran.extend(cell for _, cell, _ in keys)
            return original(keys)

        monkeypatch.setattr(sim, "_chunk_records", recorded)
        with pytest.raises(ExcessiveFitFailures) as grid:
            run_grid(cfgs)
        with pytest.raises(ExcessiveFitFailures) as cell:
            run_cell(cfgs[1], cell=1)
        assert str(grid.value) == str(cell.value)
        assert 2 not in ran



# Neighbouring cells of one n with redraws in both modes, and a cell of
# another n between them, which starts a new run of chunks.
STRADDLED_GRID = [
    REDRAW_CELL,
    {**REDRAW_CELL, "pi0": 0.2, "replicates": 17},
    dict(n=200, replicates=9),
    {**REDRAW_CELL, "mu_x": 2.2},
    {**REDRAW_CELL, "rho": 0.0, "pi0": 0.3, "replicates": 23},
]


class TestGridChunks:
    """A chunk is a run of (cell, replicate) keys in grid order across
    neighbouring cells that share n and mode."""

    @pytest.fixture(autouse=True)
    def no_budget(self, monkeypatch):
        monkeypatch.setattr(sim, "_FAILURE_BUDGET", 1.0)

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    @pytest.mark.parametrize("cap", [7 * 60, 45 * 60, 1 << 14])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_keep_the_records_they_get_alone(self, monkeypatch, mode, cap, workers):
        monkeypatch.setattr(sim, "_CHUNK_OBSERVATIONS", cap)
        cells = list(enumerate(config(**{**cell, "mode": mode}) for cell in STRADDLED_GRID))
        assert any(len({cell for _, cell, _ in keys}) > 1 for keys in sim._chunks(cells, workers))
        with sim._cell_records(cells, workers) as records:
            grid = [sim._run_replicates(cfg, i, workers, cell_records)
                    for (i, cfg), cell_records in zip(cells, records)]
        assert sum(redraws for _, redraws in grid) > 0
        for (i, cfg), (columns, redraws) in zip(cells, grid):
            alone, alone_redraws = sim._run_replicates(cfg, i, 1)
            assert redraws == alone_redraws
            assert [c.tobytes() for c in columns] == [c.tobytes() for c in alone]

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    @pytest.mark.parametrize("cap", [7 * 60, 45 * 60, 1 << 14])
    def test_chunks_run_in_grid_order_under_the_cap(self, monkeypatch, mode, cap):
        monkeypatch.setattr(sim, "_CHUNK_OBSERVATIONS", cap)
        cells = list(enumerate(config(**{**cell, "mode": mode}) for cell in STRADDLED_GRID))
        chunks = sim._chunks(cells, 1)
        keys = [(cell, rep) for _, cell, rep in (key for chunk in chunks for key in chunk)]
        assert keys == [(i, rep) for i, cfg in cells for rep in range(cfg.replicates)]
        parts = 1 if mode == "single" else 2
        for chunk in chunks:
            assert len({(cfg.n, cfg.mode) for cfg, _, _ in chunk}) == 1
            assert len(chunk) == 1 or len(chunk) * chunk[0][0].n * parts <= cap
        if cap == 45 * 60 and mode == "single":
            # The first run of 47 keys takes two chunks, which straddle its cells.
            assert [len(chunk) for chunk in chunks[:2]] == [23, 24]

    def test_chunk_count_is_a_multiple_of_the_workers(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
        cfgs = [config(replicates=20, pi0=pi0) for pi0 in (0.25, 0.5, 0.75)]
        cfgs += [config(n=300, replicates=20, mu_x=mu_x) for mu_x in (0.25, 1.0)]
        serial = run_grid(cfgs, workers=1)
        chunks = []
        original = sim._chunk_records

        def recorded(keys):
            chunks.append((keys[0][0].n, len(keys)))
            return original(keys)

        monkeypatch.setattr(sim, "_chunk_records", recorded)
        for workers in (2, 3):
            chunks.clear()
            assert run_grid(cfgs, workers=workers) == serial
            assert pool_sizes[-1] == workers
            assert len(chunks) % workers == 0
            # Each run of one n splits evenly: its chunk sizes differ by at most one.
            for n, keys in ((200, 60), (300, 40)):
                sizes = [size for chunk_n, size in chunks if chunk_n == n]
                assert sum(sizes) == keys and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    def test_failing_cell_among_its_neighbours_stops_the_grid(self, monkeypatch, mode):
        # The four n = 60 cells share chunks of 22 or 23 replicates: the
        # failing second cell raises the message it raises alone, and the last
        # chunk, which holds only the later cells' replicates, never starts.
        monkeypatch.setattr(sim, "_FAILURE_BUDGET", 0.01)
        monkeypatch.setattr(sim, "_CHUNK_OBSERVATIONS", (1 if mode == "single" else 2) * 25 * 60)
        cfgs = [config(**{**cell, "mode": mode}) for cell in (
            dict(n=60, replicates=20), REDRAW_CELL, dict(n=60, replicates=20),
            dict(n=60, replicates=20, pi0=0.25))]
        ran = []
        original = sim._chunk_records

        def recorded(keys):
            ran.append({cell for _, cell, _ in keys})
            return original(keys)

        monkeypatch.setattr(sim, "_chunk_records", recorded)
        with pytest.raises(ExcessiveFitFailures) as grid:
            run_grid(cfgs)
        started = list(ran)
        with pytest.raises(ExcessiveFitFailures) as cell:
            run_cell(cfgs[1], cell=1)
        assert str(grid.value) == str(cell.value)
        chunks = [{cell for _, cell, _ in keys} for keys in sim._chunks(list(enumerate(cfgs)), 1)]
        assert chunks[-1] == {2, 3} and started == chunks[:-1]

    @pytest.mark.parametrize("mode", ["single", "train_test"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_errors_surface_in_cell_order(self, monkeypatch, mode, workers):
        # One chunk holds a cell over its failure budget and then a cell whose
        # replicates never fit: the grid raises the first cell's error, as
        # the cells run one at a time do.
        monkeypatch.setattr(sim, "_FAILURE_BUDGET", 0.01)
        cfgs = [config(**{**REDRAW_CELL, "mode": mode}),
                config(n=60, mu_x=8.0, replicates=3, mode=mode)]
        assert {cell for _, cell, _ in sim._chunks(list(enumerate(cfgs)), workers)[-1]} == {0, 1}
        with pytest.raises(ExcessiveFitFailures, match="budget") as grid:
            run_grid(cfgs, workers=workers)
        with pytest.raises(ExcessiveFitFailures) as first:
            run_cell(cfgs[0])
        with pytest.raises(ExcessiveFitFailures, match="in a row") as second:
            run_cell(cfgs[1], cell=1)
        assert str(grid.value) == str(first.value)
        # Without the first cell's budget check, the second cell's error is next.
        monkeypatch.setattr(sim, "_FAILURE_BUDGET", 1.0)
        with pytest.raises(ExcessiveFitFailures) as grid:
            run_grid(cfgs, workers=workers)
        assert str(grid.value) == str(second.value)


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
