"""Property tests: the batched kernels agree with the scalar reference path.

Every kernel of the performance layer is pinned to the scalar code it
replaces (the 1e-9 agreement contract of :mod:`repro.core.kernels`):

* closed-form ``strategy_cost`` vs a per-element ``expected_cost`` loop,
  for every strategy family including MixedStrategy with edge atoms at
  0 and ``B``;
* prefix-sum ``empirical_cr_kernel`` / ``StrategyPlan.crs_on`` vs
  ``empirical_cr``;
* the lean ``select_vertex`` vs the full ``ConstrainedSkiRentalSolver``;
* the vectorised bootstrap vs a same-stream per-replicate loop under a
  fixed seed;
* batched ``draw_thresholds`` vs scalar draws — identical generator
  consumption, bit-equal values for deterministic strategies, 1-ulp for
  continuous inverse CDFs (``np.log1p`` vs ``math.log1p``);
* ``quantile_pair`` vs two ``np.quantile`` calls (bit-equal).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.analysis import empirical_cr
from repro.core.brand import BRand
from repro.core.constrained import ConstrainedSkiRentalSolver
from repro.core.kernels import (
    VERTEX_NAMES,
    PrefixSumSample,
    bootstrap_cr_samples,
    bootstrap_resample_indices,
    empirical_cr_kernel,
    quantile_pair,
    select_vertices,
    strategy_cost,
)
from repro.core.stats import StopStatistics
from repro.errors import DegenerateStatisticsError
from repro.core.randomized import MOMRand, NRand
from repro.core.strategy import Atom, MixedStrategy
from repro.evaluation.batch import StrategyPlan, select_vertex
from repro.evaluation.competitive import STRATEGY_NAMES, build_strategies

from .conftest import feasible_statistics, stop_samples

break_evens = st.floats(min_value=1.0, max_value=100.0, allow_nan=False)
samples = stop_samples(max_size=80, max_length=300.0)


def _scalar_mean_cost(strategy, stop_lengths) -> float:
    """The scalar reference: one ``expected_cost`` call per stop."""
    return float(np.mean([strategy.expected_cost(float(y)) for y in stop_lengths]))


class TestStrategyCostClosedForms:
    @given(y=samples, b=break_evens)
    @settings(max_examples=60, deadline=None)
    def test_all_figure4_strategies_match_scalar_loop(self, y, b):
        assume(float(np.max(y)) > 0.0)  # Proposed needs a non-degenerate sample
        sample = PrefixSumSample(y)
        for strategy in build_strategies(y, b).values():
            kernel = strategy_cost(sample, strategy)
            scalar = _scalar_mean_cost(strategy, y)
            assert kernel == pytest.approx(scalar, rel=1e-9, abs=1e-9)

    @given(y=samples, b=break_evens, beta_fraction=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_brand_matches_scalar_loop(self, y, b, beta_fraction):
        strategy = BRand(b, beta_fraction * b)
        kernel = strategy_cost(PrefixSumSample(y), strategy)
        assert kernel == pytest.approx(_scalar_mean_cost(strategy, y), rel=1e-9, abs=1e-9)

    @given(y=samples, b=break_evens, mu_fraction=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_momrand_both_regimes_match_scalar_loop(self, y, b, mu_fraction):
        # mu_fraction spans the revised regime (mu <= ~0.836 B) and the
        # N-Rand fallback regime (mu above it).
        strategy = MOMRand(b, mu_fraction * b)
        kernel = strategy_cost(PrefixSumSample(y), strategy)
        assert kernel == pytest.approx(_scalar_mean_cost(strategy, y), rel=1e-9, abs=1e-9)

    @given(
        y=samples,
        b=break_evens,
        mass_zero=st.floats(min_value=0.0, max_value=0.5),
        mass_b=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_strategy_edge_atoms_match_scalar_loop(self, y, b, mass_zero, mass_b):
        # Atoms exactly at the support edges 0 and B: the strict y < x
        # atom convention must match the prefix-sum side="left" search.
        strategy = MixedStrategy(
            b,
            [Atom(0.0, mass_zero), Atom(b, mass_b)],
            continuous=NRand(b),
        )
        kernel = strategy_cost(PrefixSumSample(y), strategy)
        assert kernel == pytest.approx(_scalar_mean_cost(strategy, y), rel=1e-9, abs=1e-9)

    @given(y=samples, b=break_evens)
    @settings(max_examples=30, deadline=None)
    def test_pure_atom_mixture_matches_scalar_loop(self, y, b):
        strategy = MixedStrategy(b, [Atom(0.0, 0.25), Atom(0.5 * b, 0.25), Atom(b, 0.5)])
        kernel = strategy_cost(PrefixSumSample(y), strategy)
        assert kernel == pytest.approx(_scalar_mean_cost(strategy, y), rel=1e-9, abs=1e-9)


class TestPrefixSumCR:
    @given(y=samples, b=break_evens)
    @settings(max_examples=60, deadline=None)
    def test_empirical_cr_kernel_matches_empirical_cr(self, y, b):
        assume(float(np.max(y)) > 0.0)
        sample = PrefixSumSample(y)
        for strategy in build_strategies(y, b).values():
            kernel = empirical_cr_kernel(sample, strategy, b)
            assert kernel == pytest.approx(empirical_cr(strategy, y, b), rel=1e-9)

    @given(y=samples, b=break_evens)
    @settings(max_examples=60, deadline=None)
    def test_strategy_plan_matches_scalar_path(self, y, b):
        assume(float(np.max(y)) > 0.0)
        sample = PrefixSumSample(y)
        plan = StrategyPlan.from_sample(sample, b)
        crs = plan.crs_on(sample)
        strategies = build_strategies(y, b)
        assert set(crs) == set(STRATEGY_NAMES)
        for name in STRATEGY_NAMES:
            assert crs[name] == pytest.approx(
                empirical_cr(strategies[name], y, b), rel=1e-9
            ), name
        # Exact-tie discipline: Proposed reuses its delegate's float.
        if plan.selected_vertex != "b-DET":
            vertex_key = "TOI" if plan.selected_vertex == "TOI" else plan.selected_vertex
            assert crs["Proposed"] == crs[vertex_key]

    @given(stats=feasible_statistics())
    @settings(max_examples=100, deadline=None)
    def test_select_vertex_matches_constrained_solver(self, stats):
        vertex, b_star = select_vertex(stats)
        selection = ConstrainedSkiRentalSolver(stats).select()
        assert vertex == selection.name
        if vertex == "b-DET":
            assert b_star == pytest.approx(selection.chosen.parameters["b"], rel=1e-12)
        else:
            assert b_star is None


class TestSelectVerticesBatched:
    """The array-shaped ``select_vertices`` vs the scalar solver —
    choices AND produced floats, including the degenerate fallback the
    batched serving path leans on."""

    @staticmethod
    def _scalar(mu, q, b):
        """(code, threshold) the scalar session path would produce."""
        try:
            selection = ConstrainedSkiRentalSolver(
                StopStatistics(mu_b_minus=mu, q_b_plus=q, break_even=b)
            ).select()
        except DegenerateStatisticsError:
            return 3, math.nan  # estimator falls back to NRand(B)
        code = VERTEX_NAMES.index(selection.name)
        if selection.name == "TOI":
            return code, 0.0
        if selection.name == "DET":
            return code, b
        if selection.name == "b-DET":
            return code, selection.chosen.parameters["b"]
        return code, math.nan

    @given(stats=feasible_statistics(allow_degenerate=True))
    @example(  # DET and b-DET tie unless both square by a multiply
        stats=StopStatistics(
            mu_b_minus=1.4639496892159194,
            q_b_plus=5.145230673607144e-213,
            break_even=3.55,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_solver_bit_exactly(self, stats):
        codes, thresholds = select_vertices(
            [stats.mu_b_minus], [stats.q_b_plus], stats.break_even
        )
        expected_code, expected_threshold = self._scalar(
            stats.mu_b_minus, stats.q_b_plus, stats.break_even
        )
        assert int(codes[0]) == expected_code
        if math.isnan(expected_threshold):
            assert math.isnan(thresholds[0])
        else:
            # Bit-exact, not approx: the batched serving path replays
            # these floats through the same downstream arithmetic.
            assert float(thresholds[0]) == expected_threshold

    @given(
        b=break_evens,
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),  # mu fraction
                st.floats(min_value=0.0, max_value=1.0),  # q
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_whole_array_matches_elementwise(self, b, rows):
        mu = np.array([fraction * (1.0 - q) * b for fraction, q in rows])
        q = np.array([q for _, q in rows])
        codes, thresholds = select_vertices(mu, q, b)
        for index in range(len(rows)):
            expected_code, expected_threshold = self._scalar(
                float(mu[index]), float(q[index]), b
            )
            assert int(codes[index]) == expected_code, index
            if math.isnan(expected_threshold):
                assert math.isnan(thresholds[index]), index
            else:
                assert float(thresholds[index]) == expected_threshold, index

    def test_invalid_break_even_rejected(self):
        from repro.errors import InvalidParameterError

        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                select_vertices([1.0], [0.5], bad)


class TestBootstrapSameStream:
    @given(
        y=stop_samples(max_size=40, max_length=300.0),
        b=break_evens,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bootstrap=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorised_bootstrap_replays_index_loop(self, y, b, seed, n_bootstrap):
        assume(float(np.max(y)) > 0.0)
        strategy = NRand(b)
        indices = bootstrap_resample_indices(
            np.random.default_rng(seed), n_bootstrap, y.size
        )
        vectorised = bootstrap_cr_samples(strategy, y, indices, b)

        loop_rng = np.random.default_rng(seed)
        reference = []
        for _ in range(n_bootstrap):
            row = loop_rng.integers(0, y.size, size=y.size)
            resampled = y[row]
            offline = float(np.minimum(resampled, b).sum())
            if offline > 0.0:
                online = float(strategy.expected_cost_vec(resampled).sum())
                reference.append(online / offline)
        assume(reference)  # every replicate may hit the all-zero corner
        np.testing.assert_allclose(vectorised, np.asarray(reference), rtol=1e-12, atol=0.0)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_index_matrix_is_row_major_stream(self, seed):
        # One (m, n) integers call == m successive size-n calls.
        matrix = bootstrap_resample_indices(np.random.default_rng(seed), 7, 13)
        loop_rng = np.random.default_rng(seed)
        rows = [loop_rng.integers(0, 13, size=13) for _ in range(7)]
        assert np.array_equal(matrix, np.stack(rows))


class TestDrawThresholdsBatched:
    @given(y=samples, b=break_evens, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batched_draws_match_scalar_loop(self, y, b, seed):
        assume(float(np.max(y)) > 0.0)  # Proposed needs a non-degenerate sample
        count = 64
        for strategy in build_strategies(y, b).values():
            batched_rng = np.random.default_rng(seed)
            loop_rng = np.random.default_rng(seed)
            batched = strategy.draw_thresholds(count, batched_rng)
            loop = np.array([strategy.draw_threshold(loop_rng) for _ in range(count)])
            finite = np.isfinite(loop)
            assert np.array_equal(np.isfinite(batched), finite), strategy.name
            # Continuous inverse CDFs use np.log1p where the scalar path
            # uses math.log1p: values agree to 1 ulp, not bitwise.
            np.testing.assert_allclose(
                batched[finite], loop[finite], rtol=1e-12, atol=1e-12
            )
            # Same stream consumption: the generators stay in lockstep.
            assert batched_rng.uniform() == loop_rng.uniform(), strategy.name

    @given(
        b=break_evens,
        beta_fraction=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_brand_batched_draws_match_scalar_loop(self, b, beta_fraction, seed):
        strategy = BRand(b, beta_fraction * b)
        batched = strategy.draw_thresholds(64, np.random.default_rng(seed))
        loop_rng = np.random.default_rng(seed)
        loop = np.array([strategy.draw_threshold(loop_rng) for _ in range(64)])
        np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=1e-12)

    @given(b=break_evens, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_strategies_are_bit_exact(self, b, seed):
        for strategy in build_strategies(np.array([0.5 * b]), b).values():
            if not hasattr(strategy, "threshold"):
                continue
            batched = strategy.draw_thresholds(32, np.random.default_rng(seed))
            loop_rng = np.random.default_rng(seed)
            loop = np.array([strategy.draw_threshold(loop_rng) for _ in range(32)])
            assert np.array_equal(batched, loop, equal_nan=True)


class TestQuantilePair:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        confidence=st.floats(min_value=0.01, max_value=0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_np_quantile(self, values, confidence):
        arr = np.asarray(values)
        tail = (1.0 - confidence) / 2.0
        lo, hi = quantile_pair(arr, tail, 1.0 - tail)
        assert lo == float(np.quantile(arr, tail))
        assert hi == float(np.quantile(arr, 1.0 - tail))

    def test_rejects_empty_and_out_of_range(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            quantile_pair(np.array([]), 0.1, 0.9)
        with pytest.raises(InvalidParameterError):
            quantile_pair(np.array([1.0]), -0.1, 0.9)
        with pytest.raises(InvalidParameterError):
            quantile_pair(np.array([1.0]), 0.1, 1.5)


class TestPrefixSumSampleValidation:
    def test_rejects_negative_and_non_finite(self):
        from repro.errors import InvalidParameterError

        for bad in ([-1.0, 2.0], [1.0, math.nan], [1.0, math.inf], []):
            with pytest.raises(InvalidParameterError):
                PrefixSumSample(np.array(bad))

    @given(y=samples, b=break_evens)
    @settings(max_examples=40, deadline=None)
    def test_moment_queries_match_direct_scans(self, y, b):
        sample = PrefixSumSample(y)
        assert sample.partial_expectation(b) == pytest.approx(
            float(y[y < b].sum() / y.size), rel=1e-12, abs=1e-12
        )
        assert sample.survival(b) == pytest.approx(float((y >= b).mean()), abs=0.0)
        assert sample.expected_min(b) == pytest.approx(
            float(np.minimum(y, b).mean()), rel=1e-12, abs=1e-12
        )
