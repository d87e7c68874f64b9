"""Tests for the running (incremental) stable softmax of paper §3.4."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RunningSoftmaxAccumulator
from repro.tensor.edge_plan import EdgePlan
from reference_kernels import edge_softmax_np, segment_sum_np


def _fold(acc, logits, values, dst, src):
    """Fold one edge block in through the accumulator's sorted-space entry."""
    plan = EdgePlan(src, dst, acc.num_nodes, len(values))
    acc.add_block_sorted(plan.sort_edges(logits), values, plan)


def _reference(logits, values, src, dst, num_nodes):
    """Direct (non-incremental) softmax-weighted aggregation."""
    alpha = edge_softmax_np(logits, dst, num_nodes)
    heads, dim = values.shape[1], values.shape[2]
    out = np.zeros((num_nodes, heads, dim), dtype=values.dtype)
    for e in range(len(src)):
        out[dst[e]] += alpha[e][:, None] * values[src[e]]
    return out


def _random_problem(rng, num_nodes=6, num_edges=25, heads=2, dim=3, scale=1.0):
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    logits = (scale * rng.standard_normal((num_edges, heads))).astype(np.float32)
    values = rng.standard_normal((num_nodes, heads, dim)).astype(np.float32)
    return src, dst, logits, values


class TestRunningSoftmax:
    def test_single_block_matches_reference(self, rng):
        src, dst, logits, values = _random_problem(rng)
        acc = RunningSoftmaxAccumulator(6, 2, 3)
        _fold(acc, logits, values, dst, src)
        np.testing.assert_allclose(acc.finalize(), _reference(logits, values, src, dst, 6),
                                   rtol=1e-4, atol=1e-5)

    def test_incremental_blocks_match_reference(self, rng):
        src, dst, logits, values = _random_problem(rng, num_edges=30)
        acc = RunningSoftmaxAccumulator(6, 2, 3)
        for chunk in np.array_split(np.arange(30), 4):
            _fold(acc, logits[chunk], values, dst[chunk], src[chunk])
        np.testing.assert_allclose(acc.finalize(), _reference(logits, values, src, dst, 6),
                                   rtol=1e-4, atol=1e-5)

    def test_block_order_does_not_matter(self, rng):
        src, dst, logits, values = _random_problem(rng, num_edges=24)
        order_a = np.array_split(np.arange(24), 3)
        order_b = [chunk for chunk in reversed(order_a)]
        results = []
        for order in (order_a, order_b):
            acc = RunningSoftmaxAccumulator(6, 2, 3)
            for chunk in order:
                _fold(acc, logits[chunk], values, dst[chunk], src[chunk])
            results.append(acc.finalize())
        np.testing.assert_allclose(results[0], results[1], rtol=1e-4, atol=1e-5)

    def test_large_logits_stay_finite_only_when_stable(self, rng):
        """Reproduces the §3.4 observation: without the running-max correction,
        incremental attention aggregation overflows for large logits."""
        src, dst, logits, values = _random_problem(rng, scale=60.0)
        stable = RunningSoftmaxAccumulator(6, 2, 3, stable=True)
        naive = RunningSoftmaxAccumulator(6, 2, 3, stable=False)
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in np.array_split(np.arange(len(src)), 3):
                for acc in (stable, naive):
                    _fold(acc, logits[chunk], values, dst[chunk], src[chunk])
            stable_out = stable.finalize()
            naive_out = naive.finalize()
        assert np.all(np.isfinite(stable_out))
        assert not np.all(np.isfinite(naive_out))

    def test_nodes_without_edges_stay_zero(self, rng):
        logits = np.zeros((2, 1), dtype=np.float32)
        values = rng.standard_normal((3, 1, 2)).astype(np.float32)
        src = np.array([0, 1])
        dst = np.array([0, 0])
        acc = RunningSoftmaxAccumulator(3, 1, 2)
        _fold(acc, logits, values, dst, src)
        out = acc.finalize()
        np.testing.assert_allclose(out[1], 0.0)
        np.testing.assert_allclose(out[2], 0.0)

    def test_state_returns_final_max_and_denominator(self, rng):
        src, dst, logits, values = _random_problem(rng)
        acc = RunningSoftmaxAccumulator(6, 2, 3)
        _fold(acc, logits, values, dst, src)
        running_max, denom = acc.state()
        safe_max = np.where(np.isfinite(running_max), running_max, 0.0)
        weights = np.exp(logits - safe_max[dst])
        np.testing.assert_allclose(segment_sum_np(weights, dst, 6),
                                   denom, rtol=1e-4, atol=1e-5)

    def test_head_count_mismatch_raises(self, rng):
        acc = RunningSoftmaxAccumulator(4, 2, 3)
        with pytest.raises(ValueError):
            _fold(acc, np.zeros((3, 5), dtype=np.float32),
                          np.zeros((4, 2, 3), dtype=np.float32),
                          np.array([0, 1, 2]), np.array([0, 1, 2]))

    @given(st.integers(1, 5), st.integers(1, 40), st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_incremental_equals_direct_property(self, num_blocks, num_edges, seed):
        rng = np.random.default_rng(seed)
        num_nodes, heads, dim = 5, 2, 2
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        logits = (3 * rng.standard_normal((num_edges, heads))).astype(np.float32)
        values = rng.standard_normal((num_nodes, heads, dim)).astype(np.float32)
        acc = RunningSoftmaxAccumulator(num_nodes, heads, dim)
        for chunk in np.array_split(np.arange(num_edges), min(num_blocks, max(num_edges, 1))):
            if len(chunk) == 0:
                continue
            _fold(acc, logits[chunk], values, dst[chunk], src[chunk])
        np.testing.assert_allclose(
            acc.finalize(), _reference(logits, values, src, dst, num_nodes),
            rtol=1e-3, atol=1e-4,
        )
