"""Simulation layer: branching survival, percolation trees, cascades,
box counts and the empirical local dimension.

The extinction probability is pinned against an independent root finder,
tree sampling against determinism and prefix-stability properties, and
the cascade against its exact mass recursion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from spongedim import io
from spongedim.simulate import (PercolationTree, ResourceCapError,
                                box_count, box_count_fit, codes_to_words,
                                empirical_local_dimension, gw_extinction,
                                gw_survival_frequency,
                                localized_frequencies, sample_cascade,
                                sample_tree, sample_tree_conditioned,
                                simulate_level_counts, tree_rects)
from spongedim.weights import WeightModel, WeightSequence

from conftest import carpet


# === branching survival ===

def test_extinction_matches_root_finder():
    for alpha in ([0.9, 0.8, 0.7], [0.6, 0.6, 0.6, 0.6], [0.95, 0.55]):
        a = np.asarray(alpha, dtype=float)

        def g(x):
            return float(np.prod(1.0 - a + a * x)) - x

        got = gw_extinction(a)
        want = brentq(g, 0.0, 1.0 - 1e-9, xtol=1e-13)
        assert abs(got - want) < 1e-10


def test_extinction_subcritical_is_one():
    assert gw_extinction([0.3, 0.3]) == 1.0
    assert gw_extinction([0.45, 0.45]) == 1.0


def test_survival_frequency_within_three_se():
    alpha = np.array([0.8, 0.8, 0.8])
    est = gw_survival_frequency(alpha, depth=30, runs=4000, seed=12)
    q = gw_extinction(alpha)
    z = abs(est.frequency - (1.0 - q)) / est.std_error
    assert z <= 3.0


def test_level_counts_mean_matches_branching_mean():
    alpha = np.full(4, 0.7)
    counts = simulate_level_counts(alpha, depth=6, runs=4000, seed=5)
    mean6 = counts[6].mean()
    expect = float(alpha.sum()) ** 6
    sd = counts[6].std(ddof=1) / math.sqrt(counts.shape[1])
    assert abs(mean6 - expect) <= 3.0 * sd


# === percolation trees ===

def test_tree_deterministic_and_prefix_stable(mcmullen):
    alpha = np.array([0.85, 0.8, 0.9])
    t1 = sample_tree(mcmullen, alpha, depth=8, seed=101)
    t2 = sample_tree(mcmullen, alpha, depth=8, seed=101)
    assert np.array_equal(t1.counts, t2.counts)
    for lvl in range(9):
        assert np.array_equal(t1.levels[lvl], t2.levels[lvl])
    deeper = sample_tree(mcmullen, alpha, depth=10, seed=101)
    for lvl in range(9):
        assert np.array_equal(deeper.levels[lvl], t1.levels[lvl])


def test_tree_seeds_differ(mcmullen):
    alpha = np.array([0.85, 0.8, 0.9])
    t1 = sample_tree(mcmullen, alpha, depth=8, seed=101)
    t2 = sample_tree(mcmullen, alpha, depth=8, seed=102)
    assert any(not np.array_equal(t1.levels[l], t2.levels[l])
               for l in range(9))


def test_conditioned_tree_survives(mcmullen):
    alpha = np.array([0.6, 0.6, 0.6])
    tree, attempts = sample_tree_conditioned(mcmullen, alpha, depth=7, seed=3)
    assert tree.survived()
    assert attempts >= 1


def test_full_retention_tree_is_complete(mcmullen):
    tree = sample_tree(mcmullen, np.ones(3), depth=6, seed=0)
    assert np.array_equal(tree.counts, [3 ** l for l in range(7)])


def test_word_decode_roundtrip():
    rng = np.random.default_rng(8)
    arity, level = 5, 9
    words = rng.integers(0, arity, size=(40, level))
    codes = np.ones(40, dtype=np.uint64)
    for j in range(level):
        codes = codes * np.uint64(arity) + np.uint64(1) + words[:, j].astype(np.uint64)
    got = codes_to_words(np.sort(codes), level, arity)
    order = np.lexsort(words.T[::-1])
    assert np.array_equal(got, words[order])


def test_tree_rects_nested(mcmullen):
    alpha = np.array([0.9, 0.85, 0.9])
    tree = sample_tree(mcmullen, alpha, depth=5, seed=7)
    lo5, size5 = tree_rects(tree, mcmullen, 5)
    assert np.all(lo5 >= -1e-12) and np.all(lo5 + size5 <= 1.0 + 1e-12)
    # every depth-5 cell sits inside some depth-4 cell
    lo4, size4 = tree_rects(tree, mcmullen, 4)
    for lo, size in zip(lo5, size5):
        inside = np.all((lo4 <= lo + 1e-12) &
                        (lo + size <= lo4 + size4 + 1e-12), axis=1)
        assert inside.any()


def test_resource_cap_raises(mcmullen):
    with pytest.raises(ResourceCapError):
        sample_tree(mcmullen, np.ones(3), depth=30, seed=0, guard=10 ** 5)


def test_heap_code_depth_boundary():
    # keeping only the last letter walks the largest code of every level;
    # at arity 3 it is (5 * 3**n - 3) / 2, below 2**63 up to n = 38
    last = np.array([0.0, 0.0, 1.0])
    tree = sample_tree(3, np.tile(last, (38, 1)), depth=38, seed=0)
    top = int(tree.levels[-1][0])
    assert top == (5 * 3 ** 38 - 3) // 2 < 2 ** 63
    back = io.tree_from_dict(io.tree_to_dict(tree, {}))
    assert int(back.levels[-1][0]) == top
    cascade = sample_cascade(WeightModel.deterministic(last), depth=38)
    assert int(cascade.levels[-1][0]) == top
    with pytest.raises(ResourceCapError):
        sample_tree(3, np.tile(last, (39, 1)), depth=39, seed=0)
    with pytest.raises(ResourceCapError):
        sample_cascade(WeightModel.deterministic(last), depth=39)


# === cascades ===

def test_cascade_deterministic_mass_is_one(mcmullen):
    m = WeightModel.deterministic([0.5, 0.3, 0.2])
    cas = sample_cascade(m, depth=6, seed=0)
    # no randomness: the mass martingale is constant and every node's
    # children carry exactly the parent mass
    for lvl in range(7):
        codes, masses = cas.node_table(lvl)
        assert abs(cas.Y[lvl] - 1.0) < 1e-12
        assert abs(masses.sum() - 1.0) < 1e-9


def test_cascade_level_sums_exact(mcmullen):
    m = WeightModel.percolation([0.4, 0.35, 0.25], [0.9, 0.8, 0.85])
    cas = sample_cascade(m, depth=7, seed=21)
    for lvl in range(8):
        codes, masses = cas.node_table(lvl)
        assert abs(cas.Y[lvl] - masses.sum()) < 1e-12
        assert np.all(masses > 0)
    # children of a node descend from it: parent codes of level 4 nodes
    # all appear at level 3
    kid_codes, _ = cas.node_table(4)
    codes3, _ = cas.node_table(3)
    parent = (kid_codes - np.uint64(1)) // np.uint64(3)
    assert set(parent.tolist()) <= set(codes3.tolist())


def test_cascade_mean_mass_near_one(mcmullen):
    m = WeightModel.percolation([0.4, 0.35, 0.25], [0.9, 0.8, 0.85])
    ys = np.array([sample_cascade(m, depth=8, seed=s).Y[-1]
                   for s in range(400)])
    se = ys.std(ddof=1) / math.sqrt(len(ys))
    assert abs(ys.mean() - 1.0) <= 3.0 * se


def test_cascade_schedule_uses_row_models(mcmullen):
    seq = WeightSequence.from_blocks([2, 3], [[0.6, 0.25, 0.15],
                                              [0.2, 0.4, 0.4]],
                                     alpha=None)
    cas = sample_cascade(seq, depth=5, seed=0)
    # deterministic rows: level-5 masses are products of row entries
    codes, masses = cas.node_table(5)
    assert abs(masses.sum() - 1.0) < 1e-12
    words = codes_to_words(codes, 5, 3)
    rows = seq.p_rows()
    expect = np.prod(rows[np.arange(5)[None, :], words], axis=1)
    assert np.allclose(masses, expect, rtol=1e-12)


# === box counting ===

def test_deterministic_box_counts_exact(sierpinski):
    tree = sample_tree(sierpinski, np.ones(8), depth=5, seed=0)
    N_list = [math.log(3.0 ** j) for j in (1, 2, 3, 4, 5)]
    rep = box_count_fit(tree, sierpinski, N_list)
    assert [int(c) for c in rep.counts] == [8 ** j for j in (1, 2, 3, 4, 5)]
    assert abs(rep.slope - math.log(8) / math.log(3)) < 0.03


def test_box_count_unaligned_scales(sierpinski):
    tree = sample_tree(sierpinski, np.ones(8), depth=4, seed=0)
    counts = box_count(tree, sierpinski, [math.log(5.0), math.log(11.0)])
    assert counts[0] >= 1 and counts[1] > counts[0]


def test_percolation_box_count_monotone(mcmullen):
    alpha = np.array([0.8, 0.8, 0.85])
    tree, _ = sample_tree_conditioned(mcmullen, alpha, depth=9, seed=4)
    N_list = [math.log(2.0 ** j) for j in (2, 3, 4, 5)]
    counts = box_count(tree, mcmullen, N_list)
    assert all(a <= b for a, b in zip(counts, counts[1:]))


# === localized frequencies and local dimension ===

def test_localized_frequencies_sum_to_one():
    word = np.array([0, 1, 2, 0, 0, 1, 2, 2, 1, 0, 1, 1])
    lf = localized_frequencies(word, [4, 8], n_letters=3)
    freqs = lf.frequencies
    assert np.allclose(freqs.sum(axis=1), 1.0)
    assert np.allclose(freqs[0], [0.5, 0.25, 0.25])


def test_localized_frequencies_reject_short_word():
    with pytest.raises(ValueError):
        localized_frequencies(np.array([0, 1]), [4])


def test_local_dimension_conformal(sierpinski):
    m = WeightModel.percolation(np.full(8, 1 / 8), np.full(8, 0.9))
    from spongedim.engine import dim_mandelbrot
    target = dim_mandelbrot(sierpinski, m).value
    rep = empirical_local_dimension(sierpinski, m, depth=25, n_points=64,
                                    seed=2)
    assert abs(rep.median_slope - target) < 0.1
