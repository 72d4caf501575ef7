"""Simulation layer: branching survival, percolation trees, cascades,
box counts and the empirical local dimension.

The extinction probability is pinned against an independent root finder,
tree sampling against determinism and prefix-stability properties, the
cascade against its exact mass recursion, tree rectangles against the
digit-word composition, and box counts against a set of enumerated boxes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import dense_oracle
import local_dim_oracle
from spongedim import io
from spongedim.simulate import (BLOCK_ROWS, PercolationTree, ResourceCapError,
                                _raster_count,
                                box_count, box_count_fit, codes_to_words,
                                empirical_local_dimension, gw_extinction,
                                gw_survival_frequency,
                                localized_frequencies, sample_cascade,
                                sample_tree, sample_tree_conditioned,
                                simulate_level_counts, tree_rects)
from spongedim.weights import WeightModel, WeightSequence

from conftest import carpet

SYSTEMS = {
    "3x2": carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)]),
    "3x3": carpet((1 / 3, 1 / 3), [(i / 3, j / 3) for j in range(3)
                                   for i in range(3) if (i, j) != (1, 1)]),
    "4x2": carpet((1 / 4, 1 / 2), [(0, 0), (1 / 4, 0), (1 / 2, 1 / 2),
                                   (3 / 4, 1 / 2)]),
    "4x3x2": carpet((1 / 4, 1 / 3, 1 / 2), [(0, 0, 0), (1 / 4, 1 / 3, 0),
                                            (1 / 2, 2 / 3, 1 / 2),
                                            (3 / 4, 0, 1 / 2)]),
}


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


@given(st.sampled_from(sorted(SYSTEMS)), st.floats(0.55, 1.0),
       st.integers(0, 7), st.integers(0, 2 ** 31), st.data())
@settings(max_examples=60, deadline=None)
def test_tree_rects_gather_matches_word_oracle(name, alpha, depth, seed, data):
    ifs = SYSTEMS[name]
    tree = sample_tree(ifs, np.full(ifs.n, alpha), depth=depth, seed=seed)
    level = data.draw(st.integers(0, depth))
    lo, size = tree_rects(tree, ifs, level)
    want_lo, want_size = dense_oracle.tree_rects(tree, ifs, level)
    assert lo.shape == want_lo.shape == (tree.counts[level], ifs.d)
    # bitwise: the same float operations in the same order
    assert np.array_equal(lo, want_lo) and np.array_equal(size, want_size)


@pytest.mark.parametrize("name, alpha, depth", [("3x2", 1.0, 11),
                                                 ("4x3x2", 0.9, 9)])
def test_tree_rects_matches_word_oracle_past_one_block(name, alpha, depth):
    # levels of several blocks: parents straddle block edges, and in the
    # percolated tree some parents have no child at all
    ifs = SYSTEMS[name]
    tree = sample_tree(ifs, np.full(ifs.n, alpha), depth=depth, seed=5)
    assert tree.counts[depth] > 2 * BLOCK_ROWS
    lo, size = tree_rects(tree, ifs, depth)
    want_lo, want_size = dense_oracle.tree_rects(tree, ifs, depth)
    assert np.array_equal(lo, want_lo) and np.array_equal(size, want_size)


def test_resource_cap_raises(mcmullen):
    with pytest.raises(ResourceCapError):
        sample_tree(mcmullen, np.ones(3), depth=30, seed=0, guard=10 ** 5)


def test_sample_tree_takes_a_survival_vector_only():
    with pytest.raises(ValueError):
        sample_tree(3, np.full((4, 3), 0.9), depth=4)
    with pytest.raises(ValueError):
        sample_tree(3, [0.9, math.nan, 0.9], depth=4)


def test_heap_code_depth_boundary():
    # keeping (almost surely) only the last letter walks the largest code
    # of every level; at arity 3 it is (5 * 3**n - 3) / 2, below 2**63 up
    # to n = 38.  A draw is below 2**-60 only when it is 0.
    last = np.array([0.0, 0.0, 1.0])
    keep_last = np.array([2.0 ** -60, 2.0 ** -60, 1.0])
    tree = sample_tree(3, keep_last, depth=38, seed=0)
    assert np.array_equal(tree.counts, np.ones(39))
    top = int(tree.levels[-1][0])
    assert top == (5 * 3 ** 38 - 3) // 2 < 2 ** 63
    back = io.tree_from_dict(io.tree_to_dict(tree, {}))
    assert int(back.levels[-1][0]) == top
    cascade = sample_cascade(WeightModel.deterministic(last), depth=38)
    assert int(cascade.levels[-1][0]) == top
    with pytest.raises(ResourceCapError):
        sample_tree(3, keep_last, depth=39, seed=0)
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


def test_box_counts_come_from_the_deepest_cells(sierpinski):
    # at e^N = 3^j the level-j size of a percolated tree also counts cells
    # whose lineages die before its depth; the boxes that the depth-7
    # cells meet are their distinct level-j ancestors
    tree = sample_tree(sierpinski, np.full(8, 0.6), depth=7, seed=0)
    lo, size = tree_rects(tree, sierpinski, 7)
    counts = box_count(tree, sierpinski, [j * math.log(3.0) for j in (5, 6)])
    assert counts.tolist() == [4225, 20162]
    for j, count in zip((5, 6), counts):
        ancestors = tree.levels[7]
        for _ in range(7 - j):
            ancestors = (ancestors - np.uint64(1)) // np.uint64(8)
        assert count == np.unique(ancestors).size < tree.counts[j]
        assert count == _raster_count(lo, size, 3 ** j, 10 ** 8)


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


def _boxes_met(lo, size, k):
    """The set of grid boxes of side 1/k that the half-open rectangles meet,
    one rectangle and one box at a time."""
    eps = 1e-12
    boxes = set()
    for corner, side in zip(lo.tolist(), size.tolist()):
        ranges = []
        for x, w in zip(corner, side):
            first = math.floor(x * k + eps)
            stop = max(math.ceil((x + w) * k - eps), first + 1)
            ranges.append(range(first, stop))
        boxes.update(itertools.product(*ranges))
    return boxes


def _rectangles(d):
    corner = st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)
    side = st.lists(st.floats(0.0, 0.4), min_size=d, max_size=d)
    return st.lists(st.tuples(corner, side), min_size=1, max_size=12)


@given(st.integers(2, 3).flatmap(_rectangles), st.floats(1.5, 40.0))
@settings(max_examples=150, deadline=None)
def test_raster_count_matches_enumerated_boxes(rects, k):
    if k == round(k):
        k += 0.37
    lo = np.array([c for c, _ in rects])
    size = np.array([w for _, w in rects])
    assert _raster_count(lo, size, k, 10 ** 8) == len(_boxes_met(lo, size, k))


@given(st.integers(2, 3).flatmap(_rectangles), st.floats(1.5, 40.0))
@settings(max_examples=60, deadline=None)
def test_raster_guard_counts_every_rectangle(rects, k):
    # the guard bounds the boxes of all rectangles, duplicates included,
    # exactly as the int64 span products sum them
    lo = np.array([c for c, _ in rects])
    size = np.array([w for _, w in rects])
    eps = 1e-12
    i_lo = np.floor(lo * k + eps).astype(np.int64)
    i_hi = np.maximum(np.ceil((lo + size) * k - eps).astype(np.int64) - 1, i_lo)
    total = int((i_hi - i_lo + 1).prod(axis=1).sum())
    assert _raster_count(lo, size, k, total) >= 1
    with pytest.raises(ResourceCapError):
        _raster_count(lo, size, k, total - 1)


@given(st.integers(2, 3), st.floats(2.0 ** 19, 2.0 ** 20), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_raster_count_on_wide_grids(d, k, seed):
    # at d = 3 the range keys pass 2**53, so ranges are not merged; the
    # box keys still fit in int64
    rng = np.random.default_rng(seed)
    lo = rng.random((20, d))
    lo[10:] = lo[:10]
    size = rng.uniform(0.0, 3.0 / k, (20, d))
    assert _raster_count(lo, size, k, 10 ** 8) == len(_boxes_met(lo, size, k))


@pytest.mark.parametrize("d, k", [(2, 23.7), (3, 2.0 ** 19.5)])
def test_raster_count_across_blocks_matches_enumerated_boxes(d, k):
    # more rectangles than two blocks, in either memory order, in random
    # order and sorted so that each block spans its own ranges; at d = 3
    # the range keys pass 2**53 and rows are kept unmerged
    rng = np.random.default_rng(11)
    m = 2 * BLOCK_ROWS + 17
    lo = rng.random((m, d))
    size = rng.uniform(0.0, 3.0 / k, (m, d))
    want = len(_boxes_met(lo, size, k))
    for order in (np.arange(m), np.argsort(-lo[:, -1])):
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert _raster_count(layout(lo[order]), layout(size[order]),
                                 k, 10 ** 8) == want


def test_raster_count_refusals_from_the_last_block():
    m = 2 * BLOCK_ROWS + 17
    lo, size = np.zeros((m, 2)), np.zeros((m, 2))
    # one box per rectangle but the last, which meets 4 x 4
    size[-1] = 0.5
    assert _raster_count(lo, size, 8.0, m + 15) == 16
    with pytest.raises(ResourceCapError, match="exceeds guard"):
        _raster_count(lo, size, 8.0, m + 14)
    # indices past 2**62 in the last rectangle only, refused before the
    # guard is compared
    lo[-1], size[-1] = 0.5, 0.0
    with pytest.raises(ResourceCapError, match="int64"):
        _raster_count(lo, size, math.exp(50.0), 0)


def test_raster_count_combines_index_and_span_across_blocks():
    # at k = 2**62 a first index of 3 * 2**60 (first block) and a span of
    # 2**61 (last block) each fit in int64, but not their sum
    k = 2.0 ** 62
    m = 2 * BLOCK_ROWS + 17
    lo, size = np.zeros((m, 2)), np.zeros((m, 2))
    lo[0, 0] = 0.75
    assert _raster_count(lo, size, k, 10 ** 8) == 2
    size[-1, 0] = 0.5
    with pytest.raises(ResourceCapError, match="int64"):
        _raster_count(lo, size, k, 10 ** 8)
    lo[0, 0] = 0.0
    with pytest.raises(ResourceCapError, match="exceeds guard"):
        _raster_count(lo, size, k, 10 ** 8)


def test_raster_count_box_keys_do_not_collide():
    # at k = 2**50, keys x * (k + 2) + y of these two boxes agree mod 2**64
    k = 2.0 ** 50
    lo = np.array([[1000.25, 40000.25], [17384.25, 7232.25]]) / k
    size = np.full((2, 2), 0.5 / k)
    assert _raster_count(lo, size, k, 10 ** 8) == 2


def test_raster_count_refuses_what_int64_cannot_hold():
    # box indices past 2**62
    with pytest.raises(ResourceCapError):
        _raster_count(np.array([[0.5, 0.5]]), np.array([[1e-30, 1e-30]]),
                      math.exp(50.0), 10 ** 8)
    # indices that fit, spread too wide for a mixed-radix box key
    k = 2.0 ** 40
    lo = np.array([[0.0, 0.0, 0.0], [0.75, 0.75, 0.75]])
    size = np.full((2, 3), 0.5 / k)
    with pytest.raises(ResourceCapError):
        _raster_count(lo, size, k, 10 ** 8)
    # a box total past int64 is compared with the guard, not wrapped
    with pytest.raises(ResourceCapError):
        _raster_count(np.zeros((27, 2)), np.full((27, 2), 0.5),
                      math.exp(40.0), 10 ** 8)


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


def random_law(kind: str, n: int, rng) -> WeightModel:
    """A law on n letters with mean entries in [0.1, 1] before
    normalizing: deterministic, percolation with alpha in [0.3, 1], or two
    atoms (the first with some letters dead) scaled to mean mass one."""
    p = rng.uniform(0.1, 1.0, n)
    p /= p.sum()
    if kind == "deterministic":
        return WeightModel.deterministic(p)
    if kind == "percolation":
        return WeightModel.percolation(p, rng.uniform(0.3, 1.0, n))
    c = (rng.random(n) < 0.7).astype(float)
    c[0] = 1.0
    w1, w2 = c * rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
    q = rng.uniform(0.2, 0.8)
    mass = q * w1.sum() + (1.0 - q) * w2.sum()
    return WeightModel.atoms([(q, c, w1 / mass), (1.0 - q, np.ones(n), w2 / mass)])


# the spine loop draws what the per-law paths drew, in the same order, so a
# seed gives the same points; the closed-form fit matches the exact slope
@given(st.sampled_from(["3x2", "4x2", "4x3x2"]),
       st.sampled_from(["deterministic", "percolation", "atoms"]),
       st.integers(3, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_local_dimension_matches_the_per_law_oracle(system, kind, depth, seed):
    ifs = SYSTEMS[system]
    model = random_law(kind, ifs.n, np.random.default_rng(seed))
    rep = empirical_local_dimension(ifs, model, depth, 40, seed=seed)
    ref = local_dim_oracle.empirical_local_dimension(ifs, model, depth, 40, seed=seed)
    np.testing.assert_array_equal(rep.N, ref.N)
    np.testing.assert_allclose(rep.slopes, ref.slopes, rtol=1e-12, atol=0.0)
    assert abs(rep.median_slope - ref.median_slope) <= 1e-12 * abs(ref.median_slope)
