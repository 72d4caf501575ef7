"""Geometry layer: validation, direction sets, classification, coding.

The direction-set solver is checked against a brute-force grid scan over
the probability simplex, and the projection coding against direct mass
accounting.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedim import DiagonalIFS, DiagonalMap
from spongedim.ifs import (ProjectionCoding, ProjectionOverlapError,
                           build_projection_coding, classify,
                           compare_projections, feasible_direction_sets,
                           validate_ifs)

import geometry_oracle
from conftest import carpet


# === validation ===

def test_validate_accepts_carpet(mcmullen):
    rep = validate_ifs(mcmullen)
    assert rep.ok
    assert rep.violations == []


def test_validate_rejects_overlap():
    bad = DiagonalIFS([DiagonalMap([0.6, 0.5], [0.0, 0.0]),
                       DiagonalMap([0.6, 0.5], [0.2, 0.0])])
    rep = validate_ifs(bad)
    assert not rep.ok
    assert rep.violations


def test_escape_rejected_at_construction():
    # a cell leaving the unit cube never produces a valid system
    with pytest.raises(ValueError):
        DiagonalIFS([DiagonalMap([0.3, 0.3], [0.0, 0.0]),
                     DiagonalMap([0.5, 0.5], [0.7, 0.0])])


def test_degenerate_ratio_rejected():
    with pytest.raises(ValueError):
        DiagonalMap([0.0, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        DiagonalMap([1.0, 0.5], [0.0, 0.0])


# === direction sets ===

def brute_force_direction_sets(ifs, res=100):
    """Grid scan of the simplex: collect {k : chi_k(p) <= x} over all p, x."""
    found = set()
    n, d = ifs.n, ifs.d
    grid = [w for w in itertools.product(range(res + 1), repeat=n)
            if sum(w) == res]
    for w in grid:
        p = np.array(w, dtype=float) / res
        chi = -(p @ np.log(ifs.A))
        order = np.sort(chi)
        for x in order:
            found.add(frozenset(np.flatnonzero(chi <= x + 1e-12)))
    found.discard(frozenset())
    return found


@pytest.mark.parametrize("maps", [
    [([1 / 2, 1 / 4], [0, 0]), ([1 / 4, 1 / 2], [1 / 2, 1 / 2])],
    [([1 / 3, 1 / 2], [0, 0]), ([1 / 3, 1 / 2], [2 / 3, 0]),
     ([1 / 3, 1 / 2], [1 / 3, 1 / 2])],
    [([1 / 2, 1 / 5], [0, 0]), ([1 / 3, 1 / 2], [1 / 2, 1 / 2])],
])
def test_direction_sets_match_grid_scan_d2(maps):
    ifs = DiagonalIFS([DiagonalMap(a, t) for a, t in maps])
    lp = {fs.axes for fs in feasible_direction_sets(ifs)}
    assert lp == brute_force_direction_sets(ifs)


def test_direction_sets_match_grid_scan_d3(sponge3d):
    lp = {fs.axes for fs in feasible_direction_sets(sponge3d)}
    assert lp == brute_force_direction_sets(sponge3d, res=60)


def test_direction_sets_order_flip():
    # two maps whose exponent order flips with p: all three sets feasible
    ifs = DiagonalIFS([DiagonalMap([1 / 2, 1 / 4], [0, 0]),
                       DiagonalMap([1 / 4, 1 / 2], [1 / 2, 1 / 2])])
    got = {tuple(sorted(fs.axes)) for fs in feasible_direction_sets(ifs)}
    assert got == {(0,), (1,), (0, 1)}


def test_direction_sets_contain_full_set(mcmullen, sierpinski, sponge3d):
    for ifs in (mcmullen, sierpinski, sponge3d):
        sets = feasible_direction_sets(ifs)
        assert frozenset(range(ifs.d)) in {fs.axes for fs in sets}


# === projection comparison ===

def test_compare_projections_symmetric_reflexive(mcmullen, sponge3d):
    for ifs in (mcmullen, sponge3d):
        for fs in feasible_direction_sets(ifs):
            for i in range(ifs.n):
                assert compare_projections(ifs, i, i, fs.axes) == "exact"
                for j in range(ifs.n):
                    assert (compare_projections(ifs, i, j, fs.axes)
                            == compare_projections(ifs, j, i, fs.axes))


# === one pair relation against the per-pair oracle ===

@st.composite
def grid_systems(draw):
    """2 to 6 maps in dimension 1 to 3 with ratios and translations on one
    q-adic grid, so that coinciding, touching and overlapping projections
    all occur.  A ratio or translation may sit 6e-13 or 1.2e-12 off the
    grid, within RECT_TOL of one of its neighbours but not of the other."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    q = draw(st.sampled_from([2, 3, 4, 6]))
    jitter = st.sampled_from([0.0, 0.0, 0.0, 6e-13, 1.2e-12])
    maps = []
    for _ in range(n):
        m = [draw(st.integers(1, q - 1)) for _ in range(d)]
        a = [mk / q + draw(jitter) for mk in m]
        t = [min(draw(st.integers(0, q - mk)) / q + draw(jitter), 1.0 - ak)
             for mk, ak in zip(m, a)]
        maps.append(DiagonalMap(a, t))
    return DiagonalIFS(maps)


@given(grid_systems())
@settings(max_examples=200, deadline=None)
def test_pair_relation_matches_the_per_pair_oracle(ifs):
    overlaps = [v for v in validate_ifs(ifs).violations if v.startswith("open")]
    assert overlaps == geometry_oracle.overlap_violations(ifs)
    c, ref = classify(ifs), geometry_oracle.classify(ifs)
    assert c == ref
    assert c.failures == ref.failures
    for r in range(1, ifs.d + 1):
        for axes in itertools.combinations(range(ifs.d), r):
            for i, j in itertools.product(range(ifs.n), repeat=2):
                assert (compare_projections(ifs, i, j, axes)
                        == geometry_oracle.compare_projections(ifs, i, j, axes))
            try:
                idx, reps, fibers = geometry_oracle.coding_level(ifs, axes)
            except ProjectionOverlapError as want:
                with pytest.raises(ProjectionOverlapError) as got:
                    ProjectionCoding(ifs, [axes])
                assert (got.value.pair, got.value.axes) == (want.pair, want.axes)
                continue
            coding = ProjectionCoding(ifs, [axes])
            np.testing.assert_array_equal(coding.class_index[0], idx)
            np.testing.assert_array_equal(coding.reps[0], reps)
            assert len(coding.fibers[0]) == len(fibers)
            for f, g in zip(coding.fibers[0], fibers):
                np.testing.assert_array_equal(f, g)


def test_coding_classes_are_the_components_of_the_exact_relation():
    # ratios of 1e-12 on the first axis: map 1 coincides there with maps 0
    # and 2, which are disjoint, so the exact relation is not transitive;
    # the class is its connected component, named by letter 0
    ifs = DiagonalIFS([DiagonalMap([1e-12, 0.25], [0.0, 0.0]),
                       DiagonalMap([1e-12, 0.25], [6e-13, 0.25]),
                       DiagonalMap([1e-12, 0.25], [1.2e-12, 0.5])])
    verdicts = [compare_projections(ifs, i, j, [0]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert verdicts == ["exact", "exact", "disjoint"]
    coding = ProjectionCoding(ifs, [[0, 1], [0]])
    assert coding.class_index[1].tolist() == [0, 0, 0]
    assert coding.reps[1].tolist() == [0]
    assert geometry_oracle.coding_level(ifs, [0])[0].tolist() == [0, 0, 0]


# === classification ===

def test_classify_sierpinski(sierpinski, mcmullen, gl4x2):
    # any selection of cells from one uniform grid lands in the most
    # specific class, whether or not the grid is square
    c = classify(sierpinski)
    assert c.label == "sierpinski"
    assert c.conformal
    assert c.grid == (3, 3)
    c = classify(mcmullen)
    assert c.label == "sierpinski"
    assert not c.conformal
    assert c.grid == (3, 2)
    assert classify(gl4x2).grid == (4, 2)


def test_classify_gatzouras_lalley():
    # unequal column widths break the uniform grid but keep the ordered
    # column structure
    ifs = DiagonalIFS([DiagonalMap([0.3, 0.5], [0.0, 0.0]),
                       DiagonalMap([0.45, 0.5], [0.3, 0.0]),
                       DiagonalMap([0.3, 0.5], [0.2, 0.5])])
    c = classify(ifs)
    assert c.label == "gatzouras-lalley"
    assert not c.sierpinski
    assert c.gl_order is not None


def test_classify_baranski():
    # disjoint on each single axis, but the ratio order flips between
    # the maps so no common ordering exists
    ifs = DiagonalIFS([DiagonalMap([1 / 2, 1 / 4], [0, 0]),
                       DiagonalMap([1 / 4, 1 / 2], [1 / 2, 1 / 2])])
    c = classify(ifs)
    assert c.label == "baranski"
    assert not c.gatzouras_lalley


def test_classify_not_good():
    # overlapping side projections that are neither exact nor disjoint
    ifs = DiagonalIFS([DiagonalMap([0.4, 0.3], [0.0, 0.0]),
                       DiagonalMap([0.4, 0.3], [0.3, 0.7])])
    c = classify(ifs)
    assert c.label == "not-good"
    assert c.failures


def test_classify_failures_name_axes_as_ints():
    ifs = DiagonalIFS([DiagonalMap([1 / 4, 1 / 2], [0, 0]),
                       DiagonalMap([1 / 4, 1 / 2], [1 / 8, 1 / 2]),
                       DiagonalMap([1 / 4, 1 / 3], [3 / 4, 0])])
    assert classify(ifs).failures == ["good: pair (0, 2) on axes (1,)",
                                      "gl: pair (0, 2) on axes (1,)",
                                      "baranski: pair (0, 1) on axis 0"]


def test_classify_good_sponge_flags(sponge3d):
    c = classify(sponge3d)
    assert c.good_sponge
    assert c.label != "not-good"


# === projection coding ===

def test_coding_classes_partition_letters(mcmullen, sponge3d):
    for ifs, p in ((mcmullen, [0.4, 0.35, 0.25]),
                   (sponge3d, [0.3, 0.3, 0.2, 0.2])):
        from spongedim.engine import stable_chain
        groups, chain, chi, refN = stable_chain(ifs, np.asarray(p))
        coding = build_projection_coding(ifs, chain)
        for r in range(1, coding.levels + 1):
            reps = coding.reps[r - 1]
            seen = sorted(x for f in coding.fibers[r - 1] for x in f)
            assert seen == list(range(ifs.n))
            assert len(reps) == coding.n_classes(r)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_coding_projection_conserves_mass(seed):
    ifs = carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(3))
    from spongedim.engine import stable_chain
    groups, chain, chi, refN = stable_chain(ifs, p)
    coding = build_projection_coding(ifs, chain)
    for r in range(1, coding.levels + 1):
        q = coding.project_vector(p, r)
        assert q.min() >= 0
        assert abs(q.sum() - 1.0) < 1e-12


def test_projection_coding_is_shared_across_axis_orders(sponge3d):
    a = build_projection_coding(sponge3d, [frozenset({0, 1, 2}), frozenset({1, 2}),
                                           frozenset({2})])
    b = build_projection_coding(sponge3d, [[2, 1, 0], [2, 1], [2]])
    assert a is b
    assert build_projection_coding(sponge3d, [[0, 1, 2], [2]]) is not a


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_project_rows_matches_scatter(seed):
    rng = np.random.default_rng(seed)
    ifs = DiagonalIFS([
        DiagonalMap([1 / 4, 1 / 3, 1 / 2], [0, 0, 0]),
        DiagonalMap([1 / 4, 1 / 3, 1 / 2], [1 / 4, 1 / 3, 0]),
        DiagonalMap([1 / 4, 1 / 3, 1 / 2], [1 / 2, 0, 1 / 2]),
        DiagonalMap([1 / 4, 1 / 3, 1 / 2], [3 / 4, 0, 1 / 2]),
    ])
    coding = build_projection_coding(ifs, [{0, 1, 2}, {1, 2}, {2}])
    rows = rng.exponential(size=(int(rng.integers(1, 40)), ifs.n))
    for r in range(1, coding.levels + 1):
        want = np.zeros((rows.shape[0], coding.n_classes(r)))
        np.add.at(want, (slice(None), coding.class_index[r - 1]), rows)
        assert np.allclose(coding.project_rows(rows, r), want, rtol=1e-15, atol=0)


# exponent ties: on this Barański carpet chi_1(p) = chi_2(p) exactly for
# p = (a, 1 - 2a, a), since the two axes sum the same products
TIE_CARPET = DiagonalIFS([
    DiagonalMap([1 / 2, 1 / 3], [0.0, 0.0]),
    DiagonalMap([1 / 6, 1 / 6], [1 / 2, 1 / 3]),
    DiagonalMap([1 / 3, 1 / 2], [2 / 3, 1 / 2]),
])


@given(st.floats(1e-6, 0.5 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_exact_exponent_ties_give_one_clock_group(a):
    from spongedim.engine import stable_chain
    p = np.array([a, 1 - 2 * a, a])
    chi = TIE_CARPET.lyapunov(p)
    assert chi[0] == chi[1]
    assert np.allclose(chi, p @ TIE_CARPET.C, rtol=1e-15, atol=0)
    groups, chain, chi_tilde, coding = stable_chain(TIE_CARPET, p)
    assert groups == [[0, 1]] and coding.levels == 1
