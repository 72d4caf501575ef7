"""Scale decomposition: generation clocks and axis grouping.

The clock gamma_k(N) is pinned by its defining two-sided inequality and
the decomposition is checked for structural invariants on random
schedules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedim import DiagonalIFS, DiagonalMap
from spongedim.ifs import feasible_direction_sets
from spongedim.scales import PrefixTable, clock_chain, decompose
from spongedim.weights import WeightSequence

from conftest import carpet


def random_instance(seed, horizon=400):
    rng = np.random.default_rng(seed)
    ifs = carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])
    P = rng.dirichlet(np.full(3, rng.uniform(0.5, 3.0)), size=horizon)
    alpha = rng.uniform(0.6, 1.0, size=3)
    return ifs, WeightSequence(P=P, alpha=alpha), rng


# === the clock ===

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_gamma_two_sided_inequality(seed):
    ifs, seq, rng = random_instance(seed)
    table = PrefixTable(ifs, seq)
    chi = seq.p_rows() @ ifs.C
    for _ in range(4):
        N = float(rng.uniform(5.0, 120.0))
        for k, g in enumerate(table.clocks([N])[0].astype(int)):
            pre = float(np.sum(chi[: g - 1, k]))
            assert pre <= N < pre + chi[g - 1, k]


def test_gamma_monotone_in_N():
    ifs, seq, _ = random_instance(11)
    table = PrefixTable(ifs, seq)
    G = table.clocks(np.linspace(2.0, 150.0, 60))
    for k in range(ifs.d):
        gs = list(G[:, k])
        assert all(a <= b for a, b in zip(gs, gs[1:]))


# === the clock chain ===

@st.composite
def planted_clocks(draw):
    """Clocks with planted exact ties and near-ties just inside and just
    outside rtol of a group's first clock, in a shuffled axis order.
    Returns (rtol, clocks, number of groups planted)."""
    rtol = draw(st.sampled_from([0.0, 1e-9]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    anchors = draw(st.lists(st.integers(1, 50), min_size=1, max_size=4,
                            unique=True))
    scale = draw(st.sampled_from([1.0, 0.37, 1234.5]))
    clocks, planted = [], 0
    for a in anchors:
        c = sign * a * scale
        kinds = draw(st.lists(st.sampled_from(["tie", "inside", "outside"]),
                              max_size=3, unique=True))
        clocks.append(c)
        if "tie" in kinds:
            clocks.append(c)
        # above c, so that c stays the group's first clock
        if "inside" in kinds:
            clocks.append(c + 0.9 * rtol * abs(c))
        if "outside" in kinds:
            clocks.append(c + 1.6 * rtol * abs(c) if rtol
                          else float(np.nextafter(c, np.inf)))
        planted += 1 + ("outside" in kinds)
    perm = draw(st.permutations(range(len(clocks))))
    return rtol, [clocks[i] for i in perm], planted


@given(planted_clocks())
@settings(max_examples=200, deadline=None)
def test_clock_chain_groups_and_chain(case):
    rtol, clocks, planted = case
    groups, chain = clock_chain(clocks, rtol=rtol)
    d = len(clocks)
    # the groups partition the axes; every axis of a group sits within
    # rtol of the group's first (smallest) clock, and the next group's
    # first clock lies outside that window
    assert sorted(k for g in groups for k in g) == list(range(d))
    assert len(groups) == planted
    firsts = []
    for g in groups:
        first = min(clocks[k] for k in g)
        assert clocks[g[0]] == first
        assert all(abs(clocks[k] - first) <= rtol * abs(first) for k in g)
        firsts.append(first)
    for a, b in zip(firsts, firsts[1:]):
        assert b - a > rtol * abs(a)
    # groups increase: every clock of group r is below every clock of r+1
    for g, h in zip(groups, groups[1:]):
        assert max(clocks[k] for k in g) < min(clocks[k] for k in h)
    # D_1 is every axis, the chain strictly decreases, D_r = A_r u ... u A_s
    assert chain[0] == frozenset(range(d))
    for hi, lo in zip(chain, chain[1:]):
        assert lo < hi
    for r in range(len(groups)):
        assert chain[r] == frozenset(k for g in groups[r:] for k in g)


# === the decomposition ===

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_decomposition_structure(seed):
    ifs, seq, rng = random_instance(seed)
    N = float(rng.uniform(10.0, 120.0))
    dec = decompose(ifs, seq, N)
    info = dec.as_dict()
    # axis groups partition {1..d}, first group holds the slowest axes
    seen = sorted(a for grp in info["A"] for a in grp)
    assert seen == list(range(1, ifs.d + 1))
    # generation cuts are nondecreasing and the last one closes the scale
    assert all(a <= b for a, b in zip(info["g"], info["g"][1:]))
    assert info["s"] == len(info["A"]) == len(info["g"])
    assert info["N"] == N


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_decomposition_chain_sets_feasible(seed):
    # the nested direction sets D_1 superset ... superset D_s are all
    # feasible, and D_1 is the full axis set
    ifs, seq, rng = random_instance(seed)
    N = float(rng.uniform(10.0, 120.0))
    dec = decompose(ifs, seq, N)
    feas = {fs.axes for fs in feasible_direction_sets(ifs)}
    assert dec.chain[0] == frozenset(range(ifs.d))
    for hi, lo in zip(dec.chain, dec.chain[1:]):
        assert lo < hi
    for D in dec.chain:
        assert frozenset(D) in feas


def test_conformal_collapses_to_one_group():
    cells = [(i / 3, j / 3) for j in range(3) for i in range(3)
             if not (i == 1 and j == 1)]
    ifs = carpet((1 / 3, 1 / 3), cells)
    seq = WeightSequence(P=np.full((300, 8), 1 / 8), alpha=np.full(8, 0.9))
    dec = decompose(ifs, seq, 40.0)
    info = dec.as_dict()
    assert info["s"] == 1
    assert info["A"] == [[1, 2]]
