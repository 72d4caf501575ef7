"""Exponentially periodic schedules against the sampled evaluation they
replaced (tests/periodic_oracle.py).

The engine's profile minimum is exact on the quadrature breakpoints: on
the oracle's T grid it equals, to 1e-12, the oracle's minimum sampled at
every breakpoint, and never lies above the one sampled at 4096 inner
points.  Its tail minimum also counts the empty tail at g_s, and its
dimensions refine the grid's extremes.  The tables keep one period, so
the memory does not grow as lam approaches 1.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongedim import DiagonalIFS, DiagonalMap, scales
from spongedim.engine import PeriodicSpec, _PeriodTables, dim_exp_periodic
from spongedim.weights import DegenerateError

import periodic_oracle

# the built-in gap-demo model: a 3x2 carpet under a four-knot log-periodic law
GAP_LAM = 4.0
GAP_P_A, GAP_P_B = [0.45, 0.45, 0.10], [0.25, 0.25, 0.50]


def gap_demo_model():
    ifs = DiagonalIFS([DiagonalMap([1 / 3, 1 / 2], t)
                       for t in ([0.0, 0.0], [2 / 3, 0.0], [1 / 3, 1 / 2])])
    pspec = PeriodicSpec(GAP_LAM, [1.0, GAP_LAM ** 0.4, GAP_LAM ** 0.6, GAP_LAM ** 0.9],
                         [GAP_P_A, GAP_P_B, GAP_P_B, GAP_P_A], alpha=[0.85] * 3)
    return ifs, pspec


def baranski():
    """Unequal linear parts: the order of the two clocks moves with p."""
    return DiagonalIFS([DiagonalMap([1 / 2, 1 / 3], [0, 0]),
                        DiagonalMap([1 / 3, 1 / 2], [2 / 3, 1 / 2])])


def _empty_tail(ifs, pspec, T):
    """G_H(g_s(T)) / T through the oracle's clock inversion."""
    tab = periodic_oracle.PeriodTables(pspec, ifs, 512)
    gs = [max(tab.invert(tab.G_chi[:, k], t) for k in range(ifs.d)) for t in T]
    return tab.eval_scaled(tab.G_H, np.array(gs)) / T


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["mcmullen", "baranski", "sponge3d"]),
       st.booleans())
@settings(max_examples=15, deadline=None)
def test_periodic_engine_matches_sampled_oracle(mcmullen, sponge3d, seed, kind, percolated):
    rng = np.random.default_rng(seed)
    ifs = {"mcmullen": mcmullen, "baranski": baranski(), "sponge3d": sponge3d}[kind]
    lam = float(rng.uniform(1.5, 8.0))
    knots = int(rng.integers(1, 5))
    t = np.exp(np.sort(rng.uniform(0.0, math.log(lam), knots - 1)))
    P = rng.dirichlet(np.full(ifs.n, 1.5), size=knots)
    alpha = rng.uniform(0.6, 1.0, ifs.n) if percolated else None
    pspec = PeriodicSpec(lam, np.concatenate([[1.0], t]), P, alpha=alpha)
    try:
        res = dim_exp_periodic(ifs, pspec)
    except DegenerateError:
        assume(False)
    T, d1, d2 = periodic_oracle.deltas(ifs, pspec, T_grid=res.T, inner_points=4096)
    assert np.all(res.delta2 <= d2 + 1e-12)
    # sampled at every breakpoint too, the oracle's minimum is the exact one
    _, _, exact = periodic_oracle.deltas(ifs, pspec, T_grid=res.T, breakpoints=True)
    assert np.abs(res.delta2 - exact).max() <= 1e-12
    assert np.all(res.delta1 <= d1 + 1e-12)
    assert np.all(res.delta1 <= _empty_tail(ifs, pspec, T) + 1e-12)
    v = np.minimum(res.delta1, res.delta2)
    assert res.dim_H <= v.min()
    assert res.dim_P >= v.max()


def test_delta1_counts_the_empty_tail():
    ifs, pspec = gap_demo_model()
    res = dim_exp_periodic(ifs, pspec)
    T, d1, d2 = periodic_oracle.deltas(ifs, pspec)
    empty = _empty_tail(ifs, pspec, T)
    assert np.all(res.delta1 <= empty + 1e-12)
    # the grid points past g_s alone miss it: the sampled tail lies above
    assert np.all(res.delta1 < d1 - 1e-3)
    # the empty tail is the profile at g_s, so the dimensions only refine
    v = np.minimum(d1, d2)
    assert v.min() - 2e-6 < res.dim_H <= v.min()
    assert v.max() <= res.dim_P < v.max() + 2e-5
    assert abs(res.dim_H - 1.0305247) < 1e-7
    assert abs(res.dim_P - 1.1756851) < 1e-7


def test_one_projection_coding_per_clock_pattern(monkeypatch):
    ifs, pspec = gap_demo_model()
    calls = []
    build = scales.build_projection_coding

    def counted(ifs, chain):
        calls.append(chain)
        return build(ifs, chain)

    monkeypatch.setattr(scales, "build_projection_coding", counted)
    dim_exp_periodic(ifs, pspec)
    # the 3x2 carpet's clocks keep one order: one pattern, one coding
    assert len(calls) == 1


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-1.0, 0.0, 1.0]))
@settings(max_examples=30, deadline=None)
def test_range_min_spans_whole_periods(seed, shift):
    """Breakpoint i = p*n + j holds lam^p * F[j]; ranges over several
    periods, with base minima of either sign, match a direct scan."""
    ifs, pspec = gap_demo_model()
    tab = _PeriodTables(pspec, ifs, 8)
    rng = np.random.default_rng(seed)
    F = rng.uniform(0.0, 1.0, tab.n + 1)
    F += shift - (F[:-1].max() if shift < 0 else F[:-1].min() if shift > 0 else 0.5)
    a = rng.integers(-5 * tab.n, 5 * tab.n, 64)
    b = a + rng.integers(-2, 5 * tab.n, 64)
    i = np.arange(-5 * tab.n, 10 * tab.n)
    p, j = np.divmod(i, tab.n)
    values = tab.lam ** p * F[j]
    want = [values[(i >= lo) & (i < hi)].min() if lo < hi else math.inf
            for lo, hi in zip(a, b)]
    assert np.allclose(tab._range_min(F, a, b), want, rtol=1e-14, atol=0.0)


def test_small_period_ratio_in_constant_memory():
    """lam = 1 + 1e-5: the clocks lie some 10^4 periods apart, the tables
    still hold one period."""
    ifs, _ = gap_demo_model()
    lam = 1.0 + 1e-5
    pspec = PeriodicSpec(lam, [1.0, lam ** 0.5], [GAP_P_A, GAP_P_B], alpha=[0.85] * 3)
    tracemalloc.start()
    try:
        res = dim_exp_periodic(ifs, pspec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    T, d1, d2 = periodic_oracle.deltas(ifs, pspec, T_grid=res.T)
    assert np.all(res.delta2 <= d2 + 1e-12)
    assert np.all(res.delta1 <= d1 + 1e-12)
    assert res.dim_H <= res.dim_P < res.dim_H + 1e-5
