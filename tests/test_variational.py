"""Variational layer: simplex optimization, weighted pressure, the
packing-side schedule search and the entropy-drift perturbation.

The constant-law optimizer is pinned to the closed-form value on the
3x2 grid carpet; the perturbation postcondition is re-checked by an
exhaustive scan independent of the certificate returned.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from spongedim.engine import d_sequences
from spongedim.scales import PrefixTable

from spongedim.variational import (_RunEvaluator, _RunSchedule,
                                   admissible_eps_bound,
                                   dim_attractor_equal_linear,
                                   optimize_mandelbrot, optimize_packing,
                                   optimize_type_ell_hausdorff,
                                   perturb_sequence, weighted_pressure)
from spongedim.weights import WeightSequence, validate_type_ell

from conftest import carpet, type_ell_lengths


LOG2, LOG3 = math.log(2.0), math.log(3.0)
# full-retention closed form on the 3x2 carpet with rows of 2 and 1 cells
MCMULLEN_H = math.log2(2.0 ** (LOG2 / LOG3) + 1.0)


# === constant-law optimizer ===

def test_optimizer_hits_closed_form(mcmullen):
    res = optimize_mandelbrot(mcmullen, alpha=None, starts=16, seed=0)
    assert abs(res.value - MCMULLEN_H) < 1e-9
    assert res.residual < 1e-6
    assert abs(res.argument.sum() - 1.0) < 1e-12


def test_optimizer_percolation_below_full(mcmullen):
    full = optimize_mandelbrot(mcmullen, alpha=None, starts=8, seed=0)
    perc = optimize_mandelbrot(mcmullen, alpha=np.full(3, 0.8),
                               starts=8, seed=0)
    assert perc.value < full.value


def test_routes_agree(mcmullen, gl4x2):
    for ifs, alpha in ((mcmullen, np.full(3, 0.8)),
                       (gl4x2, np.full(4, 0.9))):
        att = dim_attractor_equal_linear(ifs, alpha)
        mm = optimize_mandelbrot(ifs, alpha=alpha, starts=16, seed=1)
        assert abs(att.value - mm.value) < 1e-6


def test_attractor_reports_witness(mcmullen):
    res = dim_attractor_equal_linear(mcmullen, np.full(3, 0.85))
    assert 0.0 < res.theta_star < 1.0 or res.theta_star in (0.0, 1.0)
    assert res.r_star >= 1
    assert abs(res.mm_value - res.value) < 1e-6


# === weighted pressure ===

def test_pressure_convex_with_simplex_maximizer(mcmullen):
    alpha = np.full(3, 0.9)
    thetas = np.linspace(0.65, 1.0, 30)
    vals = []
    for t in thetas:
        P, w = weighted_pressure(mcmullen, alpha, 2, float(t))
        vals.append(P)
        assert w.min() >= 0
        assert abs(w.sum() - 1.0) < 1e-12
    vals = np.array(vals)
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-9)


def test_full_retention_attractor_closed_form(mcmullen):
    res = dim_attractor_equal_linear(mcmullen, np.ones(3))
    assert abs(res.value - MCMULLEN_H) < 1e-9
    # the corner of the pressure scan sits at theta = log2/log3
    assert abs(res.theta_star - LOG2 / LOG3) < 1e-6


# === perturbation ===

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_perturbation_restores_drift(seed):
    rng = np.random.default_rng(seed)
    ifs = carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])
    alpha = np.array([0.9, 0.85, 0.8])
    eps = rng.uniform(0.2, 0.95) * admissible_eps_bound(ifs, alpha)
    N_lo = int(math.ceil(1.0 / eps)) + 1
    N = int(rng.integers(N_lo, N_lo + 200))
    _, lam_hi = ifs.contraction_span()
    horizon = int(math.floor(lam_hi * N)) + 3
    P = rng.dirichlet(np.full(3, 2.0), size=horizon)
    dips = rng.random(horizon) < 0.2
    if dips.any():
        P[dips] = rng.dirichlet(np.full(3, 0.25), size=int(dips.sum()))
    seq = WeightSequence(P=P, alpha=alpha)
    # the documented precondition, from the rows: sum_{n<=M} H >= -M*eps
    # for M in [floor(N*eps), floor(Lambda*N)]; some draws break it
    lo, hi = int(math.floor(N * eps)), int(math.floor(lam_hi * N))
    H_in = -xlogy(P, P).sum(axis=1) + P @ np.log(alpha)
    Ms = np.arange(lo, hi + 1)
    if np.any(np.cumsum(H_in)[lo - 1:hi] < -eps * Ms):
        with pytest.raises(ValueError, match="admissible class"):
            perturb_sequence(seq, eps, N, ifs)
        return
    res = perturb_sequence(seq, eps, N, ifs)
    H = res.seq.H_array()
    M_hi = int(math.floor(lam_hi * N))
    pref = np.cumsum(H[:M_hi])
    M = np.arange(1, M_hi + 1)
    assert np.all(pref >= M * eps - 1e-12)


def test_perturbation_keeps_alphabet(mcmullen):
    alpha = np.array([0.9, 0.85, 0.8])
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(3), size=300)
    seq = WeightSequence(P=P, alpha=alpha)
    eps = 0.5 * admissible_eps_bound(mcmullen, alpha)
    res = perturb_sequence(seq, eps, 100, mcmullen)
    rows = res.seq.p_rows()
    assert rows.shape == P.shape
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_eps_bound_positive(mcmullen, sierpinski):
    assert admissible_eps_bound(mcmullen, np.full(3, 0.9)) > 0
    assert admissible_eps_bound(sierpinski, np.full(8, 0.9)) > 0


# === schedule searches ===

def test_packing_rejects_bad_schedule(mcmullen):
    bad = [4, 4, 5]
    assert validate_type_ell(bad)
    with pytest.raises(ValueError):
        optimize_packing(mcmullen, np.ones(3), bad, 0.1, [64.0])


def test_packing_search_small(mcmullen):
    lengths = type_ell_lengths(700)
    res = optimize_packing(mcmullen, np.ones(3), lengths, eps=0.1,
                           N_grid=[64.0, 128.0, 256.0], seed=2,
                           max_passes=3)
    assert "at-horizon" in res.flags
    assert MCMULLEN_H - 5e-2 < res.value < 2.0
    per_N = res.extras["per_N"]
    assert [row["N"] for row in per_N] == [64.0, 128.0, 256.0]


def test_type_ell_hausdorff_search_small(mcmullen):
    lengths = type_ell_lengths(700)
    alpha = np.array([0.9, 0.85, 0.8])
    res = optimize_type_ell_hausdorff(mcmullen, alpha, lengths, eps=0.05,
                                      N_points=8, seed=3, max_passes=2)
    const = optimize_mandelbrot(mcmullen, alpha=alpha, starts=8, seed=0)
    assert res.value <= const.value + 2e-2
    assert res.value >= 0.5 * const.value
    assert res.extras["grid_certificate"] is True
    # the argument is a block schedule over the same alphabet
    assert res.argument.n_letters == 3


# === run-schedule evaluator against the dense engine ===

@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_run_evaluator_matches_dense_engine(mcmullen, sponge3d, seed,
                                            use_sponge, percolated):
    rng = np.random.default_rng(seed)
    ifs = sponge3d if use_sponge else mcmullen
    R = int(rng.integers(1, 9))
    lengths = rng.integers(1, 60, size=R)
    vectors = rng.dirichlet(np.full(ifs.n, rng.uniform(0.3, 3.0)), size=R)
    alpha = rng.uniform(0.6, 1.0, size=ifs.n) if percolated else None
    seq = WeightSequence.from_blocks(lengths, vectors, alpha=alpha)
    prefix = PrefixTable(ifs, seq)
    N = float(rng.uniform(0.05, 0.98) * prefix.max_resolution())
    # a dense clock sum within 1e-9 of N is a tie that rounding may break
    # either way, so those draws are skipped
    assume(np.abs(prefix.chi_prefix - N).min() > 1e-9)
    ref = d_sequences(seq, ifs, N, prefix=prefix)

    ev = _RunEvaluator(ifs, alpha)
    whole = _RunSchedule(ev, lengths, vectors)
    # the same schedule with one run free, filled in as a candidate
    j = int(rng.integers(R))
    other = vectors.copy()
    other[j] = rng.dirichlet(np.ones(ifs.n))
    moved = _RunSchedule(ev, lengths, other, slot=j)
    moved.set(vectors[j])
    for sched in (whole, moved):
        assert abs(sched.d_tilde([N])[0] - ref.d_tilde) < 1e-12
        assert abs(sched.d_lower([N])[0] - ref.d) < 1e-12

    # admissibility scans against a dense row-wise prefix scan; margins
    # within 1e-9 of zero are left out for the same reason
    pre = np.cumsum(seq.H_array())
    M = np.arange(1, seq.horizon + 1)
    for _ in range(4):
        M0 = int(rng.integers(1, seq.horizon + 1))
        rate = float(rng.uniform(-0.3, 0.8))
        margin = pre[M0 - 1:] - rate * M[M0 - 1:]
        if np.abs(margin).min() < 1e-9:
            continue
        dense = bool(np.all(margin >= 0.0))
        assert whole.admissible(M0, rate) is dense
        assert moved.admissible(M0, rate) is dense
