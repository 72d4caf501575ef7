"""Dimension engine: entropy profiles, the two dimension sequences, the
constant-law dimension formula, periodic schedules and the gap builder.

Finite-difference oracles pin the partition-function derivative; the
constant-law formula is checked against the conformal closed form and
against letter permutations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongedim import DiagonalIFS, DiagonalMap
from spongedim.engine import (PeriodicSpec, d_sequences, dim_exp_periodic,
                              dim_imm_bounds, dim_mandelbrot,
                              entropy_profile, mandelbrot_value,
                              partition_function, stable_chain,
                              three_weight_gap_sequence, two_point_mean_one)
from spongedim.scales import PrefixTable, decompose
from spongedim.weights import (DegenerateError, WeightModel, WeightSequence,
                               entropy)

from conftest import SPONGE3D, carpet


# === constant-law dimension ===

def test_conformal_equals_entropy_over_exponent(sierpinski):
    p = np.full(8, 1 / 8)
    alpha = np.full(8, 0.9)
    m = WeightModel.percolation(p, alpha)
    res = dim_mandelbrot(sierpinski, m)
    expect = (math.log(8) + math.log(0.9)) / math.log(3)
    assert abs(res.value - expect) < 1e-12


def test_mandelbrot_letter_permutation_invariance(mcmullen):
    cells = [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)]
    p = np.array([0.5, 0.2, 0.3])
    alpha = np.array([0.9, 0.75, 0.85])
    ref = dim_mandelbrot(mcmullen, WeightModel.percolation(p, alpha)).value
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        ifs = carpet((1 / 3, 1 / 2), [cells[i] for i in perm])
        m = WeightModel.percolation(p[perm], alpha[perm])
        assert abs(dim_mandelbrot(ifs, m).value - ref) < 1e-12


def test_mandelbrot_axis_permutation_invariance(mcmullen):
    # swap the two coordinate axes of every map
    flipped = DiagonalIFS([DiagonalMap(m.a[::-1], m.t[::-1])
                           for m in mcmullen.maps])
    p = np.array([0.45, 0.3, 0.25])
    alpha = np.array([0.9, 0.8, 0.85])
    m = WeightModel.percolation(p, alpha)
    a = dim_mandelbrot(mcmullen, m).value
    b = dim_mandelbrot(flipped, m).value
    assert abs(a - b) < 1e-12


def test_mandelbrot_degenerate_rejected(mcmullen):
    # mean entropy negative: the measure dies out
    p = np.array([0.05, 0.05, 0.9])
    alpha = np.array([0.1, 0.1, 0.12])
    with pytest.raises(DegenerateError):
        dim_mandelbrot(mcmullen, WeightModel.percolation(p, alpha))


def test_mandelbrot_breakdown_fields(mcmullen):
    m = WeightModel.percolation([0.4, 0.35, 0.25], [0.9, 0.8, 0.85])
    res = dim_mandelbrot(mcmullen, m)
    assert res.H > 0
    assert len(res.chi_tilde) == len(res.groups)
    assert 0 < res.value <= 2.0


# Baranski carpets: the first and last maps swap their ratios on the two
# axes, so chi(p) ties exactly where p_1 = p_n
BARANSKI2 = DiagonalIFS([DiagonalMap([1 / 2, 1 / 3], [0, 0]),
                         DiagonalMap([1 / 3, 1 / 2], [2 / 3, 1 / 2])])
BARANSKI3 = DiagonalIFS([DiagonalMap([1 / 2, 1 / 3], [0, 0]),
                         DiagonalMap([1 / 6, 1 / 6], [1 / 2, 1 / 3]),
                         DiagonalMap([1 / 3, 1 / 2], [2 / 3, 1 / 2])])


def test_near_tie_keeps_both_clock_groups():
    # chi(p) = (0.89629, 0.89547) are two clock groups; merged into one,
    # the closed form would give 0.7737033820250887
    p = np.array([0.501, 0.499])
    res = dim_mandelbrot(BARANSKI2, WeightModel.deterministic(p))
    assert abs(res.value - 0.7740537100424525) <= 1e-12
    assert res.groups == [[1], [0]]
    groups, chain, chi_tilde, coding = stable_chain(BARANSKI2, p)
    assert groups == res.groups and coding.levels == 2
    assert chi_tilde[0] - chi_tilde[1] > 8e-4


@given(st.sampled_from([BARANSKI2, BARANSKI3, SPONGE3D]),
       st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.none() | st.floats(-1e-3, 1e-3))
@settings(max_examples=60, deadline=None)
def test_one_closed_form_for_constant_laws(ifs, seed, percolation, tie):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(ifs.n))
    if tie is not None and ifs is not SPONGE3D:
        # p_1 and p_n within 1e-3 (relative) of a tie of the exponents
        m = 0.5 * (p[0] + p[-1])
        p[0], p[-1] = m * (1.0 + tie), m * (1.0 - tie)
    W = (WeightModel.percolation(p, rng.uniform(0.7, 1.0, ifs.n)) if percolation
         else WeightModel.deterministic(p))
    assume(W.entropy_H() >= 0.0)
    res = dim_mandelbrot(ifs, W)
    assert res.value == mandelbrot_value(ifs, W.mean(), W.entropy_H())
    assert np.all(np.diff(res.chi_tilde) < 0.0)
    assert sum(b["contribution"] for b in res.breakdown) == pytest.approx(
        res.value, rel=1e-12, abs=1e-12)


# === dimension sequences ===

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_d_below_d_tilde(seed):
    rng = np.random.default_rng(seed)
    ifs = carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])
    P = rng.dirichlet(np.full(3, rng.uniform(0.5, 3.0)), size=500)
    alpha = rng.uniform(0.65, 1.0, size=3)
    seq = WeightSequence(P=P, alpha=alpha)
    for N in rng.uniform(15.0, 150.0, size=3):
        res = d_sequences(seq, ifs, float(N))
        assert res.d <= res.d_tilde + 1e-12


def test_constant_sequence_approaches_constant_law(mcmullen):
    m = WeightModel.percolation([0.4, 0.35, 0.25], [0.9, 0.8, 0.85])
    target = dim_mandelbrot(mcmullen, m).value
    seq = WeightSequence.constant(m, 40000)
    res = d_sequences(seq, mcmullen, 10000.0)
    assert abs(res.d - target) < 1e-3
    assert abs(res.d_tilde - target) < 1e-3


# === partition function and entropy profile ===

def test_partition_derivative_matches_entropy(mcmullen):
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.ones(3), size=800)
    alpha = np.array([0.9, 0.8, 0.85])
    seq = WeightSequence(P=P, alpha=alpha)
    pref = PrefixTable(mcmullen, seq)
    h = 1e-4
    for N in (30.0, 80.0, 200.0):
        dec = decompose(mcmullen, seq, N)
        for k in (dec.g[0], dec.g[-1]):
            up = partition_function(seq, dec, k, 1.0 + h)
            dn = partition_function(seq, dec, k, 1.0 - h)
            fd = (up - dn) / (2.0 * h)
            Hval = entropy_profile(seq, dec, k, prefix=pref)
            assert abs(fd - Hval) <= 1e-5 * (1.0 + abs(Hval))


def test_partition_function_zero_at_q_one(mcmullen):
    rng = np.random.default_rng(9)
    P = rng.dirichlet(np.ones(3), size=400)
    seq = WeightSequence(P=P, alpha=np.array([0.9, 0.8, 0.85]))
    dec = decompose(mcmullen, seq, 60.0)
    assert abs(partition_function(seq, dec, dec.g[-1], 1.0)) < 1e-9


# === periodic schedules ===

def test_constant_profile_equals_constant_law(sierpinski):
    p = np.full(8, 1 / 8)
    alpha = np.full(8, 0.9)
    pspec = PeriodicSpec(4.0, [1.0, 2.0], [p, p], alpha=alpha)
    res = dim_exp_periodic(sierpinski, pspec)
    expect = dim_mandelbrot(sierpinski,
                            WeightModel.percolation(p, alpha)).value
    assert abs(res.dim_H - expect) < 1e-6
    assert abs(res.dim_P - expect) < 1e-6


def test_two_phase_profile_splits_dimensions(sierpinski):
    lam = 4.0
    p1 = np.array([0.3, 0.3, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05])
    p2 = np.full(8, 1 / 8)
    alpha = np.full(8, 0.9)
    pspec = PeriodicSpec(lam, [1.0, lam ** 0.5], [p1, p2], alpha=alpha)
    res = dim_exp_periodic(sierpinski, pspec)
    assert res.dim_P > res.dim_H + 1e-3


def test_periodic_agrees_with_discretized_bounds(sierpinski):
    lam = 6.0
    p1 = np.array([0.3, 0.3, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05])
    p2 = np.full(8, 1 / 8)
    alpha = np.full(8, 0.92)
    pspec = PeriodicSpec(lam, [1.0, lam ** 0.5], [p1, p2], alpha=alpha)
    res = dim_exp_periodic(sierpinski, pspec)
    seq = pspec.discretize(60000)
    bounds = dim_imm_bounds(seq, sierpinski)
    assert abs(res.dim_H - bounds.dim_H_estimate) < 2e-2
    assert abs(res.dim_P - bounds.dim_P_estimate) < 2e-2


# === two-point laws and the gap builder ===

def test_two_point_mean_one_targets():
    for target in (0.0, 0.3, 1.2):
        prob_lo, lo, hi = two_point_mean_one(target)
        mean = prob_lo * lo + (1 - prob_lo) * hi
        xlogx = prob_lo * lo * math.log(lo) + (1 - prob_lo) * hi * math.log(hi)
        assert abs(mean - 1.0) < 1e-10
        assert abs(xlogx - target) < 1e-9


def test_two_point_rejects_negative_target():
    with pytest.raises(ValueError):
        two_point_mean_one(-0.5)


def test_three_weight_schedule_structure(mcmullen):
    p = np.array([0.4, 0.35, 0.25])
    sched = three_weight_gap_sequence(mcmullen, p, H1=0.82, H3=-0.85,
                                      horizon=20000)
    assert sched.rounds
    for rnd in sched.rounds:
        assert rnd["N1"] < rnd["N2"]
        assert rnd["M0"] <= rnd["M1"] < rnd["M2"] < rnd["M3"]
    # consecutive rounds nest: each starts where the previous ended
    for a, b in zip(sched.rounds, sched.rounds[1:]):
        assert b["M0"] == a["M3"] + 1
    assert sched.seq.horizon >= 20000


def test_three_weight_schedule_opens_gap(mcmullen):
    p = np.array([0.4, 0.35, 0.25])
    sched = three_weight_gap_sequence(mcmullen, p, H1=0.82, H3=-0.85,
                                      horizon=50000)
    # largest round whose dip scale still fits the horizon resolution
    fits = [r for r in sched.rounds
            if r["M2"] * math.log(2.0) < 0.45 * sched.seq.horizon]
    rnd = fits[-1]
    N = rnd["M2"] * math.log(2.0)
    res = d_sequences(sched.seq, mcmullen, N)
    assert res.d < res.d_tilde - 1e-2
