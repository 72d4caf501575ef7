"""Acceptance suite: one test per numbered criterion.

Each criterion pins an end-to-end contract of the package against an
independent oracle (closed forms, root finders, exhaustive scans, Monte
Carlo error bars) at desk scale.  Criteria, in order:

 1. closed-form Hausdorff value on the 3x2 grid carpet, both routes
 2. closed-form packing/box value on the same carpet
 3. conformal collapse: exact ratio formula and d_N convergence
 4. route agreement on five percolation instances in d = 2, 3
 5. three-weight schedule separates d_N from d~_N, same liminf
 6. partition-function derivative matches the entropy profile
 7. branching survival frequency and level-count means
 8. cascade mass martingale and exact depth-1 second moment
 9. empirical box/local-dimension estimates against theory
10. entropy-drift perturbation passes the exhaustive scan
11. periodic schedules agree with their discretized bounds
12. structural invariances (permutations, projections, ordering, LP)
"""

import itertools
import math
import time

import numpy as np
from scipy.optimize import brentq

from spongedim import DiagonalIFS, DiagonalMap
from spongedim.engine import (PeriodicSpec, d_sequences, dim_exp_periodic,
                              dim_imm_bounds, dim_mandelbrot,
                              entropy_profile, partition_function,
                              three_weight_gap_sequence)
from spongedim.ifs import feasible_direction_sets
from spongedim.scales import PrefixTable, decompose
from spongedim.simulate import (box_count_fit, empirical_local_dimension,
                                gw_extinction, gw_survival_frequency,
                                sample_cascade, sample_tree,
                                simulate_level_counts)
from spongedim.variational import (admissible_eps_bound,
                                   dim_attractor_equal_linear,
                                   optimize_mandelbrot, optimize_packing,
                                   perturb_sequence)
from spongedim.weights import WeightModel, WeightSequence

from conftest import carpet, type_ell_lengths

LOG2, LOG3 = math.log(2.0), math.log(3.0)
MCMULLEN_CELLS = [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)]
# closed form for the 3x2 carpet with row cell counts (2, 1):
# log2(2^{log_3 2} + 1) for Hausdorff, 1 + log_3(3/2) for packing/box
HAUSDORFF_ORACLE = math.log2(2.0 ** (LOG2 / LOG3) + 1.0)
PACKING_ORACLE = 1.0 + math.log(1.5) / LOG3


def sierpinski_carpet():
    cells = [(i / 3, j / 3) for j in range(3) for i in range(3)
             if not (i == 1 and j == 1)]
    return carpet((1 / 3, 1 / 3), cells)


def test_criterion_01_hausdorff_closed_form(mcmullen):
    t0 = time.time()
    mm = optimize_mandelbrot(mcmullen, alpha=None)
    att = dim_attractor_equal_linear(mcmullen, np.ones(3))
    elapsed = time.time() - t0
    err = max(abs(mm.value - HAUSDORFF_ORACLE),
              abs(att.value - HAUSDORFF_ORACLE))
    print("criterion 1: err %.2e (tol 1e-6), %.1fs" % (err, elapsed))
    assert err < 1e-6
    assert elapsed < 5.0


def test_criterion_02_packing_closed_form(mcmullen):
    t0 = time.time()
    lengths = type_ell_lengths(11000)
    res = optimize_packing(mcmullen, np.ones(3), lengths, eps=0.1,
                           N_grid=[512.0, 1024.0, 2048.0, 4096.0])
    elapsed = time.time() - t0
    err = abs(res.value - PACKING_ORACLE)
    print("criterion 2: value %.6f err %.2e (tol 5e-3), %.1fs"
          % (res.value, err, elapsed))
    assert err < 5e-3
    assert elapsed < 60.0


def test_criterion_03_conformal_consistency():
    ifs = sierpinski_carpet()
    p = np.full(8, 1 / 8)
    alpha = np.full(8, 0.9)
    m = WeightModel.percolation(p, alpha)
    res = dim_mandelbrot(ifs, m)
    expect = (math.log(8) + math.log(0.9)) / LOG3
    exact_err = abs(res.value - expect)
    seq = WeightSequence.constant(m, 12000)
    dN = d_sequences(seq, ifs, 1.0e4).d
    conv_err = abs(dN - res.value)
    print("criterion 3: exact err %.1e (tol 1e-12), d_N err %.1e (tol 1e-3)"
          % (exact_err, conv_err))
    assert exact_err <= 1e-12
    assert conv_err <= 1e-3


def test_criterion_04_route_equivalence(mcmullen, gl4x2, sponge3d):
    d3b = DiagonalIFS(sponge3d.maps + [
        DiagonalMap([1 / 4, 1 / 3, 1 / 2], [0, 2 / 3, 1 / 2])])
    cases = [
        (mcmullen, np.full(3, 0.8)),
        (gl4x2, np.full(4, 0.9)),
        (mcmullen, np.array([0.95, 0.7, 0.85])),
        (sponge3d, np.full(4, 0.85)),
        (d3b, np.array([0.9, 0.8, 0.95, 0.75, 0.85])),
    ]
    worst = 0.0
    for ifs, alpha in cases:
        att = dim_attractor_equal_linear(ifs, alpha)
        mm = optimize_mandelbrot(ifs, alpha=alpha)
        worst = max(worst, abs(att.value - mm.value))
    print("criterion 4: worst route gap %.2e over %d instances (tol 1e-6)"
          % (worst, len(cases)))
    assert worst <= 1e-6


def test_criterion_05_three_weight_gap(mcmullen):
    p = np.array([0.4, 0.35, 0.25])
    sched = three_weight_gap_sequence(mcmullen, p, H1=0.82, H3=-0.85,
                                      horizon=100000)
    prefix = PrefixTable(mcmullen, sched.seq)
    maxN = prefix.max_resolution()
    fits = [r for r in sched.rounds
            if r["M2"] * LOG2 * 1.05 < 0.9 * maxN]
    rnd = fits[-1]
    min_gap = math.inf
    for frac in (0.8, 0.95, 1.05):
        N = rnd["M2"] * LOG2 * frac
        res = d_sequences(sched.seq, mcmullen, N, prefix=prefix)
        min_gap = min(min_gap, res.d_tilde - res.d)
    bounds = dim_imm_bounds(sched.seq, mcmullen)
    lim_gap = abs(bounds.liminf_d_tilde - bounds.dim_H_estimate)
    print("criterion 5: scale gap >= %.3f, liminf diff %.1e (tol 1e-3)"
          % (min_gap, lim_gap))
    assert min_gap > 1e-3
    assert lim_gap <= 1e-3


def test_criterion_06_partition_derivative(mcmullen):
    rng = np.random.default_rng(2024)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        horizon = int(rng.integers(300, 900))
        P = rng.dirichlet(np.full(3, rng.uniform(0.5, 3.0)), size=horizon)
        alpha = rng.uniform(0.6, 1.0, size=3)
        seq = WeightSequence(P=P, alpha=alpha)
        prefix = PrefixTable(mcmullen, seq)
        N = float(rng.uniform(20.0, 0.9 * prefix.max_resolution()))
        dec = decompose(mcmullen, seq, N)
        k = int(rng.integers(dec.g[0], dec.g[-1] + 1))
        fd = (partition_function(seq, dec, k, 1.0 + h)
              - partition_function(seq, dec, k, 1.0 - h)) / (2.0 * h)
        Hval = entropy_profile(seq, dec, k, prefix=prefix)
        worst = max(worst, abs(fd - Hval) / (1.0 + abs(Hval)))
    print("criterion 6: worst relative err %.2e (tol 1e-5)" % worst)
    assert worst <= 1e-5


def test_criterion_07_branching_statistics():
    worst_z = 0.0
    for alpha in ([0.9, 0.8, 0.7], [0.8, 0.8, 0.8], [0.95, 0.55, 0.75]):
        a = np.asarray(alpha)
        est = gw_survival_frequency(a, depth=30, runs=10000,
                                    seed=int(a.sum() * 1000))
        q = gw_extinction(a)

        def g(x, a=a):
            return float(np.prod(1.0 - a + a * x)) - x

        q_oracle = brentq(g, 0.0, 1.0 - 1e-9, xtol=1e-13)
        assert abs(q - q_oracle) < 1e-10
        z = abs(est.frequency - (1.0 - q)) / est.std_error
        worst_z = max(worst_z, z)
    counts = simulate_level_counts(np.full(4, 0.7), depth=6, runs=10000,
                                   seed=77)
    for n in (3, 6):
        se = counts[n].std(ddof=1) / math.sqrt(counts.shape[1])
        z = abs(counts[n].mean() - 2.8 ** n) / se
        worst_z = max(worst_z, z)
    print("criterion 7: worst z %.2f (tol 3)" % worst_z)
    assert worst_z <= 3.0


def test_criterion_08_cascade_martingale():
    p = np.array([0.4, 0.35, 0.25])
    models = [
        WeightModel.percolation(p, np.array([0.9, 0.8, 0.85])),
        WeightModel.percolation(np.full(3, 1 / 3), np.array([0.7, 0.9, 0.8])),
        WeightModel.atoms([(0.5, [1, 1, 1], p * 1.4),
                           (0.5, [1, 1, 0], [0.35, 0.25, 0.0])]),
    ]
    worst_z = 0.0
    for m in models:
        ys = np.array([sample_cascade(m, depth=5, seed=s).Y[-1]
                       for s in range(10000)])
        se = ys.std(ddof=1) / math.sqrt(len(ys))
        worst_z = max(worst_z, abs(ys.mean() - 1.0) / se)
        # depth-1 second moment against the exhaustive atom expansion
        flat = m.expand_atoms()
        oracle = float(flat.atom_probs
                       @ (flat.atom_c * flat.atom_w).sum(axis=1) ** 2)
        assert abs(m.second_moment_depth1() - oracle) <= 1e-12
    print("criterion 8: worst mean-mass z %.2f (tol 3)" % worst_z)
    assert worst_z <= 3.0


def test_criterion_09_empirical_vs_theory():
    ifs = sierpinski_carpet()
    alpha = np.full(8, 0.9)
    mm = optimize_mandelbrot(ifs, alpha=alpha)
    model = WeightModel.percolation(mm.argument, alpha)
    rep = empirical_local_dimension(ifs, model, depth=12, n_points=100,
                                    seed=7)
    local_err = abs(rep.median_slope - mm.value)
    tree = sample_tree(ifs, np.ones(8), depth=6, seed=0)
    N_list = [j * LOG3 for j in range(1, 7)]
    fit = box_count_fit(tree, ifs, N_list)
    box_err = abs(fit.slope - math.log(8) / LOG3)
    print("criterion 9: local err %.3f (tol 0.1), box err %.4f (tol 0.03)"
          % (local_err, box_err))
    assert local_err <= 0.1
    assert box_err <= 0.03


def test_criterion_10_perturbation_scan(mcmullen):
    rng = np.random.default_rng(10)
    alpha = np.array([0.9, 0.85, 0.8])
    bound = admissible_eps_bound(mcmullen, alpha)
    _, lam_hi = mcmullen.contraction_span()

    def draw_admissible(eps, N, blocks):
        # rejection-sample inputs obeying the one-sided entropy bound
        # sum_{n <= M} H >= -M*eps on floor(N*eps) <= M <= floor(lam_hi*N)
        horizon = int(math.floor(lam_hi * N)) + 3
        M_hi = int(math.floor(lam_hi * N))
        M_lo = int(math.floor(N * eps))
        Ms = np.arange(1, M_hi + 1)
        for _ in range(500):
            if blocks:
                lengths, vecs, tot = [], [], 0
                while tot < horizon:
                    L = int(rng.integers(3, 25))
                    lengths.append(L)
                    tot += L
                    conc = 0.4 if rng.random() < 0.3 else 3.0
                    vecs.append(rng.dirichlet(np.full(3, conc)))
                seq = WeightSequence.from_blocks(lengths, vecs, alpha=alpha)
            else:
                P = rng.dirichlet(np.full(3, 2.0), size=horizon)
                dips = rng.random(horizon) < 0.15
                if dips.any():
                    P[dips] = rng.dirichlet(np.full(3, 0.25),
                                            size=int(dips.sum()))
                seq = WeightSequence(P=P, alpha=alpha)
            pref = np.cumsum(seq.H_array()[:M_hi])
            if np.all(pref[M_lo - 1:] >= -eps * Ms[M_lo - 1:]):
                return seq
        raise AssertionError("admissible-class sampler starved")

    passed = 0
    for trial in range(100):
        eps = rng.uniform(0.2, 0.95) * bound
        N_lo = int(math.ceil(1.0 / eps)) + 1
        N = int(rng.integers(N_lo, N_lo + 250))
        seq = draw_admissible(eps, N, blocks=trial % 2 == 1)
        res = perturb_sequence(seq, eps, N, mcmullen)
        H = res.seq.H_array()
        M_hi = int(math.floor(lam_hi * N))
        pref = np.cumsum(H[:M_hi])
        M = np.arange(1, M_hi + 1)
        if np.all(pref >= M * eps - 1e-12):
            passed += 1
    print("criterion 10: %d/100 sequences pass the scan" % passed)
    assert passed == 100


def test_criterion_11_periodic_vs_discretized():
    ifs = sierpinski_carpet()
    p_skew = np.array([0.3, 0.3, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05])
    p_unif = np.full(8, 1 / 8)
    p_mild = np.array([0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    specs = [
        PeriodicSpec(4.0, [1.0, 2.0], [p_skew, p_unif],
                     alpha=np.full(8, 0.92)),
        PeriodicSpec(6.0, [1.0, 6.0 ** 0.5], [p_unif, p_skew],
                     alpha=np.full(8, 0.9)),
        PeriodicSpec(9.0, [1.0, 9.0 ** 0.35], [p_mild, p_skew],
                     alpha=np.full(8, 0.95)),
    ]
    worst = 0.0
    for pspec in specs:
        res = dim_exp_periodic(ifs, pspec)
        bounds = dim_imm_bounds(pspec.discretize(60000), ifs)
        worst = max(worst,
                    abs(res.dim_H - bounds.dim_H_estimate),
                    abs(res.dim_P - bounds.dim_P_estimate))
    print("criterion 11: worst discretization gap %.2e (tol 2e-2)" % worst)
    assert worst <= 2e-2


def test_criterion_12_invariances(mcmullen, sponge3d):
    rng = np.random.default_rng(12)
    # letter and axis permutations leave the constant-law value unchanged
    p = np.array([0.5, 0.2, 0.3])
    alpha = np.array([0.9, 0.75, 0.85])
    ref = dim_mandelbrot(mcmullen,
                         WeightModel.percolation(p, alpha)).value
    for perm in itertools.permutations(range(3)):
        perm = list(perm)
        ifs = carpet((1 / 3, 1 / 2), [MCMULLEN_CELLS[i] for i in perm])
        m = WeightModel.percolation(p[perm], alpha[perm])
        assert abs(dim_mandelbrot(ifs, m).value - ref) < 1e-12
    flipped = DiagonalIFS([DiagonalMap(m.a[::-1], m.t[::-1])
                           for m in mcmullen.maps])
    m = WeightModel.percolation(p, alpha)
    assert abs(dim_mandelbrot(flipped, m).value - ref) < 1e-12

    # projections conserve mass on every level of the coding chain
    from spongedim.engine import stable_chain
    from spongedim.ifs import build_projection_coding
    for ifs, n in ((mcmullen, 3), (sponge3d, 4)):
        q = rng.dirichlet(np.ones(n))
        _, chain, _, _ = stable_chain(ifs, q)
        coding = build_projection_coding(ifs, chain)
        for r in range(1, coding.levels + 1):
            proj = coding.project_vector(q, r)
            assert proj.min() >= 0
            assert abs(proj.sum() - 1.0) < 1e-12

    # lower sequence never exceeds the upper sequence
    for _ in range(20):
        P = rng.dirichlet(np.full(3, rng.uniform(0.5, 3.0)), size=400)
        seq = WeightSequence(P=P, alpha=rng.uniform(0.65, 1.0, size=3))
        N = float(rng.uniform(15.0, 120.0))
        res = d_sequences(seq, mcmullen, N)
        assert res.d <= res.d_tilde + 1e-12

    # LP feasibility equals the brute-force simplex scan
    from test_ifs import brute_force_direction_sets
    for ifs, res_grid in ((mcmullen, 100), (sponge3d, 60)):
        lp = {fs.axes for fs in feasible_direction_sets(ifs)}
        assert lp == brute_force_direction_sets(ifs, res=res_grid)
    print("criterion 12: all invariance properties hold")
