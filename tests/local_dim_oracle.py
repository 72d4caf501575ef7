"""Per-law reference path for the Monte Carlo local dimension.

The sampler ``spongedim.simulate.empirical_local_dimension`` replaced: one
code path per law kind (deterministic, percolation, finite atoms) and one
cumulative sum per level.  It draws the same random numbers in the same
order (the digit matrix, then per generation the percolation alive mask or
the atom uniform), so a seed gives the same points, and its slopes are the
check on the single spine loop and closed-form fit of the library.  Each
slope is the least-squares slope of its floats computed exactly, in
rationals, and rounded once: ``np.polyfit``, which the replaced sampler
used, can be off by several 1e-12 relative on the nearly flat fits of deep
percolation trees.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from spongedim.engine import check_letters, stable_chain
from spongedim.ifs import DiagonalIFS
from spongedim.scales import _const_gamma
from spongedim.simulate import LocalDimReport
from spongedim.weights import InputError, WeightModel


def empirical_local_dimension(ifs: DiagonalIFS, model: WeightModel, depth: int,
                              n_points: int, seed: int = 0,
                              N_list=None) -> LocalDimReport:
    """Monte Carlo local dimension of the limit measure at typical points.

    Samples spines under the size-biased law (digits i.i.d. p = E(W); the
    spine cell's weight re-weighted by it), realizes the off-spine fiber
    sums per coarse band, and fits -log(mass of the scale-N box) against N
    per point.  The law needs one letter per map, and the depth must cover
    the slowest clock of the largest N (InputError otherwise)."""
    check_letters(ifs, model)
    p = model.mean()
    groups, _, chi_tilde, coding = stable_chain(ifs, p)
    s = len(groups)
    if N_list is None:
        N_max = (depth - 1) * float(chi_tilde[-1]) * 0.999
        N_list = np.linspace(N_max / 2.0, N_max, 8)
    N_list = np.asarray(N_list, dtype=np.float64)
    g_at = {N: [_const_gamma(float(c), float(N)) for c in chi_tilde] for N in N_list}
    gs_needed = max(g[-1] for g in g_at.values())
    if gs_needed > depth:
        raise InputError("depth %d too shallow: slowest clock needs %d "
                         "generations" % (depth, gs_needed))

    rng = np.random.default_rng(seed)
    cum_p = np.cumsum(p)
    digits = np.searchsorted(cum_p, rng.random((n_points, depth)), side="right")
    digits = np.minimum(digits, p.size - 1)

    # per generation: spine log-weight and per-band fiber log-sums
    log_w = np.empty((n_points, depth))
    log_V = np.empty((s + 1, n_points, depth))     # levels 2..s used
    if model.kind == "deterministic":
        logp = np.log(p)
        log_w[:] = logp[digits]
        for r in range(2, s + 1):
            pr = coding.project_vector(p, r)
            sel = coding.class_index[r - 1][digits]
            log_V[r] = np.log(pr[sel])
    elif model.kind == "percolation":
        ratio = model.p / model.alpha
        log_w[:] = np.log(ratio)[digits]
        for n in range(depth):
            alive = rng.random((n_points, p.size)) < model.alpha
            alive[np.arange(n_points), digits[:, n]] = True
            vals = alive * ratio
            for r in range(2, s + 1):
                cls = coding.class_index[r - 1]
                V = coding.project_rows(vals, r)
                sel = V[np.arange(n_points), cls[digits[:, n]]]
                log_V[r][:, n] = np.log(sel)
    else:
        probs = model.atom_probs
        w = model.atom_w
        for n in range(depth):
            dig = digits[:, n]
            biased = probs[None, :] * w[:, dig].T       # (points, atoms)
            biased = biased / biased.sum(axis=1, keepdims=True)
            u = rng.random(n_points)
            idx = (np.cumsum(biased, axis=1) < u[:, None]).sum(axis=1)
            idx = np.minimum(idx, probs.size - 1)
            log_w[:, n] = np.log(w[idx, dig])
            for r in range(2, s + 1):
                cls = coding.class_index[r - 1]
                fiber_sum = coding.project_rows(w[idx], r)
                sel = fiber_sum[np.arange(n_points), cls[dig]]
                log_V[r][:, n] = np.log(sel)

    cum_w = np.concatenate([np.zeros((n_points, 1)), np.cumsum(log_w, axis=1)], axis=1)
    cum_V = {r: np.concatenate([np.zeros((n_points, 1)),
                                np.cumsum(log_V[r], axis=1)], axis=1)
             for r in range(2, s + 1)}
    masses = np.empty((n_points, N_list.size))
    realized = np.empty(N_list.size)
    for j, N in enumerate(N_list):
        g = g_at[N]
        total = cum_w[:, g[0]]
        for r in range(2, s + 1):
            total = total + (cum_V[r][:, g[r - 1]] - cum_V[r][:, g[r - 2]])
        masses[:, j] = total
        # the box's largest side sets its scale; regressing against it
        # instead of the nominal N removes the clock-rounding bias
        realized[j] = min(g[r] * float(chi_tilde[r]) for r in range(s))
    slopes = np.array([exact_slope(realized, -masses[i]) for i in range(n_points)])
    return LocalDimReport(N=N_list, slopes=slopes,
                          median_slope=float(np.median(slopes)),
                          depth=depth, n_points=n_points)


def exact_slope(x, y) -> float:
    """The least-squares slope of y against x, exact for the given floats
    and rounded once."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return float(sum((u - mx) * (v - my) for u, v in zip(x, y))
                 / sum((u - mx) ** 2 for u in x))
