"""Dense reference paths: one row per generation, one digit per letter.

Compensated (Kahan) prefix sums of chi_k and H over every row, per-row band
entropies for the profile, and argmin scans for the tail: the oracle that
``spongedim.scales.PrefixTable`` and the engine functions built on it are
checked against.  ``nondegeneracy_report`` takes the partial means of every
generation, the oracle for the block scan of
``spongedim.weights.nondegeneracy_report``.  It costs O(horizon) Python work per table, so use it on
small schedules only.

``tree_rects`` composes the maps along each cell's digit word, the oracle
for the level gather of ``spongedim.simulate.tree_rects``.
``partition_function`` sums the log moments of every generation's law and
the projected power sums of every row, the oracle for the block sums of
``spongedim.engine.partition_function``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import entr

from spongedim.ifs import build_projection_coding
from spongedim.scales import (ScaleDecomposition, TailMin, clock_chain,
                              kahan_cumsum)
from spongedim.simulate import codes_to_words
from spongedim.weights import NondegeneracyReport


class DensePrefixTable:
    """Kahan prefix sums of the per-generation exponents chi_k(p^{(n)})
    and entropies H(W^{(n)})."""

    def __init__(self, ifs, seq):
        self.ifs = ifs
        self.seq = seq
        self.chi_prefix = kahan_cumsum(seq.p_rows() @ ifs.C)
        self.H_prefix = kahan_cumsum(seq.H_array())[:, 0]
        self.horizon = seq.horizon

    def max_resolution(self) -> float:
        return float(self.chi_prefix[-1].min())

    def gamma(self, N: float, k: int) -> int:
        """Smallest n with sum_{m<=n} chi_k(p^{(m)}) > N (strict)."""
        col = self.chi_prefix[1:, k]
        idx = int(np.searchsorted(col, N, side="right"))
        if idx >= col.size:
            raise ValueError("horizon %d exhausted before axis %d reaches "
                             "resolution %g" % (self.horizon, k, N))
        return idx + 1


def decompose(ifs, seq, N: float, prefix: DensePrefixTable) -> ScaleDecomposition:
    gam = np.array([prefix.gamma(N, k) for k in range(ifs.d)], dtype=np.intp)
    groups, chain = clock_chain(gam)
    g = [int(gam[grp[0]]) for grp in groups]
    return ScaleDecomposition(N=float(N), s=len(groups), groups=groups,
                              chain=chain, g=g, gammas=gam,
                              coding=build_projection_coding(ifs, chain))


def tail_min(prefix: DensePrefixTable, N: int, horizon: int | None = None) -> TailMin:
    S = prefix.H_prefix
    horizon = prefix.horizon if horizon is None else min(int(horizon), prefix.horizon)
    if not (0 <= N <= horizon):
        raise ValueError("need 0 <= N <= horizon")
    seg = S[N:horizon + 1]
    j = int(np.argmin(seg))
    N_tilde = N + j
    return TailMin(value=float(seg[j] - S[N]), horizon=horizon,
                   horizon_limited=(N_tilde == horizon and horizon > N))


def _band_entropies(seq, dec: ScaleDecomposition) -> np.ndarray:
    """h(Pi_{r_n} p^{(n)}) for n = g_1+1 .. g_s (the coarse bands)."""
    g = dec.g
    out = np.empty(g[-1] - g[0])
    P = seq.p_rows()
    for r in range(2, dec.s + 1):
        lo, hi = g[r - 2], g[r - 1]
        proj = dec.coding.project_rows(P[lo:hi], r)
        out[lo - g[0]:hi - g[0]] = entr(proj).sum(axis=1)
    return out


def profile_vector(seq, prefix: DensePrefixTable, dec: ScaleDecomposition):
    """(ks, H_{N,k} for k = g_1..g_s)."""
    g1, gs = dec.g[0], dec.g[-1]
    band = _band_entropies(seq, dec)
    suffix = np.zeros(band.size + 1)
    if band.size:
        suffix[:-1] = np.cumsum(band[::-1], dtype=np.longdouble)[::-1]
    ks = np.arange(g1, gs + 1)
    return ks, prefix.H_prefix[ks] + suffix


def entropy_profile(seq, dec: ScaleDecomposition, k: int,
                    prefix: DensePrefixTable) -> float:
    """H_{N,k} for any 0 <= k <= g_s, summed row by row."""
    total = prefix.H_prefix[k]
    P = seq.p_rows()
    for r in range(1, dec.s + 1):
        lo = max(k, dec.g[r - 2] if r > 1 else 0)
        hi = dec.g[r - 1]
        if lo < hi:
            total += float(entr(dec.coding.project_rows(P[lo:hi], r)).sum())
    return float(total)


def partition_function(seq, dec: ScaleDecomposition, k: int, q: float) -> float:
    """S_{N,k}(q) row by row: log moment sums of the generation laws up to
    k, projected power sums of the mean rows beyond."""
    gs = dec.g[-1]
    if not (0 <= k <= gs):
        raise ValueError("k = %d outside [0, g_s = %d]" % (k, gs))
    phi = np.array([seq.model_at(n).phi(q) for n in range(1, k + 1)])
    total = float(-np.log(phi).sum())
    P = seq.p_rows()
    for r in range(1, dec.s + 1):
        lo = max(k, dec.g[r - 2] if r > 1 else 0)
        hi = dec.g[r - 1]
        if lo >= hi:
            continue
        proj = dec.coding.project_rows(P[lo:hi], r)
        if q == 0.0:
            mass = (proj > 0).sum(axis=1).astype(np.float64)
        else:
            mass = (proj ** q).sum(axis=1)
        total += float(-np.log(mass).sum())
    return total


class DenseSequences:
    def __init__(self, N, d, d_tilde, tail, decomposition):
        self.N, self.d, self.d_tilde = N, d, d_tilde
        self.tail, self.decomposition = tail, decomposition


def d_sequences(seq, ifs, N: float, prefix: DensePrefixTable | None = None,
                tail_horizon: int | None = None) -> DenseSequences:
    if prefix is None:
        prefix = DensePrefixTable(ifs, seq)
    dec = decompose(ifs, seq, N, prefix)
    ks, Hk = profile_vector(seq, prefix, dec)
    gs = dec.g[-1]
    tail = tail_min(prefix, gs, horizon=tail_horizon)
    tail_part = float(prefix.H_prefix[gs]) + tail.value
    inner = float(Hk[:-1].min()) if Hk.size > 1 else math.inf
    return DenseSequences(N=float(N), d=min(inner, tail_part) / N,
                          d_tilde=float(Hk.min() / N), tail=tail,
                          decomposition=dec)


def tree_rects(tree, ifs, level: int):
    """(corner, side) arrays of the surviving level cells, composing the
    maps digit by digit along each cell's word."""
    digits = codes_to_words(tree.levels[level], level, tree.arity)
    m = digits.shape[0]
    lo = np.zeros((m, ifs.d))
    scale = np.ones((m, ifs.d))
    for pos in range(level):
        dig = digits[:, pos]
        lo += scale * ifs.T[dig]
        scale *= ifs.A[dig]
    return lo, scale


def nondegeneracy_report(seq, horizon=None, eps_grid=None) -> NondegeneracyReport:
    """The drift report from the partial means of every generation and
    their suffix minima."""
    H = seq.H_array()
    horizon = seq.horizon if horizon is None else int(horizon)
    if not (1 <= horizon <= seq.horizon):
        raise ValueError("horizon outside sequence length")
    means = np.cumsum(H[:horizon]) / np.arange(1, horizon + 1)
    if eps_grid is None:
        top = math.log(seq.n_letters)
        eps_grid = np.geomspace(1e-4, top, 48)
    eps_grid = np.sort(np.asarray(eps_grid, dtype=np.float64))[::-1]

    # suffix minima of the partial means: best certifiable drift per burn-in
    suffix_min = np.minimum.accumulate(means[::-1])[::-1]
    best = float(suffix_min.max())
    eps = None
    N_eps = None
    for e in eps_grid:
        if e <= best:
            eps = float(e)
            N_eps = int(np.argmax(suffix_min >= e)) + 1
            break
    verdict = "supercritical-at-horizon" if means.min() > 0 else "degenerate-at-horizon"
    return NondegeneracyReport(horizon=horizon, min_partial_mean=float(means.min()),
                               verdict=verdict, eps=eps, N_eps=N_eps)
