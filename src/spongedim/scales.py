"""Scale decomposition of a weight sequence against a diagonal IFS.

At resolution e^{-N} each axis k has its own clock gamma_k(N), the number of
generations needed before the cumulated contraction along k exceeds N.  Axes
with equal clocks are grouped; ordering the groups by increasing clock gives
the nested chain of direction sets D_1 superset ... superset D_s on which the
entropy profiles are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ifs import DiagonalIFS, build_projection_coding, ProjectionCoding


def kahan_cumsum(rows: np.ndarray) -> np.ndarray:
    """Compensated prefix sums along axis 0; out[0] = 0, out[n] = sum of
    the first n rows.  Column count stays small so the row loop is cheap."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64).T).T
    n, d = rows.shape
    out = np.zeros((n + 1, d))
    acc = np.zeros(d)
    comp = np.zeros(d)
    for i in range(n):
        y = rows[i] - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        out[i + 1] = acc
    return out


class PrefixTable:
    """Kahan prefix sums of the per-generation exponents chi_k(p^{(n)})
    and entropies H(W^{(n)})."""

    def __init__(self, ifs: DiagonalIFS, seq):
        if seq.n_letters != ifs.n:
            raise ValueError("sequence alphabet size %d, ifs has %d maps"
                             % (seq.n_letters, ifs.n))
        self.ifs = ifs
        self.seq = seq
        chi_rows = seq.p_rows() @ ifs.C          # (horizon, d)
        self.chi_prefix = kahan_cumsum(chi_rows)
        self.H_prefix = kahan_cumsum(seq.H_array())[:, 0]
        self.horizon = seq.horizon

    @property
    def d(self) -> int:
        return self.ifs.d

    def max_resolution(self) -> float:
        """Largest N for which every axis clock stays inside the horizon."""
        return float(self.chi_prefix[-1].min())

    def gamma(self, N: float, k: int) -> int:
        """Smallest n with sum_{m<=n} chi_k(p^{(m)}) > N (strict)."""
        col = self.chi_prefix[1:, k]
        idx = int(np.searchsorted(col, N, side="right"))
        if idx >= col.size:
            raise ValueError("horizon %d exhausted before axis %d reaches "
                             "resolution %g" % (self.horizon, k, N))
        return idx + 1


def clock_chain(clocks, rtol: float = 0.0):
    """Group axes by clock and build the nested chain of direction sets.

    Axes are taken by increasing clock (stable in the axis index); an axis
    joins the current group when its clock lies within rtol * |c| of the
    group's first clock c, so rtol = 0 means exact equality.  Returns
    (groups, chain): groups[r-1] lists the axes of A_r and chain[r-1] is the
    frozenset D_r of the axes in groups r..s."""
    clocks = np.asarray(clocks)
    groups, firsts = [], []
    for k in np.argsort(clocks, kind="stable"):
        c = clocks[k]
        if groups and abs(c - firsts[-1]) <= rtol * abs(firsts[-1]):
            groups[-1].append(int(k))
        else:
            groups.append([int(k)])
            firsts.append(c)
    chain, rest = [], [k for grp in groups for k in grp]
    for grp in groups:
        chain.append(frozenset(rest))
        rest = rest[len(grp):]
    return groups, chain


@dataclass
class ScaleDecomposition:
    N: float
    s: int
    groups: list            # groups[r-1] = sorted axes of A_r
    chain: list             # chain[r-1] = frozenset D_r
    g: list                 # g[r-1] = g_r(N); strictly increasing
    gammas: np.ndarray      # per-axis clock
    coding: ProjectionCoding = field(repr=False)

    def g_of(self, r: int) -> int:
        # g_0 = 0 by convention
        return 0 if r == 0 else self.g[r - 1]

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "s": self.s,
            "A": [[k + 1 for k in grp] for grp in self.groups],
            "g": list(self.g),
            "gamma": [int(x) for x in self.gammas],
        }


def decompose(ifs: DiagonalIFS, seq, N: float,
              prefix: PrefixTable | None = None) -> ScaleDecomposition:
    """Group axes by equal clock gamma_k(N) and build the projection chain.

    Ties are exact integer equality of the clocks.  The first group is the
    most contractive direction (smallest clock, largest exponent)."""
    if N <= 0:
        raise ValueError("resolution N must be positive")
    if prefix is None:
        prefix = PrefixTable(ifs, seq)
    gam = np.array([prefix.gamma(N, k) for k in range(ifs.d)], dtype=np.intp)
    groups, chain = clock_chain(gam)
    g = [int(gam[grp[0]]) for grp in groups]
    coding = build_projection_coding(ifs, chain)
    return ScaleDecomposition(N=float(N), s=len(groups), groups=groups,
                              chain=chain, g=g, gammas=gam, coding=coding)


@dataclass
class TailMin:
    value: float            # A_N = min_{N' in [N, horizon]} sum_{n=N+1}^{N'} H
    N_tilde: int            # smallest minimizer
    horizon: int
    horizon_limited: bool   # minimum sits at the horizon boundary


def tail_min(prefix: PrefixTable, N: int, horizon: int | None = None) -> TailMin:
    """Smallest tail sum of entropies past generation N.

    Always <= 0 (the empty tail counts).  When the minimizer lands exactly on
    the requested horizon the result is flagged: a longer table could still
    decrease it."""
    S = prefix.H_prefix
    horizon = prefix.horizon if horizon is None else min(int(horizon), prefix.horizon)
    if not (0 <= N <= horizon):
        raise ValueError("need 0 <= N <= horizon")
    seg = S[N:horizon + 1]
    j = int(np.argmin(seg))
    value = float(seg[j] - S[N])
    N_tilde = N + j
    limited = (N_tilde == horizon and horizon > N)
    return TailMin(value=value, N_tilde=N_tilde, horizon=horizon,
                   horizon_limited=limited)


def certified_tail_horizon(N: int, n_letters: int, eps: float) -> int:
    """Proven cover for the minimizing tail index once the drift
    certificate (eps, N_eps) holds at N: the minimizer lies within
    ceil(log(#letters)/eps * N)."""
    return int(math.ceil(math.log(n_letters) / eps * N))
