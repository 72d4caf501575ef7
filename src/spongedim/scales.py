"""Scale decomposition of a weight sequence against a diagonal IFS.

At resolution e^{-N} each axis k has its own clock gamma_k(N), the number of
generations needed before the cumulated contraction along k exceeds N.  Axes
with equal clocks are grouped; ordering the groups by increasing clock gives
the nested chain of direction sets D_1 superset ... superset D_s on which the
entropy profiles are evaluated.

Every prefix sum of a schedule lives in one run table: a schedule is a list
of runs (length, vector), and inside a run the sums of the entropies, of the
Lyapunov exponents and of the projected entropies are linear, so they are
kept at the run boundaries only.  ``PrefixTable`` builds the table of a
``WeightSequence`` from its blocks, merging equal adjacent ones; the
schedule optimizers build theirs from block runs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import entr

from .ifs import DiagonalIFS, build_projection_coding, ProjectionCoding
from .weights import as_survival_vector, drift_scan


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


def _const_gamma(chi: float, N: float) -> int:
    """Smallest n with n * chi > N, for a constant exponent chi."""
    n = int(N // chi) + 1
    while n > 1 and (n - 1) * chi > N:
        n -= 1
    while n * chi <= N:
        n += 1
    return n


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


# ---------------------------------------------------------------------------
# the run table


class _RunEvaluator:
    """Per-system data shared by every run table of one system: the
    entropy of a vector under the survival law, and the projection coding
    and group starts of each clock pattern met so far."""

    def __init__(self, ifs: DiagonalIFS, alpha):
        self.ifs = ifs
        self.log_alpha = (None if alpha is None
                          else np.log(as_survival_vector(alpha, ifs.n)))
        self.chains = {}
        d = ifs.d
        self.axes = np.arange(d)
        # code of a clock pattern: axis order in base d, then the tie bits
        self.order_weights = d ** self.axes * 2 ** d
        self.tie_weights = 2 ** self.axes

    def entropies(self, V: np.ndarray):
        """H of one vector, or of each row of a matrix."""
        H = entr(V).sum(axis=-1)
        if self.log_alpha is not None:
            H = H + V @ self.log_alpha
        return H


def _chain_groups(G: np.ndarray, ev: _RunEvaluator, rtol: float = 0.0):
    """Split scales (rows of the clock matrix G, one column per axis) by
    clock chain, ties taken as in ``clock_chain`` with tolerance rtol.
    Yields (coding, rows, g): the projection coding of the chain, the
    scales that share it (a slice when all do), and their distinct clocks
    g_1 < ... < g_s (each group's first) as a (scales, s) matrix."""
    order = G.argsort(axis=1, kind="stable")
    Gs = np.sort(G, axis=1)
    new = np.ones(G.shape, dtype=bool)
    lead = Gs[:, 0]         # first clock of the current group
    for k in range(1, G.shape[1]):
        new[:, k] = np.abs(Gs[:, k] - lead) > rtol * np.abs(lead)
        lead = np.where(new[:, k], Gs[:, k], lead)
    code = order @ ev.order_weights + new @ ev.tie_weights
    if G.shape[0] == 1 or (code == code[0]).all():
        parts = [(0, slice(None))]
    else:
        parts = [(rows[0], rows) for rows in
                 (np.flatnonzero(code == c) for c in np.unique(code))]
    for first, rows in parts:
        hit = ev.chains.get(int(code[first]))
        if hit is None:
            _, chain = clock_chain(G[first], rtol)
            hit = ev.chains[int(code[first])] = (
                build_projection_coding(ev.ifs, chain), np.flatnonzero(new[first]))
        yield hit[0], rows, Gs[rows][:, hit[1]]


def _range_min(F: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min F[a_i:b_i] per i, +inf where the range is empty.  ``reduceat``
    also reduces the gaps between consecutive ranges, so the ranges are
    taken in order of their starts: the gaps then add up to at most len(F)
    and the work is the ranges' total length plus len(F)."""
    if (a[1:] < a[:-1]).any():
        order = np.argsort(a, kind="stable")
        out = np.empty(a.size)
        out[order] = _range_min(F, a[order], b[order])
        return out
    idx = np.empty(2 * a.size, dtype=np.intp)
    idx[0::2], idx[1::2] = a, b
    out = np.minimum.reduceat(F, idx)[0::2]
    out[a >= b] = math.inf
    return out


def _profile_min(HPg: np.ndarray, band) -> np.ndarray:
    """min over k in [g_1, g_s] of the profile H_{N,k}, per scale, from its
    band form.  On the band [g_rho, g_{rho+1}] the profile is HP(k) -
    Q_{rho+1}(k) plus a constant (HP the prefix sums of H, Q_r those of the
    level-r projected entropies), so its minimum is at one of the two
    clocks or at a breakpoint strictly inside.  HPg holds HP at the clocks
    (scales, s); band(i) gives, for band rho = i+1 and level r = i+2, Q_r at
    g_rho and g_{rho+1} (scales, 2) and the smallest HP - Q_r at the
    breakpoints strictly inside the band."""
    best = None
    above = 0.0     # band entropies of the levels above
    for i in range(HPg.shape[1] - 2, -1, -1):
        Qg, inner = band(i)
        F = HPg[:, i:i + 2] - Qg
        const = Qg[:, 1] if best is None else Qg[:, 1] + above
        val = np.minimum(np.minimum(F[:, 0], F[:, 1]), inner) + const
        best = val if best is None else np.minimum(best, val)
        if i:
            above = above + (Qg[:, 1] - Qg[:, 0])
    return HPg[:, 0] if best is None else best


class _RunTable:
    """A schedule given as runs (length, vector), evaluated in O(#runs).

    Inside a run the prefix sums of H, of every chi_k and of every projected
    entropy are linear, so they are kept at the run boundaries E_0 = 0 <
    E_1 < ... < E_R only, in float64 over O(#runs) terms.  A clock is a
    search over boundaries plus one division, corrected by ``_const_gamma``
    where it is off.  The profile is linear inside runs, so its minimum
    (``_profile_min``) takes one range minimum over the boundaries inside
    each band.  Tail minima use suffix minima over the
    boundaries, and the admissibility scan is ``weights.drift_scan``.

    ``H`` gives the entropy of each run (default: that of its vector under
    the evaluator's survival law)."""

    def __init__(self, ev: _RunEvaluator, lengths, vectors, H=None):
        self.ev = ev
        self.L = np.asarray(lengths, dtype=np.float64)
        self.V = np.asarray(vectors, dtype=np.float64)
        R = self.L.size
        self.E = np.concatenate([[0.0], np.cumsum(self.L)])
        self.horizon = int(self.E[-1])
        # per-run values are padded with a zero run at E_R, so a position
        # m in [0, horizon] reads run searchsorted(E, m, "right") - 1
        self.H = np.append(ev.entropies(self.V) if H is None else H, 0.0)
        self.chi = np.vstack([self.V @ ev.ifs.C, np.zeros(ev.ifs.d)])
        self.HP = np.concatenate([[0.0], np.cumsum(self.L * self.H[:R])])
        self.CP = np.vstack([np.zeros(ev.ifs.d),
                             np.cumsum(self.L[:, None] * self.chi[:R], axis=0)])
        self._proj = {}

    def max_resolution(self) -> float:
        """Largest N for which every axis clock stays inside the horizon."""
        return float(self.CP[-1].min())

    def _projected(self, coding, first: int = 2):
        """(slopes, boundary prefix sums) of the projected entropies of
        levels first..s of ``coding``, one row per level."""
        key = (coding, first)
        out = self._proj.get(key)
        if out is None:
            h = np.array([entr(self.V @ M).sum(axis=1)
                          for M in coding.indicators[first - 1:]])
            zero = np.zeros((h.shape[0], 1))
            out = self._proj[key] = (
                np.concatenate([h, zero], axis=1),
                np.concatenate([zero, np.cumsum(h * self.L, axis=1)], axis=1))
        return out

    def clocks(self, Ns) -> np.ndarray:
        """gamma_k(N), the smallest n with sum_{m<=n} chi_k > N, for every
        scale (rows) and axis (columns)."""
        Ns = np.asarray(Ns, dtype=np.float64)
        if not (Ns.min() > 0.0 and math.isfinite(Ns.max())):
            bad = Ns[~(np.isfinite(Ns) & (Ns > 0.0))][0]
            raise ValueError("resolution N must be finite and positive, got %r"
                             % float(bad))
        R = self.L.size
        js = np.empty((Ns.size, self.ev.ifs.d), dtype=np.intp)
        for k in self.ev.axes:
            js[:, k] = self.CP[1:, k].searchsorted(Ns, side="right")
        if js.max() >= R:
            i, k = np.argwhere(js >= R)[0]
            raise ValueError("horizon %d exhausted before axis %d reaches "
                             "resolution %g" % (self.horizon, k, Ns[i]))
        axes = self.ev.axes
        rest = Ns[:, None] - self.CP[js, axes]
        chi = self.chi[js, axes]
        n = np.floor(rest / chi) + 1.0
        off = ((n - 1.0) * chi > rest) | (n * chi <= rest)
        for i, k in zip(*np.nonzero(off)):
            n[i, k] = _const_gamma(float(chi[i, k]), float(rest[i, k]))
        return self.E[js] + np.minimum(n, self.L[js])

    def _locate(self, x):
        """(run, offset into the run, prefix sum of H) at positions x."""
        j = self.E.searchsorted(x, side="right") - 1
        off = x - self.E[j]
        return j, off, self.HP[j] + off * self.H[j]

    def scan(self, Ns, T: int | None = None):
        """d~_N and, with a tail horizon T (cut at the table's horizon),
        d_N for every N of a grid, in one pass.  Returns (clocks, d~, d,
        tail): d~ is the profile minimum over k in [g_1, g_s] over N, d the
        smaller of it and the tail minimum over N, and tail = (T, smallest
        sum of H over the generations (g_s, N'] with g_s <= N' <= T,
        whether T is its only minimizer); d and tail are None without T."""
        Ns = np.asarray(Ns, dtype=np.float64)
        G = self.clocks(Ns)
        m = G.shape[0]
        prof = np.empty(m)
        tail = None
        if T is not None:
            T = min(int(T), self.horizon)
            if T < self.horizon and G.max() > T:
                raise ValueError("need 0 <= N <= horizon")
            tail = (np.empty(m), np.empty(m), np.empty(m, dtype=bool))
        HP = self.HP
        for coding, rows, g in _chain_groups(G, self.ev):
            j, off, HPg = self._locate(g)
            if tail is not None:
                tail[0][rows] = HPg[:, -1]
                tail[1][rows], tail[2][rows] = self._tail(j[:, -1], HPg[:, -1], T)

            def band(i):
                h, Q = self._projected(coding)
                jj = j[:, i:i + 2]
                # Q_r at the clocks, and the boundaries strictly inside
                return (Q[i][jj] + off[:, i:i + 2] * h[i][jj],
                        _range_min(HP - Q[i], jj[:, 0] + 1, jj[:, 1] + (off[:, i + 1] > 0)))

            prof[rows] = _profile_min(HPg, band)
        if tail is None:
            return G, prof / Ns, None, None
        base, low, limited = tail
        return G, prof / Ns, np.minimum(prof, low) / Ns, (T, low - base, limited)

    def _tail(self, j, base, T: int):
        """Per start position x <= T in run j, with HP(x) = base: (the
        smallest prefix sum of H over the generations [x, T], whether T is
        its only minimizer)."""
        jT, _, at_T = self._locate(T)
        # suffix minima over the boundaries strictly inside (x, T): those
        # in [j + 1, b), with an empty range reading +inf
        b = jT + int(self.E[jT] < T)
        inner = np.full(b + 1, math.inf)
        inner[:b] = np.minimum.accumulate(self.HP[:b][::-1])[::-1]
        before = np.minimum(base, inner[np.minimum(j + 1, b)])
        return np.minimum(before, at_T), at_T < before

    def profile_at(self, g, coding, k: int) -> float:
        """H_{N,k} at one scale with distinct clocks g and chain coding
        ``coding``, for any 0 <= k <= g_s."""
        h, Q = self._projected(coding, first=1)
        g = np.asarray(g, dtype=np.float64)
        # level r counts the generations in (clip(k, g_{r-1}, g_r), g_r]
        lo = np.minimum(np.maximum(k, np.concatenate([[0.0], g[:-1]])), g)
        j, off, HPpos = self._locate(np.concatenate([[k], lo, g]))
        lev, jl, jh = np.arange(g.size), j[1:g.size + 1], j[g.size + 1:]
        Qlo = Q[lev, jl] + off[1:g.size + 1] * h[lev, jl]
        Qhi = Q[lev, jh] + off[g.size + 1:] * h[lev, jh]
        return float(HPpos[0] + (Qhi - Qlo).sum())

    def d_tilde(self, Ns) -> np.ndarray:
        """min_k H_{N,k} / N over k in [g_1, g_s], per scale."""
        return self.scan(Ns)[1]

    def d_lower(self, Ns) -> np.ndarray:
        """min(profile minimum, tail minimum) / N, per scale."""
        return self.scan(Ns, self.horizon)[2]

    def admissible(self, M0: int, rate: float) -> bool:
        """sum_{n<=M} H >= rate*M for every M in [M0, horizon]."""
        M, S = drift_scan(self.L, self.H[:-1], M0)
        return bool((S - rate * M).min(initial=math.inf) >= 0.0)


class PrefixTable(_RunTable):
    """The run table of a weight sequence, built from its blocks in
    O(blocks): equal adjacent blocks merge into one run.  Each run keeps the
    sequence's own entropy H(W^{(n)}): that of its mean vector under the
    shared survival law, or that of its explicit law, so finite-atom laws
    are exact.  A dense schedule is one block per row."""

    def __init__(self, ifs: DiagonalIFS, seq):
        if seq.n_letters != ifs.n:
            raise ValueError("sequence alphabet size %d, ifs has %d maps"
                             % (seq.n_letters, ifs.n))
        V = seq.V
        change = (V[1:] != V[:-1]).any(axis=1)
        # explicit laws (finite-atom ones) carry their own H; blocks under
        # the shared survival law alpha get it from the evaluator
        explicit = seq.models is not None
        if explicit:
            change |= seq.H[1:] != seq.H[:-1]
        starts = np.flatnonzero(np.concatenate([[True], change]))
        super().__init__(_RunEvaluator(ifs, seq.alpha), np.add.reduceat(seq.L, starts),
                         V[starts], H=seq.H[starts] if explicit else None)


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
    if prefix is None:
        prefix = PrefixTable(ifs, seq)
    return _decomposition(ifs, N, prefix.clocks([N])[0])


def _decomposition(ifs: DiagonalIFS, N: float, clocks) -> ScaleDecomposition:
    """The decomposition at resolution N with per-axis clocks ``clocks``."""
    gam = np.asarray(clocks).astype(np.intp)
    groups, chain = clock_chain(gam)
    g = [int(gam[grp[0]]) for grp in groups]
    coding = build_projection_coding(ifs, chain)
    return ScaleDecomposition(N=float(N), s=len(groups), groups=groups,
                              chain=chain, g=g, gammas=gam, coding=coding)


@dataclass
class TailMin:
    value: float            # A_N = min_{N' in [N, horizon]} sum_{n=N+1}^{N'} H
    horizon: int
    horizon_limited: bool   # the horizon is the only minimizer


def tail_min(prefix: PrefixTable, N: int, horizon: int | None = None) -> TailMin:
    """Smallest tail sum of entropies past generation N.

    Always <= 0 (the empty tail counts).  When the minimizer lands exactly on
    the requested horizon the result is flagged: a longer table could still
    decrease it."""
    horizon = prefix.horizon if horizon is None else min(int(horizon), prefix.horizon)
    if not 0 <= N <= horizon:
        raise ValueError("need 0 <= N <= horizon")
    j, _, base = prefix._locate(np.array([N], dtype=np.float64))
    low, limited = prefix._tail(j, base, horizon)
    return TailMin(value=float(low[0] - base[0]), horizon=horizon,
                   horizon_limited=bool(limited[0]))


def certified_tail_horizon(N: int, n_letters: int, eps: float) -> int:
    """Proven cover for the minimizing tail index once the drift
    certificate (eps, N_eps) holds at N: the minimizer lies within
    ceil(log(#letters)/eps * N)."""
    return int(math.ceil(math.log(n_letters) / eps * N))
