"""Entropy profiles and dimension formulas.

Everything here reduces to one object: the profile H_{N,k}, a partial sum of
generation entropies up to k plus projected entropies on the coarser
direction sets between k and the last clock g_s(N).  Hausdorff and packing
dimensions of the limit measures are liminf/limsup over N of minima of these
profiles, normalized by N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import entr

from .ifs import DiagonalIFS, build_projection_coding
from .scales import (PrefixTable, ScaleDecomposition, TailMin, _chain_groups,
                     _const_gamma, _decomposition, _profile_min, _range_min,
                     _RunEvaluator, certified_tail_horizon, clock_chain)
from .weights import (DegenerateError, WeightModel, WeightSequence, as_prob_vector,
                      as_survival_vector, entropy, nondegeneracy_report)

DEGENERATE_TOL = 1e-12


# ---------------------------------------------------------------------------
# profiles and the two dimension sequences


def entropy_profile(seq: WeightSequence, dec: ScaleDecomposition, k: int,
                    prefix: PrefixTable | None = None,
                    ifs: DiagonalIFS | None = None) -> float:
    """H_{N,k}: entropies up to generation k, projected entropies beyond."""
    gs = dec.g[-1]
    if not (0 <= k <= gs):
        raise ValueError("k = %d outside [0, g_s = %d]" % (k, gs))
    if prefix is None:
        if ifs is None:
            raise ValueError("need a PrefixTable or the ifs to build one")
        prefix = PrefixTable(ifs, seq)
    return prefix.profile_at(dec.g, dec.coding, k)


@dataclass
class DSequences:
    N: float
    d: float
    d_tilde: float
    tail: TailMin
    decomposition: ScaleDecomposition = field(repr=False)
    flags: list = field(default_factory=list)


def d_sequences(seq: WeightSequence, ifs: DiagonalIFS, N: float,
                prefix: PrefixTable | None = None,
                tail_horizon: int | None = None) -> DSequences:
    """The lower (d_N) and upper (d~_N) dimension sequences at resolution N.

    d~_N minimizes the profile over k in [g_1, g_s]; d_N also admits full
    prefix sums past g_s (the tail minimum), and in the conformal case s = 1
    consists of the tail part alone."""
    if prefix is None:
        prefix = PrefixTable(ifs, seq)
    G, dt, d, (T, value, limited) = prefix.scan(
        [N], prefix.horizon if tail_horizon is None else tail_horizon)
    tail = TailMin(value=float(value[0]), horizon=T, horizon_limited=bool(limited[0]))
    flags = ["tail-horizon-limited"] if tail.horizon_limited else []
    return DSequences(N=float(N), d=float(d[0]), d_tilde=float(dt[0]), tail=tail,
                      decomposition=_decomposition(ifs, N, G[0]), flags=flags)


# ---------------------------------------------------------------------------
# Mandelbrot measures: closed form via the stabilized clock partition


def stable_chain(ifs: DiagonalIFS, p, start: int = 8, stop: int = 40):
    """Clock partition of the axes for a constant sequence, taken at the
    first dyadic resolution where two consecutive doublings agree."""
    chi = ifs.lyapunov(as_prob_vector(p))
    prev = None
    for j in range(start, stop + 1):
        groups, chain = clock_chain([_const_gamma(c, float(2 ** j)) for c in chi])
        if groups == prev:
            chi_tilde = np.array([chi[g].mean() for g in groups])
            return groups, chain, chi_tilde, 2 ** (j - 1)
        prev = groups
    raise ValueError("axis clock partition failed to stabilize")


@dataclass
class MandelbrotDimension:
    value: float
    H: float
    groups: list
    chi_tilde: np.ndarray
    breakdown: list
    reference_N: int
    flags: list


def dim_mandelbrot(ifs: DiagonalIFS, W: WeightModel) -> MandelbrotDimension:
    """Dimension of the limit measure of a fixed weight law.

    Requires H(W) >= 0; H(W) < 0 gives an a.s. vanishing measure and raises.
    The value is H/chi~_1 plus one correction per coarser clock group,
    (1/chi~_r - 1/chi~_{r-1}) * min(H, h(Pi_r p))."""
    p = W.mean()
    H = W.entropy_H()
    if H < -DEGENERATE_TOL:
        raise DegenerateError("H(W) = %g < 0: the measure is degenerate" % H)
    flags = ["degenerate-boundary"] if H <= DEGENERATE_TOL else []
    groups, chain, chi_tilde, refN = stable_chain(ifs, p)
    coding = build_projection_coding(ifs, chain)
    value = H / chi_tilde[0]
    breakdown = [{"r": 1, "chi": float(chi_tilde[0]), "term": H,
                  "contribution": float(value)}]
    for r in range(2, len(groups) + 1):
        coeff = 1.0 / chi_tilde[r - 1] - 1.0 / chi_tilde[r - 2]
        hproj = entropy(coding.project_vector(p, r))
        term = min(H, hproj)
        value += coeff * term
        breakdown.append({"r": r, "chi": float(chi_tilde[r - 1]),
                          "coeff": float(coeff), "h_proj": float(hproj),
                          "term": float(term),
                          "contribution": float(coeff * term)})
    return MandelbrotDimension(value=float(value), H=float(H), groups=groups,
                               chi_tilde=chi_tilde, breakdown=breakdown,
                               reference_N=refN, flags=flags)


def mandelbrot_value(ifs: DiagonalIFS, p: np.ndarray, H: float) -> float:
    """Objective used by optimizers: same closed form, chain from the exact
    ordering of chi(p), tie groups merged.  Extends continuously below
    H = 0 (where it equals H/chi~_s < 0)."""
    chi = p @ ifs.C
    groups, chain = clock_chain(-chi)
    coding = build_projection_coding(ifs, chain)
    chi_tilde = np.array([chi[g].mean() for g in groups])
    value = H / chi_tilde[0]
    for r in range(2, len(groups) + 1):
        coeff = 1.0 / chi_tilde[r - 1] - 1.0 / chi_tilde[r - 2]
        hproj = entropy(coding.project_vector(p, r))
        value += coeff * min(H, hproj)
    return float(value)


# ---------------------------------------------------------------------------
# inhomogeneous sequences: finite-horizon liminf/limsup estimates


@dataclass
class DimensionProfile:
    N: np.ndarray
    d: np.ndarray
    d_tilde: np.ndarray
    tail_flags: np.ndarray


@dataclass
class IMMBounds:
    dim_H_estimate: float
    dim_P_estimate: float
    liminf_d_tilde: float
    profile: DimensionProfile
    oscillation: dict
    converged: bool
    flags: list


def dim_imm_bounds(seq: WeightSequence, ifs: DiagonalIFS,
                   N_grid=None, tail_horizon: int | None = None,
                   window_frac: float = 0.5, osc_tol: float = 1e-3) -> IMMBounds:
    """Finite-horizon estimates of liminf/limsup of d_N.

    The estimates are minima/maxima over the tail window of the N grid
    (labelled at-horizon; nothing asymptotic is certified).  The oscillation
    diagnostic compares the window estimate with the estimate over its later
    half; disagreement beyond osc_tol marks the estimate unconverged."""
    rep = nondegeneracy_report(seq)
    if rep.verdict != "supercritical-at-horizon":
        raise DegenerateError("entropy drift at horizon is %g <= 0"
                              % rep.min_partial_mean)
    prefix = PrefixTable(ifs, seq)
    maxN = prefix.max_resolution() * (1.0 - 1e-12) - 1e-12
    if N_grid is None:
        N_grid = np.geomspace(max(4.0, maxN / 64.0), maxN, 128)
    N_grid = np.asarray(N_grid, dtype=np.float64)
    if N_grid.max() > maxN:
        raise ValueError("N grid exceeds the horizon resolution %g" % maxN)
    G, dt, d, (_, _, limited) = prefix.scan(
        N_grid, prefix.horizon if tail_horizon is None else tail_horizon)
    flags = []
    if tail_horizon is None and rep.eps is not None:
        # certified cover for every tail minimizer on the grid
        need = certified_tail_horizon(int(G.max()), seq.n_letters, rep.eps)
        if need > prefix.horizon:
            flags.append("tail-horizon-limited")
    profile = DimensionProfile(N=N_grid, d=d, d_tilde=dt,
                               tail_flags=limited)
    w0 = int(len(N_grid) * (1.0 - window_frac))
    w1 = (w0 + len(N_grid)) // 2
    osc = {
        "liminf_d": abs(float(d[w0:].min()) - float(d[w1:].min())),
        "limsup_d": abs(float(d[w0:].max()) - float(d[w1:].max())),
        "liminf_d_tilde": abs(float(dt[w0:].min()) - float(dt[w1:].min())),
    }
    converged = max(osc.values()) <= osc_tol
    if not converged:
        flags.append("oscillation-above-threshold")
    if np.any(profile.tail_flags):
        if "tail-horizon-limited" not in flags:
            flags.append("tail-horizon-limited")
    return IMMBounds(dim_H_estimate=float(d[w0:].min()),
                     dim_P_estimate=float(d[w0:].max()),
                     liminf_d_tilde=float(dt[w0:].min()),
                     profile=profile, oscillation=osc,
                     converged=converged, flags=flags)


# ---------------------------------------------------------------------------
# Legendre-side partition functions


def partition_function(seq: WeightSequence, dec: ScaleDecomposition, k: int,
                       q: float) -> float:
    """S_{N,k}(q): log moment sums up to k, projected pressure terms beyond.
    Its derivative at q = 1 recovers the entropy profile H_{N,k}."""
    gs = dec.g[-1]
    if not (0 <= k <= gs):
        raise ValueError("k = %d outside [0, g_s = %d]" % (k, gs))
    phi = seq.phi_array(q)[:k]
    total = float(-np.log(phi).sum())
    P = seq.p_rows()
    for r in range(1, dec.s + 1):
        lo = max(k, dec.g_of(r - 1))
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


# ---------------------------------------------------------------------------
# exponentially periodic schedules (continuous-parameter analysis)


class PeriodicSpec:
    """p^{(t)} periodic in log t: piecewise linear between knots on one
    period [1, lam), wrapping back to the first knot at lam."""

    def __init__(self, lam: float, knot_t, knot_p, alpha=None):
        self.lam = float(lam)
        if not self.lam > 1.0:
            raise ValueError("period ratio lam must be > 1")
        t = np.asarray(knot_t, dtype=np.float64)
        P = np.array([as_prob_vector(row) for row in knot_p])
        if t.ndim != 1 or t.size != P.shape[0] or t.size == 0:
            raise ValueError("need one knot time per knot vector")
        if t[0] != 1.0:
            raise ValueError("first knot must sit at t = 1")
        if np.any(np.diff(t) <= 0) or t[-1] >= self.lam:
            raise ValueError("knot times must increase strictly inside [1, lam)")
        self.knot_t = t
        self.knot_p = P
        self.alpha = None if alpha is None else as_survival_vector(alpha, P.shape[1])
        # wrap knot: p(lam) = p(1)
        self._x = np.concatenate([np.log(t), [math.log(self.lam)]])
        self._P = np.vstack([P, P[:1]])

    @property
    def n_letters(self) -> int:
        return self.knot_p.shape[1]

    def p_at_x(self, x) -> np.ndarray:
        """Rows p(e^{x mod log lam}) for an array of log-times."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        xm = np.mod(x, math.log(self.lam))
        out = np.empty((x.size, self.n_letters))
        for i in range(self.n_letters):
            out[:, i] = np.interp(xm, self._x, self._P[:, i])
        return out

    def discretize(self, horizon: int) -> WeightSequence:
        n = np.arange(1, int(horizon) + 1, dtype=np.float64)
        P = self.p_at_x(np.log(n))
        return WeightSequence(P=P, alpha=self.alpha)


class _PeriodTables:
    """Quadrature tables G(t) = int_0^t f of functions f of one period in
    log t: trapezoid steps in x = log t over [1, lam], plus the closed
    geometric sum I/(lam-1) for the part below 1.  As G(lam*t) = lam*G(t),
    a table is lam^p times its base period on period p, piecewise linear in
    x with breakpoint i = p*n + j at x_j + p*log(lam).  Only the base period
    is kept, so the memory is O(n_steps) whatever lam."""

    def __init__(self, pspec: PeriodicSpec, ifs: DiagonalIFS, n_steps: int):
        self.lam = pspec.lam
        self.loglam = math.log(pspec.lam)
        self.n = n_steps
        self.x = x = np.linspace(0.0, self.loglam, n_steps + 1)
        self.t = np.exp(x)
        self.P = pspec.p_at_x(x)
        self.ev = _RunEvaluator(ifs, pspec.alpha)
        self.G_H = self._base_table(self.ev.entropies(self.P))
        self.G_chi = [self._base_table(chi) for chi in (self.P @ ifs.C).T]
        self._proj = {}

    def _base_table(self, f: np.ndarray) -> np.ndarray:
        integrand = f * self.t
        steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.x)
        F = np.concatenate([[0.0], np.cumsum(steps)])
        F += F[-1] / (self.lam - 1.0)
        F[-1] = self.lam * F[0]         # the next period's first value
        return F

    def _projected(self, coding):
        """Base tables of the projected entropies of levels 2..s."""
        out = self._proj.get(coding)
        if out is None:
            out = self._proj[coding] = [self._base_table(entr(self.P @ M).sum(axis=1))
                                        for M in coding.indicators[1:]]
        return out

    def _solve(self, F: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Log-times x where the increasing table F reaches T."""
        p = np.floor(np.log(T / F[0]) / self.loglam)
        return p * self.loglam + np.interp(T / self.lam ** p, F, self.x)

    def _range_min(self, F: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """min of F over breakpoints a..b-1, +inf where empty: the partial
        periods at both ends from the base table; over the whole periods
        between, lam^p*m (m the base minimum) is least at the first when
        m >= 0 and at the last otherwise."""
        (pa, ja), (pb, jb) = np.divmod(a, self.n), np.divmod(b, self.n)
        one = pa == pb
        head = self.lam ** pa * _range_min(F, ja, np.where(one, jb, self.n))
        tail = self.lam ** pb * _range_min(F, 0 * jb, np.where(one, 0, jb))
        m = F[:-1].min()
        whole = self.lam ** np.where(m >= 0.0, pa + 1, pb - 1) * m
        out = np.minimum(np.minimum(head, tail),
                         np.where(pb - pa >= 2, whole, math.inf))
        out[a >= b] = math.inf
        return out

    def deltas(self, T: np.ndarray):
        """(delta1, delta2) at resolutions T in [1, lam]: the tail minimum
        and the profile minimum over [g_1, g_s], each over T."""
        GH = self.G_H
        gam = np.exp(np.column_stack([self._solve(G, T) for G in self.G_chi]))
        d1, d2 = np.empty(T.size), np.empty(T.size)
        # interpolated continuous clocks: equal up to rounding means tied
        for coding, rows, g in _chain_groups(gam, self.ev, rtol=1e-9):
            # clock = lam^p * e^r, r in the base period [0, log lam)
            p = np.floor(np.log(g) / self.loglam)
            r, scale = np.log(g) - p * self.loglam, self.lam ** p
            start = p.astype(np.int64) * self.n
            above = start + self.x[:-1].searchsorted(r, "right")  # first past a clock
            below = start + self.x[:-1].searchsorted(r, "left")   # first at or past it
            GHg = scale * np.interp(r, self.x, GH)
            # the tail: the empty one at g_s, or one ending at one of the n
            # breakpoints in (g_s, lam*g_s]
            a = above[:, -1]
            d1[rows] = np.minimum(GHg[:, -1], self._range_min(GH, a, a + self.n))

            def band(i):
                Q = self._projected(coding)[i]
                return (scale[:, i:i + 2] * np.interp(r[:, i:i + 2], self.x, Q),
                        self._range_min(GH - Q, above[:, i], below[:, i + 1]))

            d2[rows] = _profile_min(GHg, band)
        return d1 / T, d2 / T


@dataclass
class PeriodicDimensions:
    dim_H: float
    dim_P: float
    T: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    flags: list


T_POINTS = 129          # grid of log T over one period, both ends included
REFINE_POINTS = 17      # evaluations per extreme and refinement round
REFINE_ROUNDS = 5


def dim_exp_periodic(ifs: DiagonalIFS, pspec: PeriodicSpec,
                     quad_step: float | None = None) -> PeriodicDimensions:
    """Hausdorff and packing dimension of an exponentially periodic schedule.

    All clocks and integrals live on one period thanks to the scaling
    G(lam t) = lam G(t); per resolution T the value is v(T) = min(delta1,
    delta2), delta1 the tail minimum and delta2 the profile minimum over
    [g_1(T), g_s(T)], both exact on the quadrature breakpoints.  v is
    periodic in log T; dim_H and dim_P are its extremes over a grid of one
    period, each refined on finer grids around the best grid point."""
    if pspec.n_letters != ifs.n:
        raise ValueError("schedule alphabet size %d, ifs has %d maps"
                         % (pspec.n_letters, ifs.n))
    n_steps = 512
    if quad_step is not None:
        if not (1.0 < quad_step < pspec.lam):
            raise ValueError("quadrature step must lie in (1, lam)")
        n_steps = max(8, round(math.log(pspec.lam) / math.log(quad_step)))
    tab = _PeriodTables(pspec, ifs, n_steps)

    # average-drift condition: G_H must stay positive on a full period
    drift = tab.G_H / tab.t
    if drift.min() <= 0.0:
        raise DegenerateError("periodic entropy drift dips to %g <= 0"
                              % float(drift.min()))

    x = np.linspace(0.0, tab.loglam, T_POINTS)
    T = np.exp(x)
    delta1, delta2 = tab.deltas(T)
    dim_H, dim_P = _extremes(tab, x, np.minimum(delta1, delta2))
    return PeriodicDimensions(dim_H=dim_H, dim_P=dim_P, T=T,
                              delta1=delta1, delta2=delta2, flags=[])


def _extremes(tab: _PeriodTables, x: np.ndarray, v: np.ndarray):
    """(inf, sup) of v(T) = min(delta1, delta2), periodic in log T, from
    its values v on the grid x of log T.  Each extreme is refined in rounds
    of REFINE_POINTS evaluations over the two cells around the best point
    so far, the cells shrinking 8-fold per round; log T wraps at log lam."""
    sign = np.array([[1.0], [-1.0]])    # minimize sign * v: the inf, the sup
    w = sign * v
    k = w.argmin(axis=1)
    best, centers = w[[0, 1], k], x[k]
    h = x[1] - x[0]
    for _ in range(REFINE_ROUNDS):
        xs = centers[:, None] + h * np.linspace(-1.0, 1.0, REFINE_POINTS)
        d1, d2 = tab.deltas(np.exp(np.mod(xs, tab.loglam)).ravel())
        w = sign * np.minimum(d1, d2).reshape(xs.shape)
        k = w.argmin(axis=1)
        best, centers = np.minimum(best, w[[0, 1], k]), xs[[0, 1], k]
        h *= 2.0 / (REFINE_POINTS - 1)
    return float(best[0]), float(-best[1])


# ---------------------------------------------------------------------------
# the three-weight block schedule separating d_N from d~_N


def two_point_mean_one(target: float, lo: float = 0.5) -> tuple[float, float, float]:
    """Two-point law X in {lo, hi} with E(X) = 1 and E(X log X) = target
    (target >= 0).  Returns (prob_lo, lo, hi)."""
    if target < 0:
        raise ValueError("E(X log X) >= 0 for mean-one X")
    if target == 0.0:
        return 0.0, 1.0, 1.0
    if not (0 < lo < 1):
        raise ValueError("low atom must sit in (0, 1)")

    def g(hi):
        s = (hi - 1.0) / (hi - lo)
        return s * lo * math.log(lo) + (1.0 - s) * hi * math.log(hi)

    hi = 2.0
    while g(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("target %g unreachable with low atom %g" % (target, lo))
    a, b = 1.0 + 1e-12, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if g(mid) < target:
            a = mid
        else:
            b = mid
    hi = 0.5 * (a + b)
    return (hi - 1.0) / (hi - lo), lo, hi


def scaled_weight_model(p, target_H: float, lo: float = 0.5) -> WeightModel:
    """W = p * X with X a two-point mean-one scalar: H(W) = h(p) - E(X log X).
    target_H below h(p) is reachable; target_H = h(p) gives the
    deterministic law."""
    p = as_prob_vector(p)
    tau = entropy(p) - target_H
    if tau < 0:
        raise ValueError("target entropy exceeds h(p)")
    if tau == 0.0:
        return WeightModel.deterministic(p)
    s, xl, xh = two_point_mean_one(tau, lo=lo)
    ones = np.ones(p.size)
    return WeightModel.atoms([(s, ones, p * xl), (1.0 - s, ones, p * xh)])


@dataclass
class ThreeWeightSchedule:
    seq: WeightSequence
    rounds: list            # dicts with N1, N2, M0..M3
    models: list
    H_values: tuple


def three_weight_gap_sequence(ifs: DiagonalIFS, p, H1: float, H3: float,
                              horizon: int, N1_init: int = 8) -> ThreeWeightSchedule:
    """Block schedule on a two-clock sponge whose d_N dips strictly below
    d~_N along a sparse subsequence of scales.

    Three laws with common mean p: H(W_1) = H1 strictly between the coarse
    projected entropy and h(p); W_2 deterministic (H2 = h(p)); H(W_3) = H3 < 0.
    Rounds place W_2 between the two clocks of a scale N_1..N_2 window and
    append just enough W_3 to cancel the W_2 entropy, making the tail minimum
    at the probe scales undercut every profile value."""
    p = as_prob_vector(p)
    chi = ifs.lyapunov(p)
    groups, chain, chi_tilde, _ = stable_chain(ifs, p)
    if len(groups) != 2:
        raise ValueError("need exactly two clock groups at p")
    coding = build_projection_coding(ifs, chain)
    h_proj = entropy(coding.project_vector(p, 2))
    H2 = entropy(p)
    if not (h_proj < H1 < H2):
        raise ValueError("need h(Pi_2 p) = %g < H1 < h(p) = %g" % (h_proj, H2))
    if H3 >= 0:
        raise ValueError("H3 must be negative")
    W1 = scaled_weight_model(p, H1, lo=0.5)
    W2 = WeightModel.deterministic(p)
    W3 = scaled_weight_model(p, H3, lo=0.05)
    kappa = chi_tilde[0] / chi_tilde[1]
    chi2 = float(chi_tilde[1])

    def g2(N):
        return _const_gamma(chi2, N)

    lengths, idx, rounds = [], [], []
    M0, N1 = 1, int(N1_init)
    while M0 <= horizon:
        N2 = math.ceil(kappa * N1)
        M1, M2 = g2(N1), g2(N2)
        M3 = M2 + math.ceil((M2 - M1) * H2 / abs(H3))
        for a, b, j in ((M0, M1, 0), (M1 + 1, M2, 1), (M2 + 1, M3, 2)):
            b = min(b, horizon)
            if b >= a:
                lengths.append(b - a + 1)
                idx.append(j)
        rounds.append({"N1": N1, "N2": N2, "M0": M0, "M1": M1,
                       "M2": M2, "M3": M3})
        if M3 >= horizon:
            break
        M0 = M3 + 1
        N1 = math.ceil(chi2 * M3 * M3)
        while g2(N1 - 1) > M3 * M3:
            N1 -= 1
    models = [W1, W2, W3]
    seq = WeightSequence.from_models([models[j] for j in idx], lengths)
    return ThreeWeightSchedule(seq=seq, rounds=rounds, models=models,
                               H_values=(W1.entropy_H(), H2, W3.entropy_H()))
