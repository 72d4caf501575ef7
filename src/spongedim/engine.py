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
from .scales import (PrefixTable, ScaleDecomposition, TailMin, _const_gamma,
                     _decomposition, certified_tail_horizon, clock_chain)
from .weights import (DegenerateError, WeightModel, WeightSequence, as_prob_vector,
                      entropy, nondegeneracy_report)

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
        self.alpha = None
        if alpha is not None:
            from .weights import as_survival_vector
            self.alpha = as_survival_vector(alpha, P.shape[1])
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

    def p_of_t(self, t) -> np.ndarray:
        return self.p_at_x(np.log(np.asarray(t, dtype=np.float64)))

    def discretize(self, horizon: int) -> WeightSequence:
        n = np.arange(1, int(horizon) + 1, dtype=np.float64)
        P = self.p_at_x(np.log(n))
        return WeightSequence(P=P, alpha=self.alpha)


class _PeriodTables:
    """Single-period quadrature tables; all integrals from 0 reduce to one
    period through G(lam*t) = lam*G(t)."""

    def __init__(self, pspec: PeriodicSpec, ifs: DiagonalIFS, n_steps: int):
        self.pspec = pspec
        self.ifs = ifs
        self.loglam = math.log(pspec.lam)
        self.x = np.linspace(0.0, self.loglam, n_steps + 1)
        self.t = np.exp(self.x)
        self.P = pspec.p_at_x(self.x)
        self.chi = self.P @ ifs.C                        # (n+1, d)
        H = entr(self.P).sum(axis=1)
        if pspec.alpha is not None:
            H = H + self.P @ np.log(pspec.alpha)
        self.H = H
        self.G_chi = np.array([self._base_table(self.chi[:, k])
                               for k in range(ifs.d)]).T
        self.G_H = self._base_table(self.H)
        self._proj_tables = {}

    def _base_table(self, f: np.ndarray) -> np.ndarray:
        """G(t_j) = int_0^{t_j} f for t_j in [1, lam]; the part below 1 is
        the closed geometric sum I/(lam-1)."""
        integrand = f * self.t
        steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.x)
        F = np.concatenate([[0.0], np.cumsum(steps)])
        I = F[-1]
        return I / (self.pspec.lam - 1.0) + F

    def eval_scaled(self, table: np.ndarray, t: float) -> float:
        """G(t) for any t > 0 via periodic self-similarity."""
        m = math.floor(math.log(t) / self.loglam)
        tau_x = math.log(t) - m * self.loglam
        if tau_x < 0:
            m -= 1
            tau_x += self.loglam
        return self.pspec.lam ** m * float(np.interp(tau_x, self.x, table))

    def invert(self, table: np.ndarray, T: float) -> float:
        """Smallest t with G(t) = T (G strictly increasing)."""
        G1 = table[0]
        m = math.floor(math.log(T / G1) / self.loglam)
        for _ in range(3):
            val = T / self.pspec.lam ** m
            if val < table[0]:
                m -= 1
            elif val > table[-1]:
                m += 1
            else:
                break
        val = T / self.pspec.lam ** m
        xs = float(np.interp(val, table, self.x))
        return self.pspec.lam ** m * math.exp(xs)

    def proj_table(self, D: frozenset, r: int, coding) -> np.ndarray:
        key = D
        if key not in self._proj_tables:
            proj = coding.project_rows(self.P, r)
            self._proj_tables[key] = self._base_table(entr(proj).sum(axis=1))
        return self._proj_tables[key]


@dataclass
class PeriodicDimensions:
    dim_H: float
    dim_P: float
    T: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    flags: list


def dim_exp_periodic(ifs: DiagonalIFS, pspec: PeriodicSpec,
                     quad_step: float | None = None, T_grid=None,
                     inner_points: int = 256) -> PeriodicDimensions:
    """Hausdorff and packing dimension of an exponentially periodic schedule.

    All clocks and integrals live on one period thanks to the scaling
    G(lam t) = lam G(t); clocks gamma_k(T) invert the per-axis tables, and
    per T the value is min(delta1, delta2) with delta1 the tail part and
    delta2 the profile minimum over [g_1(T), g_s(T)]."""
    if pspec.n_letters != ifs.n:
        raise ValueError("schedule alphabet size %d, ifs has %d maps"
                         % (pspec.n_letters, ifs.n))
    if quad_step is None:
        n_steps = 512
    else:
        if not (1.0 < quad_step < pspec.lam):
            raise ValueError("quadrature step must lie in (1, lam)")
        n_steps = max(8, round(math.log(pspec.lam) / math.log(quad_step)))
    tab = _PeriodTables(pspec, ifs, n_steps)

    # average-drift condition: G_H must stay positive on a full period
    drift = tab.G_H / tab.t
    if drift.min() <= 0.0:
        raise DegenerateError("periodic entropy drift dips to %g <= 0"
                              % float(drift.min()))

    if T_grid is None:
        T_grid = np.exp(np.linspace(0.0, tab.loglam, 129))
    T_grid = np.asarray(T_grid, dtype=np.float64)

    lam = pspec.lam
    two_x = np.concatenate([tab.x, tab.x[1:] + tab.loglam])
    two_GH = np.concatenate([tab.G_H, lam * tab.G_H[1:]])

    d1_rows, d2_rows = [], []
    for T in T_grid:
        gam = np.array([tab.invert(tab.G_chi[:, k], T) for k in range(ifs.d)])
        # interpolated continuous clocks: equal up to rounding means tied
        groups, chain = clock_chain(gam, rtol=1e-9)
        gvals = [float(gam[g[0]]) for g in groups]
        coding = build_projection_coding(ifs, chain)
        s = len(groups)
        g1, gs = gvals[0], gvals[-1]

        # delta1: smallest tail minimizer past g_s lies within one period
        m = math.floor(math.log(gs) / tab.loglam)
        base = math.log(gs) - m * tab.loglam
        if base < 0:
            m -= 1
            base += tab.loglam
        mask = (two_x >= base - 1e-15) & (two_x <= base + tab.loglam + 1e-15)
        seg = two_GH[mask]
        d1 = lam ** m * float(seg.min()) / T

        # delta2: profile minimum over T' in [g_1, g_s]
        tprime = np.exp(np.linspace(math.log(g1), math.log(gs), inner_points))
        tprime = np.unique(np.concatenate([tprime, np.asarray(gvals)]))
        proj_tabs = [tab.proj_table(chain[r - 1], r, coding) for r in range(2, s + 1)]
        G_at_g = [tab.eval_scaled(proj_tabs[r - 2], gvals[r - 1]) for r in range(2, s + 1)]
        best = math.inf
        for tp in tprime:
            val = tab.eval_scaled(tab.G_H, tp)
            for r in range(2, s + 1):
                lo = max(tp, gvals[r - 2])
                if lo < gvals[r - 1]:
                    val += G_at_g[r - 2] - tab.eval_scaled(proj_tabs[r - 2], lo)
            best = min(best, val)
        d2 = best / T
        d1_rows.append(d1)
        d2_rows.append(d2)

    delta1 = np.array(d1_rows)
    delta2 = np.array(d2_rows)
    v = np.minimum(delta1, delta2)
    return PeriodicDimensions(dim_H=float(v.min()), dim_P=float(v.max()),
                              T=T_grid, delta1=delta1, delta2=delta2,
                              flags=[])


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
