"""Variational principles over probability vectors and block schedules.

Four layers: a generic multistart maximizer on the simplex, the closed-form
weighted pressure for equal linear parts (a log-sum-exp recursion along the
projection chain), the attractor dimension as an infimum of pressures, and
coordinate-ascent optimizers over block schedules (Hausdorff side with an
entropy-drift class, packing side with per-scale profile maxima).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from scipy.special import entr

from .engine import _const_gamma, mandelbrot_value, dim_mandelbrot
from .ifs import DiagonalIFS, build_projection_coding, RECT_TOL
from .weights import (DegenerateError, WeightModel, WeightSequence,
                      as_survival_vector, entropy, p_max_vector, validate_type_ell)


def softmax(x: np.ndarray) -> np.ndarray:
    z = np.exp(x - x.max())
    return z / z.sum()


@dataclass
class OptimizationResult:
    value: float
    argument: object
    residual: float
    iterations: int
    n_starts: int
    trace: list = field(repr=False, default_factory=list)
    flags: list = field(default_factory=list)
    extras: dict = field(repr=False, default_factory=dict)


def maximize_on_simplex(f, n: int, starts: int = 32, seed: int = 0,
                        extra_starts=(), residual_tol: float = 1e-8,
                        max_polish_iter: int = 500,
                        nm_maxiter: int | None = None) -> OptimizationResult:
    """Multistart Nelder-Mead in softmax coordinates, then gradient-ascent
    polish with finite differences.  The residual is the sup norm of the
    centred finite-difference gradient at the returned point."""
    rng = np.random.default_rng(seed)
    xs = [np.zeros(n)]
    for p0 in extra_starts:
        xs.append(np.log(np.maximum(np.asarray(p0, dtype=np.float64), 1e-300)))
    while len(xs) < starts:
        xs.append(np.log(np.maximum(rng.dirichlet(np.ones(n)), 1e-12)))

    def F(x):
        return f(softmax(x))

    best_x, best_v = None, -math.inf
    trace = []
    for x0 in xs:
        res = minimize(lambda x: -F(x), x0, method="Nelder-Mead",
                       options={"maxiter": nm_maxiter or 300 * n,
                                "fatol": 1e-13, "xatol": 1e-9})
        v = -res.fun
        trace.append((float(F(x0)), float(v)))
        if v > best_v:
            best_v, best_x = v, res.x.copy()

    # ascent polish; the all-ones direction is flat, project it out
    x, fx = best_x, best_v
    h = 1e-6
    residual = math.inf
    it = 0
    for it in range(1, max_polish_iter + 1):
        g = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            g[i] = (F(x + e) - F(x - e)) / (2 * h)
        g -= g.mean()
        residual = float(np.abs(g).max())
        if residual <= residual_tol:
            break
        step = 1.0
        moved = False
        while step > 1e-16:
            xn = x + step * g
            fn = F(xn)
            if fn > fx:
                x, fx = xn, fn
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    p = softmax(x)
    flags = []
    if abs(f(p) - fx) > 1e-9:
        flags.append("re-evaluation-mismatch")
    return OptimizationResult(value=float(fx), argument=p, residual=residual,
                              iterations=it, n_starts=len(xs), trace=trace,
                              flags=flags)


# ---------------------------------------------------------------------------
# sup over fixed weight laws


def optimize_mandelbrot(ifs: DiagonalIFS, alpha=None, starts: int = 32,
                        seed: int = 0) -> OptimizationResult:
    """Largest dimension among fixed weight laws: deterministic laws when
    alpha is None, percolation laws W_i = p_i 1{c_i}/alpha_i otherwise.

    The objective is concave (minimum of concave entropy terms), so the
    multistart is belt and braces; a nonpositive maximum is reported as
    dimension zero with a degenerate-sup flag."""
    cache: dict = {}
    if alpha is not None:
        alpha = as_survival_vector(alpha, ifs.n)
        log_alpha = np.log(alpha)

        def f(p):
            H = entropy(p) + float(p @ log_alpha)
            return mandelbrot_value(ifs, p, H, cache)

        extra = [p_max_vector(alpha)]
    else:

        def f(p):
            return mandelbrot_value(ifs, p, entropy(p), cache)

        extra = []
    res = maximize_on_simplex(f, ifs.n, starts=starts, seed=seed,
                              extra_starts=extra)
    p = res.argument
    model = (WeightModel.deterministic(p) if alpha is None
             else WeightModel.percolation(p, alpha))
    res.extras["model"] = model
    res.extras["H"] = model.entropy_H()
    if res.value <= 0.0:
        res.flags.append("degenerate-sup")
        res.value = 0.0
    else:
        res.extras["closed_form_value"] = dim_mandelbrot(ifs, model).value
    return res


# ---------------------------------------------------------------------------
# weighted pressure for equal linear parts


class PressureContext:
    """Chain data shared by all pressure evaluations on one system."""

    def __init__(self, ifs: DiagonalIFS, alpha):
        if not np.all(np.abs(ifs.A - ifs.A[0]) <= RECT_TOL):
            raise ValueError("weighted pressure needs equal linear parts")
        self.ifs = ifs
        self.alpha = as_survival_vector(alpha, ifs.n)
        chi = ifs.C[0]
        order = np.argsort(-chi, kind="stable")
        groups, vals = [], []
        for k in order:
            if vals and chi[k] == vals[-1]:
                groups[-1].append(int(k))
            else:
                groups.append([int(k)])
                vals.append(chi[k])
        self.groups = groups
        self.chi_tilde = np.array([chi[g].mean() for g in groups])
        chain, rest = [], [k for g in groups for k in g]
        for g in groups:
            chain.append(frozenset(rest))
            rest = [k for k in rest if k not in g]
        self.chain = chain
        self.coding = build_projection_coding(ifs, chain)
        self.s = len(groups)
        # expected offspring per class and level
        self.EN = [np.bincount(self.coding.class_index[r - 1], weights=self.alpha,
                               minlength=self.coding.n_classes(r))
                   for r in range(1, self.s + 1)]

    def lift_to_letters(self, u: np.ndarray, r: int) -> np.ndarray:
        """p on letters with level-r marginal u, spread within each fiber
        proportionally to alpha."""
        cls = self.coding.class_index[r - 1]
        return u[cls] * self.alpha / self.EN[r - 1][cls]


def weighted_pressure(ifs: DiagonalIFS, alpha, r: int, theta: float,
                      ctx: PressureContext | None = None):
    """P_r(theta) and its unique maximizing vector on the level-r classes.

    The objective theta*<u, phi_r> + h(u)/chi~_r + sum of projected-entropy
    corrections telescopes into conditional entropies weighted by 1/chi~_rho,
    so the supremum is an exact log-sum-exp recursion up the chain and the
    maximizer is the corresponding Gibbs chain."""
    if ctx is None:
        ctx = PressureContext(ifs, alpha)
    if not (1 <= r <= ctx.s):
        raise ValueError("level r = %d outside 1..%d" % (r, ctx.s))
    chi = ctx.chi_tilde
    # V on level-r classes; W up the chain by softmax aggregation
    V = theta * np.log(ctx.EN[r - 1]) / chi[r - 1]
    levels = list(range(r, ctx.s + 1))
    Ws = {r: V}
    for rho in levels[:-1]:
        cmap = ctx.coding.chain_maps[rho]          # classes rho -> rho+1
        scaled = chi[rho - 1] * Ws[rho]
        n_next = ctx.coding.n_classes(rho + 1)
        # grouped log-sum-exp, stable per target class
        tops = np.full(n_next, -np.inf)
        np.maximum.at(tops, cmap, scaled)
        sums = np.zeros(n_next)
        np.add.at(sums, cmap, np.exp(scaled - tops[cmap]))
        Ws[rho + 1] = (tops + np.log(sums)) / chi[rho - 1]
    top = Ws[levels[-1]]
    scaled = chi[ctx.s - 1] * top
    tmax = scaled.max()
    P = (tmax + math.log(np.exp(scaled - tmax).sum())) / chi[ctx.s - 1]
    # Gibbs chain back down: marginal at the top, conditionals per level
    w = np.exp(scaled - tmax)
    w /= w.sum()
    for rho in reversed(levels[:-1]):
        cmap = ctx.coding.chain_maps[rho]
        scaled = chi[rho - 1] * Ws[rho]
        tops = np.full(ctx.coding.n_classes(rho + 1), -np.inf)
        np.maximum.at(tops, cmap, scaled)
        sums = np.zeros(ctx.coding.n_classes(rho + 1))
        np.add.at(sums, cmap, np.exp(scaled - tops[cmap]))
        cond = np.exp(scaled - tops[cmap]) / sums[cmap]
        w = cond * w[cmap]
    return float(P), w


def _pressure_min_theta(ifs, alpha, r, lo, hi, ctx, grid: int = 256,
                        refine: int = 80):
    """min over theta in [lo, hi] of P_r(theta) (convex), grid + golden."""
    ths = np.linspace(lo, hi, grid)
    vals = np.array([weighted_pressure(ifs, alpha, r, t, ctx)[0] for t in ths])
    j = int(np.argmin(vals))
    a = ths[max(0, j - 1)]
    b = ths[min(grid - 1, j + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = weighted_pressure(ifs, alpha, r, c, ctx)[0]
    fd = weighted_pressure(ifs, alpha, r, d, ctx)[0]
    for _ in range(refine):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = weighted_pressure(ifs, alpha, r, c, ctx)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = weighted_pressure(ifs, alpha, r, d, ctx)[0]
    t_star = 0.5 * (a + b)
    return t_star, weighted_pressure(ifs, alpha, r, t_star, ctx)


@dataclass
class AttractorDimension:
    value: float
    r_star: int
    theta_star: float
    weight_model: WeightModel
    mm_value: float
    pressure_scan: list
    flags: list


def dim_attractor_equal_linear(ifs: DiagonalIFS, alpha,
                               theta_grid: int = 256) -> AttractorDimension:
    """A.s. Hausdorff dimension of the surviving set for equal linear parts:
    the infimum of weighted pressures over levels r >= 2 and theta in
    [chi~_r/chi~_{r-1}, 1], attained by an explicit percolation-type law.

    Verifies the variational claim by recomputing the dimension of the
    reconstructed law; disagreement beyond 1e-6 is flagged."""
    ctx = PressureContext(ifs, alpha)
    total = float(ctx.alpha.sum())
    if total <= 1.0:
        raise DegenerateError("subcritical survival: sum alpha = %g <= 1" % total)
    flags = []
    scan = []
    if ctx.s == 1:
        value = math.log(total) / ctx.chi_tilde[0]
        r_star, theta_star = 1, 1.0
        u = ctx.EN[0] / total
        p = ctx.lift_to_letters(u, 1)
    else:
        best = (math.inf, None, None, None)
        for r in range(2, ctx.s + 1):
            lo = ctx.chi_tilde[r - 1] / ctx.chi_tilde[r - 2]
            t_star, (val, u) = _pressure_min_theta(ifs, alpha, r, lo, 1.0, ctx,
                                                   grid=theta_grid)
            scan.append({"r": r, "theta_lo": float(lo), "theta_star": float(t_star),
                         "value": float(val)})
            if val < best[0]:
                best = (val, r, t_star, u)
        value, r_star, theta_star, u = best
        p = ctx.lift_to_letters(u, r_star)
    model = WeightModel.percolation(p, ctx.alpha)
    mm = dim_mandelbrot(ifs, model).value
    if abs(mm - value) > 1e-6:
        flags.append("variational-mismatch")
    return AttractorDimension(value=float(value), r_star=int(r_star),
                              theta_star=float(theta_star), weight_model=model,
                              mm_value=float(mm), pressure_scan=scan, flags=flags)


# ---------------------------------------------------------------------------
# entropy-positive perturbation of percolation schedules


@dataclass
class PerturbResult:
    seq: WeightSequence
    head_end: int
    blend: float
    certificate_ok: bool
    margin: float
    flags: list


def admissible_eps_bound(ifs: DiagonalIFS, alpha) -> float:
    """Upper limit for the perturbation drift: below the blend threshold,
    the slow-clock budget and the inverse alphabet size."""
    alpha = as_survival_vector(alpha, ifs.n)
    H_max = math.log(float(alpha.sum()))
    if H_max <= 0:
        raise DegenerateError("subcritical survival vector")
    H_min = float(np.log(alpha).min())
    lam_thr = 8.0 * (H_max - 2.0 * H_min) / H_max ** 2
    lam_lo, _ = ifs.contraction_span()
    return min(1.0 / lam_thr, lam_lo, 1.0 / ifs.n)


def perturb_sequence(seq: WeightSequence, eps: float, N: int,
                     ifs: DiagonalIFS, align_blocks: bool = True) -> PerturbResult:
    """Entropy-lifting perturbation of a percolation schedule.

    Replaces the head (up to floor(N*eps), extended to a block boundary by
    default) by the entropy-maximizing vector, and blends every low-entropy
    row up to the budget floor(Lambda_a*N) toward it.  The output satisfies
    sum_{n<=M} H >= M*eps for every M up to the budget, provided the input
    obeyed the one-sided bound sum_{n<=M} H >= -M*eps there."""
    if seq.mode != "rows" or seq.alpha is None:
        raise ValueError("perturbation applies to percolation schedules")
    alpha = seq.alpha
    H_max = math.log(float(alpha.sum()))
    if H_max <= 0:
        raise DegenerateError("subcritical survival vector")
    H_min = float(np.log(alpha).min())
    lam_thr = 8.0 * (H_max - 2.0 * H_min) / H_max ** 2
    bound = admissible_eps_bound(ifs, alpha)
    if not (0.0 < eps < bound):
        raise ValueError("eps = %g outside (0, %g)" % (eps, bound))
    if N * eps < 1.0:
        raise ValueError("need N*eps >= 1")
    _, lam_hi = ifs.contraction_span()
    M_hi = int(math.floor(lam_hi * N))
    if seq.horizon < M_hi:
        raise ValueError("sequence horizon %d shorter than floor(Lambda_a N) = %d"
                         % (seq.horizon, M_hi))
    M_lo = int(math.floor(N * eps))
    H = seq.H_array()
    prefix = np.cumsum(H[:M_hi], dtype=np.longdouble)
    Ms = np.arange(1, M_hi + 1)
    bad = prefix[M_lo - 1:] < -eps * Ms[M_lo - 1:]
    if np.any(bad):
        raise ValueError("input schedule leaves the admissible class at "
                         "M = %d" % int(Ms[M_lo - 1:][bad][0]))

    pm = p_max_vector(alpha)
    rows = seq.p_rows().copy()
    head_end = M_lo
    flags = []
    if align_blocks and seq.block_lengths is not None:
        bounds = np.cumsum(seq.block_lengths)
        j = int(np.searchsorted(bounds, M_lo))
        head_end = int(bounds[min(j, len(bounds) - 1)])
        head_end = min(head_end, M_hi)
    elif align_blocks:
        flags.append("no-block-metadata")
    rows[:head_end] = pm
    blend = lam_thr * eps
    low = (H[:M_hi] <= 0.5 * H_max)
    low[:head_end] = False
    sel = np.flatnonzero(low)
    rows[sel] = (1.0 - blend) * rows[sel] + blend * pm
    out = WeightSequence(P=rows, alpha=alpha, block_lengths=None)
    pre2 = np.cumsum(out.H_array()[:M_hi], dtype=np.longdouble)
    margin = float((pre2 - eps * Ms).min())
    ok = margin >= -1e-9
    if not ok:
        flags.append("postcondition-failed")
    return PerturbResult(seq=out, head_end=head_end, blend=blend,
                         certificate_ok=ok, margin=margin, flags=flags)


# ---------------------------------------------------------------------------
# coordinate ascent over block schedules


class _RunEvaluator:
    """Per-system data shared by every run schedule of one search: the
    entropy of a vector under the survival law, and per clock chain the
    0/1 class-indicator matrices of projection levels 2..s."""

    def __init__(self, ifs: DiagonalIFS, alpha):
        self.ifs = ifs
        self.log_alpha = (None if alpha is None
                          else np.log(as_survival_vector(alpha, ifs.n)))
        self.indicator_mats = {}
        self.chain_keys = {}
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

    def indicators(self, key) -> list:
        """Class indicators (letters x classes) of levels 2..s for the chain
        whose axis groups, by increasing clock, are ``key``."""
        mats = self.indicator_mats.get(key)
        if mats is None:
            chain, rest = [], [k for g in key for k in g]
            for g in key:
                chain.append(frozenset(rest))
                rest = [k for k in rest if k not in g]
            coding = build_projection_coding(self.ifs, chain)
            mats = []
            for r in range(2, len(key) + 1):
                M = np.zeros((self.ifs.n, coding.n_classes(r)))
                M[np.arange(self.ifs.n), coding.class_index[r - 1]] = 1.0
                mats.append(M)
            self.indicator_mats[key] = mats
        return mats


def _chain_groups(G: np.ndarray, ev: _RunEvaluator):
    """Split scales (rows of the clock matrix G, one column per axis) by
    clock chain.  Yields (key, rows, g): the axis groups in increasing clock
    order, the scales that share them (a slice when all do), and their
    distinct clocks g_1 < ... < g_s as a (scales, s) matrix."""
    d = G.shape[1]
    order = G.argsort(axis=1, kind="stable")
    Gs = np.sort(G, axis=1)
    new = np.ones(G.shape, dtype=bool)
    new[:, 1:] = Gs[:, 1:] != Gs[:, :-1]
    code = order @ ev.order_weights + new @ ev.tie_weights
    if G.shape[0] == 1 or (code == code[0]).all():
        parts = [(0, slice(None))]
    else:
        parts = [(rows[0], rows) for rows in
                 (np.flatnonzero(code == c) for c in np.unique(code))]
    for first, rows in parts:
        hit = ev.chain_keys.get(int(code[first]))
        if hit is None:
            starts = np.flatnonzero(new[first])
            axes = order[first].tolist()
            cuts = starts.tolist() + [d]
            hit = (tuple(tuple(axes[a:b]) for a, b in zip(cuts, cuts[1:])),
                   starts)
            ev.chain_keys[int(code[first])] = hit
        yield hit[0], rows, Gs[rows][:, hit[1]]


class _RunSchedule:
    """A schedule given as runs (length, vector), evaluated in O(#runs).

    Inside a run the prefix sums of H, of every chi_k and of every projected
    entropy are linear, so they are kept at the run boundaries E_0 = 0 <
    E_1 < ... < E_R only.  A clock is a search over boundaries plus one
    division, corrected by ``engine._const_gamma`` where it is off.  The
    profile H_{N,k} and the tail sums are piecewise linear in k, so their
    minima sit at a boundary or at a clock g_r; the admissibility scans are
    linear per run, so checking the boundaries and the scan start is exact.

    With ``slot`` given, that run is free: the fixed runs' sums are built
    once with the slot left out, and ``set(v)`` adds v's contribution,
    (rows of the slot up to a position) x (its value per row), as a delta."""

    def __init__(self, ev: _RunEvaluator, lengths, vectors, slot=None):
        self.ev = ev
        self.L = np.asarray(lengths, dtype=np.float64)
        self.V = np.asarray(vectors, dtype=np.float64)
        R = self.L.size
        self.E = np.concatenate([[0.0], np.cumsum(self.L)])
        self.rows = int(self.E[-1])
        # per-run values are padded with a zero run at E_R, so a position
        # m in [0, rows] reads run searchsorted(E, m, "right") - 1
        H = np.append(ev.entropies(self.V), 0.0)
        chi = np.vstack([self.V @ ev.ifs.C, np.zeros(ev.ifs.d)])
        self._mask = np.zeros(R + 1, dtype=bool)
        self._step = np.zeros(R + 1)
        self.slot = slot
        if slot is not None:
            self._mask[slot] = True
            self._step[slot + 1:] = self.L[slot]
            H[slot] = 0.0
            chi[slot] = 0.0
        self._H0, self._chi0 = H, chi
        self._HP0 = np.concatenate([[0.0], np.cumsum(self.L * H[:R])])
        self._CP0 = np.vstack([np.zeros(ev.ifs.d),
                               np.cumsum(self.L[:, None] * chi[:R], axis=0)])
        self._proj0 = {}
        self._scans = {}
        if slot is None:
            self._set(None, 0.0, np.zeros(ev.ifs.d))

    def set(self, v: np.ndarray) -> None:
        """Put vector v in the free run."""
        self._set(v, float(self.ev.entropies(v)), v @ self.ev.ifs.C)

    def _set(self, v, Hv, chiv):
        self.v, self.Hv = v, Hv
        self.H = np.where(self._mask, Hv, self._H0)
        self.chi = np.where(self._mask[:, None], chiv, self._chi0)
        self.HP = self._HP0 + self._step * Hv
        self.CP = self._CP0 + self._step[:, None] * chiv
        self._proj = {}

    def _projected(self, key):
        """(slopes, boundary prefix sums) of the projected entropies of
        levels 2..s of chain ``key``, one row per level."""
        out = self._proj.get(key)
        if out is None:
            mats = self.ev.indicators(key)
            base = self._proj0.get(key)
            if base is None:
                h = np.array([entr(self.V @ M).sum(axis=1) for M in mats])
                h = np.concatenate([h, np.zeros((len(mats), 1))], axis=1)
                h[:, self._mask] = 0.0
                Q = np.concatenate([np.zeros((len(mats), 1)),
                                    np.cumsum(h[:, :-1] * self.L, axis=1)], axis=1)
                base = self._proj0[key] = (h, Q)
            if self.v is None:
                out = base
            else:
                hv = np.array([entr(self.v @ M).sum() for M in mats])[:, None]
                out = (np.where(self._mask, hv, base[0]),
                       base[1] + hv * self._step)
            self._proj[key] = out
        return out

    def clocks(self, Ns: np.ndarray) -> np.ndarray:
        """gamma_k(N), the smallest n with sum_{m<=n} chi_k > N, for every
        scale (rows) and axis (columns)."""
        js = np.count_nonzero(self.CP[1:, None, :] <= Ns[:, None], axis=0)
        if js.max() >= self.L.size:
            raise ValueError("row budget exhausted at scale %g"
                             % Ns[(js >= self.L.size).any(axis=1)][0])
        axes = self.ev.axes
        rest = Ns[:, None] - self.CP[js, axes]
        chi = self.chi[js, axes]
        n = np.floor(rest / chi) + 1.0
        off = ((n - 1.0) * chi > rest) | (n * chi <= rest)
        for i, k in zip(*np.nonzero(off)):
            n[i, k] = _const_gamma(float(chi[i, k]), float(rest[i, k]))
        return self.E[js] + np.minimum(n, self.L[js])

    def _minima(self, Ns, tail: bool):
        """Per scale: the profile minimum over k in [g_1, g_s] and, with
        ``tail``, the minimum of the prefix sums of H over [g_s, rows]."""
        G = self.clocks(Ns)
        prof = np.empty(Ns.size)
        low = np.empty(Ns.size) if tail else None
        E = self.E
        if tail:
            after = np.minimum.accumulate(self.HP[::-1])[::-1]
        for key, rows, g in _chain_groups(G, self.ev):
            s = g.shape[1]
            # candidate positions: the clocks and the boundaries in [g_1, g_s]
            K = np.empty((g.shape[0], s + E.size))
            K[:, :s] = g
            K[:, s:] = E
            np.maximum(K, g[:, :1], out=K)
            np.minimum(K, g[:, -1:], out=K)
            j = E.searchsorted(K, side="right") - 1
            off = K - E[j]
            HK = self.HP[j] + off * self.H[j]
            val = HK.copy() if s > 1 else HK
            if s > 1:
                h, Q = self._projected(key)
                for r in range(1, s):
                    # level-(r+1) projected entropies of the generations in
                    # (clip(k, g_r, g_{r+1}), g_{r+1}]; for s = 2 the clip
                    # leaves K as it is
                    hi = g[:, r:r + 1]
                    jh = E.searchsorted(hi, side="right") - 1
                    val += Q[r - 1][jh] + (hi - E[jh]) * h[r - 1][jh]
                    if s == 2:
                        jr, offr = j, off
                    else:
                        Kr = np.minimum(np.maximum(K, g[:, r - 1:r]), hi)
                        jr = E.searchsorted(Kr, side="right") - 1
                        offr = Kr - E[jr]
                    val -= Q[r - 1][jr] + offr * h[r - 1][jr]
            prof[rows] = val.min(axis=1)
            if tail:
                low[rows] = np.minimum(HK[:, s - 1],
                                       after[E.searchsorted(g[:, -1])])
        return prof, low

    def d_tilde(self, Ns) -> np.ndarray:
        """min_k H_{N,k} / N over k in [g_1, g_s], per scale."""
        Ns = np.asarray(Ns, dtype=np.float64)
        prof, _ = self._minima(Ns, tail=False)
        return prof / Ns

    def d_lower(self, Ns) -> np.ndarray:
        """min(profile minimum, tail minimum) / N, per scale."""
        Ns = np.asarray(Ns, dtype=np.float64)
        prof, low = self._minima(Ns, tail=True)
        return np.minimum(prof, low) / Ns

    def admissible(self, M0: int, rate: float) -> bool:
        """sum_{n<=M} H >= rate*M for every M in [M0, rows]."""
        if M0 > self.rows:
            return True
        scan = self._scans.get((M0, rate))
        if scan is None:
            # margins without the slot, before and after it, and at M0
            E, keep = self.E, self.E >= M0
            margin = self._HP0 - rate * E
            moved = self._step > 0
            j = int(E.searchsorted(M0, side="right")) - 1
            at_M0 = self._HP0[j] + (M0 - E[j]) * self._H0[j] - rate * M0
            rows_M0 = 0.0
            if self.slot is not None:
                rows_M0 = min(max(M0 - E[self.slot], 0.0), self.L[self.slot])
            scan = (float(margin[keep & ~moved].min(initial=math.inf)),
                    float(margin[keep & moved].min(initial=math.inf)),
                    float(self._step[-1]), float(at_M0), float(rows_M0))
            self._scans[(M0, rate)] = scan
        fixed, moved, rows_after, at_M0, rows_M0 = scan
        Hv = self.Hv
        return (fixed >= 0.0 and moved + rows_after * Hv >= 0.0
                and at_M0 + rows_M0 * Hv >= 0.0)


def _blocks_covering(lengths, budget: int):
    """Block (start, end) index pairs (0-based, half-open) truncated to
    cover exactly ``budget`` rows."""
    spans = []
    acc = 0
    for L in lengths:
        if acc >= budget:
            break
        end = min(acc + L, budget)
        spans.append((acc, end))
        acc = end
    if acc < budget:
        raise ValueError("schedule covers %d rows, budget needs %d" % (acc, budget))
    return spans


def _block_runs(runs, spans):
    """Cut runs (length, vector) at the block boundaries: one run list per
    span."""
    blocks, i, used = [], 0, 0
    for a, b in spans:
        block, need = [], b - a
        while need:
            L, v = runs[i]
            take = min(L - used, need)
            block.append((take, v))
            need -= take
            used += take
            if used == L:
                i, used = i + 1, 0
        blocks.append(block)
    return blocks


def _row_runs(rows: np.ndarray):
    """Runs (length, vector) of equal consecutive rows."""
    cut = np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1
    starts = [0] + cut.tolist()
    ends = cut.tolist() + [rows.shape[0]]
    return [(e - s, rows[s]) for s, e in zip(starts, ends)]


def _flat_runs(blocks):
    """(lengths, vectors) of the runs of all blocks, in order."""
    return zip(*[run for block in blocks for run in block])


def _blocks_to_rows(blocks) -> np.ndarray:
    lengths, vectors = _flat_runs(blocks)
    return np.repeat(np.array(vectors), lengths, axis=0)


def _ascend_blocks(ev: _RunEvaluator, blocks, objective, feasible,
                   max_passes: int = 8, nm_iter: int = 120):
    """Coordinate ascent over block vectors: per block, Nelder-Mead in
    softmax coordinates with infeasible candidates rejected.

    ``blocks`` holds each block's runs (length, vector).  A start that is
    not constant on a block keeps its runs until the block is optimized,
    which collapses them into one.  While block j moves, every other run
    is fixed, so a candidate costs one vector's entropies plus O(#runs)."""
    blocks = [list(block) for block in blocks]
    full = _RunSchedule(ev, *_flat_runs(blocks))
    best = objective(full) if feasible(full) else -math.inf
    for _ in range(max_passes):
        improved = False
        for j, block in enumerate(blocks):
            runs = [run for b in blocks[:j] for run in b]
            slot = len(runs)
            runs.append((sum(L for L, _ in block), block[0][1]))
            runs += [run for b in blocks[j + 1:] for run in b]
            lengths, vectors = zip(*runs)
            sched = _RunSchedule(ev, lengths, vectors, slot=slot)
            x0 = np.log(np.maximum(block[0][1], 1e-12))

            def f(x):
                sched.set(softmax(x))
                if not feasible(sched):
                    return math.inf
                return -objective(sched)

            res = minimize(f, x0, method="Nelder-Mead",
                           options={"maxiter": nm_iter, "fatol": 1e-12,
                                    "xatol": 1e-8})
            if -res.fun > best + 1e-12:
                best = -res.fun
                blocks[j] = [(lengths[slot], softmax(res.x))]
                improved = True
        if not improved:
            break
    return blocks, best


def optimize_packing(ifs: DiagonalIFS, alpha, lengths, eps: float,
                     N_grid, seed: int = 0, max_passes: int = 6) -> OptimizationResult:
    """Packing-side variational sweep: per scale N, maximize the profile
    minimum d~_N over block schedules in the admissible class (partial
    entropy sums above -M*eps up to the budget), then report the tail
    maximum over the scale grid.

    The search is deterministic; ``seed`` is accepted for the common
    optimizer interface.  The witness concatenates entropy-lifted
    maximizers on exponentially separated windows; it is reported, with its
    admissibility scan, rather than certified optimal."""
    alpha = as_survival_vector(alpha, ifs.n)
    bad = validate_type_ell(lengths)
    if bad:
        raise ValueError("; ".join(bad))
    H_max = math.log(float(alpha.sum()))
    if H_max <= 0:
        raise DegenerateError("subcritical survival vector")
    if eps <= 0:
        raise ValueError("eps must be positive")
    N_grid = np.sort(np.asarray(N_grid, dtype=np.float64))
    _, lam_hi = ifs.contraction_span()
    pm = p_max_vector(alpha)
    ev = _RunEvaluator(ifs, alpha)
    per_N = []
    best_rows = {}
    for N in N_grid:
        budget = int(math.floor(lam_hi * N)) + 2
        spans = _blocks_covering(lengths, budget)
        M_lo = max(1, int(math.floor(N * eps)))
        Ns = np.array([N])

        def feasible(sched):
            return sched.admissible(M_lo, -eps)

        def objective(sched):
            return float(sched.d_tilde(Ns)[0])

        starts = [[(budget, pm)]]
        spread = _band_spread_start(ifs, alpha, float(N), budget)
        if spread is not None:
            starts.append(spread)
        best_blocks, bestv = None, -math.inf
        for runs in starts:
            blocks, v1 = _ascend_blocks(ev, _block_runs(runs, spans),
                                        objective, feasible,
                                        max_passes=max_passes)
            if best_blocks is None or v1 > bestv:
                best_blocks, bestv = blocks, v1
        per_N.append({"N": float(N), "value": float(bestv)})
        best_rows[float(N)] = _blocks_to_rows(best_blocks)
    vals = np.array([row["value"] for row in per_N])
    w0 = len(vals) // 2
    value = float(vals[w0:].max())

    # witness on exponentially separated windows
    witness, windows, wit_flags = _packing_witness(ifs, alpha, lengths, eps,
                                                   N_grid, best_rows, lam_hi)
    flags = ["at-horizon"] + wit_flags
    return OptimizationResult(value=value, argument=witness, residual=math.nan,
                              iterations=len(per_N), n_starts=2,
                              trace=per_N,
                              flags=flags,
                              extras={"per_N": per_N, "windows": windows,
                                      "eps": eps})


def _band_spread_start(ifs, alpha, N, budget):
    """Start that spends the coarse band on projected entropy: runs of the
    entropy maximizer up to the fast clock, then of the level-2
    class-uniform lift."""
    try:
        ctx = PressureContext(ifs, alpha)
    except ValueError:
        return None
    if ctx.s < 2:
        return None
    pm = p_max_vector(alpha)
    g1 = min(int(N / ctx.chi_tilde[0]) + 1, budget)
    m2 = ctx.coding.n_classes(2)
    u = np.full(m2, 1.0 / m2)
    runs = [(g1, pm)]
    if g1 < budget:
        runs.append((budget - g1, ctx.lift_to_letters(u, 2)))
    return runs


def _packing_witness(ifs, alpha, lengths, eps, N_grid, best_rows, lam_hi):
    """Concatenate entropy-lifted per-scale maximizers on windows
    (L_{m_{j-1}}, L_{m_j}] with L_{m_{j-1}} below floor(eps*N_j)."""
    bounds = np.cumsum(lengths)
    horizon = int(bounds[-1])
    pm = p_max_vector(alpha)
    rows = np.repeat(pm[None, :], horizon, axis=0)
    windows = []
    flags = []
    prev_end = 0
    for N in N_grid:
        if math.floor(eps * N) < prev_end:
            continue
        budget = int(math.floor(lam_hi * N))
        if budget > horizon:
            break
        j = int(np.searchsorted(bounds, budget))
        end = int(bounds[min(j, len(bounds) - 1)])
        end = min(end, horizon)
        base = WeightSequence(P=_pad_rows(best_rows[float(N)], end, pm),
                              alpha=alpha,
                              block_lengths=_truncate_lengths(lengths, end))
        try:
            pert = perturb_sequence(base, eps, int(N), ifs)
        except ValueError:
            flags.append("witness-window-skipped")
            continue
        rows[prev_end:end] = pert.seq.p_rows()[prev_end:end]
        windows.append({"N": float(N), "start": prev_end + 1, "end": end})
        prev_end = end
    seq = WeightSequence(P=rows, alpha=alpha,
                         block_lengths=list(lengths))
    H = seq.H_array()
    pre = np.cumsum(H, dtype=np.longdouble)
    Ms = np.arange(1, horizon + 1)
    if windows:
        scan_ok = bool(np.all(pre >= -eps * Ms))
        if not scan_ok:
            flags.append("witness-scan-failed")
    else:
        flags.append("witness-empty")
    return seq, windows, flags


def _pad_rows(P, rows, fill):
    if P.shape[0] >= rows:
        return P[:rows]
    pad = np.repeat(fill[None, :], rows - P.shape[0], axis=0)
    return np.vstack([P, pad])


def _truncate_lengths(lengths, total):
    out, acc = [], 0
    for L in lengths:
        if acc + L >= total:
            out.append(total - acc)
            break
        out.append(L)
        acc += L
    return out


def optimize_type_ell_hausdorff(ifs: DiagonalIFS, alpha, lengths, eps: float,
                                horizon: int | None = None,
                                N_points: int = 24, seed: int = 0,
                                seeds=(), max_passes: int = 4) -> OptimizationResult:
    """Hausdorff-side schedule search: maximize the at-horizon lower
    dimension estimate (minimum of d_N over a scale grid) over block
    schedules with certified entropy drift sum_{n<=N} H >= N*eps.

    The certificate re-scans the returned schedule after projecting each
    block vector to the eps^2 grid; both the continuous and the projected
    values are reported."""
    alpha = None if alpha is None else as_survival_vector(alpha, ifs.n)
    bad = validate_type_ell(lengths)
    if bad:
        raise ValueError("; ".join(bad))
    total = int(np.sum(lengths))
    horizon = total if horizon is None else min(int(horizon), total)
    if alpha is not None:
        H_max = math.log(float(alpha.sum()))
        if eps >= H_max:
            raise ValueError("eps = %g not below the top entropy %g" % (eps, H_max))
        pm = p_max_vector(alpha)
    else:
        pm = np.full(ifs.n, 1.0 / ifs.n)
        if eps >= math.log(ifs.n):
            raise ValueError("eps = %g not below log #letters" % eps)
    ev = _RunEvaluator(ifs, alpha)
    spans = _blocks_covering(lengths, horizon)
    _, lam_hi = ifs.contraction_span()
    maxN = horizon / lam_hi * 0.98
    N_grid = np.geomspace(max(4.0, maxN / 16.0), maxN, N_points)
    burn = int(math.ceil(1.0 / eps))

    def feasible(sched):
        return sched.admissible(burn, eps)

    def objective(sched):
        return float(sched.d_lower(N_grid).min())

    starts = [[(horizon, pm)]]
    mm = optimize_mandelbrot(ifs, alpha, starts=8, seed=seed)
    starts.append([(horizon, mm.argument)])
    for s in seeds:
        rows = s.p_rows() if hasattr(s, "p_rows") else np.asarray(s)
        starts.append(_row_runs(_pad_rows(rows, horizon, pm)))
    best_blocks, bestv = None, -math.inf
    for runs in starts:
        if not feasible(_RunSchedule(ev, *zip(*runs))):
            continue
        blocks, v1 = _ascend_blocks(ev, _block_runs(runs, spans), objective,
                                    feasible, max_passes=max_passes)
        if v1 > bestv:
            best_blocks, bestv = blocks, v1
    if best_blocks is None:
        raise ValueError("no feasible start for eps = %g" % eps)

    # certificate on the eta = eps^2 grid
    eta = eps * eps
    block_lengths = [b - a for (a, b) in spans]
    vectors = [block[0][1] for block in best_blocks]
    snapped = _RunSchedule(ev, block_lengths,
                           [_grid_project(v, eta) for v in vectors])
    grid_ok = snapped.admissible(burn, eps)
    grid_val = float(snapped.d_lower(N_grid).min()) if grid_ok else None
    seq = WeightSequence.from_blocks(block_lengths, vectors, alpha=alpha)
    flags = ["at-horizon"]
    if not grid_ok:
        flags.append("grid-certificate-failed")
    return OptimizationResult(value=float(bestv), argument=seq,
                              residual=math.nan, iterations=len(spans),
                              n_starts=len(starts), trace=[],
                              flags=flags,
                              extras={"eps": eps, "eta": eta,
                                      "grid_value": grid_val,
                                      "grid_certificate": grid_ok,
                                      "N_grid": N_grid})


def _grid_project(v, eta):
    """Snap a block vector to the eta-grid: floor multiples of eta with the
    shortfall added to the largest coordinate."""
    snapped = np.where(v < eta, eta, np.floor(v / eta) * eta)
    snapped[np.argmax(v)] += 1.0 - snapped.sum()
    return snapped
