"""Variational principles over probability vectors and block schedules.

Four layers: the sup over constant laws, the closed-form weighted pressure
for equal linear parts (a log-sum-exp recursion along the projection
chain), the attractor dimension as an infimum of pressures, and schedule
optimizers (Hausdorff side with an entropy-drift class, packing side with
per-scale profile maxima).  The constant-law sup on equal linear parts and
both schedule optimizers are concave programs in epigraph form, solved by
one SLSQP core with exact gradients (``_solve_epigraph``); only constant
laws on unequal linear parts, where the clocks move with the law, keep a
multistart Nelder-Mead search on the simplex (``maximize_on_simplex``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import entr

from .engine import DEGENERATE_TOL, mandelbrot_value, dim_mandelbrot
from .ifs import DiagonalIFS, build_projection_coding
from .scales import _RunEvaluator, _RunTable, _chain_groups, clock_chain
from .weights import (DegenerateError, WeightModel, WeightSequence,
                      as_survival_vector, drift_scan, entropy, p_max_vector,
                      validate_type_ell)


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

    With equal linear parts the clocks do not move with p, and the
    objective is one concave program (``_constant_law_rows``), solved once
    from the entropy maximizer.  Elsewhere chi(p) moves the chain, so the
    multistart ``maximize_on_simplex`` (``starts``, ``seed``) searches it.
    The value is the objective at the returned law; a maximum that is not
    above DEGENERATE_TOL (a zero sup computed to rounding included) is
    reported as dimension zero with a degenerate-sup flag."""
    if alpha is None:
        log_alpha, p0 = np.zeros(ifs.n), np.full(ifs.n, 1.0 / ifs.n)
    else:
        alpha = as_survival_vector(alpha, ifs.n)
        log_alpha, p0 = np.log(alpha), p_max_vector(alpha)

    def f(p):
        return mandelbrot_value(ifs, p, entropy(p) + float(p @ log_alpha))

    if ifs.equal_linear_parts():
        V, solve = _solve_epigraph(p0[None, :], *_constant_law_rows(ifs, p0),
                                   log_alpha)
        # the start is kept when the solve does not beat it
        v0, v = f(p0), f(V[0])
        p, value = (V[0], v) if v > v0 else (p0, v0)
        flags, solver, nit, residual = _solver_report([solve], True)
        res = OptimizationResult(value=value, argument=p, residual=residual,
                                 iterations=nit, n_starts=1, trace=[(v0, v)],
                                 flags=flags, extras={"solver": solver})
    else:
        res = maximize_on_simplex(f, ifs.n, starts=starts, seed=seed,
                                  extra_starts=[] if alpha is None else [p0])
    p = res.argument
    model = (WeightModel.deterministic(p) if alpha is None
             else WeightModel.percolation(p, alpha))
    res.extras["model"] = model
    res.extras["H"] = model.entropy_H()
    if res.value <= DEGENERATE_TOL:
        res.flags.append("degenerate-sup")
        res.value = 0.0
    else:
        res.extras["closed_form_value"] = dim_mandelbrot(ifs, model).value
    return res


def _constant_law_rows(ifs: DiagonalIFS, p):
    """The constant-law objective H/chi~_1 + sum_{r>=2} c_r min(H, h(Pi_r p)),
    c_r = 1/chi~_r - 1/chi~_{r-1} > 0, on the chain of chi(p), as the
    candidate rows of one run (``_solve_epigraph``): per subset S of the
    levels 2..s, the coefficient of H is 1/chi~_1 plus c_r for r not in S,
    and that of h_r is c_r for r in S.  Returns (C, mats) as
    ``_program_rows`` does."""
    chi = ifs.lyapunov(p)
    groups, chain = clock_chain(-chi)
    coding = build_projection_coding(ifs, chain)
    inv = 1.0 / np.array([chi[g].mean() for g in groups])
    c = np.diff(inv)
    S = np.array(list(itertools.product((0.0, 1.0), repeat=c.size)))
    C = np.concatenate([(inv[0] + (1.0 - S) @ c)[:, None], S * c], axis=1)
    return C[:, :, None], coding.indicators[1:]


# ---------------------------------------------------------------------------
# weighted pressure for equal linear parts


class PressureContext:
    """Chain data shared by all pressure evaluations on one system."""

    def __init__(self, ifs: DiagonalIFS, alpha):
        if not ifs.equal_linear_parts():
            raise ValueError("weighted pressure needs equal linear parts")
        self.ifs = ifs
        self.alpha = as_survival_vector(alpha, ifs.n)
        chi = ifs.C[0]
        self.groups, self.chain = clock_chain(-chi)
        self.chi_tilde = np.array([chi[g].mean() for g in self.groups])
        self.coding = build_projection_coding(ifs, self.chain)
        self.s = len(self.groups)
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
    # W on the level-r classes, then up the chain by softmax aggregation
    W = theta * np.log(ctx.EN[r - 1]) / chi[r - 1]
    # per level rho < s: class map to rho+1, exp(scaled - top of its
    # target class) and the per-target sums, kept for the way down
    steps = []
    for rho in range(r, ctx.s):
        cmap = ctx.coding.chain_maps[rho]          # classes rho -> rho+1
        scaled = chi[rho - 1] * W
        n_next = ctx.coding.n_classes(rho + 1)
        # grouped log-sum-exp, stable per target class
        tops = np.full(n_next, -np.inf)
        np.maximum.at(tops, cmap, scaled)
        e = np.exp(scaled - tops[cmap])
        sums = np.zeros(n_next)
        np.add.at(sums, cmap, e)
        steps.append((cmap, e, sums))
        W = (tops + np.log(sums)) / chi[rho - 1]
    scaled = chi[ctx.s - 1] * W
    tmax = scaled.max()
    P = (tmax + math.log(np.exp(scaled - tmax).sum())) / chi[ctx.s - 1]
    # Gibbs chain back down: marginal at the top, conditionals per level
    w = np.exp(scaled - tmax)
    w /= w.sum()
    for cmap, e, sums in reversed(steps):
        w = e / sums[cmap] * w[cmap]
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
                     ifs: DiagonalIFS) -> PerturbResult:
    """Entropy-lifting perturbation of a percolation schedule.

    Replaces the head (up to floor(N*eps), extended to the end of its
    block) by the entropy-maximizing vector, and blends every low-entropy
    block up to the budget floor(Lambda_a*N) toward it; the blocks are cut
    at the head's end and at the budget.  The output satisfies
    sum_{n<=M} H >= M*eps for every M up to the budget, provided the input
    obeyed the one-sided bound sum_{n<=M} H >= -M*eps there."""
    if seq.models is not None or seq.alpha is None:
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
    M, S = drift_scan(seq.L, seq.H, M_lo, M_hi)
    bad = S < -eps * M
    if np.any(bad):
        raise ValueError("input schedule leaves the admissible class by "
                         "M = %d" % int(M[bad][0]))

    pm = p_max_vector(alpha)
    head_end = min(int(seq.ends[seq.ends.searchsorted(M_lo)]), M_hi)
    L, own = _cut_runs(seq.L, [head_end, M_hi])
    ends = np.cumsum(L)
    V = seq.V[own]
    V[ends <= head_end] = pm
    blend = lam_thr * eps
    low = (seq.H[own] <= 0.5 * H_max) & (ends > head_end) & (ends <= M_hi)
    V[low] = (1.0 - blend) * V[low] + blend * pm
    out = WeightSequence.from_blocks(L, V, alpha=alpha)
    M, S = drift_scan(out.L, out.H, 1, M_hi)
    margin = float((S - eps * M).min())
    ok = margin >= -1e-9
    return PerturbResult(seq=out, head_end=head_end, blend=blend,
                         certificate_ok=ok, margin=margin,
                         flags=[] if ok else ["postcondition-failed"])


# ---------------------------------------------------------------------------
# schedule optimizers: one concave program per clock pattern

# lower bound on every letter's mass during a solve: it keeps the entropy
# gradients -log p finite, and optima stay off it, where those are +inf
_P_FLOOR = 1e-12
# solves per search while the clocks move with the vectors (unequal
# linear parts); the last solution is kept when they still move
_CLOCK_ROUNDS = 8


def _block_ends(lengths, budget: int) -> np.ndarray:
    """Ends of the blocks that cover the first ``budget`` rows, the last
    one cut at the budget."""
    ends = np.cumsum(lengths)
    if ends[-1] < budget:
        raise ValueError("schedule covers %d rows, budget needs %d"
                         % (ends[-1], budget))
    return np.minimum(ends[:int(ends.searchsorted(budget)) + 1], budget)


def _cut_runs(L, cuts):
    """Split the runs of lengths L at the positions ``cuts``: the pieces'
    lengths and the run each piece lies in."""
    E = np.concatenate([[0.0], np.cumsum(L)])
    cuts = np.asarray(cuts, dtype=np.float64)
    bounds = np.union1d(E, cuts[(cuts > 0.0) & (cuts < E[-1])])
    return np.diff(bounds), E.searchsorted(bounds[:-1], side="right") - 1


def _rows_in(E, x):
    """Rows of each run inside the generations (0, x], one line per
    position x: the coefficients of a prefix sum on per-run values."""
    x = np.asarray(x, dtype=np.float64)[:, None]
    return np.clip(x - E[:-1], 0.0, E[1:] - E[:-1])


def _program_rows(table: _RunTable, Ns, tail: bool):
    """Every candidate of the minima behind min_N d~_N (min_N d_N with
    ``tail``) as a row of coefficients on the per-run values.  Returns
    (C, mats): C[j, f, i] is the coefficient of run i's value of feature f
    in candidate j, divided by the candidate's N; feature 0 is the entropy
    H and feature f >= 1 the projected entropy through the indicator
    matrix mats[f - 1].

    At a scale with distinct clocks g_1 < ... < g_s, H_{N,k} is the sum of
    H over (0, k] plus, per level r >= 2, the level-r projected entropy
    over (clip(k, g_{r-1}, g_r), g_r].  It is linear between the clocks and
    the run boundaries, so those are the candidates for k in [g_1, g_s];
    the tail adds the prefix sums of H at the boundaries inside (g_s, T)
    and at T, the horizon.  Every coefficient is nonnegative."""
    E, T = table.E, float(table.horizon)
    Ns = np.asarray(Ns, dtype=np.float64)
    groups = list(_chain_groups(table.clocks(Ns), table.ev))
    feats = {key: f for f, key in enumerate(dict.fromkeys(
        (coding, r) for coding, _, g in groups for r in range(2, g.shape[1] + 1)), 1)}
    blocks = []
    for coding, rows, g in groups:
        for N, gi in zip(Ns[rows], g):
            ks = np.union1d(gi, E[(E > gi[0]) & (E < gi[-1])])
            if tail:
                # past g_s every level's interval is empty: H alone
                ks = np.concatenate([ks, E[(E > gi[-1]) & (E < T)], [T]])
            c = np.zeros((ks.size, len(feats) + 1, E.size - 1))
            c[:, 0] = _rows_in(E, ks)
            for r in range(2, gi.size + 1):
                lo = np.clip(ks, gi[r - 2], gi[r - 1])
                c[:, feats[coding, r]] = _rows_in(E, gi[r - 1:r]) - _rows_in(E, lo)
            blocks.append(c / N)
    return np.concatenate(blocks), [coding.indicators[r - 1] for coding, r in feats]


def _drift_rows(table: _RunTable, M0: int) -> np.ndarray:
    """The drift class sum_{n<=M} H >= rate*M on [M0, horizon] as rows D on
    the per-run entropies, each divided by its M: D @ H >= rate.  The sums
    are linear inside runs, so M0 and the boundaries past it suffice."""
    E = table.E
    Ms = np.union1d([float(M0)], E[E > M0])
    Ms = Ms[Ms <= table.horizon]
    return _rows_in(E, Ms) / Ms[:, None]


def _solve_program(table: _RunTable, Ns, tail: bool, M0: int, rate: float):
    """The schedule program of the table, with its clocks: max t subject to
    t <= every candidate of ``_program_rows``, the drift rows of
    ``_drift_rows`` and sum p = 1 per run, solved from the table's
    vectors (``_solve_epigraph``)."""
    C, mats = _program_rows(table, Ns, tail)
    return _solve_epigraph(table.V, C, mats, table.ev.log_alpha,
                           _drift_rows(table, M0), rate)


def _solve_epigraph(V, C, mats, log_alpha, D=None, rate: float = 0.0):
    """An SLSQP solve, from the run vectors V (runs x letters), of the
    epigraph program max t subject to t <= C.F for every candidate row,
    D @ H >= rate and sum p = 1 per run.  F holds the per-run values:
    feature 0 is the entropy H (plus p.log_alpha unless that is None) and
    feature f >= 1 the projected entropy through the indicator matrix
    mats[f - 1]; C[j, f, i] is the coefficient of run i's feature f in
    candidate j.  Returns the vectors and the solve's status, iterations,
    evaluations and KKT residual (sup norm of the Lagrangian's gradient)."""
    D = np.zeros((0, C.shape[2])) if D is None else D
    # one block of inequality rows C.F - a*t - b >= 0: the candidates
    # (a = 1, b = 0), then the drift rows on H (a = 0, b = rate)
    a = np.concatenate([np.ones(C.shape[0]), np.zeros(D.shape[0])])
    b = (1.0 - a) * rate
    C = np.concatenate([C, np.zeros((D.shape[0],) + C.shape[1:])])
    C[a == 0.0, 0] = D
    R, n = V.shape
    la = np.zeros(n) if log_alpha is None else log_alpha
    last = {}

    def features(z):
        """Per-run values (features x runs) and their gradients (features
        x runs x letters) at z."""
        if last.get("z") is None or not np.array_equal(last["z"], z):
            V = np.maximum(z[:-1].reshape(R, n), _P_FLOOR)
            F = [entr(V).sum(axis=1) + V @ la]
            J = [-np.log(V) - 1.0 + la]
            for M in mats:
                q = V @ M
                F.append(entr(q).sum(axis=1))
                J.append((-np.log(q) - 1.0) @ M.T)
            last.update(z=z.copy(), F=np.array(F), J=np.array(J))
        return last["F"], last["J"]

    def rows(z):
        return np.einsum("jfr,fr->j", C, features(z)[0]) - a * z[-1] - b

    def rows_jac(z):
        grad_v = np.einsum("jfr,frn->jrn", C, features(z)[1])
        return np.hstack([grad_v.reshape(C.shape[0], -1), -a[:, None]])

    sums = np.hstack([np.kron(np.eye(R), np.ones(n)), np.zeros((R, 1))])
    grad = np.zeros(R * n + 1)
    grad[-1] = -1.0
    nit, nfev = 0, 0
    for _ in range(2):
        z = np.append(np.maximum(V, _P_FLOOR).ravel(), 0.0)
        z[-1] = rows(z)[a == 1.0].min()
        res = minimize(lambda x: -x[-1], z, jac=lambda x: grad, method="SLSQP",
                       bounds=[(_P_FLOOR, None)] * (R * n) + [(None, None)],
                       constraints=[{"type": "eq", "fun": lambda x: sums @ x - 1.0,
                                     "jac": lambda x: sums},
                                    {"type": "ineq", "fun": rows, "jac": rows_jac}],
                       options={"ftol": 1e-14, "maxiter": 400})
        z, nit, nfev = res.x, nit + int(res.nit), nfev + int(res.nfev)
        V = np.maximum(z[:-1].reshape(R, n), 0.0)
        V /= V.sum(axis=1, keepdims=True)
        # status 8 (no descent along the search direction) is how SLSQP
        # stalls at an optimum reached to rounding; one restart from there,
        # on the simplex and with a fresh quasi-Newton matrix, ends it
        if res.status != 8:
            break
    residual = math.nan
    lam = getattr(res, "multipliers", None)
    if lam is not None:
        g = grad - np.vstack([sums, rows_jac(z)]).T @ lam
        # a mass on its lower bound may keep a gradient pointing below it
        g[:-1] = np.where(z[:-1] <= _P_FLOOR, np.minimum(g[:-1], 0.0), g[:-1])
        residual = float(np.abs(g).max())
    return V, {"status": int(res.status), "nit": nit, "nfev": nfev,
               "residual": residual}


def _solve_schedule(ev: _RunEvaluator, lengths, vectors, Ns, M0: int,
                    rate: float, tail: bool = False, cut: bool = False):
    """Maximize min_N d~_N (min_N d_N with ``tail``) over the vectors of
    the runs (lengths, vectors), inside the drift class sum_{n<=M} H >=
    rate*M on [M0, horizon], which the start must satisfy.

    With the clocks fixed this is a concave program: each candidate of the
    minima and each drift margin is a nonnegative combination of per-run
    entropies and projected entropies, concave in the run's vector.  With
    ``cut`` the runs are first split at the clocks.  Where the linear parts
    differ the clocks move with the vectors, so the program is solved
    again, from its solution and with its clocks, while they change, at
    most _CLOCK_ROUNDS times.  A solution just outside the drift class is
    blended toward the admissible point it started from until it is in.

    Returns (table, value, solves, settled): the best schedule met, the
    start included, its value re-evaluated on the run table, the report of
    each solve, and whether the clocks stopped moving."""
    Ns = np.asarray(Ns, dtype=np.float64)

    def value(t):
        return float((t.d_lower(Ns) if tail else t.d_tilde(Ns)).min())

    table = _RunTable(ev, lengths, vectors)
    best, best_value = table, value(table)
    solves, settled = [], False
    G = table.clocks(Ns)
    for _ in range(_CLOCK_ROUNDS):
        if cut:
            L, own = _cut_runs(table.L, np.unique(G))
            table = _RunTable(ev, L, table.V[own])
        V, solve = _solve_program(table, Ns, tail, M0, rate)
        solves.append(solve)
        for lam in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0):
            moved = _RunTable(ev, table.L, (1.0 - lam) * V + lam * table.V)
            if moved.admissible(M0, rate):
                break
        table = moved
        v = value(table)
        if v > best_value:
            best, best_value = table, v
        G_next = table.clocks(Ns)
        if np.array_equal(G_next, G):
            settled = True
            break
        G = G_next
    return best, best_value, solves, settled


def _solver_report(solves, settled: bool):
    """(flags, extras entry, iterations, largest KKT residual) of a
    search's solves."""
    status = [s["status"] for s in solves]
    flags = [] if not any(status) else ["solver-not-converged"]
    if not settled:
        flags.append("clock-pattern-unsettled")
    solver = {"method": "SLSQP", "status": status,
              "nfev": sum(s["nfev"] for s in solves)}
    return (flags, solver, sum(s["nit"] for s in solves),
            float(np.max([s["residual"] for s in solves])))


def optimize_packing(ifs: DiagonalIFS, alpha, lengths, eps: float,
                     N_grid, seed: int = 0) -> OptimizationResult:
    """Packing-side variational sweep: per scale N, maximize the profile
    minimum d~_N over schedules in the admissible class (partial entropy
    sums above -M*eps up to the budget), then report the tail maximum over
    the scale grid.

    Per N the variables are the blocks cut at the scale's clocks and at
    floor(N*eps), one concave solve each (``_solve_schedule``).  The search
    is deterministic; ``seed`` is accepted for the common optimizer
    interface and ignored.  The witness concatenates entropy-lifted
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
    per_N, runs, solves, settled = [], {}, [], True
    for N in N_grid:
        budget = int(math.floor(lam_hi * N)) + 2
        M_lo = max(1, int(math.floor(N * eps)))
        L, _ = _cut_runs([budget], np.append(_block_ends(lengths, budget), M_lo))
        table, value, solved, done = _solve_schedule(ev, L, np.tile(pm, (L.size, 1)),
                                                     [N], M_lo, -eps, cut=True)
        solves += solved
        settled &= done
        per_N.append({"N": float(N), "value": value})
        runs[float(N)] = (table.L, table.V)
    vals = np.array([row["value"] for row in per_N])
    w0 = len(vals) // 2
    value = float(vals[w0:].max())

    # witness on exponentially separated windows
    witness, windows, wit_flags = _packing_witness(ifs, alpha, lengths, eps,
                                                   N_grid, runs, lam_hi)
    solver_flags, solver, nit, residual = _solver_report(solves, settled)
    return OptimizationResult(value=value, argument=witness, residual=residual,
                              iterations=nit, n_starts=1, trace=per_N,
                              flags=["at-horizon"] + solver_flags + wit_flags,
                              extras={"per_N": per_N, "windows": windows,
                                      "eps": eps, "runs": runs,
                                      "solver": solver})


def _packing_witness(ifs, alpha, lengths, eps, N_grid, runs, lam_hi):
    """Concatenate entropy-lifted per-scale maximizers, given as runs
    (lengths, vectors) per N, on windows (L_{m_{j-1}}, L_{m_j}] with
    L_{m_{j-1}} below floor(eps*N_j), and the entropy maximizer past the
    last window.  The witness holds these runs as its blocks and is scanned
    for the drift class sum_{n<=M} H >= -M*eps."""
    bounds = np.cumsum(lengths)
    horizon = int(bounds[-1])
    pm = p_max_vector(alpha)
    parts = []
    windows = []
    flags = []
    prev_end = 0
    for N in N_grid:
        if math.floor(eps * N) < prev_end:
            continue
        budget = int(math.floor(lam_hi * N))
        if budget > horizon:
            break
        end = int(bounds[np.searchsorted(bounds, budget)])
        # the maximizer's runs, then the entropy maximizer, cut at end
        L, V = runs[float(N)]
        L, V = _runs_between(np.append(L, end), np.vstack([V, pm]), 0, end)
        try:
            pert = perturb_sequence(WeightSequence.from_blocks(L, V, alpha=alpha),
                                    eps, int(N), ifs)
        except ValueError:
            flags.append("witness-window-skipped")
            continue
        parts.append(_runs_between(pert.seq.L, pert.seq.V, prev_end, end))
        windows.append({"N": float(N), "start": prev_end + 1, "end": end})
        prev_end = end
    Ls, Vs = zip(*parts, ([horizon], pm[None, :]))
    L, V = _runs_between(np.concatenate(Ls), np.vstack(Vs), 0, horizon)
    seq = WeightSequence.from_blocks(L, V, alpha=alpha)
    if windows:
        M, S = drift_scan(seq.L, seq.H)
        if np.any(S < -eps * M):
            flags.append("witness-scan-failed")
    else:
        flags.append("witness-empty")
    return seq, windows, flags


def _runs_between(L, V, a: int, b: int):
    """The runs (lengths L, vectors V) cut to the generations (a, b]."""
    L, own = _cut_runs(L, [a, b])
    starts = np.cumsum(L) - L
    keep = (starts >= a) & (starts < b)
    return L[keep], np.asarray(V)[own[keep]]


def optimize_type_ell_hausdorff(ifs: DiagonalIFS, alpha, lengths, eps: float,
                                horizon: int | None = None,
                                N_points: int = 24) -> OptimizationResult:
    """Hausdorff-side schedule search: maximize the at-horizon lower
    dimension estimate (minimum of d_N over a scale grid) over block
    schedules with certified entropy drift sum_{n<=N} H >= N*eps.

    One vector per block, one concave solve (``_solve_schedule``) from the
    entropy maximizer.  The certificate re-scans the returned schedule
    after projecting each block vector to the eps^2 grid; both the
    continuous and the projected values are reported."""
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
    _, lam_hi = ifs.contraction_span()
    maxN = horizon / lam_hi * 0.98
    N_grid = np.geomspace(max(4.0, maxN / 16.0), maxN, N_points)
    burn = int(math.ceil(1.0 / eps))
    block_lengths = np.diff(_block_ends(lengths, horizon), prepend=0).tolist()
    # the entropy maximizer has the largest sums, so it lies in the class
    start = np.repeat(pm[None, :], len(block_lengths), axis=0)
    table, value, solves, settled = _solve_schedule(ev, block_lengths, start,
                                                    N_grid, burn, eps, tail=True)
    vectors = table.V

    # certificate on the eta = eps^2 grid
    eta = eps * eps
    snapped = [_grid_project(v, eta) for v in vectors]
    grid_ok, grid_val = snapped[0] is not None, None
    if grid_ok:
        grid_table = _RunTable(ev, block_lengths, snapped)
        grid_ok = grid_table.admissible(burn, eps)
        grid_val = float(grid_table.d_lower(N_grid).min()) if grid_ok else None
    seq = WeightSequence.from_blocks(block_lengths, vectors, alpha=alpha)
    solver_flags, solver, nit, residual = _solver_report(solves, settled)
    flags = ["at-horizon"] + solver_flags
    if not grid_ok:
        flags.append("grid-certificate-failed")
    return OptimizationResult(value=value, argument=seq, residual=residual,
                              iterations=nit, n_starts=1, trace=[],
                              flags=flags,
                              extras={"eps": eps, "eta": eta,
                                      "grid_value": grid_val,
                                      "grid_certificate": grid_ok,
                                      "N_grid": N_grid, "solver": solver})


def _grid_project(v, eta):
    """Snap a block vector to the eta-grid of the simplex, the points k/K
    with K = ceil(1/eta), so the mesh 1/K is at most eta, and integers
    k_i >= 1 summing to K (there are some only when K >= #letters; None
    otherwise): largest-remainder rounding of v*K, then a unit from the
    largest count to each letter left without one."""
    K = math.ceil(1.0 / eta)
    if K < len(v):
        return None
    q = np.asarray(v, dtype=np.float64) * K
    k = np.floor(q)
    k[np.argsort(k - q, kind="stable")[:int(round(K - k.sum()))]] += 1.0
    for i in np.flatnonzero(k < 1.0):
        k[np.argmax(k)] -= 1.0
        k[i] = 1.0
    return k / K
