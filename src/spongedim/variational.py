"""Variational principles over probability vectors and block schedules.

Four layers: the sup over constant laws, the closed-form weighted pressure
for equal linear parts (a log-sum-exp recursion along the projection
chain), the attractor dimension as an infimum of pressures, and schedule
optimizers (Hausdorff side with an entropy-drift class, packing side with
per-scale profile maxima).  On equal linear parts the constant-law sup is
the attractor's pressure minimum; on unequal ones, where the clocks move
with the law, a multistart Nelder-Mead search on the simplex
(``maximize_on_simplex``).  Both schedule optimizers are concave programs
in epigraph form, solved by one SLSQP core with exact gradients
(``_solve_epigraph``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy import entr, minimize
from .engine import DEGENERATE_TOL, dim_mandelbrot, mandelbrot_value, stable_chain
from .ifs import DiagonalIFS
from .scales import (_RunEvaluator, _RunTable, _chain_groups, _profile_rows,
                     _rows_in, resolutions)
from .weights import (DegenerateError, InputError, WeightModel, WeightSequence,
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
    flags: list = field(default_factory=list)
    extras: dict = field(repr=False, default_factory=dict)


NM_ITER_PER_LETTER = 300   # Nelder-Mead iterations per start and letter
# the constant-law search on unequal linear parts: starts and their seed
MULTISTARTS = 32
MULTISTART_SEED = 0


def maximize_on_simplex(f, n: int, starts: int, seed: int,
                        extra_starts=()) -> OptimizationResult:
    """Multistart Nelder-Mead in softmax coordinates.  Returns the best
    start's point and value; the residual is the sup norm of the centred
    finite-difference gradient there (the flat all-ones direction
    projected out), and the iterations are that start's."""
    rng = np.random.default_rng(seed)
    xs = [np.zeros(n)]
    for p0 in extra_starts:
        xs.append(np.log(np.maximum(np.asarray(p0, dtype=np.float64), 1e-300)))
    while len(xs) < starts:
        xs.append(np.log(np.maximum(rng.dirichlet(np.ones(n)), 1e-12)))

    def F(x):
        return f(softmax(x))

    best = None
    for x0 in xs:
        res = minimize(lambda x: -F(x), x0, method="Nelder-Mead",
                       options={"maxiter": NM_ITER_PER_LETTER * n,
                                "fatol": 1e-13, "xatol": 1e-9})
        if best is None or -res.fun > -best.fun:
            best = res
    h = 1e-6
    g = np.array([F(best.x + e) - F(best.x - e) for e in h * np.eye(n)]) / (2 * h)
    return OptimizationResult(value=float(-best.fun), argument=softmax(best.x),
                              residual=float(np.abs(g - g.mean()).max()),
                              iterations=int(best.nit), n_starts=len(xs))


# ---------------------------------------------------------------------------
# sup over fixed weight laws


def optimize_mandelbrot(ifs: DiagonalIFS, alpha=None) -> OptimizationResult:
    """Largest dimension among fixed weight laws: deterministic laws when
    alpha is None, percolation laws W_i = p_i 1{c_i}/alpha_i otherwise.

    With equal linear parts the sup is the attractor's pressure minimum
    (``dim_attractor_equal_linear``), attained by its Gibbs law; the value
    is the objective at that law and the residual its distance from the
    pressure minimum.  Elsewhere chi(p) moves the chain, so the multistart
    ``maximize_on_simplex`` searches it, from MULTISTARTS starts drawn with
    MULTISTART_SEED.  A maximum that is not above DEGENERATE_TOL (a zero
    sup computed to rounding included) is reported as dimension zero with
    a degenerate-sup flag; a subcritical alpha on equal linear parts
    reports the entropy maximizer there."""
    if alpha is None:
        log_alpha, p0 = np.zeros(ifs.n), np.full(ifs.n, 1.0 / ifs.n)
    else:
        alpha = as_survival_vector(alpha, ifs.n)
        log_alpha, p0 = np.log(alpha), p_max_vector(alpha)

    def f(p):
        return mandelbrot_value(ifs, p, entropy(p) + float(p @ log_alpha))

    if not ifs.equal_linear_parts():
        res = maximize_on_simplex(f, ifs.n, MULTISTARTS, MULTISTART_SEED,
                                  extra_starts=[] if alpha is None else [p0])
    elif top_entropy(ifs.n, alpha) > 0:
        att = dim_attractor_equal_linear(
            ifs, np.ones(ifs.n) if alpha is None else alpha)
        res = OptimizationResult(value=att.mm_value, argument=att.weight_model.p,
                                 residual=abs(att.value - att.mm_value),
                                 iterations=0, n_starts=1, flags=att.flags)
    else:
        res = OptimizationResult(value=f(p0), argument=p0, residual=0.0,
                                 iterations=0, n_starts=1)
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


# ---------------------------------------------------------------------------
# weighted pressure for equal linear parts


class PressureContext:
    """Chain data shared by all pressure evaluations on one system."""

    def __init__(self, ifs: DiagonalIFS, alpha):
        if not ifs.equal_linear_parts():
            raise InputError("weighted pressure needs equal linear parts")
        self.ifs = ifs
        self.alpha = as_survival_vector(alpha, ifs.n)
        # the law is immaterial: every one has the first map's exponents
        self.groups, self.chain, self.chi_tilde, self.coding = stable_chain(
            ifs, np.eye(ifs.n)[0])
        self.s = len(self.groups)
        # expected offspring per class and level
        self.EN = [self.coding.project_vector(self.alpha, r)
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


def _pressure_min_theta(ctx: PressureContext, r: int, lo: float):
    """min over theta in [lo, 1] of P_r(theta), as (theta, P, maximizer).

    P_r is convex, and its slope at theta is <w, log EN_r>/chi~_r at the
    maximizer w (Danskin), so the ends decide: unless their slopes change
    sign the lower end is the minimum; otherwise the bracket is halved on
    the slope's sign until no float lies strictly inside it."""
    def at(theta):
        P, w = weighted_pressure(ctx.ifs, ctx.alpha, r, theta, ctx)
        return theta, P, w, float(w @ np.log(ctx.EN[r - 1]))

    a, b = at(lo), at(1.0)
    if a[3] < 0.0 < b[3]:
        while a[0] < (mid := 0.5 * (a[0] + b[0])) < b[0]:
            m = at(mid)
            a, b = (m, b) if m[3] < 0.0 else (a, m)
    return min(a, b, key=lambda end: end[1])[:3]


@dataclass
class AttractorDimension:
    value: float
    r_star: int
    theta_star: float
    weight_model: WeightModel
    mm_value: float
    flags: list


def dim_attractor_equal_linear(ifs: DiagonalIFS, alpha) -> AttractorDimension:
    """A.s. Hausdorff dimension of the surviving set for equal linear parts:
    the infimum of weighted pressures over levels r >= 2 and theta in
    [chi~_r/chi~_{r-1}, 1], attained by an explicit percolation-type law.
    With one level (s = 1) the interval is theta = 1 at level 1, whose
    pressure is log(sum alpha)/chi~_1, at the law alpha/sum alpha.

    Verifies the variational claim by recomputing the dimension of the
    reconstructed law; disagreement beyond 1e-6 is flagged."""
    ctx = PressureContext(ifs, alpha)
    total = float(ctx.alpha.sum())
    if total <= 1.0:
        raise DegenerateError("subcritical survival: sum alpha = %g <= 1" % total)
    levels = []
    for r in range(min(2, ctx.s), ctx.s + 1):
        # level 1 (s = 1 alone) divides chi~_1 by itself: theta = 1
        lo = ctx.chi_tilde[r - 1] / ctx.chi_tilde[max(r - 2, 0)]
        theta, P, u = _pressure_min_theta(ctx, r, lo)
        levels.append((P, r, theta, u))
    # the first level wins a tie
    value, r_star, theta_star, u = min(levels, key=lambda level: level[0])
    model = WeightModel.percolation(ctx.lift_to_letters(u, r_star), ctx.alpha)
    mm = dim_mandelbrot(ifs, model).value
    flags = ["variational-mismatch"] if abs(mm - value) > 1e-6 else []
    return AttractorDimension(value=float(value), r_star=int(r_star),
                              theta_star=float(theta_star), weight_model=model,
                              mm_value=float(mm), flags=flags)


# ---------------------------------------------------------------------------
# entropy-positive perturbation of percolation schedules


@dataclass
class PerturbResult:
    seq: WeightSequence
    flags: list


def top_entropy(n_letters: int, alpha=None) -> float:
    """Largest entropy of a law on n letters: log n, or log sum(alpha)
    under survival alpha.  A schedule's certified drift lies below it."""
    return math.log(n_letters if alpha is None else float(np.sum(alpha)))


def _drift_limits(ifs: DiagonalIFS, alpha):
    """(top entropy H_max, blend threshold lam_thr, eps bound): the
    perturbation drift stays below 1/lam_thr, the slow-clock budget and
    the inverse alphabet size."""
    alpha = as_survival_vector(alpha, ifs.n)
    H_max = top_entropy(ifs.n, alpha)
    if H_max <= 0:
        raise DegenerateError("subcritical survival vector")
    H_min = float(np.log(alpha).min())
    lam_thr = 8.0 * (H_max - 2.0 * H_min) / H_max ** 2
    lam_lo, _ = ifs.contraction_span()
    return H_max, lam_thr, min(1.0 / lam_thr, lam_lo, 1.0 / ifs.n)


def admissible_eps_bound(ifs: DiagonalIFS, alpha) -> float:
    """Upper limit for the perturbation drift (see ``_drift_limits``)."""
    return _drift_limits(ifs, alpha)[2]


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
    H_max, lam_thr, bound = _drift_limits(ifs, alpha)
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
    ok = float((S - eps * M).min()) >= -1e-9
    return PerturbResult(seq=out, flags=[] if ok else ["postcondition-failed"])


# ---------------------------------------------------------------------------
# schedule optimizers: one concave program per clock pattern

# lower bound on every letter's mass during a solve: it keeps the entropy
# gradients -log p finite, and optima stay off it, where those are +inf
_P_FLOOR = 1e-12
# solves per search while the clocks move with the vectors (unequal
# linear parts); the last solution is kept when they still move
_CLOCK_ROUNDS = 8


def packing_budget(ifs: DiagonalIFS, N: float) -> int:
    """Schedule rows the packing search reads at scale N,
    floor(Lambda_a * N) + 2: the block lengths must cover them."""
    _, lam_hi = ifs.contraction_span()
    return int(math.floor(lam_hi * N)) + 2


def _schedule_lengths(lengths, eps: float) -> list:
    """The block lengths of a schedule search, as Python ints, once its
    drift eps is found finite and positive and the lengths a type-ell
    schedule."""
    if not (math.isfinite(eps) and eps > 0):
        raise InputError("eps must be finite and positive, got %r" % eps)
    bad = validate_type_ell(lengths)
    if bad:
        raise InputError("lengths: " + "; ".join(bad))
    return list(map(int, lengths))


def _cut_runs(L, cuts):
    """Split the runs of lengths L at the positions ``cuts``: the pieces'
    lengths, as integers (runs and cuts count generations), and the run
    each piece lies in."""
    E = np.concatenate([[0.0], np.cumsum(L)])
    cuts = np.asarray(cuts, dtype=np.float64)
    bounds = np.union1d(E, cuts[(cuts > 0.0) & (cuts < E[-1])])
    return (np.diff(bounds).astype(np.int64),
            E.searchsorted(bounds[:-1], side="right") - 1)


def _program_rows(table: _RunTable, Ns, tail: bool):
    """Every candidate of the minima behind min_N d~_N (min_N d_N with
    ``tail``) as a row of coefficients on the per-run values.  Returns
    (C, mats): C[j, f, i] is the coefficient of run i's value of feature f
    in candidate j, divided by the candidate's N; feature 0 is the entropy
    H and feature f >= 1 the projected entropy through the indicator
    matrix mats[f - 1].

    At a scale, H_{N,k} (``_profile_rows``, whose level-1 slot is empty
    for k >= g_1) is linear between the clocks and the run boundaries, so
    those are the candidates for k in [g_1, g_s]; the tail adds the prefix
    sums of H at the boundaries inside (g_s, T) and at T, the horizon."""
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
            prof = _profile_rows(E, gi, ks)
            c = np.zeros((ks.size, len(feats) + 1, E.size - 1))
            c[:, 0] = prof[:, 0]
            for r in range(2, gi.size + 1):
                c[:, feats[coding, r]] = prof[:, r]
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


def _solve_epigraph(V, C, mats, log_alpha, D, rate: float):
    """An SLSQP solve, from the run vectors V (runs x letters), of the
    epigraph program max t subject to t <= C.F for every candidate row,
    D @ H >= rate and sum p = 1 per run.  F holds the per-run values:
    feature 0 is the entropy H (plus p.log_alpha unless that is None) and
    feature f >= 1 the projected entropy through the indicator matrix
    mats[f - 1]; C[j, f, i] is the coefficient of run i's feature f in
    candidate j.  Returns the vectors and the solve's status, iterations,
    evaluations and KKT residual (sup norm of the Lagrangian's gradient)."""
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


def _start_laws(ifs: DiagonalIFS, alpha, pm) -> list:
    """The laws the schedule searches start from: the entropy maximizer pm
    and, on unequal linear parts, the best constant law
    (``optimize_mandelbrot``).  There the clocks move with the law and a
    search stays in its start's clock pattern; on equal linear parts the
    program is concave and one start suffices."""
    if ifs.equal_linear_parts():
        return [pm]
    return [pm, optimize_mandelbrot(ifs, alpha).argument]


def _solve_from_starts(ev: _RunEvaluator, lengths, laws, Ns, M0: int,
                       rate: float, tail: bool = False, cut: bool = False):
    """``_solve_schedule`` from each law repeated on every run, when that
    start lies in the drift class; the first must.  Returns the search
    with the largest value, the earliest on a tie, and the number of
    starts solved."""
    best, n = None, 0
    for i, p in enumerate(laws):
        vectors = np.tile(p, (len(lengths), 1))
        if i and not _RunTable(ev, lengths, vectors).admissible(M0, rate):
            continue
        n += 1
        search = _solve_schedule(ev, lengths, vectors, Ns, M0, rate, tail, cut)
        if best is None or search[1] > best[1]:
            best = search
    return best, n


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
    floor(N*eps), one concave solve each (``_solve_schedule``) from each
    law of ``_start_laws``; the better search is kept, and n_starts is the
    most starts solved at one N.  The search is deterministic; ``seed`` is
    ignored (``bench/reference.py`` still passes it).  The witness
    concatenates entropy-lifted maximizers on exponentially separated
    windows; it is reported, with its admissibility scan, rather than
    certified optimal.  Bad eps, lengths or
    scales, and lengths short of the largest scale's budget, raise
    InputError before a subcritical alpha raises DegenerateError."""
    alpha = as_survival_vector(alpha, ifs.n)
    lengths = _schedule_lengths(lengths, eps)
    N_grid = np.sort(resolutions(N_grid))
    rows = packing_budget(ifs, N_grid.max())
    if sum(lengths) < rows:
        raise InputError("lengths cover %d rows; the scale N = %g reads %d"
                         % (sum(lengths), N_grid.max(), rows))
    if top_entropy(ifs.n, alpha) <= 0:
        raise DegenerateError("subcritical survival vector")
    _, lam_hi = ifs.contraction_span()
    laws = _start_laws(ifs, alpha, p_max_vector(alpha))
    ev = _RunEvaluator(ifs, alpha)
    per_N, runs, solves, settled, n_starts = [], {}, [], True, 1
    for N in N_grid:
        budget = packing_budget(ifs, N)
        M_lo = max(1, int(math.floor(N * eps)))
        L, _ = _cut_runs(lengths, [M_lo, budget])
        L = L[np.cumsum(L) <= budget]
        (table, value, solved, done), n = _solve_from_starts(
            ev, L, laws, [N], M_lo, -eps, cut=True)
        n_starts = max(n_starts, n)
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
                              iterations=nit, n_starts=n_starts,
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
                                N_points: int = 24) -> OptimizationResult:
    """Hausdorff-side schedule search: maximize the at-horizon lower
    dimension estimate (minimum of d_N over a scale grid) over block
    schedules with certified entropy drift sum_{n<=N} H >= N*eps.

    One vector per block, one concave solve (``_solve_schedule``) from
    each law of ``_start_laws`` that lies in the class; the better search
    is kept.  The certificate re-scans the returned schedule
    after projecting each block vector to the eps^2 grid; both the
    continuous and the projected values are reported.  Bad eps or lengths
    raise InputError before a subcritical alpha raises DegenerateError, an
    eps at or past the top entropy after it."""
    alpha = None if alpha is None else as_survival_vector(alpha, ifs.n)
    block_lengths = _schedule_lengths(lengths, eps)
    horizon = sum(block_lengths)
    H_max = top_entropy(ifs.n, alpha)
    if H_max <= 0:
        raise DegenerateError("subcritical survival vector")
    if eps >= H_max:
        raise InputError("eps = %g must lie below the top entropy %g"
                         % (eps, H_max))
    pm = np.full(ifs.n, 1.0 / ifs.n) if alpha is None else p_max_vector(alpha)
    ev = _RunEvaluator(ifs, alpha)
    _, lam_hi = ifs.contraction_span()
    maxN = horizon / lam_hi * 0.98
    N_grid = np.geomspace(max(4.0, maxN / 16.0), maxN, N_points)
    burn = int(math.ceil(1.0 / eps))
    # the entropy maximizer, the first start, has the largest sums, so it
    # lies in the class
    (table, value, solves, settled), n_starts = _solve_from_starts(
        ev, block_lengths, _start_laws(ifs, alpha, pm), N_grid, burn, eps,
        tail=True)
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
                              iterations=nit, n_starts=n_starts, flags=flags,
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
