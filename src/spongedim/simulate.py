"""Monte Carlo side: branching survival, percolation trees, cascades,
box counting and local dimension sampling.

Trees and cascades are keyed by a counter-based generator (see rng),

so resampling with the same seed reproduces the same object node for node,
independent of traversal order or chunking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ifs import DiagonalIFS
from .rng import ROOT_CODE, child_codes, max_code_depth, uniform
from .weights import WeightModel, WeightSequence, as_survival_vector
from .engine import stable_chain, _const_gamma

MEMORY_GUARD = 10 ** 8


class ResourceCapError(RuntimeError):
    """A simulation exceeded its node or box budget, or the depth its node
    codes can represent."""


def _check_code_depth(depth: int, arity: int) -> None:
    limit = max_code_depth(arity)
    if depth > limit:
        raise ResourceCapError("depth %d: heap codes of arity %d reach 2**63 "
                               "past level %d" % (depth, arity, limit))


# ---------------------------------------------------------------------------
# Galton-Watson survival


def gw_extinction(alpha) -> float:
    """Extinction probability of the branching process whose offspring are
    the surviving cells: smallest fixed point of the generating function
    f(x) = prod_i (1 - alpha_i + alpha_i x), bisected to 1e-12."""
    alpha = as_survival_vector(alpha)
    if float(alpha.sum()) <= 1.0:
        return 1.0

    def g(x):
        return float(np.prod(1.0 - alpha + alpha * x)) - x

    hi = 1.0 - 1e-12
    if g(hi) >= 0.0:
        # supercritical but with fixed point within 1e-12 of 1
        return hi
    lo = 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simulate_level_counts(alpha, depth: int, runs: int, seed: int = 0,
                          cap: int | None = None) -> np.ndarray:
    """Population sizes of the cell-count chain, shape (depth+1, runs).

    Z_{n+1} = sum_i Binomial(Z_n, alpha_i); an optional cap freezes large
    populations (their survival is then certain up to an error of at most
    q^cap with q the extinction probability)."""
    alpha = as_survival_vector(alpha)
    rng = np.random.default_rng(seed)
    out = np.empty((depth + 1, runs), dtype=np.int64)
    Z = np.ones(runs, dtype=np.int64)
    out[0] = Z
    for n in range(1, depth + 1):
        nxt = np.zeros(runs, dtype=np.int64)
        for a in alpha:
            nxt += rng.binomial(Z, a)
        if cap is not None:
            np.minimum(nxt, cap, out=nxt)
        Z = nxt
        out[n] = Z
    return out


@dataclass
class SurvivalEstimate:
    frequency: float
    std_error: float
    runs: int
    depth: int


def gw_survival_frequency(alpha, depth: int, runs: int, seed: int = 0,
                          cap: int = 100_000) -> SurvivalEstimate:
    counts = simulate_level_counts(alpha, depth, runs, seed=seed, cap=cap)
    alive = counts[-1] > 0
    freq = float(alive.mean())
    se = math.sqrt(max(freq * (1.0 - freq), 1.0 / runs) / runs)
    return SurvivalEstimate(frequency=freq, std_error=se, runs=runs, depth=depth)


# ---------------------------------------------------------------------------
# percolation trees


@dataclass
class PercolationTree:
    arity: int
    depth: int
    seed: int
    levels: list = field(repr=False)     # levels[n] = uint64 codes, n = 0..depth

    @property
    def counts(self) -> np.ndarray:
        return np.array([lvl.size for lvl in self.levels], dtype=np.int64)

    def words(self, level: int) -> np.ndarray:
        """Digit matrix (count, level) of the surviving level-``level`` cells."""
        return codes_to_words(self.levels[level], level, self.arity)

    def survived(self) -> bool:
        return self.levels[-1].size > 0


def codes_to_words(codes: np.ndarray, level: int, arity: int) -> np.ndarray:
    """Digit matrix (count, level) of heap codes at the given level."""
    codes = codes.astype(np.uint64, copy=True)
    one, base = np.uint64(1), np.uint64(arity)
    out = np.empty((codes.size, level), dtype=np.int64)
    for pos in range(level - 1, -1, -1):
        out[:, pos] = ((codes - one) % base).astype(np.int64)
        codes = (codes - one) // base
    return out


def _alpha_row(alpha, n: int, arity: int) -> np.ndarray:
    if alpha.ndim == 1:
        return alpha
    return alpha[n - 1]


def sample_tree(ifs_or_arity, alpha, depth: int, seed: int = 0,
                guard: int = MEMORY_GUARD) -> PercolationTree:
    """Fractal percolation tree to the given depth.

    alpha is a survival vector, or a (depth, arity) matrix for
    level-dependent percolation.  Cell survival draws are keyed by the cell's
    word, so deepening the tree preserves what was already sampled."""
    arity = ifs_or_arity.n if isinstance(ifs_or_arity, DiagonalIFS) else int(ifs_or_arity)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim == 1:
        alpha = as_survival_vector(alpha, arity)
    elif alpha.shape != (depth, arity):
        raise ValueError("per-level alpha must be (depth, arity)")
    _check_code_depth(depth, arity)
    levels = [np.array([ROOT_CODE], dtype=np.uint64)]
    codes = levels[0]
    for n in range(1, depth + 1):
        if codes.size == 0:
            levels.append(codes)
            continue
        kids = child_codes(codes, arity).ravel()
        if kids.size > guard:
            raise ResourceCapError("level %d would hold %d nodes (guard %d)"
                                   % (n, kids.size, guard))
        u = uniform(seed, kids)
        letters = ((kids - np.uint64(1)) % np.uint64(arity)).astype(np.intp)
        keep = u < _alpha_row(alpha, n, arity)[letters]
        codes = kids[keep]
        levels.append(codes)
    return PercolationTree(arity=arity, depth=depth, seed=seed, levels=levels)


def sample_tree_conditioned(ifs_or_arity, alpha, depth: int, seed: int = 0,
                            guard: int = MEMORY_GUARD,
                            max_attempts: int = 10 ** 6) -> tuple[PercolationTree, int]:
    """Rejection-sample a tree surviving to the given depth; returns the
    tree and the number of attempts.  Each attempt derives its key stream
    from (seed, attempt)."""
    for attempt in range(max_attempts):
        tree = sample_tree(ifs_or_arity, alpha, depth,
                           seed=seed + 0x9E3779B9 * attempt, guard=guard)
        if tree.survived():
            return tree, attempt + 1
    raise ResourceCapError("no surviving tree in %d attempts" % max_attempts)


def tree_rects(tree: PercolationTree, ifs: DiagonalIFS, level: int):
    """(corner, side) arrays of the surviving level cells."""
    digits = tree.words(level)
    m = digits.shape[0]
    lo = np.zeros((m, ifs.d))
    scale = np.ones((m, ifs.d))
    for pos in range(level):
        dig = digits[:, pos]
        lo += scale * ifs.T[dig]
        scale *= ifs.A[dig]
    return lo, scale


# ---------------------------------------------------------------------------
# cascades


@dataclass
class CascadeSample:
    depth: int
    seed: int
    levels: list = field(repr=False)     # codes per level
    masses: list = field(repr=False)     # node masses Q per level
    Y: np.ndarray = None                 # Y_k = sum of level-k masses

    def node_table(self, level: int):
        return self.levels[level], self.masses[level]


def _model_at(model_or_seq, n: int) -> WeightModel:
    if isinstance(model_or_seq, WeightSequence):
        return model_or_seq.model_at(n)
    return model_or_seq


def sample_cascade(model_or_seq, depth: int, seed: int = 0,
                   guard: int = MEMORY_GUARD) -> CascadeSample:
    """Multiplicative cascade of the weight law(s) down to ``depth``.

    Nodes with zero mass are dropped (the support condition keeps them
    irrelevant for every moment).  Y_k is exact for the sampled tree."""
    m0 = _model_at(model_or_seq, 1)
    arity = m0.n_letters
    _check_code_depth(depth, arity)
    codes = np.array([ROOT_CODE], dtype=np.uint64)
    Q = np.ones(1)
    levels, masses, Y = [codes], [Q], [1.0]
    for n in range(1, depth + 1):
        model = _model_at(model_or_seq, n)
        if codes.size == 0:
            levels.append(codes)
            masses.append(np.empty(0))
            Y.append(0.0)
            continue
        kids = child_codes(codes, arity)          # (m, arity)
        if kids.size > guard:
            raise ResourceCapError("level %d would hold %d nodes (guard %d)"
                                   % (n, kids.size, guard))
        if model.kind == "deterministic":
            W = np.broadcast_to(model.p, kids.shape)
        elif model.kind == "percolation":
            u = uniform(seed, kids.ravel()).reshape(kids.shape)
            alive = u < model.alpha
            W = (model.p / model.alpha) * alive
        else:
            v = uniform(seed, codes, stream=1)
            cum = np.cumsum(model.atom_probs)
            idx = np.searchsorted(cum, v, side="right")
            idx = np.minimum(idx, len(model.atom_probs) - 1)
            W = model.atom_w[idx]
        Qk = (Q[:, None] * W).ravel()
        keep = Qk > 0.0
        codes = kids.ravel()[keep]
        Q = Qk[keep]
        levels.append(codes)
        masses.append(Q)
        Y.append(float(Q.sum()))
    return CascadeSample(depth=depth, seed=seed, levels=levels, masses=masses,
                         Y=np.array(Y))


# ---------------------------------------------------------------------------
# box counting


@dataclass
class BoxCountReport:
    N: np.ndarray
    counts: np.ndarray
    slope: float
    intercept: float
    std_error: float
    window: tuple
    flags: list


def _integer_grid(ifs: DiagonalIFS) -> int | None:
    """Common integer subdivision m when the system sits on the conformal
    m-adic grid."""
    a = ifs.A
    if not np.all(a == a.flat[0]):
        return None
    m = round(1.0 / float(a.flat[0]))
    if m < 2 or abs(a.flat[0] - 1.0 / m) > 1e-12:
        return None
    cells = ifs.T * m
    if not np.all(np.abs(cells - np.round(cells)) <= 1e-9):
        return None
    return m


def box_count(source, ifs: DiagonalIFS, N_list, guard: int = MEMORY_GUARD) -> np.ndarray:
    """Occupied e^{-N}-grid boxes of the sampled set at each N.

    When e^N rounds (within 1e-9 relative) to a power of the system's
    conformal integer grid, counts come straight from the tree levels;
    otherwise the deepest-level rectangles are rasterized onto the grid
    under the node budget."""
    if isinstance(source, PercolationTree):
        tree = source
        rect_cache = {}
    else:
        tree = None
        lo, size = source
        lo = np.asarray(lo, dtype=np.float64)
        size = np.asarray(size, dtype=np.float64)
    m_grid = _integer_grid(ifs) if tree is not None else None
    counts = []
    for N in np.asarray(N_list, dtype=np.float64):
        k_real = math.exp(N)
        k = round(k_real)
        aligned = abs(k_real - k) <= 1e-9 * max(1.0, k_real)
        if tree is not None and aligned and m_grid is not None and k >= 1:
            j = round(math.log(k) / math.log(m_grid))
            if 0 <= j <= tree.depth and m_grid ** j == k:
                counts.append(int(tree.levels[j].size))
                continue
        if tree is not None:
            level = tree.depth
            if level not in rect_cache:
                rect_cache[level] = tree_rects(tree, ifs, level)
            lo, size = rect_cache[level]
        counts.append(_raster_count(lo, size, k_real if not aligned else k, guard))
    return np.array(counts, dtype=np.int64)


def _raster_count(lo: np.ndarray, size: np.ndarray, k: float, guard: int) -> int:
    """Distinct grid boxes of side 1/k meeting the half-open rectangles."""
    if lo.size == 0:
        return 0
    eps = 1e-12
    i_lo = np.floor(lo * k + eps).astype(np.int64)
    i_hi = np.ceil((lo + size) * k - eps).astype(np.int64) - 1
    i_hi = np.maximum(i_hi, i_lo)
    spans = i_hi - i_lo + 1
    per_rect = spans.prod(axis=1)
    total = int(per_rect.sum())
    if total > guard:
        raise ResourceCapError("rasterizing %d boxes exceeds guard %d"
                               % (total, guard))
    kk = int(math.ceil(k)) + 2
    d = lo.shape[1]
    chunks, pending = [], 0

    def _compact():
        nonlocal chunks, pending
        chunks = [np.unique(np.concatenate(chunks))]
        pending = chunks[0].size

    # rects spanning few boxes are enumerated by offset, vectorized over rects
    small = per_rect <= 64
    if small.any():
        lo_s, sp_s = i_lo[small], spans[small]
        for off in itertools.product(*(range(int(m)) for m in sp_s.max(axis=0))):
            off = np.array(off, dtype=np.int64)
            mask = np.all(off[None, :] < sp_s, axis=1)
            if not mask.any():
                continue
            pts = lo_s[mask] + off[None, :]
            flat = pts[:, 0].copy()
            for t in range(1, d):
                flat = flat * kk + pts[:, t]
            chunks.append(flat)
            pending += flat.size
            if pending > 1 << 24:
                _compact()
    # rects spanning many boxes get an explicit grid each (these are few
    # relative to their box count, which the guard already bounds)
    for r in np.nonzero(~small)[0]:
        ranges = [np.arange(i_lo[r, t], i_hi[r, t] + 1) for t in range(d)]
        flat = ranges[0].copy()
        for t in range(1, d):
            flat = (flat[:, None] * kk + ranges[t][None, :]).ravel()
        chunks.append(flat)
        pending += flat.size
        if pending > 1 << 24:
            _compact()
    return int(np.unique(np.concatenate(chunks)).size)


def box_count_fit(source, ifs: DiagonalIFS, N_list, fit_window=None,
                  guard: int = MEMORY_GUARD) -> BoxCountReport:
    """Least-squares slope of log counts against N.

    The default window keeps the middle two quartiles of the scales, where
    neither the root nor the sampling horizon distorts the count."""
    N = np.asarray(N_list, dtype=np.float64)
    counts = box_count(source, ifs, N, guard=guard)
    flags = []
    if np.any(np.diff(counts) < 0):
        flags.append("nonmonotone-counts")
    if fit_window is None:
        a, b = len(N) // 4, max(len(N) // 4 + 2, (3 * len(N)) // 4)
    else:
        a, b = fit_window
    x = N[a:b]
    y = np.log(np.maximum(counts[a:b], 1))
    if x.size < 2:
        raise ValueError("fit window holds fewer than two scales")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    sxx = float(((x - x.mean()) ** 2).sum())
    se = math.sqrt(float(resid @ resid) / dof / sxx) if sxx > 0 else math.nan
    return BoxCountReport(N=N, counts=counts, slope=float(slope),
                          intercept=float(intercept), std_error=se,
                          window=(a, b), flags=flags)


# ---------------------------------------------------------------------------
# localized digit frequencies


@dataclass
class LocalizedFrequencies:
    lengths: list
    counts: np.ndarray       # (blocks, letters)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.counts.sum(axis=1, keepdims=True)


def localized_frequencies(word, lengths, n_letters: int | None = None) -> LocalizedFrequencies:
    """Per-block letter counts of a word along a block schedule.

    Only blocks fully covered by the word are reported; a word shorter than
    the first block is an error."""
    word = np.asarray(word, dtype=np.intp)
    lengths = [int(x) for x in lengths]
    if word.size < lengths[0]:
        raise ValueError("word of length %d does not cover the first block (%d)"
                         % (word.size, lengths[0]))
    if n_letters is None:
        n_letters = int(word.max()) + 1
    rows, acc = [], 0
    kept = []
    for L in lengths:
        if acc + L > word.size:
            break
        rows.append(np.bincount(word[acc:acc + L], minlength=n_letters))
        kept.append(L)
        acc += L
    return LocalizedFrequencies(lengths=kept, counts=np.array(rows))


# ---------------------------------------------------------------------------
# local dimension along size-biased spines


@dataclass
class LocalDimReport:
    N: np.ndarray
    slopes: np.ndarray
    median_slope: float
    depth: int
    n_points: int


def empirical_local_dimension(ifs: DiagonalIFS, model: WeightModel, depth: int,
                              n_points: int, seed: int = 0,
                              N_list=None) -> LocalDimReport:
    """Monte Carlo local dimension of the limit measure at typical points.

    Samples spines under the size-biased law (digits i.i.d. p = E(W); the
    spine cell's weight re-weighted by it), realizes the off-spine fiber
    sums per coarse band, and fits -log(mass of the scale-N box) against N
    per point.  The depth must cover the slowest clock of the largest N."""
    p = model.mean()
    groups, chain, chi_tilde, _ = stable_chain(ifs, p)
    s = len(groups)
    from .ifs import build_projection_coding
    coding = build_projection_coding(ifs, chain)
    if N_list is None:
        N_max = (depth - 1) * float(chi_tilde[-1]) * 0.999
        N_list = np.linspace(N_max / 2.0, N_max, 8)
    N_list = np.asarray(N_list, dtype=np.float64)
    g_at = {N: [_const_gamma(float(c), float(N)) for c in chi_tilde] for N in N_list}
    gs_needed = max(g[-1] for g in g_at.values())
    if gs_needed > depth:
        raise ValueError("depth %d too shallow: slowest clock needs %d "
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
                V = np.zeros((n_points, coding.n_classes(r)))
                np.add.at(V, (slice(None), cls), vals)
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
                fiber_sum = np.zeros((n_points, coding.n_classes(r)))
                np.add.at(fiber_sum, (slice(None), cls), w[idx])
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
    slopes = np.array([np.polyfit(realized, -masses[i], 1)[0]
                       for i in range(n_points)])
    return LocalDimReport(N=N_list, slopes=slopes,
                          median_slope=float(np.median(slopes)),
                          depth=depth, n_points=n_points)
