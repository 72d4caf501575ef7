"""Monte Carlo side: branching survival, percolation trees, cascades,
box counting and local dimension sampling.

Trees and cascades are keyed by a counter-based generator (see rng),
so resampling with the same seed reproduces the same object node for node,
independent of traversal order or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ifs import DiagonalIFS
from .rng import ROOT_CODE, child_codes, max_code_depth, uniform
from .weights import InputError, WeightModel, WeightSequence, as_survival_vector
from .engine import check_letters, stable_chain
from .scales import _const_gamma, resolutions

MEMORY_GUARD = 10 ** 8
SURVIVAL_CAP = 100_000      # population cap of gw_survival_frequency
MAX_ATTEMPTS = 10 ** 6      # tries of sample_tree_conditioned
BLOCK_ROWS = 2 ** 15        # cells per block of tree_rects and the box counts


class ResourceCapError(RuntimeError):
    """A simulation exceeded its node or box budget, or the depth its node
    codes can represent."""


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


def gw_survival_frequency(alpha, depth: int, runs: int,
                          seed: int = 0) -> SurvivalEstimate:
    counts = simulate_level_counts(alpha, depth, runs, seed=seed, cap=SURVIVAL_CAP)
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


def _grow(arity: int, depth: int, guard: int, keep) -> list:
    """Heap-code levels from the root down to ``depth``.

    ``keep(n, codes, kids)`` gets the codes of level n - 1 and their
    children, shape (len(codes), arity), and returns the mask of children
    that make level n.  An empty level has only empty levels below it."""
    limit = max_code_depth(arity)
    if depth > limit:
        raise ResourceCapError("depth %d: heap codes of arity %d reach 2**63 "
                               "past level %d" % (depth, arity, limit))
    levels = [np.array([ROOT_CODE], dtype=np.uint64)]
    for n in range(1, depth + 1):
        kids = child_codes(levels[-1], arity)
        if kids.size > guard:
            raise ResourceCapError("level %d would hold %d nodes (guard %d)"
                                   % (n, kids.size, guard))
        levels.append(kids[keep(n, levels[-1], kids)])
    return levels


def sample_tree(ifs_or_arity, alpha, depth: int, seed: int = 0,
                guard: int = MEMORY_GUARD) -> PercolationTree:
    """Fractal percolation tree to the given depth, alpha its survival
    vector.  Cell survival draws are keyed by the cell's word, so deepening
    the tree preserves what was already sampled."""
    arity = ifs_or_arity.n if isinstance(ifs_or_arity, DiagonalIFS) else int(ifs_or_arity)
    alpha = as_survival_vector(alpha, arity)
    levels = _grow(arity, depth, guard,
                   lambda n, codes, kids: uniform(seed, kids) < alpha)
    return PercolationTree(arity=arity, depth=depth, seed=seed, levels=levels)


def sample_tree_conditioned(ifs_or_arity, alpha, depth: int, seed: int = 0,
                            guard: int = MEMORY_GUARD) -> tuple[PercolationTree, int]:
    """Rejection-sample a tree surviving to the given depth; returns the
    tree and the number of attempts.  Each attempt derives its key stream
    from (seed, attempt)."""
    for attempt in range(MAX_ATTEMPTS):
        tree = sample_tree(ifs_or_arity, alpha, depth,
                           seed=seed + 0x9E3779B9 * attempt, guard=guard)
        if tree.survived():
            return tree, attempt + 1
    raise ResourceCapError("no surviving tree in %d attempts" % MAX_ATTEMPTS)


def tree_rects(tree: PercolationTree, ifs: DiagonalIFS, level: int):
    """(corner, side) arrays of the surviving level cells, in code order and
    with each axis contiguous.

    Each level is gathered from the one above, in blocks of BLOCK_ROWS
    cells.  Levels are sorted, and the children of code c are c * arity + 1
    onwards, so the parents of a block are a slice of the level above and
    each parent's first child is found by one search in the block.  The
    float operations are those of composing the maps digit by digit, in the
    same order.  InputError unless the tree has one letter per map."""
    d, arity = ifs.d, tree.arity
    if arity != ifs.n:
        raise InputError("tree has arity %d, system has %d maps" % (arity, ifs.n))
    T, A = ifs.T.T.copy(), ifs.A.T.copy()     # one contiguous row per axis
    lo, scale = np.zeros((d, 1)), np.ones((d, 1))
    # every code a level could hold stays below 2**63 (rng.max_code_depth),
    # so int64 views and the first child codes c * arity + 1 are exact
    for n in range(1, level + 1):
        codes = tree.levels[n].view(np.int64)
        above = tree.levels[n - 1].view(np.int64)
        lo_n, scale_n = np.empty((d, codes.size)), np.empty((d, codes.size))
        for a in range(0, codes.size, BLOCK_ROWS):
            b = a + BLOCK_ROWS
            kids = codes[a:b]
            i = np.searchsorted(above, (kids[0] - 1) // arity)
            j = np.searchsorted(above, (kids[-1] - 1) // arity, side="right")
            starts = np.searchsorted(kids, above[i:j] * arity + 1)
            idx = np.repeat(np.arange(j - i), np.diff(starts, append=kids.size))
            letter = (kids - 1) % arity
            for t in range(d):
                s = scale[t][i:j][idx]
                # the parent's corner plus s * T, added in either order
                np.multiply(s, T[t][letter], out=lo_n[t, a:b])
                lo_n[t, a:b] += lo[t][i:j][idx]
                np.multiply(s, A[t][letter], out=scale_n[t, a:b])
        lo, scale = lo_n, scale_n
    return lo.T, scale.T


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


def sample_cascade(model_or_seq, depth: int, seed: int = 0) -> CascadeSample:
    """Multiplicative cascade of the weight law(s) down to ``depth``.

    Nodes with zero mass are dropped (the support condition keeps them
    irrelevant for every moment).  Y_k is exact for the sampled tree.  A
    schedule must cover the depth."""
    if isinstance(model_or_seq, WeightSequence) and depth > model_or_seq.horizon:
        raise InputError("depth %d exceeds the schedule horizon %d"
                         % (depth, model_or_seq.horizon))
    masses = [np.ones(1)]

    def keep(n, codes, kids):
        model = _model_at(model_or_seq, n)
        if model.kind == "deterministic":
            W = np.broadcast_to(model.p, kids.shape)
        elif model.kind == "percolation":
            W = (model.p / model.alpha) * (uniform(seed, kids) < model.alpha)
        else:
            v = uniform(seed, codes, stream=1)
            cum = np.cumsum(model.atom_probs)
            idx = np.searchsorted(cum, v, side="right")
            idx = np.minimum(idx, len(model.atom_probs) - 1)
            W = model.atom_w[idx]
        Q = masses[-1][:, None] * W
        alive = Q > 0.0
        masses.append(Q[alive])
        return alive

    levels = _grow(_model_at(model_or_seq, 1).n_letters, depth, MEMORY_GUARD, keep)
    return CascadeSample(depth=depth, seed=seed, levels=levels, masses=masses,
                         Y=np.array([float(Q.sum()) for Q in masses]))


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


def box_count(tree: PercolationTree, ifs: DiagonalIFS, N_list) -> np.ndarray:
    """Occupied e^{-N}-grid boxes of the sampled set at each N: the boxes
    that the deepest cells of the tree meet, rasterized under the node
    budget.  A grid whose e^N is within 1e-9 relative of an integer gets
    that integer as its side count."""
    lo, size = tree_rects(tree, ifs, tree.depth)
    counts = []
    for N in np.asarray(N_list, dtype=np.float64):
        try:
            k = math.exp(N)
        except OverflowError:
            raise ResourceCapError("grid e^N at N = %g exceeds the float range"
                                   % N) from None
        if abs(k - round(k)) <= 1e-9 * max(1.0, k):
            k = round(k)
        counts.append(_raster_count(lo, size, k, MEMORY_GUARD))
    return np.array(counts, dtype=np.int64)


# grid indices, spans and packed keys stay below this, so int64 never wraps
_INT_LIMIT = 2 ** 62


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """keys without the entries equal to their predecessor."""
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Distinct values of a numeric array, by sorting (np.unique hashes
    integers, which is several times slower at these sizes)."""
    return _drop_repeats(np.sort(keys))


def _distinct_rows(rows: np.ndarray, low: list, high: list) -> np.ndarray:
    """Distinct columns of an integer-valued (c, m) array whose row t lies
    in [low[t], high[t]], as an int64 (c, r) array.  Columns are packed
    into mixed-radix keys, exact in float64; when those would pass 2**53
    every column is kept."""
    radix = [h - m + 1 for m, h in zip(low, high)]
    if math.prod(radix) > 2 ** 53:
        return rows.astype(np.int64)
    key = rows[0] - low[0]
    for c, m, r in zip(rows[1:], low[1:], radix[1:]):
        key *= r
        key += c - m
    # neighbouring cells of a tree often share ranges: drop those first
    key = _sorted_distinct(_drop_repeats(key)).astype(np.int64, copy=False)
    out = np.empty((len(radix), key.size), dtype=np.int64)
    for t in range(len(radix) - 1, 0, -1):
        key, out[t] = np.divmod(key, radix[t])
        out[t] += low[t]
    out[0] = key + low[0]
    return out


def _range_rows(lo: np.ndarray, size: np.ndarray, k: float, guard: int) -> np.ndarray:
    """Distinct index ranges of the grid boxes of side 1/k that the
    half-open rectangles meet, as an int64 (2d, r) array: per axis the
    first index, then per axis the number of indices (at least one).

    Rectangles are taken in blocks of BLOCK_ROWS; each block's ranges are
    reduced to distinct rows, and those are merged once more.  Raises
    ResourceCapError when an index or span may not fit in int64, or when
    the boxes of all rectangles, counted before any merge, pass the guard."""
    m, d = lo.shape
    eps = 1e-12
    lo_t, size_t = lo.T, size.T
    buf = np.empty((2 * d, min(m, BLOCK_ROWS)))
    low, high = np.full(2 * d, math.inf), np.full(2 * d, -math.inf)
    total, blocks = 0.0, []
    for a in range(0, m, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, m)
        first, spans = buf[:d, :b - a], buf[d:, :b - a]
        np.multiply(lo_t[:, a:b], k, out=first)
        first += eps
        np.floor(first, out=first)
        np.add(lo_t[:, a:b], size_t[:, a:b], out=spans)
        spans *= k
        spans -= eps
        np.ceil(spans, out=spans)
        # exact: the difference of two integers is rounded only when it
        # is past 2**53, and then the guard refuses it anyway
        spans -= first
        np.maximum(spans, 1.0, out=spans)
        rows = buf[:, :b - a]
        b_low, b_high = rows.min(axis=1), rows.max(axis=1)
        # np.minimum and np.maximum keep a NaN, and a NaN fails the test;
        # the largest index and the largest span may come from two blocks
        np.minimum(low, b_low, out=low)
        np.maximum(high, b_high, out=high)
        if not (np.all(low[:d] > -_INT_LIMIT)
                and np.all(high[:d] + high[d:] < _INT_LIMIT)):
            raise ResourceCapError("grid indices at k = %.6g do not fit in int64" % k)
        # exact while the total is below 2**53, and it cannot wrap
        boxes = spans[0].copy()
        for n in spans[1:]:
            boxes *= n
        total += float(boxes.sum())
        if total <= guard:
            blocks.append(_distinct_rows(rows, [int(x) for x in b_low],
                                         [int(x) for x in b_high]))
    if total > guard:
        raise ResourceCapError("rasterizing %d boxes exceeds guard %d"
                               % (total, guard))
    if len(blocks) == 1:
        return blocks[0]
    return _distinct_rows(np.concatenate(blocks, axis=1),
                          [int(x) for x in low], [int(x) for x in high])


def _raster_count(lo: np.ndarray, size: np.ndarray, k: float, guard: int) -> int:
    """Distinct grid boxes of side 1/k meeting the half-open rectangles.

    The boxes a rectangle meets depend only on its index ranges, so equal
    ranges are merged before their boxes are enumerated.  The guard bounds
    the boxes of all rectangles, counted before that merge."""
    if lo.size == 0:
        return 0
    d = lo.shape[1]
    rows = _range_rows(lo, size, k, guard)
    first, spans = list(rows[:d]), list(rows[d:])

    # boxes get mixed-radix keys over the extent of the met boxes
    low = [int(i.min()) for i in first]
    radix = [int((i + n).max()) - m for i, n, m in zip(first, spans, low)]
    if math.prod(radix) >= _INT_LIMIT:
        raise ResourceCapError("box keys at k = %.6g do not fit in int64" % k)
    strides = [math.prod(radix[t + 1:]) for t in range(d)]
    base = sum((i - m) * st for i, m, st in zip(first, low, strides))
    # each box is its range's base plus an offset, the box's position in
    # the range split by mixed radix over its spans; ranges are taken in
    # chunks of at most 2**24 boxes (or one range)
    per_range = math.prod(spans)
    ends = np.cumsum(per_range)
    seen, a = np.empty(0, dtype=np.int64), 0
    while a < base.size:
        done = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(ends.searchsorted(done + (1 << 24), side="right")))
        count = per_range[a:b]
        keys = np.repeat(base[a:b], count)
        j = np.arange(keys.size) - np.repeat(ends[a:b] - count - done, count)
        for n, st in zip(spans[:0:-1], strides[:0:-1]):
            j, off = np.divmod(j, np.repeat(n[a:b], count))
            keys += off * st
        keys += j * strides[0]
        seen = _sorted_distinct(np.concatenate([seen, keys]))
        a = b
    return int(seen.size)


def fit_range(window, n_scales: int) -> tuple:
    """The half-open range (i, j) of the scales a box-count fit uses: the
    given window, or by default the middle two quartiles, where neither the
    root nor the sampling horizon distorts the count.  It must be two
    integers holding at least two of the n_scales scales."""
    if window is None:
        window = n_scales // 4, max(n_scales // 4 + 2, (3 * n_scales) // 4)
    if not (len(window) == 2 and all(isinstance(x, (int, np.integer)) for x in window)
            and 0 <= window[0] and window[0] + 2 <= window[1] <= n_scales):
        raise InputError("fit window %r must be two integers i, j with "
                         "0 <= i and i + 2 <= j <= %d, the number of scales"
                         % (tuple(window), n_scales))
    return int(window[0]), int(window[1])


def box_count_fit(tree: PercolationTree, ifs: DiagonalIFS, N_list,
                  fit_window=None) -> BoxCountReport:
    """Least-squares slope of log counts against N over the scales of
    ``fit_range(fit_window, len(N_list))``."""
    N = np.asarray(N_list, dtype=np.float64)
    counts = box_count(tree, ifs, N)
    flags = []
    if np.any(np.diff(counts) < 0):
        flags.append("nonmonotone-counts")
    a, b = fit_range(fit_window, len(N))
    x = N[a:b]
    y = np.log(np.maximum(counts[a:b], 1))
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


def _spine_weights(model: WeightModel, dig: np.ndarray, rng) -> np.ndarray:
    """One generation's realized weights, points x letters, beside spines
    that take the letters ``dig``, size-biased at the spine letter: a
    percolation spine cell survives, and the atom is drawn with probability
    proportional to its spine weight.  Draws nothing for a deterministic
    law, the alive mask for percolation, one uniform per point for atoms."""
    if model.kind == "deterministic":
        return np.broadcast_to(model.p, (dig.size, model.p.size))
    if model.kind == "percolation":
        alive = rng.random((dig.size, model.p.size)) < model.alpha
        alive[np.arange(dig.size), dig] = True
        return alive * (model.p / model.alpha)
    biased = model.atom_probs[None, :] * model.atom_w[:, dig].T     # (points, atoms)
    biased = biased / biased.sum(axis=1, keepdims=True)
    u = rng.random(dig.size)
    idx = (np.cumsum(biased, axis=1) < u[:, None]).sum(axis=1)
    return model.atom_w[np.minimum(idx, model.atom_probs.size - 1)]


def empirical_local_dimension(ifs: DiagonalIFS, model: WeightModel, depth: int,
                              n_points: int, seed: int = 0,
                              N_list=None) -> LocalDimReport:
    """Monte Carlo local dimension of the limit measure at typical points.

    Samples spines under the size-biased law (digits i.i.d. p = E(W); the
    spine cell's weight re-weighted by it, see ``_spine_weights``), realizes
    the off-spine fiber sums per coarse band, and takes per point the
    least-squares slope of -log(mass of the scale-N box) against the box's
    realized scale.  The law needs one letter per map, the scales must be
    finite and positive, the depth must cover the slowest clock of the
    largest N, and the scales must give at least two distinct box sizes
    (InputError otherwise).  A sample whose points x (depth + 1) x s
    log-masses exceed MEMORY_GUARD raises ResourceCapError before any
    draw."""
    check_letters(ifs, model)
    p = model.mean()
    groups, _, chi_tilde, coding = stable_chain(ifs, p)
    s = len(groups)
    if N_list is None:
        N_max = (depth - 1) * float(chi_tilde[-1]) * 0.999
        N_list = np.linspace(N_max / 2.0, N_max, 8)
        scales = "the default scales"
    else:
        N_list = resolutions(N_list)
        scales = "scales " + ",".join("%g" % N for N in N_list)
    # the slowest clock passes the depth exactly when depth * chi_s <= N;
    # checked first: ``_const_gamma`` does not end where a step of one
    # generation no longer changes n * chi
    if N_list.max() >= depth * chi_tilde[-1]:
        raise InputError("depth %d too shallow: the slowest clock needs more "
                         "generations at N = %g" % (depth, N_list.max()))
    # clocks per scale (rows) and clock group (columns)
    G = np.array([[_const_gamma(float(c), float(N)) for c in chi_tilde]
                  for N in N_list], dtype=np.intp)
    # the box's largest side sets its scale; regressing against it instead
    # of the nominal N removes the clock-rounding bias
    realized = (G * chi_tilde).min(axis=1)
    if realized.min() == realized.max():
        raise InputError("depth %d and %s give one box size; the fit needs "
                         "two" % (depth, scales))

    size = n_points * (depth + 1) * s
    if size > MEMORY_GUARD:
        raise ResourceCapError("%d points to depth %d on %d levels hold %d "
                               "log-masses (guard %d)"
                               % (n_points, depth, s, size, MEMORY_GUARD))
    rng = np.random.default_rng(seed)
    digits = np.searchsorted(np.cumsum(p), rng.random((n_points, depth)), side="right")
    digits = np.minimum(digits, p.size - 1)
    rows = np.arange(n_points)
    # logs[0]: spine log-weights, logs[r - 1]: log-masses of the spine's
    # level-r fibers, per point and generation after a leading zero
    logs = np.zeros((s, n_points, depth + 1))
    for n in range(depth):
        dig = digits[:, n]
        W = _spine_weights(model, dig, rng)
        logs[0, :, n + 1] = np.log(W[rows, dig])
        for r in range(2, s + 1):
            fiber = coding.project_rows(W, r)[rows, coding.class_index[r - 1][dig]]
            logs[r - 1, :, n + 1] = np.log(fiber)
    cum = np.cumsum(logs, axis=2)
    # log-mass of the box: the spine to the first clock, then each level's
    # fibers over its band of generations
    masses = cum[0][:, G[:, 0]]
    for r in range(1, s):
        masses = masses + (cum[r][:, G[:, r]] - cum[r][:, G[:, r - 1]])
    # centring both sides keeps the slope exact to rounding even where it
    # is near zero
    x = realized - realized.mean()
    slopes = (masses.mean(axis=1, keepdims=True) - masses) @ x / (x @ x)
    return LocalDimReport(N=N_list, slopes=slopes,
                          median_slope=float(np.median(slopes)),
                          depth=depth, n_points=n_points)
