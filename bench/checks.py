"""Checks of spongedim's outputs, computed apart from the program.

Every function here uses only numpy and the inputs the benchmark wrote: the
closed forms of grid carpets, block-native clocks, an independent evaluation of
the entropy profile, the heap-code structure of percolation trees, and box
counts by direct enumeration.  A check that fails raises `CheckFailed`.
"""

from __future__ import annotations

import math

import numpy as np

LOG2, LOG3 = math.log(2.0), math.log(3.0)
# 3x2 grid carpet with two cells in one row and one in the other
MCMULLEN_HAUSDORFF = math.log2(2.0 ** (LOG2 / LOG3) + 1.0)
MCMULLEN_PACKING = 1.0 + math.log(1.5) / LOG3


class CheckFailed(AssertionError):
    """A program output that contradicts the independent computation."""


def require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


def close(got, want, tol: float, what: str):
    require(got is not None and abs(got - want) <= tol,
            "%s: got %r, expected %r within %g" % (what, got, want, tol))


def nondecreasing(values, what: str):
    v = np.asarray(values)
    bad = np.flatnonzero(np.diff(v) < 0)
    require(bad.size == 0, "%s decreases at index %s" % (what, bad[:5].tolist()))


def entropy_rows(P):
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0.0, -P * np.log(np.where(P > 0.0, P, 1.0)), 0.0)
    return terms.sum(axis=-1)


# ---------------------------------------------------------------------------
# geometry of diagonal systems


def letter_classes(A, T, axes):
    """Class id per letter: letters whose maps agree on `axes`."""
    axes = sorted(axes)
    keys = [tuple(np.round(np.concatenate([A[i, axes], T[i, axes]]), 12))
            for i in range(A.shape[0])]
    ids = {}
    return np.array([ids.setdefault(k, len(ids)) for k in keys])


def project(P, cls):
    """Push rows of letter masses down to classes."""
    P = np.atleast_2d(P)
    out = np.zeros((P.shape[0], int(cls.max()) + 1))
    for letter, c in enumerate(cls):
        out[:, c] += P[:, letter]
    return out


def constant_law_dimension(A, T, p, alpha=None):
    """Dimension of the limit measure of a constant percolation law on a
    system whose maps share one contraction vector: H/chi_1 plus
    (1/chi_r - 1/chi_{r-1}) min(H, h(Pi_r p)) per coarser clock group."""
    p = np.asarray(p, dtype=np.float64)
    H = float(entropy_rows(p))
    if alpha is not None:
        H += float(p @ np.log(alpha))
    chi = -np.log(A[0])
    levels = sorted(set(np.round(chi, 12)), reverse=True)
    value = H / levels[0]
    for r in range(1, len(levels)):
        axes = [k for k in range(chi.size) if round(chi[k], 12) <= levels[r]]
        h_proj = float(entropy_rows(project(p, letter_classes(A, T, axes))[0]))
        value += (1.0 / levels[r] - 1.0 / levels[r - 1]) * min(H, h_proj)
    return value


def mcmullen_attractor_dimension(alpha, rows):
    """McMullen's formula for the percolated 3x2 carpet: log_2 of the sum
    over occupied rows of (expected surviving cells in the row)^(log_3 2)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return math.log2(sum(float(alpha[list(r)].sum()) ** (LOG2 / LOG3)
                         for r in rows))


# ---------------------------------------------------------------------------
# schedules


def expand(lengths, vectors):
    return np.repeat(np.asarray(vectors, dtype=np.float64), lengths, axis=0)


def block_clocks(lengths, vectors, C, N):
    """gamma_k(N) = smallest n with sum_{m<=n} chi_k(p_m) > N, found per
    block with math.fsum prefixes and one floor division."""
    chi = np.asarray(vectors, dtype=np.float64) @ C
    out = []
    for k in range(C.shape[1]):
        acc, n0 = [], 0
        for L, c in zip(lengths, chi[:, k]):
            before = math.fsum(acc)
            if before + L * c > N:
                out.append(n0 + int(math.floor((N - before) / c)) + 1)
                break
            acc.append(L * c)
            n0 += L
        else:
            raise CheckFailed("scale %g beyond the schedule" % N)
    return np.array(out)


def clock_groups(gammas):
    """Axis groups of equal clock, ordered by increasing clock."""
    order = np.argsort(gammas, kind="stable")
    groups, g = [], []
    for k in order:
        if g and gammas[k] == g[-1]:
            groups[-1].append(int(k))
        else:
            groups.append([int(k)])
            g.append(int(gammas[k]))
    return groups, g


def profile_d(P, alpha, A, T, N):
    """(d_N, d~_N) from the definitions, on dense rows P."""
    C = -np.log(A)
    chi_pre = np.cumsum(P @ C, axis=0)
    gam = np.array([int(np.searchsorted(chi_pre[:, k], N, side="right")) + 1
                    for k in range(A.shape[1])])
    groups, g = clock_groups(gam)
    H = entropy_rows(P)
    if alpha is not None:
        H = H + P @ np.log(alpha)
    Hpre = np.concatenate([[0.0], np.cumsum(H)])
    g1, gs = g[0], g[-1]
    band = np.zeros(gs - g1)
    remaining = [k for grp in groups for k in grp]
    for r in range(1, len(groups)):
        remaining = [k for k in remaining if k not in groups[r - 1]]
        cls = letter_classes(A, T, remaining)
        lo, hi = g[r - 1], g[r]
        band[lo - g1:hi - g1] = entropy_rows(project(P[lo:hi], cls))
    suffix = np.concatenate([np.cumsum(band[::-1])[::-1], [0.0]])
    Hk = Hpre[g1:gs + 1] + suffix
    tail = Hpre[gs] + float((Hpre[gs:] - Hpre[gs]).min())
    inner = float(Hk[:-1].min()) if Hk.size > 1 else math.inf
    return min(inner, tail) / N, float(Hk.min()) / N


def drift_holds(P, alpha, eps):
    """sum_{n<=M} H(W_n) >= M eps for every M from ceil(1/eps) on."""
    H = entropy_rows(P)
    if alpha is not None:
        H = H + P @ np.log(alpha)
    pre = np.cumsum(H)
    burn = int(math.ceil(1.0 / eps))
    M = np.arange(1, pre.size + 1)
    return bool(np.all(pre[burn - 1:] >= eps * M[burn - 1:]))


def periodic_rows(lam, knot_t, knot_p, horizon):
    """p at generations 1..horizon of a law piecewise linear in log t over
    one period [1, lam), wrapping to the first knot at lam."""
    x = np.concatenate([np.log(knot_t), [math.log(lam)]])
    K = np.vstack([knot_p, knot_p[:1]])
    xs = np.mod(np.log(np.arange(1, horizon + 1, dtype=np.float64)), math.log(lam))
    return np.stack([np.interp(xs, x, K[:, i]) for i in range(K.shape[1])], axis=1)


def conformal_periodic_dims(P, alpha, chi, lam):
    """(liminf, limsup) of sum_{m<=n} H / (n chi) over the last full period
    of a conformal schedule whose entropies stay positive."""
    H = entropy_rows(P) + (0.0 if alpha is None else P @ np.log(alpha))
    require(H.min() > 0, "entropy turns negative")
    n = np.arange(1, H.size + 1)
    ratio = np.cumsum(H) / (n * chi)
    window = ratio[int(H.size / lam):]
    return float(window.min()), float(window.max())


# ---------------------------------------------------------------------------
# trees


def decode_runs(runs):
    """Codes of one dumped level as Python integers."""
    out = []
    for start, length in runs:
        out.extend(range(int(start), int(start) + int(length)))
    return out


def orphan_levels(levels, arity):
    """[(level, count)] of codes whose heap parent (c - 1) // arity, taken in
    Python integers, is missing from the level above; the root must be 1."""
    bad = []
    if list(levels[0]) != [1]:
        bad.append((0, len(levels[0])))
    for n in range(1, len(levels)):
        above = set(levels[n - 1])
        lost = sum(1 for c in levels[n] if (c - 1) // arity not in above)
        if lost:
            bad.append((n, lost))
    return bad


def orphan_levels_fast(levels, arity):
    """orphan_levels for codes that fit int64 well below the wrap (all
    codes of trees no deeper than 38 at arity 3)."""
    bad = []
    if levels[0].tolist() != [1]:
        bad.append((0, int(levels[0].size)))
    for n in range(1, len(levels)):
        parents = (levels[n] - 1) // arity
        lost = int((~np.isin(parents, levels[n - 1])).sum())
        if lost:
            bad.append((n, lost))
    return bad


def decode_levels_fast(dump):
    """Levels of a dump as int64 arrays; only for codes below 2**62."""
    levels = []
    for runs in dump["levels"]:
        r = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
        require(r.size == 0 or (r[:, 0].min() > 0 and
                                int(r[:, 0].max()) + int(r[:, 1].max()) < 2 ** 62),
                "dumped codes outside the int64 fast path")
        if r.size == 0:
            levels.append(np.empty(0, dtype=np.int64))
            continue
        offsets = np.arange(int(r[:, 1].sum())) - np.repeat(np.cumsum(r[:, 1]) - r[:, 1], r[:, 1])
        levels.append(np.repeat(r[:, 0], r[:, 1]) + offsets)
    return levels


def leaf_rectangles(codes, level, arity, A, T):
    """(lower corner, side) of the level cells with the given heap codes.
    A level-n code is 1 + arity + ... + arity**n plus the cell's word read
    as a base-arity number, first letter most significant."""
    index = np.asarray(codes, dtype=np.int64) - sum(arity ** j for j in range(level + 1))
    lo = np.zeros((index.size, A.shape[1]))
    side = np.ones((index.size, A.shape[1]))
    for pos in range(level):
        digit = (index // arity ** (level - 1 - pos)) % arity
        lo += side * T[digit]
        side *= A[digit]
    return lo, side


def grid_box_count(lo, side, k):
    """Distinct boxes of the 1/k grid met by half-open rectangles that each
    span at most two boxes per axis."""
    i_lo = np.floor(lo * k + 1e-12).astype(np.int64)
    i_hi = np.maximum(np.ceil((lo + side) * k - 1e-12).astype(np.int64) - 1, i_lo)
    require(np.all(i_hi - i_lo <= 1), "scale too fine for the direct count")
    width = int(math.ceil(k)) + 2
    keys = []
    d = lo.shape[1]
    for mask in range(2 ** d):
        off = np.array([(mask >> t) & 1 for t in range(d)])
        ok = np.all(i_lo + off <= i_hi, axis=1)
        pts = (i_lo + off)[ok]
        flat = pts[:, 0]
        for t in range(1, d):
            flat = flat * width + pts[:, t]
        keys.append(flat)
    return int(np.unique(np.concatenate(keys)).size)


def fit_slope(N, counts, window):
    a, b = window
    return float(np.polyfit(np.asarray(N[a:b]), np.log(np.maximum(counts[a:b], 1)), 1)[0])


# ---------------------------------------------------------------------------
# checks of one command's output; each takes the parsed files


def check_profile_csv(header, rows, P, alpha, A, T):
    """dim-imm.csv: d_N <= d~_N everywhere, and both equal the independent
    profile at three grid points."""
    require(header == ["N", "d", "d_tilde"], "dim-imm.csv header %r" % header)
    N = np.array([float(r[0]) for r in rows])
    d = np.array([float(r[1]) for r in rows])
    dt = np.array([float(r[2]) for r in rows])
    require(np.all(d <= dt + 1e-12), "d_N > d~_N at N = %s" % N[d > dt + 1e-12][:3])
    # the last grid point sits 1e-12 below the horizon's resolution, closer
    # than float64 prefix sums resolve; the one before is 3% below it
    for j in (0, len(N) // 2, len(N) - 2):
        want = profile_d(P, alpha, A, T, N[j])
        close(d[j], want[0], 1e-8, "d_N at N = %r" % N[j])
        close(dt[j], want[1], 1e-8, "d~_N at N = %r" % N[j])


def check_one_law(doc, A, T, p, alpha):
    want = constant_law_dimension(A, T, p, alpha)
    close(doc["dim_H_estimate"], want, 1e-3, "one-law dim_H")
    close(doc["dim_P_estimate"], want, 1e-3, "one-law dim_P")


def check_decompose(doc, lengths, P, A, N):
    gam = block_clocks(lengths, P, -np.log(A), N)
    groups, g = clock_groups(gam)
    require(doc["gamma"] == gam.tolist(), "clocks %r, expected %r" % (doc["gamma"], gam.tolist()))
    require(doc["g"] == g and doc["A"] == [[k + 1 for k in grp] for grp in groups],
            "groups %r / %r, expected %r / %r" % (doc["A"], doc["g"], groups, g))


def check_gap(gaps, liminf_d_tilde, dim_H_estimate, d, d_tilde):
    """Three-weight schedule: d~_N - d_N > 1e-3 at the constructed scales,
    the same liminf, and d_N <= d~_N on the grid."""
    require(min(gaps) > 1e-3, "gap d~_N - d_N = %g at the constructed scales" % min(gaps))
    close(liminf_d_tilde, dim_H_estimate, 1e-3, "liminf d~ vs dim_H")
    require(np.all(np.asarray(d) <= np.asarray(d_tilde) + 1e-12), "gap schedule: d_N > d~_N")


def check_periodic(doc, P=None, alpha=None, chi=None, lam=None):
    """dim-periodic: dim_H <= dim_P; for a conformal system both equal the
    direct ratio over the last period of the dense rows within 2e-2."""
    require(doc["dim_H"] <= doc["dim_P"] + 1e-12, "dim_H > dim_P")
    if chi is not None:
        lo, hi = conformal_periodic_dims(P, alpha, chi, lam)
        close(doc["dim_H"], lo, 2e-2, "dim_H against the direct ratio")
        close(doc["dim_P"], hi, 2e-2, "dim_P against the direct ratio")


def check_dense_vs_exact(dense_doc, exact_doc):
    close(dense_doc["dim_H_estimate"], exact_doc["dim_H"], 2e-2, "dense dim_H vs exact")
    close(dense_doc["dim_P_estimate"], exact_doc["dim_P"], 2e-2, "dense dim_P vs exact")


def check_gap_demo(doc, exact_doc, A, T, alpha, rows):
    close(doc["dim_H"], exact_doc["dim_H"], 1e-9, "gap-demo dim_H")
    close(doc["dim_P"], exact_doc["dim_P"], 1e-9, "gap-demo dim_P")
    close(doc["best_constant_mm"], mcmullen_attractor_dimension(alpha, rows), 1e-6,
          "best constant law")
    close(doc["mm_at_average_p"],
          constant_law_dimension(A, T, np.array(doc["average_p"]), np.array(alpha)),
          1e-9, "law at the average p")
    require(doc["gap_vs_best"] > 0, "periodic dim_H not below the best constant law")


def check_packing(doc, scales):
    close(doc["value"], MCMULLEN_PACKING, 5e-3, "packing value")
    require([r["N"] for r in doc["certificate"]["per_N"]] == scales,
            "per-scale values %r" % doc["certificate"]["per_N"])


def check_hausdorff_full(doc):
    close(doc["value"], MCMULLEN_HAUSDORFF, 1e-6, "full Hausdorff value")
    close(doc["certificate"]["closed_form_value"], doc["value"], 1e-6,
          "closed form at the maximizer")


def check_attractor(v_opt, v_att, alpha, rows):
    close(v_att, v_opt, 1e-6, "dim-attractor vs optimize-hausdorff")
    close(v_att, mcmullen_attractor_dimension(alpha, rows), 1e-6, "McMullen formula")


def check_type_ell(doc, lengths, alpha, eps):
    require(doc["certificate"]["grid_certificate"] is True, "grid certificate failed")
    require(doc["certificate"]["grid_value"] is not None, "no grid value")
    blocks = doc["argument"]["blocks"]
    require([b["len"] for b in blocks] == list(lengths), "schedule lengths changed")
    P = expand([b["len"] for b in blocks], [b["p"] for b in blocks])
    require(drift_holds(P, np.asarray(alpha), eps), "returned schedule leaves the drift class")
    require(0.0 < doc["value"] < 2.0, "value %r outside (0, 2)" % doc["value"])


def check_tree_dump(doc, result_counts, arity, reload):
    """A dump of a tree shallow enough for int64 codes: its runs add up to
    the counts, every code's parent is one level up, and the program's
    loader gives back the same levels."""
    require(doc["counts"] == result_counts, "dump counts differ from the result counts")
    levels = decode_levels_fast(doc)
    require([int(l.size) for l in levels] == doc["counts"], "runs do not add up to the counts")
    bad = orphan_levels_fast(levels, arity)
    require(not bad, "codes without a parent at (level, count) %s" % bad[:3])
    again = reload(doc).levels
    require(len(again) == len(levels) and
            all(np.array_equal(np.asarray(a, dtype=np.int64), b) for a, b in zip(again, levels)),
            "the dump does not reload to the same levels")
    return levels


def check_boxcount(doc, header, rows, leaves, depth, A, T, slope=None, slope_tol=None):
    """Counts nondecreasing in N, equal to the direct count at the two
    coarsest scales, the reported slope equal to the fit of the CSV, and,
    when given, the slope within slope_tol of `slope`."""
    require(header == ["N", "count"], "boxcount.csv header %r" % header)
    N = np.array([float(r[0]) for r in rows])
    counts = np.array([int(r[1]) for r in rows])
    nondecreasing(counts, "box counts")
    lo, side = leaf_rectangles(leaves, depth, 3, A, T)
    for j in (0, 1):
        want = grid_box_count(lo, side, math.exp(N[j]))
        require(counts[j] == want, "count %d at N = %r, direct count %d" % (counts[j], N[j], want))
    close(doc["slope"], fit_slope(N, counts, doc["window"]), 1e-9, "fitted slope")
    if slope is not None:
        close(doc["slope"], slope, slope_tol, "box-counting slope")


def check_cascade(doc, header, rows, depth, arity):
    require(header == ["word", "Q"], "cascade.csv header %r" % header)
    require(len(rows) == doc["counts"][-1], "%d rows for %d nodes" % (len(rows), doc["counts"][-1]))
    words = [r[0] for r in rows]
    digits = set(str(i) for i in range(arity))
    require(len(set(words)) == len(words), "repeated words")
    require(all(len(w) == depth and set(w) <= digits for w in words), "malformed words")
    total = math.fsum(float(r[1]) for r in rows)
    close(total, doc["Y"][-1], 1e-9 * max(1.0, abs(doc["Y"][-1])), "CSV mass vs Y")
    require(doc["Y"][0] == 1.0, "Y_0 = %r" % doc["Y"][0])


def check_local_dim(doc, A, T, p, alpha):
    want = constant_law_dimension(A, T, p, alpha)
    close(doc["theory_value"], want, 1e-9, "local-dim formula value")
    close(doc["median_slope"], want, 0.1, "median local slope")
