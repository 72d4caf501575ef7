"""Diagonal iterated function systems on the unit cube.

Maps are x -> diag(a) x + t with ratios a in (0,1)^d and images inside
[0,1]^d.  This module owns the geometry: validation, pairwise projection
comparisons, the lattice of feasible direction sets, sponge classification,
and the projection coding used to collapse letters that agree on a set of
axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

RECT_TOL = 1e-12
LP_SLACK = 1e-9


class ProjectionOverlapError(ValueError):
    """A pair of maps neither exactly overlaps nor is disjoint on some
    direction set; the sponge is not good for the requested chain."""

    def __init__(self, axes, i, j):
        self.axes = tuple(sorted(axes))
        self.pair = (i, j)
        super().__init__(
            "maps %d and %d neither coincide nor are disjoint on axes %s"
            % (i, j, self.axes)
        )


class DiagonalMap:
    """One affine map x -> diag(a) x + t.

    Enforces 0 < a_k < 1, t_k >= 0 and a_k + t_k <= 1 at construction;
    NaN/Inf entries are rejected.
    """

    __slots__ = ("a", "t")

    def __init__(self, a, t):
        a = np.asarray(a, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if a.ndim != 1 or t.shape != a.shape or a.size == 0:
            raise ValueError("a and t must be 1-d arrays of equal positive length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(t))):
            raise ValueError("non-finite entry in map data")
        if np.any(a <= 0.0) or np.any(a >= 1.0):
            raise ValueError("ratios must satisfy 0 < a_k < 1")
        if np.any(t < 0.0) or np.any(a + t > 1.0):
            raise ValueError("image must be contained in the unit cube")
        self.a = a
        self.t = t

    @property
    def d(self) -> int:
        return self.a.size


class DiagonalIFS:
    """A finite family of DiagonalMaps with a common ambient dimension.

    Exposes the ratio matrix A (n x d), translations T (n x d) and the
    per-axis log-contraction matrix C = -log A used by the Lyapunov
    exponents chi_k(p) = sum_i p_i * C[i, k].
    """

    def __init__(self, maps):
        maps = list(maps)
        if len(maps) < 2:
            raise ValueError("need at least two maps")
        d = maps[0].d
        if any(m.d != d for m in maps):
            raise ValueError("all maps must share the ambient dimension")
        self.maps = maps
        self.d = d
        self.n = len(maps)
        self.A = np.array([m.a for m in maps])
        self.T = np.array([m.t for m in maps])
        self.C = -np.log(self.A)
        self._codings = {}      # see build_projection_coding

    def lyapunov(self, p) -> np.ndarray:
        """chi_k(p) = -sum_i p_i log a_{i,k}, for all axes k."""
        p = np.asarray(p, dtype=np.float64)
        return p @ self.C

    def equal_linear_parts(self, tol: float = RECT_TOL) -> bool:
        """Whether every map has the same contraction ratios, within tol."""
        return bool(np.all(np.abs(self.A - self.A[0]) <= tol))

    def contraction_span(self):
        """(Lambda', Lambda): min over (i,k) of 1/|log a| and 1 + its max.

        These bracket the generation budgets: Lambda' * N <= g_1(N) and
        g_s(N) <= Lambda * N for every probability vector.
        """
        inv = 1.0 / self.C
        return float(inv.min()), float(1.0 + inv.max())

    def __len__(self) -> int:
        return self.n


def compare_projections(ifs: DiagonalIFS, i: int, j: int, axes, tol: float = RECT_TOL) -> str:
    """Classify the pair (i, j) on the axes of ``axes``.

    Returns "exact" when the maps coincide there coordinate-wise (within
    tol), "disjoint" when the open projected images miss each other on at
    least one of the axes, and "violation" otherwise.
    """
    axes = sorted(axes)
    ai, aj = ifs.A[i, axes], ifs.A[j, axes]
    ti, tj = ifs.T[i, axes], ifs.T[j, axes]
    if np.all(np.abs(ai - aj) <= tol) and np.all(np.abs(ti - tj) <= tol):
        return "exact"
    lo = np.maximum(ti, tj)
    hi = np.minimum(ti + ai, tj + aj)
    if np.any(hi - lo <= tol):
        return "disjoint"
    return "violation"


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_ifs(ifs: DiagonalIFS, tol: float = RECT_TOL) -> ValidationReport:
    """Report-style check of the system-level invariants.

    Per-map invariants are enforced at construction; here we verify that the
    open images are pairwise disjoint and that no face of the cube is touched
    by every map (face avoidance, one check per axis and side).
    """
    violations = []
    full = range(ifs.d)
    for i, j in itertools.combinations(range(ifs.n), 2):
        if compare_projections(ifs, i, j, full, tol) != "disjoint":
            violations.append("open images of maps %d and %d overlap" % (i, j))
    for k in range(ifs.d):
        if np.all(ifs.T[:, k] <= tol):
            violations.append("all maps touch face (axis %d, side 0)" % k)
        if np.all(ifs.T[:, k] + ifs.A[:, k] >= 1.0 - tol):
            violations.append("all maps touch face (axis %d, side 1)" % k)
    return ValidationReport(ok=not violations, violations=violations)


@dataclass(frozen=True)
class FeasibleSet:
    axes: frozenset
    strict: bool
    slack: float


def _direction_lp(ifs: DiagonalIFS, axes: frozenset) -> float:
    """Best margin s with max_{k in D} chi_k(p) + s <= min_{j not in D} chi_j(p).

    Linear program over the probability simplex; +inf for the full set.
    """
    comp = [k for k in range(ifs.d) if k not in axes]
    if not comp:
        return math.inf
    rows = []
    for k in axes:
        for j in comp:
            rows.append(np.append(ifs.C[:, k] - ifs.C[:, j], 1.0))
    a_ub = np.array(rows)
    c = np.zeros(ifs.n + 1)
    c[-1] = -1.0
    a_eq = np.append(np.ones(ifs.n), 0.0)[None, :]
    span = float(ifs.C.max() - ifs.C.min()) + 1.0
    bounds = [(0.0, 1.0)] * ifs.n + [(-span, span)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(rows)), A_eq=a_eq,
                  b_eq=[1.0], bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError("direction-set LP failed: %s" % res.message)
    return float(res.x[-1])


def feasible_direction_sets(ifs: DiagonalIFS, slack: float = LP_SLACK) -> list[FeasibleSet]:
    """All nonempty axis sets D realizable as {k : chi_k(p) <= x}.

    A set is strictly feasible when the separating margin exceeds ``slack``;
    margins within ``slack`` of zero are kept with strict=False (boundary
    cases, realizable only in the closure).
    """
    out = []
    for r in range(1, ifs.d + 1):
        for combo in itertools.combinations(range(ifs.d), r):
            axes = frozenset(combo)
            s = _direction_lp(ifs, axes)
            if s > slack:
                out.append(FeasibleSet(axes, True, s))
            elif s >= -slack:
                out.append(FeasibleSet(axes, False, s))
    return out


def _pairs_exact_or_disjoint(ifs, axes, tol):
    for i, j in itertools.combinations(range(ifs.n), 2):
        if compare_projections(ifs, i, j, axes, tol) == "violation":
            return (i, j)
    return None


@dataclass
class Classification:
    good_sponge: bool
    sppc: bool
    gatzouras_lalley: bool
    baranski: bool
    sierpinski: bool
    conformal: bool
    equal_linear_parts: bool
    feasible_sets: list[FeasibleSet]
    gl_order: tuple | None = None
    grid: tuple | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Most specific class the system belongs to."""
        if self.sierpinski:
            return "sierpinski"
        if self.gatzouras_lalley:
            return "gatzouras-lalley"
        if self.baranski:
            return "baranski"
        if self.sppc:
            return "sppc"
        if self.good_sponge:
            return "good-sponge"
        return "not-good"


def classify(ifs: DiagonalIFS, tol: float = RECT_TOL, slack: float = LP_SLACK) -> Classification:
    """Membership flags for the named sponge classes.

    Good sponge: exact-overlap-or-disjoint projections on every feasible
    direction set (boundary sets included).  SPPC strengthens this to every
    nonempty subset of every feasible set.  Gatzouras-Lalley requires a
    single permutation ordering every map's ratios strictly decreasingly,
    with the projection alternative on each least-contracted prefix set.
    Baranski requires the alternative on every single axis; Sierpinski
    additionally pins all maps to one integer grid.
    """
    failures = []
    feas = feasible_direction_sets(ifs, slack)

    good = True
    for fs in feas:
        bad = _pairs_exact_or_disjoint(ifs, fs.axes, tol)
        if bad is not None:
            good = False
            failures.append("good: pair %s on axes %s" % (bad, tuple(sorted(fs.axes))))
            break

    sppc = good
    if sppc:
        seen = set()
        for fs in feas:
            for r in range(1, len(fs.axes) + 1):
                for sub in itertools.combinations(sorted(fs.axes), r):
                    if sub in seen:
                        continue
                    seen.add(sub)
                    bad = _pairs_exact_or_disjoint(ifs, sub, tol)
                    if bad is not None:
                        sppc = False
                        failures.append("sppc: pair %s on axes %s" % (bad, sub))
                        break
                if not sppc:
                    break
            if not sppc:
                break

    # Gatzouras-Lalley: the candidate order is forced by any single map.
    order = tuple(np.argsort(-ifs.A[0], kind="stable"))
    gl = True
    for i in range(ifs.n):
        row = ifs.A[i, list(order)]
        if not np.all(row[:-1] > row[1:]):
            gl = False
            break
    if gl:
        for k in range(1, ifs.d):
            bad = _pairs_exact_or_disjoint(ifs, order[:k], tol)
            if bad is not None:
                gl = False
                failures.append("gl: pair %s on axes %s" % (bad, tuple(sorted(order[:k]))))
                break
    gl_order = order if gl else None

    baranski = True
    for k in range(ifs.d):
        bad = _pairs_exact_or_disjoint(ifs, (k,), tol)
        if bad is not None:
            baranski = False
            failures.append("baranski: pair %s on axis %d" % (bad, k))
            break

    equal_linear = ifs.equal_linear_parts(tol)
    conformal = bool(np.all(np.abs(ifs.A - ifs.A[:, :1]) <= tol))

    sierpinski = False
    grid = None
    if baranski and equal_linear:
        m = np.round(1.0 / ifs.A[0])
        on_grid = (m >= 2) & (np.abs(ifs.A[0] - 1.0 / m) <= tol)
        if np.all(on_grid):
            cells = ifs.T * m[None, :]
            if np.all(np.abs(cells - np.round(cells)) <= m.max() * tol):
                sierpinski = True
                grid = tuple(int(v) for v in m)

    return Classification(
        good_sponge=good, sppc=sppc, gatzouras_lalley=gl, baranski=baranski,
        sierpinski=sierpinski, conformal=conformal,
        equal_linear_parts=equal_linear, feasible_sets=feas,
        gl_order=gl_order, grid=grid, failures=failures,
    )


class ProjectionCoding:
    """Letter identifications along a decreasing chain of direction sets.

    Level r merges letters whose maps coincide (within RECT_TOL) on the axes
    of chain[r-1]; the representative of a class is its smallest letter.
    Level indices are 1-based to match the scale decomposition that produces
    the chain.  Build codings through ``build_projection_coding``.
    """

    def __init__(self, ifs: DiagonalIFS, chain):
        chain = [frozenset(D) for D in chain]
        for prev, cur in zip(chain, chain[1:]):
            if not cur < prev:
                raise ValueError("direction sets must strictly decrease along the chain")
        self.ifs = ifs
        self.chain = chain
        self.class_index = []   # per level: letter -> class id
        self.reps = []          # per level: class id -> representative letter
        self.fibers = []        # per level: class id -> array of letters
        self.indicators = []    # per level: 0/1 matrix, letters x classes
        for D in chain:
            idx, reps, fibers = self._build_level(D)
            self.class_index.append(idx)
            self.reps.append(reps)
            self.fibers.append(fibers)
            M = np.zeros((ifs.n, len(reps)))
            M[np.arange(ifs.n), idx] = 1.0
            self.indicators.append(M)
        # map class ids of level r-1 to class ids of level r
        self.chain_maps = [None]
        for r in range(1, len(chain)):
            self.chain_maps.append(self.class_index[r][self.reps[r - 1]])

    def _build_level(self, axes):
        n = self.ifs.n
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in itertools.combinations(range(n), 2):
            verdict = compare_projections(self.ifs, i, j, axes)
            if verdict == "exact":
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
            elif verdict == "violation":
                raise ProjectionOverlapError(axes, i, j)
        roots = np.array([find(i) for i in range(n)])
        reps = np.unique(roots)
        lookup = {r: c for c, r in enumerate(reps)}
        idx = np.array([lookup[r] for r in roots])
        fibers = [np.flatnonzero(roots == r) for r in reps]
        return idx, reps, fibers

    @property
    def levels(self) -> int:
        return len(self.chain)

    def n_classes(self, r: int) -> int:
        return len(self.reps[r - 1])

    def project_vector(self, p, r: int) -> np.ndarray:
        """Push a mass vector on letters down to level-r classes."""
        p = np.asarray(p, dtype=np.float64)
        return np.bincount(self.class_index[r - 1], weights=p,
                           minlength=self.n_classes(r))

    def project_rows(self, rows, r: int) -> np.ndarray:
        """project_vector over the rows of a matrix."""
        return np.asarray(rows, dtype=np.float64) @ self.indicators[r - 1]


def build_projection_coding(ifs: DiagonalIFS, chain) -> ProjectionCoding:
    """The projection coding of ``chain`` on ``ifs``.  Each system builds a
    chain's coding once and returns that object for every later request,
    whatever the order of the axes inside the sets."""
    key = tuple(tuple(sorted(D)) for D in chain)
    coding = ifs._codings.get(key)
    if coding is None:
        coding = ifs._codings[key] = ProjectionCoding(ifs, chain)
    return coding
