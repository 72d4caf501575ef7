"""Probability vectors, survival vectors, and finitely supported weight laws.

A weight law (C, W) assigns each letter a survival bit c_i and a nonnegative
weight W_i with E(sum_i W_i) = 1 and {W_i > 0} inside {c_i = 1}.  Three
variants cover everything in scope: Deterministic (W = p surely),
Percolation (W_i = p_i 1{c_i=1}/alpha_i with independent cells), and
FiniteAtoms (an explicit finite list of (prob, c, w) atoms).  All moments are
exact finite sums; the percolation variant never expands its 2^n atoms
outside of tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._scipy import entr, xlogy

PROB_SUM_TOL = 1e-12
MEAN_ONE_TOL = 1e-10


class DegenerateError(ValueError):
    """Raised when a computation requires H(W) > 0 (or supercriticality)
    and the input fails it."""


class InputError(ValueError):
    """An argument breaks a rule of the function it was passed to.  The
    function that owns the rule raises it; the CLI exits 2 on it."""


def _float_array(x) -> np.ndarray:
    """x as a float64 array.  Only numbers (bools included) convert: a
    string, even one that spells a number, or a JSON object is a
    ValueError.  An integer past int64 leaves the inferred dtype object;
    such entries are checked one by one and convert as float() does."""
    a = np.asarray(x)
    if a.dtype.kind in "biuf":
        return a.astype(np.float64, copy=False)
    if a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat):
        return a.astype(np.float64)
    raise ValueError("expected numbers or lists of numbers")


def as_prob_vector(p) -> np.ndarray:
    p = _float_array(p)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-d and nonempty")
    return as_prob_rows(p[None, :])[0]


def as_prob_rows(rows) -> np.ndarray:
    """Validate every row of a matrix as a probability vector at once."""
    P = _float_array(rows)
    if P.ndim != 2 or P.shape[1] == 0:
        raise ValueError("probability vector must be 1-d and nonempty")
    if not np.all(np.isfinite(P)):
        raise ValueError("non-finite probability entry")
    if np.any(P < 0.0):
        raise ValueError("negative probability entry")
    sums = P.sum(axis=1)
    off = np.abs(sums - 1.0) > PROB_SUM_TOL
    if np.any(off):
        raise ValueError("probabilities sum to %r, not 1"
                         % float(sums[np.argmax(off)]))
    return P


def as_survival_vector(alpha, n: int | None = None) -> np.ndarray:
    a = _float_array(alpha)
    if a.ndim == 0 and n is not None:
        a = np.full(n, float(a))
    if a.ndim != 1 or a.size == 0:
        raise ValueError("survival vector must be 1-d and nonempty")
    if n is not None and a.size != n:
        raise ValueError("survival vector length %d, expected %d" % (a.size, n))
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite survival probability")
    if np.any(a <= 0.0) or np.any(a > 1.0):
        raise ValueError("survival probabilities must lie in (0, 1]")
    return a


def entropy(p) -> float:
    """Shannon entropy in nats, -sum p log p with 0 log 0 = 0."""
    return float(entr(np.asarray(p, dtype=np.float64)).sum())


def _pow_mass(x: np.ndarray, q: float) -> np.ndarray:
    # x >= 0 with the convention 0^0 = 0 (counts the support at q=0)
    if q == 0.0:
        return (x > 0.0).astype(np.float64)
    return x ** q


class WeightModel:
    """One weight law.  Use the classmethod constructors."""

    def __init__(self, kind, p=None, alpha=None, atom_probs=None, atom_c=None, atom_w=None):
        self.kind = kind
        self.p = p
        self.alpha = alpha
        self.atom_probs = atom_probs
        self.atom_c = atom_c
        self.atom_w = atom_w

    @classmethod
    def deterministic(cls, p) -> "WeightModel":
        return cls("deterministic", p=as_prob_vector(p))

    @classmethod
    def percolation(cls, p, alpha) -> "WeightModel":
        p = as_prob_vector(p)
        return cls("percolation", p=p, alpha=as_survival_vector(alpha, p.size))

    @classmethod
    def atoms(cls, atoms) -> "WeightModel":
        """atoms: iterable of (prob, c, w) with c a 0/1 vector, w >= 0."""
        probs = _float_array([a[0] for a in atoms])
        c = _float_array([a[1] for a in atoms])
        w = _float_array([a[2] for a in atoms])
        if probs.ndim != 1 or c.ndim != 2 or w.shape != c.shape:
            raise ValueError("malformed atom list")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError("atom probabilities must be nonnegative and sum to 1")
        if not np.all(np.isin(c, (0.0, 1.0))):
            raise ValueError("survival entries must be 0 or 1")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if np.any((w > 0) & (c == 0)):
            raise ValueError("support condition violated: w_i > 0 needs c_i = 1")
        mean_mass = float(probs @ w.sum(axis=1))
        if abs(mean_mass - 1.0) > MEAN_ONE_TOL:
            raise ValueError("mean total mass %r, expected 1" % mean_mass)
        return cls("atoms", atom_probs=probs, atom_c=c, atom_w=w)

    @property
    def n_letters(self) -> int:
        if self.kind == "atoms":
            return self.atom_w.shape[1]
        return self.p.size

    def mean(self) -> np.ndarray:
        """p = E(W)."""
        if self.kind == "atoms":
            return self.atom_probs @ self.atom_w
        return self.p.copy()

    def entropy_H(self) -> float:
        if self.kind == "deterministic":
            return entropy(self.p)
        if self.kind == "percolation":
            # closed form: h(p) + sum_i p_i log alpha_i
            return entropy(self.p) + float(self.p @ np.log(self.alpha))
        return -float(self.atom_probs @ xlogy(self.atom_w, self.atom_w).sum(axis=1))

    def phi(self, q: float) -> float:
        if q < 0:
            raise ValueError("q must be >= 0")
        if self.kind == "deterministic":
            return float(_pow_mass(self.p, q).sum())
        if self.kind == "percolation":
            return float((_pow_mass(self.p, q) * self.alpha ** (1.0 - q)).sum())
        return float(self.atom_probs @ _pow_mass(self.atom_w, q).sum(axis=1))

    def second_moment_depth1(self) -> float:
        """E((sum_i W_i)^2), exact."""
        if self.kind == "deterministic":
            return 1.0
        if self.kind == "percolation":
            # independent cells: 1 + sum p_i^2 (1/alpha_i - 1)
            return 1.0 + float((self.p ** 2 * (1.0 / self.alpha - 1.0)).sum())
        return float(self.atom_probs @ self.atom_w.sum(axis=1) ** 2)

    def expand_atoms(self) -> "WeightModel":
        """Expand to the explicit FiniteAtoms form (2^n atoms for
        percolation).  Test helper; guarded for small alphabets."""
        if self.kind == "atoms":
            return self
        n = self.n_letters
        if self.kind == "deterministic":
            return WeightModel.atoms([(1.0, np.ones(n), self.p)])
        if n > 16:
            raise ValueError("refusing to expand 2^%d atoms" % n)
        atoms = []
        for mask in range(2 ** n):
            c = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.float64)
            prob = float(np.prod(np.where(c == 1, self.alpha, 1.0 - self.alpha)))
            if prob == 0.0:
                continue
            atoms.append((prob, c, self.p / self.alpha * c))
        return WeightModel.atoms(atoms)


def p_max_vector(alpha) -> np.ndarray:
    """argmax of h~(p) = h(p) + sum p_i log alpha_i: p_i = alpha_i/sum."""
    a = np.asarray(alpha, dtype=np.float64)
    return a / a.sum()


class WeightSequence:
    """Per-generation weight models W^{(n)}, n = 1..horizon, held as blocks.

    Block m covers block_lengths[m] generations with one law, kept once: its
    mean vector V[m], its entropy H[m], and its survival law, which is the
    shared survival vector alpha (deterministic when alpha is None) or the
    explicit law models[m].  A dense matrix of rows is a list of blocks of
    length 1.  Nothing is stored per generation: the row views (p_rows,
    H_array, model_at) are expanded on demand.
    """

    def __init__(self, P, alpha=None):
        V = as_prob_rows(P)
        self._hold(np.ones(V.shape[0], dtype=np.int64), V, alpha=alpha)

    def _hold(self, lengths, V, alpha=None, models=None) -> "WeightSequence":
        """Keep validated blocks: positive lengths, one per row of the mean
        vectors V (blocks x letters), at least one, and either alpha or one
        model per block."""
        self.L = np.asarray(lengths, dtype=np.int64)
        if self.L.size == 0:
            raise InputError("a schedule needs at least one block")
        if self.L.size != V.shape[0]:
            raise InputError("%d block lengths for %d blocks"
                             % (self.L.size, V.shape[0]))
        self.ends = np.cumsum(self.L)
        self.V = V
        self.models = models
        self.alpha = None if alpha is None else as_survival_vector(alpha, V.shape[1])
        if models is not None:
            self.H = np.array([m.entropy_H() for m in models])
        else:
            self.H = entr(V).sum(axis=1)
            if self.alpha is not None:
                self.H = self.H + V @ np.log(self.alpha)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, model: WeightModel, horizon: int) -> "WeightSequence":
        if model.kind == "atoms":
            return cls.from_models([model], [horizon])
        alpha = model.alpha if model.kind == "percolation" else None
        return cls.from_blocks([horizon], [model.mean()], alpha=alpha)

    @classmethod
    def from_blocks(cls, lengths, vectors, alpha=None) -> "WeightSequence":
        L = _positive_lengths(lengths)
        return cls.__new__(cls)._hold(L, as_prob_rows(vectors), alpha=alpha)

    @classmethod
    def from_models(cls, models, lengths) -> "WeightSequence":
        """One explicit law per block."""
        models = list(models)
        if len({m.n_letters for m in models}) > 1:
            raise ValueError("block laws differ in their number of letters")
        return cls.__new__(cls)._hold(_positive_lengths(lengths),
                                      np.array([m.mean() for m in models]),
                                      models=models)

    # -- queries -------------------------------------------------------

    @property
    def block_lengths(self) -> list:
        return self.L.tolist()

    @property
    def horizon(self) -> int:
        return int(self.ends[-1])

    @property
    def n_letters(self) -> int:
        return self.V.shape[1]

    @property
    def P(self) -> np.ndarray:
        return self.p_rows()

    def p_rows(self) -> np.ndarray:
        """Mean vector of every generation, (horizon, letters)."""
        return np.repeat(self.V, self.L, axis=0)

    def model_at(self, n: int) -> WeightModel:
        """Model of generation n (1-based)."""
        if not (1 <= n <= self.horizon):
            raise ValueError("generation %d outside 1..%d" % (n, self.horizon))
        j = int(self.ends.searchsorted(n))
        if self.models is not None:
            return self.models[j]
        if self.alpha is None:
            return WeightModel.deterministic(self.V[j])
        return WeightModel.percolation(self.V[j], self.alpha)

    def H_array(self) -> np.ndarray:
        """H(W^{(n)}) for n = 1..horizon."""
        return np.repeat(self.H, self.L)

    def phi_blocks(self, q: float) -> np.ndarray:
        """phi_{W^{(n)}}(q) of each block's law."""
        if self.models is not None:
            return np.array([m.phi(q) for m in self.models])
        if self.alpha is None:
            return _pow_mass(self.V, q).sum(axis=1)
        return _pow_mass(self.V, q) @ (self.alpha ** (1.0 - q))

    def truncated(self, horizon: int) -> "WeightSequence":
        if not (1 <= horizon <= self.horizon):
            raise ValueError("cannot truncate to %d of %d generations"
                             % (horizon, self.horizon))
        R = int(self.ends.searchsorted(horizon)) + 1
        L = self.L[:R].copy()
        L[-1] -= self.ends[R - 1] - horizon
        models = None if self.models is None else self.models[:R]
        return type(self).__new__(type(self))._hold(L, self.V[:R], self.alpha, models)


def _is_integer_type(t) -> bool:
    # bool is an int subclass; numpy's bool is no np.integer
    return issubclass(t, (int, np.integer)) and t is not bool


def _positive_lengths(lengths) -> np.ndarray:
    """Block lengths, each an integer >= 1, as int64; the first that is
    not is named by its block.  Python and numpy integers are lengths; a
    bool, a float (int() would read 2.7 as 2) or any other value is not."""
    lengths = list(lengths)
    L = None
    if all(map(_is_integer_type, set(map(type, lengths)))):
        try:
            L = np.fromiter(lengths, dtype=np.int64, count=len(lengths))
        except OverflowError:
            raise InputError("block lengths must be below 2**63") from None
    if L is None or np.any(L < 1):
        j = next(j for j, x in enumerate(lengths)
                 if not (_is_integer_type(type(x)) and x >= 1))
        raise InputError("block length %r of blocks[%d] is not a positive "
                         "integer" % (lengths[j], j))
    return L


# type-ell schedules: blocks exempt from the ratio bound, and that bound
TYPE_ELL_WARMUP = 3
TYPE_ELL_RATIO = 0.5


def validate_type_ell(lengths) -> list[str]:
    """Violations of the type-ell schedule conditions (empty when valid).

    Strict increase everywhere; after a warm-up of TYPE_ELL_WARMUP blocks,
    l_m <= TYPE_ELL_RATIO * L_{m-1} (finite truncation of l_m = o(L_{m-1})).
    The asymptotic condition says nothing about small m, and binding it on
    block 3 would contradict strict increase for every integer schedule, so
    the warm-up blocks are exempt."""
    try:
        lengths = _positive_lengths(lengths).tolist()
    except InputError as exc:
        return [str(exc)]
    out = []
    for m in range(1, len(lengths)):
        if lengths[m] <= lengths[m - 1]:
            out.append("block %d: length %d not > previous %d"
                       % (m + 1, lengths[m], lengths[m - 1]))
    L = 0
    for m, ell in enumerate(lengths, start=1):
        if m > TYPE_ELL_WARMUP and L > 0 and ell > TYPE_ELL_RATIO * L:
            out.append("block %d: length %d exceeds %.3g * L_{m-1} = %.3g"
                       % (m, ell, TYPE_ELL_RATIO, TYPE_ELL_RATIO * L))
        L += ell
    return out


def drift_scan(lengths, H, lo: int = 1, hi: int | None = None):
    """Partial entropy sums S(M) = sum_{n<=M} H(W^{(n)}) of a schedule of
    runs (lengths[j] generations of entropy H[j]) at lo, at hi (default:
    the horizon) and at the run boundaries between them, as (M, S).

    S is linear inside a run, so over lo <= M <= hi every drift margin
    S(M) - rate*M and every partial mean S(M)/M is smallest at one of these
    points: a drift scan costs O(runs), not O(horizon).  Both arrays are
    empty when lo > hi."""
    L = np.asarray(lengths, dtype=np.float64)
    E = np.concatenate([[0.0], np.cumsum(L)])
    hi = E[-1] if hi is None else float(hi)
    if lo > hi:
        return np.empty(0), np.empty(0)
    M = np.concatenate([[float(lo)], E[(E > lo) & (E < hi)], [hi]])
    # a zero run past the horizon, so that M = E_R reads its boundary sum
    H = np.append(H, 0.0)
    HP = np.concatenate([[0.0], np.cumsum(L * H[:-1])])
    j = E.searchsorted(M, side="right") - 1
    return M, HP[j] + (M - E[j]) * H[j]


@dataclass
class NondegeneracyReport:
    horizon: int
    min_partial_mean: float
    verdict: str                 # "supercritical-at-horizon" | "degenerate-at-horizon"
    eps: float | None            # largest certified drift in the grid
    N_eps: int | None            # burn-in for that drift


def nondegeneracy_report(seq: WeightSequence,
                         horizon: int | None = None) -> NondegeneracyReport:
    """Finite-horizon drift certificate for sum_n H(W^{(n)}), in O(blocks).

    Reports the minimal partial mean, and the largest eps of a geometric
    grid of 48 from 1e-4 to log(#letters) for which sum_{n<=N} H >= N*eps
    for every N in [N_eps, horizon].  Asymptotic claims are out of reach;
    the verdict is explicitly at-horizon.
    """
    horizon = seq.horizon if horizon is None else int(horizon)
    if not (1 <= horizon <= seq.horizon):
        raise ValueError("horizon outside sequence length")
    M, S = drift_scan(seq.L, seq.H, 1, horizon)
    means = S / M
    # no drift above the partial mean at the horizon is certifiable
    fits = np.geomspace(1e-4, math.log(seq.n_letters), 48)
    fits = fits[fits <= means[-1]]
    eps = N_eps = None
    if fits.size:
        eps = float(fits.max())
        # one past the last M with a partial mean below eps; the margin
        # S - eps*M is linear from that scan point to the next
        below = np.flatnonzero(means < eps)
        N_eps = 1
        if below.size:
            i = below[-1]
            f0, f1 = S[i:i + 2] - eps * M[i:i + 2]
            root = M[i] - f0 * (M[i + 1] - M[i]) / (f1 - f0)
            N_eps = int(min(max(math.ceil(root), M[i] + 1), M[i + 1]))
    verdict = "supercritical-at-horizon" if means.min() > 0 else "degenerate-at-horizon"
    return NondegeneracyReport(horizon=horizon, min_partial_mean=float(means.min()),
                               verdict=verdict, eps=eps, N_eps=N_eps)
