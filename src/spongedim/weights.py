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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import entr, xlogy

PROB_SUM_TOL = 1e-12
MEAN_ONE_TOL = 1e-10


class DegenerateError(ValueError):
    """Raised when a computation requires H(W) > 0 (or supercriticality)
    and the input fails it."""


def as_prob_vector(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-d and nonempty")
    return as_prob_rows(p[None, :])[0]


def as_prob_rows(rows) -> np.ndarray:
    """Validate every row of a matrix as a probability vector at once."""
    P = np.asarray(rows, dtype=np.float64)
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
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim == 0 and n is not None:
        a = np.full(n, float(a))
    if a.ndim != 1 or a.size == 0:
        raise ValueError("survival vector must be 1-d and nonempty")
    if n is not None and a.size != n:
        raise ValueError("survival vector length %d, expected %d" % (a.size, n))
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0) or np.any(a > 1.0):
        raise ValueError("survival probabilities must lie in (0, 1]")
    return a


def entropy(p) -> float:
    """Shannon entropy in nats, -sum p log p with 0 log 0 = 0."""
    return float(entr(np.asarray(p, dtype=np.float64)).sum())


def lyapunov(ifs, p) -> np.ndarray:
    """chi_k(p) for all axes; positive since every ratio is < 1."""
    p = as_prob_vector(p)
    if p.size != ifs.n:
        raise ValueError("vector indexed by %d letters, ifs has %d" % (p.size, ifs.n))
    return ifs.lyapunov(p)


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
        probs = np.array([a[0] for a in atoms], dtype=np.float64)
        c = np.array([a[1] for a in atoms], dtype=np.float64)
        w = np.array([a[2] for a in atoms], dtype=np.float64)
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

    def survival(self) -> np.ndarray:
        """alpha_i = P(c_i = 1)."""
        if self.kind == "deterministic":
            return np.ones(self.p.size)
        if self.kind == "percolation":
            return self.alpha.copy()
        return self.atom_probs @ self.atom_c

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


def weight_entropy(W: WeightModel) -> float:
    """H(W) = -sum_i E(W_i log W_i), the entropy dimension numerator."""
    return W.entropy_H()


def log_moment(W: WeightModel, q: float) -> tuple[float, float]:
    """(phi_W(q), T_W(q) = -log phi_W(q))."""
    phi = W.phi(q)
    return phi, -math.log(phi)


def projected_tau(p, coding, r: int, q: float) -> float:
    """tau_r(q) = -log sum_j (Pi_r p)_j^q over the level-r classes."""
    if not (1 <= r <= coding.levels):
        raise ValueError("projection level %d out of range" % r)
    pr = coding.project_vector(as_prob_vector(p), r)
    return -math.log(float(_pow_mass(pr, q).sum()))


def p_max_vector(alpha) -> np.ndarray:
    """argmax of h~(p) = h(p) + sum p_i log alpha_i: p_i = alpha_i/sum."""
    a = np.asarray(alpha, dtype=np.float64)
    return a / a.sum()


class WeightSequence:
    """Per-generation weight models W^{(n)}, n = 1..horizon.

    Two storage modes: a dense matrix of mean vectors with a shared survival
    law (deterministic when alpha is None), or a list of explicit models with
    a per-generation index (used by block constructions whose laws are not
    percolation-shaped).  Block boundaries are retained when known.
    """

    def __init__(self, P=None, alpha=None, models=None, model_idx=None, block_lengths=None):
        if models is not None:
            self.mode = "models"
            self.models = list(models)
            self.model_idx = np.asarray(model_idx, dtype=np.intp)
            rows = np.array([m.mean() for m in self.models])
            self.P = rows[self.model_idx]
            self.alpha = None
        else:
            self.mode = "rows"
            self.P = np.asarray(P, dtype=np.float64)
            if self.P.ndim != 2:
                raise ValueError("P must be (horizon, letters)")
            sums = self.P.sum(axis=1)
            if np.any(self.P < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError("rows of P must be probability vectors")
            self.alpha = None if alpha is None else as_survival_vector(alpha, self.P.shape[1])
            self.models = None
            self.model_idx = None
        self.block_lengths = None if block_lengths is None else [int(x) for x in block_lengths]

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, model: WeightModel, horizon: int) -> "WeightSequence":
        if model.kind == "atoms":
            return cls(models=[model], model_idx=np.zeros(horizon, dtype=np.intp),
                       block_lengths=[horizon])
        alpha = model.alpha if model.kind == "percolation" else None
        P = np.repeat(model.mean()[None, :], horizon, axis=0)
        return cls(P=P, alpha=alpha, block_lengths=[horizon])

    @classmethod
    def from_blocks(cls, lengths, vectors, alpha=None) -> "WeightSequence":
        lengths = [int(x) for x in lengths]
        if len(lengths) != len(vectors) or any(x <= 0 for x in lengths):
            raise ValueError("need one positive length per block vector")
        rows = np.repeat(as_prob_rows(vectors), lengths, axis=0)
        return cls(P=rows, alpha=alpha, block_lengths=lengths)

    @classmethod
    def from_models(cls, models, lengths) -> "WeightSequence":
        lengths = [int(x) for x in lengths]
        idx = np.repeat(np.arange(len(models), dtype=np.intp), lengths)
        return cls(models=models, model_idx=idx, block_lengths=lengths)

    # -- queries -------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.P.shape[0]

    @property
    def n_letters(self) -> int:
        return self.P.shape[1]

    def p_rows(self) -> np.ndarray:
        return self.P

    def model_at(self, n: int) -> WeightModel:
        """Model of generation n (1-based)."""
        if not (1 <= n <= self.horizon):
            raise ValueError("generation %d outside 1..%d" % (n, self.horizon))
        if self.mode == "models":
            return self.models[self.model_idx[n - 1]]
        row = self.P[n - 1]
        if self.alpha is None:
            return WeightModel.deterministic(row)
        return WeightModel.percolation(row, self.alpha)

    def H_array(self) -> np.ndarray:
        """H(W^{(n)}) for n = 1..horizon."""
        if self.mode == "models":
            vals = np.array([m.entropy_H() for m in self.models])
            return vals[self.model_idx]
        H = entr(self.P).sum(axis=1)
        if self.alpha is not None:
            H = H + self.P @ np.log(self.alpha)
        return H

    def phi_array(self, q: float) -> np.ndarray:
        """phi_{W^{(n)}}(q) for n = 1..horizon."""
        if self.mode == "models":
            vals = np.array([m.phi(q) for m in self.models])
            return vals[self.model_idx]
        masses = _pow_mass(self.P, q)
        if self.alpha is None:
            return masses.sum(axis=1)
        return masses @ (self.alpha ** (1.0 - q))

    def survival_at(self, n: int) -> np.ndarray:
        return self.model_at(n).survival()

    def truncated(self, horizon: int) -> "WeightSequence":
        if horizon > self.horizon:
            raise ValueError("cannot extend by truncation")
        if self.mode == "models":
            seq = WeightSequence(models=self.models, model_idx=self.model_idx[:horizon])
        else:
            seq = WeightSequence(P=self.P[:horizon], alpha=self.alpha)
        seq.block_lengths = None
        if self.block_lengths is not None:
            kept, acc = [], 0
            for L in self.block_lengths:
                if acc + L >= horizon:
                    kept.append(horizon - acc)
                    break
                kept.append(L)
                acc += L
            seq.block_lengths = kept
        return seq


def validate_type_ell(lengths, m0: int = 3, ratio_bound: float = 0.5) -> list[str]:
    """Violations of the type-ell schedule conditions (empty when valid).

    Strict increase everywhere; after a warm-up of m0 blocks,
    l_m <= ratio_bound * L_{m-1} (finite truncation of l_m = o(L_{m-1})).
    The asymptotic condition says nothing about small m, and binding it on
    block 3 would contradict strict increase for every integer schedule, so
    the warm-up blocks are exempt."""
    lengths = [int(x) for x in lengths]
    out = []
    if any(x <= 0 for x in lengths):
        out.append("block lengths must be positive")
        return out
    for m in range(1, len(lengths)):
        if lengths[m] <= lengths[m - 1]:
            out.append("block %d: length %d not > previous %d"
                       % (m + 1, lengths[m], lengths[m - 1]))
    L = 0
    for m, ell in enumerate(lengths, start=1):
        if m > m0 and L > 0 and ell > ratio_bound * L:
            out.append("block %d: length %d exceeds %.3g * L_{m-1} = %.3g"
                       % (m, ell, ratio_bound, ratio_bound * L))
        L += ell
    return out


class TypeEllSequence(WeightSequence):
    """Block sequence whose schedule satisfies the type-ell conditions."""

    def __init__(self, lengths, vectors, alpha=None, m0: int = 3, ratio_bound: float = 0.5):
        bad = validate_type_ell(lengths, m0=m0, ratio_bound=ratio_bound)
        if bad:
            raise ValueError("; ".join(bad))
        base = WeightSequence.from_blocks(lengths, vectors, alpha=alpha)
        super().__init__(P=base.P, alpha=base.alpha, block_lengths=base.block_lengths)


@dataclass
class NondegeneracyReport:
    horizon: int
    min_partial_mean: float
    verdict: str                 # "supercritical-at-horizon" | "degenerate-at-horizon"
    eps: float | None            # largest certified drift in the grid
    N_eps: int | None            # burn-in for that drift
    H: np.ndarray = field(repr=False, default=None)
    partial_means: np.ndarray = field(repr=False, default=None)


def nondegeneracy_report(seq: WeightSequence, horizon: int | None = None,
                         eps_grid=None) -> NondegeneracyReport:
    """Finite-horizon drift certificate for sum_n H(W^{(n)}).

    Reports the minimal partial mean, and the largest grid eps for which
    sum_{n<=N} H >= N*eps for every N in [N_eps, horizon].  Asymptotic
    claims are out of reach; the verdict is explicitly at-horizon.
    """
    H = seq.H_array()
    horizon = seq.horizon if horizon is None else int(horizon)
    if not (1 <= horizon <= seq.horizon):
        raise ValueError("horizon outside sequence length")
    H = H[:horizon]
    prefix = np.cumsum(H, dtype=np.longdouble)
    Ns = np.arange(1, horizon + 1, dtype=np.float64)
    means = (prefix / Ns).astype(np.float64)
    if eps_grid is None:
        top = math.log(seq.n_letters)
        eps_grid = np.geomspace(1e-4, top, 48)
    eps_grid = np.sort(np.asarray(eps_grid, dtype=np.float64))[::-1]

    # suffix minima of the partial means: best certifiable drift per burn-in
    suffix_min = np.minimum.accumulate(means[::-1])[::-1]
    best = float(suffix_min.max())
    eps = None
    N_eps = None
    for e in eps_grid:
        if e <= best:
            eps = float(e)
            N_eps = int(np.argmax(suffix_min >= e)) + 1
            break
    verdict = "supercritical-at-horizon" if means.min() > 0 else "degenerate-at-horizon"
    return NondegeneracyReport(horizon=horizon, min_partial_mean=float(means.min()),
                               verdict=verdict, eps=eps, N_eps=N_eps,
                               H=H, partial_means=means)


@dataclass
class MomentBound:
    B: float
    upper: float
    N_tilde: int
    horizon: int


def moment_bound(H_prefix, N: int, q_prime: float, eps: float,
                 n_letters: int, C: float = 1.0, c: float = 1.0) -> MomentBound:
    """Two-sided L^{q'} moment bracket for the cascade mass (diagnostic).

    H_prefix[n] = sum_{m<=n} H(W^{(m)}) with H_prefix[0] = 0.  Requires the
    prefix to reach ceil(log(n_letters)/eps * N), the proven horizon for the
    minimizing tail index.
    """
    if not (1.0 < q_prime <= 2.0):
        raise ValueError("q' must lie in (1, 2]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    H_prefix = np.asarray(H_prefix, dtype=np.float64)
    need = int(math.ceil(math.log(n_letters) / eps * N))
    horizon = H_prefix.size - 1
    if horizon < need:
        raise ValueError("prefix horizon %d too short, need %d" % (horizon, need))
    seg = H_prefix[N:need + 1]
    j = int(np.argmin(seg))
    N_tilde = N + j
    tail = float(seg[j] - H_prefix[N])
    B = max(1.0, math.exp(-(q_prime - 1.0) * tail))
    denom = (1.0 - math.exp(-(q_prime - 1.0) * eps / (4.0 * q_prime))) ** q_prime
    upper = C * N ** q_prime * math.exp(c * N * (q_prime - 1.0) ** 2) / denom * B
    return MomentBound(B=B, upper=upper, N_tilde=N_tilde, horizon=need)
