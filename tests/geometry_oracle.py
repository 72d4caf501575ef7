"""Per-pair reference path for the geometry layer.

The loops ``spongedim.ifs`` replaced with one pair relation: validation,
classification and each projection-coding level ask ``compare_projections``
about one pair at a time, in ``itertools.combinations`` order, and a
union-find merges the exact pairs into classes.  The one deliberate
difference from that code is kept here too: a Gatzouras-Lalley failure names
its axes as Python ints.
"""

from __future__ import annotations

import itertools

import numpy as np

from spongedim.ifs import (RECT_TOL, Classification, DiagonalIFS,
                           ProjectionOverlapError, feasible_direction_sets)


def compare_projections(ifs: DiagonalIFS, i: int, j: int, axes) -> str:
    """"exact", "disjoint" or "violation" for the pair (i, j) on ``axes``."""
    axes = sorted(axes)
    ai, aj = ifs.A[i, axes], ifs.A[j, axes]
    ti, tj = ifs.T[i, axes], ifs.T[j, axes]
    if np.all(np.abs(ai - aj) <= RECT_TOL) and np.all(np.abs(ti - tj) <= RECT_TOL):
        return "exact"
    lo = np.maximum(ti, tj)
    hi = np.minimum(ti + ai, tj + aj)
    if np.any(hi - lo <= RECT_TOL):
        return "disjoint"
    return "violation"


def overlap_violations(ifs: DiagonalIFS) -> list[str]:
    """The pair violations of ``validate_ifs``: open images that overlap."""
    full = range(ifs.d)
    return ["open images of maps %d and %d overlap" % (i, j)
            for i, j in itertools.combinations(range(ifs.n), 2)
            if compare_projections(ifs, i, j, full) != "disjoint"]


def _pairs_exact_or_disjoint(ifs, axes):
    for i, j in itertools.combinations(range(ifs.n), 2):
        if compare_projections(ifs, i, j, axes) == "violation":
            return (i, j)
    return None


def classify(ifs: DiagonalIFS) -> Classification:
    """``spongedim.ifs.classify``, one axis set and one pair at a time."""
    failures = []
    feas = feasible_direction_sets(ifs)

    good = True
    for fs in feas:
        bad = _pairs_exact_or_disjoint(ifs, fs.axes)
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
                    bad = _pairs_exact_or_disjoint(ifs, sub)
                    if bad is not None:
                        sppc = False
                        failures.append("sppc: pair %s on axes %s" % (bad, sub))
                        break
                if not sppc:
                    break
            if not sppc:
                break

    order = tuple(np.argsort(-ifs.A[0], kind="stable"))
    gl = True
    for i in range(ifs.n):
        row = ifs.A[i, list(order)]
        if not np.all(row[:-1] > row[1:]):
            gl = False
            break
    if gl:
        for k in range(1, ifs.d):
            bad = _pairs_exact_or_disjoint(ifs, order[:k])
            if bad is not None:
                gl = False
                failures.append("gl: pair %s on axes %s"
                                % (bad, tuple(sorted(int(a) for a in order[:k]))))
                break

    baranski = True
    for k in range(ifs.d):
        bad = _pairs_exact_or_disjoint(ifs, (k,))
        if bad is not None:
            baranski = False
            failures.append("baranski: pair %s on axis %d" % (bad, k))
            break

    gl_order = order if gl else None
    equal_linear = ifs.equal_linear_parts()
    conformal = bool(np.all(np.abs(ifs.A - ifs.A[:, :1]) <= RECT_TOL))

    sierpinski = False
    grid = None
    if baranski and equal_linear:
        m = np.round(1.0 / ifs.A[0])
        on_grid = (m >= 2) & (np.abs(ifs.A[0] - 1.0 / m) <= RECT_TOL)
        if np.all(on_grid):
            cells = ifs.T * m[None, :]
            if np.all(np.abs(cells - np.round(cells)) <= m.max() * RECT_TOL):
                sierpinski = True
                grid = tuple(int(v) for v in m)

    return Classification(
        good_sponge=good, sppc=sppc, gatzouras_lalley=gl, baranski=baranski,
        sierpinski=sierpinski, conformal=conformal,
        equal_linear_parts=equal_linear, feasible_sets=feas,
        gl_order=gl_order, grid=grid, failures=failures,
    )


def coding_level(ifs: DiagonalIFS, axes):
    """(class index per letter, representatives, fibers) of one coding
    level, or ProjectionOverlapError at the first violating pair."""
    n = ifs.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(n), 2):
        verdict = compare_projections(ifs, i, j, axes)
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
