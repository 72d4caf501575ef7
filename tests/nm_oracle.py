"""Nelder-Mead block ascent over block schedules, kept as a test oracle.

This is the search the schedule optimizers ran before they became one
concave solve: coordinate ascent over block vectors, Nelder-Mead in softmax
coordinates on one block at a time with infeasible candidates rejected,
from the same multistarts (the entropy maximizer, plus a start that spends
the coarse band on projected entropy for packing and the best constant law
for the type-l search).  Every candidate builds its run table anew, so it
is slow, but it shares only the run table with the solve it checks: the
concave value must match or beat it.
"""

import math

import numpy as np
from scipy.optimize import minimize

from spongedim.scales import _RunEvaluator, _RunTable
from spongedim.variational import (PressureContext, optimize_mandelbrot,
                                   softmax)
from spongedim.weights import as_survival_vector, p_max_vector


def blocks_covering(lengths, budget):
    """Block (start, end) pairs truncated to cover exactly ``budget``."""
    spans, acc = [], 0
    for L in lengths:
        if acc >= budget:
            break
        spans.append((acc, min(acc + L, budget)))
        acc = spans[-1][1]
    assert acc == budget, "schedule too short for the budget"
    return spans


def block_runs(runs, spans):
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


def table_of(ev, blocks):
    return _RunTable(ev, *zip(*[run for block in blocks for run in block]))


def ascend_blocks(ev, blocks, objective, feasible, max_passes=6, nm_iter=120):
    """Coordinate ascent over block vectors; returns the best objective
    value met, -inf from an infeasible start.  A block that is not constant
    keeps its runs until a move on it improves, which collapses them into
    one."""
    blocks = [list(block) for block in blocks]
    full = table_of(ev, blocks)
    if not feasible(full):
        return -math.inf
    best = objective(full)
    for _ in range(max_passes):
        improved = False
        for j, block in enumerate(blocks):
            length = sum(L for L, _ in block)

            def f(x):
                trial = blocks[:j] + [[(length, softmax(x))]] + blocks[j + 1:]
                sched = table_of(ev, trial)
                return -objective(sched) if feasible(sched) else math.inf

            x0 = np.log(np.maximum(block[0][1], 1e-12))
            res = minimize(f, x0, method="Nelder-Mead",
                           options={"maxiter": nm_iter, "fatol": 1e-12,
                                    "xatol": 1e-8})
            if -res.fun > best + 1e-12:
                best = -res.fun
                blocks[j] = [(length, softmax(res.x))]
                improved = True
        if not improved:
            break
    return best


def packing_values(ifs, alpha, lengths, eps, N_grid, max_passes=6):
    """Per-N maxima of d~_N over block schedules in the class
    sum_{n<=M} H >= -eps*M past floor(N*eps)."""
    alpha = as_survival_vector(alpha, ifs.n)
    pm = p_max_vector(alpha)
    ev = _RunEvaluator(ifs, alpha)
    try:
        ctx = PressureContext(ifs, alpha)
    except ValueError:
        ctx = None
    _, lam_hi = ifs.contraction_span()
    out = []
    for N in N_grid:
        budget = int(math.floor(lam_hi * N)) + 2
        spans = blocks_covering(lengths, budget)
        M_lo = max(1, int(math.floor(N * eps)))
        starts = [[(budget, pm)]]
        if ctx is not None and ctx.s >= 2:
            # runs of pm up to the fast clock, then the level-2 uniform lift
            g1 = min(int(N / ctx.chi_tilde[0]) + 1, budget)
            m2 = ctx.coding.n_classes(2)
            spread = [(g1, pm)]
            if g1 < budget:
                spread.append((budget - g1,
                               ctx.lift_to_letters(np.full(m2, 1.0 / m2), 2)))
            starts.append(spread)
        out.append(max(ascend_blocks(ev, block_runs(runs, spans),
                                     lambda t: float(t.d_tilde([N])[0]),
                                     lambda t: t.admissible(M_lo, -eps),
                                     max_passes=max_passes)
                       for runs in starts))
    return out


def type_ell_value(ifs, alpha, block_lengths, eps, N_grid, max_passes=4):
    """Largest min_N d_N over schedules constant on the blocks, in the
    class sum_{n<=M} H >= eps*M past ceil(1/eps)."""
    if alpha is not None:
        alpha = as_survival_vector(alpha, ifs.n)
        pm = p_max_vector(alpha)
    else:
        pm = np.full(ifs.n, 1.0 / ifs.n)
    ev = _RunEvaluator(ifs, alpha)
    horizon = int(np.sum(block_lengths))
    spans = blocks_covering(block_lengths, horizon)
    burn = int(math.ceil(1.0 / eps))
    mm = optimize_mandelbrot(ifs, alpha)
    best = -math.inf
    for v in (pm, mm.argument):
        best = max(best, ascend_blocks(ev, block_runs([(horizon, v)], spans),
                                       lambda t: float(t.d_lower(N_grid).min()),
                                       lambda t: t.admissible(burn, eps),
                                       max_passes=max_passes))
    return best
