"""Reference figures for the costs the ROADMAP names, measured from outside.

Run from the root of a checkout (about three minutes on 2 CPUs):

    python3 bench/reference.py

It prints one line per figure: `kahan_cumsum` on 1M x 2 rows, the share of
`PrefixTable` in `dim_imm_bounds` on a 200k-row schedule, `box_count_fit` on a
depth-14 percolation tree of about 1.8M nodes at 8 off-grid scales, and the
objective evaluations of `optimize_packing` on the criterion-2 inputs with the
full and the shortened N grid.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spongedim import engine, scales, simulate, variational  # noqa: E402
from spongedim.ifs import DiagonalIFS, DiagonalMap  # noqa: E402
from spongedim.weights import WeightSequence  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def main():
    carpet = DiagonalIFS([DiagonalMap([1 / 3, 1 / 2], list(t))
                          for t in workloads.GAP_DEMO_CELLS])
    rng = np.random.default_rng(0)

    rows = rng.random((1_000_000, 2))
    dt, _ = timed(scales.kahan_cumsum, rows)
    dt_np, _ = timed(np.cumsum, rows, axis=0, dtype=np.longdouble)
    print("kahan_cumsum, 1M x 2 rows: %.2f s (long-double np.cumsum %.3f s)" % (dt, dt_np))

    seq = WeightSequence(P=workloads.mixed_dirichlet(rng, 3, 200_000),
                         alpha=rng.uniform(0.85, 1.0, 3))
    total, _ = timed(engine.dim_imm_bounds, seq, carpet)
    pt, _ = timed(scales.PrefixTable, carpet, seq)
    print("dim_imm_bounds, 200k rows: %.2f s; PrefixTable alone %.2f s (%.0f%%)"
          % (total, pt, 100 * pt / total))

    # the first seed whose depth-14 tree holds at least 1.75M nodes
    for seed in range(100):
        tree = simulate.sample_tree(3, [0.9] * 3, depth=14, seed=seed)
        if tree.counts.sum() >= 1_750_000:
            break
    dt, _ = timed(simulate.box_count_fit, tree, carpet, np.linspace(2.15, 7.65, 8))
    rects, _ = timed(simulate.tree_rects, tree, carpet, 14)
    print("box_count_fit, depth-14 tree of %d nodes (seed %d), 8 off-grid scales: "
          "%.2f s; tree_rects alone %.2f s" % (tree.counts.sum(), seed, dt, rects))

    solves = []
    minimize = variational.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        solves.append(res.nfev)
        return res

    variational.minimize = counted
    try:
        lengths = workloads.type_ell_lengths(11000)
        for grid in ([512.0, 1024.0], [512.0, 1024.0, 2048.0, 4096.0]):
            solves.clear()
            dt, res = timed(variational.optimize_packing, carpet, np.ones(3), lengths,
                            eps=0.1, N_grid=grid, seed=0)
            print("optimize_packing, N grid %s: %.1f s, %d Nelder-Mead solves, "
                  "%d objective evaluations, value %.6f"
                  % (",".join("%g" % n for n in grid), dt, len(solves), sum(solves), res.value))
    finally:
        variational.minimize = minimize


if __name__ == "__main__":
    main()
