"""The program names the benchmark in bench/ calls, with its signatures.

`bench/workloads.py` and `bench/reference.py` call these functions directly,
and the traced run (`bench/run.py --trace 1`) patches
`variational.minimize` and `simulate._raster_count` by name to count
solves and rasterized boxes.  The benchmark is not part of this
suite, so these small calls are what catches a rename or a changed signature.
"""

import numpy as np

from spongedim import engine, scales, simulate, variational
from spongedim.weights import WeightSequence

from conftest import carpet, type_ell_lengths

CELLS = [(0.0, 0.0), (2 / 3, 0.0), (1 / 3, 1 / 2)]


def test_scales_prefix_table_and_kahan_cumsum():
    rng = np.random.default_rng(0)
    rows = rng.random((50, 2))
    out = scales.kahan_cumsum(rows)
    assert out.shape == (51, 2)
    assert np.allclose(out[-1], rows.sum(axis=0))
    ifs = carpet((1 / 3, 1 / 2), CELLS)
    seq = WeightSequence(P=rng.dirichlet(np.ones(3), size=200),
                         alpha=rng.uniform(0.85, 1.0, 3))
    prefix = scales.PrefixTable(ifs, seq)
    assert 0 < prefix.max_resolution() < np.inf


def test_engine_gap_schedule_probes():
    ifs = carpet((1 / 3, 1 / 2), CELLS)
    sched = engine.three_weight_gap_sequence(ifs, np.array((0.4, 0.35, 0.25)),
                                             H1=0.82, H3=-0.85, horizon=3000)
    prefix = scales.PrefixTable(ifs, sched.seq)
    max_N = prefix.max_resolution()
    rnd = [r for r in sched.rounds if r["M2"] * np.log(2.0) < 0.8 * max_N][-1]
    for f in (0.8, 0.95, 1.05):
        probe = engine.d_sequences(sched.seq, ifs, rnd["M2"] * np.log(2.0) * f,
                                   prefix=prefix)
        assert probe.d <= probe.d_tilde
    bounds = engine.dim_imm_bounds(sched.seq, ifs)
    assert bounds.liminf_d_tilde >= bounds.dim_H_estimate
    assert bounds.profile.d.shape == bounds.profile.d_tilde.shape


def test_optimize_packing_solves_through_module_minimize(monkeypatch):
    ifs = carpet((1 / 3, 1 / 2), CELLS)
    solves = []
    minimize = variational.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        solves.append(res.nfev)
        return res

    monkeypatch.setattr(variational, "minimize", counted)
    res = variational.optimize_packing(ifs, np.ones(3), type_ell_lengths(200),
                                       eps=0.1, N_grid=[16.0], seed=0)
    assert solves and sum(solves) > 0
    assert 0 < res.value < 2


def test_box_count_rasterizes_through_module_raster_count(monkeypatch):
    lo, size = np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]])
    assert simulate._raster_count(lo, size, 4.0, 10 ** 6) == 4
    ifs = carpet((1 / 3, 1 / 2), CELLS)
    tree = simulate.sample_tree(3, [0.9] * 3, depth=5, seed=1)
    rects = simulate.tree_rects(tree, ifs, 5)
    assert rects[0].shape[0] == tree.counts[5]
    calls = []
    raster = simulate._raster_count

    def counted(*args):
        calls.append(args[2])
        return raster(*args)

    monkeypatch.setattr(simulate, "_raster_count", counted)
    rep = simulate.box_count_fit(tree, ifs, np.linspace(2.15, 3.65, 3))
    assert len(calls) == 3
    assert np.all(rep.counts > 0)
