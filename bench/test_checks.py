"""Tests of the benchmark's own checks.

Each check accepts an output computed correctly and rejects one pushed just
past its tolerance.  Run from the root of a checkout:

    python3 -m pytest bench/test_checks.py
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

from spongedim import io as program_io  # noqa: E402
from spongedim.engine import PeriodicSpec, dim_exp_periodic  # noqa: E402
from spongedim.ifs import DiagonalIFS, DiagonalMap  # noqa: E402
from spongedim.scales import decompose  # noqa: E402
from spongedim.simulate import sample_tree  # noqa: E402
from spongedim.weights import WeightSequence  # noqa: E402

CELLS = workloads.GAP_DEMO_CELLS
A32 = np.tile([1 / 3, 1 / 2], (3, 1))
T32 = np.array(CELLS)
ROWS = workloads.MCMULLEN_ROWS


def carpet():
    return DiagonalIFS([DiagonalMap([1 / 3, 1 / 2], list(t)) for t in CELLS])


def nudged(doc, key, delta):
    out = copy.deepcopy(doc)
    out[key] = out[key] + delta
    return out


# -- closed forms --------------------------------------------------------


def test_constant_law_matches_the_stated_formula():
    p, alpha = np.array([0.5, 0.3, 0.2]), np.array([0.95, 0.9, 0.98])
    H = checks.entropy_rows(p) + p @ np.log(alpha)
    h_row = checks.entropy_rows(np.array([0.8, 0.2]))
    assert H > h_row
    want = h_row / math.log(2) + (H - h_row) / math.log(3)
    assert abs(checks.constant_law_dimension(A32, T32, p, alpha) - want) < 1e-12


def test_mcmullen_formula_full_retention():
    assert abs(checks.mcmullen_attractor_dimension([1, 1, 1], ROWS)
               - checks.MCMULLEN_HAUSDORFF) < 1e-14


def test_close_rejects_past_tolerance():
    checks.close(1.0 + 0.9e-3, 1.0, 1e-3, "x")
    with pytest.raises(CheckFailed):
        checks.close(1.0 + 1.1e-3, 1.0, 1e-3, "x")
    with pytest.raises(CheckFailed):
        checks.close(None, 1.0, 1e-3, "x")


# -- schedules -----------------------------------------------------------


@pytest.fixture(scope="module")
def schedule():
    rng = np.random.default_rng(5)
    lengths = workloads.type_ell_lengths(3000)
    vectors = workloads.mixed_dirichlet(rng, 3, len(lengths))
    alpha = rng.uniform(0.85, 1.0, 3)
    seq = WeightSequence.from_blocks(lengths, vectors, alpha=alpha)
    return lengths, vectors, alpha, seq


def _profile_rows(seq):
    from spongedim.engine import dim_imm_bounds
    res = dim_imm_bounds(seq, carpet())
    rows = [[repr(float(a)), repr(float(b)), repr(float(c))]
            for a, b, c in zip(res.profile.N, res.profile.d, res.profile.d_tilde)]
    return ["N", "d", "d_tilde"], rows


def test_profile_check_accepts_and_rejects(schedule):
    lengths, vectors, alpha, seq = schedule
    header, rows = _profile_rows(seq)
    P = checks.expand(lengths, vectors)
    checks.check_profile_csv(header, rows, P, alpha, A32, T32)
    for col, j in ((1, 0), (2, len(rows) // 2)):
        bad = copy.deepcopy(rows)
        bad[j][col] = repr(float(bad[j][col]) - 2e-8)
        with pytest.raises(CheckFailed):
            checks.check_profile_csv(header, bad, P, alpha, A32, T32)
    flipped = copy.deepcopy(rows)
    j = len(rows) - 1
    flipped[j][1] = repr(float(flipped[j][2]) + 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_profile_csv(header, flipped, P, alpha, A32, T32)


def test_one_law_check():
    p, alpha = np.array([0.5, 0.3, 0.2]), np.array([0.95, 0.9, 0.98])
    want = checks.constant_law_dimension(A32, T32, p, alpha)
    doc = {"dim_H_estimate": want + 0.9e-3, "dim_P_estimate": want - 0.9e-3}
    checks.check_one_law(doc, A32, T32, p, alpha)
    for key in doc:
        with pytest.raises(CheckFailed):
            checks.check_one_law(nudged(doc, key, 0.2e-3 * np.sign(doc[key] - want)),
                                 A32, T32, p, alpha)


@pytest.mark.parametrize("sponge", [False, True])
def test_decompose_check(schedule, sponge):
    lengths, vectors, alpha, _ = schedule
    if sponge:
        ifs = DiagonalIFS([DiagonalMap([1 / 4, 1 / 3, 1 / 2], list(t))
                           for t in workloads.SPONGE_CELLS])
        vectors = workloads.mixed_dirichlet(np.random.default_rng(1), 4, len(lengths))
    else:
        ifs = carpet()
    seq = WeightSequence.from_blocks(lengths, vectors)
    N = 0.6 * float((np.asarray(lengths) @ (vectors @ ifs.C)).min())
    doc = decompose(ifs, seq, N).as_dict()
    checks.check_decompose(doc, lengths, vectors, ifs.A, N)
    bad = copy.deepcopy(doc)
    bad["gamma"][0] += 1
    with pytest.raises(CheckFailed):
        checks.check_decompose(bad, lengths, vectors, ifs.A, N)
    bad = copy.deepcopy(doc)
    bad["g"][-1] -= 1
    with pytest.raises(CheckFailed):
        checks.check_decompose(bad, lengths, vectors, ifs.A, N)


def test_gap_check():
    d = np.array([0.5, 0.6])
    checks.check_gap([1.1e-3, 0.01], 0.7, 0.7 + 0.9e-3, d, d + 0.01)
    with pytest.raises(CheckFailed):
        checks.check_gap([0.9e-3, 0.01], 0.7, 0.7, d, d + 0.01)
    with pytest.raises(CheckFailed):
        checks.check_gap([0.01], 0.7, 0.7 + 1.1e-3, d, d + 0.01)
    with pytest.raises(CheckFailed):
        checks.check_gap([0.01], 0.7, 0.7, d, d - 1e-9)


def test_drift_check():
    P = np.tile([1 / 3, 1 / 3, 1 / 3], (40, 1))
    assert checks.drift_holds(P, None, 0.05)
    P[25:] = [1.0, 0.0, 0.0]            # no entropy from generation 26 on
    assert not checks.drift_holds(P, None, 0.8)


# -- periodic laws --------------------------------------------------------


def test_periodic_checks():
    law = workloads.GAP_DEMO_LAW
    spec = PeriodicSpec(law["lam"], law["t"], law["p"], alpha=law["alpha"])
    res = dim_exp_periodic(carpet(), spec)
    exact = {"dim_H": res.dim_H, "dim_P": res.dim_P}
    checks.check_periodic(exact)
    dense = {"dim_H_estimate": res.dim_H + 1.9e-2, "dim_P_estimate": res.dim_P - 1.9e-2}
    checks.check_dense_vs_exact(dense, exact)
    for key, delta in (("dim_H_estimate", 0.2e-2), ("dim_P_estimate", -0.2e-2)):
        with pytest.raises(CheckFailed):
            checks.check_dense_vs_exact(nudged(dense, key, delta), exact)
    with pytest.raises(CheckFailed):
        checks.check_periodic({"dim_H": 1.2, "dim_P": 1.1})


def test_periodic_rows_match_the_program():
    law = workloads.GAP_DEMO_LAW
    spec = PeriodicSpec(law["lam"], law["t"], law["p"], alpha=law["alpha"])
    ours = checks.periodic_rows(law["lam"], law["t"], np.array(law["p"]), 500)
    assert np.abs(ours - spec.discretize(500).P).max() < 1e-12


def test_conformal_ratio_check():
    rng = np.random.default_rng(3)
    A = np.tile([1 / 3, 1 / 3], (8, 1))
    T = np.array(workloads.SIERPINSKI_CELLS)
    skew = 0.5 * rng.dirichlet(np.full(8, 0.7)) + 0.5 / 8
    lam, t2, alpha = 4.5, 4.5 ** 0.5, np.full(8, 0.9)
    spec = PeriodicSpec(lam, [1.0, t2], [skew, np.full(8, 1 / 8)], alpha=alpha)
    ifs = DiagonalIFS([DiagonalMap(list(A[i]), list(T[i])) for i in range(8)])
    res = dim_exp_periodic(ifs, spec)
    P = checks.periodic_rows(lam, [1.0, t2], np.array([skew, np.full(8, 1 / 8)]), 60000)
    doc = {"dim_H": res.dim_H, "dim_P": res.dim_P}
    checks.check_periodic(doc, P, alpha, math.log(3), lam)
    lo, hi = checks.conformal_periodic_dims(P, alpha, math.log(3), lam)
    with pytest.raises(CheckFailed):
        checks.check_periodic({"dim_H": lo - 2.1e-2, "dim_P": hi}, P, alpha, math.log(3), lam)


def test_gap_demo_check():
    law = workloads.GAP_DEMO_LAW
    best = checks.mcmullen_attractor_dimension(law["alpha"], ROWS)
    p_avg = [0.36, 0.36, 0.28]
    avg = checks.constant_law_dimension(A32, T32, np.array(p_avg), np.array(law["alpha"]))
    exact = {"dim_H": 1.0, "dim_P": 1.1}
    doc = {"dim_H": 1.0, "dim_P": 1.1, "best_constant_mm": best, "mm_at_average_p": avg,
           "average_p": p_avg, "gap_vs_best": best - 1.0}
    checks.check_gap_demo(doc, exact, A32, T32, law["alpha"], ROWS)
    for key, delta in (("best_constant_mm", 1.1e-6), ("mm_at_average_p", 1e-8),
                       ("dim_H", 1e-8)):
        with pytest.raises(CheckFailed):
            checks.check_gap_demo(nudged(doc, key, delta), exact, A32, T32, law["alpha"], ROWS)
    with pytest.raises(CheckFailed):
        checks.check_gap_demo(dict(doc, gap_vs_best=-1e-9), exact, A32, T32,
                              law["alpha"], ROWS)


# -- variational ------------------------------------------------------------


def test_packing_and_hausdorff_checks():
    doc = {"value": checks.MCMULLEN_PACKING + 4.9e-3,
           "certificate": {"per_N": [{"N": 512.0}, {"N": 1024.0}]}}
    checks.check_packing(doc, [512.0, 1024.0])
    with pytest.raises(CheckFailed):
        checks.check_packing(nudged(doc, "value", 0.2e-3), [512.0, 1024.0])
    h = {"value": checks.MCMULLEN_HAUSDORFF + 0.9e-6,
         "certificate": {"closed_form_value": checks.MCMULLEN_HAUSDORFF}}
    checks.check_hausdorff_full(h)
    with pytest.raises(CheckFailed):
        checks.check_hausdorff_full(nudged(h, "value", 0.2e-6))


def test_attractor_check():
    alpha = [0.8, 0.9, 0.85]
    v = checks.mcmullen_attractor_dimension(alpha, ROWS)
    checks.check_attractor(v + 0.5e-6, v, alpha, ROWS)
    with pytest.raises(CheckFailed):
        checks.check_attractor(v + 1.1e-6, v, alpha, ROWS)
    with pytest.raises(CheckFailed):
        checks.check_attractor(v + 1.1e-6, v + 1.1e-6, alpha, ROWS)


def test_type_ell_check():
    lengths = workloads.HAUSDORFF_LENGTHS
    blocks = [{"len": L, "p": [1 / 3, 1 / 3, 1 / 3]} for L in lengths]
    doc = {"value": 1.2, "argument": {"blocks": blocks},
           "certificate": {"grid_certificate": True, "grid_value": 1.2}}
    alpha = workloads.HAUSDORFF_ALPHA
    checks.check_type_ell(doc, lengths, alpha, 0.05)
    with pytest.raises(CheckFailed):
        checks.check_type_ell(dict(doc, certificate={"grid_certificate": False,
                                                     "grid_value": None}), lengths, alpha, 0.05)
    low = copy.deepcopy(doc)
    for b in low["argument"]["blocks"][2:]:
        b["p"] = [0.0, 0.0, 1.0]        # log 0.8 < 0: the drift falls below eps
    with pytest.raises(CheckFailed):
        checks.check_type_ell(low, lengths, alpha, 0.05)


# -- trees ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_doc():
    tree = sample_tree(3, [0.9] * 3, depth=7, seed=11)
    return program_io.tree_to_dict(tree, {"t": 1}), tree


def test_tree_dump_check(tree_doc):
    doc, tree = tree_doc
    levels = checks.check_tree_dump(doc, doc["counts"], 3, program_io.tree_from_dict)
    assert [l.size for l in levels] == tree.counts.tolist()
    # a level-4 cell dropped: its children lose their parent
    bad = copy.deepcopy(doc)
    start, length = bad["levels"][4][0]
    bad["levels"][4][0] = [start + 1, length - 1] if length > 1 else bad["levels"][4].pop(0)
    bad["counts"][4] -= 1
    with pytest.raises(CheckFailed):
        checks.check_tree_dump(bad, bad["counts"], 3, program_io.tree_from_dict)
    with pytest.raises(CheckFailed):
        checks.check_tree_dump(doc, doc["counts"][:-1] + [doc["counts"][-1] + 1], 3,
                               program_io.tree_from_dict)


def test_deep_tree_check_flags_the_wrapped_level_40_codes():
    tree = sample_tree(3, [0.45] * 3, depth=42, seed=1)
    levels = [[int(c) for c in lvl] for lvl in tree.levels]
    bad = dict(checks.orphan_levels(levels, 3))
    assert 40 in bad and min(bad) == 40
    assert bad[40] == len(levels[40])
    assert checks.orphan_levels(levels[:40], 3) == []


def _boxcount_outputs(tree, scales):
    from spongedim.simulate import box_count_fit
    rep = box_count_fit(tree, carpet(), scales)
    doc = {"slope": rep.slope, "window": list(rep.window)}
    rows = [[repr(float(n)), str(int(c))] for n, c in zip(rep.N, rep.counts)]
    return doc, ["N", "count"], rows


def test_boxcount_check():
    depth = 8
    tree = sample_tree(3, [1.0] * 3, depth=depth, seed=0)
    scales = np.linspace(2.0, 5.5, 8)
    doc, header, rows = _boxcount_outputs(tree, scales)
    leaves = tree.levels[depth].astype(np.int64)
    checks.check_boxcount(doc, header, rows, leaves, depth, A32, T32,
                          checks.MCMULLEN_PACKING, workloads.FULL_SLOPE_TOL)
    for j in (0, 1):
        bad = copy.deepcopy(rows)
        bad[j][1] = str(int(bad[j][1]) - 1)
        with pytest.raises(CheckFailed):
            checks.check_boxcount(doc, header, bad, leaves, depth, A32, T32)
    dec = copy.deepcopy(rows)
    dec[5][1] = str(int(dec[4][1]) - 1)
    with pytest.raises(CheckFailed):
        checks.check_boxcount(doc, header, dec, leaves, depth, A32, T32)
    with pytest.raises(CheckFailed):
        checks.check_boxcount(nudged(doc, "slope", 1e-8), header, rows, leaves, depth, A32, T32)
    off = doc["slope"] - checks.MCMULLEN_PACKING
    with pytest.raises(CheckFailed):
        checks.check_boxcount(doc, header, rows, leaves, depth, A32, T32,
                              checks.MCMULLEN_PACKING + off
                              - math.copysign(workloads.FULL_SLOPE_TOL + 1e-3, off),
                              workloads.FULL_SLOPE_TOL)


def test_direct_box_count_matches_enumeration():
    tree = sample_tree(3, [0.9] * 3, depth=6, seed=4)
    lo, side = checks.leaf_rectangles(tree.levels[6].astype(np.int64), 6, 3, A32, T32)
    from spongedim.simulate import tree_rects
    lo2, side2 = tree_rects(tree, carpet(), 6)
    assert np.allclose(lo, lo2, atol=1e-15) and np.allclose(side, side2, atol=1e-15)
    k = math.exp(2.3)
    boxes = set()
    for (x, y), (w, h) in zip(lo, side):
        for i in range(int(math.floor(x * k + 1e-12)), int(math.ceil((x + w) * k - 1e-12))):
            for j in range(int(math.floor(y * k + 1e-12)), int(math.ceil((y + h) * k - 1e-12))):
                boxes.add((i, j))
    assert checks.grid_box_count(lo, side, k) == len(boxes)


def test_cascade_check():
    rows = [["000", "0.25"], ["012", "0.5"], ["221", "0.25"]]
    doc = {"counts": [1, 2, 3, 3], "Y": [1.0, 0.9, 1.1, 1.0]}
    checks.check_cascade(doc, ["word", "Q"], rows, 3, 3)
    with pytest.raises(CheckFailed):
        checks.check_cascade(dict(doc, Y=[1.0, 0.9, 1.1, 1.0 + 2e-9]), ["word", "Q"], rows, 3, 3)
    with pytest.raises(CheckFailed):
        checks.check_cascade(doc, ["word", "Q"], rows[:1] + rows[:1] + rows[2:], 3, 3)
    with pytest.raises(CheckFailed):
        checks.check_cascade(dict(doc, counts=[1, 2, 3, 4]), ["word", "Q"], rows, 3, 3)


def test_local_dim_check():
    p, alpha = np.array([0.4, 0.35, 0.25]), np.array([0.9, 0.95, 0.85])
    want = checks.constant_law_dimension(A32, T32, p, alpha)
    doc = {"theory_value": want, "median_slope": want + 0.099}
    checks.check_local_dim(doc, A32, T32, p, alpha)
    with pytest.raises(CheckFailed):
        checks.check_local_dim(nudged(doc, "median_slope", 0.002), A32, T32, p, alpha)
    with pytest.raises(CheckFailed):
        checks.check_local_dim(nudged(doc, "theory_value", 1e-8), A32, T32, p, alpha)


# -- the tracer -------------------------------------------------------------


def test_tracer_counts_and_self_time_then_restores():
    import tracer as tracer_mod
    from spongedim import rng, simulate
    original = (simulate.sample_tree, simulate.uniform, rng.uniform)
    tr = tracer_mod.Tracer()
    restore = tracer_mod.instrument(tr)
    try:
        assert simulate.uniform is rng.uniform and simulate.uniform is not original[1]
        with tr.span("cmd.test"):
            tree = simulate.sample_tree(3, [0.9] * 3, depth=6, seed=2)
    finally:
        restore()
    assert (simulate.sample_tree, simulate.uniform, rng.uniform) == original
    assert tr.counts["simulate.nodes_sampled"] == int(tree.counts.sum())
    # one draw per child of every surviving node above the last level
    assert tr.counts["rng.uniform.draws"] == 3 * int(tree.counts[:-1].sum())
    assert tr.calls["rng.uniform"] == 6 and tr.calls["simulate.sample_tree"] == 1
    # self time is the span minus its direct children, read from the raw
    # spans, minus the time of the children's counting hooks
    top = [i for i, sp in enumerate(tr.spans) if sp[0] == "simulate.sample_tree"]
    children = sum(e - b for name, parent, b, e in tr.spans if parent == top[0])
    uncovered = tr.total_s["simulate.sample_tree"] - children
    assert uncovered - 1e-3 < tr.self_s["simulate.sample_tree"] <= uncovered + 1e-12
    assert 0 <= tr.self_s["cmd.test"] <= tr.total_s["cmd.test"]
