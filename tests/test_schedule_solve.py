"""The schedule optimizers' concave solve against the Nelder-Mead block
ascent it replaced (tests/nm_oracle.py), on random small type-l schedules.

Each solve must match or beat the oracle, report exactly the run table's
value of the schedule it returns, and return a schedule in its drift
class.  A Baranski carpet, whose clocks move with the vectors, and the
solver diagnostics are checked separately.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedim import DiagonalIFS, DiagonalMap
from spongedim.scales import _RunEvaluator, _RunTable
from spongedim.variational import (_CLOCK_ROUNDS, optimize_packing,
                                   optimize_type_ell_hausdorff)
from spongedim.weights import p_max_vector

import nm_oracle
from conftest import type_ell_lengths


def _draw(rng, mcmullen, sponge3d, use_sponge, percolated):
    ifs = sponge3d if use_sponge else mcmullen
    alpha = rng.uniform(0.6, 1.0, size=ifs.n) if percolated else None
    lengths = type_ell_lengths(int(rng.integers(30, 90)))
    return ifs, alpha, lengths


def _block_vectors(seq):
    starts = np.cumsum([0] + seq.block_lengths[:-1])
    return seq.block_lengths, seq.p_rows()[starts]


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=10, deadline=None)
def test_type_ell_solve_matches_or_beats_block_ascent(mcmullen, sponge3d, seed,
                                                      use_sponge, percolated):
    rng = np.random.default_rng(seed)
    ifs, alpha, lengths = _draw(rng, mcmullen, sponge3d, use_sponge, percolated)
    H_max = math.log(alpha.sum() if percolated else ifs.n)
    eps = float(rng.uniform(0.02, 0.6)) * H_max
    res = optimize_type_ell_hausdorff(ifs, alpha, lengths, eps, N_points=8)
    L, V = _block_vectors(res.argument)
    N_grid = res.extras["N_grid"]
    table = _RunTable(_RunEvaluator(ifs, alpha), L, V)
    assert res.value == table.d_lower(N_grid).min()
    assert table.admissible(int(math.ceil(1.0 / eps)), eps)
    oracle = nm_oracle.type_ell_value(ifs, alpha, L, eps, N_grid, max_passes=2)
    assert res.value >= oracle - 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=10, deadline=None)
def test_packing_solve_matches_or_beats_block_ascent(mcmullen, sponge3d, seed,
                                                     use_sponge, percolated):
    rng = np.random.default_rng(seed)
    ifs, alpha, lengths = _draw(rng, mcmullen, sponge3d, use_sponge, percolated)
    alpha = np.ones(ifs.n) if alpha is None else alpha
    eps = float(rng.uniform(0.05, 0.4))
    _, lam_hi = ifs.contraction_span()
    N = float(np.floor(rng.uniform(6.0, (sum(lengths) - 2) / lam_hi)))
    res = optimize_packing(ifs, alpha, lengths, eps, [N])
    L, V = res.extras["runs"][N]
    table = _RunTable(_RunEvaluator(ifs, alpha), L, V)
    value = res.extras["per_N"][0]["value"]
    assert value == table.d_tilde([N])[0]
    assert table.admissible(max(1, int(math.floor(N * eps))), -eps)
    oracle = nm_oracle.packing_values(ifs, alpha, lengths, eps, [N],
                                      max_passes=2)[0]
    assert value >= oracle - 1e-9


def test_baranski_carpet_moves_clocks_and_keeps_its_value():
    # unequal linear parts: the clocks depend on the vectors
    ifs = DiagonalIFS([DiagonalMap([1 / 2, 1 / 3], [0, 0]),
                       DiagonalMap([1 / 3, 1 / 2], [2 / 3, 1 / 2])])
    lengths = type_ell_lengths(80)
    ev = _RunEvaluator(ifs, None)
    res = optimize_type_ell_hausdorff(ifs, None, lengths, 0.1, N_points=8)
    L, V = _block_vectors(res.argument)
    N_grid = res.extras["N_grid"]
    start = _RunTable(ev, L, np.full((len(L), 2), 0.5))
    assert math.isfinite(res.value)
    assert res.value == _RunTable(ev, L, V).d_lower(N_grid).min()
    assert res.value >= start.d_lower(N_grid).min()

    alpha = np.array([0.9, 0.8])
    ev = _RunEvaluator(ifs, alpha)
    N = 20.0
    res = optimize_packing(ifs, alpha, lengths, 0.1, [N])
    L, V = res.extras["runs"][N]
    start = _RunTable(ev, [L.sum()], [p_max_vector(alpha)])
    value = res.extras["per_N"][0]["value"]
    assert math.isfinite(value)
    assert value == _RunTable(ev, L, V).d_tilde([N])[0]
    assert value >= start.d_tilde([N])[0]


# a Barański carpet whose clocks move after the first solve: at horizon 80
# the pattern settles on the second solve, at 200 it still moves when the
# rounds run out
COL3 = DiagonalIFS([DiagonalMap([1 / 3, 1 / 2], [0, 0]),
                    DiagonalMap([1 / 3, 1 / 4], [0, 1 / 2]),
                    DiagonalMap([1 / 2, 1 / 4], [1 / 2, 3 / 4])])


@pytest.mark.parametrize("total", [80, 200])
def test_clock_rounds_resolve_until_the_pattern_settles(total):
    res = optimize_type_ell_hausdorff(COL3, None, type_ell_lengths(total), 0.05,
                                      N_points=8)
    rounds = len(res.extras["solver"]["status"])
    assert rounds > 1
    assert ("clock-pattern-unsettled" in res.flags) == (rounds == _CLOCK_ROUNDS)
    L, V = _block_vectors(res.argument)
    N_grid = res.extras["N_grid"]
    ev = _RunEvaluator(COL3, None)
    assert res.value == _RunTable(ev, L, V).d_lower(N_grid).min()
    start = _RunTable(ev, L, np.full((len(L), 3), 1 / 3))
    assert res.value >= start.d_lower(N_grid).min()


# a Barański carpet whose uniform start holds both searches in a clock
# pattern below the one of the best constant law
BAR3 = DiagonalIFS([DiagonalMap([1 / 2, 1 / 3], [0, 0]),
                    DiagonalMap([1 / 4, 1 / 4], [1 / 2, 1 / 3]),
                    DiagonalMap([1 / 4, 2 / 5], [3 / 4, 3 / 5])])


def test_unequal_linear_parts_also_start_from_the_constant_law():
    # from the uniform start alone: 0.97138, and 0.98875 and 0.97044
    res = optimize_type_ell_hausdorff(BAR3, None, type_ell_lengths(300), 0.05)
    assert res.n_starts == 2
    assert abs(res.value - 1.00078) < 1e-5
    assert ("clock-pattern-unsettled" in res.flags) == (
        len(res.extras["solver"]["status"]) == _CLOCK_ROUNDS)
    res = optimize_packing(BAR3, np.ones(3), type_ell_lengths(300), 0.1, [40.0, 60.0])
    assert res.n_starts == 2
    values = [row["value"] for row in res.extras["per_N"]]
    assert np.allclose(values, [1.01373, 1.00506], rtol=0, atol=1e-5)
    # the constant law, of entropy 1.0397, leaves the class at eps 1.07
    res = optimize_type_ell_hausdorff(BAR3, None, type_ell_lengths(300), 1.07)
    assert res.n_starts == 1


def test_solver_diagnostics_on_the_carpet(mcmullen):
    alpha = np.array([0.9, 0.85, 0.8])
    for res in (optimize_type_ell_hausdorff(mcmullen, alpha, type_ell_lengths(50),
                                            eps=0.05),
                optimize_packing(mcmullen, np.ones(3), type_ell_lengths(700),
                                 eps=0.1, N_grid=[64.0, 128.0])):
        assert res.residual < 1e-6
        assert "solver-not-converged" not in res.flags
        solver = res.extras["solver"]
        assert solver["method"] == "SLSQP" and set(solver["status"]) == {0}
        assert res.iterations > 0 and solver["nfev"] > 0
