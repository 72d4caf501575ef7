"""The constant-law sup on equal linear parts as one concave program, kept
as a test oracle.

``spongedim.variational.optimize_mandelbrot`` once solved, on equal linear
parts, the epigraph program max t subject to t <= each row of
``constant_law_rows``, with one SLSQP solve from the entropy maximizer
through the library's ``_solve_epigraph``.  The library now returns the
attractor's pressure minimum and its Gibbs law
(``dim_attractor_equal_linear``).  This is the old route, unchanged but
for its empty drift block, which ``_solve_epigraph`` no longer defaults:
both compute the same sup, so they must agree to the solver's tolerance.
"""

import math

import numpy as np

from spongedim.engine import mandelbrot_value, stable_chain
from spongedim.scales import _profile_rows
from spongedim.variational import OptimizationResult, _solve_epigraph, _solver_report
from spongedim.weights import as_survival_vector, entropy, p_max_vector


def constant_law_rows(ifs, p):
    """The constant-law objective H/chi~_1 + sum_{r>=2} c_r min(H, h(Pi_r p)),
    c_r = 1/chi~_r - 1/chi~_{r-1} > 0, on the chain of chi(p), as the
    candidate rows of one run (``_solve_epigraph``): the profile of one
    endless run at N = 1, whose clocks are g_r = 1/chi~_r, read at each
    clock (``_profile_rows``).  h(Pi_r p) never grows with r, so the levels
    where min(H, h_r) = h_r are the top ones, and the minimum of these s
    rows is the closed form.  Returns (C, mats) as ``_program_rows`` does."""
    _, _, chi_tilde, coding = stable_chain(ifs, p)
    g = 1.0 / chi_tilde
    # the level-1 slot is empty at every clock
    C = np.delete(_profile_rows(np.array([0.0, math.inf]), g, g), 1, axis=1)
    return C, coding.indicators[1:]


def optimize_constant_law(ifs, alpha=None) -> OptimizationResult:
    """The sup over constant laws on equal linear parts by one SLSQP solve
    from the entropy maximizer, which is kept when the solve does not beat
    it.  The result's extras hold the solve's report under "solver"."""
    if alpha is None:
        log_alpha, p0 = np.zeros(ifs.n), np.full(ifs.n, 1.0 / ifs.n)
    else:
        alpha = as_survival_vector(alpha, ifs.n)
        log_alpha, p0 = np.log(alpha), p_max_vector(alpha)

    def f(p):
        return mandelbrot_value(ifs, p, entropy(p) + float(p @ log_alpha))

    V, solve = _solve_epigraph(p0[None, :], *constant_law_rows(ifs, p0),
                               log_alpha, np.zeros((0, 1)), 0.0)
    v0, v = f(p0), f(V[0])
    p, value = (V[0], v) if v > v0 else (p0, v0)
    flags, solver, nit, residual = _solver_report([solve], True)
    return OptimizationResult(value=value, argument=p, residual=residual,
                              iterations=nit, n_starts=1, flags=flags,
                              extras={"solver": solver})
