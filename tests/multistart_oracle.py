"""The constant-law multistart with its gradient-ascent polish, kept as a
test oracle.

``spongedim.variational.maximize_on_simplex`` once ran, after its
Nelder-Mead starts, an ascent polish with finite differences, and flagged
``re-evaluation-mismatch`` when the objective at the returned law differed
from the polished value.  The polish never moved on the unequal-linear
systems it ran on, and the flag compared one computation with itself, so
both left the library.  This is that search, unchanged: on the systems the
library's search serves, the two must return the same value, law and
residual.
"""

import math

import numpy as np
from scipy.optimize import minimize

from spongedim.variational import NM_ITER_PER_LETTER, OptimizationResult, softmax

POLISH_ITER = 500           # most ascent steps of the polish
POLISH_TOL = 1e-8           # gradient residual at which the polish stops


def maximize_on_simplex(f, n: int, starts: int, seed: int,
                        extra_starts=()) -> OptimizationResult:
    """Multistart Nelder-Mead in softmax coordinates, then gradient-ascent
    polish with finite differences.  The residual is the sup norm of the
    centred finite-difference gradient at the returned point."""
    rng = np.random.default_rng(seed)
    xs = [np.zeros(n)]
    for p0 in extra_starts:
        xs.append(np.log(np.maximum(np.asarray(p0, dtype=np.float64), 1e-300)))
    while len(xs) < starts:
        xs.append(np.log(np.maximum(rng.dirichlet(np.ones(n)), 1e-12)))

    def F(x):
        return f(softmax(x))

    best_x, best_v = None, -math.inf
    for x0 in xs:
        res = minimize(lambda x: -F(x), x0, method="Nelder-Mead",
                       options={"maxiter": NM_ITER_PER_LETTER * n,
                                "fatol": 1e-13, "xatol": 1e-9})
        v = -res.fun
        if v > best_v:
            best_v, best_x = v, res.x.copy()

    # ascent polish; the all-ones direction is flat, project it out
    x, fx = best_x, best_v
    h = 1e-6
    residual = math.inf
    it = 0
    for it in range(1, POLISH_ITER + 1):
        g = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            g[i] = (F(x + e) - F(x - e)) / (2 * h)
        g -= g.mean()
        residual = float(np.abs(g).max())
        if residual <= POLISH_TOL:
            break
        step = 1.0
        moved = False
        while step > 1e-16:
            xn = x + step * g
            fn = F(xn)
            if fn > fx:
                x, fx = xn, fn
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    p = softmax(x)
    flags = []
    if abs(f(p) - fx) > 1e-9:
        flags.append("re-evaluation-mismatch")
    return OptimizationResult(value=float(fx), argument=p, residual=residual,
                              iterations=it, n_starts=len(xs), flags=flags)
