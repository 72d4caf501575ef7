"""The pressure minimum over theta by grid and golden section, kept as a
test oracle.

``spongedim.variational._pressure_min_theta`` once scanned THETA_GRID
points of [lo, hi] and then ran GOLDEN_ROUNDS golden-section steps around
the best of them: 2 + THETA_GRID + GOLDEN_ROUNDS + 1 pressure evaluations
per level, whatever the shape of P_r.  The library now bisects on the
exact slope.  This is the old search, unchanged but for its return value,
which takes the library's (theta, P, maximizer) form: P_r is convex, so
the two must find the same minimum to rounding.
"""

import math

import numpy as np

from spongedim.variational import weighted_pressure

THETA_GRID = 256        # theta grid of the pressure minimum
GOLDEN_ROUNDS = 80      # golden-section steps around its best grid point


def pressure_min_theta(ifs, alpha, r, lo, hi, ctx):
    """min over theta in [lo, hi] of P_r(theta) (convex), grid + golden."""
    ths = np.linspace(lo, hi, THETA_GRID)
    vals = np.array([weighted_pressure(ifs, alpha, r, t, ctx)[0] for t in ths])
    j = int(np.argmin(vals))
    a = ths[max(0, j - 1)]
    b = ths[min(THETA_GRID - 1, j + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = weighted_pressure(ifs, alpha, r, c, ctx)[0]
    fd = weighted_pressure(ifs, alpha, r, d, ctx)[0]
    for _ in range(GOLDEN_ROUNDS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = weighted_pressure(ifs, alpha, r, c, ctx)[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = weighted_pressure(ifs, alpha, r, d, ctx)[0]
    t_star = 0.5 * (a + b)
    return (t_star,) + weighted_pressure(ifs, alpha, r, t_star, ctx)
