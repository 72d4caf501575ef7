"""Sampled reference path for exponentially periodic schedules.

The evaluation ``spongedim.engine.dim_exp_periodic`` replaced: per
resolution T, the clocks invert the single-period tables one axis at a
time, the tail minimum reads the quadrature grid points of the period
[g_s, lam*g_s] (without g_s itself), and the profile minimum over
[g_1, g_s] is sampled at ``inner_points`` log-spaced points plus the
clocks (and, on request, every quadrature breakpoint there).  Every
table value comes from the periodic self-similarity
G(lam*t) = lam*G(t), one period at a time.  The old engine took the
dimensions as the minimum and maximum of min(delta1, delta2) over the
T grid.

It evaluates the same quadrature interpolant as the engine, so its profile
minimum can only lie above the engine's exact one, and its tail minimum
covers fewer points.  The sampled profile is evaluated in one array pass
per T, so a few thousand inner points stay cheap.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import entr

from spongedim.ifs import build_projection_coding
from spongedim.scales import clock_chain


class PeriodTables:
    """Single-period quadrature tables; all integrals from 0 reduce to one
    period through G(lam*t) = lam*G(t)."""

    def __init__(self, pspec, ifs, n_steps: int):
        self.pspec = pspec
        self.loglam = math.log(pspec.lam)
        self.x = np.linspace(0.0, self.loglam, n_steps + 1)
        self.t = np.exp(self.x)
        self.P = pspec.p_at_x(self.x)
        chi = self.P @ ifs.C
        H = entr(self.P).sum(axis=1)
        if pspec.alpha is not None:
            H = H + self.P @ np.log(pspec.alpha)
        self.G_chi = np.array([self.base_table(chi[:, k])
                               for k in range(ifs.d)]).T
        self.G_H = self.base_table(H)
        self._proj_tables = {}

    def base_table(self, f: np.ndarray) -> np.ndarray:
        """G(t_j) = int_0^{t_j} f for t_j in [1, lam]; the part below 1 is
        the closed geometric sum I/(lam-1)."""
        integrand = f * self.t
        steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.x)
        F = np.concatenate([[0.0], np.cumsum(steps)])
        return F[-1] / (self.pspec.lam - 1.0) + F

    def eval_scaled(self, table: np.ndarray, t) -> np.ndarray:
        """G(t) for t > 0 (scalar or array) via periodic self-similarity."""
        lt = np.log(np.asarray(t, dtype=np.float64))
        m = np.floor(lt / self.loglam)
        tau_x = lt - m * self.loglam
        low = tau_x < 0
        m = np.where(low, m - 1, m)
        tau_x = np.where(low, tau_x + self.loglam, tau_x)
        return self.pspec.lam ** m * np.interp(tau_x, self.x, table)

    def invert(self, table: np.ndarray, T: float) -> float:
        """Smallest t with G(t) = T (G strictly increasing)."""
        m = math.floor(math.log(T / table[0]) / self.loglam)
        for _ in range(3):
            val = T / self.pspec.lam ** m
            if val < table[0]:
                m -= 1
            elif val > table[-1]:
                m += 1
            else:
                break
        val = T / self.pspec.lam ** m
        xs = float(np.interp(val, table, self.x))
        return self.pspec.lam ** m * math.exp(xs)

    def proj_table(self, D: frozenset, r: int, coding) -> np.ndarray:
        if D not in self._proj_tables:
            proj = coding.project_rows(self.P, r)
            self._proj_tables[D] = self.base_table(entr(proj).sum(axis=1))
        return self._proj_tables[D]


def deltas(ifs, pspec, n_steps: int = 512, T_grid=None, inner_points: int = 256,
           breakpoints: bool = False):
    """(T_grid, delta1, delta2) on a grid of resolutions (default: 129
    log-spaced points over one period [1, lam]).  With ``breakpoints`` the
    profile is also sampled at every quadrature breakpoint in [g_1, g_s],
    which makes its sampled minimum the exact one."""
    tab = PeriodTables(pspec, ifs, n_steps)
    if T_grid is None:
        T_grid = np.exp(np.linspace(0.0, tab.loglam, 129))
    T_grid = np.asarray(T_grid, dtype=np.float64)
    lam = pspec.lam
    two_x = np.concatenate([tab.x, tab.x[1:] + tab.loglam])
    two_GH = np.concatenate([tab.G_H, lam * tab.G_H[1:]])

    d1_rows, d2_rows = [], []
    for T in T_grid:
        gam = np.array([tab.invert(tab.G_chi[:, k], T) for k in range(ifs.d)])
        groups, chain = clock_chain(gam, rtol=1e-9)
        gvals = [float(gam[g[0]]) for g in groups]
        coding = build_projection_coding(ifs, chain)
        s = len(groups)
        g1, gs = gvals[0], gvals[-1]

        # delta1: grid points of the period past g_s
        m = math.floor(math.log(gs) / tab.loglam)
        base = math.log(gs) - m * tab.loglam
        if base < 0:
            m -= 1
            base += tab.loglam
        mask = (two_x >= base - 1e-15) & (two_x <= base + tab.loglam + 1e-15)
        d1_rows.append(lam ** m * float(two_GH[mask].min()) / T)

        # delta2: the profile sampled over [g_1, g_s]
        tprime = np.exp(np.linspace(math.log(g1), math.log(gs), inner_points))
        if breakpoints:
            m = np.arange(math.floor(math.log(g1) / tab.loglam),
                          math.floor(math.log(gs) / tab.loglam) + 1)
            grid = np.exp(tab.x[None, :] + tab.loglam * m[:, None]).ravel()
            tprime = np.concatenate([tprime, grid[(grid >= g1) & (grid <= gs)]])
        tprime = np.unique(np.concatenate([tprime, np.asarray(gvals)]))
        val = tab.eval_scaled(tab.G_H, tprime)
        for r in range(2, s + 1):
            proj = tab.proj_table(chain[r - 1], r, coding)
            lo = np.maximum(tprime, gvals[r - 2])
            part = tab.eval_scaled(proj, gvals[r - 1]) - tab.eval_scaled(proj, lo)
            val = val + np.where(lo < gvals[r - 1], part, 0.0)
        d2_rows.append(float(val.min()) / T)
    return T_grid, np.array(d1_rows), np.array(d2_rows)

