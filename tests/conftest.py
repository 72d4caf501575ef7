"""Shared fixtures: small sponges with known structure."""

import numpy as np
import pytest

from spongedim import DiagonalIFS, DiagonalMap


def carpet(a, cells):
    return DiagonalIFS([DiagonalMap(list(a), list(t)) for t in cells])


@pytest.fixture(scope="session")
def mcmullen():
    """3x2 grid carpet, two cells in the bottom row, one in the top."""
    return carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])


@pytest.fixture(scope="session")
def sierpinski():
    """3x3 grid carpet with the center cell removed (8 maps, conformal)."""
    cells = [(i / 3, j / 3) for j in range(3) for i in range(3)
             if not (i == 1 and j == 1)]
    return carpet((1 / 3, 1 / 3), cells)


@pytest.fixture(scope="session")
def gl4x2():
    """4x2 grid carpet with four cells, wider than tall."""
    return DiagonalIFS([
        DiagonalMap([1 / 4, 1 / 2], [0, 0]),
        DiagonalMap([1 / 4, 1 / 2], [1 / 4, 0]),
        DiagonalMap([1 / 4, 1 / 2], [1 / 2, 1 / 2]),
        DiagonalMap([1 / 4, 1 / 2], [3 / 4, 1 / 2]),
    ])


# d=3 grid sponge on a 4x3x2 division, four cells
SPONGE3D = DiagonalIFS([
    DiagonalMap([1 / 4, 1 / 3, 1 / 2], [0, 0, 0]),
    DiagonalMap([1 / 4, 1 / 3, 1 / 2], [1 / 4, 1 / 3, 0]),
    DiagonalMap([1 / 4, 1 / 3, 1 / 2], [1 / 2, 2 / 3, 1 / 2]),
    DiagonalMap([1 / 4, 1 / 3, 1 / 2], [3 / 4, 0, 1 / 2]),
])


@pytest.fixture(scope="session")
def sponge3d():
    """d=3 grid sponge on a 4x3x2 division, four cells."""
    return SPONGE3D


def type_ell_lengths(total, first=4, q=1.25, m0=3, ratio_bound=0.5):
    """A valid block schedule: strictly increasing, ratio-bounded past m0."""
    out = [first]
    while sum(out) < total:
        nxt = max(out[-1] + 1, int(np.ceil(out[-1] * q)))
        if len(out) >= m0:
            cap = int(np.floor(ratio_bound * sum(out)))
            nxt = max(out[-1] + 1, min(nxt, cap))
        out.append(nxt)
    return out
