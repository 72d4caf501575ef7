"""Counter-mode randomness keyed by (seed, node code, stream).

Every draw made by the simulators is a pure function of the master seed, the
integer code of a tree node, and a small stream index.  Results therefore do
not depend on traversal order, chunking, or the number of workers, and a tree
re-sampled to a larger depth reproduces its shallow part bit for bit.

The mixer is SplitMix64; its output passes the usual avalanche tests and is
far below the Monte Carlo noise floor of anything asserted in the test suite.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)


def _mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # modular 64-bit arithmetic; the wraparound is the whole point
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _absorb(acc, word):
    with np.errstate(over="ignore"):
        return _mix64(acc ^ (word + _GOLDEN))


def node_key(seed: int, codes, stream: int = 0) -> np.ndarray:
    """64-bit key per node code; vectorized over ``codes``."""
    codes = np.asarray(codes, dtype=np.uint64)
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    acc = _absorb(_mix64(s), codes)
    return _absorb(acc, np.uint64(stream))


def uniform(seed: int, codes, stream: int = 0) -> np.ndarray:
    """Uniform [0,1) per node, 53-bit resolution."""
    k = node_key(seed, codes, stream)
    return (k >> np.uint64(11)).astype(np.float64) * _INV53


def child_codes(codes, arity: int) -> np.ndarray:
    """Codes of all children, shape (len(codes), arity).

    Root code is 1; the k-ary heap rule ``c*arity + 1 + i`` keeps codes unique
    across levels.  The node guard does not bound them: codes stay below
    2**63 only down to level ``max_code_depth(arity)`` (38 for arity 3), and
    past 2**64 they wrap.  The samplers refuse deeper trees.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    off = np.arange(1, arity + 1, dtype=np.uint64)
    return codes[:, None] * np.uint64(arity) + off[None, :]


ROOT_CODE = np.uint64(1)
CODE_LIMIT = 2 ** 63      # tree dumps write codes as int64


def max_code_depth(arity: int) -> int:
    """Deepest level whose heap codes all stay below 2**63.  The largest
    level-n code is the last child of the largest level-(n-1) code."""
    if arity < 2:
        return CODE_LIMIT - 2
    depth, top = 0, 1
    while top * arity + arity < CODE_LIMIT:
        depth, top = depth + 1, top * arity + arity
    return depth
