"""The run table against the dense oracle, its cost shape, and a guard that
keeps the dense prefix path out of the package.

``scales.PrefixTable`` keeps prefix sums at run boundaries only; the oracle
in ``dense_oracle`` sums every row with Kahan compensation.  Both must give
the same clocks, profiles, tail minima and dimension sequences on block
schedules, dense one-row-per-generation schedules and the three-weight gap
schedule (explicit finite-atom laws).  The drift report, a scan over block
boundaries, must match the oracle's row-wise partial means, and a block
schedule must cost memory in its blocks, not its rows.
"""

import functools
import os
import re
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spongedim
from spongedim import io
from spongedim.engine import (d_sequences, dim_imm_bounds, entropy_profile,
                              partition_function, scaled_weight_model,
                              three_weight_gap_sequence)
from spongedim.scales import PrefixTable, decompose, tail_min
from spongedim.weights import WeightSequence, entropy, nondegeneracy_report

import dense_oracle as dense

from conftest import carpet

TOL = 1e-12
MCMULLEN = carpet((1 / 3, 1 / 2), [(0, 0), (2 / 3, 0), (1 / 3, 1 / 2)])


@functools.lru_cache(maxsize=None)
def gap_schedule(horizon):
    return three_weight_gap_sequence(MCMULLEN, np.array([0.4, 0.35, 0.25]),
                                     H1=0.82, H3=-0.85, horizon=horizon).seq


def draw_schedule(kind, ifs, rng):
    alpha = rng.uniform(0.6, 1.0, size=ifs.n) if rng.random() < 0.5 else None
    conc = rng.uniform(0.3, 3.0)
    if kind == "blocks":
        R = int(rng.integers(1, 12))
        lengths = rng.integers(1, 80, size=R)
        vectors = rng.dirichlet(np.full(ifs.n, conc), size=R)
        return WeightSequence.from_blocks(lengths, vectors, alpha=alpha)
    if kind == "dense":
        P = rng.dirichlet(np.full(ifs.n, conc), size=int(rng.integers(40, 400)))
        return WeightSequence(P=P, alpha=alpha)
    return gap_schedule(int(rng.choice([800, 2500])))


def near(a, b, scale):
    return abs(a - b) <= TOL * scale


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["blocks", "dense", "gap"]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_run_table_matches_dense_oracle(sponge3d, seed, kind, use_sponge):
    rng = np.random.default_rng(seed)
    ifs = sponge3d if use_sponge and kind != "gap" else MCMULLEN
    seq = draw_schedule(kind, ifs, rng)
    table, ref = PrefixTable(ifs, seq), dense.DensePrefixTable(ifs, seq)
    assert table.horizon == seq.horizon
    assert abs(table.max_resolution() - ref.max_resolution()) <= TOL * seq.horizon
    Ns = rng.uniform(0.05, 0.98, size=5) * ref.max_resolution()
    # a dense clock sum within 1e-9 of a scale is a tie that rounding may
    # break either way, so those draws are skipped
    assume(np.abs(ref.chi_prefix[..., None] - Ns).min() > 1e-9)

    # the whole grid in one table call, in random order
    grid = [dense.d_sequences(seq, ifs, float(M), prefix=ref) for M in Ns]
    assert np.abs(table.d_tilde(Ns) - [r.d_tilde for r in grid]).max() <= TOL
    assert np.abs(table.d_lower(Ns) - [r.d for r in grid]).max() <= TOL

    N = float(Ns[0])

    dec, dec_ref = decompose(ifs, seq, N, prefix=table), dense.decompose(ifs, seq, N, ref)
    assert list(dec.gammas) == list(dec_ref.gammas)
    assert dec.groups == dec_ref.groups and dec.g == dec_ref.g

    # entropy profile anywhere in [0, g_s], per unit of resolution
    for k in rng.integers(0, dec.g[-1] + 1, size=4):
        assert near(entropy_profile(seq, dec, int(k), prefix=table),
                    dense.entropy_profile(seq, dec_ref, int(k), ref), N)

    # tail horizons: the full table, and one inside a run past g_s
    gs = dec.g[-1]
    E = np.concatenate([[0], np.cumsum(table.L)]).astype(int)
    inside = [int(rng.integers(a + 1, b)) for a, b in zip(E[:-1], E[1:])
              if b - a >= 2 and a + 1 >= gs]
    horizons = [None] + ([int(rng.choice(inside))] if inside else [])
    for T in horizons:
        res = d_sequences(seq, ifs, N, prefix=table, tail_horizon=T)
        res_ref = dense.d_sequences(seq, ifs, N, prefix=ref, tail_horizon=T)
        assert near(res.d, res_ref.d, 1.0)
        assert near(res.d_tilde, res_ref.d_tilde, 1.0)
        for x in (gs, int(rng.integers(0, gs + 1))):
            got, want = tail_min(table, x, T), dense.tail_min(ref, x, T)
            assert got.horizon == want.horizon
            assert near(got.value, want.value, N)
            # the flag compares the horizon's prefix sum with the rest; a
            # near-tie there is left out like the clock ties
            seg = ref.H_prefix[x:want.horizon + 1]
            if seg.size > 1 and abs(seg[-1] - seg[:-1].min()) > 1e-9:
                assert got.horizon_limited == want.horizon_limited
                if x == gs:
                    assert (("tail-horizon-limited" in res.flags)
                            == want.horizon_limited)


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["blocks", "dense", "gap"]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_partition_function_matches_dense_oracle(sponge3d, seed, kind, use_sponge):
    # block sums with the profile's rows against one term per generation
    rng = np.random.default_rng(seed)
    ifs = sponge3d if use_sponge and kind != "gap" else MCMULLEN
    seq = draw_schedule(kind, ifs, rng)
    table = PrefixTable(ifs, seq)
    dec = decompose(ifs, seq, float(rng.uniform(0.05, 0.98) * table.max_resolution()),
                    prefix=table)
    for k in [0, dec.g[0], dec.g[-1], *rng.integers(0, dec.g[-1] + 1, size=2)]:
        for q in (0.0, 0.5, 1.0, 2.0):
            want = dense.partition_function(seq, dec, int(k), q)
            got = partition_function(seq, dec, int(k), q)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, q)


def test_grid_call_matches_one_scale_calls(mcmullen):
    # dim_imm_bounds evaluates its whole N grid in one table call;
    # d_sequences is the one-scale case of the same call
    seq = gap_schedule(2500)
    bounds = dim_imm_bounds(seq, mcmullen, N_grid=np.linspace(40.0, 600.0, 9))
    table = PrefixTable(mcmullen, seq)
    for N, d, dt, flag in zip(bounds.profile.N, bounds.profile.d,
                              bounds.profile.d_tilde, bounds.profile.tail_flags):
        one = d_sequences(seq, mcmullen, N, prefix=table)
        assert (one.d, one.d_tilde, bool(one.flags)) == (d, dt, flag)


def test_tail_min_flags_only_a_strict_minimum_at_the_horizon(mcmullen):
    # a law with H > 0, then one with H < 0: the prefix sums fall to the end
    up = WeightSequence.from_models(
        [gap_schedule(800).models[0], gap_schedule(800).models[2]], [30, 20])
    table = PrefixTable(mcmullen, up)
    end = tail_min(table, 10)
    assert end.horizon_limited and end.value < 0
    inside = tail_min(table, 30, horizon=35)
    assert inside.horizon == 35 and inside.horizon_limited
    assert abs(inside.value - 5 * up.models[1].entropy_H()) < 1e-12
    # the empty tail at the horizon itself is not flagged
    last = tail_min(table, table.horizon)
    assert last.value == 0.0 and not last.horizon_limited
    # before the negative block the minimum is the start
    early = tail_min(table, 5, horizon=30)
    assert early.value == 0.0 and not early.horizon_limited


# === drift report against the row-wise oracle ===

def draw_drift_schedule(kind, percolated, rng):
    """A schedule on three letters whose entropies dip: blocks or dense rows
    of mean vectors (below zero under a survival law), or finite-atom
    blocks with entropies down to about -1.5."""
    R = int(rng.integers(1, 40))
    lengths = np.ones(R, dtype=int) if kind == "dense" else rng.integers(1, 50, size=R)
    vectors = np.array([rng.dirichlet(np.full(3, 0.1 if rng.random() < 0.3 else 2.0))
                        for _ in range(R)])
    if kind == "atoms":
        return WeightSequence.from_models(
            [scaled_weight_model(v, entropy(v) - rng.uniform(0.0, 1.5)) for v in vectors],
            lengths)
    alpha = rng.uniform(0.3, 1.0, size=3) if percolated else None
    if kind == "dense":
        return WeightSequence(P=vectors, alpha=alpha)
    return WeightSequence.from_blocks(lengths, vectors, alpha=alpha)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["blocks", "dense", "atoms"]),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_drift_report_matches_dense_oracle(seed, kind, percolated):
    rng = np.random.default_rng(seed)
    seq = draw_drift_schedule(kind, percolated, rng)
    horizon = int(rng.integers(1, seq.horizon + 1)) if rng.random() < 0.5 else None
    got = nondegeneracy_report(seq, horizon)
    want = dense.nondegeneracy_report(seq, horizon)
    assert ((got.horizon, got.verdict, got.eps, got.N_eps)
            == (want.horizon, want.verdict, want.eps, want.N_eps))
    assert abs(got.min_partial_mean - want.min_partial_mean) <= TOL


# === cost shape ===

def test_block_schedule_table_has_one_run_per_block(mcmullen):
    rng = np.random.default_rng(5)
    lengths = np.full(20, 50_000)
    vectors = rng.dirichlet(np.ones(3), size=20)
    seq = WeightSequence.from_blocks(lengths, vectors, alpha=np.full(3, 0.9))
    assert seq.horizon == 10 ** 6
    table = PrefixTable(mcmullen, seq)
    assert table.L.size == 20
    assert table.horizon == 10 ** 6
    # explicit-law blocks merge only when their vector and entropy agree
    gap = gap_schedule(2500)
    assert PrefixTable(mcmullen, gap).L.size == len(gap.block_lengths)


def test_block_schedule_memory_does_not_grow_with_rows(mcmullen):
    # 10^7 rows as 20 blocks, loaded from the file form, and as 20
    # finite-atom laws: the rows alone would take 240 MB
    rng = np.random.default_rng(11)
    lengths = np.full(20, 500_000)
    vectors = rng.dirichlet(np.full(3, 3.0), size=20)
    doc = io.sequence_to_dict(WeightSequence.from_blocks(lengths, vectors,
                                                         alpha=np.full(3, 0.9)))
    tracemalloc.start()
    try:
        seq = io.sequence_from_dict(doc)
        bounds = dim_imm_bounds(seq, mcmullen)
        atoms = WeightSequence.from_models(
            [scaled_weight_model(v, 0.5 * entropy(v)) for v in vectors], lengths)
        atom_bounds = dim_imm_bounds(atoms, mcmullen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.horizon == atoms.horizon == 10 ** 7
    for b in (bounds, atom_bounds):
        assert 0.0 < b.dim_H_estimate <= b.dim_P_estimate
    assert peak < 5 * 2 ** 20


# === the dense path stays out of the package ===

def _package_sources():
    root = os.path.dirname(spongedim.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                yield name, fh.read()


def test_no_dense_prefix_path_in_package():
    for name, text in _package_sources():
        assert "longdouble" not in text, name
        for dense_name in ("_band_entropies", "_profile_vector"):
            assert dense_name not in text, (name, dense_name)
        # kahan_cumsum is kept for the oracle and the benchmark's reference
        # script: defined in scales and exported, called nowhere
        uses = re.findall(r"\bkahan_cumsum\b", text)
        if name == "scales.py":
            assert re.findall(r"^def kahan_cumsum\(", text, re.M) and len(uses) == 1
        elif name == "__init__.py":
            assert len(uses) == 1
        else:
            assert not uses, name
        # the run core is defined once, in scales
        for core in ("class _RunTable", "class _RunEvaluator", "def _chain_groups"):
            assert (core in text) == (name == "scales.py"), (name, core)
