"""Weight models and schedules: moments, entropy, class constraints.

Percolation closed forms are checked against direct summation, the
mean-one normalization against the atom expansion, and the block-schedule
validator against hand-built witnesses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongedim.weights import (DegenerateError, WeightModel, WeightSequence,
                               as_prob_vector, as_survival_vector, entropy,
                               validate_type_ell)

from conftest import type_ell_lengths


# === constructors and normalization ===

def test_deterministic_model_mean():
    m = WeightModel.deterministic([0.5, 0.3, 0.2])
    assert np.allclose(m.mean(), [0.5, 0.3, 0.2])
    assert m.n_letters == 3


def test_percolation_requires_survival_scaling():
    p = np.array([0.4, 0.35, 0.25])
    alpha = np.array([0.9, 0.8, 0.7])
    m = WeightModel.percolation(p, alpha)
    # E W_i = alpha_i * (p_i / alpha_i) = p_i
    assert np.allclose(m.mean(), p)


def test_atoms_rejects_off_mean():
    with pytest.raises((DegenerateError, ValueError)):
        WeightModel.atoms([(0.5, [1, 1, 1], [0.4, 0.3, 0.2]),
                           (0.5, [1, 1, 1], [0.2, 0.2, 0.2])])


def test_probability_vector_validation():
    with pytest.raises((DegenerateError, ValueError)):
        WeightModel.deterministic([0.5, 0.6])
    with pytest.raises((DegenerateError, ValueError)):
        WeightModel.percolation([0.5, 0.5], [0.0, 0.9])


def test_vectors_take_numbers_not_strings():
    assert as_survival_vector([1, True, 0.5]).tolist() == [1.0, 1.0, 0.5]
    for bad in (["0.5", "0.5"], [0.5, "0.5"], [None, 1.0]):
        with pytest.raises(ValueError, match="expected numbers"):
            as_prob_vector(bad)
    # an integer past int64 converts as float() does, or overflows as it does
    with pytest.raises(ValueError, match="sum to 1e\\+20"):
        as_prob_vector([10 ** 20, 0.5])
    with pytest.raises(OverflowError):
        as_prob_vector([10 ** 400, 0.5])


# === percolation closed forms ===

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_percolation_entropy_closed_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p = rng.dirichlet(np.ones(n))
    alpha = rng.uniform(0.55, 1.0, size=n)
    m = WeightModel.percolation(p, alpha)
    expect = entropy(p) + float(p @ np.log(alpha))
    assert abs(m.entropy_H() - expect) < 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_percolation_moment_closed_form(seed, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p = rng.dirichlet(np.ones(n))
    alpha = rng.uniform(0.55, 1.0, size=n)
    m = WeightModel.percolation(p, alpha)
    expect = float(np.sum(p ** q * alpha ** (1.0 - q)))
    assert abs(m.phi(q) - expect) < 1e-12 * max(1.0, expect)


def test_phi_at_one_is_mass():
    m = WeightModel.percolation([0.4, 0.6], [0.9, 0.8])
    assert abs(m.phi(1.0) - 1.0) < 1e-12


def test_second_moment_matches_atom_expansion():
    p = np.array([0.4, 0.35, 0.25])
    alpha = np.array([0.9, 0.8, 0.7])
    m = WeightModel.percolation(p, alpha)
    flat = m.expand_atoms()
    acc = 0.0
    for prob, c, w in zip(flat.atom_probs, flat.atom_c, flat.atom_w):
        acc += prob * float(np.sum(c * w)) ** 2
    assert abs(m.second_moment_depth1() - acc) < 1e-12


# === schedules ===

def test_sequence_from_blocks_shape():
    seq = WeightSequence.from_blocks([3, 5], [[0.5, 0.5], [0.2, 0.8]],
                                     alpha=[0.9, 0.9])
    assert seq.horizon == 8
    assert seq.n_letters == 2
    assert np.allclose(seq.p_rows()[2], [0.5, 0.5])
    assert np.allclose(seq.p_rows()[3], [0.2, 0.8])


@pytest.mark.parametrize("lengths", [
    [2.7, 1], [2.0, 1], [True, 1], [np.float64(2.0), 1], [np.bool_(True), 1],
    ["2", 1], [None, 1], [2, 0], [2, -1], [2 ** 63, 1], [np.uint64(2 ** 64 - 1), 1],
    [2], [2, 1, 1]])
def test_schedule_rejects_lengths_that_are_not_positive_integers(lengths):
    # int() would read 2.7 as 2 and True as 1: a shorter horizon, silently
    vectors = [[0.5, 0.5], [0.25, 0.75]]
    with pytest.raises(ValueError, match="length"):
        WeightSequence.from_blocks(lengths, vectors)
    models = [WeightModel.deterministic(v) for v in vectors]
    with pytest.raises(ValueError, match="length"):
        WeightSequence.from_models(models, lengths)


def test_type_ell_check_reads_no_fraction_as_an_integer():
    assert validate_type_ell([4, 5, 6, 7]) == []
    for bad in ([4.5, 5, 6, 7], [4, 5, 6, True], [0, 5, 6, 7], [4, -5, 6, 7]):
        assert validate_type_ell(bad), bad


def test_schedule_accepts_python_and_numpy_integer_lengths():
    vectors = [[0.5, 0.5], [0.25, 0.75]]
    for lengths in ([2, 3], [np.int64(2), np.uint8(3)], np.array([2, 3]),
                    np.array([2, 3], dtype=np.uint16), (2, 3)):
        seq = WeightSequence.from_blocks(lengths, vectors)
        assert seq.block_lengths == [2, 3] and seq.horizon == 5
        assert seq.L.dtype == np.int64


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_rejects_non_finite_vectors(bad):
    with pytest.raises(ValueError, match="non-finite"):
        WeightSequence(P=[[bad, bad], [0.5, 0.5]], alpha=[0.9, 0.9])
    with pytest.raises(ValueError, match="non-finite"):
        WeightSequence.from_blocks([2, 3], [[0.5, 0.5], [bad, 0.0]])


def test_model_at_block_boundaries():
    seq = WeightSequence.from_blocks([2, 2], [[0.5, 0.5], [0.1, 0.9]],
                                     alpha=[1.0, 1.0])
    assert np.allclose(seq.model_at(2).mean(), [0.5, 0.5])
    assert np.allclose(seq.model_at(3).mean(), [0.1, 0.9])


def test_entropy_array_matches_rows():
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(3), size=20)
    alpha = np.array([0.9, 0.8, 0.85])
    seq = WeightSequence(P=P, alpha=alpha)
    H = seq.H_array()
    for n in (0, 7, 19):
        expect = entropy(P[n]) + float(P[n] @ np.log(alpha))
        assert abs(H[n] - expect) < 1e-12


def test_truncated_preserves_prefix():
    seq = WeightSequence.from_blocks([4, 6], [[0.5, 0.5], [0.3, 0.7]],
                                     alpha=[0.9, 0.9])
    short = seq.truncated(5)
    assert short.horizon == 5
    assert np.allclose(short.p_rows(), seq.p_rows()[:5])


# === block-length class validation ===

def test_valid_schedule_accepted():
    assert validate_type_ell(type_ell_lengths(2000)) == []


def test_non_increasing_rejected():
    msgs = validate_type_ell([4, 5, 5, 8])
    assert any("5" in m for m in msgs)


def test_ratio_violation_rejected_past_warmup():
    # fourth block longer than half the total of the first three
    msgs = validate_type_ell([4, 5, 6, 9])
    assert msgs and "block 4" in msgs[0]
    # the bound is inclusive, past the warm-up on every block: 7 <= 7.5
    # and 11 <= 11 pass, 12 > 11 does not
    assert validate_type_ell([4, 5, 6, 7, 11]) == []
    assert validate_type_ell([4, 5, 6, 7, 12])


def test_early_blocks_exempt_from_ratio():
    # strict increase forces every integer schedule to violate the ratio
    # condition in its first blocks; those are warm-up and must pass
    assert validate_type_ell([4, 5, 6]) == []
