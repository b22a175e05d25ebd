import numpy as np
import pytest

from qdpi.linalg import psd
from qdpi.sampling import (
    density_of_factor,
    gaussian_factor,
    gram_of_factor,
    phase_fixed_q,
    projectors,
    random_complex_gaussian,
    random_density,
    random_projector,
    random_rank_deficient_density,
    random_unit_vector,
    random_unitary,
    rank_deficient_of_factor,
    resumed_streams,
    rng_for_trial,
    trial_streams,
    unit_vectors,
)


def _same_stream(rng, seed, t):
    """rng is at the start of rng_for_trial(seed, t): same bit-generator state and the same draws of each kind."""
    reference = rng_for_trial(seed, t)
    assert rng.bit_generator.state == reference.bit_generator.state, (seed, t)
    draws = [rng.standard_normal(3), rng.integers(7), rng.random(), rng.uniform(0.2, 0.9), rng.integers(2**31)]
    expected = [reference.standard_normal(3), reference.integers(7), reference.random(),
                reference.uniform(0.2, 0.9), reference.integers(2**31)]
    assert np.array_equal(draws[0], expected[0]) and draws[1:] == expected[1:], (seed, t)


@pytest.mark.parametrize("seed", [0, 3, 44, 2**31 - 1, 2**32 - 1])
def test_trial_streams_equal_default_rng(seed):
    # several chunks of hashed seeding, then the largest trial index on the fast path
    ts = list(range(1001)) + [2**32 - 1]
    streams = trial_streams(seed, ts)
    for t in ts:
        _same_stream(next(streams), seed, t)
    assert next(streams, None) is None


@pytest.mark.parametrize("seed, ts", [
    (2**32, range(300)),                # a seed beyond 32 bits: every stream from default_rng
    (7, [2**32 - 2, 2**32 - 1, 2**32]),  # a trial index beyond 32 bits in a chunk
    (2**40 + 5, [0, 2**32 + 9]),
])
def test_trial_streams_fall_back_to_default_rng_beyond_32_bits(seed, ts):
    for t, rng in zip(ts, trial_streams(seed, ts)):
        _same_stream(rng, seed, t)


def test_trial_streams_reuse_one_generator_and_resume_saved_states():
    streams = trial_streams(5, range(3))
    first = next(streams)
    first.standard_normal(4)
    saved = first.bit_generator.state
    assert next(streams) is first  # valid until the next is taken
    (resumed,) = resumed_streams([saved])
    reference = rng_for_trial(5, 0)
    reference.standard_normal(4)
    assert np.array_equal(resumed.standard_normal(5), reference.standard_normal(5))


def _bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _one_at_a_time(rng, d):
    """A projector of random rank, a unit vector, a Wishart matrix and a random-rank density drawn from rng,
    each built alone by the one-matrix formulas."""
    rank = int(rng.integers(1, d + 1))
    U = random_unitary(rng, d)[:, :rank]
    v = random_complex_gaussian(rng, d)
    G = random_complex_gaussian(rng, (d, d))
    F = random_complex_gaussian(rng, (d, rank))
    W = F @ F.conj().T
    return rank, U @ U.conj().T, v / np.linalg.norm(v), G @ G.conj().T, W / float(np.trace(W).real)


def _rank_deficient_alone(rng, d):
    """A density with its smallest eigenvalue zeroed out, built alone by the one-matrix formula."""
    rho = psd(random_density(rng, d))
    w = rho.w.copy()
    w[0] = 0.0
    w /= w.sum()
    return (rho.V * w) @ rho.V.conj().T


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_stacked_builds_have_the_bits_of_each_draw(d):
    # each builder on a stack of 9 takes against the one-matrix formulas on each stream
    n = 9
    takes = []
    for rng in (rng_for_trial(61, t) for t in range(n)):
        rank = int(rng.integers(1, d + 1))
        takes.append((random_complex_gaussian(rng, (d, d)), random_complex_gaussian(rng, d),
                      gaussian_factor(rng, d), gaussian_factor(rng, d, rank)))
    square, vectors, full, thin = zip(*takes)
    ranks, P, v, W, rho = zip(*(_one_at_a_time(rng_for_trial(61, t), d) for t in range(n)))
    assert _bits(projectors(zip(ranks, square))) == _bits(P)
    assert _bits(unit_vectors(np.stack(vectors))) == _bits(v)
    assert _bits(gram_of_factor(np.stack(full))) == _bits(W)
    for r in set(ranks):  # a density stack holds one shape
        assert _bits(density_of_factor(np.stack([G for G, k in zip(thin, ranks) if k == r]))) == \
            _bits(rho_k for rho_k, k in zip(rho, ranks) if k == r)
    assert _bits(phase_fixed_q(np.stack(square))) == _bits(map(phase_fixed_q, square))
    factors = np.stack([gaussian_factor(rng_for_trial(62, t), d) for t in range(n)])
    deficient = [_rank_deficient_alone(rng_for_trial(62, t), d) for t in range(n)]
    assert _bits(rank_deficient_of_factor(factors)) == _bits(deficient)
    assert _bits(random_rank_deficient_density(rng_for_trial(62, t), d) for t in range(n)) == _bits(deficient)
    assert _bits(random_unit_vector(rng_for_trial(64, t), d) for t in range(n)) == \
        _bits(G / np.linalg.norm(G) for G in (random_complex_gaussian(rng_for_trial(64, t), d) for t in range(n)))

