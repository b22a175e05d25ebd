"""Seeded random generators for states, observables, and projectors.

All generators accept an ``np.random.Generator``. Trial t of a suite seeded
with seed draws from its own stream, equal bit for bit to
``np.random.default_rng([seed, t])`` (``rng_for_trial``), so any single trial
can be replayed without rerunning the ones before it. Suites derive the
streams in batches (``trial_streams``): the seeding of a chunk of trials is
hashed at once and one Generator is reseeded per trial, with a fallback to
``default_rng`` for a seed or trial index of 2**32 or more.

A draw comes in two steps. Its take reads from the stream (the Gaussians of
``random_complex_gaussian`` and ``gaussian_factor``, and every integer or
uniform pick, as in ``projector_take``), and its build finishes it from what
was taken: ``phase_fixed_q``, ``gram_of_factor``, ``density_of_factor``,
``rank_deficient_of_factor``, ``projectors`` and ``unit_vectors`` each build
one matrix or a whole stack, every result with the bits of its matrix built
alone. The ``random_*`` functions are the take and the build of one draw.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .linalg import DomainError, _dagger, psd

__all__ = [
    "rng_for_trial",
    "trial_streams",
    "resumed_streams",
    "random_complex_gaussian",
    "random_unit_vector",
    "phase_fixed_q",
    "unit_vectors",
    "gaussian_factor",
    "gram_of_factor",
    "density_of_factor",
    "rank_deficient_of_factor",
    "projector_take",
    "projectors",
    "random_unitary",
    "random_hermitian",
    "random_psd",
    "random_density",
    "random_rank_deficient_density",
    "random_projector",
]


def rng_for_trial(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial of a seeded suite."""
    return np.random.default_rng([seed, trial])


# numpy's SeedSequence hash constants (pool of 4 words) and PCG64's multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# trials whose seeding is hashed at once
_STREAM_CHUNK = 256


def _pcg64_states(seed: int, ts: list) -> list:
    """The PCG64 state of ``default_rng([seed, t])`` for each t of ts, all below 2**32.

    The SeedSequence pools of every t are hashed together in uint32 arithmetic:
    entropy [seed, t], zero-padded to the pool's 4 words, mixed word by word;
    then 4 uint64 words are generated from each pool and seed PCG64 as its own
    seeding does (state, then stream increment, each two words high-first).
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    entropy = [np.full(len(ts), seed, dtype=np.uint32), np.array(ts, dtype=np.uint32)]
    pool = [hashmix(word) for word in entropy + [np.zeros(len(ts), dtype=np.uint32)] * 2]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    seeds = [(words[2 * i + 1] << np.uint64(32) | words[2 * i]).tolist() for i in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*seeds):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _stream_states(seed: int, ts):
    """The bit-generator state of ``rng_for_trial(seed, t)`` for each t of ts, a chunk hashed at a time."""
    ts = iter(ts)
    while chunk := list(islice(ts, _STREAM_CHUNK)):
        if 0 <= seed <= _MASK32 and 0 <= min(chunk) and max(chunk) <= _MASK32:
            yield from _pcg64_states(seed, chunk)
        else:  # an entropy word beyond 32 bits: the pool is no longer [seed, t]
            yield from (rng_for_trial(seed, t).bit_generator.state for t in chunk)


def resumed_streams(states):
    """Yield a Generator at each saved ``bit_generator.state`` of states, in order.

    One Generator is reseeded for every state, so each is valid until the next
    is taken: a consumer finishes its draws from one before it takes the next.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for state in states:
        rng.bit_generator.state = state
        yield rng


def trial_streams(seed: int, ts):
    """Yield the stream of each trial t of ts, in order: its draws equal ``rng_for_trial(seed, t)``'s bit for bit.

    The seeding of each chunk of trials is hashed at once (``_pcg64_states``)
    and one Generator is reseeded per trial (``resumed_streams``), valid until
    the next is taken. A seed or t of 2**32 or more falls back to
    ``rng_for_trial``.
    """
    return resumed_streams(_stream_states(seed, ts))


def random_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """IID standard complex Gaussian entries.

    One draw of the real parts, then the imaginary parts, stacked on a new
    leading axis: the values and stream state of two draws of ``shape``.
    """
    try:
        size = (2, *shape)
    except TypeError:  # an int
        size = (2, shape)
    g = rng.standard_normal(size)
    return g[0] + 1j * g[1]


def unit_vectors(G: np.ndarray) -> np.ndarray:
    """G / ||G|| of a complex vector, or of each row of an (n, d) stack.

    Each squared norm is the sum ``np.linalg.norm`` takes, the dot of the real
    parts plus the dot of the imaginary parts. The stacked 1 x 1 matrix
    products compute those same dots, so each row has the bits of its own
    normalization.
    """
    re, im = G.real[..., None, :], G.imag[..., None, :]
    return G / np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0])


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    return unit_vectors(random_complex_gaussian(rng, d))


def phase_fixed_q(A: np.ndarray) -> np.ndarray:
    """Q of A = QR with column phases fixed so that R has a positive diagonal.

    A may be an (n, r, c) stack; one stacked QR then finishes every matrix.
    """
    Q, R = np.linalg.qr(A)
    phases = np.diagonal(R, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return Q * phases[..., None, :]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary: the phase-fixed Q of a square Gaussian."""
    return phase_fixed_q(random_complex_gaussian(rng, (d, d)))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    G = random_complex_gaussian(rng, (d, d))
    return (G + G.conj().T) / 2


def gaussian_factor(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """The (d, rank) Gaussian G that random_psd and random_density draw."""
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise DomainError(f"rank must be in [1, {d}], got {rank}")
    return random_complex_gaussian(rng, (d, rank))


def gram_of_factor(G: np.ndarray) -> np.ndarray:
    """G G^dagger of a matrix G, or of each matrix of an (n, d, r) stack."""
    return G @ _dagger(G)


def random_psd(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Wishart matrix G G^dagger with G of shape (d, rank)."""
    return gram_of_factor(gaussian_factor(rng, d, rank))


def density_of_factor(G: np.ndarray) -> np.ndarray:
    """G G^dagger / tr[G G^dagger] of a matrix G, or of each matrix of an (n, d, r) stack."""
    W = gram_of_factor(G)
    return W / W.trace(axis1=-2, axis2=-1).real[..., None, None]


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Unit-trace Wishart state, full rank by default."""
    return density_of_factor(gaussian_factor(rng, d, rank))


def rank_deficient_of_factor(G: np.ndarray) -> np.ndarray:
    """The density of a square G, or of each matrix of a stack, with its smallest eigenvalue zeroed out exactly.

    One psd solves the stack; the other eigenvalues are renormalized to unit sum.
    """
    rho = psd(density_of_factor(G))
    w = rho.w.copy()
    w[..., 0] = 0.0
    w /= w.sum(axis=-1, keepdims=True)
    return (rho.V * w[..., None, :]) @ _dagger(rho.V)


def random_rank_deficient_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-dimension state with its smallest eigenvalue zeroed out exactly."""
    if d < 2:
        raise DomainError("rank-deficient state needs d >= 2")
    return rank_deficient_of_factor(gaussian_factor(rng, d))


def projector_take(rng: np.random.Generator, d: int, high: int | None = None) -> tuple:
    """(rank, G): a random projector's rank, drawn in [1, high) with high = d by default, then the d x d
    Gaussian G whose phase-fixed Q spans it (``projectors``)."""
    return int(rng.integers(1, d if high is None else high)), random_complex_gaussian(rng, (d, d))


def projectors(takes) -> list:
    """The projector of each (rank, G) take, G a d x d Gaussian and rank >= 1: onto the first rank columns
    of G's phase-fixed Q, the Qs of all takes from one stacked QR."""
    ranks, G = zip(*takes)
    return [V @ _dagger(V) for V in (U[:, :r] for U, r in zip(phase_fixed_q(np.stack(G)), ranks))]


def random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Rank-``rank`` orthogonal projector with Haar-random range."""
    if not 0 <= rank <= d:
        raise DomainError(f"projector rank must be in [0, {d}], got {rank}")
    if rank == 0:
        return np.zeros((d, d), dtype=np.complex128)
    return projectors([(rank, random_complex_gaussian(rng, (d, d)))])[0]
