"""Monic random matrix polynomials and their companion linearizations.

A degree-k matrix polynomial with n x n coefficients is

    P(x) = I_n x^k + C_{k-1} x^{k-1} + ... + C_1 x + C_0,

stored as the coefficient list ``C_0, ..., C_{k-1}`` with the leading
coefficient implicitly the identity.  Its kn finite eigenvalues are the
roots of ``det P(x)``.  ``trial_eigenvalues`` alone chooses the solver, for
a stack of trials; ``finite_eigenvalues`` is its one-trial case.
Degree-dominated shapes (``k >= 2n``, ``n <= 16``, ``kn >= 80``) are solved
by Ehrlich-Aberth iteration on ``det P``.  A sweep evaluates P and x P' at
all kn roots as one matrix product against one operand, the coefficients
and their slopes ``[C_j | j C_j]`` (roots past the unit circle take the
powers of 1/x against its rows reversed), solves kn small n x n systems,
and forms the pull between roots once per pair of active roots, which is
cheaper there than dense QR at O((kn)^3); both thresholds are measured
(see ``_ABERTH_MIN_KN``).  The first sweep starts from kn equispaced
points on one circle, where P and x P' are a DFT of the coefficients (n
FFTs of length k) and the pull is exactly ``(kn - 1) / 2x``.  The pull's
terms and its sums within a tile are float32, everything else float64: the
pull only steers the iteration, whose fixed points are the zeros of the
float64 Newton correction, so the roots, as a set, depend on its precision
only at rounding level.  A trial that fails its self-check is solved once
more from the start circle rotated by half a point spacing; if that fails
too, it falls back to the dense route up to kn = 2048 and raises
``NumericalError`` above.  Every other shape takes the spectrum of the
block companion matrix

    M = [ -C_{k-1}  -C_{k-2}  ...  -C_1  -C_0 ]
        [   I_n        0      ...    0     0  ]
        [    0        I_n     ...    0     0  ]
        [   ...                             ]
        [    0         0      ...   I_n    0  ].

``companion`` returns M.  Its top block row ``c_t = M[:n] = -[C_{k-1} ...
C_0]`` is the random factor of the exact splitting M = Z + E_1 c_t, Z the
block down-shift and E_1^T = [I_n 0 ... 0], so the random part has rank at
most n, which is what degree-growing arguments exploit.  Moving the
identity corner block of B = ``circulant_matrix(n, k)`` into the random
part gives the second exact splitting M = B + (M - B): B is the block
circulant whose spectrum is the k-th roots of unity
(``circulant_b_eigenvalues``), and M - B is nonzero only in its top block
row, so it too has rank at most n.  The verification suites and the
replacement-gap diagnostics compare M against B directly.  One walker,
``_map_trials``, draws the trials of the experiments and of the suites in
the chunks of ``_chunks``, which every batched loop takes under one
budget; a chunk linearizes with ``_companion_stack``, as ``companion``
does for one polynomial.

Sampling convention: "standard complex Gaussian" means independent real and
imaginary parts, each N(0, 1/2), so E|X|^2 = 1.  All randomness flows
through ``RngStream`` so that any draw is addressable and reproducible.
Per-trial streams are drawn one way, by ``_trial_draws``: one flat draw per
trial, for the experiments, the suites and the stacked verify sweeps.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import eigenvalues, singular_values, spectral_norm
from .tolerances import EPS

__all__ = [
    "RngStream",
    "MatrixPolynomial",
    "sample_monic_gaussian",
    "evaluate",
    "companion",
    "circulant_matrix",
    "circulant_b_eigenvalues",
    "finite_eigenvalues",
    "trial_eigenvalues",
    "trace_error",
    "backward_error",
    "polynomial_to_json",
    "polynomial_from_json",
    "complex_gaussian",
]


def _is_int(v) -> bool:
    """Any integer type but bool: Python and numpy integers pass."""
    try:
        operator.index(v)
    except TypeError:
        return False
    return not isinstance(v, bool)


def _index(v, what: str) -> int:
    """``v`` as a Python int: any integer type but bool is accepted."""
    if not _is_int(v):
        raise ValidationError(f"{what} must be an integer, got {v!r}")
    return operator.index(v)


def _complex(v, what: str) -> complex:
    """``v`` as a Python complex: any finite complex number type but bool."""
    if not isinstance(v, numbers.Complex) or isinstance(v, bool):
        raise ValidationError(f"{what} must be a complex number, got {v!r}")
    v = complex(v)
    if not cmath.isfinite(v):
        raise ValidationError(f"{what} must be finite, got {v!r}")
    return v


def _count(v, what: str) -> int:
    """``v`` as a Python int >= 1."""
    v = _index(v, what)
    if v < 1:
        raise ValidationError(f"{what} must be >= 1, got {v}")
    return v


def _sizes(n, k) -> tuple[int, int]:
    n, k = _index(n, "n"), _index(k, "k")
    if n < 1 or k < 1:
        raise ValidationError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    return n, k


# ---------------------------------------------------------------------------
# Stream seeding
#
# A stream is numpy's ``SeedSequence(seed, spawn_key=key)`` feeding PCG64,
# which asks it for ``generate_state(4, np.uint64)`` alone.  SeedSequence
# computes those words with fixed 32-bit integer arithmetic (NEP 19 keeps
# it stable).  The trials of a cell share every entropy word but their own,
# so ``_seed_states`` mixes a column of trial words, and the key words
# after it, into numpy's pool of the shared words: one pass seeds a chunk
# of trials with exactly the streams one SeedSequence per trial gives.

#: SeedSequence's hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

#: Trials of one stream: trial t enters the seeding as one 32-bit word.
_MAX_TRIALS = 2 ** 32


def _words(v: int) -> list[int]:
    """32-bit words of a non-negative int, least significant first; 0 is
    one word."""
    out = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        out.append(v & _MASK32)
    return out


def _hash(value, h: int, mult: int):
    """One SeedSequence hash step of a word (int) or of a uint32 array,
    under hash constant ``h``; returns the hash and the next constant."""
    nxt = h * mult & _MASK32
    value = (value ^ h) * nxt & _MASK32
    return value ^ (value >> _XSHIFT), nxt


def _mix(x, y):
    """SeedSequence's ``mix`` of two words or uint32 arrays."""
    value = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return value ^ (value >> _XSHIFT)


def _seed_states(seed: int, key: tuple, columns: list) -> np.ndarray:
    """PCG64 seed words: ``generate_state(4, np.uint64)`` of SeedSequences.

    SeedSequence i has spawn key ``key`` and then one word per entry of
    ``columns``: word i of the uint32 array ``columns[0]``, then the words
    (ints) after it, which they all share.  Returns one uint64 row of four
    per SeedSequence.  numpy mixes ``seed`` and ``key`` into the pool in
    ``4 W`` hash steps, W their entropy words with the seed's padded to the
    pool size; the columns go on from the hash constant it ends at.
    """
    from numpy.random import SeedSequence
    pool = [int(w) for w in SeedSequence(seed, spawn_key=key).pool]
    size = len(pool)
    words = max(size, len(_words(seed))) + sum(len(_words(i)) for i in key)
    h = _INIT_A * pow(_MULT_A, size * words, _MASK32 + 1) & _MASK32
    for value in columns:
        for dst in range(size):
            word, h = _hash(value, h, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    # generate_state: 32-bit words cycling over the pool, read as
    # little-endian pairs.
    state = np.empty((columns[0].size, 2 * size), dtype="<u4")
    h = _INIT_B
    for i in range(2 * size):
        state[:, i], h = _hash(pool[i % size], h, _MULT_B)
    return state.view("<u8").astype(np.uint64, copy=False)


class _SeedWords:
    """Seed sequence of precomputed words: PCG64's one call,
    ``generate_state(4, np.uint64)``, returns ``words``.

    ``_generators`` registers it as a numpy ``ISeedSequence`` when it first
    needs one, so importing rmpoly does not load ``numpy.random``: loaded
    at import, it raised the peak resident memory of a run by about 0.5 MB.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(states: np.ndarray):
    """Lazily, one PCG64 ``Generator`` per row of ``_seed_states``."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)  # idempotent
    return (np.random.Generator(np.random.PCG64(_SeedWords(row)))
            for row in states)


def _trial_range(lo, hi) -> tuple[int, int]:
    """``[lo, hi)`` as Python ints, a range of trials of one stream."""
    lo, hi = _index(lo, "first trial"), _index(hi, "trial bound")
    if not 0 <= lo <= hi <= _MAX_TRIALS:
        raise ValidationError(
            f"trial range [{lo}, {hi}) must satisfy 0 <= lo <= hi <= 2**32")
    return lo, hi


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: a root seed plus a spawn-key path.

    Two streams with equal ``(seed, key)`` produce identical draws; children
    with distinct paths are statistically independent.  A stream is numpy's
    ``SeedSequence(seed, spawn_key=key)`` feeding its own PCG64 state, so
    each (suite, cell, trial) has its own stream regardless of execution
    order.  ``generator`` builds exactly that; ``_trial_generators`` seeds
    a whole range of children at once from their parent's pool
    (``_seed_states``).
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        seed = _index(self.seed, "RngStream seed")
        key = tuple(_index(i, "RngStream key index") for i in self.key)
        if seed < 0 or any(i < 0 for i in key):
            raise ValidationError("RngStream seed and key must be non-negative")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "key", key)

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.key + indices)

    def generator(self) -> np.random.Generator:
        from numpy.random import PCG64, Generator, SeedSequence
        return Generator(PCG64(SeedSequence(self.seed, spawn_key=self.key)))


def _trial_generators(rng: RngStream, lo, hi, *tail: int):
    """Lazily, the generators of ``rng.child(t, *tail)`` for t in
    ``[lo, hi)``, all seeded by one ``_seed_states`` pass; the range is
    checked first.  ``tail`` holds non-negative Python ints."""
    lo, hi = _trial_range(lo, hi)
    trials = np.arange(lo, hi, dtype=np.uint32)
    return _generators(_seed_states(
        rng.seed, rng.key, [trials, *(w for i in tail for w in _words(i))]))


def _generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValidationError(
        f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _standard_complex(parts: np.ndarray, generators,
                      variance: float = 1.0) -> np.ndarray:
    """Fill ``parts[i]`` from ``generators[i]`` and return the complex view.

    ``parts`` is a C-contiguous float64 array whose last axis has length 2:
    each (re, im) pair of a row's draw is one complex128.  The whole array
    is scaled once, in place, to ``E|X|^2 = variance``.
    """
    for g, row in zip(generators, parts):
        g.standard_normal(out=row)
    parts *= np.sqrt(variance / 2.0)
    return parts.view(np.complex128)[..., 0]


def complex_gaussian(rng, shape, variance: float = 1.0) -> np.ndarray:
    """I.i.d. complex Gaussians with ``E|X|^2 = variance``.

    Real and imaginary parts are independent N(0, variance / 2).
    ``shape`` is a sequence of non-negative integers and ``variance`` a
    positive finite real.
    """
    if not (_is_number(variance) and 0 < variance < np.inf):
        raise ValidationError(
            f"variance must be a positive finite number, got {variance!r}")
    try:
        dims = tuple(_index(d, "shape dimension") for d in shape)
    except TypeError:
        raise ValidationError(
            f"shape must be a sequence of integers, got {shape!r}") from None
    if any(d < 0 for d in dims):
        raise ValidationError(
            f"shape dimensions must be non-negative, got {dims}")
    g = _generator(rng)
    return _standard_complex(np.empty((1,) + dims + (2,)), [g], variance)[0]


@dataclass(eq=False)
class MatrixPolynomial:
    """Monic matrix polynomial with square coefficients ``C_0 ... C_{k-1}``.

    The degree-k leading coefficient is the identity.  The coefficients are
    copied into one read-only ``(k, n, n)`` array, ``stack``, and
    ``coeffs`` holds its k views.  ``seed`` is provenance metadata, not
    part of the value: the sampler records the seed of a root stream, which
    alone identifies the draw, and None for any other source.
    """

    n: int
    k: int
    coeffs: tuple
    seed: int | None = field(default=None, compare=False)
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n, self.k = _sizes(self.n, self.k)
        if self.k != len(self.coeffs):
            raise ValidationError(
                f"degree k={self.k} does not match {len(self.coeffs)} "
                "coefficients")
        for j, shape in enumerate(map(np.shape, self.coeffs)):
            if shape != (self.n, self.n):
                raise ValidationError(
                    f"coefficient {j} has shape {shape}, expected "
                    f"({self.n}, {self.n})")
        stack = np.array(self.coeffs, dtype=np.complex128)
        finite = np.isfinite(stack).reshape(self.k, -1).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"coefficient {int(np.argmin(finite))} has non-finite entries")
        stack.setflags(write=False)
        self.stack = stack
        self.coeffs = tuple(stack)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and np.array_equal(self.stack, other.stack))


def _trial_draws(rng: RngStream, lo, hi, shape: tuple, *tail: int,
                 variance: float = 1.0) -> np.ndarray:
    """``(hi - lo, *shape)`` complex Gaussians of trials ``lo .. hi-1`` of
    ``rng``: row t is one flat draw of ``E|X|^2 = variance`` from
    ``rng.child(t, *tail)``, filled in place into one buffer for all the
    trials.  A row has the bits of ``complex_gaussian`` on its stream; a
    trial's coefficients are shape ``(k, n, n)``, ``C_0`` first."""
    generators = _trial_generators(rng, lo, hi, *tail)
    return _standard_complex(np.empty((hi - lo, *shape, 2)), generators,
                             variance)


def sample_monic_gaussian(n: int, k: int, rng) -> MatrixPolynomial:
    """Draw a monic polynomial with i.i.d. standard complex Gaussian entries.

    All k coefficient matrices are filled from a single flat draw in
    coefficient order ``C_0, ..., C_{k-1}``, row-major within each matrix,
    so the stream fully determines the polynomial.
    """
    n, k = _sizes(n, k)
    root = isinstance(rng, RngStream) and rng.key == ()
    coeffs = complex_gaussian(rng, (k, n, n))
    return MatrixPolynomial(n, k, coeffs, seed=rng.seed if root else None)


def evaluate(p: MatrixPolynomial, x: complex) -> np.ndarray:
    """Evaluate ``P(x)``, leading term ``I_n x^k``, by Horner's scheme."""
    x = _complex(x, "point x")
    acc = np.eye(p.n, dtype=np.complex128)
    for j in range(p.k - 1, -1, -1):
        acc = acc * x + p.coeffs[j]
    return acc


def _companion_stack(coeffs: np.ndarray) -> np.ndarray:
    """Companion matrices of a ``(T, k, n, n)`` stack of coefficients."""
    t, k, n, _ = coeffs.shape
    kn = k * n
    m = np.zeros((t, kn, kn), dtype=np.complex128)
    # Top block row -[C_{k-1} ... C_0]: block j of row i is m[:, i, j, :].
    np.negative(coeffs[:, ::-1].transpose(0, 2, 1, 3),
                out=m.reshape(t, kn, k, n)[:, :n])
    # Identity blocks below the diagonal: entry (r, r - n) for r >= n sits
    # at flat offset r (kn + 1) - n.
    m.reshape(t, kn * kn)[:, n * kn::kn + 1] = 1.0
    return m


def companion(p: MatrixPolynomial) -> np.ndarray:
    """Block companion linearization of a monic polynomial, read-only."""
    m = _companion_stack(p.stack[None])[0]
    m.setflags(write=False)
    return m


#: Entries per batch of every batched loop (512 KB of complex128): a chunk
#: of trials' companions, a stack of circulants, or Monte Carlo draws; a
#: bigger matrix is a chunk of its own.  Solving n in {4, 8, 16}, k = 2
#: cells took the same time with chunks of 2**12 to 2**18 entries.
_CHUNK_ENTRIES = 2 ** 15


def _chunks(count: int, entries: int) -> list:
    """``(lo, hi)`` ranges covering ``[0, count)`` in order, each of at most
    ``max(1, _CHUNK_ENTRIES // entries)`` items of ``entries`` entries."""
    size = max(1, _CHUNK_ENTRIES // entries)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _trial_chunk(fn, rng: RngStream, n: int, k: int, bounds: tuple):
    """``fn`` of the ``(T, k, n, n)`` coefficients of trials ``bounds``."""
    return fn(_trial_draws(rng, *bounds, (k, n, n)))


def _map_trials(fn, n: int, k: int, rng: RngStream, trials: int, mapper=map):
    """``fn`` of each chunk's fresh ``(T, k, n, n)`` coefficients, trials
    ``0 .. trials-1`` of the cell stream ``rng`` in order, through
    ``mapper``, once the range is checked.  A task is a ``functools.partial``
    of a module-level function: a process pool runs it if ``fn`` is one."""
    _trial_range(0, trials)
    task = functools.partial(_trial_chunk, fn, rng, n, k)
    return mapper(task, _chunks(trials, (k * n) ** 2))


def _circulant_stack(n: int, k: int, t: int) -> np.ndarray:
    """``t`` copies of the block circulant of ``circulant_matrix``."""
    kn = k * n
    b = np.zeros((t, kn * kn), dtype=np.complex128)
    # Down-shift identity blocks: entry (r, r - n) for r >= n, as in
    # ``_companion_stack``; the top-right block: (r, (k-1) n + r), r < n.
    b[:, n * kn::kn + 1] = 1.0
    b[:, (k - 1) * n:n * kn:kn + 1] = 1.0
    return b.reshape(t, kn, kn)


def circulant_matrix(n: int, k: int) -> np.ndarray:
    """Block circulant B: identity blocks on the down-shift and top-right."""
    n, k = _sizes(n, k)
    return _circulant_stack(n, k, 1)[0]


def circulant_b_eigenvalues(n: int, k: int) -> np.ndarray:
    """Spectrum of the block circulant: k-th roots of unity, multiplicity n."""
    n, k = _sizes(n, k)
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    return np.repeat(roots, n)


#: Shapes solved by Ehrlich-Aberth iteration: ``k >= 2n``, ``n`` at most
#: ``_ABERTH_MAX_N`` and ``kn`` at least ``_ABERTH_MIN_KN``, the smallest kn
#: of ``scripts/aberth_crossover.py`` (one BLAS thread, against building
#: the companion and running dense ``eigvals`` on it; kn a multiple of 16)
#: at which the iteration has won on every draw of every run.  As dense
#: time over Aberth time, per draw, with the first sweep by FFT, float32
#: pull terms and tile sums and one operand: kn = 48: 0.45-1.13; kn = 64:
#: 1.11-1.64; kn = 80: 2.00-4.78; kn = 96: 2.44-5.44; kn = 128: 1.98-8.99;
#: kn = 256: 6.19-21.6; n = 4, k = 512: about 70 (measured with float64
#: terms and no FFT sweep).  kn = 64 lost one draw at n = 4, k = 16 in an
#: earlier run (0.97), and every draw of that shape in another
#: (0.92-1.28); lowering the threshold would also move the outputs of
#: shapes solved dense today.  At k = 2n the sweep count grows
#: with n: 28 at n = 16, more than 60 at n = 32, k = 64, which falls back
#: to dense and loses (0.80, float64 terms).
_ABERTH_MIN_KN = 80
_ABERTH_MAX_N = 16

#: A root is converged once its Aberth correction is below this fraction
#: of ``|x| + r0`` (r0 the start radius).  Local convergence is cubic, so
#: the corrected root is then at rounding level.
_ABERTH_TOL = 1e-10

#: Sweeps allowed from one start circle before it is abandoned; the
#: shapes above need 9-31.
_ABERTH_MAX_ITER = 60

#: Largest kn at which an Ehrlich-Aberth solve that failed from both start
#: circles falls back to dense QR: the largest kn the dense route is timed
#: at (n = 32, k = 64 in ``scripts/aberth_crossover.py``).  Its companion
#: takes ``16 (kn)^2`` bytes, 4.3 GB at kn = 16384.
_FALLBACK_MAX_KN = 2048

#: Points per block of ``_newton``: its power table holds
#: ``_ABERTH_BLOCK * (k + 1)`` entries, one product turns it into the
#: block's ``n x n`` values and derivatives, ``_ABERTH_BLOCK * 2 n^2``
#: entries, and these are solved before the next block is formed.  The
#: block keeps a fixed row count because zgemm's blocking, and with it the
#: last bits of ``P(x)``, follows the row count.
_ABERTH_BLOCK = 256

#: Side of the square tiles of a float64 Aberth pull: a tile of r active
#: rows spans ``max(_ABERTH_TILE**2, kn) // r`` roots, and its four float64
#: temporaries hold ``4 * _ABERTH_TILE**2`` entries (512 KB) up to
#: kn = 16384.  Float32 tiles keep the bytes, so their side is
#: ``isqrt(2 * _ABERTH_TILE**2)`` = 181; their row and column sums are
#: float32 too, so one of those sums adds at most ``max(181**2, kn)`` terms
#: along a row and 181 down a column.  A tile never holds less than one
#: row's kn entries: the solve keeps O(kn) vectors anyway, and narrower
#: tiles add only loop turns.
_ABERTH_TILE = 128


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """``(x.size, k + 1)`` table of ``x^0 .. x^k``, built blockwise.

    With ``b = ceil(sqrt(k + 1))``, two short cumulative products give
    ``x^0 .. x^{b-1}`` and ``x^0, x^b, x^{2b}, ...``, and one broadcast
    product gives ``x^{qb + r} = x^{qb} x^r``, so each power takes at most
    about ``2 sqrt(k + 1)`` roundings instead of the k of one sequential
    product.  The table is built power-major and returned as its
    transposed view, which matrix products take without a copy.
    """
    b = int(np.ceil(np.sqrt(k + 1)))
    q = -(-(k + 1) // b)
    low = np.empty((b, x.size), dtype=np.complex128)
    low[0] = 1.0
    low[1:] = x
    np.cumprod(low[1:], axis=0, out=low[1:])
    high = np.empty((q, x.size), dtype=np.complex128)
    high[0] = 1.0
    high[1:] = low[-1] * x
    np.cumprod(high[1:], axis=0, out=high[1:])
    table = np.empty((q, b, x.size), dtype=np.complex128)
    np.multiply(high[:, None], low, out=table)
    return table.reshape(q * b, x.size)[:k + 1].T


def _value_slope_operand(stack: np.ndarray) -> np.ndarray:
    """``(k + 1, 2, n, n)`` operand ``[C_j | j C_j]`` of
    ``P = sum_j stack[j] x^j``, so that row j of its flattened
    ``(k + 1, 2 n^2)`` form multiplies ``x^j`` in both ``P`` and
    ``x P'``."""
    both = np.empty((len(stack), 2) + stack.shape[1:], dtype=np.complex128)
    both[:, 0] = stack
    both[:, 1] = np.arange(len(stack))[:, None, None] * stack
    return both


def _newton(both: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton correction ``x / tr(P(x)^{-1} x P'(x))`` of ``det P`` at
    every point of ``x``, by matrix products.

    ``both`` is ``_value_slope_operand`` of P.  Per block of
    ``_ABERTH_BLOCK`` points the powers ``z^0 .. z^k`` form one table V
    (``_powers``), and one matrix product of V against the flattened
    operand gives ``P`` and ``x P'`` together.  Points with ``|x| <= 1``
    take ``z = x``; the others take ``z = 1 / x`` against the operand's
    rows reversed (a transient copy), which gives ``x^{-k} [P | x P']``:
    the trace is the same and no power exceeds 1 in modulus, so the
    rounding error is of the order of Horner's.  The block's ``n x n``
    solves follow at once: the working set is one block's table, values
    and derivatives, whatever ``x.size`` is.
    """
    k, n = both.shape[0] - 1, both.shape[2]
    flat = both.reshape(k + 1, 2 * n * n)
    outer = np.abs(x) > 1.0
    z = x.copy()
    z[outer] = 1.0 / x[outer]
    newton = np.empty(x.size, dtype=np.complex128)
    for side, rows in ((~outer, flat), (outer, flat[::-1].copy())):
        xs, zs = x[side], z[side]
        part = np.empty(xs.size, dtype=np.complex128)
        for lo in range(0, xs.size, _ABERTH_BLOCK):
            block = slice(lo, lo + _ABERTH_BLOCK)
            part[block] = _solve_newton(_powers(zs[block], k) @ rows,
                                        xs[block])
        newton[side] = part
    return newton


def _solve_newton(vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x / tr(P^{-1} x P')`` of each row of ``vals``, the flattened
    ``P`` and ``x P'`` (``n^2`` entries each, up to one common factor) at
    point x, by one stacked solve.  Where ``P`` is exactly singular the
    trace is infinite and the correction 0; at ``x = 0`` with ``P(0)``
    nonsingular it is 0/0, a non-finite step."""
    nn = vals.shape[1] // 2
    n = math.isqrt(nn)
    val = vals[:, :nn].reshape(-1, n, n)
    der = vals[:, nn:].reshape(-1, n, n)
    trace = np.full(len(vals), np.inf, dtype=np.complex128)
    try:
        trace[:] = np.einsum("mii->m", np.linalg.solve(val, der))
    except np.linalg.LinAlgError:
        for i in range(len(vals)):
            try:
                trace[i] = np.trace(np.linalg.solve(val[i], der[i]))
            except np.linalg.LinAlgError:
                pass
    return x / trace


def _circle_newton(both: np.ndarray, x: np.ndarray,
                   radius: float) -> np.ndarray:
    """``_newton`` at the kn start points ``x``, by FFT.

    ``x_j = radius * exp(2 pi i (j + phase) / kn)`` for any phase: point
    ``r + n l`` of residue class ``r < n`` is ``x_r w^l``, w the k-th root
    of unity ``exp(2 pi i / k)``.  With ``G_m`` the operand's row m scaled
    by ``x_r^m``, ``[P | x P'](x_r w^l) = sum_{m<k} G_m w^{lm}``: one
    length-k DFT per class (an unscaled inverse FFT), once row k is folded
    onto row 0, since ``w^k = 1`` (at n = 1 the fold is the leading
    ``C_k = I``).  As in ``_newton``, a radius above 1 takes the operand's
    rows reversed at ``y = 1 / x``, which lies on the circle of radius
    ``1 / radius`` with point ``r + n l`` at ``y_r w^{-l}`` (a forward
    FFT); so no power exceeds 1 in modulus.  The working set is one class,
    a ``(k, 2 n^2)`` array like the operand.
    """
    from numpy import fft
    k, n = both.shape[0] - 1, both.shape[2]
    inner = radius <= 1.0
    rows = both.reshape(k + 1, 2 * n * n)
    rows, z = (rows, x[:n]) if inner else (rows[::-1], 1.0 / x[:n])
    powers = _powers(z, k)
    newton = np.empty(k * n, dtype=np.complex128)
    for r in range(n):
        g = rows[:k] * powers[r, :k, None]
        g[0] += rows[k] * powers[r, k]
        g = (fft.ifft(g, axis=0, norm="forward") if inner
             else fft.fft(g, axis=0))
        newton[r::n] = _solve_newton(g, x[r::n])
    return newton


def _aberth_pull(x: np.ndarray, idx: np.ndarray,
                 dtype=np.float64) -> np.ndarray:
    """``sum_{j != i} 1 / (x_i - x_j)`` for each root ``i = idx[..]``.

    ``idx`` lists the active roots; the others are frozen.  Since
    ``1 / (x_j - x_i) = -1 / (x_i - x_j)``, each pair of active roots is
    formed once: a block of active rows meets the active roots after it,
    whose column sums are subtracted from their pulls, and the frozen
    roots, whose pulls are not needed.  A term is formed in real arithmetic
    as ``conj(d) / |d|^2``, with the positions, ``d``, ``1 / |d|^2`` and a
    tile's row and column sums in ``dtype``: the sums are BLAS products
    with a vector of ones, which need no cast of the terms, and they
    accumulate across tiles in float64, so the tiling moves the result at
    ``dtype`` summation level.  Two roots closer than about
    1e-154 (4e-23 in float32), or equal once rounded to ``dtype``, give a
    non-finite pull; two farther apart than about 1e154 (2e19) give a zero
    term.  Rows and columns are taken in tiles of at most
    ``max(side**2, x.size)`` entries, with ``side`` the tile side whose
    four temporaries take the bytes of ``_ABERTH_TILE**2`` float64 ones.
    """
    m = idx.size
    if m < x.size:
        frozen = np.ones(x.size, dtype=bool)
        frozen[idx] = False
        x = np.concatenate((x[idx], x[frozen]))
    xr, xi = x.real.astype(dtype), x.imag.astype(dtype)
    side = math.isqrt(_ABERTH_TILE ** 2 * 8 // np.dtype(dtype).itemsize)
    area = max(side ** 2, x.size)
    size = min(area, min(m, side) * x.size)
    parts = np.empty((2, size), dtype)
    sq, tmp = np.empty(size, dtype), np.empty(size, dtype)
    ones = np.ones(x.size, dtype)
    pull = np.zeros((2, m))
    for lo in range(0, m, side):
        hi = min(lo + side, m)
        rows = hi - lo
        width = area // rows
        for c0 in range(lo, x.size, width):
            c1 = min(c0 + width, x.size)
            w = c1 - c0
            # d = x_i - x_j as real and imaginary parts, and 1 / |d|^2.
            d = parts[:, :rows * w].reshape(2, rows, w)
            s = sq[:rows * w].reshape(rows, w)
            np.subtract(xr[lo:hi, None], xr[c0:c1], out=d[0])
            np.subtract(xi[lo:hi, None], xi[c0:c1], out=d[1])
            np.multiply(d[0], d[0], out=s)
            s += np.multiply(d[1], d[1], out=tmp[:rows * w].reshape(rows, w))
            if c0 == lo:
                # The tile starts with the block's own square: 1/d_ii = 0.
                np.fill_diagonal(s, np.inf)
            np.divide(1.0, s, out=s)
            d *= s
            pull[:, lo:hi] += d @ ones[:w]
            later, end = max(c0, hi), min(c1, m)
            if later < end:
                cols = d[:, :, later - c0:end - c0]
                pull[:, later:end] -= ones[:rows] @ cols
    return pull[0] - 1j * pull[1]


def _aberth_eigenvalues(coeffs: np.ndarray) -> np.ndarray | None:
    """Roots of ``det P``, given ``(k, n, n)`` coefficients, by Ehrlich-Aberth.

    [Bini & Noferini, LAA 439 (2013) 1130-1149].  The Newton correction of
    root x is ``x / tr(P(x)^{-1} x P'(x))``, from one operand
    ``[C_j | j C_j]`` built once per solve: against ``x^j`` it gives
    ``[P | x P']``, and for ``|x| > 1`` its rows reversed against the
    powers of ``1/x`` give ``x^{-k} [P | x P']``, whose trace is the same.
    The sweeps start on the circle of radius ``|det C_0|^{1/kn}`` at phase
    0.25 (``_aberth_from_circle``) and, if that fails, once more at phase
    0.75, half a point spacing on.  Returns None when both fail.
    """
    k, n = coeffs.shape[:2]
    # Built once per solve; the operand alone keeps the coefficients.
    both = _value_slope_operand(np.concatenate((coeffs, np.eye(n)[None])))
    sign, logdet = np.linalg.slogdet(coeffs[0])
    radius = float(np.exp(logdet / (k * n))) if sign != 0 else 1.0
    for phase in (0.25, 0.75):
        lam = _aberth_from_circle(coeffs, both, radius, phase)
        if lam is not None:
            return lam
    return None


def _aberth_from_circle(coeffs: np.ndarray, both: np.ndarray, radius: float,
                        phase: float) -> np.ndarray | None:
    """The sweeps of ``_aberth_eigenvalues`` from the kn start points
    ``radius * exp(2 pi i (j + phase) / kn)``, with ``both`` its operand.

    The start points are the roots of ``x^kn = c``, so the first sweep
    costs no pull, which is exactly ``(kn - 1) / 2x``, and its P and x P'
    come from one length-k FFT per residue class of the points mod n
    (``_circle_newton``).  Every later sweep evaluates them by ``_newton``
    and forms its pull ``sum_j 1/(x_i - x_j)`` by ``_aberth_pull``, each in
    fixed blocks or tiles, so apart from O(kn) vectors the working set does
    not grow with kn.  The pull's terms and its sums within a tile are
    float32.  An error e in the pull changes a step ``N / (1 - N pull)``, N
    the Newton correction, by about ``N^2 e``, which vanishes as N does;
    the stopping test and N are float64, so the roots are the float64
    iteration's at rounding level, as a set: a start point may reach
    another root than under a float64 pull.  A sweep whose float32 pull is
    non-finite (two roots equal once rounded to float32, or |x| past its
    range) redoes it in float64.  Returns None when a step is non-finite,
    when the sweeps run out, or when the roots break the trace identity
    ``sum(lam) = -tr(C_{k-1})`` (which a duplicated root does).
    """
    kn = coeffs.shape[0] * coeffs.shape[1]
    x = radius * np.exp(2j * np.pi * (np.arange(kn) + phase) / kn)
    active = np.ones(kn, dtype=bool)
    with np.errstate(all="ignore"):
        for sweep in range(_ABERTH_MAX_ITER):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            xa = x[idx]
            if sweep == 0:
                newton = _circle_newton(both, x, radius)
                # The roots of x^kn = c pull each other by (kn - 1) / 2x.
                pull = (kn - 1) / (2.0 * x)
            else:
                newton = _newton(both, xa)
                pull = _aberth_pull(x, idx, np.float32)
                if not np.all(np.isfinite(pull)):
                    pull = _aberth_pull(x, idx)
            step = newton / (1.0 - newton * pull)
            if not np.all(np.isfinite(step)):
                return None
            x[idx] = xa - step
            done = np.abs(step) <= _ABERTH_TOL * (np.abs(xa) + radius)
            active[idx[done]] = False
    if active.any():
        return None
    if not _trace_gap(coeffs, x) <= 100.0 * kn * EPS * np.abs(x).sum():
        return None
    return x


def _trace_gap(coeffs: np.ndarray, lam: np.ndarray) -> float:
    return float(abs(np.sum(lam) + np.trace(coeffs[-1])))


def trace_error(p: MatrixPolynomial, lam: np.ndarray) -> float:
    """``|sum(lam) + tr(C_{k-1})|``: zero for the exact spectrum of monic P.

    It costs O(kn) and catches a duplicated or lost root, which keeps the
    root count and moves the sum by about one root's size.  Rounding makes
    it a small multiple of ``kn * eps * sum|lam|``.
    """
    return _trace_gap(p.stack, lam)


def backward_error(p: MatrixPolynomial, lam) -> np.ndarray:
    """Normwise backward error of each point of ``lam`` as an eigenvalue.

    ``sigma_min(P(lam)) / sum_j |lam|^j ||C_j||_2`` with ``C_k = I``
    [Tisseur, LAA 309 (2000) 339-361]: the smallest relative perturbation
    of the coefficients that makes ``lam`` an exact eigenvalue.  Each point
    costs one n x n SVD.
    """
    weights = [spectral_norm(c) for c in p.coeffs] + [1.0]
    lam = np.ravel(lam)
    out = np.empty(lam.size)
    for i, z in enumerate(lam):
        denom = sum(w * abs(z) ** j for j, w in enumerate(weights))
        out[i] = singular_values(evaluate(p, z))[-1] / denom
    return out


def finite_eigenvalues(p: MatrixPolynomial) -> np.ndarray:
    """The kn finite eigenvalues of P, as an unordered 1-D array: the
    one-trial case of ``trial_eigenvalues``."""
    return trial_eigenvalues(p.stack[None])[0]


def trial_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    """Finite eigenvalues of a ``(T, k, n, n)`` stack of monic coefficients.

    The one solver dispatch: row t of the ``(T, kn)`` result is trial t's
    spectrum, with the same bits whatever the other trials are.
    Degree-dominated shapes use Ehrlich-Aberth iteration on ``det P``,
    trial by trial, from two start circles in turn.  A trial that fails
    its self-check (no convergence within ``_ABERTH_MAX_ITER`` sweeps, a
    non-finite root, or the trace identity broken) from both alone falls
    back to the dense route, or raises ``NumericalError`` above
    ``_FALLBACK_MAX_KN``.  Every other shape is dense: one stacked
    ``eigenvalues`` call on the ``(T, kn, kn)`` companion matrices, so
    callers bound T to bound memory.  An empty stack is a
    ``ValidationError`` on either route.
    """
    if coeffs.ndim != 4 or coeffs.size == 0:
        raise ValidationError(
            f"expected a non-empty (T, k, n, n) stack, got {coeffs.shape}")
    k, n = coeffs.shape[1:3]
    if not (k >= 2 * n and n <= _ABERTH_MAX_N and k * n >= _ABERTH_MIN_KN):
        return eigenvalues(_companion_stack(coeffs))
    rows = [_aberth_eigenvalues(c) for c in coeffs]
    for t in [t for t, lam in enumerate(rows) if lam is None]:
        if k * n > _FALLBACK_MAX_KN:
            raise NumericalError(
                f"Ehrlich-Aberth failed on trial {t} of its stack (n={n}, "
                f"k={k}) from two start circles, and a dense solve at "
                f"kn={k * n} > {_FALLBACK_MAX_KN} is not attempted")
        rows[t] = eigenvalues(_companion_stack(coeffs[t:t + 1]))[0]
    return np.stack(rows)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"n": int, "k": int, "seed": int|null,
#          "coeffs": [[[re, im], ...], ...]}
# with one row-major [re, im] list per coefficient, C_0 first.


def polynomial_to_json(p: MatrixPolynomial) -> str:
    coeffs = [[[float(z.real), float(z.imag)] for z in c.ravel()]
              for c in p.coeffs]
    doc = {"n": p.n, "k": p.k, "seed": p.seed, "coeffs": coeffs}
    return json.dumps(doc, indent=2) + "\n"


def _is_number(v) -> bool:
    """Any real number type but bool: Python and numpy reals pass."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_pair(v) -> bool:
    """A JSON ``[re, im]`` pair of numbers."""
    return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))


def polynomial_from_json(text: str) -> MatrixPolynomial:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid polynomial JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("polynomial JSON must be an object")
    try:
        n, k, raw = doc["n"], doc["k"], doc["coeffs"]
    except KeyError as exc:
        raise ValidationError(f"polynomial JSON missing field: {exc}") from exc
    seed = doc.get("seed")
    for name, value in (("n", n), ("k", k)):
        if not _is_int(value) or value < 1:
            raise ValidationError(
                f"polynomial JSON {name!r} must be a positive integer, "
                f"got {value!r}")
    if seed is not None and not _is_int(seed):
        raise ValidationError(
            f"polynomial JSON 'seed' must be an integer or null, got {seed!r}")
    if not isinstance(raw, list) or len(raw) != k:
        raise ValidationError(
            f"polynomial JSON 'coeffs' must be a list of k={k} coefficients")
    coeffs = []
    for j, flat in enumerate(raw):
        if not isinstance(flat, list) or len(flat) != n * n:
            raise ValidationError(
                f"coefficient {j} must be a list of {n * n} entries")
        if not all(map(_is_pair, flat)):
            raise ValidationError(
                f"coefficient {j} entries must be [re, im] number pairs")
        arr = np.array([complex(re, im) for re, im in flat],
                       dtype=np.complex128).reshape(n, n)
        coeffs.append(arr)
    return MatrixPolynomial(n, k, tuple(coeffs), seed=seed)
