"""Stochastic perturbation steps and expected conjugate forces.

The matrix walks as M(t_i + dt) = M(t_i) + dt * P(t_i) with P drawn from
independent centered normals, every entry (full) or the diagonal ones.
For a real matrix with a complex eigenvalue lambda_j, the expected
pairwise force from its conjugate is -i sum_{m,l} E[p_ml^2] |u_j^m|^2
|v_j^l|^2 / (2 Im lambda_j): :func:`expected_force_columns`.

A Monte Carlo estimate of that force runs on every usable core: sample i
is a pure function of (seed, i), so forked workers fill disjoint index
ranges of one shared buffer, and the reduction over it in index order
gives the serial estimate bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
import signal
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import SpectralDecomposition, as_square_matrix
from .dynamics import _check_index, pairwise_conjugate_summand
from . import core
from .errors import EigendynError, EmptyEstimate, RealEigenvalue

__all__ = [
    "PerturbationProcess",
    "MonteCarloEstimate",
    "expected_force_columns",
    "expected_conjugate_force_iid",
    "monte_carlo_conjugate_force",
]

# Sample i draws from np.random.default_rng(SeedSequence(seed, spawn_key=(i,))).
# numpy's SeedSequence costs more than the draws, so its hash
# (numpy/random/bit_generator.pyx) runs here over a block of indices at
# once, and numpy's PCG64 is seeded from the hashed words of each index.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# a power of two below 2**32: a block never straddles a change in the
# number of uint32 words of its indices
_BLOCK = 4096
# Python >= 3.12 warns on any fork from a process with threads
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, "
                 r"use of fork\(\) may lead to deadlocks")
# |Im lambda| at or below which an eigenvalue is self-paired (real)
_PAIR_TOL = 1e-9


def _words(x: int) -> list:
    """``x`` >= 0 as SeedSequence splits an int: little-endian uint32 words."""
    return [x >> shift & _MASK32 for shift in range(0, max(x.bit_length(), 1), 32)]


def _hash(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's hashmix (``mult`` = _MULT_A) or of its
    generate_state (_MULT_B); returns the hashed words and the next constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> 16), hash_const


@lru_cache(maxsize=8)
def _block_seeds(seed: int, block: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for the ``_BLOCK`` indices i of ``block``: a read-only (_BLOCK, 4)
    uint64 array."""
    pool = [np.full(_BLOCK, w, dtype=np.uint32)
            for w in np.random.SeedSequence(seed).pool]
    # the spawn key follows the seed padded to at least the 4 pool words:
    # 4 hashmix calls fill the pool, 12 mix it, 4 per further seed word
    hash_const = _INIT_A * pow(_MULT_A, 4 * max(4, len(_words(seed))), 1 << 32) & _MASK32
    for k, word in enumerate(_words(block * _BLOCK)):
        value = np.full(_BLOCK, word, dtype=np.uint32)
        if k == 0:
            value += np.arange(_BLOCK, dtype=np.uint32)
        for dst in range(4):
            hashed, hash_const = _hash(value, hash_const, _MULT_A)
            mixed = pool[dst] * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
            pool[dst] = mixed ^ (mixed >> 16)
    # generate_state: 8 uint32 words cycling over the pool, read in pairs
    # as little-endian uint64
    out = np.empty((_BLOCK, 8), dtype="<u4")
    hash_const = _INIT_B
    for k in range(8):
        out[:, k], hash_const = _hash(pool[k % 4], hash_const, _MULT_B)
    seeds = out.view("<u8").astype(np.uint64)
    seeds.setflags(write=False)
    return seeds


class _SeedWords(ISeedSequence):
    """The four uint64 words PCG64 asks its SeedSequence for, hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


@dataclass(frozen=True)
class PerturbationProcess:
    """Seeded Gaussian perturbation source.

    kind    "diagonal" (off-diagonals zero) or "full"
    sigma2  common entry variance
    seed    non-negative integer master seed; sample i draws from
            default_rng(SeedSequence(seed, spawn_key=(i,))), so it is a
            pure function of (seed, i) and replays byte-identically
    """

    kind: str = "diagonal"
    sigma2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("diagonal", "full"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def sample(self, n: int, index: int) -> np.ndarray:
        """Draw the perturbation matrix P for sample ``index``, a
        non-negative integer.  Its generator is
        ``default_rng(SeedSequence(seed, spawn_key=(index,)))``, made anew
        for each draw: an independent substream per index, so worker count
        cannot change the draw."""
        # a float or a string raises TypeError here; a bool is an int
        i = operator.index(index)
        if i < 0 or isinstance(index, bool):
            raise ValueError(f"sample index must be a non-negative integer, "
                             f"got {index!r}")
        block, offset = divmod(i, _BLOCK)
        rng = np.random.Generator(np.random.PCG64(
            _SeedWords(_block_seeds(int(self.seed), block)[offset])))
        scale = np.sqrt(self.sigma2)
        if self.kind == "diagonal":
            p = np.zeros((n, n))
            p.reshape(-1)[:: n + 1] = rng.standard_normal(n) * scale
            return p
        return rng.standard_normal((n, n)) * scale


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with componentwise standard error (Re and Im)."""

    mean: complex
    standard_error_re: float
    standard_error_im: float
    samples: int

    @property
    def standard_error(self) -> float:
        return max(self.standard_error_re, self.standard_error_im)


def expected_force_columns(left, right, eigenvalues, cols, sigma2: float,
                           kind: str = "full") -> np.ndarray:
    """Closed-form E[F(conj(lambda_j) -> lambda_j)] of the eigenvalues
    ``cols`` for i.i.d. N(0, sigma2) entries of Mdot, all of them
    (kind="full") or the diagonal ones ("diagonal"): -i sigma2 ||u_j||^2
    ||v_j||^2 or -i sigma2 sum_m |u_j^m|^2 |v_j^m|^2, over 2 Im lambda_j,
    and NaN where Im lambda_j = 0.  Takes a leading step axis as
    :func:`~eigendyn.dynamics.force_columns` does.  u_j and v_j are
    reduced as contiguous rows and the quotient is real until the final
    -i, so a column has the same bits in a stack as alone."""
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    if kind not in ("full", "diagonal"):
        raise ValueError(f"unknown kind {kind!r}")
    w = np.asarray(eigenvalues)
    cols = np.broadcast_to(np.asarray(cols, dtype=int),
                           w.shape[:-1] + np.shape(cols)[-1:])
    # |u_j^m|^2 and |v_j^m|^2 as contiguous (..., k, n) rows
    u2, v2 = (np.ascontiguousarray(np.abs(np.take_along_axis(
        np.swapaxes(x, -1, -2), cols[..., None], axis=-2)) ** 2) for x in (left, right))
    total = (sigma2 * u2.sum(axis=-1) * v2.sum(axis=-1) if kind == "full"
             else sigma2 * (u2 * v2).sum(axis=-1))
    im = np.take_along_axis(w, cols, axis=-1).imag
    force = np.full(cols.shape, complex(np.nan, np.nan))
    off = im != 0
    force.real[off] = np.copysign(0.0, im[off])  # as a complex quotient signs it
    force.imag[off] = -(total[off] / (2.0 * im[off]))
    return force


def expected_conjugate_force_iid(d: SpectralDecomposition, sigma2: float, j: int,
                                 kind: str = "full") -> complex:
    """:func:`expected_force_columns` of the one eigenvalue j.  Raises
    RealEigenvalue when Im lambda_j = 0."""
    j = _check_index(d.n, j)
    force = expected_force_columns(d.left, d.right, d.eigenvalues, [j], sigma2, kind)
    if d.eigenvalues[j].imag == 0.0:
        raise RealEigenvalue(f"lambda_{j} = {d.eigenvalues[j]} is real: "
                             "expected force singular")
    return complex(force[0])


def _fill(vals: np.ndarray, start: int, stop: int, d, pairing, proc, j) -> None:
    """``vals[i]``: the conjugate summand of sample i, for start <= i < stop."""
    for i in range(start, stop):
        vals[i] = pairwise_conjugate_summand(d, pairing, proc.sample(d.n, i), j)


def _workers(samples: int) -> int:
    """Processes to share ``samples`` among: one per usable core, each with
    at least one whole block of indices.  One in a process that cannot
    fork, runs other Python threads, or is itself a multiprocessing
    worker, so that a pool of estimates never multiplies its processes."""
    most = samples // _BLOCK
    if most < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    import multiprocessing  # only an estimate that may fork pays for it
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cores = os.cpu_count() or 1
    return min(cores, most)


def _fill_forked(samples: int, workers: int, *args) -> np.ndarray:
    """The ``samples`` summands, filled by this process and up to
    workers - 1 forked children.  Each writes a contiguous range of whole
    blocks of one shared anonymous mapping; this process takes the first
    range (all of them for one worker) and every range it could not fork a
    child for.  It waits for each child in turn; when its own ranges, a
    wait or a child fail, the children not yet reaped are killed and
    reaped before the exception goes on."""
    import mmap

    vals = np.frombuffer(mmap.mmap(-1, samples * np.dtype(complex).itemsize),
                         dtype=complex)
    blocks = -(-samples // _BLOCK)
    edges = [min(samples, k * blocks // workers * _BLOCK) for k in range(workers + 1)]
    children = {}
    rest = samples  # the start of the ranges no child took
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            try:
                with warnings.catch_warnings():
                    # the threads are OpenBLAS's pool, which its atfork
                    # handler stops; no other Python thread runs (_workers),
                    # and the child only runs the sample loop and leaves by
                    # os._exit
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
            except OSError:  # out of processes or memory: fill the rest here
                rest = start
                break
            if pid == 0:
                code = 1
                try:
                    _fill(vals, start, stop, *args)
                    code = 0
                except KeyboardInterrupt:
                    pass  # the caller reports the interrupt
                except BaseException:
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(code)
            children[pid] = (start, stop)
        _fill(vals, edges[0], edges[1], *args)
        _fill(vals, rest, samples, *args)
        for pid, (start, stop) in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                raise EigendynError(
                    f"Monte Carlo worker for samples [{start}, {stop}) ended "
                    f"with exit code {os.waitstatus_to_exitcode(status)}")
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return vals


def monte_carlo_conjugate_force(m, proc: PerturbationProcess, j: int,
                                samples: int) -> MonteCarloEstimate:
    """Monte Carlo mean of the pairwise conjugate summand with Mdot = P.

    The integrand is the undoubled pairwise force (half the conjugate
    term of the acceleration), matching the closed-form expectations.
    Deterministic given (proc.seed, samples); the reduction runs in
    sample-index order.

    From 2 * 4096 samples on, the samples are shared among
    min(usable cores, samples // 4096) processes: this one and children
    forked after the decomposition, each filling a contiguous range of
    whole 4096-index blocks.  The estimate is the same bit for bit for
    any number of them.  It stays in this process on one usable core,
    without ``os.fork``, beside other Python threads and inside a
    multiprocessing worker.  When ``os.fork`` fails, this process fills the
    ranges no child took.  A child that fails raises EigendynError naming
    its index range; an interrupted call kills and reaps its children.
    """
    m = as_square_matrix(m)
    j = _check_index(m.shape[0], j)
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples <= 0:
        raise EmptyEstimate("samples must be positive")
    samples = int(samples)
    d = core.decompose(m)
    pairing = core.pair_conjugates(d, _PAIR_TOL)
    # d and j are fixed: a real or self-paired j is singular on every sample
    if pairing.partner[j] == j:
        raise RealEigenvalue(f"lambda_{j} = {d.eigenvalues[j]} is self-paired "
                             f"(|Im| <= {_PAIR_TOL}): expected force singular")

    vals = _fill_forked(samples, _workers(samples), d, pairing, proc, j)
    mean = complex(vals.mean())
    if samples > 1:
        se_re = float(vals.real.std(ddof=1) / np.sqrt(samples))
        se_im = float(vals.imag.std(ddof=1) / np.sqrt(samples))
    else:
        se_re = se_im = 0.0
    return MonteCarloEstimate(mean, se_re, se_im, samples=samples)
