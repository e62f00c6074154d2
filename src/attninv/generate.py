"""Deterministic instance generation.

All randomness flows through SplitMix64 so that any reimplementation can
reproduce instances bit-for-bit from the seed alone.
"""
from __future__ import annotations

import numpy as np

from .model import ProblemSpec, synthesize_target

_MASK = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit generator with the update rule

        state <- (state + 0x9E3779B97F4A7C15) mod 2^64
        z <- state
        z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        output <- z XOR (z >> 31)

    Doubles in [0, 1) take the top 53 output bits: (output >> 11) * 2^-53.
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _INCREMENT) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def random_matrix(gen: SplitMix64, rows: int, cols: int,
                  lo: float = -0.5, hi: float = 0.5) -> np.ndarray:
    """Fill row-major: entry (0,0), (0,1), ... , (rows-1, cols-1).

    The k = rows*cols draws are gen.uniform's, bit for bit, taken at once:
    draw i mixes state + (i + 1) * increment on uint64 arrays, whose
    arithmetic wraps mod 2^64 silently, and gen advances k steps.
    """
    k = rows * cols
    z = (np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_INCREMENT)
         + np.uint64(gen.state))
    gen.state = (gen.state + k * _INCREMENT) & _MASK
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return (lo + (hi - lo) * ((z >> 11).astype(float) * 2.0**-53)).reshape(rows, cols)


def rescale_spectral(M: np.ndarray, limit: float) -> np.ndarray:
    """Scale M down so its spectral norm is at most limit."""
    if not 0.0 < limit < float("inf"):
        raise ValueError(f"limit must be finite and positive, got {limit!r}")
    s = np.linalg.norm(M, 2)
    if s > limit:
        return M * (limit / s)
    return M


def make_instance(seed: int, n: int, d: int,
                  r_target: float = 1.2) -> tuple[ProblemSpec, np.ndarray]:
    """Synthesized recovery instance: returns (spec, X_true).

    Draw order is fixed (X_true, then W, then V, each row-major); every
    matrix is rescaled to spectral norm <= r_target, then B is set to the
    model output at X_true.
    """
    gen = SplitMix64(seed)
    X_true = rescale_spectral(random_matrix(gen, d, n), r_target)
    W = rescale_spectral(random_matrix(gen, d, d), r_target)
    V = rescale_spectral(random_matrix(gen, d, d), r_target)
    return synthesize_target(W, V, X_true), X_true


def bounded_instance(seed: int, n: int, d: int,
                     r_target: float = 1.2) -> tuple[ProblemSpec, np.ndarray]:
    """(spec, X) with independently drawn B (not realizable), bounded per
    the generator defaults: spectral norms <= r_target, |b| <= r_target^2."""
    gen = SplitMix64(seed)
    X = rescale_spectral(random_matrix(gen, d, n), r_target)
    W = rescale_spectral(random_matrix(gen, d, d), r_target)
    V = rescale_spectral(random_matrix(gen, d, d), r_target)
    B = random_matrix(gen, n, d, -(r_target ** 2), r_target ** 2)
    return ProblemSpec(n, d, W, V, B, 0.0), X


def perturbed_start(x_true: np.ndarray, radius: float, seed: int) -> np.ndarray:
    """X_true plus a seeded random direction of Frobenius norm radius: the
    first row-major draw of norm above 1e-12, scaled to unit norm."""
    d, n = x_true.shape
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return x_true.copy()
    gen = SplitMix64(seed)
    while True:
        M = random_matrix(gen, d, n)
        norm = np.linalg.norm(M)
        if norm > 1e-12:
            return x_true + radius * (M / norm)
