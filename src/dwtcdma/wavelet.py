"""Multilevel discrete wavelet analysis/synthesis with periodic boundary
handling for the Haar, Daubechies-2 and biorthogonal-2.2 families.

Conventions: a filter is a tap array f plus an origin o, occupying
positions o..o+len(f)-1.  One level on a block of even length n is the
(n/2, n) matrix M_f whose row k holds f[t] at column (2k + o + t) mod n,
so analysis computes c = x M_f^T for each analysis filter and synthesis
accumulates x = c_lo M_lo + c_hi M_hi over the synthesis filters.  With
filters satisfying the shift-by-two biorthogonality identities on the
integers, periodization keeps the cascade exactly invertible at every
even length, so no prefix/suffix extension is ever needed.  Coefficient
layout of a full transform is
[deepest approximation | deepest detail | ... | first-level detail].

Transforms are real-linear: real input stays real, and complex data is
transformed componentwise.
Filter coefficients are validated at construction against their defining
constraints (normalization, orthonormality, vanishing moments, perfect
reconstruction), so a bank that builds is self-certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .spreading import _check_integer

FAMILY_TOKENS = ("haar", "db2", "bior22")


@dataclass(frozen=True)
class WaveletSpec:
    """Transform configuration: family token and cascade depth.  Every
    transform runs on the system's one block of block_size points."""

    block_size: ClassVar[int] = 256
    family: str = "haar"
    levels: int = 8

    def __post_init__(self):
        if self.family not in FAMILY_TOKENS:
            raise ValueError(f"unknown wavelet family {self.family!r} (choose from {FAMILY_TOKENS})")
        _check_integer("levels", self.levels)
        # A level halves the block, so a block of 2^d points allows d levels.
        depth = self.block_size.bit_length() - 1
        if not 1 <= self.levels <= depth:
            raise ValueError(f"levels must be in 1..{depth} for a {self.block_size}-point "
                             f"block, got {self.levels}")


@dataclass(frozen=True, eq=False)
class Filter:
    taps: np.ndarray
    origin: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Analysis and synthesis filters of one wavelet family.

    orthonormal records that one periodized analysis level is an
    orthogonal matrix, so that synthesis, its inverse, is its transpose
    and every cascade of the bank is orthogonal; _validate_bank certifies
    it.  The
    link relies on it: over such a bank and orthogonal codes the channel
    is the identity (see link.channel_operators).
    """

    family: str
    analysis_lowpass: Filter
    analysis_highpass: Filter
    synthesis_lowpass: Filter
    synthesis_highpass: Filter
    orthonormal: bool


def _orthonormal_bank(family: str, lowpass: np.ndarray) -> FilterBank:
    # Alternating-flip highpass; synthesis reuses the analysis filters
    # because the periodized analysis operator is orthogonal.
    n = len(lowpass)
    highpass = np.array([(-1) ** t * lowpass[n - 1 - t] for t in range(n)])
    lp = Filter(lowpass, 0)
    hp = Filter(highpass, 0)
    return FilterBank(family, lp, hp, lp, hp, orthonormal=True)


@lru_cache(maxsize=None)
def filter_bank(family: str) -> FilterBank:
    """Construct and validate the filter bank for one wavelet family."""
    if family == "haar":
        bank = _orthonormal_bank(family, np.array([1.0, 1.0]) / np.sqrt(2.0))
    elif family == "db2":
        # 4-tap orthonormal lowpass solving the normalization +
        # double-shift orthogonality + two-vanishing-moment system.
        s3 = np.sqrt(3.0)
        lowpass = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * np.sqrt(2.0))
        bank = _orthonormal_bank(family, lowpass)
    elif family == "bior22":
        # Spline 2/2 pair: 3-tap B-spline synthesis lowpass and its 5-tap
        # dual analysis lowpass, highpasses by the alternating-sign rule.
        rt2 = np.sqrt(2.0)
        bank = FilterBank(
            family,
            analysis_lowpass=Filter(rt2 * np.array([-1, 2, 6, 2, -1]) / 8.0, -2),
            analysis_highpass=Filter(rt2 * np.array([1, -2, 1]) / 4.0, 0),
            synthesis_lowpass=Filter(rt2 * np.array([1, 2, 1]) / 4.0, -1),
            synthesis_highpass=Filter(rt2 * np.array([1, 2, -6, 2, 1]) / 8.0, -1),
            orthonormal=False,
        )
    else:
        raise ValueError(f"unknown wavelet family {family!r} (choose from {FAMILY_TOKENS})")
    _validate_bank(bank)
    return bank


def _validate_bank(bank: FilterBank) -> None:
    lp = bank.analysis_lowpass.taps
    hp = bank.analysis_highpass.taps
    if abs(lp.sum() - np.sqrt(2.0)) > 1e-12:
        raise AssertionError(f"{bank.family}: lowpass does not sum to sqrt(2)")
    # The matrix checks run at a length smaller than the block, so that
    # every tap wraps.
    n = 16
    if bank.orthonormal:
        level = np.vstack([_level_matrix(n, bank.analysis_lowpass),
                           _level_matrix(n, bank.analysis_highpass)])
        if np.max(np.abs(level @ level.T - np.eye(n))) > 1e-12:
            raise AssertionError(f"{bank.family}: analysis filters are not orthonormal")
        # A Daubechies highpass of 2p taps has p vanishing moments.
        moments = np.arange(len(hp)) ** np.arange(len(hp) // 2)[:, None] @ hp
        if np.max(np.abs(moments)) > 1e-10:
            raise AssertionError(f"{bank.family}: highpass moment conditions violated")
    # Perfect reconstruction of one level, A_lo^T S_lo + A_hi^T S_hi = I;
    # with an orthogonal analysis level it makes synthesis its transpose.
    identity = sum(_level_matrix(n, analysis).T @ _level_matrix(n, synthesis)
                   for analysis, synthesis in ((bank.analysis_lowpass, bank.synthesis_lowpass),
                                               (bank.analysis_highpass, bank.synthesis_highpass)))
    if np.max(np.abs(identity - np.eye(n))) > 1e-12:
        raise AssertionError(f"{bank.family}: filter bank is not perfectly reconstructing")


def _level_matrix(n: int, filt: Filter) -> np.ndarray:
    """The (n/2, n) matrix of one periodized level: row k holds tap t at
    column (2k + origin + t) mod n, taps that wrap onto one column summed."""
    rows = np.arange(n // 2)[:, None]
    cols = (2 * rows + filt.origin + np.arange(len(filt.taps))) % n
    matrix = np.zeros((n // 2, n))
    np.add.at(matrix, (rows, cols), filt.taps)
    return matrix


def dwt_forward(signal, spec: WaveletSpec) -> np.ndarray:
    """Full analysis cascade of one block (or a batch, last axis = block)."""
    x = np.asarray(signal)
    x = x.astype(np.result_type(x, np.float64), copy=False)
    if x.shape[-1] != spec.block_size:
        raise ValueError(f"expected block length {spec.block_size}, got {x.shape[-1]}")
    bank = filter_bank(spec.family)
    details = []
    a = x
    for _ in range(spec.levels):
        n = a.shape[-1]
        details.append(a @ _level_matrix(n, bank.analysis_highpass).T)
        a = a @ _level_matrix(n, bank.analysis_lowpass).T
    return np.concatenate([a] + details[::-1], axis=-1)


def dwt_inverse(coefficients, spec: WaveletSpec) -> np.ndarray:
    """Exact inverse of dwt_forward (batched along the last axis)."""
    c = np.asarray(coefficients)
    c = c.astype(np.result_type(c, np.float64), copy=False)
    if c.shape[-1] != spec.block_size:
        raise ValueError(f"expected block length {spec.block_size}, got {c.shape[-1]}")
    bank = filter_bank(spec.family)
    a = c[..., : spec.block_size >> spec.levels]
    while a.shape[-1] < spec.block_size:
        # The detail of the level that doubles a to length n sits at [n/2, n).
        n = 2 * a.shape[-1]
        # The lowpass product takes the sum in place, so the coarser
        # approximation is freed before the detail product is formed.
        a = a @ _level_matrix(n, bank.synthesis_lowpass)
        a += c[..., n // 2 : n] @ _level_matrix(n, bank.synthesis_highpass)
    return a
