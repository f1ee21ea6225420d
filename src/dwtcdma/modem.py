"""Bit <-> unit-energy symbol mapping for BPSK, QPSK, DBPSK and DQPSK
with hard-decision demodulation.

Mappings:
  BPSK   bit 0 -> +1, bit 1 -> -1.
  QPSK   Gray map, pair (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2).
  DBPSK  s[n] = s[n-1] * (1-2*b[n]) against an implicit reference +1.
  DQPSK  s[n] = s[n-1] * exp(1j*delta), quarter-turn increments Gray-coded
         as (0,0)->0, (0,1)->pi/2, (1,1)->pi, (1,0)->3*pi/2, against an
         implicit reference (1+1j)/sqrt(2).

modulate returns the real dimensions its detector reads: real float64
for BPSK, whose decision reads Re(r) alone, and complex128 for the
others (DBPSK decides on Re(r[n] r*[n-1]), which contains
Im(r[n]) Im(r[n-1])).  The link adds noise to exactly those dimensions.

The differential reference symbol is never transmitted; the receiver
assumes the same constellation point, so frame lengths stay exact.
Differential phase chains are tracked as integer quarter/half turns and
only converted to symbol values once, which keeps long streams free of
cumulative-product drift.

Both directions act along the last axis: a (users, n) array maps each
row as its own stream, with its own reference symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fec import _as_bits

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModulationScheme:
    name: str
    bits_per_symbol: int


SCHEMES = {
    "bpsk": ModulationScheme("bpsk", 1),
    "qpsk": ModulationScheme("qpsk", 2),
    "dbpsk": ModulationScheme("dbpsk", 1),
    "dqpsk": ModulationScheme("dqpsk", 2),
}

_DQPSK_REF = (1 + 1j) / _SQRT2
# DQPSK symbol after k = 0..3 quarter turns from the reference: ref * i^k.
_DQPSK_SYMBOLS = _DQPSK_REF * np.array([1, 1j, -1, -1j], dtype=np.complex128)
# Gray code of the bit pair (b0, b1) packed as 2*b0 + b1 -> turn count.
_GRAY_TO_TURNS = np.array([0, 1, 3, 2], dtype=np.uint8)
_TURNS_TO_BITS = np.zeros((4, 2), dtype=np.uint8)
for _pair, _turn in enumerate(_GRAY_TO_TURNS):
    _TURNS_TO_BITS[_turn] = (_pair >> 1, _pair & 1)


def get_scheme(scheme) -> ModulationScheme:
    if isinstance(scheme, ModulationScheme):
        return scheme
    try:
        return SCHEMES[str(scheme).lower()]
    except KeyError:
        raise ValueError(f"unknown modulation scheme {scheme!r} (choose from {sorted(SCHEMES)})")


def bits_per_symbol(scheme) -> int:
    return get_scheme(scheme).bits_per_symbol


def _pairs(b: np.ndarray) -> np.ndarray:
    return b.reshape(b.shape[:-1] + (-1, 2))


def modulate(bits, scheme) -> np.ndarray:
    """Map a bit stream (or each row of an array of streams) to unit-energy
    symbols: real float64 for BPSK, complex128 for the other schemes."""
    sch = get_scheme(scheme)
    b = _as_bits(bits)
    if b.shape[-1] % sch.bits_per_symbol:
        raise ValueError(
            f"bit count {b.shape[-1]} is not divisible by {sch.bits_per_symbol} ({sch.name})"
        )
    if sch.name == "bpsk":
        return 1.0 - 2.0 * b
    if sch.name == "qpsk":
        pairs = _pairs(b)
        return ((1.0 - 2.0 * pairs[..., 0]) + 1j * (1.0 - 2.0 * pairs[..., 1])) / _SQRT2
    if sch.name == "dbpsk":
        # Sign chain in exact bits: s[n] = -1 where the XOR of b up to n is 1.
        return (1.0 - 2.0 * np.bitwise_xor.accumulate(b, axis=-1)).astype(np.complex128)
    # dqpsk: accumulate quarter turns modulo 4 from the reference.  The
    # uint8 sum wraps modulo 256, a multiple of 4, so & 3 stays exact.
    pairs = _pairs(b)
    turns = _GRAY_TO_TURNS.take(2 * pairs[..., 0] + pairs[..., 1])
    return _DQPSK_SYMBOLS.take(np.cumsum(turns, axis=-1, dtype=np.uint8) & 3)


def demodulate(symbols, scheme) -> np.ndarray:
    """Hard-decision demodulation; exact inverse of modulate on clean symbols.

    Coherent minimum-distance decisions for BPSK/QPSK; differential
    detection of r[n]*conj(r[n-1]) against the implicit reference for
    DBPSK/DQPSK.  BPSK takes real symbols as they are.
    """
    sch = get_scheme(scheme)
    if sch.name == "bpsk":
        return (np.atleast_1d(np.asarray(symbols)).real < 0).astype(np.uint8)
    r = np.atleast_1d(np.asarray(symbols, dtype=np.complex128))
    lead = r.shape[:-1]
    if sch.name == "qpsk":
        return np.stack([r.real < 0, r.imag < 0], axis=-1).astype(np.uint8).reshape(lead + (-1,))
    if r.shape[-1] == 0:
        return np.zeros(r.shape, dtype=np.uint8)
    ref = np.full(lead + (1,), 1.0 if sch.name == "dbpsk" else _DQPSK_REF, dtype=np.complex128)
    prev = np.concatenate([ref, r[..., :-1]], axis=-1)
    products = r * np.conj(prev)
    if sch.name == "dbpsk":
        return (products.real < 0).astype(np.uint8)
    turns = np.round(np.angle(products) / (np.pi / 2)).astype(np.int64) % 4
    return _TURNS_TO_BITS[turns].reshape(lead + (-1,))
