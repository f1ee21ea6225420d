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

Differential detection runs in real arithmetic on the rails x = Re r and
y = Im r, with (x', y') the previous symbol (the reference for sample 0):
p = r[n] conj(r[n-1]) has Re p = x x' + y y' and Im p = y x' - x y'.
  DBPSK  b = [Re p < 0].
  DQPSK  b0 = [Re p + Im p < 0], b1 = [Re p - Im p < 0]: the nearest
         quarter turn of p under the Gray map, read as two sign tests.
A product on a decision boundary (Re p = 0, or Re p = -Im p for b0 and
Re p = Im p for b1) decides bit 0: p = -1 + 1j, exactly at 3*pi/4
between the pi/2 and pi sectors, decides (0, 1), the pi/2 turn.

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

# DBPSK symbol for a sign chain at 0 and 1.
_DBPSK_SYMBOLS = np.array([1, -1], dtype=np.complex128)
_DQPSK_REF = (1 + 1j) / _SQRT2
# DQPSK symbol after k = 0..3 quarter turns from the reference: ref * i^k.
_DQPSK_SYMBOLS = _DQPSK_REF * np.array([1, 1j, -1, -1j], dtype=np.complex128)
# The previous symbol of sample 0.
_REFERENCE = {"dbpsk": 1 + 0j, "dqpsk": _DQPSK_REF}


def get_scheme(scheme) -> ModulationScheme:
    if isinstance(scheme, ModulationScheme):
        return scheme
    try:
        return SCHEMES[str(scheme).lower()]
    except KeyError:
        raise ValueError(f"unknown modulation scheme {scheme!r} (choose from {sorted(SCHEMES)})")


def bits_per_symbol(scheme) -> int:
    return get_scheme(scheme).bits_per_symbol


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
        symbols = b * -2.0
        symbols += 1.0
        return symbols
    if sch.name == "dbpsk":
        # Sign chain in exact bits: s[n] = -1 where the XOR of b up to n is 1.
        return _DBPSK_SYMBOLS.take(np.bitwise_xor.accumulate(b, axis=-1))
    b0, b1 = b[..., 0::2], b[..., 1::2]
    if sch.name == "qpsk":
        return ((1.0 - 2.0 * b0) + 1j * (1.0 - 2.0 * b1)) / _SQRT2
    # dqpsk: the Gray turn count of (b0, b1) is 2*b0 + (b0 ^ b1), and the
    # turns accumulate modulo 4 from the reference.  The uint8 sum wraps
    # modulo 256, a multiple of 4, so & 3 stays exact.
    turns = b0 ^ b1
    turns += b0
    turns += b0
    np.cumsum(turns, axis=-1, dtype=np.uint8, out=turns)
    turns &= 3
    return _DQPSK_SYMBOLS.take(turns)


def demodulate(symbols, scheme) -> np.ndarray:
    """Hard-decision demodulation; exact inverse of modulate on clean symbols.

    Coherent minimum-distance decisions for BPSK/QPSK; differential
    sign tests on r[n]*conj(r[n-1]) against the implicit reference for
    DBPSK/DQPSK (see the module docstring).  BPSK takes real symbols as
    they are.
    """
    sch = get_scheme(scheme)
    if sch.name == "bpsk":
        return (np.atleast_1d(np.asarray(symbols)).real < 0).view(np.uint8)
    r = np.atleast_1d(np.asarray(symbols, dtype=np.complex128))
    lead = r.shape[:-1]
    if sch.name == "qpsk":
        return np.stack([r.real < 0, r.imag < 0], axis=-1).astype(np.uint8).reshape(lead + (-1,))
    if r.shape[-1] == 0:
        return np.zeros(r.shape, dtype=np.uint8)
    ref = _REFERENCE[sch.name]
    x, y = r.real, r.imag
    # Each term of sample n >= 1 reads the rails of sample n and n - 1.
    now, before = (..., slice(1, None)), (..., slice(None, -1))
    term = np.empty(lead + (r.shape[-1] - 1,))
    re = np.empty(r.shape)
    re[..., 0] = x[..., 0] * ref.real + y[..., 0] * ref.imag
    np.multiply(x[now], x[before], out=re[now])
    re[now] += np.multiply(y[now], y[before], out=term)
    if sch.name == "dbpsk":
        return np.less(re, 0).view(np.uint8)
    im = np.empty(r.shape)
    im[..., 0] = y[..., 0] * ref.real - x[..., 0] * ref.imag
    np.multiply(y[now], x[before], out=im[now])
    im[now] -= np.multiply(x[now], y[before], out=term)
    # b1: Re p - Im p < 0 is Re p < Im p exactly, since a rounded difference
    # has the sign of the exact one.  Each (b0, b1) pair is one
    # little-endian 16-bit word, b0 in its low byte.
    pairs = np.left_shift(np.less(re, im).view(np.uint8), 8, dtype="<u2")
    pairs |= np.less(np.add(re, im, out=im), 0).view(np.uint8)
    return pairs.view(np.uint8).reshape(lead + (-1,))
