"""Bit <-> unit-energy symbol mapping for BPSK, QPSK, DBPSK and DQPSK
with hard-decision demodulation.

A scheme is data: its bits per symbol, whether it is differential, and
a read-only symbol table.  One mapper and one detector serve all four.

Mapping.  Each symbol has an index: its bit, or for two bits (b0, b1)
the Gray quarter-turn count 2*b0 + (b0 ^ b1) = 3*b0 ^ b1, so that
(0,0) -> 0, (0,1) -> 1, (1,1) -> 2 and (1,0) -> 3.  A differential
scheme sends the running count of its indices modulo the table size,
against an implicit reference table[0] that is never transmitted, so
frame lengths stay exact; the count is an integer, so long streams are
free of cumulative-product drift.  The symbol is table[index]:
  BPSK   [+1, -1], real.
  QPSK   ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2) for each quarter-turn count.
  DBPSK  [+1, -1], complex: s[n] = s[n-1] * (1-2*b[n]) from +1.
  DQPSK  ref * 1j^k with ref = (1+1j)/sqrt(2): s[n] = s[n-1] turned by
         the Gray quarter turns of its pair, (0,1) -> pi/2.
A complex table maps by gathering; BPSK's real one maps by the
arithmetic table[0] + index * (table[1] - table[0]), which costs less
than a gather, whose index must first be widened.

modulate returns the real dimensions its detector reads: real float64
for BPSK, whose decision reads Re(r) alone, and complex128 for the
others (DBPSK decides on Re(r[n] r*[n-1]), which contains
Im(r[n]) Im(r[n-1])).  The link adds noise to exactly those dimensions.

Detection is one sign test per bit: bit = [rail < 0] on the scheme's
decision rails, a product on a boundary (rail = 0) deciding bit 0.
  coherent      Re r, and Im r for b1 of a two-bit scheme.
  differential  Re p, or Re p + Im p for b0 and Re p - Im p for b1, with
                p = r[n] conj(r[n-1]) and r[-1] = table[0].
The differential rails are computed in real arithmetic on x = Re r and
y = Im r, with (x', y') the previous symbol: Re p = x x' + y y' and
Im p = y x' - x y'.  Under the Gray map the two DQPSK tests pick the
nearest quarter turn of p: p = -1 + 1j, exactly at 3*pi/4 between the
pi/2 and pi sectors, decides (0, 1), the pi/2 turn.

Both directions act along the last axis: a (users, n) array maps each
row as its own stream, with its own reference symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fec import _as_bits

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModulationScheme:
    """A PSK scheme as data (see the module docstring).  Schemes compare
    and hash by their other fields; the table is made read-only."""

    name: str
    bits_per_symbol: int
    differential: bool
    table: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.table.setflags(write=False)


# (b0, b1) of each Gray quarter-turn count 0..3.
_B0, _B1 = np.array([0, 0, 1, 1], dtype=np.uint8), np.array([0, 1, 1, 0], dtype=np.uint8)

SCHEMES = {s.name: s for s in (
    ModulationScheme("bpsk", 1, False, np.array([1.0, -1.0])),
    ModulationScheme("qpsk", 2, False, ((1.0 - 2.0 * _B0) + 1j * (1.0 - 2.0 * _B1)) / _SQRT2),
    ModulationScheme("dbpsk", 1, True, np.array([1, -1], dtype=np.complex128)),
    ModulationScheme("dqpsk", 2, True,
                     (1 + 1j) / _SQRT2 * np.array([1, 1j, -1, -1j], dtype=np.complex128)),
)}


def get_scheme(scheme) -> ModulationScheme:
    if isinstance(scheme, ModulationScheme):
        return scheme
    try:
        return SCHEMES[str(scheme).lower()]
    except KeyError:
        raise ValueError(f"unknown modulation scheme {scheme!r} (choose from {sorted(SCHEMES)})")


def modulate(bits, scheme) -> np.ndarray:
    """Map a bit stream (or each row of an array of streams) to unit-energy
    symbols: real float64 for BPSK, complex128 for the other schemes."""
    sch = get_scheme(scheme)
    b = _as_bits(bits)
    if b.shape[-1] % sch.bits_per_symbol:
        raise ValueError(f"bit count {b.shape[-1]} is not divisible by "
                         f"{sch.bits_per_symbol} ({sch.name})")
    index = b
    if sch.bits_per_symbol == 2:
        # Each (b0, b1) pair is one little-endian 16-bit word w, b0 in its
        # low byte, as demodulate packs it; the low byte of 3*w ^ (w >> 8)
        # is 3*b0 ^ b1, the Gray quarter-turn count.
        pairs = np.ascontiguousarray(b).view("<u2")
        words = np.multiply(pairs, 3, dtype="<u2")
        words ^= pairs >> 8
        index = words.view(np.uint8)[..., 0::2]
    if sch.differential:
        # The running count modulo the table size: a uint8 sum wraps modulo
        # 256, a multiple of the table size, so the mask stays exact.
        index = np.add.accumulate(index, axis=-1, dtype=np.uint8)
        index &= len(sch.table) - 1
    if np.iscomplexobj(sch.table):
        return sch.table.take(index)
    # Cheaper than a gather for a real table (see the module docstring).
    symbols = index * (sch.table[1] - sch.table[0])
    symbols += sch.table[0]
    return symbols


def demodulate(symbols, scheme) -> np.ndarray:
    """Hard-decision demodulation; exact inverse of modulate on clean symbols.

    One sign test per bit on the scheme's decision rails (see the module
    docstring).  A coherent scheme takes real symbols as they are.
    """
    sch = get_scheme(scheme)
    r = np.atleast_1d(np.asarray(symbols))
    two = sch.bits_per_symbol == 2
    if not sch.differential:
        b0, b1 = r.real < 0, (r.imag < 0 if two else None)
    else:
        r = r.astype(np.complex128, copy=False)
        ref, x, y = sch.table[0], r.real, r.imag
        # Sample 0 reads the reference; each term of sample n >= 1 reads
        # the rails of sample n and n - 1.
        first, now, before = (..., slice(None, 1)), (..., slice(1, None)), (..., slice(None, -1))
        term, re = np.empty(x[now].shape), np.empty(r.shape)
        re[first] = x[first] * ref.real + y[first] * ref.imag
        np.multiply(x[now], x[before], out=re[now])
        re[now] += np.multiply(y[now], y[before], out=term)
        if two:
            im = np.empty(r.shape)
            im[first] = y[first] * ref.real - x[first] * ref.imag
            np.multiply(y[now], x[before], out=im[now])
            im[now] -= np.multiply(x[now], y[before], out=term)
            # A rounded difference has the sign of the exact one, so the
            # b1 rail Re p - Im p is negative exactly where Re p < Im p.
            b1 = np.less(re, im)
            re += im
        b0 = re < 0
    if not two:
        return b0.view(np.uint8)
    # Each (b0, b1) pair is one little-endian 16-bit word, b0 in its low byte.
    pairs = np.left_shift(b1.view(np.uint8), 8, dtype="<u2")
    pairs |= b0.view(np.uint8)
    return pairs.view(np.uint8).reshape(r.shape[:-1] + (2 * r.shape[-1],))
