"""Binary (23,12) Golay block code: systematic cyclic encoding and
perfect 3-error correction of bit streams.

The interface is bit streams (`encode_stream`, `decode_stream`), built
on packed-word primitives (`encode_words`, `decode_words`, `syndromes`)
and one read-only table pair, built once from the remainder modulo
g1(X): a 4096-entry encode table (message -> codeword) and a 2048-entry
syndrome table (syndrome -> the error pattern of weight <= 3 causing it).
The code is systematic, so a received word's syndrome is its check bits
XOR the encode table's check bits for its information bits.
`verify_golay_invariants` checks the tables exhaustively.

Bit/word conventions: a 12-bit message m maps to the polynomial
m(X) = sum m[j] X^j, and a 23-bit codeword c to c(X) = sum c[j] X^j.
The codeword layout is [11 check bits][12 information bits], i.e. the
check bits occupy X^0..X^10 and the message occupies X^11..X^22.
Packed words put stream index j at bit j.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

N_CODE = 23
K_MSG = 12
N_CHECK = N_CODE - K_MSG
CODE_RATE = K_MSG / N_CODE

# Generator polynomials, bit j = coefficient of X^j.
G1 = 0b110001110101  # 1 + X^2 + X^4 + X^5 + X^6 + X^10 + X^11
G2 = 0b101011100011  # 1 + X + X^5 + X^6 + X^7 + X^9 + X^11

# Number of codewords of each Hamming weight, which verify_golay_invariants checks.
GOLAY_WEIGHTS = {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}


def _poly_mod_g1(values: np.ndarray) -> np.ndarray:
    """Remainder of each value(X) < X^23 modulo g1(X) over GF(2), elementwise
    on a uint32 array (schoolbook long division, highest degree first)."""
    rem = np.array(values, dtype=np.uint32)
    for j in range(N_CODE - 1, N_CHECK - 1, -1):
        rem ^= ((rem >> j) & 1) * np.uint32(G1 << (j - N_CHECK))
    return rem


class GolayCodecTables(NamedTuple):
    """The codec's two lookup tables, both read-only."""

    encode_table: np.ndarray    # (4096,) uint32: message -> codeword
    syndrome_table: np.ndarray  # (2048,) uint32: syndrome -> its pattern of weight <= 3


@lru_cache(maxsize=1)
def codec_tables() -> GolayCodecTables:
    shifted = np.arange(1 << K_MSG, dtype=np.uint32) << N_CHECK
    encode_table = shifted | _poly_mod_g1(shifted)

    # The code is perfect: the words of weight <= 3 are exactly one per
    # syndrome, and the syndrome of a word is its remainder modulo g1.
    patterns = np.array([sum(1 << j for j in positions)
                         for weight in range(4)
                         for positions in combinations(range(N_CODE), weight)],
                        dtype=np.uint32)
    pattern_syndromes = _poly_mod_g1(patterns)
    if np.bincount(pattern_syndromes, minlength=1 << N_CHECK).max() > 1:
        raise AssertionError("two error patterns of weight <= 3 share a syndrome")
    syndrome_table = np.empty(1 << N_CHECK, dtype=np.uint32)
    syndrome_table[pattern_syndromes] = patterns
    encode_table.setflags(write=False)
    syndrome_table.setflags(write=False)
    return GolayCodecTables(encode_table, syndrome_table)


def _as_words(values) -> np.ndarray:
    """Packed words as uint32.  A non-integer dtype is refused, where the
    cast would read 2.7 as 2, and so is a value outside 0..2**32 - 1,
    which the cast would wrap.  The dtype test makes no pass over the
    data, and the range test is skipped for a dtype that casts safely to
    uint32, such as the uint32 words of the hot path.  An empty input
    may have any dtype."""
    words = np.asarray(values)
    if words.size and words.dtype.kind not in "iu":
        raise ValueError(f"codec words must be integers, got dtype {words.dtype}")
    if (words.size and not np.can_cast(words.dtype, np.uint32)
            and (int(words.min()) < 0 or int(words.max()) >= 1 << 32)):
        raise ValueError("codec words must lie in 0..2**32 - 1")
    return words.astype(np.uint32, copy=False)


def syndromes(words) -> np.ndarray:
    """Syndrome of each packed 23-bit word (vectorized): the remainder of
    w(X) modulo g1(X).

    The code is systematic, so this is the word's 11 check bits XOR the
    check bits that its 12 information bits encode to.
    """
    words = _as_words(words)
    if words.size and words.max() >= 1 << N_CODE:
        raise ValueError("received word exceeds 23 bits")
    return (words ^ codec_tables().encode_table[words >> N_CHECK]) & ((1 << N_CHECK) - 1)


def encode_words(messages) -> np.ndarray:
    """Codewords for packed 12-bit messages (vectorized)."""
    messages = _as_words(messages)
    if messages.size and messages.max() >= 1 << K_MSG:
        raise ValueError("message value exceeds 12 bits")
    return codec_tables().encode_table[messages]


def decode_words(words) -> np.ndarray:
    """Nearest-codeword decode of packed 23-bit words to their 12-bit
    messages.  The code is perfect, so every word decodes; more than 3
    channel errors decode to a wrong codeword."""
    words = _as_words(words)
    patterns = codec_tables().syndrome_table[syndromes(words)]
    return (words ^ patterns) >> N_CHECK


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack bit rows (n, width <= 32) into uint32, list index j at bit j:
    each row padded to 32 bits is four little-endian bytes of one word."""
    padded = np.zeros((bits.shape[0], 32), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, bitorder="little").view("<u4")


def _unpack_words(words: np.ndarray, width: int) -> np.ndarray:
    octets = np.ascontiguousarray(words, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=-1, count=width, bitorder="little")


def _as_bits(bits) -> np.ndarray:
    """Bit streams along the last axis (a 1-D stream or a (rows, n) array)
    as uint8; the codec and the modem both validate their input here."""
    arr = np.atleast_1d(np.asarray(bits))
    # Checked before the cast to uint8, which would wrap 256 to 0 and
    # truncate 0.5 to 0.
    if arr.size and (arr.max() > 1 if arr.dtype == np.uint8
                     else not np.all((arr == 0) | (arr == 1))):
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def encode_stream(bits) -> tuple[np.ndarray, int]:
    """Encode an arbitrary-length bit stream blockwise.

    The input is padded with 0-bits to a multiple of 12 and each block is
    encoded; returns (coded bits, original length) with original length
    carried out-of-band for the decoder.  A (rows, n) array encodes each
    row as its own stream; the original length is then the row length.
    """
    data = _as_bits(bits)
    lead, original_length = data.shape[:-1], data.shape[-1]
    pad = (-original_length) % K_MSG
    padded = np.concatenate([data, np.zeros(lead + (pad,), dtype=np.uint8)], axis=-1)
    words = encode_words(_pack_rows(padded.reshape(-1, K_MSG)))
    coded_length = N_CODE * (padded.shape[-1] // K_MSG)
    return _unpack_words(words, N_CODE).reshape(lead + (coded_length,)), original_length


def decode_stream(bits, original_length: int) -> np.ndarray:
    """Blockwise decode, concatenate messages, truncate to original_length
    (per row of a (rows, n) array)."""
    data = _as_bits(bits)
    lead, length = data.shape[:-1], data.shape[-1]
    if length % N_CODE:
        raise ValueError(f"coded stream length {length} is not a multiple of {N_CODE}")
    if not 0 <= original_length <= K_MSG * (length // N_CODE):
        raise ValueError(f"original_length {original_length} exceeds stream capacity")
    msgs = decode_words(_pack_rows(data.reshape(-1, N_CODE)))
    decoded_length = K_MSG * (length // N_CODE)
    return _unpack_words(msgs, K_MSG).reshape(lead + (decoded_length,))[..., :original_length]


def verify_golay_invariants() -> list[tuple[str, bool, str]]:
    """Exhaustive codec checks; returns (name, ok, detail) rows, as
    spreading.verify_spreading_invariants does.

    Covers: all 4096 codewords x all 2048 weight<=3 patterns decode back
    to their message, each syndrome maps to a pattern of weight <= 3
    that has that syndrome, cyclic-shift and complement closure, the
    generator factorization of X^23 + 1, and the codeword weight
    distribution.
    """
    codewords, syndrome_table = codec_tables()
    msgs = np.arange(1 << K_MSG, dtype=np.uint32)
    failures = sum(int(np.count_nonzero(decode_words(codewords ^ pattern) != msgs))
                   for pattern in syndrome_table)
    placed = int(np.count_nonzero(syndromes(syndrome_table) == np.arange(1 << N_CHECK)))
    heaviest = int(np.bitwise_count(syndrome_table).max())

    # Every rotation by k = 1..22 places of every codeword.
    k = np.arange(1, N_CODE, dtype=np.uint32)[:, None]
    rotated = ((codewords << k) | (codewords >> (N_CODE - k))) & ((1 << N_CODE) - 1)

    # (1 + X) g1(X) g2(X) over GF(2): the coefficient vectors convolved, modulo 2.
    g1, g2 = ((g >> np.arange(N_CHECK + 1)) & 1 for g in (G1, G2))
    product = np.convolve(np.convolve([1, 1], g1), g2) % 2

    weights, counts = np.unique(np.bitwise_count(codewords), return_counts=True)
    distribution = dict(zip(weights.tolist(), counts.tolist()))
    return [
        ("decode", failures == 0,
         f"{failures} failures in {codewords.size * syndrome_table.size} cases"),
        ("syndrome table", placed == syndrome_table.size and heaviest <= 3,
         f"{placed} of {syndrome_table.size} patterns at their syndrome, max weight {heaviest}"),
        ("cyclic closure", not syndromes(rotated).any(), "every shift of a codeword is a codeword"),
        ("complement closure", not syndromes(codewords ^ ((1 << N_CODE) - 1)).any(),
         "every complement of a codeword is a codeword"),
        ("factorization", product.tolist() == [1] + [0] * (N_CODE - 1) + [1],
         "(1+X) g1(X) g2(X) = X^23 + 1"),
        ("weight distribution", distribution == GOLAY_WEIGHTS,
         " ".join(f"{w}:{c}" for w, c in distribution.items())),
    ]
