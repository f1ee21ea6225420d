"""Binary (23,12) Golay block code: systematic cyclic encoding, perfect
3-error correction, and stream framing.

Two tables, built once from the remainder modulo g1(X), make the whole
codec: a 4096-entry encode table (message -> codeword) and a 2048-entry
syndrome table (syndrome -> the error pattern of weight <= 3 causing it).
The code is systematic, so a received word's syndrome is its check bits
XOR the encode table's check bits for its information bits.

Bit/word conventions: a 12-bit message m maps to the polynomial
m(X) = sum m[j] X^j, and a 23-bit codeword c to c(X) = sum c[j] X^j.
The codeword layout is [11 check bits][12 information bits], i.e. the
check bits occupy X^0..X^10 and the message occupies X^11..X^22.
Packed-integer helpers put list index j at bit j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

N_CODE = 23
K_MSG = 12
N_CHECK = N_CODE - K_MSG
CODE_RATE = K_MSG / N_CODE

# Generator polynomials, bit j = coefficient of X^j.
G1 = 0b110001110101  # 1 + X^2 + X^4 + X^5 + X^6 + X^10 + X^11
G2 = 0b101011100011  # 1 + X + X^5 + X^6 + X^7 + X^9 + X^11


def _poly_mod_g1(values: np.ndarray) -> np.ndarray:
    """Remainder of each value(X) < X^23 modulo g1(X) over GF(2), elementwise
    on a uint32 array (schoolbook long division, highest degree first)."""
    rem = np.array(values, dtype=np.uint32)
    for j in range(N_CODE - 1, N_CHECK - 1, -1):
        rem ^= ((rem >> j) & 1) * np.uint32(G1 << (j - N_CHECK))
    return rem


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


@dataclass(frozen=True, eq=False)
class GolayCodecTables:
    """The codec's two lookup tables.

    encode_table maps each 12-bit message to its 23-bit codeword;
    syndrome_table maps each of the 2048 syndromes to the unique error
    pattern of weight <= 3 producing it.
    """

    encode_table: np.ndarray    # (4096,) uint32
    syndrome_table: np.ndarray  # (2048,) uint32

    def __post_init__(self):
        for arr in (self.encode_table, self.syndrome_table):
            arr.setflags(write=False)


@lru_cache(maxsize=1)
def codec_tables() -> GolayCodecTables:
    # (1+X) g1(X) g2(X) = X^23 + 1 over GF(2), checked once at build time.
    if _poly_mul(_poly_mul(0b11, G1), G2) != (1 << N_CODE) | 1:
        raise AssertionError("generator polynomials do not factor X^23 + 1")

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
    return GolayCodecTables(encode_table, syndrome_table)


def syndromes(words) -> np.ndarray:
    """Syndrome of each packed 23-bit word (vectorized): the remainder of
    w(X) modulo g1(X).

    The code is systematic, so this is the word's 11 check bits XOR the
    check bits that its 12 information bits encode to.
    """
    words = np.asarray(words, dtype=np.uint32)
    if words.size and words.max() >= 1 << N_CODE:
        raise ValueError("received word exceeds 23 bits")
    return (words ^ codec_tables().encode_table[words >> N_CHECK]) & ((1 << N_CHECK) - 1)


def encode_words(messages) -> np.ndarray:
    """Codewords for packed 12-bit messages (vectorized)."""
    messages = np.asarray(messages, dtype=np.uint32)
    if messages.size and messages.max() >= 1 << K_MSG:
        raise ValueError("message value exceeds 12 bits")
    return codec_tables().encode_table[messages]


def decode_words(words) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-codeword decode of packed 23-bit words.

    Returns (messages, corrected) where corrected is the weight of the
    error pattern removed from each word.  The code is perfect, so every
    word decodes; more than 3 channel errors decode to a wrong codeword.
    """
    words = np.asarray(words, dtype=np.uint32)
    patterns = codec_tables().syndrome_table[syndromes(words)]
    corrected = np.bitwise_count(patterns).astype(np.int64)
    return ((words ^ patterns) >> N_CHECK).astype(np.uint32), corrected


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


def encode_block(message) -> np.ndarray:
    """Encode exactly 12 message bits into a 23-bit codeword."""
    m = _as_bits(message).ravel()
    if m.size != K_MSG:
        raise ValueError(f"message block must have {K_MSG} bits, got {m.size}")
    word = encode_words(_pack_rows(m[None, :]))
    return _unpack_words(word, N_CODE)[0]


def decode_block(received) -> tuple[np.ndarray, int]:
    """Decode 23 received bits to (12 message bits, corrected count)."""
    r = _as_bits(received).ravel()
    if r.size != N_CODE:
        raise ValueError(f"received block must have {N_CODE} bits, got {r.size}")
    msg, corrected = decode_words(_pack_rows(r[None, :]))
    return _unpack_words(msg, K_MSG)[0], int(corrected[0])


def encode_stream(bits) -> tuple[np.ndarray, int]:
    """Encode an arbitrary-length bit stream blockwise.

    The input is padded with 0-bits to a multiple of 12 and each block is
    encoded; returns (coded bits, original length) with original length
    carried out-of-band for the decoder.  A (rows, n) array encodes each
    row as its own stream; the original length is then the row length.
    """
    data = _as_bits(bits)
    lead, original_length = data.shape[:-1], data.shape[-1]
    if original_length == 0:
        return np.zeros(lead + (0,), dtype=np.uint8), 0
    pad = (-original_length) % K_MSG
    padded = np.concatenate([data, np.zeros(lead + (pad,), dtype=np.uint8)], axis=-1)
    words = encode_words(_pack_rows(padded.reshape(-1, K_MSG)))
    return _unpack_words(words, N_CODE).reshape(lead + (-1,)), original_length


def decode_stream(bits, original_length: int) -> np.ndarray:
    """Blockwise decode, concatenate messages, truncate to original_length
    (per row of a (rows, n) array)."""
    data = _as_bits(bits)
    lead, length = data.shape[:-1], data.shape[-1]
    if length % N_CODE:
        raise ValueError(f"coded stream length {length} is not a multiple of {N_CODE}")
    n_blocks = length // N_CODE
    if original_length > K_MSG * n_blocks or original_length < 0:
        raise ValueError(f"original_length {original_length} exceeds stream capacity")
    if length == 0:
        return np.zeros(lead + (0,), dtype=np.uint8)
    msgs, _ = decode_words(_pack_rows(data.reshape(-1, N_CODE)))
    return _unpack_words(msgs, K_MSG).reshape(lead + (-1,))[..., :original_length]


def verify_golay_invariants() -> dict[str, int | bool]:
    """Exhaustive codec checks; used by the `fec verify` CLI command.

    Covers: all 4096 codewords x all 2048 weight<=3 patterns decode back
    to their message, cyclic-shift and complement closure, the generator
    factorization of X^23 + 1, and the codeword weight distribution.
    """
    tables = codec_tables()
    codewords = tables.encode_table
    msgs = np.arange(1 << K_MSG, dtype=np.uint32)

    patterns = np.unique(tables.syndrome_table)
    if patterns.size != 1 << N_CHECK:
        raise AssertionError("syndrome table patterns are not distinct")

    failures = 0
    for pattern in tables.syndrome_table:
        decoded, _ = decode_words(codewords ^ pattern)
        failures += int(np.count_nonzero(decoded != msgs))

    shifted_ok = True
    low_mask = (1 << (N_CODE - 1)) - 1
    shifted = codewords.copy()
    for _ in range(N_CODE - 1):
        shifted = ((shifted & low_mask) << 1) | (shifted >> (N_CODE - 1))
        if syndromes(shifted).any():
            shifted_ok = False
            break

    complement_ok = not syndromes(codewords ^ ((1 << N_CODE) - 1)).any()

    weights = np.bitwise_count(codewords)
    distribution = {int(w): int(c) for w, c in zip(*np.unique(weights, return_counts=True))}

    return {
        "cases": int(codewords.size) * int(tables.syndrome_table.size),
        "decode_failures": failures,
        "cyclic_invariance": shifted_ok,
        "complement_invariance": complement_ok,
        "factorization": _poly_mul(_poly_mul(0b11, G1), G2) == (1 << N_CODE) | 1,
        "weight_distribution": distribution,
        "min_nonzero_weight": int(weights[1:].min()) if weights.size > 1 else 0,
    }
