import numpy as np
import pytest

from dwtcdma import fec
from dwtcdma.fec import (
    G1,
    G2,
    codec_tables,
    decode_stream,
    encode_stream,
    encode_words,
    decode_words,
    syndromes,
)

GOLAY_WEIGHTS = {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}


def pack(bits):
    """Bits as one packed word, bit j at bit j."""
    return sum(int(bit) << j for j, bit in enumerate(bits))


def reference_encode(message_bits):
    """Independent oracle: schoolbook polynomial long division over GF(2)."""
    m_poly = 0
    for j, bit in enumerate(message_bits):
        m_poly |= int(bit) << j
    shifted = m_poly << 11
    remainder = shifted
    for j in range(22, 10, -1):
        if remainder >> j & 1:
            remainder ^= G1 << (j - 11)
    word = shifted | remainder
    return [(word >> j) & 1 for j in range(23)]


def reference_remainder(words):
    """Independent oracle: w(X) mod g1(X) by long division, over an array."""
    rem = words.copy()
    for j in range(22, 10, -1):
        rem[(rem >> j) & 1 == 1] ^= np.uint32(G1 << (j - 11))
    return rem


class TestEncode:
    def test_all_zero_message(self):
        assert encode_stream([0] * 12)[0].tolist() == [0] * 23

    def test_matches_reference_polynomial_division(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            msg = rng.integers(0, 2, 12)
            assert encode_stream(msg)[0].tolist() == reference_encode(msg)

    def test_layout_check_then_info(self):
        msg = np.zeros(12, dtype=np.uint8)
        msg[0] = 1
        cw, _ = encode_stream(msg)
        assert cw[11:].tolist() == msg.tolist()

    def test_weight_distribution_exhaustive(self):
        words = encode_words(np.arange(4096, dtype=np.uint32))
        weights, counts = np.unique(np.bitwise_count(words), return_counts=True)
        assert dict(zip(weights.tolist(), counts.tolist())) == GOLAY_WEIGHTS

    def test_sphere_packing_identity(self):
        from math import comb

        assert sum(comb(23, k) for k in range(4)) == 2048 == 2 ** (23 - 12)


class TestDecode:
    def test_clean_codeword(self):
        msg = np.array([1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0], dtype=np.uint8)
        coded, n = encode_stream(msg)
        assert decode_stream(coded, n).tolist() == msg.tolist()
        decoded = decode_words([pack(coded)])
        assert np.bitwise_count(encode_words(decoded) ^ pack(coded))[0] == 0

    def test_three_flips_example(self):
        msg = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
        received, n = encode_stream(msg)
        received[[0, 7, 22]] ^= 1
        assert decode_stream(received, n).tolist() == msg.tolist()
        # The same word packed: the decoder removes 3 bits.
        decoded = decode_words([pack(received)])
        assert decoded[0] == pack(msg)
        assert np.bitwise_count(encode_words(decoded) ^ pack(received))[0] == 3

    def test_random_sample_of_correctable_patterns(self):
        rng = np.random.default_rng(21)
        tables = codec_tables()
        msgs = rng.integers(0, 4096, size=5000).astype(np.uint32)
        patterns = tables.syndrome_table[rng.integers(0, 2048, size=5000)]
        received = encode_words(msgs) ^ patterns
        decoded = decode_words(received)
        assert np.array_equal(decoded, msgs)
        assert np.array_equal(np.bitwise_count(encode_words(decoded) ^ received),
                              np.bitwise_count(patterns))

    def test_every_word_decodes_within_distance_three(self):
        rng = np.random.default_rng(22)
        words = rng.integers(0, 1 << 23, size=2000).astype(np.uint32)
        distance = np.bitwise_count(encode_words(decode_words(words)) ^ words)
        assert distance.max() <= 3
        patterns = codec_tables().syndrome_table[syndromes(words)]
        assert np.array_equal(distance, np.bitwise_count(patterns))

    def test_syndromes_are_remainders_mod_g1_for_every_word(self):
        step = 1 << 20
        for start in range(0, 1 << 23, step):
            words = np.arange(start, start + step, dtype=np.uint32)
            assert np.array_equal(syndromes(words), reference_remainder(words))

    def test_syndrome_table_inverts_syndromes(self):
        assert np.array_equal(syndromes(codec_tables().syndrome_table), np.arange(2048))

    @pytest.mark.parametrize("func, bits", [(syndromes, 23), (decode_words, 23),
                                            (encode_words, 12)])
    def test_rejects_values_wider_than_the_code(self, func, bits):
        func(np.array([0, (1 << bits) - 1], dtype=np.uint32))
        with pytest.raises(ValueError, match=f"exceeds {bits} bits"):
            func(np.array([0, 1 << bits], dtype=np.uint32))

    @pytest.mark.parametrize("func", [syndromes, decode_words, encode_words])
    @pytest.mark.parametrize("words", [[2.7], [1.5], np.array([1.0, 2.0]), [True]])
    def test_rejects_words_of_a_non_integer_dtype(self, func, words):
        # A cast to uint32 would read 2.7 as 2 and 1.5 as 1.
        with pytest.raises(ValueError, match="codec words must be integers"):
            func(words)

    @pytest.mark.parametrize("func", [syndromes, decode_words, encode_words])
    @pytest.mark.parametrize("value", [(1 << 32) + 5, -(1 << 32) + 3, (1 << 32) + 1, -1,
                                       (1 << 64) - 1])
    def test_rejects_words_outside_uint32(self, func, value):
        # A cast to uint32 would wrap 2**32 + 5 to 5 and -2**32 + 3 to 3.
        words = np.array([0, value], dtype=np.uint64 if value >= 1 << 63 else np.int64)
        with pytest.raises(ValueError, match=r"codec words must lie in 0\.\.2\*\*32 - 1"):
            func(words)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
    def test_words_in_range_of_any_integer_dtype(self, dtype):
        words = np.array([0, 5, 100], dtype=dtype)
        assert np.array_equal(encode_words(words), encode_words(words.astype(np.uint32)))

    def test_uint32_words_are_not_copied(self):
        words = np.array([0, 5, 4095], dtype=np.uint32)
        assert fec._as_words(words) is words

    @pytest.mark.parametrize("func", [syndromes, decode_words, encode_words])
    def test_empty_words_of_any_dtype(self, func):
        for empty in ([], np.zeros(0), np.zeros(0, dtype=np.int64)):
            assert func(empty).shape == (0,)

    def test_syndrome_zero_iff_codeword(self):
        words = encode_words(np.arange(4096, dtype=np.uint32))
        assert not syndromes(words).any()
        assert syndromes(words ^ 1).all()


class TestInvariants:
    def test_cyclic_shift_closure(self):
        words = encode_words(np.arange(4096, dtype=np.uint32))
        low_mask = (1 << 22) - 1
        shifted = words.copy()
        for _ in range(22):
            shifted = ((shifted & low_mask) << 1) | (shifted >> 22)
            assert not syndromes(shifted).any()

    def test_complement_closure(self):
        words = encode_words(np.arange(4096, dtype=np.uint32))
        assert not syndromes(words ^ ((1 << 23) - 1)).any()

    def test_generator_factorization(self):
        # (1 + X) g1(X) g2(X) = X^23 + 1 over GF(2), on coefficient vectors.
        g1, g2 = ((g >> np.arange(12)) & 1 for g in (G1, G2))
        product = np.convolve(np.convolve([1, 1], g1), g2) % 2
        assert product.tolist() == [1] + [0] * 22 + [1]

    def test_min_nonzero_weight_is_seven(self):
        words = encode_words(np.arange(1, 4096, dtype=np.uint32))
        assert int(np.bitwise_count(words).min()) == 7

    def test_tables_are_a_read_only_pair(self):
        encode_table, syndrome_table = codec_tables()
        assert encode_table.shape == (4096,) and syndrome_table.shape == (2048,)
        for table in (encode_table, syndrome_table):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_syndrome_table_is_a_bijection(self):
        table = codec_tables().syndrome_table
        assert np.unique(table).size == 2048
        assert np.bitwise_count(table).max() <= 3


class TestStreams:
    def test_single_block(self):
        coded, n = encode_stream([1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1])
        assert coded.size == 23
        assert n == 12

    def test_padding_rule(self):
        coded, n = encode_stream(np.ones(13, dtype=np.uint8))
        assert coded.size == 46
        assert n == 13

    def test_empty_stream(self):
        coded, n = encode_stream([])
        assert coded.size == 0 and n == 0
        assert decode_stream([], 0).size == 0

    def test_zero_rows_keep_their_row_length(self):
        coded, n = encode_stream(np.zeros((0, 5), np.uint8))
        assert coded.shape == (0, 23) and n == 5
        assert decode_stream(np.zeros((0, 23), np.uint8), 5).shape == (0, 5)

    @pytest.mark.parametrize("bits", [[256] + [0] * 11, [0] * 11 + [-1], [0.5] + [0] * 11])
    def test_rejects_values_outside_bits(self, bits):
        # Checked before the cast to uint8, under which 256 would encode a 0.
        for func in (lambda b: encode_stream(b)[0],
                     lambda b: decode_stream(np.concatenate([b, np.zeros(11, int)]), 12)):
            with pytest.raises(ValueError, match="0 or 1"):
                func(np.array(bits))

    def test_clean_block_decodes_to_info_bits(self):
        msg = np.array([1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0], dtype=np.uint8)
        coded, n = encode_stream(msg)
        assert decode_stream(coded, n).tolist() == msg.tolist()

    @pytest.mark.parametrize("length", [1, 5, 12, 13, 24, 100, 997])
    def test_roundtrip_random_lengths(self, length):
        rng = np.random.default_rng(length)
        bits = rng.integers(0, 2, length).astype(np.uint8)
        coded, n = encode_stream(bits)
        assert np.array_equal(decode_stream(coded, n), bits)

    def test_roundtrip_with_three_flips_per_block(self):
        rng = np.random.default_rng(77)
        bits = rng.integers(0, 2, 480).astype(np.uint8)
        coded, n = encode_stream(bits)
        corrupted = coded.reshape(-1, 23)
        for row in corrupted:
            row[rng.choice(23, size=3, replace=False)] ^= 1
        assert np.array_equal(decode_stream(corrupted.ravel(), n), bits)

    @pytest.mark.parametrize("length", [1, 13, 24])
    def test_rows_are_independent_streams(self, length):
        rng = np.random.default_rng(length)
        bits = rng.integers(0, 2, (3, length)).astype(np.uint8)
        coded, n = encode_stream(bits)
        assert n == length
        assert np.array_equal(coded, np.stack([encode_stream(row)[0] for row in bits]))
        coded[:, ::5] ^= 1
        assert np.array_equal(decode_stream(coded, n),
                              np.stack([decode_stream(row, n) for row in coded]))

    def test_decode_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            decode_stream(np.zeros(24, dtype=np.uint8), 12)
        with pytest.raises(ValueError):
            decode_stream(np.zeros(23, dtype=np.uint8), 13)
