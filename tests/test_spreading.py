import hashlib

import numpy as np
import pytest

from dwtcdma.spreading import (
    FAMILIES,
    PREFERRED_PAIRS,
    SpreadingMatrix,
    aperiodic_autocorr,
    build_matrix,
    correlation_value_bound,
    gold_family,
    golay_complementary_matrix,
    golay_pair_tree,
    lfsr_m_sequence,
    orthogonal_gold_matrix,
    periodic_crosscorr,
    verify_spreading_invariants,
    walsh_hadamard,
)


def brute_force_aperiodic(x, k):
    # Independent oracle: plain python sum.
    return sum(int(x[j]) * int(x[j + k]) for j in range(len(x) - k))


def brute_force_periodic(a, b, s):
    # Independent oracle: plain python sum over one period.
    return sum(int(a[j]) * int(b[(j + s) % len(b)]) for j in range(len(a)))


def gram(matrix):
    return matrix.rows @ matrix.rows.T


class TestWalshHadamard:
    def test_order_one(self):
        assert walsh_hadamard(1).rows.tolist() == [[1]]

    def test_order_two(self):
        assert walsh_hadamard(2).rows.tolist() == [[1, 1], [1, -1]]

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_gram_identity(self, n):
        m = walsh_hadamard(n)
        assert np.array_equal(gram(m), n * np.eye(n, dtype=np.int64))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_recursion_structure(self, n):
        big = walsh_hadamard(2 * n).rows
        assert np.array_equal(big[:n, :n], walsh_hadamard(n).rows)

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, -4])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            walsh_hadamard(bad)


class TestLfsrMSequence:
    def test_degree3_sequence_and_balance(self):
        # Oracle: a_n = a_{n-3} xor a_{n-2} from seed 0,0,1 gives
        # bits 0,0,1,0,1,1,1 -> chips +1,+1,-1,+1,-1,-1,-1.
        seq = lfsr_m_sequence([1, 1, 0, 1], [0, 0, 1])
        assert seq.tolist() == [1, 1, -1, 1, -1, -1, -1]
        assert np.count_nonzero(seq == -1) == 4
        assert np.count_nonzero(seq == 1) == 3

    @pytest.mark.parametrize("taps", [(1, 1, 0, 1), (1, 0, 1, 1)])
    def test_degree3_periodic_autocorrelation(self, taps):
        seq = lfsr_m_sequence(taps, [1, 1, 1])
        assert periodic_crosscorr(seq, seq)[1:].tolist() == [-1] * 6

    def test_degree5_length(self):
        assert len(lfsr_m_sequence([1, 0, 1, 0, 0, 1], [1] * 5)) == 31

    def test_rejects_all_zero_seed(self):
        with pytest.raises(ValueError, match="all-zero"):
            lfsr_m_sequence([1, 1, 0, 1], [0, 0, 0])

    def test_rejects_non_primitive_polynomial(self):
        # x^4 + x^2 + 1 = (x^2+x+1)^2 is not primitive.
        with pytest.raises(ValueError, match="not primitive"):
            lfsr_m_sequence([1, 0, 1, 0, 1], [0, 0, 0, 1])

    def test_rejects_malformed_taps(self):
        with pytest.raises(ValueError):
            lfsr_m_sequence([0, 1, 0, 1], [0, 0, 1])

    @pytest.mark.parametrize("taps, seed", [
        ((1, 1, 0, 1), (3, 0, 0)),
        ((1, 1, 0, 1), (0.7, 0, 1)),
        ((1, 1.5, 0, 1), (0, 0, 1)),
    ])
    def test_rejects_entries_other_than_bits(self, taps, seed):
        # A cast would run seed 3 as 1, 0.7 as 0 and tap 1.5 as 1.
        with pytest.raises(ValueError, match="0 and 1"):
            lfsr_m_sequence(taps, seed)


class TestGoldFamily:
    @staticmethod
    def family(m):
        u, v = (lfsr_m_sequence(t, [1] * m) for t in PREFERRED_PAIRS[m])
        return gold_family(u, v)

    def test_family_size_m5(self):
        fam = self.family(5)
        assert len(fam) == 33
        assert all(len(s) == 31 for s in fam)

    @pytest.mark.parametrize("m", [3, 5])
    def test_three_valued_cross_correlations(self, m):
        t = correlation_value_bound(m)
        allowed = {-1, -t, t - 2}
        fam = self.family(m)
        seen = {int(c) for i, a in enumerate(fam) for b in fam[i + 1:]
                for c in periodic_crosscorr(a, b)}
        assert seen <= allowed

    def test_bound_values(self):
        assert correlation_value_bound(3) == 5
        assert correlation_value_bound(5) == 9
        assert correlation_value_bound(6) == 17

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gold_family([1, -1, 1], [1, -1, 1, -1, 1, 1, -1])


class TestOrthogonalGold:
    @pytest.mark.parametrize("n", [8, 32])
    def test_gram_identity(self, n):
        m = orthogonal_gold_matrix(n)
        assert m.spreading_factor == n
        assert np.array_equal(gram(m), n * np.eye(n, dtype=np.int64))

    def test_sf16_unsupported(self):
        with pytest.raises(ValueError, match="degree 4"):
            orthogonal_gold_matrix(16)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            orthogonal_gold_matrix(12)


class TestGolayComplementary:
    def test_n2_rows_and_autocorr(self):
        m = golay_complementary_matrix(2)
        assert m.rows.tolist() == [[1, 1], [1, -1]]
        assert aperiodic_autocorr(m.rows[0])[1] + aperiodic_autocorr(m.rows[1])[1] == 0

    def test_n4_rows(self):
        rows = {tuple(r) for r in golay_complementary_matrix(4).rows.tolist()}
        assert rows == {(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (1, -1, -1, -1)}

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_pair_sums_vanish(self, n):
        for a, b in golay_pair_tree(n):
            for k in range(1, n):
                assert brute_force_aperiodic(a, k) + brute_force_aperiodic(b, k) == 0

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_gram_identity(self, n):
        m = golay_complementary_matrix(n)
        assert np.array_equal(gram(m), n * np.eye(n, dtype=np.int64))

    def test_rejects_small_or_odd(self):
        for bad in (0, 1, 3, 12):
            with pytest.raises(ValueError):
                golay_complementary_matrix(bad)


class TestCorrelations:
    def test_aperiodic_examples(self):
        assert aperiodic_autocorr([1, 1]).tolist() == [2, 1]
        assert aperiodic_autocorr([1, -1]).tolist() == [2, -1]
        assert aperiodic_autocorr([1, 1, 1, -1]).tolist() == [4, 1, 0, -1]

    def test_aperiodic_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.choice([-1, 1], size=17)
        assert aperiodic_autocorr(x).tolist() == [brute_force_aperiodic(x, k) for k in range(17)]

    def test_aperiodic_rejects_bad_lag(self):
        # The vector holds lags 0 ... n-1 only, and a lag argument is refused.
        assert len(aperiodic_autocorr([1, -1, 1])) == 3
        with pytest.raises(TypeError):
            aperiodic_autocorr([1, -1], 1)

    def test_periodic_matches_brute_force(self):
        rng = np.random.default_rng(4)
        a, b = rng.choice([-1, 1], size=(2, 13))
        assert periodic_crosscorr(a, b).tolist() == [brute_force_periodic(a, b, s)
                                                     for s in range(13)]

    def test_periodic_energy_at_zero_shift(self):
        seq = lfsr_m_sequence([1, 1, 0, 1], [1, 1, 1])
        assert periodic_crosscorr(seq, seq)[0] == 7

    def test_orthogonal_rows_zero_at_shift_zero(self):
        m = walsh_hadamard(8)
        assert periodic_crosscorr(m.rows[1], m.rows[5])[0] == 0

    def test_periodic_rejects_mismatch_and_bad_shift(self):
        with pytest.raises(ValueError):
            periodic_crosscorr([1, 1], [1, 1, -1])
        with pytest.raises(TypeError):
            periodic_crosscorr([1, 1], [1, -1], 2)

    def test_correlations_are_pure(self):
        x = lfsr_m_sequence([1, 0, 1, 0, 0, 1], [1] * 5)
        first = aperiodic_autocorr(x).tolist()
        second = aperiodic_autocorr(x).tolist()
        assert first == second


class TestMatrixValidationAndHelpers:
    def test_rejects_non_orthogonal_rows(self):
        with pytest.raises(ValueError, match="orthogonal"):
            SpreadingMatrix("wh", np.array([[1, 1], [1, 1]]))

    def test_rejects_non_chip_values(self):
        with pytest.raises(ValueError):
            SpreadingMatrix("wh", np.array([[1, 2], [1, -1]]))

    @pytest.mark.parametrize("entry", [1.5, -1.2, 1j])
    def test_chip_values_are_checked_before_the_cast(self, entry):
        # A cast to int64 first would read 1.5 as 1 and -1.2 as -1.
        with pytest.raises(ValueError, match="chip values"):
            SpreadingMatrix("wh", entry * walsh_hadamard(2).rows)
        with pytest.raises(ValueError, match="chip values"):
            aperiodic_autocorr([entry, -1])

    def test_caller_array_stays_writeable(self):
        h = np.array([[1, 1], [1, -1]])
        matrix = SpreadingMatrix("wh", h)
        assert h.flags.writeable and not matrix.rows.flags.writeable
        h[0, 0] = -1
        assert matrix.rows[0, 0] == 1

    def test_order_is_the_row_count(self):
        assert SpreadingMatrix("wh", walsh_hadamard(4).rows).spreading_factor == 4
        with pytest.raises(ValueError, match="square"):
            SpreadingMatrix("wh", walsh_hadamard(4).rows[:2])
        with pytest.raises(ValueError, match="square"):
            SpreadingMatrix("wh", [1, -1])

    def test_build_matrix_dispatch(self):
        assert FAMILIES == ("wh", "gold", "gcs")
        for family in FAMILIES:
            assert build_matrix(family, 8).family == family
        with pytest.raises(ValueError, match="unknown spreading family"):
            build_matrix("ovsf", 8)

    def test_build_matrix_memoised_and_read_only(self):
        first = build_matrix("gcs", 8)
        assert build_matrix("gcs", 8) is first
        with pytest.raises(ValueError, match="read-only"):
            first.rows[0, 0] = 1

    @pytest.mark.parametrize("n", [8.0, True])
    def test_build_matrix_checks_order_before_cache(self, n):
        # The cache compares 8.0 equal to 8 and True to 1, so a check
        # behind it would pass them once 8 or 1 had been built.
        build_matrix("wh", 8)
        build_matrix("wh", 1)
        with pytest.raises(ValueError, match="n must be an integer"):
            build_matrix("wh", n)

    def test_verify_invariants_all_pass(self):
        assert all(ok for _, ok, _ in verify_spreading_invariants())


# SHA-256 of each buildable chip matrix's little-endian int64 bytes.
MATRIX_DIGESTS = {
    ("wh", 1): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    ("wh", 2): "44e41c721ef7ad53582de3a2470e7bf6e74ea4471f54c42469817ef5844da195",
    ("wh", 4): "aa60fb6df530078eac7046de94dd6acfaf67c83ac155f77ae6b06e308b528d22",
    ("wh", 8): "5d6b6ffc8a5aca0cce07fe3aa8a0722a8bef21e28805479246232aa17a5c2abb",
    ("wh", 16): "a5d51a9007b290d37bd4ccd9a09e3c26c630bc5b0d5ee68ae24aa231d34af08e",
    ("wh", 32): "9d00b9c44ffc2bdd4ca515c288c0d35792ff13ba8079da005eea47945b528e3c",
    ("gcs", 2): "44e41c721ef7ad53582de3a2470e7bf6e74ea4471f54c42469817ef5844da195",
    ("gcs", 4): "1ffb93ebec83b4128705509ccb5cd8bd279a1dca314eeb0aa43f3845d6ab8d46",
    ("gcs", 8): "167e8a246e5409325d0633dd48c9c3eb2d7cec6f6595f7e8c90dd0ab5fb2abd7",
    ("gcs", 16): "8c5dd2b227eccc11cec33844a3d25c59bdf36b5d8170adbaaaede1f88e4e1377",
    ("gcs", 32): "7558438526b4a4e8674141e37a64e0562cc9fb7181b9df870dbdf81d16751b83",
    ("gold", 8): "b931b97597ffe0eb2a3a963ab220cbcb6bf83f88933a3818342449a631b96269",
    ("gold", 32): "4dc754b857142e21a744afeb1b6f23750d82c84c4a8473e8a70778edbeaf510f",
}


class TestPinnedOutputs:
    """Every chip matrix and every self-check row, pinned byte for byte."""

    @pytest.mark.parametrize("family, n", sorted(MATRIX_DIGESTS))
    def test_matrix_digest(self, family, n):
        rows = np.ascontiguousarray(build_matrix(family, n).rows, dtype="<i8")
        assert hashlib.sha256(rows.tobytes()).hexdigest() == MATRIX_DIGESTS[family, n]

    def test_self_check_rows(self):
        rows = verify_spreading_invariants()
        assert all(type(ok) is bool for _, ok, _ in rows)
        assert rows == [
            ("gram wh N=2", True, "N*I exact"),
            ("gram gcs N=2", True, "N*I exact"),
            ("gram wh N=4", True, "N*I exact"),
            ("gram gcs N=4", True, "N*I exact"),
            ("gram wh N=8", True, "N*I exact"),
            ("gram gcs N=8", True, "N*I exact"),
            ("gram wh N=16", True, "N*I exact"),
            ("gram gcs N=16", True, "N*I exact"),
            ("gram wh N=32", True, "N*I exact"),
            ("gram gcs N=32", True, "N*I exact"),
            ("gram gold N=8", True, "N*I exact"),
            ("gram gold N=32", True, "N*I exact"),
            ("complementary pair sums N=2", True, "max |R_a+R_b| = 0"),
            ("complementary pair sums N=4", True, "max |R_a+R_b| = 0"),
            ("complementary pair sums N=8", True, "max |R_a+R_b| = 0"),
            ("complementary pair sums N=16", True, "max |R_a+R_b| = 0"),
            ("complementary pair sums N=32", True, "max |R_a+R_b| = 0"),
            ("m-sequence autocorrelation m=3", True, "-1 at all nonzero shifts"),
            ("gold cross-correlation values m=3", True, "observed [-5, -1, 3]"),
            ("m-sequence autocorrelation m=5", True, "-1 at all nonzero shifts"),
            ("gold cross-correlation values m=5", True, "observed [-9, -1, 7]"),
        ]
