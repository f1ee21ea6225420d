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
        for k in range(1, 7):
            assert periodic_crosscorr(seq, seq, k) == -1

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
        period = (1 << m) - 1
        seen = set()
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                for s in range(period):
                    seen.add(periodic_crosscorr(fam[i], fam[j], s))
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
        assert aperiodic_autocorr(m.rows[0], 1) + aperiodic_autocorr(m.rows[1], 1) == 0

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
        assert aperiodic_autocorr([1, 1], 0) == 2
        assert aperiodic_autocorr([1, 1], 1) == 1
        assert aperiodic_autocorr([1, -1], 1) == -1
        assert aperiodic_autocorr([1, 1, 1, -1], 2) == 0

    def test_aperiodic_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.choice([-1, 1], size=17)
        for k in range(17):
            assert aperiodic_autocorr(x, k) == brute_force_aperiodic(x, k)

    def test_aperiodic_rejects_bad_lag(self):
        for k in (-1, 2, 7):
            with pytest.raises(ValueError):
                aperiodic_autocorr([1, -1], k)

    def test_periodic_energy_at_zero_shift(self):
        seq = lfsr_m_sequence([1, 1, 0, 1], [1, 1, 1])
        assert periodic_crosscorr(seq, seq, 0) == 7

    def test_orthogonal_rows_zero_at_shift_zero(self):
        m = walsh_hadamard(8)
        assert periodic_crosscorr(m.rows[1], m.rows[5], 0) == 0

    def test_periodic_rejects_mismatch_and_bad_shift(self):
        with pytest.raises(ValueError):
            periodic_crosscorr([1, 1], [1, 1, -1], 0)
        with pytest.raises(ValueError):
            periodic_crosscorr([1, 1], [1, -1], 2)

    def test_correlations_are_pure(self):
        x = lfsr_m_sequence([1, 0, 1, 0, 0, 1], [1] * 5)
        first = [aperiodic_autocorr(x, k) for k in range(31)]
        second = [aperiodic_autocorr(x, k) for k in range(31)]
        assert first == second


class TestMatrixValidationAndHelpers:
    def test_rejects_non_orthogonal_rows(self):
        with pytest.raises(ValueError, match="orthogonal"):
            SpreadingMatrix("wh", 2, np.array([[1, 1], [1, 1]]))

    def test_rejects_non_chip_values(self):
        with pytest.raises(ValueError):
            SpreadingMatrix("wh", 2, np.array([[1, 2], [1, -1]]))

    def test_build_matrix_dispatch(self):
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
