import itertools
import zlib

import numpy as np
import pytest

from dwtcdma.modem import SCHEMES, bits_per_symbol, demodulate, get_scheme, modulate


class TestMappings:
    def test_bpsk_mapping(self):
        # Symbols carry the rails their detector reads: BPSK's real part
        # alone, both parts for the others.
        symbols = modulate([0, 1], "bpsk")
        assert symbols.dtype == np.float64 and symbols.tolist() == [1.0, -1.0]
        for name in ("qpsk", "dbpsk", "dqpsk"):
            assert modulate([0, 1], name).dtype == np.complex128

    def test_dbpsk_example(self):
        # Differential rule from reference +1: 0 keeps, 1 flips.
        assert modulate([0, 1, 1], "dbpsk").tolist() == [1 + 0j, -1 + 0j, 1 + 0j]

    def test_qpsk_points_distinct_unit_and_gray(self):
        points = {}
        for b0, b1 in itertools.product((0, 1), repeat=2):
            sym = modulate([b0, b1], "qpsk")[0]
            assert abs(abs(sym) - 1) < 1e-12
            points[(b0, b1)] = sym
        assert len(set(points.values())) == 4
        # Adjacent constellation points (90 degrees apart) differ in one bit.
        for (p1, s1), (p2, s2) in itertools.combinations(points.items(), 2):
            if abs(s1 * np.conj(s2) - 1j) < 1e-12 or abs(s1 * np.conj(s2) + 1j) < 1e-12:
                assert sum(a != b for a, b in zip(p1, p2)) == 1

    def test_dqpsk_increments_are_gray(self):
        ref = (1 + 1j) / np.sqrt(2)
        for (b0, b1), (c0, c1) in itertools.combinations(itertools.product((0, 1), repeat=2), 2):
            z1 = modulate([b0, b1], "dqpsk")[0] * np.conj(ref)
            z2 = modulate([c0, c1], "dqpsk")[0] * np.conj(ref)
            if abs(z1 * np.conj(z2) - 1j) < 1e-12 or abs(z1 * np.conj(z2) + 1j) < 1e-12:
                assert (b0 != c0) + (b1 != c1) == 1

    def test_bits_per_symbol(self):
        assert bits_per_symbol("bpsk") == 1
        assert bits_per_symbol("qpsk") == 2
        assert bits_per_symbol("dbpsk") == 1
        assert bits_per_symbol("dqpsk") == 2

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown modulation"):
            get_scheme("8psk")

    def test_indivisible_bit_count_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            modulate([0, 1, 1], "qpsk")


class TestRoundTrips:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_exhaustive_short_patterns(self, name):
        bps = SCHEMES[name].bits_per_symbol
        for length in range(bps, 13, bps):
            for value in range(1 << length):
                bits = [(value >> i) & 1 for i in range(length)]
                assert demodulate(modulate(bits, name), name).tolist() == bits

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_long_random_stream(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        bits = rng.integers(0, 2, 10_000)
        # Every input dtype round-trips: 1 - 2*b must not wrap on uint8.
        for dtype in (np.int64, np.uint8, bool):
            assert np.array_equal(demodulate(modulate(bits.astype(dtype), name), name), bits)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_rows_are_independent_streams(self, name):
        # Each row is its own stream with its own differential reference;
        # row 0 ends its phase chain away from the reference, so a chain
        # carried over into row 1 would show.
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2, (3, 8 * SCHEMES[name].bits_per_symbol))
        bits[0] = 0
        bits[0, 0] = 1
        symbols = modulate(bits, name)
        assert np.array_equal(symbols, np.stack([modulate(row, name) for row in bits]))
        noisy = symbols + 0.4 * rng.standard_normal(symbols.shape)
        assert np.array_equal(demodulate(noisy, name),
                              np.stack([demodulate(row, name) for row in noisy]))

    def test_dqpsk_worked_example(self):
        bits = [0, 0, 1, 1, 1, 0]
        assert demodulate(modulate(bits, "dqpsk"), "dqpsk").tolist() == bits

    def test_bpsk_noisy_decision(self):
        assert demodulate(np.array([-0.3 + 0.1j]), "bpsk").tolist() == [1]

    def test_empty_streams(self):
        for name in SCHEMES:
            assert modulate([], name).size == 0
            assert demodulate([], name).size == 0


class TestEnergyAndRotation:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_unit_symbol_energy(self, name):
        rng = np.random.default_rng(13)
        sym = modulate(rng.integers(0, 2, 2000), name)
        assert np.max(np.abs(np.abs(sym) - 1.0)) < 1e-12

    @pytest.mark.parametrize("name", ["dbpsk", "dqpsk"])
    def test_small_rotation_tolerated_exactly(self, name):
        rng = np.random.default_rng(29)
        bits = rng.integers(0, 2, 2000)
        rotated = np.exp(0.2j) * modulate(bits, name)
        assert np.array_equal(demodulate(rotated, name), bits)

    @pytest.mark.parametrize("name,theta", [("dbpsk", np.pi), ("dqpsk", np.pi / 2),
                                            ("dqpsk", np.pi), ("dqpsk", 3 * np.pi / 2)])
    def test_sector_rotation_affects_first_symbol_only(self, name, theta):
        # The reference symbol is implicit, so a rotation by a whole
        # decision sector is indistinguishable from different first-symbol
        # bits; every later decision cancels the rotation exactly.
        rng = np.random.default_rng(31)
        bps = SCHEMES[name].bits_per_symbol
        bits = rng.integers(0, 2, 400 * bps)
        recovered = demodulate(np.exp(1j * theta) * modulate(bits, name), name)
        assert np.array_equal(recovered[bps:], bits[bps:])
        assert not np.array_equal(recovered[:bps], bits[:bps])

    @pytest.mark.parametrize("name", ["dbpsk", "dqpsk"])
    def test_full_turn_rotation_exact(self, name):
        rng = np.random.default_rng(37)
        bits = rng.integers(0, 2, 1000)
        rotated = np.exp(2j * np.pi) * modulate(bits, name)
        assert np.array_equal(demodulate(rotated, name), bits)


class TestDifferentialNoisePenalty:
    def test_dbpsk_worse_than_bpsk_at_equal_ebn0(self):
        # Symbol-level channel comparison: the differential detector uses
        # two noisy symbols per decision, the coherent one only one.
        rng = np.random.default_rng(41)
        n = 200_000
        ebn0 = 10 ** (4 / 10)
        sigma = np.sqrt(1 / (2 * ebn0))
        bits = rng.integers(0, 2, n)
        errors = {}
        for name in ("bpsk", "dbpsk"):
            sym = modulate(bits, name)
            noisy = sym + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            errors[name] = int(np.count_nonzero(demodulate(noisy, name) != bits))
        assert errors["dbpsk"] > errors["bpsk"] > 0
