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

    def test_dqpsk_matches_symbol_by_symbol_reference(self):
        # Each symbol turns the previous one by the Gray-coded quarter
        # turns of its bit pair.  The all-(1, 0) row adds 3 turns a symbol,
        # so a running turn count held in 8 bits wraps after 86 symbols.
        turns = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}
        rows = np.stack([np.random.default_rng(3).integers(0, 2, 2000),
                         np.tile([1, 0], 1000)])
        expected = []
        for row in rows.tolist():
            symbol, out = (1 + 1j) / np.sqrt(2), []
            for pair in zip(row[::2], row[1::2]):
                symbol *= 1j ** turns[pair]
                out.append(symbol)
            expected.append(out)
        assert np.array_equal(modulate(rows, "dqpsk"), expected)

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
            # Zero rows keep their row length.
            bps = SCHEMES[name].bits_per_symbol
            assert modulate(np.zeros((0, 4), dtype=np.uint8), name).shape == (0, 4 // bps)
            assert demodulate(np.zeros((0, 4), dtype=complex), name).shape == (0, 4 * bps)


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


def angle_decisions(symbols, name):
    """Differential decisions from the rounded angle of r[n] conj(r[n-1]),
    the reference for the sign tests of demodulate."""
    r = np.atleast_2d(np.asarray(symbols, dtype=np.complex128))
    ref = 1.0 if name == "dbpsk" else (1 + 1j) / np.sqrt(2)
    prev = np.concatenate([np.full((len(r), 1), ref), r[:, :-1]], axis=1)
    products = r * np.conj(prev)
    if name == "dbpsk":
        return (products.real < 0).astype(np.uint8)
    turns = np.round(np.angle(products) / (np.pi / 2)).astype(np.int64) % 4
    gray = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)  # turn -> (b0, b1)
    return gray[turns].reshape(len(r), -1)


class TestSignTestDetector:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["dbpsk", "dqpsk"])
    def test_noisy_rows_match_rounded_angle(self, name, seed):
        rng = np.random.default_rng(seed)
        bps = SCHEMES[name].bits_per_symbol
        for rows in range(1, 8):
            for length in (1, 2, 3, 64, 1000):
                bits = rng.integers(0, 2, (rows, length * bps))
                noise = rng.standard_normal((2, rows, length))
                noisy = modulate(bits, name) + 0.8 * (noise[0] + 1j * noise[1])
                decided = demodulate(noisy, name)
                assert decided.shape == bits.shape and decided.dtype == np.uint8
                assert np.array_equal(decided, angle_decisions(noisy, name))
                assert np.count_nonzero(decided != bits) > 0 or length < 64

    def test_tie_decides_zero(self):
        # p = -1 + 1j lies at exactly 3*pi/4, on the boundary of b0: the
        # sign test decides b0 = 0, where the rounded angle (1.5 turns,
        # rounded half to even) decided the pi turn (1, 1).
        symbols = np.array([1 + 0j, -1 + 1j])
        assert angle_decisions(symbols, "dqpsk")[0, 2:].tolist() == [1, 1]
        assert demodulate(symbols, "dqpsk")[2:].tolist() == [0, 1]
        # Re p = 0 decides 0 for DBPSK.
        assert demodulate(np.array([1 + 0j, 1j]), "dbpsk").tolist() == [0, 0]


# The per-scheme modem that the table modem replaced, kept as the
# bit-exact reference for modulate and demodulate.
_REF_SQRT2 = np.sqrt(2.0)
_REF_DQPSK = (1 + 1j) / _REF_SQRT2


def reference_modulate(bits, name):
    b = np.atleast_1d(np.asarray(bits)).astype(np.uint8)
    if name == "bpsk":
        symbols = b * -2.0
        symbols += 1.0
        return symbols
    if name == "dbpsk":
        return np.array([1, -1], dtype=np.complex128).take(np.bitwise_xor.accumulate(b, axis=-1))
    b0, b1 = b[..., 0::2], b[..., 1::2]
    if name == "qpsk":
        return ((1.0 - 2.0 * b0) + 1j * (1.0 - 2.0 * b1)) / _REF_SQRT2
    turns = b0 ^ b1
    turns += b0
    turns += b0
    np.cumsum(turns, axis=-1, dtype=np.uint8, out=turns)
    turns &= 3
    return (_REF_DQPSK * np.array([1, 1j, -1, -1j], dtype=np.complex128)).take(turns)


def reference_demodulate(symbols, name):
    if name == "bpsk":
        return (np.atleast_1d(np.asarray(symbols)).real < 0).view(np.uint8)
    r = np.atleast_1d(np.asarray(symbols, dtype=np.complex128))
    lead = r.shape[:-1]
    if name == "qpsk":
        return np.stack([r.real < 0, r.imag < 0], axis=-1).astype(np.uint8).reshape(lead + (-1,))
    if r.shape[-1] == 0:
        return np.zeros(r.shape, dtype=np.uint8)
    ref = 1 + 0j if name == "dbpsk" else _REF_DQPSK
    x, y = r.real, r.imag
    now, before = (..., slice(1, None)), (..., slice(None, -1))
    re = np.empty(r.shape)
    re[..., 0] = x[..., 0] * ref.real + y[..., 0] * ref.imag
    re[now] = x[now] * x[before] + y[now] * y[before]
    if name == "dbpsk":
        return np.less(re, 0).view(np.uint8)
    im = np.empty(r.shape)
    im[..., 0] = y[..., 0] * ref.real - x[..., 0] * ref.imag
    im[now] = y[now] * x[before] - x[now] * y[before]
    pairs = np.left_shift(np.less(re, im).view(np.uint8), 8, dtype="<u2")
    pairs |= np.less(re + im, 0).view(np.uint8)
    return pairs.view(np.uint8).reshape(lead + (-1,))


class TestTableModemMatchesReference:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_symbols_bit_identical(self, name):
        # Compared as raw 64-bit words, so a -0.0/+0.0 swap would show.
        rng = np.random.default_rng(zlib.crc32(name.encode()) + 1)
        bps = SCHEMES[name].bits_per_symbol
        for rows in range(1, 8):
            for length in (0, 1, 3, 64, 1000):
                bits = rng.integers(0, 2, (rows, length * bps), dtype=np.uint8)
                symbols, expected = modulate(bits, name), reference_modulate(bits, name)
                assert symbols.dtype == expected.dtype and symbols.shape == expected.shape
                assert np.array_equal(symbols.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_noisy_decisions_identical(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()) + 2)
        bps = SCHEMES[name].bits_per_symbol
        for rows in range(1, 8):
            for length in (0, 1, 3, 64, 1000):
                symbols = modulate(rng.integers(0, 2, (rows, length * bps)), name)
                noisy = symbols + 0.8 * rng.standard_normal(symbols.shape)
                if symbols.dtype == np.complex128:
                    noisy = noisy + 0.8j * rng.standard_normal(symbols.shape)
                decided = demodulate(noisy, name)
                assert decided.dtype == np.uint8
                assert np.array_equal(decided, reference_demodulate(noisy, name))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_tie_decisions_identical(self, name):
        # Products and rails exactly on a decision boundary, signed zeros
        # included, and the ties of TestSignTestDetector.
        ties = [np.array([1 + 0j, -1 + 1j]), np.array([1 + 0j, 1j]),
                np.array([0.0, -0.0, 0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0)]),
                np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j, 0j, 1 + 1j])]
        for symbols in ties:
            assert np.array_equal(demodulate(symbols, name), reference_demodulate(symbols, name))


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
