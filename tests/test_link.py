import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from dwtcdma import link
from dwtcdma.link import (
    LinkConfig,
    apply_awgn,
    channel_operators,
    link_operators,
    noise_sigma_for,
    run_link_once,
    spread_multiplex,
)
from dwtcdma.modem import demodulate, modulate
from dwtcdma.spreading import build_matrix, walsh_hadamard
from dwtcdma.wavelet import WaveletSpec


def despread(coefficients, spreading, user):
    """Reference despreader: correlate one user's code row, scaled as
    spread_multiplex scales it, against each coefficient group of the
    last axis."""
    sf = spreading.spreading_factor
    c = np.asarray(coefficients, dtype=np.complex128)
    return c.reshape(c.shape[:-1] + (-1, sf)) @ (spreading.rows[user] / np.sqrt(sf))


def config(family="wh", wavelet="haar", scheme="bpsk", users=7, coded=False,
           snr_db=300.0, sf=8):
    return LinkConfig(build_matrix(family, sf), WaveletSpec(wavelet), scheme,
                      users, coded, snr_db)


class TestSpreadMultiplex:
    def test_single_user_row_zero(self):
        sm = walsh_hadamard(8)
        coeffs = spread_multiplex(np.array([[1.0 + 0j]]), sm)
        assert np.allclose(coeffs[:8], 1 / np.sqrt(8))
        assert np.all(coeffs[8:] == 0) if coeffs.size > 8 else True
        assert coeffs.size == 8

    def test_two_user_roundtrip_exact(self):
        sm = walsh_hadamard(8)
        rng = np.random.default_rng(2)
        symbols = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        coeffs = spread_multiplex(symbols, sm)
        for k in range(2):
            assert np.allclose(despread(coeffs, sm, k), symbols[k], atol=1e-12)

    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    def test_seven_user_symbol_roundtrip(self, family):
        sm = build_matrix(family, 8)
        rng = np.random.default_rng(17)
        symbols = rng.standard_normal((7, 32)) + 1j * rng.standard_normal((7, 32))
        coeffs = spread_multiplex(symbols, sm)
        worst = max(
            float(np.max(np.abs(despread(coeffs, sm, k) - symbols[k])))
            for k in range(7)
        )
        assert worst < 1e-12

    def test_block_energy_preserved(self):
        sm = walsh_hadamard(8)
        rng = np.random.default_rng(3)
        symbols = rng.standard_normal((7, 32)) + 1j * rng.standard_normal((7, 32))
        coeffs = spread_multiplex(symbols, sm)
        assert abs(np.sum(np.abs(coeffs) ** 2) - np.sum(np.abs(symbols) ** 2)) < 1e-10

    def test_rejects_too_many_users(self):
        with pytest.raises(ValueError, match="users exceed"):
            spread_multiplex(np.ones((9, 2), dtype=complex), walsh_hadamard(8))


class TestDespread:
    """The reference despreader, which the operator and noise-law tests
    compare the link against, inverts spread_multiplex per user."""

    def test_all_zero_coefficients(self):
        assert np.all(despread(np.zeros(256, dtype=complex), walsh_hadamard(8), 3) == 0)

    def test_interferer_leaves_user_unchanged(self):
        sm = walsh_hadamard(8)
        rng = np.random.default_rng(4)
        own = rng.standard_normal((1, 32)) + 1j * rng.standard_normal((1, 32))
        interferer = rng.standard_normal((1, 32)) + 1j * rng.standard_normal((1, 32))
        alone = despread(spread_multiplex(own, sm), sm, 0)
        both = despread(spread_multiplex(np.vstack([own, interferer]), sm), sm, 0)
        assert np.max(np.abs(alone - both)) < 1e-12


class TestNoiseSigma:
    def test_high_snr_limit(self):
        cfg = config()
        assert noise_sigma_for(300.0, cfg, 1.0) < 1e-15
        assert noise_sigma_for(40.0, cfg, 1.0) < noise_sigma_for(0.0, cfg, 1.0)

    def test_rate_penalty_factor(self):
        uncoded = noise_sigma_for(5.0, config(coded=False), 1.0)
        coded = noise_sigma_for(5.0, config(coded=True), 1.0)
        assert coded**2 / uncoded**2 == pytest.approx(23 / 12, rel=1e-12)

    def test_bits_per_symbol_scaling(self):
        bpsk = noise_sigma_for(5.0, config(scheme="bpsk"), 1.0)
        qpsk = noise_sigma_for(5.0, config(scheme="qpsk"), 1.0)
        assert bpsk**2 / qpsk**2 == pytest.approx(2.0, rel=1e-12)

    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError, match="energy"):
            noise_sigma_for(5.0, config(), 0.0)
        with pytest.raises(ValueError):
            noise_sigma_for(float("inf"), config(), 1.0)

    def test_rejects_snr_whose_noise_overflows(self):
        # 10^308.1 is a float, but not 23/12 times it.
        assert noise_sigma_for(-3081.0, config(coded=False), 1.0) > 1e153
        with pytest.raises(ValueError, match="snr_db must be finite and not so low"):
            noise_sigma_for(-3081.0, config(coded=True), 1.0)
        with pytest.raises(ValueError, match="snr_db must be finite and not so low"):
            config(snr_db=-4000.0)

    def test_link_constants_computed_from_operator(self):
        # sigma and C_w are read by every chunk; they are the values the
        # chunk would compute from channel_operators.
        for wavelet in ("haar", "bior22"):
            cfg = config(wavelet=wavelet, users=5, coded=True, snr_db=4.0, scheme="dqpsk")
            energies, factor = channel_operators(cfg.spreading, cfg.wavelet)
            width = 5 * cfg.symbols_per_block
            assert cfg.noise_sigma == noise_sigma_for(4.0, cfg, float(np.mean(energies[:width])))
            if factor is None:
                assert cfg.noise_factor is None
            else:
                assert np.array_equal(cfg.noise_factor, factor[:width, :width])

    def test_orthonormal_links_take_the_closed_form(self):
        # Over haar and db2 every family sends unit energy per symbol, so
        # sigma depends on the bits per symbol and the code rate alone.
        sigmas = set()
        for family, wavelet, users, scheme, coded in itertools.product(
                ("wh", "gold", "gcs"), ("haar", "db2"), range(1, 9),
                ("bpsk", "qpsk", "dbpsk", "dqpsk"), (False, True)):
            cfg = config(family, wavelet, scheme, users, coded, 6.0)
            assert cfg.noise_sigma == noise_sigma_for(6.0, cfg, 1.0)
            sigmas.add(cfg.noise_sigma)
        assert len(sigmas) == 4

    def test_overflow_checked_at_the_links_own_eb(self):
        # 10^308.25 is a float: haar's Eb of 1 passes, bior22's mean symbol
        # energy of 1.12 (7 wh users) does not.
        assert config(snr_db=-3082.5).noise_sigma > 1e153
        with pytest.raises(ValueError, match="snr_db must be finite and not so low"):
            config(snr_db=-3082.5, wavelet="bior22")


class TestApplyAwgn:
    """The chain's noise stage: symbols (U, blocks*G) plus sigma z C_w."""

    @staticmethod
    def symbols(cfg, blocks, seed=30):
        n_bits = blocks * cfg.symbols_per_block * cfg.scheme.bits_per_symbol
        bits = np.random.default_rng(seed).integers(0, 2, (cfg.num_users, n_bits), dtype=np.uint8)
        return modulate(bits, cfg.scheme)

    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
    def test_one_draw_per_rail_of_each_despread_symbol(self, scheme, wavelet):
        # 3 users over 5 blocks of G = 32 slots: one (dims, 5, 96) draw.
        cfg = config(users=3, wavelet=wavelet, scheme=scheme, snr_db=3.0)
        symbols = self.symbols(cfg, 5)
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        received = apply_awgn(symbols, cfg, rng)
        twin.standard_normal((1 if scheme == "bpsk" else 2, 5, 96))
        assert rng.random() == twin.random()
        assert received.shape == symbols.shape and received.dtype == symbols.dtype

    def test_one_draw_is_real_parts_then_imaginary_parts(self):
        # Over haar C is the identity, so the noise is sigma z itself; slot
        # k*G + g of block b is user k's symbol b*G + g.
        cfg = config(users=3, scheme="qpsk", snr_db=3.0)
        symbols = self.symbols(cfg, 5)
        z = cfg.noise_sigma * np.random.default_rng(32).standard_normal((2, 5, 96))
        noise = z.reshape(2, 5, 3, 32).transpose(0, 2, 1, 3).reshape(2, 3, 160)
        received = apply_awgn(symbols, cfg, np.random.default_rng(32))
        assert np.array_equal(received.real, symbols.real + noise[0])
        assert np.array_equal(received.imag, symbols.imag + noise[1])

    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("users", range(1, 9))
    def test_coloured_noise_is_the_full_product(self, users, family):
        # Over bior22 the noise is sigma z @ C_w, bit for bit, in a short
        # chunk and in one of a 7-user BPSK point's size.
        cfg = config(family=family, users=users, wavelet="bior22", scheme="qpsk", snr_db=3.0)
        for blocks in (9, 172):
            symbols = self.symbols(cfg, blocks)
            z = cfg.noise_sigma * np.random.default_rng(33).standard_normal((2, blocks, users * 32))
            noise = (z @ cfg.noise_factor).reshape(2, blocks, users, 32).transpose(0, 2, 1, 3)
            received = apply_awgn(symbols, cfg, np.random.default_rng(33))
            assert np.array_equal(received.real, symbols.real + noise[0].reshape(users, -1))
            assert np.array_equal(received.imag, symbols.imag + noise[1].reshape(users, -1))

    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    def test_chunk_pair_places_one_draw_with_both_signs(self, wavelet):
        # The first chunk of a ChunkPair draws sigma z C_w as any chunk
        # does; its twin draws nothing and receives the symbols minus that
        # same noise, bit for bit.
        cfg = config(users=3, wavelet=wavelet, scheme="qpsk", snr_db=3.0)
        symbols = self.symbols(cfg, 9)
        z = cfg.noise_sigma * np.random.default_rng(34).standard_normal((2, 9, 96))
        if cfg.noise_factor is not None:
            z = z @ cfg.noise_factor
        noise = z.reshape(2, 9, 3, 32).transpose(0, 2, 1, 3).reshape(2, 3, -1)
        noise = noise[0] + 1j * noise[1]
        rng = np.random.default_rng(34)
        pair = link.ChunkPair(rng)
        first = apply_awgn(symbols, cfg, pair).copy()
        state = rng.bit_generator.state
        second = apply_awgn(symbols, cfg, pair)
        assert rng.bit_generator.state == state
        assert np.array_equal(first, symbols + noise)
        assert np.array_equal(second, symbols - noise)

    def test_sample_variance(self):
        cfg = config(users=7, scheme="qpsk", snr_db=3.0)
        received = apply_awgn(np.zeros((7, 32 * 2000), dtype=complex), cfg,
                              np.random.default_rng(6))
        assert np.var(received.real) == pytest.approx(cfg.noise_sigma**2, rel=0.01)
        assert np.var(received.imag) == pytest.approx(cfg.noise_sigma**2, rel=0.01)

    def test_deterministic_given_seed(self):
        cfg = config(users=3, wavelet="bior22", scheme="qpsk", snr_db=3.0)
        symbols = self.symbols(cfg, 4)
        # The result lives in scratch memory, which the next call reuses.
        a = apply_awgn(symbols, cfg, np.random.default_rng(7)).copy()
        b = apply_awgn(symbols, cfg, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestLinkConfig:
    def test_rejects_too_many_users(self):
        with pytest.raises(ValueError, match="num_users"):
            config(users=9)

    @pytest.mark.parametrize("users", [7.5, True, np.float64(3.0)])
    def test_rejects_non_integer_users(self, users):
        with pytest.raises(ValueError, match="num_users must be an integer"):
            config(users=users)

    @pytest.mark.parametrize("field, value, message", [
        ("coded", "no", "coded must be a bool"),
        ("snr_db", True, "snr_db must hold numbers"),
        ("snr_db", None, "snr_db must hold numbers"),
    ])
    def test_rejects_mistyped_scalars(self, field, value, message):
        # "no" would run a coded link, and True a link at 1 dB.
        with pytest.raises(ValueError, match=message):
            config(**{field: value})

    def test_reads_snr_text_as_sim_config_does(self):
        cfg = config(snr_db="5")
        assert cfg.snr_db == 5.0 and cfg.noise_sigma == config(snr_db=5.0).noise_sigma

    def test_accepts_numpy_integer_users(self):
        assert config(users=np.int64(3)).num_users == 3

    def test_rejects_incompatible_block(self):
        with pytest.raises(ValueError, match="divisible"):
            LinkConfig(walsh_hadamard(512), WaveletSpec("haar"), "bpsk", 1)

    def test_symbols_per_block(self):
        assert config(sf=8).symbols_per_block == 32
        assert config(sf=32, users=7).symbols_per_block == 8


class TestChannelOperators:
    @pytest.mark.parametrize("sf", [8, 32])
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "bior22"])
    def test_identity_factor_decided_from_operator(self, wavelet, family, sf):
        # An orthonormal filter bank makes R orthogonal, so C is the
        # identity, read from the bank and stored as None; bior22's R is
        # not orthogonal, and its factor is kept as a read-only
        # upper-triangular matrix.
        energies, factor = channel_operators(build_matrix(family, sf), WaveletSpec(wavelet))
        if wavelet == "bior22":
            assert factor.shape == (256, 256) and not factor.flags.writeable
            assert np.array_equal(factor, np.triu(factor))
            assert np.max(np.abs(factor - np.eye(256))) > 1e-12
        else:
            assert factor is None
            assert np.max(np.abs(energies - 1.0)) <= 1e-12

    @pytest.mark.parametrize("sf", [8, 32])
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "bior22"])
    def test_orthonormal_operators_are_exact(self, wavelet, family, sf):
        # An orthogonal operator sends exactly unit energy per symbol, so
        # haar and db2 give the same channel for every family.
        energies, factor = channel_operators(build_matrix(family, sf), WaveletSpec(wavelet))
        if wavelet == "bior22":
            assert factor is not None
        else:
            assert factor is None and np.array_equal(energies, np.ones(256))

    @pytest.mark.parametrize("sf", [8, 32])
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    def test_orthonormal_bank_builds_no_operator(self, monkeypatch, wavelet, family, sf):
        def unreachable(*args):
            raise AssertionError("an operator was built")

        monkeypatch.setattr(link, "_OPERATORS", {})
        monkeypatch.setattr(link, "link_operators", unreachable)
        energies, factor = channel_operators(build_matrix(family, sf), WaveletSpec(wavelet))
        assert factor is None and np.array_equal(energies, np.ones(256))
        assert not energies.flags.writeable

    @pytest.mark.parametrize("levels", [3, 8])
    @pytest.mark.parametrize("sf", [8, 32])
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    def test_orthonormal_bank_gives_orthogonal_operators(self, wavelet, family, sf, levels):
        # The premise channel_operators takes from the bank without
        # building anything: R^T R = I and T = R^T.
        synthesis, despreading = link_operators(build_matrix(family, sf),
                                                WaveletSpec(wavelet, levels=levels))
        assert np.max(np.abs(despreading.T @ despreading - np.eye(256))) <= 1e-12
        assert np.max(np.abs(synthesis - despreading.T)) <= 1e-12

    @pytest.mark.parametrize("levels", [3, 8])
    @pytest.mark.parametrize("sf", [8, 32])
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    def test_biorthogonal_constants_are_the_references(self, monkeypatch, family, sf, levels):
        # channel_operators frees each array of the cascade once it has
        # served; its constants stay exactly those of link_operators.
        monkeypatch.setattr(link, "_OPERATORS", {})
        spreading, wavelet = build_matrix(family, sf), WaveletSpec("bior22", levels=levels)
        energies, factor = channel_operators(spreading, wavelet)
        synthesis, despreading = link_operators(spreading, wavelet)
        assert np.array_equal(energies, np.einsum("ij,ij->i", synthesis, synthesis))
        assert np.array_equal(factor, np.linalg.cholesky(despreading.T @ despreading).T)

    def test_biorthogonal_build_memory(self, monkeypatch):
        # A 256 x 256 array takes 0.5 MiB.  Each freed once it has served,
        # they are never more than three at once, with one 128 x 256 level
        # matrix: 1.75 MiB.
        monkeypatch.setattr(link, "_OPERATORS", {})
        spreading, wavelet = build_matrix("gcs", 8), WaveletSpec("bior22")
        tracemalloc.start()
        try:
            channel_operators(spreading, wavelet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 2**20


class TestRunLinkOnce:
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_noiseless_roundtrip(self, family, scheme):
        cfg = config(family=family, scheme=scheme)
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, (7, 150), dtype=np.uint8)
        decoded, errors = run_link_once(bits, cfg, rng)
        assert errors == 0
        assert np.array_equal(decoded, bits)

    @pytest.mark.parametrize("wavelet", ["haar", "db2", "bior22"])
    @pytest.mark.parametrize("coded", [False, True])
    def test_noiseless_roundtrip_wavelets(self, wavelet, coded):
        cfg = config(wavelet=wavelet, coded=coded)
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, (7, 97), dtype=np.uint8)
        _, errors = run_link_once(bits, cfg, rng)
        assert errors == 0

    def test_single_user_odd_payload(self):
        cfg = config(users=1, scheme="qpsk", coded=True)
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, (1, 1), dtype=np.uint8)
        decoded, errors = run_link_once(bits, cfg, rng)
        assert errors == 0 and decoded.shape == (1, 1)

    def test_user_output_independent_of_interferers(self, monkeypatch):
        received = []
        demodulate = link.demodulate

        def capture(rx, scheme):
            received.append(rx[0].copy())
            return demodulate(rx, scheme)

        monkeypatch.setattr(link, "demodulate", capture)
        rng = np.random.default_rng(11)
        own = rng.integers(0, 2, (1, 200), dtype=np.uint8)

        def user_zero(cfg):
            runs = []
            for seed in (100, 101):
                other = np.random.default_rng(seed).integers(0, 2, (2, 200), dtype=np.uint8)
                decoded, _ = run_link_once(np.vstack([own, other]), cfg, np.random.default_rng(12))
                runs.append((decoded[0].copy(), received.pop()))
            return runs

        (first, _), (second, _) = user_zero(config(users=3))
        assert np.array_equal(first, second)
        assert np.array_equal(first, own[0])
        # With noise over bior22, whose symbol positions send unequal
        # energies, user 0 still receives bitwise the same symbols: the
        # noise level is a constant of the link, not of the payload.
        (_, first), (_, second) = user_zero(config(users=3, wavelet="bior22", snr_db=2.0))
        assert np.array_equal(first, second)

    def test_noise_draw_determinism(self):
        cfg = config(snr_db=3.0)
        bits = np.random.default_rng(13).integers(0, 2, (7, 300), dtype=np.uint8)
        d1, e1 = run_link_once(bits, cfg, np.random.default_rng(14))
        d2, e2 = run_link_once(bits, cfg, np.random.default_rng(14))
        assert e1 == e2 and np.array_equal(d1, d2)

    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    @pytest.mark.parametrize("scheme", ["bpsk", "dbpsk", "dqpsk"])
    def test_scratch_memory_carries_nothing_between_chunks(self, scheme, wavelet, monkeypatch):
        # The noise and the received symbols reuse scratch memory: a short
        # chunk after a long one gives what it gives in fresh memory.
        cfg = config(wavelet=wavelet, scheme=scheme, coded=True, snr_db=2.0)
        rng = np.random.default_rng(19)
        long, short = (rng.integers(0, 2, (7, n), dtype=np.uint8) for n in (600, 48))
        run_link_once(long, cfg, np.random.default_rng(20))
        scratch = link._scratch((1,))[0].base
        decoded, errors = run_link_once(short, cfg, np.random.default_rng(21))
        assert link._scratch((1,))[0].base is scratch
        monkeypatch.setattr(link, "_SCRATCH", threading.local())
        expected, expected_errors = run_link_once(short, cfg, np.random.default_rng(21))
        assert link._scratch((1,))[0].base is not scratch
        assert errors == expected_errors > 0 and np.array_equal(decoded, expected)

    @pytest.mark.parametrize("users", [1, 3, 7])
    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_noise_is_one_draw_per_despread_symbol(self, scheme, wavelet, users):
        # 100 symbols per user fill 4 blocks of G = 32 slots, so the chain
        # draws (dims, 4, users * 32) normals, not (dims, 4, 256): one real
        # dimension for BPSK, whose decision reads Re(y) alone, and two for
        # the schemes that read the imaginary part.
        cfg = config(users=users, wavelet=wavelet, scheme=scheme, snr_db=3.0)
        n_bits = 100 * cfg.scheme.bits_per_symbol
        bits = np.random.default_rng(17).integers(0, 2, (users, n_bits), dtype=np.uint8)
        rng, twin = np.random.default_rng(18), np.random.default_rng(18)
        run_link_once(bits, cfg, rng)
        twin.standard_normal((1 if scheme == "bpsk" else 2, 4, users * 32))
        assert rng.random() == twin.random()

    def test_coded_beats_uncoded_at_high_snr(self):
        rng_bits = np.random.default_rng(15)
        bits = rng_bits.integers(0, 2, (7, 4320), dtype=np.uint8)
        results = {}
        for coded in (False, True):
            cfg = config(coded=coded, snr_db=7.0)
            total = 0
            for trial in range(12):
                _, errors = run_link_once(bits, cfg, np.random.default_rng(500 + trial))
                total += errors
            results[coded] = total
        assert results[True] < results[False]

    def test_rejects_wrong_payload_shape(self):
        cfg = config(users=7)
        with pytest.raises(ValueError, match="info_bits"):
            run_link_once(np.zeros((3, 10), dtype=np.uint8), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="info_bits"):
            run_link_once(np.zeros((7, 0), dtype=np.uint8), cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("coded", [False, True])
    @pytest.mark.parametrize("payload", [[[257, 256, 1]], [[0, 2, 1]], [[0.5, 1.0, 0.0]]])
    def test_rejects_payload_values_outside_bits(self, coded, payload):
        # 256 and 257 must not wrap to 0 and 1 on the way to uint8.
        with pytest.raises(ValueError, match="0 or 1"):
            run_link_once(np.array(payload), config(users=1, coded=coded),
                          np.random.default_rng(0))
