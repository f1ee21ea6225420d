import itertools
import threading

import numpy as np
import pytest

from dwtcdma import link
from dwtcdma.link import (
    LinkConfig,
    apply_awgn,
    channel_operators,
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
           snr_db=300.0, sf=8, total_power=False):
    return LinkConfig(build_matrix(family, sf), WaveletSpec(wavelet), scheme,
                      users, coded, snr_db, total_power)


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
    def test_zero_sigma_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.array_equal(apply_awgn(x, 0.0, rng), x)

    def test_sample_variance(self):
        rng = np.random.default_rng(6)
        x = np.zeros(1_000_000, dtype=complex)
        noisy = apply_awgn(x, 0.7, rng)
        assert np.var(noisy.real) == pytest.approx(0.49, rel=0.01)
        assert np.var(noisy.imag) == pytest.approx(0.49, rel=0.01)

    def test_deterministic_given_seed(self):
        x = np.ones(100, dtype=complex)
        a = apply_awgn(x, 0.3, np.random.default_rng(7))
        b = apply_awgn(x, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_equals_noise_helper_halves(self):
        x = np.arange(6, dtype=complex).reshape(2, 3)
        noise = 0.3 * np.random.default_rng(7).standard_normal((2, *x.shape))
        assert np.array_equal(apply_awgn(x, 0.3, np.random.default_rng(7)),
                              x + (noise[0] + 1j * noise[1]))

    def test_one_draw_is_real_parts_then_imaginary_parts(self):
        rng = np.random.default_rng(8)
        separate = [rng.standard_normal(50), rng.standard_normal(50)]
        noisy = apply_awgn(np.zeros(50, dtype=complex), 1.0, np.random.default_rng(8))
        assert np.array_equal([noisy.real, noisy.imag], separate)

    def test_rejects_negative_sigma(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
                apply_awgn(np.zeros(4, dtype=complex), sigma, np.random.default_rng(0))


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
        ("total_power", "yes", "total_power must be a bool"),
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
            LinkConfig(walsh_hadamard(8), WaveletSpec("haar", 4, 2), "bpsk", 1)

    def test_symbols_per_block(self):
        assert config(sf=8).symbols_per_block == 32
        assert config(sf=32, users=7).symbols_per_block == 8


class TestChannelOperators:
    @pytest.mark.parametrize("sf", [8, 32])
    @pytest.mark.parametrize("family", ["wh", "gold", "gcs"])
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "bior22"])
    def test_identity_factor_decided_from_operator(self, wavelet, family, sf):
        # The orthonormal wavelets keep R^T R = I, so C is the identity and
        # is stored as None; bior22's R is not orthogonal, and its factor
        # is kept as a read-only upper-triangular matrix.
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

    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_total_power_chunk_replays_by_hand(self, scheme, wavelet):
        # Total power scales the noise std by sqrt(U) in place of the
        # symbols by 1/sqrt(U).  Every detector is a sign test, so the link
        # decides what symbols / sqrt(U) + sigma z decides, with sigma the
        # per-user std and z the link's own draw (see the module docstring).
        users, blocks = 4, 8
        cfg = config(users=users, wavelet=wavelet, scheme=scheme, snr_db=3.0, total_power=True)
        group, width = cfg.symbols_per_block, users * cfg.symbols_per_block
        n_bits = blocks * group * cfg.scheme.bits_per_symbol
        bits = np.random.default_rng(22).integers(0, 2, (users, n_bits), dtype=np.uint8)
        decoded, errors = run_link_once(bits, cfg, np.random.default_rng(23))

        energies, factor = channel_operators(cfg.spreading, cfg.wavelet)
        sigma = noise_sigma_for(3.0, cfg, float(np.mean(energies[:width])))
        symbols = modulate(bits, cfg.scheme)
        dims = 2 if np.iscomplexobj(symbols) else 1
        noise = sigma * np.random.default_rng(23).standard_normal((dims, blocks, width))
        if factor is not None:
            noise = noise @ factor[:width, :width]
        noise = noise.reshape(dims, blocks, users, group).transpose(0, 2, 1, 3)
        noise = noise.reshape(dims, users, -1)
        received = symbols * (1 / np.sqrt(users)) + (noise[0] if dims == 1
                                                     else noise[0] + 1j * noise[1])
        assert errors > 0 and np.array_equal(decoded, demodulate(received, cfg.scheme))

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

    def test_total_power_mode_scales_noise_share(self):
        # With total power fixed, 7 users at 0 dB see much more noise per
        # user than a single user does.
        errors = {}
        for users in (1, 7):
            cfg = config(users=users, snr_db=0.0, total_power=True)
            rng = np.random.default_rng(16)
            bits = rng.integers(0, 2, (users, 3000), dtype=np.uint8)
            _, err = run_link_once(bits, cfg, rng)
            errors[users] = err / bits.size
        assert errors[7] > 2 * errors[1]
