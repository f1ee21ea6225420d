"""Property tests of the link chain over random valid configurations.

Each draw picks a spreading family and factor, a user count, a modem, a
wavelet and cascade depth, and a payload length (including 1 and lengths
that are not multiples of 12).  Examples are derandomized so the suite
stays deterministic.

The law tests compare the sample covariance of despread noise with its
claimed value entry by entry.  For n zero-mean Gaussian samples the
entry (i, j) of the sample covariance has standard error
sqrt((S_ii S_jj + S_ij^2) / n); the tests bound the largest of the
w (w + 1) / 2 standardized deviations (4656 entries at w = 96) by 6,
which a correct law exceeds with probability below 4656 * 2 * Phi(-6)
= 1e-5, while white noise in place of the biorthogonal law misses by
more than 50 at these sample sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwtcdma import link
from dwtcdma.link import (
    LinkConfig,
    channel_operators,
    link_operators,
    noise_sigma_for,
    run_link_once,
    spread_multiplex,
)
from dwtcdma.modem import SCHEMES, modulate
from dwtcdma.sim import SimConfig, run_sweep
from dwtcdma.spreading import FAMILIES, build_matrix
from dwtcdma.wavelet import FAMILY_TOKENS, WaveletSpec, dwt_forward, dwt_inverse
from test_link import despread

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
NOISELESS_DB = 300.0
LAW_MAX_DEVIATION = 6.0
SPREADING_FACTORS = {"wh": (2, 4, 8, 16, 32), "gold": (8, 32), "gcs": (2, 4, 8, 16, 32)}


@st.composite
def spreading_matrices(draw):
    family = draw(st.sampled_from(FAMILIES))
    return build_matrix(family, draw(st.sampled_from(SPREADING_FACTORS[family])))


@st.composite
def link_configs(draw):
    spreading = draw(spreading_matrices())
    users = draw(st.integers(1, spreading.spreading_factor))
    wavelet = WaveletSpec(draw(st.sampled_from(FAMILY_TOKENS)), levels=draw(st.integers(1, 8)))
    return LinkConfig(spreading, wavelet, draw(st.sampled_from(sorted(SCHEMES))),
                      users, draw(st.booleans()), NOISELESS_DB)


payload_lengths = st.one_of(st.just(1), st.integers(1, 300))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY_SETTINGS
@given(config=link_configs(), blocks=st.integers(1, 3))
def test_operators_match_cascade(config, blocks):
    spreading, wavelet, users = config.spreading, config.wavelet, config.num_users
    group = config.symbols_per_block
    synthesis, despreading = link_operators(spreading, wavelet)
    rng = np.random.default_rng(users * 1000 + blocks)

    symbols = _complex(rng, (blocks, users, group))
    cascade_tx = np.stack([dwt_inverse(spread_multiplex(s, spreading), wavelet) for s in symbols])
    flat = symbols.reshape(blocks, users * group)
    t = synthesis[: users * group]
    fused_tx = flat.real @ t + 1j * (flat.imag @ t)
    assert np.max(np.abs(fused_tx - cascade_tx)) <= 1e-12

    rx = _complex(rng, (blocks, wavelet.block_size))
    coeffs = dwt_forward(rx, wavelet)
    cascade_rx = np.stack([despread(coeffs, spreading, k) for k in range(users)], axis=1)
    r = despreading[:, : users * group]
    fused_rx = rx.real @ r + 1j * (rx.imag @ r)
    assert np.max(np.abs(fused_rx.reshape(blocks, users, group) - cascade_rx)) <= 1e-12


@PROPERTY_SETTINGS
@given(config=link_configs())
def test_channel_operators_are_leading_blocks(config):
    spreading, wavelet = config.spreading, config.wavelet
    width = config.num_users * config.symbols_per_block
    synthesis, despreading = link_operators(spreading, wavelet)
    energies, factor = channel_operators(spreading, wavelet)
    assert np.max(np.abs(synthesis @ despreading - np.eye(len(synthesis)))) <= 1e-12

    # channel_operators returns None for C only where C is the identity.
    c = np.eye(width) if factor is None else factor[:width, :width]
    t, r = synthesis[:width], despreading[:, :width]
    assert np.max(np.abs(energies[:width] - np.diag(t @ t.T))) <= 1e-12
    assert np.max(np.abs(c.T @ c - r.T @ r)) <= 1e-12
    if wavelet.family in ("haar", "db2"):  # orthonormal: every symbol sends unit energy
        assert np.max(np.abs(energies - 1.0)) <= 1e-12


def _max_law_deviation(noise, covariance):
    """Largest standardized deviation of the sample covariance of the rows
    of the real and imaginary parts of noise (of real noise, its rows) from
    covariance."""
    samples = np.concatenate([noise.real, noise.imag]) if np.iscomplexobj(noise) else noise
    n = len(samples)
    diagonal = np.diag(covariance)
    standard_error = np.sqrt((np.outer(diagonal, diagonal) + covariance**2) / n)
    return float(np.max(np.abs(samples.T @ samples / n - covariance) / standard_error))


def test_cascade_noise_law_matches_factor():
    """Noise through the reference cascade (spread, inverse DWT, AWGN,
    forward DWT, despread) at bior22 with 3 users has covariance
    sigma^2 C_w^T C_w."""
    spreading, wavelet, users, sigma = build_matrix("wh", 8), WaveletSpec("bior22"), 3, 0.6
    group = wavelet.block_size // 8
    rng = np.random.default_rng(2024)
    symbols = _complex(rng, (4000, users, group))
    tx = dwt_inverse(np.stack([spread_multiplex(s, spreading) for s in symbols]), wavelet)
    awgn = sigma * rng.standard_normal((2, *tx.shape))  # real parts, then imaginary parts
    coeffs = dwt_forward(tx + (awgn[0] + 1j * awgn[1]), wavelet)
    rx = np.stack([despread(coeffs, spreading, k) for k in range(users)], axis=1)

    c = channel_operators(spreading, wavelet)[1][: users * group, : users * group]
    covariance = sigma**2 * c.T @ c
    noise = (rx - symbols).reshape(len(symbols), -1)
    assert _max_law_deviation(noise, covariance) <= LAW_MAX_DEVIATION
    assert _max_law_deviation(noise, sigma**2 * np.eye(len(c))) > 4 * LAW_MAX_DEVIATION


def test_link_noise_law_matches_reference(monkeypatch):
    """run_link_once at bior22 with 3 users: the despread symbols it
    detects are the sent ones plus noise of covariance sigma^2 R_w^T R_w
    per real dimension, with sigma set by the expected energy per symbol
    of the reference T, ||T_w||_F^2 / w.  BPSK receives the real part
    alone, as a real array."""
    for scheme in ("qpsk", "bpsk"):
        assert _link_noise_deviation(monkeypatch, scheme) <= LAW_MAX_DEVIATION


def _link_noise_deviation(monkeypatch, scheme):
    cfg = LinkConfig(build_matrix("wh", 8), WaveletSpec("bior22"), scheme, 3, False, 2.0)
    group = cfg.symbols_per_block
    width = cfg.num_users * group
    rng = np.random.default_rng(7)
    n_bits = cfg.scheme.bits_per_symbol * group * 4000
    bits = rng.integers(0, 2, (cfg.num_users, n_bits), dtype=np.uint8)
    received = []
    demodulate = link.demodulate

    def capture(rx, scheme):
        received.append(rx)
        return demodulate(rx, scheme)

    with monkeypatch.context() as patch:
        patch.setattr(link, "demodulate", capture)
        run_link_once(bits, cfg, rng)

    sent = modulate(bits, cfg.scheme)
    blocks = sent.shape[1] // group

    def per_block(a):  # (U, blocks*G) -> (blocks, U*G), index k*G + g per block
        return a.reshape(cfg.num_users, blocks, group).transpose(1, 0, 2).reshape(blocks, width)

    if scheme == "bpsk":
        assert not np.iscomplexobj(received[0])
        sent = sent.real
    x = per_block(sent)
    synthesis, despreading = link_operators(cfg.spreading, cfg.wavelet)
    sigma = noise_sigma_for(cfg.snr_db, cfg, float(np.sum(synthesis[:width] ** 2)) / width)
    r = despreading[:, :width]
    return _max_law_deviation(per_block(received[0]) - x, sigma**2 * r.T @ r)


@PROPERTY_SETTINGS
@given(config=link_configs(), n=payload_lengths, seed=st.integers(0, 2**16))
def test_noiseless_link_returns_payload(config, n, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (config.num_users, n), dtype=np.uint8)
    decoded, errors = run_link_once(bits, config, rng)
    assert errors == 0
    assert np.array_equal(decoded, bits)


@PROPERTY_SETTINGS
@given(config=link_configs(), n=payload_lengths, seed=st.integers(0, 2**16))
def test_user_zero_independent_of_interferers(config, n, seed):
    rng = np.random.default_rng(seed)
    own = rng.integers(0, 2, (1, n), dtype=np.uint8)
    decisions = []
    for _ in range(2):
        others = rng.integers(0, 2, (config.num_users - 1, n), dtype=np.uint8)
        decoded, _ = run_link_once(np.vstack([own, others]), config, np.random.default_rng(seed))
        decisions.append(decoded[0])
    assert np.array_equal(decisions[0], decisions[1])
    assert np.array_equal(decisions[0], own[0])


@PROPERTY_SETTINGS
@given(spreading=spreading_matrices(), wavelet=st.sampled_from(FAMILY_TOKENS),
       excess=st.integers(1, 8), gold_sf=st.sampled_from((2, 4, 16)))
def test_invalid_configs_rejected(spreading, wavelet, excess, gold_sf):
    with pytest.raises(ValueError, match="preferred pair"):
        build_matrix("gold", gold_sf)
    depth_rule = rf"levels must be in 1\.\.8 for a 256-point block, got {8 + excess}$"
    with pytest.raises(ValueError, match=depth_rule):
        WaveletSpec(wavelet, levels=8 + excess)
    with pytest.raises(ValueError, match="num_users"):
        LinkConfig(spreading, WaveletSpec(wavelet), "bpsk", spreading.spreading_factor + excess)


def test_sweep_caches_one_operator_pair_per_family():
    link._OPERATORS.clear()
    config = SimConfig(snr_db=(0.0, 4.0, 8.0), families=FAMILIES, coded_flags=(False, True),
                       user_counts=(1, 4, 7), min_bit_errors=1, max_info_bits=12)
    run_sweep(config)
    assert len(link._OPERATORS) <= 3
    for energies, factor in link._OPERATORS.values():
        assert energies.shape == (256,) and not energies.flags.writeable
        assert factor is None  # haar: C is the identity, see test_link
