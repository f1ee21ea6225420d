"""Property tests of the link chain over random valid configurations.

Each draw picks a spreading family and factor, a user count, a modem, a
wavelet and cascade depth, and a payload length (including 1 and lengths
that are not multiples of 12).  Examples are derandomized so the suite
stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwtcdma import link
from dwtcdma.link import LinkConfig, despread, link_operators, run_link_once, spread_multiplex
from dwtcdma.modem import SCHEMES
from dwtcdma.sim import SimConfig, run_sweep
from dwtcdma.spreading import FAMILIES, build_matrix
from dwtcdma.wavelet import FAMILY_TOKENS, WaveletSpec, dwt_forward, dwt_inverse

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
NOISELESS_DB = 300.0
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
    with pytest.raises(ValueError, match="not a positive multiple"):
        WaveletSpec(wavelet, levels=8 + excess)
    with pytest.raises(ValueError, match="num_users"):
        LinkConfig(spreading, WaveletSpec(wavelet), "bpsk", spreading.spreading_factor + excess)


def test_sweep_caches_one_operator_pair_per_family():
    link._OPERATORS.clear()
    config = SimConfig(snr_db=(0.0, 4.0, 8.0), families=FAMILIES, coded_flags=(False, True),
                       user_counts=(1, 4, 7), min_bit_errors=1, max_info_bits=12)
    run_sweep(config)
    assert len(link._OPERATORS) <= 3
