"""The transceiver chain as the paper describes it, one time-domain
sample at a time, for tests that check the link against it.

The link (`dwtcdma.link`) runs in the despread-symbol domain: it adds
noise sigma*z*C_w to the symbols, C_w standing for white time-domain
noise seen through the analysis and despreading.  This chain builds the
signal instead: it spreads the symbols onto coefficient blocks
(`spread_multiplex`), synthesizes them (`dwt_inverse`), adds white noise
of std `LinkConfig.noise_sigma` to every real time-domain sample, analyses
the blocks (`dwt_forward`), despreads each coefficient group by the
transposed code rows, detects and decodes.  It calls neither
`channel_operators` nor `apply_awgn`, so it shares no noise code with the
link.
"""

import numpy as np

from dwtcdma import fec
from dwtcdma.link import LinkConfig, spread_multiplex
from dwtcdma.modem import demodulate, modulate
from dwtcdma.wavelet import dwt_forward, dwt_inverse

# Information bits per user of one chunk, a multiple of the Golay message length.
CHUNK_BITS_PER_USER = 2856


def reference_chunk(bits: np.ndarray, config: LinkConfig, rng: np.random.Generator) -> int:
    """The bit errors of one chunk, bits (U, n), through the literal chain."""
    scheme, spreading = config.scheme, config.spreading
    n_users, group, sf = len(bits), config.symbols_per_block, spreading.spreading_factor
    tx_bits = fec.encode_stream(bits)[0] if config.coded else bits
    n_coded = tx_bits.shape[1]
    block_bits = scheme.bits_per_symbol * group
    padded = np.zeros((n_users, -(-n_coded // block_bits) * block_bits), dtype=np.uint8)
    padded[:, :n_coded] = tx_bits
    symbols = modulate(padded, scheme)                    # (U, blocks*G)

    # Block b loads symbols b*G .. b*G + G - 1 of every user.
    per_block = symbols.reshape(n_users, -1, group).transpose(1, 0, 2)   # (blocks, U, G)
    signal = dwt_inverse(spread_multiplex(per_block, spreading), config.wavelet)
    noise = rng.standard_normal(signal.shape)
    if np.iscomplexobj(symbols):
        noise = noise + 1j * rng.standard_normal(signal.shape)
    coefficients = dwt_forward(signal + config.noise_sigma * noise, config.wavelet)

    # Coefficient g*SF + j holds chip j of group g; each user correlates
    # its group with its scaled code row.
    rows = spreading.rows[:n_users].astype(np.float64) / np.sqrt(sf)
    despread = coefficients.reshape(len(coefficients), group, sf) @ rows.T   # (blocks, G, U)
    received = np.ascontiguousarray(despread.transpose(2, 0, 1)).reshape(n_users, -1)
    hard = demodulate(received, scheme)[:, :n_coded]
    decoded = fec.decode_stream(hard, bits.shape[1]) if config.coded else hard
    return int(np.count_nonzero(decoded != bits))


def reference_run(config: LinkConfig, info_bits: int, rng: np.random.Generator):
    """(bit errors, bits sent) of whole chunks of fresh payload and noise
    through the literal chain, until at least info_bits bits are sent."""
    errors = sent = 0
    while sent < info_bits:
        bits = rng.integers(0, 2, (config.num_users, CHUNK_BITS_PER_USER), dtype=np.uint8)
        errors += reference_chunk(bits, config, rng)
        sent += bits.size
    return errors, sent
