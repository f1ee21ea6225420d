"""Link-level simulator for a wavelet-multicarrier CDMA system: spreading
code construction, (23,12) Golay forward error correction, PSK modems,
multilevel wavelet synthesis, an AWGN channel and a seeded Monte-Carlo
BER sweep engine."""

__version__ = "0.1.0"

from .spreading import (
    FAMILIES,
    GolayPair,
    SpreadingMatrix,
    aperiodic_autocorr,
    build_matrix,
    gold_family,
    golay_complementary_matrix,
    lfsr_m_sequence,
    orthogonal_gold_matrix,
    periodic_crosscorr,
    walsh_hadamard,
)
from .fec import (
    GolayCodecTables,
    codec_tables,
    decode_stream,
    encode_stream,
)
from .modem import SCHEMES, ModulationScheme, bits_per_symbol, demodulate, modulate
from .wavelet import FilterBank, WaveletSpec, dwt_forward, dwt_inverse, filter_bank
from .link import (
    LinkConfig,
    apply_awgn,
    despread,
    noise_sigma_for,
    run_link_once,
    spread_multiplex,
)
from .sim import (
    BerRecord,
    SimConfig,
    run_point,
    run_sweep,
    theoretical_ber,
    write_outputs,
)
