"""Link-level simulator for a wavelet-multicarrier CDMA system: spreading
code construction, (23,12) Golay forward error correction, PSK modems,
multilevel wavelet synthesis, an AWGN channel and a seeded Monte-Carlo
BER sweep engine.

The package root holds the names of the README's library example; the
rest lives in the submodules (`spreading`, `fec`, `modem`, `wavelet`,
`link`, `sim`, `cli`)."""

__version__ = "0.1.0"

from .fec import decode_stream, encode_stream
from .link import LinkConfig, run_link_once
from .spreading import build_matrix
from .wavelet import WaveletSpec
