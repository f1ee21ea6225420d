"""End-to-end transceiver chain: multi-user symbols are spread onto
wavelet coefficients by +-1 code rows, synthesized to a time-domain block
by the inverse wavelet transform, passed through AWGN, analyzed back,
despread, demodulated and optionally FEC-decoded.

Signal-to-noise convention: snr_db is Eb/N0 per information bit.  Noise
is calibrated against the expected transmitted energy per data symbol
(see below), so a coded link pays its 12/23 rate penalty in signal
energy and the definition stays correct for the non-orthonormal
biorthogonal transform.  In the optional total-power mode, which holds
total transmit power constant so each of the U users keeps only a 1/U
share of energy, the noise std is scaled by sqrt(U) in place of the
symbols by 1/sqrt(U): every detector is a sign test, and scaling all
received symbols by a positive number leaves every sign unchanged.

From modulated symbols to despread symbols the chain is real-linear:
two real matrices per (code rows, wavelet), T = spread then inverse DWT
and R = forward DWT then despread, built by pushing the identity through
spread_multiplex and dwt_inverse, and through dwt_forward and the
transposed spreading (the reference path, see link_operators).  With the
real and imaginary parts of a block's w = U*G symbols stacked as rows x,
the despread symbols are

    y = x T_w R_w + n R_w,

where T_w is the first w rows of T, R_w the first w columns of R and n
white time-domain noise of std sigma per real dimension.  Perfect
reconstruction and orthogonal codes give T R = I, so the signal term is
x itself.  The noise term n R_w is Gaussian with covariance
sigma^2 R_w^T R_w; with C the upper Cholesky factor of R^T R, that is
the leading w x w block C_w of C, so sigma z C_w with z iid N(0, 1) has
the same law.  The link therefore runs in the despread-symbol domain and
forms y = x + sigma z C_w.  The symbols of every scheme are zero-mean,
unit-energy and mutually uncorrelated, so a symbol sends on average
||T_w||_F^2 / w, the mean of the first w row energies |T[k]|^2; that
constant sets sigma.  For the orthonormal wavelets C is the identity and
the energies are exactly 1, so sigma takes its closed form and is the
same for every code family; channel_operators decides that once from
the operator, and the link then uses sigma z itself, with no product.
(energies, C) is built once per (code rows, wavelet) and cached by value.
sigma and C_w are constants of the link: LinkConfig computes them once,
when it is built, and every chunk reads them.

Only the noise the detector reads is drawn.  modulate returns the real
dimensions (rails) its decision reads: one for BPSK, whose coherent
decision reads Re(y) alone (the imaginary noise is independent of the
real noise), and two for the others (DBPSK decides on Re(y[n] y*[n-1]),
which contains Im*Im).  The link adds noise to the rails it is given.

Randomness: the link draws only noise, from the generator it is given,
after the caller has drawn the payload from it (sim.run_point draws from
an SFC64 generator).  The noise of a link run is one standard-normal
draw of shape (dims, blocks, U*G), dims being the symbols' rail count:
the real parts first and then, for complex symbols (dims = 2), the
imaginary parts.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import fec
from .modem import ModulationScheme, get_scheme, modulate, demodulate
from .spreading import SpreadingMatrix, _check_integer
from .wavelet import WaveletSpec, dwt_forward, dwt_inverse


@dataclass(frozen=True)
class LinkConfig:
    """One experiment point of the transceiver.

    noise_sigma and noise_factor, the per-dimension noise std and the
    leading w x w block C_w of C (None where C is the identity), are
    constants of the link, computed once here; building the config
    therefore fails on an SNR whose noise overflows at this link's Eb.
    Over haar and db2, noise_sigma is noise_sigma_for(snr_db, config, 1.0)
    exactly; in total-power mode it is that std times sqrt(num_users).
    The scalars are checked as SimConfig checks its axes: snr_db is
    stored as a float, and coded, total_power and num_users must be a
    bool, a bool and an integer.
    """

    spreading: SpreadingMatrix
    wavelet: WaveletSpec
    scheme: ModulationScheme
    num_users: int = 7
    coded: bool = False
    snr_db: float = 0.0
    total_power: bool = False
    noise_sigma: float = field(init=False, repr=False, compare=False)
    noise_factor: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scheme", get_scheme(self.scheme))
        object.__setattr__(self, "snr_db", _as_snr(self.snr_db))
        _check_bool("coded", self.coded)
        _check_bool("total_power", self.total_power)
        _check_integer("num_users", self.num_users)
        sf = self.spreading.spreading_factor
        if not 1 <= self.num_users <= sf:
            raise ValueError(f"num_users must be in 1..{sf}, got {self.num_users}")
        if self.wavelet.block_size % sf:
            raise ValueError(
                f"block size {self.wavelet.block_size} not divisible by spreading factor {sf}"
            )
        width = self.num_users * self.symbols_per_block
        energies, factor = channel_operators(self.spreading, self.wavelet)
        sigma = noise_sigma_for(self.snr_db, self, float(np.mean(energies[:width])))
        if self.total_power:
            sigma *= math.sqrt(self.num_users)
        object.__setattr__(self, "noise_sigma", sigma)
        if factor is not None:
            factor = factor[:width, :width]
        object.__setattr__(self, "noise_factor", factor)

    @property
    def symbols_per_block(self) -> int:
        return self.wavelet.block_size // self.spreading.spreading_factor


def _as_snr(value) -> float:
    """An SNR as a float; a bool or a non-number is an error."""
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError, ValueError):
            return float(value)
    raise ValueError(f"snr_db must hold numbers, got {value!r}")


def _check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def spread_multiplex(user_symbols, spreading: SpreadingMatrix) -> np.ndarray:
    """Load U x G user symbols onto one coefficient block of length G*SF.

    coefficient[g*SF + j] = (1/sqrt(SF)) * sum_k s[k, g] * code[k, j];
    users are assigned code rows 0..U-1 and share every coefficient
    group, separated only by their codes.  A batch (..., U, G) gives
    blocks (..., G*SF).
    """
    s = np.asarray(user_symbols)
    s = s.astype(np.result_type(s, np.float64), copy=False)
    if s.ndim < 2:
        raise ValueError("user_symbols must be a U x G matrix or a batch of them")
    n_users = s.shape[-2]
    sf = spreading.spreading_factor
    if n_users > sf:
        raise ValueError(f"{n_users} users exceed the {sf} available code rows")
    rows = spreading.rows[:n_users].astype(np.float64)
    blocks = np.einsum("...kg,kj->...gj", s, rows) / np.sqrt(sf)
    return blocks.reshape(s.shape[:-2] + (-1,))


def link_operators(spreading: SpreadingMatrix,
                   wavelet: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real matrices (T, R) of the linear chain for all SF code rows.

    Symbol index k*G + g is user k's symbol in slot g of a block.  A row
    of symbols x (length SF*G) gives the time-domain block x @ T, and a
    received block y gives the despread symbols y @ R.  The first U*G
    rows of T and columns of R serve U users.  T is the identity spread
    and synthesized.  Despreading correlates each group with the scaled
    code row that spreading loads, so it is the transpose of spreading,
    and R is the analysed identity times it.  Built anew on each call,
    from the reference cascade; the link itself uses channel_operators.
    """
    sf = spreading.spreading_factor
    group = wavelet.block_size // sf
    spread = spread_multiplex(np.eye(sf * group).reshape(-1, sf, group), spreading)
    synthesis = dwt_inverse(spread, wavelet)
    despreading = dwt_forward(np.eye(wavelet.block_size), wavelet) @ spread.T
    return synthesis, despreading


# (energies, C) per (code rows, wavelet).  SpreadingMatrix compares by
# identity and callers rebuild equal ones, so the key is the chip values.
_OPERATORS: dict[tuple[bytes, WaveletSpec], tuple[np.ndarray, np.ndarray | None]] = {}


def channel_operators(spreading: SpreadingMatrix,
                      wavelet: WaveletSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-symbol transmit energies and the upper Cholesky factor C of R^T R.

    With (T, R) from link_operators, energies[k] = |T[k]|^2 = (T T^T)[k, k]
    is the energy a unit symbol in position k sends, and z @ C with z iid
    N(0, 1) has the law of white unit noise seen through R.  The first w
    energies and the leading w x w block of C serve the first w symbols.
    C is None when no entry of C - I exceeds 1e-12 (haar and db2 stay
    within 3e-15; bior22 departs by 0.2 or more), decided here from the
    operator, so the link skips the product.  R is then orthogonal and
    T = R^T, so every energy is exactly 1.0 rather than its rounded sum.
    Cached by value; the arrays are read-only.
    """
    key = (spreading.rows.tobytes(), wavelet)
    if key not in _OPERATORS:
        synthesis, despreading = link_operators(spreading, wavelet)
        factor = np.linalg.cholesky(despreading.T @ despreading).T
        if np.max(np.abs(factor - np.eye(len(factor)))) <= 1e-12:
            energies, factor = np.ones(len(factor)), None
        else:
            energies = np.einsum("ij,ij->i", synthesis, synthesis)
            factor.setflags(write=False)
        energies.setflags(write=False)
        _OPERATORS[key] = (energies, factor)
    return _OPERATORS[key]


def noise_sigma_for(snr_db: float, config: LinkConfig, mean_symbol_energy: float) -> float:
    """Per-dimension noise standard deviation for a requested Eb/N0.

    Eb = mean_symbol_energy / (bits_per_symbol * R) with code rate
    R = 12/23 when coded and 1 otherwise; N0 = Eb * 10^(-snr_db/10);
    sigma = sqrt(N0/2) for each real dimension of each time-domain sample.
    A ValueError names snr_db when it is not finite or so low that N0
    overflows.
    """
    if mean_symbol_energy <= 0:
        raise ValueError(f"mean symbol energy must be positive, got {mean_symbol_energy}")
    rate = fec.CODE_RATE if config.coded else 1.0
    eb = mean_symbol_energy / (config.scheme.bits_per_symbol * rate)
    with contextlib.suppress(OverflowError):
        n0 = eb * 10.0 ** (-float(snr_db) / 10.0)
        if math.isfinite(snr_db) and math.isfinite(n0):
            return math.sqrt(n0 / 2.0)
    raise ValueError(f"snr_db must be finite and not so low that the noise overflows, "
                     f"got {snr_db}")


# Scratch memory of run_link_once, one pair of arrays per thread (see _scratch).
_SCRATCH = threading.local()


def _scratch(shape) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 arrays of the given shape, prefixes of this thread's
    scratch arrays, which grow on demand and are never freed.

    A chunk's noise and received symbols are its largest arrays.  Arrays
    of that size, freed after each chunk or each point, go back to the
    OS and page-fault on fresh memory when allocated again; differential
    chunks spent a third of their time in the kernel that way.  Each
    chunk fills the prefix it uses before reading it, so no value passes
    from one chunk to the next.
    """
    size = math.prod(shape)
    arrays = getattr(_SCRATCH, "arrays", None)
    if arrays is None or arrays[0].size < size:
        arrays = _SCRATCH.arrays = (np.empty(size), np.empty(size))
    return arrays[0][:size].reshape(shape), arrays[1][:size].reshape(shape)


def _receive(symbols: np.ndarray, config: LinkConfig, rng: np.random.Generator) -> np.ndarray:
    """The despread symbols of a chunk: symbols (U, blocks*G) plus the
    link's noise, in scratch memory.

    The noise is one draw of one value per rail of each despread symbol
    (see the module docstring), coloured by C_w unless channel_operators
    found C to be the identity.  The sum goes to the scratch array the
    noise does not occupy, so the symbols are freed before detection.
    """
    n_users, n_symbols = symbols.shape
    group = config.symbols_per_block
    n_blocks = n_symbols // group
    # The symbols' rails as a (dims, U, blocks, G) view; slot k*G + g of
    # block b of the noise belongs to user k's symbol b*G + g.
    rails = symbols.view(np.float64).reshape(n_users, n_blocks, group, -1).transpose(3, 0, 1, 2)
    dims = len(rails)
    noise, free = _scratch((dims, n_blocks, n_users * group))
    rng.standard_normal(out=noise)
    noise *= config.noise_sigma
    if config.noise_factor is not None:
        # Once coloured, the draw is spent and its array takes the sum.
        noise, free = np.matmul(noise, config.noise_factor, out=free), noise
    received = free.reshape(n_users, n_blocks, group, dims)
    np.add(rails, noise.reshape(dims, n_blocks, n_users, group).transpose(0, 2, 1, 3),
           out=received.transpose(3, 0, 1, 2))
    return received.reshape(n_users, -1).view(symbols.dtype)


def apply_awgn(signal, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent Gaussian noise of std sigma per real dimension: one
    standard-normal draw of shape (2, *signal.shape), the real parts
    first and then the imaginary parts.  The time-domain channel of the
    reference cascade; run_link_once adds its noise after despreading."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    x = np.asarray(signal, dtype=np.complex128)
    noise = sigma * rng.standard_normal((2, *x.shape))
    return x + (noise[0] + 1j * noise[1])


def run_link_once(info_bits, config: LinkConfig, rng: np.random.Generator):
    """Run the full chain on one batch of per-user payloads.

    info_bits has shape (num_users, n); every user carries independent
    data.  Returns (decoded bits of the same shape, total bit errors).
    The coded bits are padded with zeros to whole blocks of symbols and
    the padding is stripped after detection; trailing symbols cannot
    change an earlier decision, differential ones included.  The noise
    and the received symbols live in scratch memory (see _receive).
    """
    bits = np.asarray(info_bits)  # not cast: encode_stream or _as_bits checks the values
    if bits.ndim != 2 or bits.shape[0] != config.num_users or bits.shape[1] == 0:
        raise ValueError(f"info_bits must have shape ({config.num_users}, n) with n >= 1")
    n_users, n_info = bits.shape
    scheme = config.scheme

    tx_bits = fec.encode_stream(bits)[0] if config.coded else fec._as_bits(bits)
    n_coded = tx_bits.shape[1]
    group = config.symbols_per_block
    block_bits = scheme.bits_per_symbol * group
    n_blocks = -(-n_coded // block_bits)
    padded = np.zeros((n_users, n_blocks * block_bits), dtype=np.uint8)
    padded[:, :n_coded] = tx_bits
    symbols = modulate(padded, scheme)
    received = _receive(symbols, config, rng)
    del symbols  # freed before detection (see _receive)
    hard = demodulate(received, scheme)[:, :n_coded]
    decoded = fec.decode_stream(hard, n_info) if config.coded else hard
    errors = int(np.count_nonzero(decoded != bits))
    return decoded, errors
