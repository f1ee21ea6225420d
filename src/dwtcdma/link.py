"""End-to-end transceiver chain: multi-user symbols are spread onto
wavelet coefficients by +-1 code rows, synthesized to a time-domain block
by the inverse wavelet transform, passed through AWGN, analyzed back,
despread, demodulated and optionally FEC-decoded.

Signal-to-noise convention: snr_db is Eb/N0 per information bit.  Noise
is calibrated against the expected transmitted energy per data symbol
(see below), so a coded link pays its 12/23 rate penalty in signal
energy and the definition stays correct for the non-orthonormal
biorthogonal transform.  snr_db is each user's own Eb/N0: the link has
one noise rule.  A sweep's total-power mode, in which U users share one
user's energy, is this link at snr_db - 10*log10(U) (see
sim.link_config_for).

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
same for every code family; channel_operators reads that from the filter
bank, which records whether it is orthonormal, and builds no operator
there; the link then uses sigma z itself, with no product.
(energies, C) is built once per (code rows, wavelet) and cached by value;
the build frees each array of the cascade once it has served.
sigma and C_w are constants of the link: LinkConfig computes them once,
when it is built, and every chunk reads them.

Only the noise the detector reads is drawn.  modulate returns the real
dimensions (rails) its decision reads: one for BPSK, whose coherent
decision reads Re(y) alone (the imaginary noise is independent of the
real noise), and two for the others (DBPSK decides on Re(y[n] y*[n-1]),
which contains Im*Im).  apply_awgn, the chain's only noise stage, adds
noise to the rails it is given.

Where the noise acts only through the flips it causes, only the flips
are drawn.  On an uncoded coherent link (BPSK, QPSK) over an orthonormal
bank (C the identity), a flip link for short, each rail is +-a (a = 1 for BPSK, 1/sqrt(2) for QPSK) plus
sigma z, and its sign test reads it alone: the rail errs exactly where
its noise crosses the symbol, with probability p = Q(a/sigma) =
erfc(a/(sigma sqrt(2)))/2, independently of every other rail and of the
data (a binary symmetric channel; Bernoulli sampling by inversion,
Devroye, Non-Uniform Random Variate Generation, 1986).  LinkConfig
computes p once, and apply_awgn draws one uniform u per rail and
negates the rails where u < p.  Payload, modulate, demodulate and the
count all still run.  rng.random draws multiples of 2^-53, so a p below
2^-53 flips with probability up to 2^-53: at most 1.1e-9 extra flips
expected in a 10 Mbit point.  A coded link, a differential scheme and
every bior22 link draw the noise itself.

Randomness: the link draws only noise, from the generator it is given,
after the caller has drawn the payload from it (sim.run_point draws from
an SFC64 generator).  The noise of a link run is one draw by apply_awgn.
On a flip link it is one uniform per rail, of shape (U, blocks, G,
dims), laid out as the symbols' rails, dims being their rail count
(the real part, then for complex symbols the imaginary part, of each
symbol).  On any other link it is one standard-normal draw of shape
(dims, blocks, U*G): the real parts first and then, for complex symbols
(dims = 2), the imaginary parts.  A ChunkPair in place of the generator
serves one draw to two runs of one payload: the first runs as above, and
the second, its antithetic twin, draws nothing and adds the same noise
negated, -sigma z C_w, which is exact in floating point; on a flip link
it negates the rails where u > 1 - p, which is the joint law of the
flips of z and -z.  Its symbols and its draw are kept from the first
run, so the twin neither encodes nor modulates nor draws.  sim.run_point
twins every second chunk of a point; a chunk cut to the remaining budget
is fresh and never twinned, and a first chunk runs the same whether or
not a twin follows.  A coherent rail errs in at most one of the two
runs; DQPSK's two runs are positively correlated, because its
differential decision keeps the square of the noise.
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
from .wavelet import WaveletSpec, dwt_forward, dwt_inverse, filter_bank


@dataclass(frozen=True)
class LinkConfig:
    """One experiment point of the transceiver.

    noise_sigma and noise_factor, the per-dimension noise std and the
    leading w x w block C_w of C (None where C is the identity), are
    constants of the link, computed once here; building the config
    therefore fails on an SNR whose noise overflows at this link's Eb.
    Over haar and db2, noise_sigma is noise_sigma_for(snr_db, config, 1.0)
    exactly.  flip_probability is p = erfc(a/(sigma sqrt(2)))/2, a rail's
    chance to err, on an uncoded coherent link over haar or db2, where
    apply_awgn draws only the flips (see the module docstring), and None
    on any other link.  The scalars are checked as SimConfig checks its axes:
    snr_db is stored as a float, coded must be a bool and num_users an
    integer.
    """

    spreading: SpreadingMatrix
    wavelet: WaveletSpec
    scheme: ModulationScheme
    num_users: int = 7
    coded: bool = False
    snr_db: float = 0.0
    noise_sigma: float = field(init=False, repr=False, compare=False)
    noise_factor: np.ndarray | None = field(init=False, repr=False, compare=False)
    flip_probability: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scheme", get_scheme(self.scheme))
        object.__setattr__(self, "snr_db", _as_snr(self.snr_db))
        _check_bool("coded", self.coded)
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
        object.__setattr__(self, "noise_sigma", sigma)
        if factor is not None:
            factor = factor[:width, :width]
        object.__setattr__(self, "noise_factor", factor)
        flip = None
        if not self.coded and not self.scheme.differential and factor is None:
            # The distance a from a rail to its sign test; sigma is 0 only
            # where the SNR underflows N0, and then no rail flips.
            a = abs(self.scheme.table[0].real)
            flip = 0.5 * math.erfc(a / (sigma * math.sqrt(2.0))) if sigma else 0.0
        object.__setattr__(self, "flip_probability", flip)

    @property
    def symbols_per_block(self) -> int:
        return self.wavelet.block_size // self.spreading.spreading_factor


def _as_snr(value) -> float:
    """An SNR as a float, with -0 read as 0; a bool or a non-number is
    an error."""
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError, ValueError):
            return float(value) + 0.0
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
    blocks = np.einsum("...kg,kj->...gj", s, rows)
    blocks /= np.sqrt(sf)
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
    return _synthesis(spreading, wavelet), _despreading(spreading, wavelet)


def _spread_identity(spreading: SpreadingMatrix, wavelet: WaveletSpec) -> np.ndarray:
    """Row k*G + g: symbol k*G + g alone, spread onto a coefficient block."""
    sf = spreading.spreading_factor
    group = wavelet.block_size // sf
    return spread_multiplex(np.eye(sf * group).reshape(-1, sf, group), spreading)


def _synthesis(spreading: SpreadingMatrix, wavelet: WaveletSpec) -> np.ndarray:
    """T of link_operators."""
    return dwt_inverse(_spread_identity(spreading, wavelet), wavelet)


def _despreading(spreading: SpreadingMatrix, wavelet: WaveletSpec) -> np.ndarray:
    """R of link_operators.  The analysed identity comes first, so that
    its temporaries are gone before the spread identity is built."""
    analysed = dwt_forward(np.eye(wavelet.block_size), wavelet)
    return analysed @ _spread_identity(spreading, wavelet).T


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
    Over an orthonormal filter bank (haar, db2) nothing is built: the
    cascade is orthogonal, and SpreadingMatrix certifies orthogonal code
    rows, so R is orthogonal and T = R^T.  C is then the identity,
    returned as None so that the link skips the product, and every energy
    is exactly 1.0.  Only a biorthogonal bank (bior22) builds T and R,
    one at a time: T is freed once its row energies are taken, and R once
    R^T R is formed, so at most three 256 x 256 arrays are alive at once.
    The values are those of link_operators, bit for bit.  Cached by value;
    the arrays are read-only.
    """
    key = (spreading.rows.tobytes(), wavelet)
    if key not in _OPERATORS:
        if filter_bank(wavelet.family).orthonormal:
            energies, factor = np.ones(wavelet.block_size), None
        else:
            synthesis = _synthesis(spreading, wavelet)
            energies = np.einsum("ij,ij->i", synthesis, synthesis)
            del synthesis
            despreading = _despreading(spreading, wavelet)
            gram = despreading.T @ despreading
            del despreading
            factor = np.linalg.cholesky(gram).T
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


def _draw_noise(values: np.ndarray, config: LinkConfig, rng: np.random.Generator):
    """The noise of one chunk whose symbols have the rails values (U,
    blocks, G, dims), in scratch memory: (noise, free, scale), the noise
    as (dims, blocks, U*G) to be placed times scale, and the scratch
    array it does not occupy.

    The noise is one draw of one value per rail of each despread symbol
    (see the module docstring), coloured by C_w unless C is the identity
    (an orthonormal filter bank, see channel_operators).
    """
    n_users, n_blocks, group, dims = values.shape
    noise, free = _scratch((dims, n_blocks, n_users * group))
    rng.standard_normal(out=noise)
    scale = config.noise_sigma
    if config.noise_factor is not None:
        noise *= scale
        # Once coloured, the draw is spent and its array takes the sum;
        # sigma is already in the coloured noise, and x * 1.0 is exact.
        noise, free, scale = np.matmul(noise, config.noise_factor, out=free), noise, 1.0
    return noise, free, scale


def _add_noise(symbols: np.ndarray, values: np.ndarray, noise, free, scale,
               twin: bool) -> np.ndarray:
    """The despread symbols: scale times the noise of _draw_noise, placed
    in the received layout in free in one strided pass, plus the rails
    values of symbols in one contiguous pass.  A twin places the noise
    negated, exactly."""
    n_users, n_blocks, group, dims = values.shape
    received = free.reshape(values.shape)
    # Slot k*G + g of block b of the noise belongs to user k's symbol b*G + g.
    np.multiply(noise.reshape(dims, n_blocks, n_users, group).transpose(0, 2, 1, 3),
                -scale if twin else scale, out=received.transpose(3, 0, 1, 2))
    received += values
    return received.reshape(n_users, -1).view(symbols.dtype)


def _draw_flips(values: np.ndarray, config: LinkConfig, rng: np.random.Generator):
    """The flips of one chunk of a flip link (see LinkConfig), whose
    symbols have the rails values (U, blocks, G, dims), in scratch memory:
    (uniforms, free, p), one uniform per rail laid out as values, so that
    every pass over them is contiguous, the scratch array they do not
    occupy, and the flip probability p."""
    uniforms, free = _scratch(values.shape)
    rng.random(out=uniforms)
    return uniforms, free, config.flip_probability


def _flip(symbols: np.ndarray, values: np.ndarray, uniforms, free, p, twin: bool) -> np.ndarray:
    """The despread symbols of a flip link, in free: the rails values of
    symbols, negated where the uniform u of _draw_flips is below p, or in
    a twin where it is above 1 - p.  The two sets are disjoint, as
    p <= 1/2.

    Each rail is multiplied by the sign of u - p, or of (1 - p) - u.  A
    rounded difference has the sign of the exact one and is +0 only where
    the two are equal, so the sign is -1 exactly where the rail flips.
    Unlike a masked negation, whose branches mispredict at random flips
    (three times slower at p = 0.2), this takes no branch."""
    received = free.reshape(values.shape)
    if twin:
        np.subtract(1.0 - p, uniforms, out=received)
    else:
        np.subtract(uniforms, p, out=received)
    np.copysign(1.0, received, out=received)
    received *= values
    return received.reshape(len(symbols), -1).view(symbols.dtype)


class ChunkPair:
    """One payload's symbols and one noise draw, shared by two chunks: a
    chunk and its antithetic twin.  run_link_once and apply_awgn take it
    in place of the generator rng that it wraps (see sim.run_point).

    The first chunk run with the pair draws from rng as any chunk does,
    and the pair keeps its symbols and its draw.  The second is the
    twin: it must carry the same payload, and it encodes, modulates and
    draws nothing; it adds the kept noise negated, or on a flip link
    negates the rails whose uniform u is above 1 - p.  -z has the law of
    z and is independent of the payload, so the twin is a chunk of the
    exact law, and a coherent rail errs in at most one of the two; a
    rail's flips under z and -z, u < p and u > 1 - p, have that joint
    law.  The kept draw lives in the thread's scratch memory, so no other
    chunk may run on the thread between the two.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.sent = None   # (symbols, coded bits per user) of the first chunk
        self.noise = None  # its draw, of _draw_noise or _draw_flips


def apply_awgn(symbols: np.ndarray, config: LinkConfig, rng) -> np.ndarray:
    """The despread symbols of a chunk: symbols (U, blocks*G) plus the
    link's noise, in scratch memory.  The chain's only noise stage.

    The draw goes to one scratch array and the result to the other, so
    the symbols are freed before detection.  An uncoded BPSK or QPSK link
    over haar or db2 (LinkConfig.flip_probability set) draws, after the
    caller's payload, one uniform u per rail and negates the rails where
    u < p; as u is a multiple of 2^-53, a p below 2^-53 flips with
    probability up to 2^-53.  Any other link, a coded one included,
    draws the normal noise and adds it (see _draw_noise).  rng is a
    generator or a ChunkPair: the first chunk of a pair draws from the
    pair's generator and keeps the draw, and its twin draws nothing and
    places that noise negated, or flips the rails where u > 1 - p.
    """
    # The symbols' rails as (U, blocks, G, dims).
    values = symbols.view(np.float64).reshape(len(symbols), -1, config.symbols_per_block,
                                              symbols.itemsize // 8)
    draw, place = ((_draw_noise, _add_noise) if config.flip_probability is None
                   else (_draw_flips, _flip))
    twin = isinstance(rng, ChunkPair) and rng.noise is not None
    if not isinstance(rng, ChunkPair):
        drawn = draw(values, config, rng)
    elif not twin:
        drawn = rng.noise = draw(values, config, rng.rng)
    else:
        drawn, rng.noise = rng.noise, None
    return place(symbols, values, *drawn, twin)


def _transmit(bits: np.ndarray, config: LinkConfig) -> tuple[np.ndarray, int]:
    """The transmit half of a chunk: the symbols (U, blocks*G) of the
    payload bits, encoded when the link is coded and padded with zeros to
    whole blocks, and the number of coded bits per user."""
    scheme = config.scheme
    tx_bits = fec.encode_stream(bits)[0] if config.coded else fec._as_bits(bits)
    n_users, n_coded = tx_bits.shape
    block_bits = scheme.bits_per_symbol * config.symbols_per_block
    padded = np.zeros((n_users, -(-n_coded // block_bits) * block_bits), dtype=np.uint8)
    padded[:, :n_coded] = tx_bits
    return modulate(padded, scheme), n_coded


def run_link_once(info_bits, config: LinkConfig, rng):
    """Run the full chain on one batch of per-user payloads.

    info_bits has shape (num_users, n); every user carries independent
    data.  Returns (decoded bits of the same shape, total bit errors).
    The coded bits are padded with zeros to whole blocks of symbols and
    the padding is stripped after detection; trailing symbols cannot
    change an earlier decision, differential ones included.  The noise
    and the received symbols live in scratch memory (see apply_awgn).
    rng is a generator or a ChunkPair, whose second chunk reuses the
    first one's symbols and noise.
    """
    bits = np.asarray(info_bits)  # not cast: encode_stream or _as_bits checks the values
    if bits.ndim != 2 or bits.shape[0] != config.num_users or bits.shape[1] == 0:
        raise ValueError(f"info_bits must have shape ({config.num_users}, n) with n >= 1")
    pair = rng if isinstance(rng, ChunkPair) else None
    if pair is not None and pair.sent is not None:
        (symbols, n_coded), pair.sent = pair.sent, None
    else:
        symbols, n_coded = _transmit(bits, config)
        if pair is not None:
            pair.sent = symbols, n_coded
    received = apply_awgn(symbols, config, rng)
    del symbols  # freed before detection (see apply_awgn), unless a twin follows
    hard = demodulate(received, config.scheme)[:, :n_coded]
    decoded = fec.decode_stream(hard, bits.shape[1]) if config.coded else hard
    errors = int(np.count_nonzero(decoded != bits))
    return decoded, errors
