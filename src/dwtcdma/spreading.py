"""Spreading-code generation: Walsh-Hadamard, orthogonal Gold, and Golay
complementary sequence families, plus the correlation analyzers used to
verify their defining properties.

Chip convention used throughout the package: bit 0 maps to chip +1 and
bit 1 maps to chip -1, so modulo-2 addition of bit sequences equals
chipwise multiplication of +-1 sequences.  All correlations here are
computed in exact integer arithmetic, each over every lag or shift in one
numpy call.

The orthogonal Gold matrix of order n = 2^m has a closed form: the 2^m - 1
combination sequences u*T^k v of a preferred pair (u, v), then u, each
with one +1 chip appended.  The chipwise product of any two of these
sequences is a cyclic shift of an m-sequence (shift-and-add), whose
2^m - 1 chips sum to -1, so the appended chips, whose product is +1, make
every pair of rows orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

FAMILY_WALSH = "wh"
FAMILY_GOLD = "gold"
FAMILY_GCS = "gcs"

# Built-in preferred pairs of primitive polynomials, one per supported
# degree, as ascending coefficient lists (x^0 ... x^m).  Degree 4 has no
# preferred pair, so spreading factor 16 is unavailable for Gold codes.
PREFERRED_PAIRS = {
    3: ((1, 1, 0, 1), (1, 0, 1, 1)),              # x^3+x+1, x^3+x^2+1
    5: ((1, 0, 1, 0, 0, 1), (1, 0, 1, 1, 1, 1)),  # x^5+x^2+1, x^5+x^4+x^3+x^2+1
}


@dataclass(frozen=True, eq=False)
class SpreadingMatrix:
    """N x N bank of +-1 chip rows, one assignable user code per row; the
    spreading factor N is the row count."""

    family: str
    rows: np.ndarray  # shape (N, N), dtype int64, entries +-1

    def __post_init__(self):
        # A copy, so that freezing it leaves the caller's array writeable.
        rows = _chips(self.rows).copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError(f"expected a square chip matrix, got shape {rows.shape}")
        n = self.spreading_factor
        if not _is_power_of_two(n):
            raise ValueError(f"spreading factor {n} is not a power of two")
        if not np.array_equal(rows @ rows.T, n * np.eye(n, dtype=np.int64)):
            raise ValueError(f"{self.family} rows are not mutually orthogonal")

    @property
    def spreading_factor(self) -> int:
        return len(self.rows)


def _check_integer(name: str, value) -> None:
    """An integer parameter must be an int or a numpy integer; a bool or a
    float with an integral value is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _chips(values) -> np.ndarray:
    """values as int64 chips.  They are tested before the cast, which
    would truncate 1.5 to 1 and drop an imaginary part."""
    values = np.asarray(values)
    if not np.all((values == 1) | (values == -1)):
        raise ValueError("chip values must be +1 or -1")
    return values.astype(np.int64, copy=False)


def _as_chips(x) -> np.ndarray:
    chips = _chips(x)
    if chips.ndim != 1 or chips.size == 0:
        raise ValueError("chip sequence must be a nonempty 1-D array")
    return chips


def aperiodic_autocorr(x) -> np.ndarray:
    """Aperiodic autocorrelation at every lag: entry k (0 <= k < n) is the
    sum of x[j]*x[j+k] over the overlap of x with its k-shifted self."""
    chips = _as_chips(x)
    return np.correlate(chips, chips, "full")[len(chips) - 1:]


def periodic_crosscorr(a, b) -> np.ndarray:
    """Periodic cross-correlation at every shift: entry s (0 <= s < L) is
    the sum of a[j]*b[(j+s) mod L]."""
    ca, cb = _as_chips(a), _as_chips(b)
    if len(ca) != len(cb):
        raise ValueError(f"length mismatch: {len(ca)} vs {len(cb)}")
    return np.correlate(np.concatenate([cb, cb[:-1]]), ca, "valid")


def walsh_hadamard(n: int) -> SpreadingMatrix:
    """Sylvester Hadamard matrix of power-of-two order n in closed form:
    H[i, j] = (-1)^popcount(i & j)."""
    if not _is_power_of_two(n):
        raise ValueError(f"Walsh-Hadamard order must be a power of two, got {n}")
    index = np.arange(n)
    parity = np.bitwise_count(index[:, None] & index) % 2
    return SpreadingMatrix(FAMILY_WALSH, np.where(parity, -1, 1))


def _bits(name: str, values) -> list[int]:
    """A 1-D sequence of 0/1 entries as ints; any other entry is refused,
    where a cast would read 3 as 1 or 0.7 as 0."""
    values = np.asarray(values)
    if values.ndim != 1 or not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{name} must be a 1-D sequence of 0 and 1 entries")
    return values.astype(np.int64).tolist()


def lfsr_m_sequence(taps: Sequence[int], seed: Sequence[int]) -> np.ndarray:
    """Maximal-length LFSR sequence as +-1 chips (bit 0 -> +1, bit 1 -> -1).

    taps is the ascending coefficient list of a degree-m primitive
    polynomial (length m+1, constant and leading terms both 1); seed is a
    nonzero m-bit initial state.  Every entry of both must be 0 or 1.

    The constant tap 1 makes the state map a bijection, so the seed's
    state cycle has at most 2^m - 1 states and the polynomial is
    primitive exactly when the state first returns to the seed at step
    2^m - 1; an earlier return rejects it.
    """
    coeffs, state = _bits("taps", taps), tuple(_bits("seed", seed))
    m = len(coeffs) - 1
    if m < 1 or coeffs[0] != 1 or coeffs[m] != 1:
        raise ValueError("taps must be a binary coefficient list with constant and leading 1")
    if len(state) != m:
        raise ValueError(f"seed must have {m} bits")
    if not any(state):
        raise ValueError("all-zero seed is invalid")

    period = (1 << m) - 1
    feedback = [i for i in range(m) if coeffs[i] == 1]
    bits, st = [], state
    for step in range(1, period + 1):
        bits.append(st[0])
        st = st[1:] + (sum(st[i] for i in feedback) & 1,)
        if st == state and step < period:
            raise ValueError("polynomial is not primitive (state cycle shorter than 2^m - 1)")
    return (1 - 2 * np.array(bits, dtype=np.int64))


def gold_family(u, v) -> list[np.ndarray]:
    """All 2^m + 1 Gold sequences from a preferred pair of m-sequences.

    Returns [u, v, u*T^0 v, ..., u*T^(L-1) v] where the chipwise product
    in the +-1 domain realizes modulo-2 addition and T is a cyclic shift.
    """
    cu, cv = _as_chips(u), _as_chips(v)
    if len(cu) != len(cv):
        raise ValueError(f"length mismatch: {len(cu)} vs {len(cv)}")
    family = [cu.copy(), cv.copy()]
    family.extend(cu * np.roll(cv, -k) for k in range(len(cv)))
    return family


def _preferred_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-sequences u and v of the built-in preferred pair of degree m,
    each from the all-ones seed."""
    taps_u, taps_v = PREFERRED_PAIRS[m]
    return lfsr_m_sequence(taps_u, [1] * m), lfsr_m_sequence(taps_v, [1] * m)


def orthogonal_gold_matrix(n: int) -> SpreadingMatrix:
    """Orthogonal Gold matrix of order n = 2^m in closed form.

    The rows are the 2^m - 1 combination sequences u*T^k v (k = 0 ...
    2^m - 2) of the built-in preferred pair, then u, each with one +1 chip
    (an appended 0 bit).  Any two of these sequences meet at -1 over their
    period, since their chipwise product is a shifted m-sequence, so the
    appended chips make every pair of rows orthogonal; SpreadingMatrix
    checks the Gram matrix.
    """
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"spreading factor must be a power of two >= 2, got {n}")
    m = n.bit_length() - 1
    if m not in PREFERRED_PAIRS:
        raise ValueError(
            f"no preferred pair of degree {m} is configured "
            f"(supported spreading factors: {sorted(2 ** d for d in PREFERRED_PAIRS)})"
        )
    family = gold_family(*_preferred_pair(m))
    rows = np.array(family[2:] + family[:1])
    return SpreadingMatrix(FAMILY_GOLD, np.hstack([rows, np.ones((n, 1), dtype=np.int64)]))


def golay_pair_tree(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """All complementary pairs (a, b) of length n from the doubling
    construction: two +-1 sequences whose aperiodic autocorrelations sum
    to zero at every nonzero lag.

    Seed pair (++, +-); each pair (a, b) of length L spawns (a|b, a|-b)
    and (b|a, b|-a) at length 2L, so length n yields n/2 pairs.
    """
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"pair length must be a power of two >= 2, got {n}")
    pairs = [(np.array([1, 1], dtype=np.int64), np.array([1, -1], dtype=np.int64))]
    while len(pairs[0][0]) < n:
        nxt = []
        for a, b in pairs:
            nxt.append((np.concatenate([a, b]), np.concatenate([a, -b])))
            nxt.append((np.concatenate([b, a]), np.concatenate([b, -a])))
        pairs = nxt
    return pairs


def golay_complementary_matrix(n: int) -> SpreadingMatrix:
    """Golay complementary sequence matrix: all members of the doubling
    tree's pairs at length n, stacked as the n rows."""
    pairs = golay_pair_tree(n)
    rows = np.array([seq for pair in pairs for seq in pair], dtype=np.int64)
    return SpreadingMatrix(FAMILY_GCS, rows)


def build_matrix(family: str, n: int) -> SpreadingMatrix:
    """Build a spreading matrix by family token, one of FAMILIES.

    Memoised: every call with the same arguments returns the same
    immutable matrix, whose rows are write-protected.  n is checked
    before the cache, where 8.0 and True would hit the entries of 8 and 1.
    """
    _check_integer("n", n)
    return _build_matrix(family, int(n))


# Each family's matrix construction, by family token; FAMILIES lists the tokens.
_CONSTRUCTIONS = {FAMILY_WALSH: walsh_hadamard, FAMILY_GOLD: orthogonal_gold_matrix,
                  FAMILY_GCS: golay_complementary_matrix}
FAMILIES = tuple(_CONSTRUCTIONS)


@lru_cache(maxsize=None)
def _build_matrix(family: str, n: int) -> SpreadingMatrix:
    if family not in _CONSTRUCTIONS:
        raise ValueError(f"unknown spreading family {family!r} (choose from {FAMILIES})")
    return _CONSTRUCTIONS[family](n)


def correlation_value_bound(m: int) -> int:
    """Gold bound t(m): 2^((m+1)/2)+1 for odd m, 2^((m+2)/2)+1 for even m."""
    if m % 2 == 1:
        return 2 ** ((m + 1) // 2) + 1
    return 2 ** ((m + 2) // 2) + 1


def verify_spreading_invariants() -> list[tuple[str, bool, str]]:
    """Run every correlation invariant; returns (name, ok, detail) rows."""
    checks: list[tuple[str, bool, str]] = []

    orders = [(family, n) for n in (2, 4, 8, 16, 32) for family in (FAMILY_WALSH, FAMILY_GCS)]
    for family, n in orders + [(FAMILY_GOLD, 8), (FAMILY_GOLD, 32)]:
        try:
            build_matrix(family, n)
            checks.append((f"gram {family} N={n}", True, "N*I exact"))
        except ValueError as exc:
            checks.append((f"gram {family} N={n}", False, str(exc)))

    for n in (2, 4, 8, 16, 32):
        worst = max(int(np.abs(aperiodic_autocorr(a) + aperiodic_autocorr(b))[1:].max())
                    for a, b in golay_pair_tree(n))
        checks.append((f"complementary pair sums N={n}", worst == 0, f"max |R_a+R_b| = {worst}"))

    for m in PREFERRED_PAIRS:
        u, v = _preferred_pair(m)
        acf_ok = all(bool(np.all(periodic_crosscorr(s, s)[1:] == -1)) for s in (u, v))
        checks.append((f"m-sequence autocorrelation m={m}", acf_ok, "-1 at all nonzero shifts"))

        t = correlation_value_bound(m)
        allowed = {-1, -t, t - 2}
        family = gold_family(u, v)
        seen = {int(c) for i, a in enumerate(family) for b in family[i + 1:]
                for c in periodic_crosscorr(a, b)}
        ok = seen <= allowed
        checks.append(
            (f"gold cross-correlation values m={m}", ok, f"observed {sorted(seen)}")
        )

    return checks
