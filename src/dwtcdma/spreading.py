"""Spreading-code generation: Walsh-Hadamard, orthogonal Gold, and Golay
complementary sequence families, plus the correlation analyzers used to
verify their defining properties.

Chip convention used throughout the package: bit 0 maps to chip +1 and
bit 1 maps to chip -1, so modulo-2 addition of bit sequences equals
chipwise multiplication of +-1 sequences.  All correlations here are
computed in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

FAMILY_WALSH = "wh"
FAMILY_GOLD = "gold"
FAMILY_GCS = "gcs"
FAMILIES = (FAMILY_WALSH, FAMILY_GOLD, FAMILY_GCS)

# Built-in preferred pairs of primitive polynomials, one per supported
# degree, as ascending coefficient lists (x^0 ... x^m).  Degree 4 has no
# preferred pair, so spreading factor 16 is unavailable for Gold codes.
PREFERRED_PAIRS = {
    3: ((1, 1, 0, 1), (1, 0, 1, 1)),              # x^3+x+1, x^3+x^2+1
    5: ((1, 0, 1, 0, 0, 1), (1, 0, 1, 1, 1, 1)),  # x^5+x^2+1, x^5+x^4+x^3+x^2+1
}


@dataclass(frozen=True, eq=False)
class SpreadingMatrix:
    """N x N bank of +-1 chip rows, one assignable user code per row."""

    family: str
    spreading_factor: int
    rows: np.ndarray  # shape (N, N), dtype int64, entries +-1

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        n = self.spreading_factor
        if rows.shape != (n, n):
            raise ValueError(f"expected {n}x{n} chip matrix, got {rows.shape}")
        if not _is_power_of_two(n):
            raise ValueError(f"spreading factor {n} is not a power of two")
        if not np.all(np.abs(rows) == 1):
            raise ValueError("chip values must be +1 or -1")
        if not np.array_equal(rows @ rows.T, n * np.eye(n, dtype=np.int64)):
            raise ValueError(f"{self.family} rows are not mutually orthogonal")


def _check_integer(name: str, value) -> None:
    """An integer parameter must be an int or a numpy integer; a bool or a
    float with an integral value is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _as_chips(x) -> np.ndarray:
    chips = np.asarray(x, dtype=np.int64)
    if chips.ndim != 1 or chips.size == 0:
        raise ValueError("chip sequence must be a nonempty 1-D array")
    if not np.all(np.abs(chips) == 1):
        raise ValueError("chip values must be +1 or -1")
    return chips


def aperiodic_autocorr(x, k: int) -> int:
    """Sum of x[j]*x[j+k] over the overlap of x with its k-shifted self."""
    chips = _as_chips(x)
    n = len(chips)
    if not 0 <= k <= n - 1:
        raise ValueError(f"lag {k} out of range for length {n}")
    return int(np.dot(chips[: n - k], chips[k:]))


def periodic_crosscorr(a, b, shift: int) -> int:
    """Sum of a[j]*b[(j+shift) mod L] in exact integer arithmetic."""
    ca, cb = _as_chips(a), _as_chips(b)
    if len(ca) != len(cb):
        raise ValueError(f"length mismatch: {len(ca)} vs {len(cb)}")
    if not 0 <= shift < len(ca):
        raise ValueError(f"shift {shift} out of range for length {len(ca)}")
    return int(np.dot(ca, np.roll(cb, -shift)))


def walsh_hadamard(n: int) -> SpreadingMatrix:
    """Sylvester-recursion Hadamard matrix of power-of-two order n."""
    if not _is_power_of_two(n):
        raise ValueError(f"Walsh-Hadamard order must be a power of two, got {n}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return SpreadingMatrix(FAMILY_WALSH, n, h)


def lfsr_m_sequence(taps: Sequence[int], seed: Sequence[int]) -> np.ndarray:
    """Maximal-length LFSR sequence as +-1 chips (bit 0 -> +1, bit 1 -> -1).

    taps is the ascending coefficient list of a degree-m primitive
    polynomial (length m+1, constant and leading terms both 1); seed is a
    nonzero m-bit initial state.  The full period 2^m - 1 is verified by
    a state-cycle check and a non-primitive polynomial is rejected.
    """
    coeffs = np.asarray(taps, dtype=np.int64)
    m = len(coeffs) - 1
    if m < 1 or coeffs[0] != 1 or coeffs[m] != 1 or not np.all((coeffs == 0) | (coeffs == 1)):
        raise ValueError("taps must be a binary coefficient list with constant and leading 1")
    state = [int(b) & 1 for b in seed]
    if len(state) != m:
        raise ValueError(f"seed must have {m} bits")
    if not any(state):
        raise ValueError("all-zero seed is invalid")

    period = (1 << m) - 1
    feedback = [i for i in range(m) if coeffs[i] == 1]
    bits = []
    seen = set()
    st = tuple(state)
    for _ in range(period):
        if st in seen:
            raise ValueError("polynomial is not primitive (state cycle shorter than 2^m - 1)")
        seen.add(st)
        bits.append(st[0])
        st = st[1:] + (sum(st[i] for i in feedback) & 1,)
    if st != tuple(state):
        raise ValueError("polynomial is not primitive (period is not 2^m - 1)")
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


def orthogonal_gold_matrix(n: int) -> SpreadingMatrix:
    """Orthogonal Gold matrix of order n = 2^m via zero padding.

    Each length-(2^m - 1) Gold candidate is padded with one extra chip +1
    (an appended 0 bit); a greedy Gram-verified search then keeps the
    first n mutually orthogonal padded rows.
    """
    if not _is_power_of_two(n) or n < 2:
        raise ValueError(f"spreading factor must be a power of two >= 2, got {n}")
    m = n.bit_length() - 1
    if m not in PREFERRED_PAIRS:
        raise ValueError(
            f"no preferred pair of degree {m} is configured "
            f"(supported spreading factors: {sorted(2 ** d for d in PREFERRED_PAIRS)})"
        )
    taps_u, taps_v = PREFERRED_PAIRS[m]
    ones = [1] * m
    u = lfsr_m_sequence(taps_u, ones)
    v = lfsr_m_sequence(taps_v, ones)
    family = gold_family(u, v)
    # Combination sequences first: any two of them stay orthogonal after
    # padding, the lone m-sequences may conflict and are tried last.
    candidates = family[2:] + [family[0], family[1]]

    kept: list[np.ndarray] = []
    for cand in candidates:
        padded = np.concatenate([cand, [1]])
        if all(int(np.dot(padded, row)) == 0 for row in kept):
            kept.append(padded)
        if len(kept) == n:
            break
    if len(kept) < n:
        raise ValueError(
            f"only {len(kept)} mutually orthogonal padded Gold sequences "
            f"found for degree {m}, need {n}"
        )
    return SpreadingMatrix(FAMILY_GOLD, n, np.array(kept, dtype=np.int64))


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
    return SpreadingMatrix(FAMILY_GCS, n, rows)


def build_matrix(family: str, n: int) -> SpreadingMatrix:
    """Build a spreading matrix by family token ('wh', 'gold' or 'gcs').

    Memoised: every call with the same arguments returns the same
    immutable matrix, whose rows are write-protected.  n is checked
    before the cache, where 8.0 and True would hit the entries of 8 and 1.
    """
    _check_integer("n", n)
    return _build_matrix(family, int(n))


@lru_cache(maxsize=None)
def _build_matrix(family: str, n: int) -> SpreadingMatrix:
    if family == FAMILY_WALSH:
        return walsh_hadamard(n)
    if family == FAMILY_GOLD:
        return orthogonal_gold_matrix(n)
    if family == FAMILY_GCS:
        return golay_complementary_matrix(n)
    raise ValueError(f"unknown spreading family {family!r} (choose from {FAMILIES})")


def correlation_value_bound(m: int) -> int:
    """Gold bound t(m): 2^((m+1)/2)+1 for odd m, 2^((m+2)/2)+1 for even m."""
    if m % 2 == 1:
        return 2 ** ((m + 1) // 2) + 1
    return 2 ** ((m + 2) // 2) + 1


def verify_spreading_invariants() -> list[tuple[str, bool, str]]:
    """Run every correlation invariant; returns (name, ok, detail) rows."""
    checks: list[tuple[str, bool, str]] = []

    for n in (2, 4, 8, 16, 32):
        for family in (FAMILY_WALSH, FAMILY_GCS):
            try:
                build_matrix(family, n)
                checks.append((f"gram {family} N={n}", True, "N*I exact"))
            except ValueError as exc:
                checks.append((f"gram {family} N={n}", False, str(exc)))
    for n in (8, 32):
        try:
            build_matrix(FAMILY_GOLD, n)
            checks.append((f"gram gold N={n}", True, "N*I exact"))
        except ValueError as exc:
            checks.append((f"gram gold N={n}", False, str(exc)))

    for n in (2, 4, 8, 16, 32):
        worst = 0
        for a, b in golay_pair_tree(n):
            for k in range(1, n):
                worst = max(worst, abs(aperiodic_autocorr(a, k) + aperiodic_autocorr(b, k)))
        checks.append((f"complementary pair sums N={n}", worst == 0, f"max |R_a+R_b| = {worst}"))

    for m, (taps_u, taps_v) in PREFERRED_PAIRS.items():
        ones = [1] * m
        u = lfsr_m_sequence(taps_u, ones)
        v = lfsr_m_sequence(taps_v, ones)
        period = (1 << m) - 1
        acf_ok = all(
            periodic_crosscorr(s, s, k) == -1
            for s in (u, v)
            for k in range(1, period)
        )
        checks.append((f"m-sequence autocorrelation m={m}", acf_ok, "-1 at all nonzero shifts"))

        t = correlation_value_bound(m)
        allowed = {-1, -t, t - 2}
        family = gold_family(u, v)
        seen = set()
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                for s in range(period):
                    seen.add(periodic_crosscorr(family[i], family[j], s))
        ok = seen <= allowed
        checks.append(
            (f"gold cross-correlation values m={m}", ok, f"observed {sorted(seen)}")
        )

    return checks
