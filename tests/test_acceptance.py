"""Acceptance suite: end-to-end checks of the simulator's contractual
behavior, one printed PASS/FAIL line per check (run with
`pytest tests/test_acceptance.py -v -s`).

Quantitative BER checks run against closed-form references with enough
accumulated bit errors that the stated tolerances sit several binomial
standard deviations out; every randomized check is seeded and therefore
deterministic.

snr_db is Eb/N0 per information bit, so a Golay-coded link sends each
symbol with 12/23 of the energy of an uncoded one, 10*log10(23/12) =
2.83 dB less.  The coding-gain checks assert gain only at operating
points where that convention allows it; their docstrings derive each
point and bound from closed-form values or from a chain-independent
reference (modulate, AWGN at the same per-symbol noise, detect, Golay
decode; no spreading and no DWT).
"""

import time

import numpy as np

from dwtcdma import fec
from dwtcdma.link import LinkConfig, run_link_once
from dwtcdma.sim import (
    PointSpec,
    point_seed,
    preset_config,
    run_point,
    run_sweep,
    theoretical_ber,
    write_outputs,
)
from dwtcdma.spreading import (
    PREFERRED_PAIRS,
    build_matrix,
    correlation_value_bound,
    golay_pair_tree,
    gold_family,
    lfsr_m_sequence,
    periodic_crosscorr,
)
from dwtcdma.wavelet import WaveletSpec, dwt_forward, dwt_inverse

MASTER_SEED = 20240813
# Energy per symbol a coded link gives up at equal Eb/N0 per information bit.
RATE_PENALTY_DB = 10.0 * np.log10(fec.N_CODE / fec.K_MSG)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def measure(point: PointSpec, min_errors: int, max_bits: int = 10_000_000):
    return run_point(point, min_errors, max_bits, seed=point_seed(MASTER_SEED, point))


class TestGolayCode:
    def test_perfect_code_suite(self):
        """All 4096 codewords x 2048 correctable patterns decode exactly;
        cyclic/complement closure; generator factorization; weight tally."""
        started = time.perf_counter()
        rows = fec.verify_golay_invariants()
        elapsed = time.perf_counter() - started
        failed = [name for name, ok, _ in rows if not ok]
        decode_detail = {name: detail for name, _, detail in rows}["decode"]
        ok = (not failed and len(rows) == 6 and decode_detail.endswith(" 8388608 cases")
              and elapsed < 60.0)
        report("golay-perfect-code", ok,
               f"{len(rows)} checks, failed {failed}, {decode_detail}, {elapsed:.1f}s")


class TestTheoryAnchor:
    def test_uncoded_ber_matches_coherent_theory(self):
        """Uncoded links through the full chain track their AWGN reference
        curves within 15% at 0/2/4/6 dB for the orthonormal wavelets:
        BPSK/QPSK Q(sqrt(2 Eb/N0)), DBPSK exp(-Eb/N0)/2 and the DQPSK
        integral.  With haar the noise factor C is the identity, so the
        despread noise is white per symbol and complex, as the
        differential references assume; DBPSK decides on
        Re(r_n conj(r_n-1)), which contains Im*Im, so a chain that dropped
        the imaginary noise would sit 23-56% below exp(-Eb/N0)/2.  The
        differential pairs use haar only: db2's DBPSK point at 6 dB lies
        at +13%, too close to the bound."""
        started = time.perf_counter()
        worst = 0.0
        failures = []
        for scheme, wavelet in (("bpsk", "haar"), ("bpsk", "db2"), ("qpsk", "haar"),
                                ("dbpsk", "haar"), ("dqpsk", "haar")):
            for snr in (0.0, 2.0, 4.0, 6.0):
                record = measure(PointSpec(snr, scheme, "wh", wavelet, False, 7), 400)
                theory = theoretical_ber(scheme, snr)
                rel = abs(record.ber - theory) / theory
                worst = max(worst, rel)
                if rel > 0.15 or record.bit_errors < 100:
                    failures.append(f"{scheme}/{wavelet}@{snr:g}dB rel={rel:.1%}")
        elapsed = time.perf_counter() - started
        report("uncoded-theory-anchor", not failures and elapsed < 300.0,
               f"worst deviation {worst:.1%}, {elapsed:.1f}s {failures}")


class TestNoiselessChain:
    def test_noiseless_roundtrip_all_combinations(self):
        """3 families x 4 schemes x 3 wavelets x coded/uncoded: zero errors."""
        rng = np.random.default_rng(MASTER_SEED)
        failures = []
        for family in ("wh", "gold", "gcs"):
            matrix = build_matrix(family, 8)
            for scheme in ("bpsk", "qpsk", "dbpsk", "dqpsk"):
                for wavelet in ("haar", "db2", "bior22"):
                    for coded in (False, True):
                        cfg = LinkConfig(matrix, WaveletSpec(wavelet), scheme, 7,
                                         coded, snr_db=300.0)
                        bits = rng.integers(0, 2, (7, 131), dtype=np.uint8)
                        _, errors = run_link_once(bits, cfg, rng)
                        if errors:
                            failures.append((family, scheme, wavelet, coded, errors))
        report("noiseless-roundtrip-72", not failures, f"{failures or '72/72 exact'}")

    def test_user_zero_unaffected_by_interferers(self):
        """Decoded bits of user 0 are identical under different interferer
        payloads (multi-user interference is exactly zero)."""
        cfg = LinkConfig(build_matrix("wh", 8), WaveletSpec("haar"), "qpsk", 7,
                         False, snr_db=300.0)
        own = np.random.default_rng(1).integers(0, 2, (1, 256), dtype=np.uint8)
        outputs = []
        for interferer_seed in (2, 3):
            others = np.random.default_rng(interferer_seed).integers(0, 2, (6, 256), dtype=np.uint8)
            decoded, _ = run_link_once(np.vstack([own, others]), cfg,
                                       np.random.default_rng(4))
            outputs.append(decoded[0].copy())
        ok = np.array_equal(outputs[0], outputs[1]) and np.array_equal(outputs[0], own[0])
        report("interference-free-user", ok)


class TestCodingGain:
    def test_bpsk_coding_gain(self):
        """Coded BPSK at or below uncoded for 4..7 dB and 10x better at 7 dB."""
        ratios = {}
        failures = []
        for snr in (4.0, 5.0, 6.0, 7.0):
            uncoded = measure(PointSpec(snr, "bpsk", "wh", "haar", False, 7), 400)
            coded = measure(PointSpec(snr, "bpsk", "wh", "haar", True, 7),
                            400 if snr < 7 else 120)
            ratios[snr] = uncoded.ber / max(coded.ber, 1e-12)
            if coded.ber > uncoded.ber:
                failures.append(f"coded worse at {snr:g} dB")
        if ratios[7.0] < 10.0:
            failures.append(f"gain at 7 dB only {ratios[7.0]:.1f}x")
        report("bpsk-coding-gain", not failures,
               f"uncoded/coded ratios {({k: round(v, 2) for k, v in ratios.items()})}")

    def test_dbpsk_coding_gain(self):
        """Coded DBPSK below uncoded DBPSK at equal per-symbol noise for
        coded 5..8 dB, and at least 4x better at 8 dB.

        On the Eb/N0-per-information-bit axis coded DBPSK stays above
        uncoded up to a crossover near 10 dB: the coded symbols carry
        2.83 dB less energy, and differential detection errors arrive in
        pairs that often exceed the 3-error correction radius.  A
        chain-independent reference (DBPSK, AWGN at the same Es/N0,
        differential detection, Golay decode; no spreading, no DWT) gives
        uncoded/coded ratios of 0.32, 0.31, 0.34 and 0.36 at 4..7 dB and
        1.01 at 10 dB, so no correct chain can show gain there.

        The check therefore uses the README's equal-per-symbol-noise
        reading: coded at snr_db against uncoded at snr_db - 2.83 dB, so
        both links see the same noise per symbol and the difference is
        the decoder's alone.  Uncoded BER there is 0.5*exp(-Es/N0) =
        9.6e-2, 6.3e-2, 3.7e-2 and 1.9e-2 at coded 5, 6, 7 and 8 dB; the
        reference's gains are 1.39, 2.20, 4.3 and 10.5.  The 4x bound at
        8 dB is 40% of the reference gain.  Errors arrive in
        decoding-failure bursts, so at 2000 errors per point the ratio
        still spreads (one standard deviation over seeds) by about 4% of
        itself at 5 dB and 8% at 8 dB; both criteria sit eight such
        spreads away.  A decoder that corrects nothing leaves every ratio
        near 1.
        """
        ratios = {}
        failures = []
        for snr in (5.0, 6.0, 7.0, 8.0):
            uncoded = measure(
                PointSpec(snr - RATE_PENALTY_DB, "dbpsk", "wh", "haar", False, 7), 2000)
            coded = measure(PointSpec(snr, "dbpsk", "wh", "haar", True, 7), 2000)
            ratios[snr] = uncoded.ber / max(coded.ber, 1e-12)
            if not coded.ber < uncoded.ber:
                failures.append(f"coded not better at {snr:g} dB")
        if ratios[8.0] < 4.0:
            failures.append(f"gain at 8 dB only {ratios[8.0]:.2f}x")
        report("dbpsk-coding-gain", not failures,
               f"uncoded/coded ratios at equal per-symbol noise "
               f"{({k: round(v, 2) for k, v in ratios.items()})} {failures}")

    def test_coherent_beats_differential(self):
        """Uncoded BPSK strictly below uncoded DBPSK at 2, 4 and 6 dB."""
        failures = []
        details = []
        for snr in (2.0, 4.0, 6.0):
            bpsk = measure(PointSpec(snr, "bpsk", "wh", "haar", False, 7), 400)
            dbpsk = measure(PointSpec(snr, "dbpsk", "wh", "haar", False, 7), 400)
            details.append(f"{snr:g}dB {bpsk.ber:.2e}<{dbpsk.ber:.2e}")
            if not bpsk.ber < dbpsk.ber:
                failures.append(snr)
        report("bpsk-below-dbpsk", not failures, "; ".join(details))


class TestFamilyEquivalence:
    def test_spreading_families_statistically_equivalent(self):
        """The three code families give pairwise BER ratios within 1.5x at
        5 dB with >=1000 errors per point."""
        bers = {}
        for family in ("wh", "gold", "gcs"):
            record = measure(PointSpec(5.0, "bpsk", family, "haar", False, 7), 1000)
            bers[family] = record.ber
        values = sorted(bers.values())
        ratio = values[-1] / values[0]
        report("family-equivalence", ratio < 1.5,
               f"{ {k: f'{v:.3e}' for k, v in bers.items()} } max ratio {ratio:.2f}")

    def test_quaternary_ordering_matches_binary(self):
        """QPSK below DQPSK, matching the BPSK/DBPSK ordering."""
        qpsk = measure(PointSpec(5.0, "qpsk", "wh", "haar", False, 7), 600)
        dqpsk = measure(PointSpec(5.0, "dqpsk", "wh", "haar", False, 7), 600)
        report("qpsk-below-dqpsk", qpsk.ber < dqpsk.ber,
               f"qpsk {qpsk.ber:.3e} dqpsk {dqpsk.ber:.3e}")

    def test_low_snr_coded_crossover_reported(self):
        """Coded QPSK above uncoded at 2 dB and below it at 4 dB: the
        crossover lies between 2 and 4 dB, as README documents.

        QPSK with Gray mapping has the per-bit error of BPSK,
        Q(sqrt(2 Eb/N0)): 3.75e-2 at 2 dB and 1.25e-2 at 4 dB uncoded.
        The coded symbols carry 12/23 of that energy, so the raw bit
        error is Q(sqrt(2 * 10**(snr/10) * 12/23)) = 9.92e-2 and 5.27e-2;
        an ideal hard-decision Golay decoder on a binary channel with
        those error rates (exact sum over all 2^23 error patterns) gives
        information-bit BERs of 5.97e-2 and 9.52e-3.  The coded/uncoded
        ratios are 1.59 at 2 dB and 0.76 at 4 dB.  Decoding failures flip
        about 3.7 information bits at once, so 2000 errors are about 540
        independent events; over ten other master seeds the chain's ratio
        is 1.61 +- 0.03 at 2 dB and 0.76 +- 0.04 at 4 dB, so both points
        sit at least six such spreads from 1.  A decoder that corrects
        nothing leaves the coded BER at the raw 5.27e-2 at 4 dB, above
        uncoded.
        """
        ratios = {}
        failures = []
        for snr, coded_better in ((2.0, False), (4.0, True)):
            uncoded = measure(PointSpec(snr, "qpsk", "wh", "haar", False, 7), 2000)
            coded = measure(PointSpec(snr, "qpsk", "wh", "haar", True, 7), 2000)
            ratios[snr] = coded.ber / uncoded.ber
            if (coded.ber < uncoded.ber) != coded_better:
                failures.append(f"coded {'not ' if coded_better else ''}better at {snr:g} dB")
        report("qpsk-crossover", not failures,
               f"coded/uncoded ratios {({k: round(v, 2) for k, v in ratios.items()})} {failures}")


class TestWaveletSuite:
    def test_reconstruction_energy_and_noise(self):
        """PR < 1e-10 on 100 random blocks for every family; Parseval and
        white-noise variance preservation for the orthonormal families."""
        failures = []
        rng = np.random.default_rng(MASTER_SEED)
        for family in ("haar", "db2", "bior22"):
            spec = WaveletSpec(family)
            worst = 0.0
            for _ in range(100):
                x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
                err = np.max(np.abs(dwt_inverse(dwt_forward(x, spec), spec) - x))
                worst = max(worst, float(err))
            if worst > 1e-10:
                failures.append(f"{family} PR {worst:.2e}")
        for family in ("haar", "db2"):
            spec = WaveletSpec(family)
            x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            coeffs = dwt_forward(x, spec)
            if abs(np.sum(np.abs(coeffs) ** 2) - np.sum(np.abs(x) ** 2)) > 1e-10:
                failures.append(f"{family} Parseval")
            noise = rng.standard_normal((400, 256))
            variance = float(np.var(dwt_forward(noise, spec).real))
            if abs(variance - 1.0) > 0.05:
                failures.append(f"{family} noise variance {variance:.3f}")
        report("wavelet-suite", not failures, f"{failures or 'all families ok'}")


class TestSpreadingSuite:
    def test_correlation_invariants_exact(self):
        """Gram = N*I for every matrix; complementary-pair sums vanish up
        to N=32; Gold value sets exactly three-valued; m-sequence
        autocorrelation -1 everywhere off-peak."""
        failures = []
        for family, orders in (("wh", (2, 4, 8, 16, 32)), ("gcs", (2, 4, 8, 16, 32)),
                               ("gold", (8, 32))):
            for n in orders:
                matrix = build_matrix(family, n)
                gram = matrix.rows @ matrix.rows.T
                if not np.array_equal(gram, n * np.eye(n, dtype=np.int64)):
                    failures.append(f"gram {family} {n}")
        for n in (2, 4, 8, 16, 32):
            for a, b in golay_pair_tree(n):
                for k in range(1, n):
                    total = sum(int(a[j]) * int(a[j + k]) for j in range(n - k))
                    total += sum(int(b[j]) * int(b[j + k]) for j in range(n - k))
                    if total != 0:
                        failures.append(f"gcp N={n} lag={k}")
        for m, taps in PREFERRED_PAIRS.items():
            u, v = (lfsr_m_sequence(t, [1] * m) for t in taps)
            period = (1 << m) - 1
            for seq in (u, v):
                if any(periodic_crosscorr(seq, seq, k) != -1 for k in range(1, period)):
                    failures.append(f"m-seq autocorr m={m}")
            t_m = correlation_value_bound(m)
            family = gold_family(u, v)
            seen = set()
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    for s in range(period):
                        seen.add(periodic_crosscorr(family[i], family[j], s))
            if seen != {-1, -t_m, t_m - 2}:
                failures.append(f"gold values m={m}: {sorted(seen)}")
        report("spreading-suite", not failures, f"{failures or 'all exact'}")


class TestUserCountBehavior:
    def test_ber_independent_of_user_count_by_default(self):
        """Orthogonal codes over AWGN: BER at fixed Eb/N0 does not depend
        on how many users are active (within Monte-Carlo error)."""
        bers = {}
        for users in (1, 4, 7):
            record = measure(PointSpec(4.0, "bpsk", "wh", "haar", False, users), 1200)
            bers[users] = record.ber
        values = sorted(bers.values())
        ratio = values[-1] / values[0]
        report("user-count-independence", ratio < 1.25,
               f"{ {k: f'{v:.3e}' for k, v in bers.items()} } max ratio {ratio:.2f}")

    def test_total_power_ber_grows_with_users(self):
        """Shared-power mode at 0 dB: per-user energy falls as 1/U, so BER
        is non-decreasing in the number of users."""
        failures = []
        for coded in (False, True):
            previous = 0.0
            series = []
            for users in range(1, 8):
                record = measure(
                    PointSpec(0.0, "bpsk", "wh", "haar", coded, users, 8, True), 3000)
                series.append(record.ber)
                if record.ber < previous * 0.97:
                    failures.append(f"coded={coded} U={users}")
                previous = record.ber
        report("total-power-user-trend", not failures, f"{failures or 'non-decreasing'}")

    def test_total_power_coded_still_better(self):
        """Shared-power mode: coded BPSK below uncoded for U = 1, 4 and 7
        with every user's share held at 6 dB Eb/N0 per information bit.

        Shared-power mode scales the transmit signal by 1/sqrt(U), so a
        user's share is snr_db - 10*log10(U); the check runs at
        snr_db = 6 + 10*log10(U).  At 6 dB the coded symbols see
        Es/N0 = 6 - 2.83 dB and a raw error rate of
        Q(sqrt(2 * 10**0.6 * 12/23)) = 0.0208; an ideal hard-decision
        Golay decoder on a binary channel with that error rate gives an
        information-bit BER of 3.7e-4, against Q(sqrt(2 * 10**0.6)) =
        2.39e-3 uncoded.  6 dB lies above the 2..4 dB BPSK crossover.

        At a fixed 0 dB no correct chain gives gain: at U = 1 the raw
        symbol error is Q(sqrt(24/23)) = 0.1535 and ideal decoding gives
        0.154, above Q(sqrt(2)) = 0.0786 uncoded, and the smaller shares
        at U = 4 and 7 only make it worse (a binary channel with error
        rate 0.296 decodes to 0.343).
        """
        failures = []
        details = []
        for users in (1, 4, 7):
            snr = 6.0 + 10.0 * np.log10(users)
            uncoded = measure(PointSpec(snr, "bpsk", "wh", "haar", False, users, 8, True), 2000)
            coded = measure(PointSpec(snr, "bpsk", "wh", "haar", True, users, 8, True), 2000)
            details.append(f"U={users} coded {coded.ber:.2e} uncoded {uncoded.ber:.2e}")
            if not coded.ber < uncoded.ber:
                failures.append(users)
        report("total-power-coded-gain", not failures, "; ".join(details))


class TestReproducibility:
    def test_sweep_results_identical_across_parallelism(self, tmp_path):
        """`sweep --preset fig2 --seed 42` yields byte-identical
        results.csv for 1 and 4 worker processes."""
        outputs = []
        for jobs in (1, 4):
            config = preset_config("fig2", master_seed=42,
                                   min_bit_errors=6, max_info_bits=3000)
            records = run_sweep(config, jobs=jobs)
            out_dir = tmp_path / f"jobs{jobs}"
            write_outputs(records, out_dir, config, preset="fig2")
            outputs.append((out_dir / "results.csv").read_bytes())
        report("sweep-reproducibility", outputs[0] == outputs[1],
               f"{len(outputs[0])} bytes each")
