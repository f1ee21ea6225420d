from dataclasses import fields, replace

import numpy as np
import pytest

from dwtcdma.wavelet import (
    FAMILY_TOKENS,
    Filter,
    WaveletSpec,
    _orthonormal_bank,
    _validate_bank,
    dwt_forward,
    dwt_inverse,
    filter_bank,
)


def random_block(seed, n=256):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestFilterBank:
    def test_haar_coefficients(self):
        bank = filter_bank("haar")
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(bank.analysis_lowpass.taps, [inv_sqrt2, inv_sqrt2], atol=1e-15)
        assert np.allclose(bank.analysis_highpass.taps, [inv_sqrt2, -inv_sqrt2], atol=1e-15)

    def test_db2_constraint_system(self):
        # Defining system: sqrt(2) normalization, unit norm, double-shift
        # orthogonality, and two vanishing moments on the highpass.
        bank = filter_bank("db2")
        h = bank.analysis_lowpass.taps
        g = bank.analysis_highpass.taps
        assert abs(h.sum() - np.sqrt(2)) < 1e-12
        assert abs(np.dot(h, h) - 1) < 1e-12
        assert abs(np.dot(h[:2], h[2:])) < 1e-12
        assert abs(g.sum()) < 1e-10
        assert abs(np.dot(np.arange(4), g)) < 1e-10

    def test_bior22_perfect_reconstruction_oracle(self):
        spec = WaveletSpec("bior22")
        worst = 0.0
        for seed in range(100):
            x = random_block(seed)
            worst = max(worst, float(np.max(np.abs(dwt_inverse(dwt_forward(x, spec), spec) - x))))
        assert worst < 1e-10

    def test_perturbed_synthesis_tap_fails_self_check(self):
        bank = filter_bank("bior22")
        _validate_bank(bank)
        taps = bank.synthesis_highpass.taps.copy()
        taps[2] += 1e-6
        broken = replace(bank, synthesis_highpass=Filter(taps, bank.synthesis_highpass.origin))
        with pytest.raises(AssertionError, match="not perfectly reconstructing"):
            _validate_bank(broken)

    @pytest.mark.parametrize("bank", [
        replace(filter_bank("bior22"), orthonormal=True),
        _orthonormal_bank("haar", np.array([0.5, np.sqrt(2) - 0.5])),
    ], ids=["bior22", "haar-not-unit-norm"])
    def test_orthonormal_flag_is_certified(self, bank):
        # Both lowpasses sum to sqrt(2), but neither has unit norm.
        with pytest.raises(AssertionError, match="analysis filters are not orthonormal"):
            _validate_bank(bank)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown wavelet"):
            filter_bank("sym4")
        with pytest.raises(ValueError, match="unknown wavelet"):
            WaveletSpec("coif1")


class TestForward:
    def test_constant_input_concentrates_in_deepest_coefficient(self):
        # Oracle: repeated pairwise averaging multiplies by sqrt(2) per
        # level; 8 levels on a constant block leave c * 16 in one slot.
        c = 2.5 - 1.25j
        coeffs = dwt_forward(np.full(256, c), WaveletSpec("haar"))
        assert abs(coeffs[0] - 16 * c) < 1e-12
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_zero_input(self):
        coeffs = dwt_forward(np.zeros(256), WaveletSpec("db2"))
        assert np.all(coeffs == 0)

    def test_haar_single_level_pairs(self):
        coeffs = dwt_forward(np.ones(256), WaveletSpec("haar", levels=1))
        assert np.allclose(coeffs, np.repeat([np.sqrt(2), 0.0], 128), atol=1e-14)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="block length"):
            dwt_forward(np.zeros(255), WaveletSpec("haar"))

    def test_componentwise_on_complex_data(self):
        spec = WaveletSpec("db2")
        x = random_block(5)
        combined = dwt_forward(x, spec)
        assert np.allclose(combined.real, dwt_forward(x.real, spec).real, atol=1e-12)
        assert np.allclose(combined.imag, dwt_forward(1j * x.imag, spec).imag, atol=1e-12)


class TestInverse:
    @pytest.mark.parametrize("family", FAMILY_TOKENS)
    def test_perfect_reconstruction_100_random_blocks(self, family):
        spec = WaveletSpec(family)
        worst = 0.0
        for seed in range(100):
            x = random_block(seed + 1000)
            worst = max(worst, float(np.max(np.abs(dwt_inverse(dwt_forward(x, spec), spec) - x))))
        assert worst < 1e-10

    @pytest.mark.parametrize("family", FAMILY_TOKENS)
    def test_forward_of_inverse_identity(self, family):
        spec = WaveletSpec(family)
        c = random_block(77)
        assert np.max(np.abs(dwt_forward(dwt_inverse(c, spec), spec) - c)) < 1e-10

    def test_unit_impulse_atom_energy(self):
        spec = WaveletSpec("haar")
        for pos in (0, 1, 17, 255):
            c = np.zeros(256, dtype=complex)
            c[pos] = 1
            atom = dwt_inverse(c, spec)
            assert abs(np.sum(np.abs(atom) ** 2) - 1) < 1e-12

    def test_linearity(self):
        spec = WaveletSpec("bior22")
        u, v = random_block(8), random_block(9)
        a, b = 1.7 - 0.3j, -2.2 + 0.9j
        lhs = dwt_inverse(a * u + b * v, spec)
        rhs = a * dwt_inverse(u, spec) + b * dwt_inverse(v, spec)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="block length"):
            dwt_inverse(np.zeros(128), WaveletSpec("haar"))


class TestEnergyProperties:
    @pytest.mark.parametrize("family", ["haar", "db2"])
    def test_parseval(self, family):
        spec = WaveletSpec(family)
        for seed in (4, 5, 6):
            x = random_block(seed)
            coeffs = dwt_forward(x, spec)
            assert abs(np.sum(np.abs(coeffs) ** 2) - np.sum(np.abs(x) ** 2)) < 1e-10

    @pytest.mark.parametrize("family", ["haar", "db2"])
    def test_white_noise_variance_preserved(self, family):
        spec = WaveletSpec(family)
        rng = np.random.default_rng(99)
        samples = rng.standard_normal((400, 256))
        coeffs = dwt_forward(samples, spec)
        variance = float(np.var(coeffs.real))
        assert abs(variance - 1.0) < 0.05

    def test_levels_configurable(self):
        spec = WaveletSpec("haar", levels=3)
        x = random_block(123)
        assert np.max(np.abs(dwt_inverse(dwt_forward(x, spec), spec) - x)) < 1e-10

    def test_block_is_fixed(self):
        # Family and depth are the settings; the 256-point block is not one.
        assert [f.name for f in fields(WaveletSpec)] == ["family", "levels"]
        assert WaveletSpec("db2", 3).block_size == WaveletSpec.block_size == 256
        with pytest.raises(TypeError):
            WaveletSpec("haar", block_size=128)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WaveletSpec("haar", levels=0)

    @pytest.mark.parametrize("field, value", [("levels", True)])
    def test_spec_rejects_non_integer_sizes(self, field, value):
        # True would build one level.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            WaveletSpec("haar", **{field: value})
