import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from modesim import stochastic
from modesim.stochastic import PerturbationModel, RateConstants, _dawson, _embedding_scale, rates, sample_path


# --- independent Dawson-function oracle -------------------------------------
#
# F(x) = exp(-x^2) * integral_0^x exp(t^2) dt via the Maclaurin series
# F(x) = sum_n (-1)^n 2^n x^(2n+1) / (1*3*5*...*(2n+1)); converges fast for
# the |x| <= 2 range used here.  Never calls scipy.

def dawson_series(x):
    term = x
    total = x
    for n in range(1, 200):
        term *= -2.0 * x * x / (2 * n + 1)
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-30):
            return total
    raise AssertionError("Dawson series did not converge")


DAWSON_AT_ONE = 0.5380795069127684  # frozen from the series oracle

# F(x) correctly rounded to float64, frozen from a 256-bit x 1F1(1; 3/2; -x^2)
# evaluation (mpmath, checked against the erfi form).  The comments give
# scipy.special.dawsn's distance, in ulp, with scipy 1.17.1.
DAWSON_TABLE = [
    (5e-324, 5e-324),  # subnormal
    (2.2250738585072014e-308, 2.2250738585072014e-308),  # smallest normal
    (1e-300, 1e-300),
    (1e-10, 1e-10),
    (0.001, 0.0009999993333336),
    (0.05, 0.04991674994050925),  # scipy 4 ulp
    (0.1, 0.09933599239785286),  # scipy 3 ulp
    (0.19, 0.18549268702269875),
    (0.5, 0.4244363835020223),
    (0.9241388730045916, 0.5410442246351816),  # the maximum of F; scipy 1 ulp
    (0.9999999999999999, 0.5380795069127684),  # the default rates config
    (1.0, 0.5380795069127684),
    (1.5, 0.4282490710853986),  # scipy 1 ulp
    (2.0, 0.30134038892379195),  # scipy 1 ulp
    (3.0, 0.1782710306105583),  # scipy 1 ulp
    (4.0, 0.12934800123600512),  # scipy 1 ulp
    (5.0, 0.10213407442427684),  # scipy 1 ulp
    (6.0, 0.08454268897454385),  # scipy 2 ulp
    (7.5, 0.06727581164463062),
    (10.0, 0.05025384718759853),  # scipy 1 ulp
    (11.999999999999998, 0.04181287645398827),  # last point of the Maclaurin branch
    (12.0, 0.04181287645398826),  # first point of the asymptotic branch
    (15.0, 0.033407906808639226),
    (20.0, 0.02503136792640367),  # scipy 6 ulp
    (25.9, 0.019319440936356447),
    (26.0, 0.019245024851840636),  # scipy 2 ulp
    (50.0, 0.010002001201201684),
    (1000.0, 0.000500000250000375),
    (1e9, 5e-10),
    (1e300, 5e-301),  # scipy 1 ulp
]
DAWSON_MAX = 0.5410442246351816  # F(0.9241388730045916), correctly rounded


def pair_transform(model, dz, count, pair_seed):
    """The one-path-per-seed draw: circulant-embedding transform of default_rng(pair_seed)'s normals."""
    scale = _embedding_scale(model.sigma, model.corr_length, dz, count)
    draws = np.random.default_rng(pair_seed).standard_normal((2, scale.shape[0]))
    spectrum = np.empty(scale.shape[0], dtype=np.complex128)
    spectrum.real = scale * draws[0]
    spectrum.imag = scale * draws[1]
    return np.fft.fft(spectrum)[:count]


@settings(max_examples=40, deadline=None)
@given(resolution=st.floats(8.0, 4096.0), window=st.floats(20.0, 160.0),
       corr_length=st.floats(1e-6, 1e-2))
def test_first_circulant_embedding_is_psd_on_every_accepted_grid(resolution, window, corr_length):
    # check_sample_grid runs before any embedding and demands dz <= D/8 and a window of at
    # least 20 D; on such grids the first embedding's least eigenvalue stays above -1e-12 of
    # the greatest (-2e-16 at worst over 84 grids), so no larger embedding is ever needed
    model = PerturbationModel(1.0, corr_length, 500.0)
    dz, count = corr_length / resolution, math.ceil(window * resolution)
    stochastic.check_sample_grid(model, dz, count)
    size = 1 << max(1, math.ceil(math.log2(2 * (count - 1))))
    j = np.arange(size)
    eig = np.fft.fft(np.exp(-((np.minimum(j, size - j) * dz / corr_length) ** 2))).real
    assert eig.min() >= -1e-12 * eig.max()
    # uncached: the scale of the largest grids is 16 MB
    assert _embedding_scale.__wrapped__(model.sigma, corr_length, dz, count).shape == (size,)


class TestSamplePath:
    def test_zero_sigma_gives_zero_path(self):
        model = PerturbationModel(0.0, 50e-6, 100.0)
        path = sample_path(model, 50e-6 / 8, 200, seed=3)
        assert np.all(path == 0.0)

    def test_bit_reproducible(self, default_model):
        dz = default_model.corr_length / 8
        a = sample_path(default_model, dz, 300, seed=11)
        b = sample_path(default_model, dz, 300, seed=11)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, default_model):
        dz = default_model.corr_length / 8
        a = sample_path(default_model, dz, 300, seed=11)
        b = sample_path(default_model, dz, 300, seed=12)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 12, 9000])
    def test_even_seed_is_single_path_draw(self, default_model, seed):
        # bit for bit the path every earlier version drew from default_rng(seed)
        dz = default_model.corr_length / 8
        path = sample_path(default_model, dz, 300, seed)
        assert np.array_equal(path, pair_transform(default_model, dz, 300, seed).real)

    @pytest.mark.parametrize("seed", [1, 13, 9001])
    def test_odd_seed_is_imaginary_part(self, default_model, seed):
        dz = default_model.corr_length / 8
        path = sample_path(default_model, dz, 300, seed)
        assert np.array_equal(path, pair_transform(default_model, dz, 300, seed - 1).imag)

    def test_values_independent_of_call_order(self, default_model):
        dz = default_model.corr_length / 8
        other = PerturbationModel(0.02, default_model.corr_length, 100.0)
        calls = [(default_model, 300, 41), (default_model, 300, 40), (default_model, 300, 41),
                 (other, 300, 40), (default_model, 300, 41), (default_model, 400, 40),
                 (default_model, 300, 40), (default_model, 300, 40), (other, 300, 41)]
        for model, count, seed in calls:
            transform = pair_transform(model, dz, count, seed & ~1)
            assert np.array_equal(sample_path(model, dz, count, seed),
                                  transform.imag if seed & 1 else transform.real)

    def test_pair_parts_uncorrelated(self):
        # the real and imaginary paths of a pair are independent: the lag-0
        # product averaged over 400 pairs stays within 4 SE of 0
        model = PerturbationModel(0.01, 50e-6, 100.0)
        dz = model.corr_length / 8
        products = [float(np.mean(sample_path(model, dz, 400, 2 * k)
                                  * sample_path(model, dz, 400, 2 * k + 1)))
                    for k in range(3000, 3400)]
        stderr = np.std(products, ddof=1) / math.sqrt(len(products))
        assert abs(np.mean(products)) < 4.0 * stderr

    def test_step_too_coarse_rejected(self, default_model):
        with pytest.raises(ValueError, match="resolve"):
            sample_path(default_model, default_model.corr_length / 4, 400, seed=0)

    def test_window_too_short_rejected(self, default_model):
        dz = default_model.corr_length / 8
        with pytest.raises(ValueError, match="short"):
            sample_path(default_model, dz, 100, seed=0)

    @pytest.mark.parametrize("dz", [math.nan, math.inf])
    def test_non_finite_step_rejected_before_any_transform(self, default_model, dz, monkeypatch):
        # NaN compares false in every later guard, so this check alone keeps it
        # from reaching the embedding
        scaled = []
        monkeypatch.setattr(stochastic, "_embedding_scale", lambda *args: scaled.append(args))
        with pytest.raises(ValueError, match="dz"):
            sample_path(default_model, dz, 400, seed=0)
        assert scaled == []

    def test_lag_zero_variance(self):
        # Monte Carlo estimate of <f^2> against sigma^2 (5% tolerance)
        model = PerturbationModel(0.01, 50e-6, 100.0)
        dz = model.corr_length / 8
        total = 0.0
        n_paths = 2000
        for i in range(n_paths):
            values = sample_path(model, dz, 400, seed=1000 + i)
            total += float(np.mean(values * values))
        estimate = total / n_paths
        assert abs(estimate - model.sigma ** 2) / model.sigma ** 2 < 0.05

    def test_lag_d_autocovariance(self):
        # Monte Carlo estimate of <f(z) f(z-D)> against sigma^2 e^{-1} (10%)
        model = PerturbationModel(0.01, 50e-6, 100.0)
        dz = model.corr_length / 8
        lag = round(model.corr_length / dz)
        total = 0.0
        n_paths = 2000
        for i in range(n_paths):
            values = sample_path(model, dz, 400, seed=5000 + i)
            total += float(np.mean(values[lag:] * values[:-lag]))
        estimate = total / n_paths
        target = model.sigma ** 2 * math.exp(-1.0)
        assert abs(estimate - target) / target < 0.10

    def test_length_property(self, default_model):
        dz = default_model.corr_length / 8
        path = sample_path(default_model, dz, 256, seed=1)
        assert path.shape == (256,)
        assert path.dtype == np.float64 and path.flags.c_contiguous and not path.flags.writeable


class TestRates:
    def test_zero_delta_beta(self, default_model):
        rate = rates(default_model, 0.0)
        expected_gamma = (math.sqrt(math.pi) * default_model.sigma ** 2
                          * default_model.corr_length * abs(default_model.k_ab) ** 2)
        assert abs(rate.gamma - expected_gamma) < 1e-12 * expected_gamma
        assert rate.kappa == 0.0
        assert not rate.regime_ok

    def test_zero_sigma(self):
        model = PerturbationModel(0.0, 100e-6, 500.0)
        rate = rates(model, 2e4)
        assert rate.gamma == 0.0
        assert rate.kappa == 0.0
        assert rate.regime_ok

    def test_dawson_point_against_series_oracle(self, default_model):
        # D dbeta / 2 = 1: gamma = sqrt(pi) sigma^2 D e^{-1} |K|^2 and
        # kappa = 2 sigma^2 D F(1) |K|^2 with F(1) from the series oracle
        dbeta = 2.0 / default_model.corr_length
        rate = rates(default_model, dbeta)
        scale = default_model.sigma ** 2 * default_model.corr_length * abs(default_model.k_ab) ** 2
        gamma_expected = math.sqrt(math.pi) * math.exp(-1.0) * scale
        kappa_expected = 2.0 * DAWSON_AT_ONE * scale
        assert abs(rate.gamma - gamma_expected) < 1e-12 * gamma_expected
        assert abs(rate.kappa - kappa_expected) < 1e-12 * kappa_expected
        assert abs(dawson_series(1.0) - DAWSON_AT_ONE) < 1e-15

    def test_dawson_matches_series_on_grid(self, default_model):
        # the closed form uses the module's decimal Dawson function; the
        # alternating float series is an independent route and both must agree to 1e-12
        scale = 2.0 * default_model.sigma ** 2 * default_model.corr_length * abs(default_model.k_ab) ** 2
        for x in np.linspace(-2.0, 2.0, 41):
            dbeta = 2.0 * x / default_model.corr_length
            rate = rates(default_model, dbeta)
            expected = scale * dawson_series(float(x))
            assert abs(rate.kappa - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_gamma_even_and_decreasing(self, default_model):
        magnitudes = np.linspace(0.0, 4.0, 9) / default_model.corr_length
        gammas = [rates(default_model, m).gamma for m in magnitudes]
        assert all(g1 >= g2 for g1, g2 in zip(gammas, gammas[1:]))
        for m in magnitudes:
            assert rates(default_model, m).gamma == rates(default_model, -m).gamma

    def test_kappa_odd(self, default_model):
        for m in np.linspace(0.1, 4.0, 7) / default_model.corr_length:
            assert rates(default_model, m).kappa == -rates(default_model, -m).kappa

    def test_regime_flag(self, default_model):
        assert rates(default_model, 2.0 / default_model.corr_length).regime_ok
        strong = PerturbationModel(0.5, 100e-6, 50000.0)
        assert not rates(strong, 100.0).regime_ok

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            RateConstants(gamma=-1.0, kappa=0.0)


class TestDawson:
    @pytest.mark.parametrize("x,value", DAWSON_TABLE, ids=[repr(x) for x, _ in DAWSON_TABLE])
    def test_correctly_rounded_table(self, x, value):
        assert _dawson(x) == value
        assert _dawson(-x) == -value

    def test_agrees_with_scipy(self):
        # scipy's dawsn is off by tens of ulp below 0.2 and by up to 6 ulp above it
        grid = np.concatenate([-np.geomspace(1e-300, 60.0, 300), np.linspace(-60.0, 60.0, 1201),
                               np.geomspace(60.0, 1e300, 300)])
        for x in grid.tolist():
            assert _dawson(x) == pytest.approx(float(dawsn(x)), rel=2e-14, abs=0.0), x

    @pytest.mark.parametrize("x", [0.0, -0.0, math.inf, -math.inf])
    def test_zero_and_infinity_give_signed_zero(self, x):
        value = _dawson(x)
        assert value == 0.0
        assert math.copysign(1.0, value) == math.copysign(1.0, x)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 2.2250738585072009e-308])
    def test_subnormals_are_their_own_value(self, x):
        # F(x) = x - 2x^3/3 + ..., and 2x^3/3 is far below half an ulp of x
        assert _dawson(x) == x
        assert _dawson(-x) == -x

    @given(st.floats(allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_odd_and_bounded(self, x):
        value = _dawson(x)
        assert _dawson(-x) == -value
        assert abs(value) <= DAWSON_MAX


class TestValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PerturbationModel(-0.1, 50e-6, 100.0)

    def test_nonpositive_corr_length_rejected(self):
        with pytest.raises(ValueError):
            PerturbationModel(0.1, 0.0, 100.0)

    def test_complex_coupling_accepted(self):
        model = PerturbationModel(0.05, 100e-6, 300.0 + 400.0j)
        rate = rates(model, 2e4)
        reference = rates(PerturbationModel(0.05, 100e-6, 500.0), 2e4)
        assert abs(rate.gamma - reference.gamma) < 1e-12 * reference.gamma

