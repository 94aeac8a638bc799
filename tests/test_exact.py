"""Reference-solution tests: Bessel functions, series, traveling wave."""

import math

import mpmath as mp
import numpy as np
import pytest

from ctburgers.exact import (
    SeriesControl,
    SeriesConvergenceError,
    _bessel_ratios,
    bessel_i,
    bessel_i_ratio,
    sine_wave_exact,
    traveling_wave_exact,
    traveling_wave_slope,
)

mp.mp.dps = 50


def bessel_oracle(order, z, terms=40):
    """Ascending series in 50-digit arithmetic."""
    s = mp.mpf(0)
    for m in range(terms):
        s += (mp.mpf(z) / 2) ** (order + 2 * m) / (mp.factorial(m) * mp.factorial(m + order))
    return float(s)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        for j in (1, 2, 7):
            assert bessel_i(j, 0.0) == 0.0

    def test_order_three_at_two_vs_extended_precision_series(self):
        oracle = bessel_oracle(3, 2.0)
        assert oracle == pytest.approx(0.21273995923985266, rel=1e-15)
        assert bessel_i(3, 2.0) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("z", [0.1, 0.5, 2.0, 14.9, 15.1, 30.0, 60.0, 100.0])
    def test_relative_accuracy_against_mpmath(self, z):
        for order in (0, 1, 2, 5, 10, 20):
            ref = float(mp.besseli(order, z))
            if ref == 0.0:
                continue
            assert bessel_i(order, z) == pytest.approx(ref, rel=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)

    @pytest.mark.parametrize("z", [0.5, 2.0, 7.5, 15.0, 30.0])
    def test_three_term_recurrence_identity(self, z):
        for j in range(1, 21):
            lhs = bessel_i(j - 1, z) - bessel_i(j + 1, z)
            rhs = 2.0 * j / z * bessel_i(j, z)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-280)


class TestBesselRatio:
    def test_monotone_decay_in_order(self):
        z = 4.0
        ratios = [bessel_i_ratio(j, z) for j in range(1, 30)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-20

    @pytest.mark.parametrize("z", [0.5, 3.0, 15.915, 30.0])
    def test_consistent_with_direct_values(self, z):
        i0 = bessel_i(0, z)
        for j in (1, 2, 5):
            assert bessel_i_ratio(j, z) * i0 == pytest.approx(
                bessel_i(j, z), rel=1e-11
            )

    def test_small_viscosity_argument(self):
        # z = 1/(2 pi 0.01), the argument driving the lam = 0.01 series
        z = 1.0 / (2.0 * math.pi * 0.01)
        r1 = bessel_i_ratio(1, z)
        assert 0.0 < r1 < 1.0
        assert r1 == pytest.approx(float(mp.besseli(1, z) / mp.besseli(0, z)), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_i_ratio(0, 1.0)
        with pytest.raises(ValueError):
            bessel_i_ratio(1, 0.0)


class TestSineWaveSeries:
    def test_boundary_values_vanish(self):
        for t in (0.01, 0.4, 3.0):
            for lam in (1.0, 0.01):
                assert sine_wave_exact(0.0, t, lam) == pytest.approx(0.0, abs=1e-14)
                assert sine_wave_exact(1.0, t, lam) == pytest.approx(0.0, abs=1e-13)

    def test_time_zero_is_the_initial_condition(self):
        for x in (0.0, 0.3, 0.5, 1.0):
            assert sine_wave_exact(x, 0.0, 1.0) == math.sin(math.pi * x)

    def test_published_value_lam_one(self):
        assert sine_wave_exact(0.5, 0.4, 1.0) == pytest.approx(0.01924, abs=1e-5)

    def test_published_value_lam_hundredth(self):
        assert sine_wave_exact(0.75, 3.0, 0.01) == pytest.approx(0.22481, abs=1e-5)

    def test_misprinted_cell_value(self):
        # the published exact column shows 0.22896 here; the series gives
        # 0.26896, agreeing with the same table's method column
        v = sine_wave_exact(0.25, 0.6, 0.01)
        assert v == pytest.approx(0.26896, abs=2e-5)
        assert abs(v - 0.22896) > 0.03

    def test_truncation_stable_under_doubling(self):
        ctl = SeriesControl(abs_tol=1e-12, max_terms=500)
        doubled = SeriesControl(abs_tol=1e-12, max_terms=1000)
        for lam, t in [(1.0, 0.4), (0.1, 0.6), (0.01, 3.0)]:
            a = sine_wave_exact(0.3, t, lam, ctl)
            b = sine_wave_exact(0.3, t, lam, doubled)
            assert abs(a - b) < ctl.abs_tol

    def test_non_convergence_raises(self):
        ctl = SeriesControl(abs_tol=1e-12, max_terms=3)
        with pytest.raises(SeriesConvergenceError):
            sine_wave_exact(0.5, 0.01, 0.01, ctl)

    def test_control_validation(self):
        with pytest.raises(ValueError):
            SeriesControl(abs_tol=0.0)
        with pytest.raises(ValueError):
            SeriesControl(max_terms=0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sine_wave_exact(0.5, 0.4, 0.0)
        with pytest.raises(ValueError):
            sine_wave_exact(0.5, -0.1, 1.0)


def sine_wave_point(x, t, lam, ctl=SeriesControl()):
    """The series summed one point at a time on Python floats: the
    arithmetic that the array evaluation must reproduce bit for bit."""
    if t == 0.0:
        return math.sin(math.pi * x)
    z = 1.0 / (2.0 * math.pi * lam)
    decay = math.pi * math.pi * lam * t
    num, den = 0.0, 1.0
    ratios = _bessel_ratios(min(64, ctl.max_terms), z)
    for j in range(1, ctl.max_terms + 1):
        if j >= len(ratios):
            ratios = _bessel_ratios(2 * len(ratios), z)
        r = ratios[j]
        e = math.exp(-j * j * decay) if j * j * decay < 745.0 else 0.0
        y = math.fmod(j * x, 2.0)
        s = 0.0 if y == math.floor(y) else math.sin(math.pi * y)
        y = abs(y)
        c = 1.0 if y == 0.0 else -1.0 if y == 1.0 else math.cos(math.pi * y)
        num += j * r * s * e
        den += 2.0 * r * c * e
        if j * r * e < ctl.abs_tol and 2.0 * r * e < ctl.abs_tol:
            return 4.0 * math.pi * lam * num / den
    raise SeriesConvergenceError("reference sum not converged")


class TestSineWaveColumns:
    XS = np.concatenate([np.linspace(0.0, 1.0, 41), [0.3, 0.98, -0.25, 1.5]])

    @pytest.mark.parametrize("lam", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("t", [0.0, 0.02, 0.4, 1.0])
    def test_array_call_is_bit_identical_to_float_calls(self, lam, t):
        col = sine_wave_exact(self.XS, t, lam)
        floats = np.array([sine_wave_exact(x, t, lam) for x in self.XS.tolist()])
        reference = np.array([sine_wave_point(x, t, lam) for x in self.XS.tolist()])
        assert col.shape == self.XS.shape
        assert col.tobytes() == floats.tobytes() == reference.tobytes()

    def test_float_in_gives_python_float(self):
        for x in (0.3, np.float64(0.3), 1):
            for t in (0.0, 0.4):
                assert type(sine_wave_exact(x, t, 0.1)) is float

    def test_domain_ends_are_exact_zeros(self):
        for lam in (1.0, 0.1, 0.01):
            for t in (0.01, 0.4, 3.0):
                col = sine_wave_exact(np.array([0.0, 0.5, 1.0]), t, lam)
                assert col[0] == 0.0 and col[2] == 0.0

    def test_non_convergence_raises_for_arrays(self):
        ctl = SeriesControl(abs_tol=1e-12, max_terms=3)
        with pytest.raises(SeriesConvergenceError):
            sine_wave_exact(np.linspace(0.0, 1.0, 11), 0.01, 0.01, ctl)

    def test_rejects_two_dimensional_x(self):
        with pytest.raises(ValueError, match="1-D"):
            sine_wave_exact(np.zeros((2, 2)), 0.4, 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="the denominator 1 + 2 sum r_j cos(pi j x) e_j cancels near x=1 "
        "at small lam and t, so the double-precision sum loses ~2 digits",
    )
    def test_small_viscosity_near_right_end(self):
        # 40-digit mpmath sum of the same series (mp.besseli, j = 1..399,
        # x = 0.98, t = 0.05, lam = 0.01); the scheme at N=400, dt=1e-3
        # agrees with it to 7 digits
        assert sine_wave_exact(0.98, 0.05, 0.01) == pytest.approx(
            0.07394522089704537, abs=1e-6
        )


ALPHA, MU, GAMMA = 0.4, 0.6, 0.125


class TestTravelingWave:
    def test_far_field_limits(self):
        lam = 0.01
        assert traveling_wave_exact(-50.0, 0.0, ALPHA, MU, GAMMA, lam) == pytest.approx(
            ALPHA + MU, abs=1e-14
        )
        assert traveling_wave_exact(50.0, 0.0, ALPHA, MU, GAMMA, lam) == pytest.approx(
            MU - ALPHA, abs=1e-14
        )

    def test_extreme_exponents_do_not_overflow(self):
        lam = 1e-6
        assert traveling_wave_exact(1.0, 0.0, ALPHA, MU, GAMMA, lam) == MU - ALPHA
        assert traveling_wave_exact(0.0, 0.0, ALPHA, MU, GAMMA, lam) == ALPHA + MU

    def test_front_midpoint(self):
        for t in (0.0, 0.5, 1.2):
            x = MU * t + GAMMA
            assert traveling_wave_exact(x, t, ALPHA, MU, GAMMA, 0.01) == pytest.approx(
                MU, rel=1e-14
            )

    def test_published_value(self):
        # the printed abscissa 0.444 is the grid point 8/18
        v = traveling_wave_exact(8.0 / 18.0, 0.5, ALPHA, MU, GAMMA, 0.01)
        assert v == pytest.approx(0.452, abs=5e-4)

    def test_satisfies_burgers_equation(self):
        # finite-difference residual of U_t + U U_x - lam U_xx at random
        # points, mild front so the FD stencil resolves it
        lam, s = 0.1, 1e-5
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            t = rng.uniform(0.05, 1.0)
            u = lambda xx, tt: traveling_wave_exact(xx, tt, ALPHA, MU, GAMMA, lam)
            ut = (u(x, t + s) - u(x, t - s)) / (2 * s)
            ux = (u(x + s, t) - u(x - s, t)) / (2 * s)
            uxx = (u(x + s, t) - 2 * u(x, t) + u(x - s, t)) / s**2
            assert abs(ut + u(x, t) * ux - lam * uxx) < 1e-5

    def test_slope_matches_finite_difference(self):
        lam, s = 0.05, 1e-6
        for x in (0.0, 0.1, 0.125, 0.3):
            fd = (
                traveling_wave_exact(x + s, 0.0, ALPHA, MU, GAMMA, lam)
                - traveling_wave_exact(x - s, 0.0, ALPHA, MU, GAMMA, lam)
            ) / (2 * s)
            assert traveling_wave_slope(x, 0.0, ALPHA, MU, GAMMA, lam) == pytest.approx(
                fd, rel=1e-7, abs=1e-12
            )

    def test_rejects_nonpositive_viscosity(self):
        with pytest.raises(ValueError):
            traveling_wave_exact(0.5, 0.1, ALPHA, MU, GAMMA, 0.0)
