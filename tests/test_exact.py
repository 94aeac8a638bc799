"""Reference-solution tests: Bessel functions, series, traveling wave."""

import hashlib
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctburgers import _native, exact, reference, scheme
from ctburgers.basis import UniformPartition, knot_coefficients
from ctburgers.exact import (
    RANGE_TOL,
    SeriesControl,
    SeriesConvergenceError,
    _bessel_ratios,
    _front_rows,
    _pulse,
    _series_factors,
    _sine_rows,
    _trig_table,
    bessel_i,
    bessel_i_ratio,
    sine_pulse,
    sine_wave_columns,
    sine_wave_exact,
    traveling_wave_columns,
    traveling_wave_exact,
    traveling_wave_slope,
)
from ctburgers.problems import sine_problem, traveling_problem

mp.mp.dps = 50


def bessel_oracle(order, z, terms=40):
    """Ascending series in 50-digit arithmetic."""
    s = mp.mpf(0)
    for m in range(terms):
        s += (mp.mpf(z) / 2) ** (order + 2 * m) / (mp.factorial(m) * mp.factorial(m + order))
    return float(s)


# orders and arguments of bessel_i's accuracy grid, z up to the overflow
# bound 709; 1e-310 and 1e-320 are subnormal arguments
BESSEL_GRID_ORDERS = (0, 1, 2, 3, 5, 10, 20, 50, 100, 134, 150, 200, 272, 300, 500, 700,
                      850, 1000)
BESSEL_GRID_Z = (1e-320, 1e-310, 1e-3, 0.1, 0.5, 1.0, 2.0, 7.5, 14.9, 15.0, 15.1, 20.0,
                 30.0, 60.0, 100.0, 150.0, 255.0, 300.0, 400.0, 500.0, 600.0, 700.0, 708.9)
BESSEL_GRID_EXTRA = {300.0: (800, 900), 700.0: (1400, 1500, 1560, 1600)}
# finite values above z = 709, each with mpmath's value to six digits
BESSEL_ABOVE_709 = ((1000, 710.0, 2.16118e34), (500, 720.0, 1.23056e238),
                    (0, 709.78, 2.68511e306))


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        for j in (1, 2, 7):
            assert bessel_i(j, 0.0) == 0.0

    def test_order_three_at_two_vs_extended_precision_series(self):
        oracle = bessel_oracle(3, 2.0)
        assert oracle == pytest.approx(0.21273995923985266, rel=1e-15)
        assert bessel_i(3, 2.0) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("z", BESSEL_GRID_Z)
    def test_relative_accuracy_against_mpmath(self, z):
        # every order of the grid at z, plus, at z = 300 and 700, orders whose
        # values fall from 1e-200 to the bottom of the double range, where
        # I_1560(700)'s leading term has underflowed; I_1600(700) rounds to 0.0
        orders = BESSEL_GRID_ORDERS + BESSEL_GRID_EXTRA.get(z, ())
        start = time.perf_counter()
        values = [bessel_i(order, z) for order in orders]
        # the whole grid in under 1 s
        assert time.perf_counter() - start < 1.0 / len(BESSEL_GRID_Z)
        for order, value in zip(orders, values):
            ref = float(mp.besseli(order, z))
            if ref == 0.0:
                assert value == 0.0, (order, z)
            else:
                rel = 1e-12 if order <= 200 else 5e-12
                assert value == pytest.approx(ref, rel=rel, abs=1e-322), (order, z)

    @pytest.mark.parametrize("order, z", [(99000, 20.0), (100000, 800.0), (3000, 700.0),
                                          (5000, 100.0)])
    def test_underflow_is_zero_at_once(self, order, z):
        # these raised from the series or the overflow check, or took seconds
        # in the backward recurrence, before returning 0.0
        start = time.perf_counter()
        value = bessel_i(order, z)
        assert time.perf_counter() - start < 1.0
        assert value == float(mp.besseli(order, z)) == 0.0

    @pytest.mark.parametrize("order, z, approx", BESSEL_ABOVE_709)
    def test_finite_values_above_709(self, order, z, approx):
        # the relative sum is anchored at the series' largest term, so only
        # a value beyond the largest double overflows
        value = bessel_i(order, z)
        assert value == pytest.approx(approx, rel=1e-5)
        assert value == pytest.approx(float(mp.besseli(order, z)), rel=5e-12)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)
        # I_0 leaves the double range at z = 713.987, and every term beyond
        # the first overflows with (z/2)^2
        assert bessel_i(0, 713.98) < sys.float_info.max
        for z in (713.99, 1e10, 1e200, math.inf):
            with pytest.raises(OverflowError):
                bessel_i(0, z)

    def test_invalid_arguments(self):
        # a non-integer order is rejected at every z, not only where the
        # backward recurrence would index a list with it
        for order, z, message in [
            (-1, 1.0, "order must be >= 0"), (0, -1.0, "z must be >= 0"),
            (0.5, 1.0, "order must be an integer, got 0.5"),
            (0.5, 20.0, "order must be an integer, got 0.5"),
            (0, math.nan, "z must be >= 0, got nan"),
        ]:
            with pytest.raises(ValueError, match=message):
                bessel_i(order, z)

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
        # an infinite z is rejected as bad input, not by a failing conversion
        for order, z, message in [
            (0, 1.0, "order must be >= 1"), (1, 0.0, "z must be positive"),
            (0.5, 1.0, "order must be an integer, got 0.5"),
            (1, math.inf, "z must be positive and finite, got inf"),
            (1, math.nan, "z must be positive and finite, got nan"),
        ]:
            with pytest.raises(ValueError, match=message):
                bessel_i_ratio(order, z)

    def test_overflowing_recurrence_raises_and_returns(self):
        # (2k/z) b overflows for z below about 1e-47; the ratios used to
        # turn NaN and the start-order search looped forever, so the call
        # runs in a child process with a hard time bound
        code = (
            "from ctburgers.exact import SeriesConvergenceError, bessel_i_ratio\n"
            "try:\n"
            "    bessel_i_ratio(1, 1e-60)\n"
            "except SeriesConvergenceError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert bessel_i_ratio(1, 1e-46) == pytest.approx(5e-47, rel=1e-15)

    def test_oracle_ratio_bits_are_pinned(self):
        # the sine oracle's coefficients at lam = 1 ... 0.00167, by jmax, as
        # the backward recurrence gives them; a change to the recurrence
        # moves the oracle and every sine value with it
        digest = hashlib.sha256()
        for lam in (1.0, 0.1, 0.01, 0.005, 0.002, 0.00167):
            for jmax in (64, 130, 262, 526):
                ratios = _bessel_ratios(jmax, 1.0 / (2.0 * math.pi * lam))
                digest.update(struct.pack(f"<{len(ratios)}d", *ratios))
        assert digest.hexdigest() == (
            "5b0ba41e5a183ff42921629280a7d87e17c14b9135792d14e5a9a5abba842fe2"
        )

    def test_huge_argument_raises_at_once(self):
        # the start order of the backward recurrence grows like sqrt(z): at
        # z = 1e300 it was ~1e151 and the loop never ended, so the call runs
        # in a child process with a hard time bound; at z = 1e307 and above
        # the square root is inf, whose int() raised OverflowError
        code = (
            "from ctburgers.exact import SeriesConvergenceError, bessel_i_ratio\n"
            "for z in (1e300, 1e307, 1.7e308):\n"
            "    try:\n"
            "        bessel_i_ratio(1, z)\n"
            "    except SeriesConvergenceError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestSineWaveSeries:
    def test_boundary_values_vanish(self):
        for t in (0.01, 0.4, 3.0):
            for lam in (1.0, 0.01):
                assert sine_wave_exact(0.0, t, lam) == pytest.approx(0.0, abs=1e-14)
                assert sine_wave_exact(1.0, t, lam) == pytest.approx(0.0, abs=1e-13)

    def test_time_zero_is_the_initial_condition(self):
        for x in (0.0, 0.3, 0.5, 1.0):
            assert sine_wave_exact(x, 0.0, 1.0) == math.sin(math.pi * x)

    @pytest.mark.parametrize("n_cells", [3, 40, 400, 4000])
    def test_time_zero_column_is_the_problem_initial_condition(self, n_cells):
        p = sine_problem(0.1, n_cells, 1e-3)
        knots = np.array(p.partition().knots())
        assert sine_wave_exact(knots, 0.0, 0.1).tobytes() == p.initial_condition(knots).tobytes()
        for x in knots.tolist():
            assert sine_wave_exact(x, 0.0, 0.1) == p.initial_condition(x)

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
        # abs_tol sets the term count; max_terms only caps it, so a tighter
        # tolerance, not a larger cap, is what sums more terms
        ctl = SeriesControl(abs_tol=1e-12)
        tighter = SeriesControl(abs_tol=1e-15)
        for lam, t in [(1.0, 0.1), (0.1, 0.6), (0.01, 3.0)]:
            # each point must sum more terms under the tighter tolerance,
            # or it compares a value with itself
            assert len(_series_factors(t, lam, ctl)[0]) < len(_series_factors(t, lam, tighter)[0])
            a = sine_wave_exact(0.3, t, lam, ctl)
            b = sine_wave_exact(0.3, t, lam, tighter)
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

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    @pytest.mark.parametrize("x", [0.5, np.array([0.25, 0.5])], ids=["float", "array"])
    def test_non_finite_viscosity_raises(self, x, lam):
        # lam = inf gave z = 0 and a ZeroDivisionError inside the ratios
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            sine_wave_exact(x, 0.5, lam)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            sine_wave_columns(x, (0.5,), lam)

    def test_nan_time_raises(self):
        for x in (0.5, np.array([0.25, 0.5])):
            with pytest.raises(ValueError, match="t must be >= 0"):
                sine_wave_exact(x, math.nan, 1.0)

    def test_infinite_time_gives_the_decayed_limit(self):
        assert sine_wave_exact(0.5, math.inf, 1.0) == 0.0
        assert not sine_wave_exact(np.array([0.25, 0.5]), math.inf, 1.0).any()


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

    @pytest.mark.xfail(
        strict=True,
        reason="mid-domain at lam=0.005, t=0.1 the double-precision sum loses "
        "about 6e-3 without leaving [0, 1], so no error is raised",
    )
    def test_small_viscosity_mid_domain(self):
        # 40-digit mpmath sum of the same series (mp.besseli, j = 1..599,
        # x = 0.575, t = 0.1, lam = 0.005); the same digits at 60 digits.
        # One ulp to the right, x = 0.5750000000000001, the call raises
        assert sine_wave_exact(0.575, 0.1, 0.005) == pytest.approx(
            0.9923068931808001, abs=1e-6
        )


# knots (the points every snapshot of a run shares), repeated points and
# points on the odd periodic extension outside [0, 1]
series_points = st.lists(
    st.one_of(
        st.sampled_from(UniformPartition(0.0, 1.0, 40).knots()),
        st.sampled_from([-0.25, 1.5]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=30,
).map(np.array)

# viscosities whose series stays inside [0, 1] at every t; t spans the
# early times of many terms and the late ones of few, so J rises and falls
series_calls = st.lists(
    st.tuples(st.sampled_from([1.0, 0.1, 0.05, 0.02]), st.floats(min_value=1e-3, max_value=3.0)),
    min_size=2,
    max_size=6,
)


class TestTrigTableCache:
    @settings(max_examples=60, deadline=None)
    @given(xs=series_points, calls=series_calls)
    # J = 7, 26, 7, 1 on knots, a repeated knot and both extension points
    @example(
        xs=np.array([0.0, 0.025, 0.5, 0.5, 0.975, 1.0, -0.25, 1.5]),
        calls=[(0.02, 3.0), (0.02, 1e-3), (0.02, 3.0), (1.0, 3.0)],
    )
    def test_columns_are_point_sums_with_cold_and_warm_cache(self, xs, calls):
        reference = [
            np.array([sine_wave_point(x, t, lam) for x in xs.tolist()]).tobytes()
            for lam, t in calls
        ]
        for warm in (False, True):
            for (lam, t), want in zip(calls, reference):
                if not warm:
                    _trig_table.cache_clear()
                assert sine_wave_exact(xs, t, lam).tobytes() == want

    def test_points_changed_in_place_give_the_new_values(self):
        xs = np.linspace(0.0, 1.0, 41)
        sine_wave_exact(xs, 0.4, 0.1)
        xs *= 0.5
        col = sine_wave_exact(xs, 0.4, 0.1)
        points = np.array([sine_wave_point(x, 0.4, 0.1) for x in xs.tolist()])
        assert col.tobytes() == points.tobytes()

    def test_tables_are_read_only_and_the_cache_is_small(self):
        s, c = _trig_table(np.linspace(0.0, 1.0, 11).tobytes(), 5)
        assert s.shape == c.shape == (5, 11)
        for table in (s, c):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
        assert _trig_table.cache_info().maxsize <= 8


# (x, t, lam) whose sums have lost their accuracy
RANGE_CASES = [(0.9925, 0.02, 0.01), (0.5, 0.01, 0.003), (0.75, 0.01, 1e-3), (0.5, 0.01, 1e-4)]


class TestSineWaveRangeCheck:
    @pytest.mark.parametrize("x,t,lam", RANGE_CASES)
    def test_value_outside_unit_interval_raises(self, x, t, lam):
        # the maximum principle bounds the solution to [0, 1]; these sums
        # have lost their accuracy (-0.0132, -4.02, 2.34 and -0.137)
        with pytest.raises(SeriesConvergenceError, match=r"outside \[0, 1\]"):
            sine_wave_exact(x, t, lam)

    def test_knot_column_raises_and_names_lam_and_t(self):
        knots = np.array(UniformPartition(0.0, 1.0, 400).knots())
        with pytest.raises(SeriesConvergenceError, match=r"lam=0.01, t=0.02"):
            sine_wave_exact(knots, 0.02, 0.01)

    def test_points_outside_the_domain_are_not_checked(self):
        # the odd periodic extension is negative on (-1, 0) and (1, 2)
        col = sine_wave_exact(np.array([-0.25, 1.5, 0.5]), 0.4, 0.1)
        assert col[0] < 0.0 and col[1] < 0.0 and 0.0 < col[2] < 1.0


ALPHA, MU, GAMMA = 0.4, 0.6, 0.125


def front_point(x, t, alpha, mu, gamma, lam):
    """The traveling front at one point in Python floats: the closed form,
    rearranged on the positive-exponent side so the exponential never
    overflows, kept here as a reference independent of the package's one
    array body."""
    eta = alpha * (x - mu * t - gamma) / lam
    if eta > 0.0:
        em = math.exp(-eta)
        return ((alpha + mu) * em + (mu - alpha)) / (em + 1.0)
    e = math.exp(eta)
    return (alpha + mu + (mu - alpha) * e) / (1.0 + e)


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

    def test_published_exact_column(self):
        # table5's exact column: the factory's front at t = 0.5 on x = i/18,
        # every second knot of its mesh
        p = traveling_problem(0.01, reference.TABLE5_N_CELLS, 1e-3)
        xs = p.partition().knot_array()[::2]
        column = p.exact(xs, reference.TABLE5_TIME)
        assert len(column) == len(reference.TABLE5_EXACT)
        assert np.max(np.abs(column - reference.TABLE5_EXACT)) <= reference.TRAVELING_TOL

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
        with pytest.raises(ValueError):
            traveling_wave_exact(np.array([0.5]), 0.1, ALPHA, MU, GAMMA, 0.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    @pytest.mark.parametrize("x", [0.5, np.array([0.25, 0.5])], ids=["float", "array"])
    def test_non_finite_viscosity_raises(self, x, lam):
        # lam = inf gave mu = 0.6 at every point, a front of no width
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            traveling_wave_exact(x, 0.1, ALPHA, MU, GAMMA, lam)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            traveling_wave_columns(x, (0.1,), ALPHA, MU, GAMMA, lam)


class TestTravelingWaveColumns:
    @pytest.mark.parametrize("lam", [0.01, 0.005, 0.001])
    @pytest.mark.parametrize("n_cells", [36, 400, 4000])
    def test_column_is_bit_identical_to_point_calls(self, lam, n_cells):
        knots = UniformPartition(0.0, 1.0, n_cells).knots()
        for t in (0.0, 0.1, 0.4, 0.5, 1.0, 1.2):
            col = traveling_wave_exact(np.array(knots), t, ALPHA, MU, GAMMA, lam)
            points = np.array([traveling_wave_exact(x, t, ALPHA, MU, GAMMA, lam) for x in knots])
            reference = np.array([front_point(x, t, ALPHA, MU, GAMMA, lam) for x in knots])
            assert col.tobytes() == points.tobytes() == reference.tobytes()

    def test_front_centre_and_extremes_are_bit_identical(self):
        # the branch switch at eta = 0 (both signs of zero) and exponents
        # that underflow to exact zero
        xs = [GAMMA, 0.0, -0.0, -1e300, 1e300, MU * 0.5 + GAMMA, 0.5]
        for t in (0.0, 0.5):
            col = traveling_wave_exact(np.array(xs), t, ALPHA, MU, GAMMA, 1e-6)
            points = np.array([traveling_wave_exact(x, t, ALPHA, MU, GAMMA, 1e-6) for x in xs])
            reference = np.array([front_point(x, t, ALPHA, MU, GAMMA, 1e-6) for x in xs])
            assert col.tobytes() == points.tobytes() == reference.tobytes()

    def test_float_in_gives_python_float(self):
        for x in (0.3, np.float64(0.3), 1):
            assert type(traveling_wave_exact(x, 0.5, ALPHA, MU, GAMMA, 0.01)) is float

    def test_rejects_two_dimensional_x(self):
        with pytest.raises(ValueError, match="1-D"):
            traveling_wave_exact(np.zeros((2, 2)), 0.5, ALPHA, MU, GAMMA, 0.01)


def compiled_front():
    front = _native.compiled().front
    if front is None:
        pytest.skip("no compiled library on this machine")
    return front


class TestCompiledFront:
    """The compiled front gives the bits of the numpy column and of the
    point-by-point calls."""

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.lists(st.floats(), min_size=1, max_size=40),
        # every lam and t a run accepts: positive and non-negative, finite
        t=st.floats(min_value=0.0, allow_infinity=False),
        lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        constants=st.one_of(
            st.just((ALPHA, MU, GAMMA)),
            st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        ),
    )
    @example(xs=[GAMMA, 0.0, -0.0, math.inf, -math.inf, math.nan], t=0.0, lam=5e-324,
             constants=(ALPHA, MU, GAMMA))
    def test_compiled_column_is_bit_identical(self, xs, t, lam, constants):
        front = compiled_front()
        points = np.array(xs)
        alpha, mu, gamma = constants
        # an infinite x against an overflowing mu t is inf - inf, a NaN in
        # both columns alike
        with np.errstate(invalid="ignore"):
            python = _front_rows(None, points, [t], alpha, mu, gamma, lam)[0]
        compiled = _front_rows(front, points, [t], alpha, mu, gamma, lam)[0]
        single = np.array([traveling_wave_exact(x, t, alpha, mu, gamma, lam) for x in xs])
        reference = np.array([front_point(x, t, alpha, mu, gamma, lam) for x in xs])
        assert compiled.tobytes() == python.tobytes() == single.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_cells", [3, 36, 4000])
    def test_traveling_fit_is_bit_identical_on_both_paths(self, n_cells, library):
        compiled_front()
        p = traveling_problem(0.005, n_cells, 1e-3)
        part = p.partition()
        sc = knot_coefficients(part.h)
        native = scheme.initialize_coefficients(p, part, sc).delta
        library(_native._PYTHON)
        python = scheme.initialize_coefficients(p, part, sc).delta
        assert native.tobytes() == python.tobytes()


def first_stray(xs, values):
    """The first point in [0, 1] whose value lies outside [0, 1] by more
    than ``RANGE_TOL`` or is a NaN, or -1: the range check, point by point."""
    for i, (x, u) in enumerate(zip(xs.tolist(), values.tolist())):
        if 0.0 <= x <= 1.0 and not -RANGE_TOL <= u <= 1.0 + RANGE_TOL:
            return i
    return -1


def sine_column(sine, xs, s, c, factors, scale):
    """The one row of :func:`_sine_rows`, summed by the compiled ``sine``
    or, when it is None, in numpy, at the (3, J) ``factors`` and its first
    out-of-range point, or -1."""
    compiled = _native._PYTHON._replace(sine=sine)
    row = _sine_rows(compiled, xs, s, c, factors.ravel(), [factors.shape[1]], scale)[0]
    return row, first_stray(xs, row)


def compiled_sine():
    sine = _native.compiled().sine
    if sine is None:
        pytest.skip("no compiled library on this machine")
    return sine


class TestCompiledSine:
    """The compiled sine series gives the bits of the numpy column and of
    the point-by-point sums, and both raise at the first out-of-range
    point of those sums."""

    @settings(max_examples=150, deadline=None)
    @given(
        # knots, repeated points, +-0.0 and the odd periodic extension, up
        # to 100 points: groups of the C loop's four and every remainder
        xs=st.lists(
            st.one_of(
                st.sampled_from(UniformPartition(0.0, 1.0, 40).knots()),
                st.sampled_from([0.0, -0.0, -0.25, 1.5]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=100,
        ).map(np.array),
        # every lam whose series converges within the default 500 terms at
        # every t; below about 0.01 some sums leave [0, 1]
        lam=st.floats(min_value=1e-3, max_value=1.0),
        t=st.one_of(st.floats(min_value=1e-3, max_value=3.0), st.just(math.inf)),
    )
    # J = 35; x = 0.9875, a knot of N = 400, raises the range check
    @example(xs=np.array([0.0, -0.0, 0.5, 0.5, 0.9875, 1.0, -0.25, 1.5]), lam=0.01, t=0.02)
    @example(xs=np.linspace(0.0, 1.0, 81), lam=1.0, t=math.inf)
    # the knots of the exact_snapshots benchmark at one of its times
    @example(xs=UniformPartition(0.0, 1.0, 400).knot_array(), lam=0.01, t=0.7)
    def test_compiled_column_is_bit_identical(self, xs, lam, t):
        sine = compiled_sine()
        factors = np.array(_series_factors(t, lam, SeriesControl()))
        scale = 4.0 * math.pi * lam
        reference = np.array([sine_wave_point(x, t, lam) for x in xs.tolist()])
        for warm in (False, True):
            if not warm:
                _trig_table.cache_clear()
            s, c = _trig_table(xs.tobytes(), factors.shape[1])
            compiled, k = sine_column(sine, xs, s, c, factors, scale)
            python, k_python = sine_column(None, xs, s, c, factors, scale)
            assert k == k_python == first_stray(xs, reference)
            assert compiled.tobytes() == python.tobytes() == reference.tobytes()
        if k < 0:
            assert sine_wave_exact(xs, t, lam).tobytes() == reference.tobytes()
        else:
            with pytest.raises(SeriesConvergenceError, match=rf"at x={xs[k]:.6g} "):
                sine_wave_exact(xs, t, lam)

    @pytest.mark.parametrize("x,t,lam", RANGE_CASES)
    def test_range_check_raises_alike_on_both_paths(self, x, t, lam, library):
        compiled_sine()

        def message(points):
            with pytest.raises(SeriesConvergenceError, match=r"outside \[0, 1\]") as raised:
                sine_wave_exact(points, t, lam)
            return str(raised.value)

        columns = (x, np.array([-0.25, 1.5, x]))
        messages = [message(points) for points in columns]
        library(_native._PYTHON)
        assert [message(points) for points in columns] == messages
        # the points outside [0, 1] are not checked, so the column fails at x
        assert messages[0] == messages[1]


def per_time_calls(evaluate, ts):
    """The bytes of ``evaluate(t)`` at each t of ``ts`` in order, up to the
    first that raises, and that error's text, or None."""
    rows = []
    for t in ts:
        try:
            rows.append(evaluate(t).tobytes())
        except (ValueError, SeriesConvergenceError) as err:
            return rows, f"{type(err).__name__}: {err}"
    return rows, None


def assert_rows_or_first_error(columns, rows, error):
    """``columns()`` gives ``rows`` in order, or raises ``error`` first."""
    if error is None:
        got = columns()
        assert got.shape[0] == len(rows)
        assert [row.tobytes() for row in got] == rows
    else:
        with pytest.raises((ValueError, SeriesConvergenceError)) as raised:
            columns()
        assert f"{type(raised.value).__name__}: {raised.value}" == error


FINISHERS = [pytest.param(False, id="native"), pytest.param(True, id="python")]


class TestOnePassColumns:
    """Row k of a one-pass column set has the bits of the call at ts[k],
    and the pass raises what the calls in order would raise first."""

    @pytest.mark.parametrize("python", FINISHERS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        xs=series_points,
        lam=st.floats(min_value=1e-3, max_value=1.0),
        ts=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=3.0)),
                    min_size=1, max_size=6),
        warm=st.booleans(),
    )
    # J = 18, 0, 35, 24 and 34 at a repeated point and -0.0; x = 0.9875
    # leaves [0, 1] at t = 0.02
    @example(xs=np.array([0.0, -0.0, 0.5, 0.5, 0.9875, 1.0, -0.25]), lam=0.01,
             ts=[0.7, 0.0, 0.005, 0.3], warm=True)
    @example(xs=np.array([0.0, -0.0, 0.5, 0.5, 0.9875, 1.0, -0.25]), lam=0.01,
             ts=[0.7, 0.0, 0.005, 0.02, 0.3], warm=False)
    # the 401 knots of the exact_snapshots benchmark at some of its times
    @example(xs=UniformPartition(0.0, 1.0, 400).knot_array(), lam=0.01,
             ts=[0.7, 0.72, 0.85, 1.0], warm=False)
    def test_sine_rows_are_the_calls_at_each_time(self, python, xs, lam, ts, warm, library):
        if python:
            library(_native._PYTHON)
        # each call sums the table of its own J; the pass, that of the largest
        rows, error = per_time_calls(lambda t: sine_wave_exact(xs, t, lam), ts)
        if not warm:
            _trig_table.cache_clear()
        assert_rows_or_first_error(lambda: sine_wave_columns(xs, ts, lam), rows, error)

    @pytest.mark.parametrize("python", FINISHERS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        xs=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=40),
        ts=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
        lam=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_front_rows_are_the_calls_at_each_time(self, python, xs, ts, lam, library):
        if python:
            library(_native._PYTHON)
        got = traveling_wave_columns(np.array(xs), ts, ALPHA, MU, GAMMA, lam)
        assert got.shape == (len(ts), len(xs))
        for row, t in zip(got, ts):
            points = np.array([traveling_wave_exact(x, t, ALPHA, MU, GAMMA, lam) for x in xs])
            assert row.tobytes() == points.tobytes()
            assert row.tobytes() == traveling_wave_exact(xs, t, ALPHA, MU, GAMMA, lam).tobytes()

    @pytest.mark.parametrize(
        "ts, message",
        [
            # the range check at t = 0.02 comes before the 35 terms t = 0.005 needs
            ([0.7, 0.02, 0.005], r"series value -0.00360641 at x=0.9875 .*t=0.02\)"),
            ([0.7, 0.005, 0.02], r"not converged within 34 terms \(lam=0.01, t=0.005\)"),
        ],
        ids=["range-first", "terms-first"],
    )
    @pytest.mark.parametrize("python", FINISHERS)
    def test_first_failing_time_raises(self, ts, message, python, library):
        if python:
            library(_native._PYTHON)
        xs = UniformPartition(0.0, 1.0, 400).knot_array()
        ctl = SeriesControl(max_terms=34)
        rows, error = per_time_calls(lambda t: sine_wave_exact(xs, t, 0.01, ctl), ts)
        assert len(rows) == 1
        with pytest.raises(SeriesConvergenceError, match=message):
            sine_wave_columns(xs, ts, 0.01, ctl)
        assert_rows_or_first_error(lambda: sine_wave_columns(xs, ts, 0.01, ctl), rows, error)

    @pytest.mark.parametrize("bad", [math.nan, -0.01])
    def test_invalid_time_after_a_failing_one_is_not_reached(self, bad):
        xs = np.array([0.5, 0.9875])
        with pytest.raises(SeriesConvergenceError, match="t=0.02"):
            sine_wave_columns(xs, [0.7, 0.02, bad], 0.01)
        with pytest.raises(ValueError, match="t must be >= 0"):
            sine_wave_columns(xs, [0.7, bad, 0.02], 0.01)


class TestRangeCheckOfTheBlock:
    """``sine_wave_columns`` checks the whole block of its rows against
    [0, 1] once, at the points in [0, 1], and names the first stray value
    in row-major order, whichever path summed the block."""

    LOW, HIGH = -RANGE_TOL, 1.0 + RANGE_TOL

    @staticmethod
    def columns(monkeypatch, xs, block, ts=(0.1,)):
        """``sine_wave_columns`` at lam = 0.1 with its rows replaced by ``block``."""
        block = np.array(block, dtype=float)
        monkeypatch.setattr(exact, "_sine_rows", lambda *args: block.copy())
        got = sine_wave_columns(np.array(xs, dtype=float), ts, 0.1)
        assert got.tobytes() == block.tobytes()

    def test_nan_value_in_the_domain_raises(self, monkeypatch):
        with pytest.raises(SeriesConvergenceError,
                           match=r"^series value nan at x=0.5 lies outside \[0, 1\] \(lam=0.1"):
            self.columns(monkeypatch, [0.25, 0.5, 0.75], [[0.5, math.nan, 0.5]])

    def test_values_at_the_tolerance_pass(self, monkeypatch):
        self.columns(monkeypatch, [0.0, 0.0, 1.0, 1.0],
                     [[self.LOW, self.HIGH, self.LOW, self.HIGH]])

    @pytest.mark.parametrize("x", [0.0, 1.0])
    @pytest.mark.parametrize("bound, beyond", [(LOW, -math.inf), (HIGH, math.inf)],
                             ids=["low", "high"])
    def test_one_ulp_beyond_the_tolerance_raises(self, x, bound, beyond, monkeypatch):
        value = math.nextafter(bound, beyond)
        with pytest.raises(SeriesConvergenceError,
                           match=rf"^series value {value:.6g} at x={x:.6g} lies outside"):
            self.columns(monkeypatch, [0.5, x], [[0.5, value]])

    def test_points_outside_the_domain_are_not_checked(self, monkeypatch):
        self.columns(monkeypatch, [-0.25, 1.5, math.nan, 0.5],
                     [[-0.7, 2.0, math.nan, 0.5], [math.nan, -math.inf, 3.0, 0.5]],
                     ts=(0.1, 0.2))

    def test_first_stray_in_row_major_order_is_named(self, monkeypatch):
        # row 1 strays at its last point, row 3 at its first
        block = np.full((4, 3), 0.5)
        block[1, 2] = -0.25
        block[3, 0] = 1.5
        with pytest.raises(SeriesConvergenceError) as raised:
            self.columns(monkeypatch, [0.25, 0.5, 0.75], block, ts=(0.1, 0.2, 0.3, 0.4))
        assert str(raised.value) == (
            "series value -0.25 at x=0.75 lies outside [0, 1] (lam=0.1, t=0.2):"
            " the sum has lost its accuracy"
        )


class TestEmptyAndInitialRows:
    """No points give empty rows, and a t = 0 row is the initial condition,
    on both paths."""

    @pytest.mark.parametrize("python", FINISHERS)
    def test_no_points_give_empty_rows(self, python, library):
        if python:
            library(_native._PYTHON)
        assert sine_wave_columns(np.array([]), [0.1, 0.0], 0.1).shape == (2, 0)
        got = sine_wave_exact(np.array([]), 0.1, 0.1)
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("python", FINISHERS)
    def test_initial_row_is_the_sine_pulse(self, python, library):
        if python:
            library(_native._PYTHON)
        knots = UniformPartition(0.0, 1.0, 40).knot_array()
        rows = sine_wave_columns(knots, [0.1, 0.0], 0.1)
        assert rows[1].tobytes() == sine_pulse(knots).tobytes()
        assert sine_wave_exact(knots, 0.0, 0.1).tobytes() == sine_pulse(knots).tobytes()


def compiled_pulse():
    pulse = _native.compiled().pulse
    if pulse is None:
        pytest.skip("no compiled library on this machine")
    return pulse


class TestCompiledPulse:
    """The compiled sine pulse gives the bits of ``math.sin`` point by
    point, and raises its error at an infinite angle."""

    @settings(max_examples=300, deadline=None)
    # every finite angle: pi * 5.7e307 overflows
    @given(xs=st.lists(st.one_of(st.floats(-5e307, 5e307), st.just(math.nan)), max_size=40))
    @example(xs=[0.0, -0.0, 5e-324, 1.0, 0.5, -2.5, 1.0 / 3.0, 1e15, 1e300, math.nan])
    def test_compiled_column_is_bit_identical(self, xs):
        pulse = compiled_pulse()
        points = np.array(xs, dtype=float)
        single = np.array([math.sin(math.pi * x) for x in xs], dtype=float)
        compiled = _pulse(pulse, points)
        assert compiled.tobytes() == _pulse(None, points).tobytes() == single.tobytes()

    @pytest.mark.parametrize(
        "xs", [[0.25, 0.5, -math.inf], [math.inf], [0.5, 1e308]],
        ids=["-inf", "inf", "overflowing-angle"],
    )
    def test_infinite_angle_raises_the_error_of_math_sin(self, xs):
        pulse = compiled_pulse()
        with pytest.raises(ValueError) as python:
            _pulse(None, np.array(xs))
        with pytest.raises(ValueError) as native:
            _pulse(pulse, np.array(xs))
        assert repr(native.value) == repr(python.value)
        with pytest.raises(ValueError) as single:
            math.sin(math.pi * xs[-1])  # the infinite angle is the last
        assert repr(python.value) == repr(single.value)

    @pytest.mark.parametrize("n_cells", [3, 40, 400, 4000])
    def test_sine_fit_is_bit_identical_on_both_paths(self, n_cells, library):
        compiled_pulse()
        p = sine_problem(0.01, n_cells, 1e-3)
        part = p.partition()
        sc = knot_coefficients(part.h)
        native = scheme.initialize_coefficients(p, part, sc).delta
        library(_native._PYTHON)
        python = scheme.initialize_coefficients(p, part, sc).delta
        assert native.tobytes() == python.tobytes()

    def test_an_array_is_one_call_of_the_compiled_pulse(self, library):
        pulse = compiled_pulse()
        calls = []

        def spy(*args):
            calls.append(args[1])
            return pulse(*args)

        library(_native.compiled()._replace(pulse=spy))
        knots = UniformPartition(0.0, 1.0, 400).knot_array()
        assert sine_pulse(knots).tobytes() == _pulse(None, knots).tobytes()
        assert sine_pulse([0.5, 0.25]).tobytes() == _pulse(None, np.array([0.5, 0.25])).tobytes()
        assert calls == [401, 2]
        # a float is a one-point array, one call too, with the bits of math.sin
        value = sine_pulse(0.25)
        assert type(value) is float and value == math.sin(math.pi * 0.25)
        assert calls == [401, 2, 1]

    @pytest.mark.parametrize("n_cells", [40, 400, 4000])
    def test_each_initial_row_is_one_call_of_the_compiled_pulse(self, n_cells, library):
        pulse = compiled_pulse()
        calls = []

        def spy(*args):
            calls.append(args[1])
            return pulse(*args)

        library(_native.compiled()._replace(pulse=spy))
        knots = UniformPartition(0.0, 1.0, n_cells).knot_array()
        rows = sine_wave_columns(knots, [0.0, 0.1, 0.0], 0.1)
        assert calls == [n_cells + 1] * 2
        reference = _pulse(None, knots).tobytes()
        assert rows[0].tobytes() == rows[2].tobytes() == reference

    def test_a_two_dimensional_array_is_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            sine_pulse(np.zeros((2, 3)))
