"""Basis function tests: closed form, recurrence, knot-value constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctburgers.basis import (
    MAX_CELLS,
    UniformPartition,
    ctb_deriv,
    ctb_eval,
    knot_coefficients,
)

REL_TOL_KNOT_TABLE = 1e-12
C2_TOL = 1e-10
FD_REL_TOL = 1e-6


def ctb_eval_recurrence(i: int, k: int, x: float, p: UniformPartition) -> float:
    """Order-k trigonometric B-spline at ``x`` by the two-term recurrence.

    An independent cross-check of :func:`ctb_eval`.  The recursion bottoms
    out at the order-1 indicator of the half-open cell [knot(i),
    knot(i+1)).  Evaluating at order 4 reproduces :func:`ctb_eval` with the
    basis index shifted by two (the closed form is centered, the
    recurrence is left-anchored); the proportionality constant between
    the two is calibrated in the tests below.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    h = p.h
    xi = p.a + i * h
    if k == 1:
        return 1.0 if xi <= x < xi + h else 0.0
    d = math.sin(0.5 * (k - 1) * h)
    if abs(d) < 1e-14:
        raise ValueError(
            f"recurrence denominator sin((k-1)h/2) vanishes for k={k}, h={h}"
        )
    left = math.sin(0.5 * (x - xi)) / d * ctb_eval_recurrence(i, k - 1, x, p)
    right = (
        math.sin(0.5 * (xi + k * h - x)) / d * ctb_eval_recurrence(i + 1, k - 1, x, p)
    )
    return left + right


def one_sided_d2(f, x0, step, sign):
    """Second derivative from one side of x0 (valid at the C2 junctions,
    where a centered stencil would see the third-derivative jump)."""
    v = [f(x0 + sign * k * step) for k in range(4)]
    return (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / step**2


def junction_d2(f, x0, h):
    # step balances the stencil's roundoff (eps/step^2) against its
    # truncation error (step^2/h^3)
    step = 4e-4 * h**0.75
    left = one_sided_d2(f, x0, step, -1.0)
    right = one_sided_d2(f, x0, step, +1.0)
    return 0.5 * (left + right)


class TestUniformPartition:
    def test_spacing_is_the_defining_division(self):
        for a, b, n in [(0.0, 1.0, 40), (-1.0, 2.5, 7), (0.3, 0.9, 12)]:
            p = UniformPartition(a, b, n)
            assert p.h == (b - a) / n

    def test_knots_are_affine(self):
        p = UniformPartition(0.0, 1.0, 10)
        for i in range(-2, 14):
            assert p.knot(i) == pytest.approx(i * 0.1, abs=1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n_cells"):
            UniformPartition(0.0, 1.0, 2)

    def test_rejects_more_cells_than_the_cap(self):
        UniformPartition(0.0, 1.0, MAX_CELLS)
        with pytest.raises(ValueError, match=r"n_cells must be <= 1e\+07, got 10000001"):
            UniformPartition(0.0, 1.0, MAX_CELLS + 1)

    @pytest.mark.parametrize(
        "a, b, n", [(0.0, 1.0, 3), (0.0, 1.0, 36), (0.0, 1.0, 4000), (-1.3, 2.7, 997)]
    )
    def test_knot_array_has_the_bits_of_knot(self, a, b, n):
        p = UniformPartition(a, b, n)
        expected = np.array([p.knot(i) for i in range(n + 1)])
        assert p.knot_array().tobytes() == expected.tobytes()
        assert p.knots() == expected.tolist()

    def test_rejects_degenerate_spacing(self):
        # h = 7/3 > 2*pi/3 makes the normalizer vanish somewhere
        with pytest.raises(ValueError, match="2\\*pi/3"):
            UniformPartition(0.0, 7.0, 3)
        with pytest.raises(ValueError):
            UniformPartition(1.0, 0.0, 5)

    def test_knot_index_bounds(self):
        p = UniformPartition(0.0, 1.0, 10)
        with pytest.raises(IndexError):
            p.knot(-3)
        with pytest.raises(IndexError):
            p.knot(14)


class TestClosedForm:
    def test_zero_at_support_boundary(self):
        p = UniformPartition(0.0, 1.0, 10)
        assert ctb_eval(5, p.knot(3), p) == pytest.approx(0.0, abs=1e-15)
        assert ctb_eval(5, p.knot(7), p) == pytest.approx(0.0, abs=1e-15)

    def test_center_knot_value(self):
        p = UniformPartition(0.0, 1.0, 10)
        expected = 2.0 / (1.0 + 2.0 * math.cos(p.h))
        assert ctb_eval(5, p.knot(5), p) == pytest.approx(expected, rel=1e-13)

    def test_zero_outside_support_random_points(self):
        p = UniformPartition(0.0, 1.0, 10)
        rng = np.random.default_rng(42)
        i = 5
        lo, hi = p.knot(i - 2), p.knot(i + 2)
        count = 0
        while count < 100:
            x = rng.uniform(-0.5, 1.5)
            if lo < x < hi:
                continue
            assert ctb_eval(i, x, p) == 0.0
            count += 1

    def test_positive_on_support(self):
        p = UniformPartition(0.0, 1.0, 10)
        xs = np.linspace(p.knot(3), p.knot(7), 201)
        vals = [ctb_eval(5, x, p) for x in xs]
        assert min(vals) >= 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_knot_value_table_random_h(self, seed):
        # T and T' at the three interior knots match the closed forms; T''
        # is checked against the finite-difference oracle instead (the
        # published center formula is self-contradictory)
        rng = np.random.default_rng(seed)
        h = 10 ** rng.uniform(math.log10(0.01), 0.0)
        p = UniformPartition(0.0, 5 * h, 5)
        sc = knot_coefficients(h)
        i = 2
        values = {
            (p.knot(i - 1), 0): sc.alpha1,
            (p.knot(i), 0): sc.alpha2,
            (p.knot(i + 1), 0): sc.alpha1,
            (p.knot(i - 1), 1): 0.75 / math.sin(1.5 * h),
            (p.knot(i + 1), 1): -0.75 / math.sin(1.5 * h),
        }
        for (x, order), want in values.items():
            got = ctb_eval(i, x, p) if order == 0 else ctb_deriv(i, x, p, order)
            assert got == pytest.approx(want, rel=REL_TOL_KNOT_TABLE)
        assert abs(ctb_deriv(i, p.knot(i), p, 1)) < REL_TOL_KNOT_TABLE
        f = lambda x: ctb_eval(i, x, p)
        for x in (p.knot(i - 1), p.knot(i), p.knot(i + 1)):
            oracle = junction_d2(f, x, h)
            assert ctb_deriv(i, x, p, 2) == pytest.approx(oracle, rel=FD_REL_TOL)

    def test_second_derivative_interior_fd(self):
        # centered stencil is fine away from the junctions
        p = UniformPartition(0.0, 1.0, 8)
        i, s = 4, 1e-5
        x = p.knot(i) + p.h / 3.0
        fd = (ctb_eval(i, x + s, p) - 2 * ctb_eval(i, x, p) + ctb_eval(i, x - s, p)) / s**2
        assert ctb_deriv(i, x, p, 2) == pytest.approx(fd, rel=FD_REL_TOL)

    def test_first_derivative_fd(self):
        p = UniformPartition(0.0, 1.0, 8)
        i, s = 4, 1e-6
        x = p.knot(i) + 0.4 * p.h
        fd = (ctb_eval(i, x + s, p) - ctb_eval(i, x - s, p)) / (2 * s)
        assert ctb_deriv(i, x, p, 1) == pytest.approx(fd, rel=1e-8)

    def test_c2_continuity_at_junctions(self):
        rng = np.random.default_rng(3)
        hs = [0.025, 1.0 / 36.0] + list(10 ** rng.uniform(-2, 0, size=8))
        for h in hs:
            p = UniformPartition(0.0, 5 * h, 5)
            i = 2
            for j in (i - 1, i, i + 1):
                xj = p.knot(j)
                xl = np.nextafter(xj, -np.inf)
                xr = np.nextafter(xj, np.inf)
                assert abs(ctb_eval(i, xl, p) - ctb_eval(i, xr, p)) < C2_TOL
                for order in (1, 2):
                    jump = ctb_deriv(i, xl, p, order) - ctb_deriv(i, xr, p, order)
                    assert abs(jump) < C2_TOL, (h, j, order)

    @settings(max_examples=50, deadline=None)
    @given(
        h=st.floats(min_value=0.02, max_value=1.0),
        frac=st.floats(min_value=1e-6, max_value=0.999),
    )
    def test_even_symmetry_about_center(self, h, frac):
        p = UniformPartition(0.0, 5 * h, 5)
        i, s = 2, frac * 2 * h
        xc = p.knot(i)
        left, right = ctb_eval(i, xc - s, p), ctb_eval(i, xc + s, p)
        assert left == pytest.approx(right, abs=1e-12)
        dl, dr = ctb_deriv(i, xc - s, p, 1), ctb_deriv(i, xc + s, p, 1)
        assert dl == pytest.approx(-dr, abs=1e-10)

    def test_rejects_bad_derivative_order(self):
        p = UniformPartition(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="order"):
            ctb_deriv(5, 0.5, p, 3)


class TestRecurrence:
    def test_order_one_is_cell_indicator(self):
        p = UniformPartition(0.0, 1.0, 10)
        assert ctb_eval_recurrence(4, 1, 0.45, p) == 1.0
        assert ctb_eval_recurrence(4, 1, p.knot(4), p) == 1.0
        # half-open on the right
        assert ctb_eval_recurrence(4, 1, p.knot(5), p) == 0.0
        assert ctb_eval_recurrence(4, 1, 0.3, p) == 0.0

    def test_matches_closed_form_up_to_constant(self):
        # calibrate the constant and index offset once at an interior point,
        # then require the same constant across the support
        p = UniformPartition(0.0, 1.0, 10)
        i = 5
        x0 = p.knot(i) + 0.3 * p.h
        const = ctb_eval(i, x0, p) / ctb_eval_recurrence(i - 2, 4, x0, p)
        # stay a little off the support edges, where both factors vanish
        # cubically and their ratio is pure roundoff
        xs = np.linspace(p.knot(i - 2) + 0.05 * p.h, p.knot(i + 2) - 0.05 * p.h, 20)
        for x in xs:
            ratio = ctb_eval(i, x, p) / ctb_eval_recurrence(i - 2, 4, x, p)
            assert ratio == pytest.approx(const, abs=1e-10)
        # the calibration comes out at exactly 1: the recurrence reproduces
        # the closed form including its normalizer
        assert const == pytest.approx(1.0, abs=1e-12)

    def test_specific_point_after_calibration(self):
        p = UniformPartition(0.0, 1.0, 10)
        x0 = p.knot(5) + 0.3 * p.h
        const = ctb_eval(5, x0, p) / ctb_eval_recurrence(3, 4, x0, p)
        got = const * ctb_eval_recurrence(3, 4, 0.37, p)
        assert got == pytest.approx(ctb_eval(5, 0.37, p), abs=1e-12)

    def test_degenerate_denominator_raises(self):
        # (k-1)h/2 = pi at k = 8, h = 2*pi/7, which is still a legal mesh
        h = 2.0 * math.pi / 7.0
        p = UniformPartition(0.0, 5 * h, 5)
        with pytest.raises(ValueError, match="denominator"):
            ctb_eval_recurrence(0, 8, p.knot(1), p)

    def test_rejects_zero_order(self):
        p = UniformPartition(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            ctb_eval_recurrence(0, 0, 0.5, p)


class TestKnotCoefficients:
    @settings(max_examples=50, deadline=None)
    @given(h=st.floats(min_value=1e-4, max_value=2.09))
    def test_first_derivative_weights_antisymmetric(self, h):
        sc = knot_coefficients(h)
        assert sc.beta1 + sc.beta2 == 0.0

    def test_center_value_formula(self):
        for h in (0.025, 0.1, 0.5):
            sc = knot_coefficients(h)
            assert sc.alpha2 == pytest.approx(2.0 / (1.0 + 2.0 * math.cos(h)), rel=1e-15)
        # h -> 0 limit of the center value
        assert knot_coefficients(1e-8).alpha2 == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_side_values_match_basis(self):
        p = UniformPartition(0.0, 1.0, 10)
        sc = knot_coefficients(p.h)
        assert ctb_eval(5, p.knot(4), p) == pytest.approx(sc.alpha1, rel=1e-13)
        assert ctb_deriv(5, p.knot(4), p, 1) == pytest.approx(sc.beta2, rel=1e-13)
        assert ctb_deriv(5, p.knot(4), p, 2) == pytest.approx(sc.gamma1, rel=1e-13)

    @pytest.mark.parametrize("h", [0.025, 1.0 / 36.0])
    def test_gamma2_against_differentiation_oracle(self, h):
        # resolves the conflicting published center formulas: the oracle
        # sides with -3cot^2(h/2)/(2+4cos h), and the constant-preserving
        # -2*gamma1 used by the scheme agrees with it to ~1e-8 here
        p = UniformPartition(0.0, 5 * h, 5)
        sc = knot_coefficients(h)
        oracle = junction_d2(lambda x: ctb_eval(2, x, p), p.knot(2), h)
        assert sc.gamma2 == pytest.approx(oracle, rel=FD_REL_TOL)
        printed_list = -3.0 / math.tan(h / 2) ** 2 / (2.0 + 4.0 * math.cos(h))
        printed_table = -3.0 / math.tan(1.5 * h) ** 2 / (2.0 + 4.0 * math.cos(h))
        assert oracle == pytest.approx(printed_list, rel=FD_REL_TOL)
        assert abs(oracle - printed_table) / abs(oracle) > 0.5

    def test_gamma2_annihilates_constants(self):
        for h in (0.025, 0.1, 0.9):
            sc = knot_coefficients(h)
            assert 2.0 * sc.gamma1 + sc.gamma2 == 0.0

    def test_rejects_out_of_range_h(self):
        with pytest.raises(ValueError):
            knot_coefficients(0.0)
        with pytest.raises(ValueError):
            knot_coefficients(2.2)
