"""Solver tests against dense oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctburgers import scheme
from ctburgers.linalg import ZeroPivotError, banded_solve, thomas_sweep

RESIDUAL_TOL = 1e-10


def dense_tridiag(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def random_dominant_tridiag(n, rng):
    sub = rng.uniform(-1, 1, n - 1)
    sup = rng.uniform(-1, 1, n - 1)
    diag = 2.5 + rng.uniform(0, 1, n)  # strictly dominant
    rhs = rng.uniform(-5, 5, n)
    return sub, diag, sup, rhs


def sweep(sub, diag, sup, rhs):
    """:func:`thomas_sweep` on list copies of the bands, as an array."""
    bands = (np.asarray(v, dtype=float).tolist() for v in (sub, diag, sup, rhs))
    return np.array(thomas_sweep(*bands))


class TestThomas:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0, 0.5])
        x = sweep(np.zeros(3), np.ones(4), np.zeros(3), rhs)
        npt.assert_allclose(x, rhs, rtol=0, atol=0)

    def test_three_by_three_against_dense_oracle(self):
        sub, diag, sup = [1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0]
        rhs = [1.0, 2.0, 3.0]
        oracle = np.linalg.solve(dense_tridiag(sub, diag, sup), rhs)
        npt.assert_allclose(oracle, [0.5, 0.0, 1.5], atol=1e-14)
        npt.assert_allclose(sweep(sub, diag, sup, rhs), oracle, atol=1e-14)

    def test_random_dominant_residual(self):
        rng = np.random.default_rng(0)
        sub, diag, sup, rhs = random_dominant_tridiag(50, rng)
        x = sweep(sub, diag, sup, rhs)
        res = np.max(np.abs(dense_tridiag(sub, diag, sup) @ x - rhs))
        assert res <= RESIDUAL_TOL * (1.0 + np.max(np.abs(rhs)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(0, 2**31))
    def test_matches_dense_solve_on_dominant_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        sub, diag, sup, rhs = random_dominant_tridiag(n, rng)
        npt.assert_allclose(
            sweep(sub, diag, sup, rhs),
            np.linalg.solve(dense_tridiag(sub, diag, sup), rhs),
            atol=1e-10,
        )

    def test_solution_overwrites_rhs_list(self):
        sub, diag, sup, rhs = [1.0], [4.0, 4.0], [1.0], [5.0, 5.0]
        x = thomas_sweep(sub, diag, sup, rhs)
        assert x is rhs
        assert x == [1.0, 1.0]

    def test_zero_pivot_names_row(self):
        with pytest.raises(ZeroPivotError, match="row 0"):
            sweep([1.0], [0.0, 1.0], [1.0], [1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_pivot_after_elimination_names_row(self, n):
        # unit bands: the second pivot is 1 - 1*1 = 0, in the last row for
        # n = 2 and inside the forward sweep for n = 4
        with pytest.raises(ZeroPivotError, match="row 1") as err:
            sweep(np.ones(n - 1), np.ones(n), np.ones(n - 1), np.ones(n))
        assert err.value.row == 1


def reference_banded_solve(bands, rhs):
    """Band elimination with the offset loops written out generically.

    ``banded_solve`` unrolls these loops, and the compiled ``fit`` of
    ``_finish.c`` repeats it in C; both must do the same IEEE operations
    in the same order, so the results agree bit for bit.
    """
    n = len(rhs)
    band = bands.tolist()
    rhs = rhs.tolist()
    for col in range(n - 1):
        pivot_row = band[col]
        piv = pivot_row[2]
        if abs(piv) < 1e-300:
            raise ZeroPivotError(col)
        for below in range(col + 1, min(col + 3, n)):
            row = band[below]
            off = col - below + 2
            if row[off] == 0.0:
                continue
            m = row[off] / piv
            row[off] = 0.0
            for k in range(1, 3):
                if col + k < n:
                    row[off + k] -= m * pivot_row[2 + k]
            rhs[below] -= m * rhs[col]
    if abs(band[n - 1][2]) < 1e-300:
        raise ZeroPivotError(n - 1)
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = rhs[row]
        for k in range(1, 3):
            if row + k < n:
                acc -= band[row][2 + k] * x[row + k]
        x[row] = acc / band[row][2]
    return np.array(x)


def banded_from_dense(a, rhs):
    n = len(rhs)
    bands = np.zeros((n, 5))
    for i in range(n):
        for off in range(-2, 3):
            j = i + off
            if 0 <= j < n:
                bands[i, off + 2] = a[i, j]
    return bands, rhs


class TestBanded:
    def test_diagonal_system(self):
        n = 5
        bands = np.zeros((n, 5))
        bands[:, 2] = np.arange(1.0, n + 1)
        rhs = np.arange(1.0, n + 1) * 2
        x = banded_solve(bands, rhs)
        npt.assert_allclose(x, 2.0)

    def test_initialization_stencil_against_dense_oracle(self):
        # shape of the initial-fit matrix: two derivative rows that skip a
        # column, interpolation rows in between (N = 8)
        n = 11
        a = np.zeros((n, n))
        a[0, 0], a[0, 2] = -1.3, 1.3
        for i in range(1, n - 1):
            a[i, i - 1 : i + 2] = [0.27, 0.67, 0.27]
        a[n - 1, n - 3], a[n - 1, n - 1] = -1.3, 1.3
        rng = np.random.default_rng(1)
        rhs = rng.uniform(-1, 1, n)
        npt.assert_allclose(
            banded_solve(*banded_from_dense(a, rhs)), np.linalg.solve(a, rhs), atol=1e-10
        )

    def test_tridiagonal_input_matches_thomas(self):
        rng = np.random.default_rng(2)
        sub, diag, sup, rhs = random_dominant_tridiag(20, rng)
        npt.assert_allclose(
            banded_solve(*banded_from_dense(dense_tridiag(sub, diag, sup), rhs)),
            sweep(sub, diag, sup, rhs),
            atol=1e-12,
        )

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=3, max_value=40), seed=st.integers(0, 2**31))
    def test_random_dominant_residual(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (n, n))
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 2:
                    a[i, j] = 0.0
            a[i, i] = 5.0 + rng.uniform(0, 1)
        rhs = rng.uniform(-3, 3, n)
        x = banded_solve(*banded_from_dense(a, rhs))
        res = np.max(np.abs(a @ x - rhs))
        assert res <= RESIDUAL_TOL * (1.0 + np.max(np.abs(rhs)))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=29),
        seed=st.integers(0, 2**31),
        zero_share=st.sampled_from([0.0, 0.2, 0.6]),
    )
    def test_bit_identical_to_reference_loop(self, n, seed, zero_share):
        rng = np.random.default_rng(seed)
        bands = rng.uniform(-1, 1, (n, 5))
        bands[:, 2] = rng.choice([-1.0, 1.0], n) * rng.uniform(2.5, 4.0, n)
        # exact zeros of both signs in the off-diagonals exercise the skip
        off = rng.uniform(size=(n, 5)) < zero_share
        off[:, 2] = False
        bands[off] = rng.choice([0.0, -0.0], int(off.sum()))
        for i in range(n):
            for j in range(5):
                if not 0 <= i + j - 2 < n:
                    bands[i, j] = 0.0
        rhs = rng.uniform(-3, 3, n)
        got = banded_solve(bands, rhs)
        want = reference_banded_solve(bands, rhs)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(0, 2**31),
        zero_share=st.sampled_from([0.0, 0.2, 0.6]),
        tiny_share=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_compiled_fit_bit_identical_to_both_loops(self, n, seed, zero_share, tiny_share):
        compiled = scheme._compiled()
        if compiled is None:
            pytest.skip("no compiled library on this machine")
        rng = np.random.default_rng(seed)
        bands = rng.uniform(-1, 1, (n, 5))
        bands[:, 2] = rng.choice([-1.0, 1.0], n) * rng.uniform(2.5, 4.0, n)
        rhs = rng.uniform(-3, 3, n)
        # exact zeros of both signs and subnormals off the diagonal and in
        # the rhs
        tiny = [5e-324, -5e-324, 2.2e-310, -1.0e-309, 3.0e-320]
        for share, values in ((zero_share, [0.0, -0.0]), (tiny_share, tiny)):
            mask = rng.uniform(size=(n, 5)) < share
            mask[:, 2] = False
            bands[mask] = rng.choice(values, int(mask.sum()))
            mask = rng.uniform(size=n) < share
            rhs[mask] = rng.choice(values, int(mask.sum()))
        # now and then a zero or subnormal pivot
        mask = rng.uniform(size=n) < 0.02
        bands[mask, 2] = rng.choice([0.0, -0.0, *tiny], int(mask.sum()))
        for i in range(n):
            for j in range(5):
                if not 0 <= i + j - 2 < n:
                    bands[i, j] = 0.0

        def outcome(solve):
            try:
                return None, solve().tobytes()
            except ZeroPivotError as err:
                return err.row, None

        want = outcome(lambda: reference_banded_solve(bands, rhs))
        assert outcome(lambda: banded_solve(bands, rhs)) == want
        assert outcome(lambda: scheme._fit(compiled.fit, bands.copy(), rhs.copy())) == want

    def test_zero_pivot_names_row(self):
        n = 3
        bands = np.zeros((n, 5))
        bands[0, 2] = 1.0
        bands[1, 2] = 0.0
        bands[2, 2] = 1.0
        with pytest.raises(ZeroPivotError, match="row 1"):
            banded_solve(bands, np.ones(n))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(n, 5\)"):
            banded_solve(np.zeros((3, 4)), np.ones(3))
        with pytest.raises(ValueError, match=r"\(n, 5\)"):
            banded_solve(np.zeros((3, 5)), np.ones(4))
