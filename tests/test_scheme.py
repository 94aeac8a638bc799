"""Scheme tests: initialization, stepping, boundaries, convergence."""

import copy
import ctypes
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctburgers import _native, csvtext, exact, scheme
from ctburgers.basis import SchemeCoefficients, UniformPartition, knot_coefficients
from ctburgers.exact import sine_wave_exact, traveling_wave_exact
from ctburgers.linalg import ZeroPivotError
from ctburgers.problems import sine_problem, traveling_problem
from ctburgers.scheme import (
    CoefficientVector,
    NodalState,
    ProblemSpec,
    _StepKernel,
    advance,
    initialize_coefficients,
    nodal_values,
    solve_to_time,
)


def assemble_step(c, p, sc):
    """The folded square system of one step from ``c``, on the Python path."""
    return _StepKernel(c.delta, p, sc, None).assemble()


def constant_problem(c, n_cells=40, lam=1.0, dt=1e-4):
    return ProblemSpec(
        lam=lam, a=0.0, b=1.0, dt=dt, n_cells=n_cells,
        initial_condition=lambda x: c,
        initial_derivative=lambda x: 0.0,
        boundary_left=c, boundary_right=c,
    )


def setup(problem):
    part = problem.partition()
    sc = knot_coefficients(part.h)
    return part, sc


def compile_mutant(tmp_path, replacements):
    """The library built from ``_finish.c`` with each (statement, mutant)
    replacement made, bound like the package's own."""
    source = _native.SOURCE.read_text()
    for statement, mutant in replacements:
        assert source.count(statement) == 1
        source = source.replace(statement, mutant)
    path = tmp_path / "mutant.c"
    path.write_text(source)
    library = tmp_path / "mutant.so"
    subprocess.run(
        _native.compile_command(library, path), check=True, capture_output=True, timeout=120,
    )
    return _native._bind(ctypes.CDLL(str(library)))


# a non-static function definition of _finish.c: result type, name, parameters
C_DEFINITION = re.compile(r"^(?!static\b)(\w[\w *]*?)\s*\b(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)
C_RESULTS = {"long": ctypes.c_long, "void": None}
C_SCALARS = {"long": ctypes.c_long, "long long": ctypes.c_longlong, "double": ctypes.c_double}


def signature_mismatches(source, signatures):
    """Each way in which ``signatures``, laid out as ``_native._SIGNATURES``,
    differs from the non-static function definitions of the C ``source``."""
    definitions = {name: (result, params) for result, name, params in C_DEFINITION.findall(source)}
    found = []
    if definitions.keys() != signatures.keys():
        found.append(f"defined {sorted(definitions)}, bound {sorted(signatures)}")
    for name in definitions.keys() & signatures.keys():
        result, params = definitions[name]
        restype, argtypes = signatures[name]
        if C_RESULTS.get(result, "unbound") is not restype:
            found.append(f"{name} returns {result}, bound to {restype}")
        # each parameter's type: its declaration without the name
        types = [re.sub(r"\w+$", "", " ".join(p.split())).strip() for p in params.split(",")]
        if len(types) != len(argtypes):
            found.append(f"{name} takes {len(types)} parameters, bound to {len(argtypes)}")
        for i, (ctype, argtype) in enumerate(zip(types, argtypes)):
            if "*" not in ctype:
                allowed = {C_SCALARS.get(ctype)}
            elif ctype == "const char *":
                # text C only reads may be passed as bytes
                allowed = {ctypes.c_void_p, ctypes.c_char_p}
            else:
                allowed = {ctypes.c_void_p}
            if argtype not in allowed:
                found.append(f"{name} parameter {i} is {ctype}, bound to {argtype}")
    return found


class TestNodalValues:
    def test_zero_coefficients(self):
        sc = knot_coefficients(0.1)
        c = CoefficientVector(delta=np.zeros(13), time=0.0)
        s = nodal_values(c, sc)
        npt.assert_array_equal(s.u, 0.0)
        npt.assert_array_equal(s.ux, 0.0)
        npt.assert_array_equal(s.uxx, 0.0)

    def test_constant_coefficients_have_flat_slope(self):
        sc = knot_coefficients(0.1)
        c = CoefficientVector(delta=np.full(13, 1.7), time=0.0)
        s = nodal_values(c, sc)
        npt.assert_allclose(s.ux, 0.0, atol=1e-15)
        # the discrete curvature of a constant state vanishes by the
        # gamma2 = -2*gamma1 construction
        npt.assert_allclose(s.uxx, 0.0, atol=1e-11)

    def test_derivatives_read_late_are_those_of_the_parameters_at_the_call(self):
        # U_x and U_xx are computed on their first read, from the state's own
        # copy of the parameters, with the expressions of U, U_x, U_xx
        sc = knot_coefficients(0.1)
        delta = np.sin(0.7 * np.arange(13.0)) - 0.25
        d = delta.copy()
        s = nodal_values(CoefficientVector(delta=delta, time=0.0), sc)
        delta[:] = np.nan
        assert s.u.tobytes() == (sc.alpha1 * d[:-2] + sc.alpha2 * d[1:-1]
                                 + sc.alpha1 * d[2:]).tobytes()
        assert s.ux.tobytes() == (sc.beta1 * d[:-2] + sc.beta2 * d[2:]).tobytes()
        assert s.uxx.tobytes() == (sc.gamma1 * d[:-2] + sc.gamma2 * d[1:-1]
                                   + sc.gamma1 * d[2:]).tobytes()
        assert s.ux is s.ux and isinstance(s, NodalState)

    def test_a_state_of_nodal_values_is_a_plain_nodal_state(self):
        # the derivatives read late leave the dataclass as it is: its type,
        # replace, ==, repr, copies and pickles see the three fields
        sc = knot_coefficients(0.1)
        delta = np.sin(0.7 * np.arange(13.0)) - 0.25
        s = nodal_values(CoefficientVector(delta=delta, time=0.0), sc)
        kept = pickle.loads(pickle.dumps(s))
        copied = copy.deepcopy(s)
        assert type(s) is NodalState
        moved = replace(s, u=-s.u)
        assert type(moved) is NodalState and moved.ux is s.ux and moved.uxx is s.uxx
        assert s == NodalState(u=s.u, ux=s.ux, uxx=s.uxx)
        assert repr(s) == repr(NodalState(s.u, s.ux, s.uxx))
        for other in (kept, copied):
            assert [a.tobytes() for a in (other.u, other.ux, other.uxx)] == [
                a.tobytes() for a in (s.u, s.ux, s.uxx)]
        with pytest.raises(AttributeError, match="'NodalState' object has no attribute 'uxxx'"):
            getattr(s, "uxxx")


class TestInitializeCoefficients:
    def test_zero_initial_condition(self):
        p = constant_problem(0.0)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        npt.assert_allclose(c.delta, 0.0, atol=1e-14)
        assert c.time == 0.0

    def test_sine_interpolates_at_every_knot(self):
        p = sine_problem(1.0, 40, 1e-4)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        u = nodal_values(c, sc).u
        expected = [math.sin(math.pi * part.knot(i)) for i in range(41)]
        npt.assert_allclose(u, expected, atol=1e-12)

    def test_traveling_end_derivative_conditions(self):
        p = traveling_problem(0.01, 36, 1e-3)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        ux = nodal_values(c, sc).ux
        assert ux[0] == pytest.approx(p.initial_derivative(0.0), abs=1e-10)
        assert ux[-1] == pytest.approx(p.initial_derivative(1.0), abs=1e-10)

    def test_traveling_nodal_values_match_exact_profile(self):
        p = traveling_problem(0.01, 36, 1e-3)
        part, sc = setup(p)
        u = nodal_values(initialize_coefficients(p, part, sc), sc).u
        for i in range(37):
            exact = traveling_wave_exact(part.knot(i), 0.0, 0.4, 0.6, 0.125, 0.01)
            assert u[i] == pytest.approx(exact, abs=1e-8)


    def test_initial_condition_is_called_once_on_the_knot_array(self):
        p = sine_problem(1.0, 40, 1e-4)
        calls = []

        def column(x):
            calls.append(x)
            return p.initial_condition(x)

        part, sc = setup(p)
        got = initialize_coefficients(replace(p, initial_condition=column), part, sc)
        assert len(calls) == 1
        assert calls[0].tobytes() == part.knot_array().tobytes()
        assert bits(got.delta) == bits(initialize_coefficients(p, part, sc).delta)


class TestColumnInitialCondition:
    """Both factories' ``initial_condition`` takes a 1-D array and gives
    the bits of one call per point."""

    @pytest.mark.parametrize("factory", [sine_problem, traveling_problem])
    @pytest.mark.parametrize("lam", [1.0, 0.1, 0.01, 0.005, 0.001])
    @pytest.mark.parametrize("n_cells", [3, 36, 40, 400, 4000])
    def test_column_matches_point_calls(self, factory, lam, n_cells):
        p = factory(lam, n_cells, 1e-3)
        # the knots, which lie on both sides of the traveling front, plus
        # its centre gamma = 0.125, where its exponent eta is exactly zero
        x = np.append(p.partition().knot_array(), [0.125, -0.0, 1.0])
        expected = np.array([p.initial_condition(v) for v in x.tolist()])
        got = p.initial_condition(x)
        assert got.shape == x.shape
        assert got.tobytes() == expected.tobytes()


class TestAssembleAndEliminate:
    def test_zero_state_zero_viscosity_rows(self):
        # validation requires lam > 0, but assembly itself is total
        p = replace(constant_problem(0.0), lam=0.0)
        part, sc = setup(p)
        c = CoefficientVector(delta=np.zeros(part.n_cells + 3), time=0.0)
        sub, diag, sup, rhs = assemble_step(c, p, sc)
        # interior rows are untouched by the phantom fold
        npt.assert_allclose(sub[:-1], sc.alpha1, rtol=1e-12)
        npt.assert_allclose(diag[1:-1], sc.alpha2, rtol=1e-12)
        npt.assert_allclose(sup[1:], sc.alpha1, rtol=1e-12)
        npt.assert_array_equal(rhs, 0.0)
        # end rows: the fold subtracts the phantom coefficient (alpha1 here)
        # from the outer off-diagonal and alpha2/alpha1 of it from the pivot
        assert sup[0] == 0.0 and sub[-1] == 0.0
        assert diag[0] == sc.alpha2 - sc.alpha1 * sc.alpha2 / sc.alpha1

    def test_elimination_shrinks_to_square_tridiagonal(self):
        p = sine_problem(0.1, 10, 1e-3)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        sub, diag, sup, rhs = assemble_step(c, p, sc)
        assert len(diag) == len(rhs) == 11
        assert len(sub) == 10 and len(sup) == 10

    def test_homogeneous_boundary_phantom_formula(self):
        # U_a = 0: delta_{-1} = -(alpha2 d0 + alpha1 d1)/alpha1
        p = sine_problem(0.1, 20, 1e-4)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        c = advance(c, p, sc)
        d = c.delta
        expected = -(sc.alpha2 * d[1] + sc.alpha1 * d[2]) / sc.alpha1
        assert d[0] == pytest.approx(expected, abs=1e-12)

    def test_boundary_round_trip(self):
        p = traveling_problem(0.01, 36, 1e-3)
        part, sc = setup(p)
        c = advance(initialize_coefficients(p, part, sc), p, sc)
        u = nodal_values(c, sc).u
        assert u[0] == pytest.approx(p.boundary_left, abs=1e-10)
        assert u[-1] == pytest.approx(p.boundary_right, abs=1e-10)


class TestAdvance:
    def test_zero_state_is_fixed(self):
        p = constant_problem(0.0)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        for _ in range(5):
            c = advance(c, p, sc)
        npt.assert_allclose(c.delta, 0.0, atol=1e-14)

    @pytest.mark.parametrize("lam,dt", [(1.0, 1e-4), (0.1, 1e-3), (0.01, 1e-2)])
    def test_constant_state_is_fixed_point(self, lam, dt):
        p = constant_problem(0.5, lam=lam, dt=dt)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        u0 = nodal_values(c, sc).u
        c = advance(c, p, sc)
        u1 = nodal_values(c, sc).u
        assert np.max(np.abs(u1 - u0)) < 1e-12

    def test_published_cell_lam_tenth(self):
        p = sine_problem(0.1, 40, 1e-4)
        states = solve_to_time(p, p.partition(), 0.4, [0.4])
        assert states[0.4].u[10] == pytest.approx(0.30892, abs=5e-5)

    def test_max_norm_decays_for_unit_viscosity(self):
        p = sine_problem(1.0, 40, 1e-4)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        prev = np.max(np.abs(nodal_values(c, sc).u))
        for _ in range(500):
            c = advance(c, p, sc)
            cur = np.max(np.abs(nodal_values(c, sc).u))
            assert cur <= prev + 1e-14
            prev = cur

    def test_boundary_preserved_every_step(self):
        p = sine_problem(0.1, 40, 1e-4)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        for _ in range(300):
            c = advance(c, p, sc)
            u = nodal_values(c, sc).u
            assert abs(u[0]) < 1e-9 and abs(u[-1]) < 1e-9

    def test_zero_pivot_names_row(self):
        # with these constants the folded first row is 1 - 1*1/1 = 0
        sc = SchemeCoefficients(
            alpha1=1.0, alpha2=1.0, beta1=0.0, beta2=0.0, gamma1=0.0, gamma2=0.0
        )
        p = constant_problem(0.0, n_cells=5)
        c = CoefficientVector(delta=np.zeros(8), time=0.0)
        with pytest.raises(ZeroPivotError, match="row 0") as err:
            advance(c, p, sc)
        assert err.value.row == 0

    def test_zero_pivot_names_row_through_the_march(self, monkeypatch):
        # the same constants as above; the fit is replaced by a zero state
        # because with beta = 0 the fit itself has a zero pivot in row 0
        sc = SchemeCoefficients(
            alpha1=1.0, alpha2=1.0, beta1=0.0, beta2=0.0, gamma1=0.0, gamma2=0.0
        )
        p = constant_problem(0.0, n_cells=5)
        monkeypatch.setattr(scheme, "knot_coefficients", lambda h: sc)
        monkeypatch.setattr(
            scheme,
            "initialize_coefficients",
            lambda p, part, sc: CoefficientVector(delta=np.zeros(8), time=0.0),
        )
        with pytest.raises(ZeroPivotError, match="row 0") as err:
            solve_to_time(p, p.partition(), 3 * p.dt)
        assert err.value.row == 0

    def test_zero_alpha1_cannot_eliminate_phantoms(self):
        sc = replace(knot_coefficients(0.1), alpha1=0.0)
        p = constant_problem(0.0, n_cells=10)
        c = CoefficientVector(delta=np.zeros(13), time=0.0)
        with pytest.raises(ZeroDivisionError, match="alpha1"):
            assemble_step(c, p, sc)
        with pytest.raises(ZeroDivisionError, match="alpha1"):
            advance(c, p, sc)

    def test_too_few_parameters_rejected(self):
        # the compiled finisher would read past the bands of a 0-row system
        p = constant_problem(0.0)
        sc = knot_coefficients(0.1)
        for n in (2, 3):
            with pytest.raises(ValueError, match="at least 4 spline parameters"):
                advance(CoefficientVector(delta=np.zeros(n), time=0.0), p, sc)

    def test_time_advances_by_dt(self):
        p = sine_problem(1.0, 10, 1e-3)
        part, sc = setup(p)
        c = advance(initialize_coefficients(p, part, sc), p, sc)
        assert c.time == pytest.approx(1e-3)


def dense_one_step_oracle(delta, p, sc):
    """Full (N+3)x(N+3) dense formulation of a single step: the N+1
    linearized collocation rows plus two explicit boundary-value rows."""
    n_cells = len(delta) - 3
    u = sc.alpha1 * delta[:-2] + sc.alpha2 * delta[1:-1] + sc.alpha1 * delta[2:]
    ux = sc.beta1 * delta[:-2] + sc.beta2 * delta[2:]
    n = n_cells + 3
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    a[0, 0:3] = [sc.alpha1, sc.alpha2, sc.alpha1]
    rhs[0] = p.boundary_left
    for m in range(n_cells + 1):
        row = m + 1
        a[row, m] = sc.alpha1 + p.dt / 2 * (
            sc.alpha1 * ux[m] + sc.beta1 * u[m] - p.lam * sc.gamma1
        )
        a[row, m + 1] = sc.alpha2 + p.dt / 2 * (sc.alpha2 * ux[m] - p.lam * sc.gamma2)
        a[row, m + 2] = sc.alpha1 + p.dt / 2 * (
            sc.alpha1 * ux[m] + sc.beta2 * u[m] - p.lam * sc.gamma1
        )
        rhs[row] = (
            (sc.alpha1 + p.lam * p.dt / 2 * sc.gamma1) * (delta[m] + delta[m + 2])
            + (sc.alpha2 + p.lam * p.dt / 2 * sc.gamma2) * delta[m + 1]
        )
    a[n - 1, n - 3 : n] = [sc.alpha1, sc.alpha2, sc.alpha1]
    rhs[n - 1] = p.boundary_right
    return np.linalg.solve(a, rhs)


def reference_assemble(d, p, sc):
    """The band-by-band assembly the step kernel replaced, kept as its oracle."""
    u = sc.alpha1 * d[:-2] + sc.alpha2 * d[1:-1] + sc.alpha1 * d[2:]
    ux = sc.beta1 * d[:-2] + sc.beta2 * d[2:]
    a1, a2 = sc.alpha1, sc.alpha2
    half_dt = 0.5 * p.dt
    lam_g1 = p.lam * sc.gamma1
    lam_g2 = p.lam * sc.gamma2
    a1_ux = a1 * ux
    lower = (a1 + half_dt * (a1_ux + sc.beta1 * u - lam_g1)).tolist()
    diag = (a2 + half_dt * (a2 * ux - lam_g2)).tolist()
    upper = (a1 + half_dt * (a1_ux + sc.beta2 * u - lam_g1)).tolist()
    rhs = (
        (a1 + half_dt * lam_g1) * (d[:-2] + d[2:]) + (a2 + half_dt * lam_g2) * d[1:-1]
    ).tolist()
    first = lower[0]
    diag[0] -= first * a2 / a1
    upper[0] -= first
    rhs[0] -= first * p.boundary_left / a1
    last = upper.pop()
    diag[-1] -= last * a2 / a1
    lower[-1] -= last
    rhs[-1] -= last * p.boundary_right / a1
    del lower[0]
    return lower, diag, upper, rhs


def reference_sweep(sub, diag, sup, rhs):
    """Thomas elimination as a plain loop over the lists."""
    n = len(diag)
    for i in range(1, n):
        if abs(diag[i - 1]) < 1e-300:
            raise ZeroPivotError(i - 1)
        m = sub[i - 1] / diag[i - 1]
        diag[i] = diag[i] - m * sup[i - 1]
        rhs[i] = rhs[i] - m * rhs[i - 1]
    if abs(diag[n - 1]) < 1e-300:
        raise ZeroPivotError(n - 1)
    x = [0.0] * n
    x[n - 1] = rhs[n - 1] / diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - sup[i] * x[i + 1]) / diag[i]
    return x


def reference_advance(d, p, sc):
    mid = reference_sweep(*reference_assemble(d, p, sc))
    a1, a2 = sc.alpha1, sc.alpha2
    left = (p.boundary_left - a2 * mid[0] - a1 * mid[1]) / a1
    right = (p.boundary_right - a1 * mid[-2] - a2 * mid[-1]) / a1
    return np.array([left, *mid, right])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def outcome(fn):
    """The bits a computation returns, or the row of the zero pivot it hits."""
    try:
        return bits(fn())
    except ZeroPivotError as err:
        return ("zero pivot", err.row)


@st.composite
def step_cases(draw):
    n_cells = draw(st.integers(min_value=3, max_value=60))
    entry = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    delta = np.array(draw(st.lists(entry, min_size=n_cells + 3, max_size=n_cells + 3)))
    p = ProblemSpec(
        lam=draw(st.floats(min_value=1e-3, max_value=1.0)),
        a=0.0,
        b=1.0,
        dt=draw(st.floats(min_value=1e-5, max_value=1e-2)),
        n_cells=n_cells,
        initial_condition=lambda x: 0.0,
        initial_derivative=lambda x: 0.0,
        boundary_left=draw(entry),
        boundary_right=draw(entry),
    )
    return delta, p, knot_coefficients(1.0 / n_cells)


def mid_march_pivot_case():
    """A state whose first step succeeds and whose second meets a zero pivot
    in row 0: with rhs weights alpha + dt/2 lam gamma = 0 the first step
    ends in +-0.0, and on that state the folded row 0 is 4 - 2 * 2/1 = 0."""
    sc = SchemeCoefficients(
        alpha1=1.0, alpha2=2.0, beta1=-1.0, beta2=1.0, gamma1=-1.0, gamma2=-2.0
    )
    return np.linspace(-1.0, 1.0, 8), constant_problem(0.0, n_cells=5, lam=1.0, dt=2.0), sc


# the bit-identity tests run in two classes, one per step finisher, which
# hypothesis would otherwise report as a test called from two executors
kernel_settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.differing_executors]
)


class TestStepKernelBitIdentity:
    """The step kernel does the reference's IEEE operations in its order.

    Steps end in the finisher the process selected: the compiled one
    wherever a C compiler is at hand.  The subclass below runs the same
    tests on the Python fallback.
    """

    @settings(kernel_settings, max_examples=60)
    @given(case=step_cases())
    def test_one_step(self, case):
        delta, p, sc = case
        c = CoefficientVector(delta=delta.copy(), time=0.0)
        ref = reference_assemble(delta, p, sc)
        got = assemble_step(c, p, sc)
        assert [bits(v) for v in got] == [bits(v) for v in ref]
        assert outcome(lambda: advance(c, p, sc).delta) == outcome(
            lambda: reference_advance(delta, p, sc)
        )
        assert bits(c.delta) == bits(delta)

    @settings(kernel_settings, max_examples=30)
    @given(case=step_cases())
    def test_fifty_step_march(self, case):
        delta, p, sc = case

        def reference():
            d = delta
            for _ in range(50):
                d = reference_advance(d, p, sc)
            return d

        def kernel():
            k = _StepKernel(delta, p, sc, _native.compiled().march)
            for _ in range(50):
                k.march(1)
            return k.delta

        def public():
            c = CoefficientVector(delta=delta, time=0.0)
            for _ in range(50):
                c = advance(c, p, sc)
            return c.delta

        expected = outcome(reference)
        assert outcome(kernel) == expected
        assert outcome(public) == expected

    @settings(kernel_settings, max_examples=40)
    @given(case=step_cases(), steps=st.integers(min_value=1, max_value=60))
    @example(case=mid_march_pivot_case(), steps=5)
    def test_march_equals_single_steps(self, case, steps):
        # on a zero pivot the state is the one before the failing step
        delta, p, sc = case
        expected, row = delta, None
        for _ in range(steps):
            try:
                expected = reference_advance(expected, p, sc)
            except ZeroPivotError as err:
                row = err.row
                break
        k = _StepKernel(delta, p, sc, _native.compiled().march)
        try:
            k.march(steps)
            got = None
        except ZeroPivotError as err:
            got = err.row
        assert got == row
        assert bits(k.delta) == bits(expected)

    def test_zero_pivot_in_the_second_step(self):
        delta, p, sc = mid_march_pivot_case()
        first = reference_advance(delta, p, sc)
        with pytest.raises(ZeroPivotError):
            reference_advance(first, p, sc)
        k = _StepKernel(delta, p, sc, _native.compiled().march)
        with pytest.raises(ZeroPivotError, match="row 0") as err:
            k.march(5)
        assert err.value.row == 0
        assert bits(k.delta) == bits(first) != bits(delta)

    @pytest.mark.parametrize(
        "problem",
        [sine_problem(0.01, 40, 1e-3), traveling_problem(0.005, 36, 1e-3)],
        ids=["sine", "traveling"],
    )
    def test_march_snapshots_match_reference(self, problem):
        part, sc = setup(problem)
        steps = {0.0: 0, 0.02: 20, 0.05: 50}
        states = solve_to_time(problem, part, 0.05, list(steps))
        deltas = [initialize_coefficients(problem, part, sc).delta]
        for _ in range(50):
            deltas.append(reference_advance(deltas[-1], problem, sc))
        assert list(states) == list(steps)
        for t, k in steps.items():
            ref = nodal_values(CoefficientVector(delta=deltas[k], time=t), sc)
            for field in ("u", "ux", "uxx"):
                assert bits(getattr(states[t], field)) == bits(getattr(ref, field))

    def test_interior_zero_pivot_names_row(self):
        # no advection, alpha1 = 1, alpha2 = 2, lam gamma2 dt/2 = 1: the
        # folded pivots are -1, 1, 0 in rows 0-2, whatever the state
        sc = SchemeCoefficients(
            alpha1=1.0, alpha2=2.0, beta1=0.0, beta2=0.0, gamma1=0.0, gamma2=1.0
        )
        p = constant_problem(0.0, n_cells=5, lam=1.0, dt=2.0)
        delta = np.linspace(-1.0, 1.0, 8)
        k = _StepKernel(delta, p, sc, _native.compiled().march)
        with pytest.raises(ZeroPivotError, match="row 2") as err:
            k.march(1)
        assert err.value.row == 2
        assert bits(k.delta) == bits(delta)


class TestStepKernelBitIdentityPythonFinisher(TestStepKernelBitIdentity):
    """The same tests with every step finished, and every fit solved, on
    Python floats, as on a machine without a C compiler."""

    @pytest.fixture(autouse=True)
    def python_finisher(self, library):
        library(_native._PYTHON)


class TestNativeFinisher:
    """The compiled finisher is built on first use, active wherever a C
    compiler is, and any failed build keeps the Python path's bits."""

    def test_active_when_a_compiler_is_on_path(self):
        if shutil.which(_native.compiler()[0]) is None:
            pytest.skip("no C compiler on PATH")
        assert scheme.step_finisher() == "native"

    def test_import_builds_nothing(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(tmp_path)}
        subprocess.run(
            [sys.executable, "-c", "import ctburgers.cli"], env=env, check=True, timeout=120
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "breakage", ["failing-compile", "missing-compiler", "unwritable-cache"]
    )
    def test_failed_build_falls_back_to_identical_bits(self, breakage, tmp_path, monkeypatch):
        problem = traveling_problem(0.005, 36, 1e-3)
        part = problem.partition()
        sc = knot_coefficients(part.h)
        expected = solve_to_time(problem, part, 0.05, [0.02, 0.05])
        expected_fit = initialize_coefficients(problem, part, sc).delta
        # an empty cache, so the loader has to build
        cache = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        if breakage == "unwritable-cache":
            cache.write_text("a file where the cache directory should be")
        else:
            command = {
                "failing-compile": [sys.executable, "-c", "raise SystemExit(1)"],
                "missing-compiler": ["ctburgers-no-such-compiler"],
            }[breakage]
            monkeypatch.setattr(_native, "compiler", lambda: command)
        _native.compiled.cache_clear()
        try:
            assert scheme.step_finisher() == "python"
            got = solve_to_time(problem, part, 0.05, [0.02, 0.05])
            got_fit = initialize_coefficients(problem, part, sc).delta
        finally:
            _native.compiled.cache_clear()
        if breakage != "unwritable-cache":
            assert list((cache / "ctburgers").iterdir()) == []  # no partial build left
        assert bits(got_fit) == bits(expected_fit)
        for t in expected:
            for field in ("u", "ux", "uxx"):
                assert bits(getattr(got[t], field)) == bits(getattr(expected[t], field))

    def test_signatures_match_the_c_definitions(self):
        # the one declaration of the compiled interface on the Python side
        # names, counts and types every parameter as _finish.c defines it
        assert signature_mismatches(_native.SOURCE.read_text(), _native._SIGNATURES) == []

    @pytest.mark.parametrize("change", ["pulse-gains-a-parameter", "front-loses-a-double"])
    def test_signature_check_finds_a_changed_definition(self, change):
        source, signatures = _native.SOURCE.read_text(), dict(_native._SIGNATURES)
        if change == "pulse-gains-a-parameter":
            definition = "long pulse(const double *x, long n, double *out)"
            assert source.count(definition) == 1
            source = source.replace(definition, definition[:-1] + ", long stride)")
        else:
            restype, argtypes = signatures["front"]
            argtypes = list(argtypes)
            argtypes.remove(ctypes.c_double)
            signatures["front"] = (restype, tuple(argtypes))
        assert signature_mismatches(source, signatures) != []

    def test_step_count_reaches_the_library_unchanged(self):
        # the largest step count the cell-step cap lets through (4 knots, the
        # fewest a partition has) reaches the march in one call, unwrapped
        march = _native.compiled().march
        if march is None:
            pytest.skip("no compiled library on this machine")
        calls = []
        spy = ctypes.CFUNCTYPE(march.restype, *march.argtypes)(
            lambda *args: calls.append(args[-1]) or -1
        )
        p = constant_problem(0.0, n_cells=3)
        k = _StepKernel(np.zeros(6), p, knot_coefficients(1.0 / 3), spy)
        k.march(scheme.MAX_CELL_STEPS // 4)
        assert calls == [scheme.MAX_CELL_STEPS // 4]

    def test_known_answers_reach_the_reuse_variant(self):
        # march reuses work only in a step that starts from at least
        # REUSE_MIN parameters equal to their upper neighbour bit for bit:
        # one known answer does in each of its steps, one from signed zeros
        reuse_min = int(re.search(r"#define REUSE_MIN (\d+)", _native.SOURCE.read_text())[1])

        def repeats(delta):
            b = delta.view(np.int64)[1:-1]
            return int(np.sum(b[:-1] == b[1:]))

        every_step, signed_zeros = False, False
        for delta, p, sc, steps in _native._known_answer_cases():
            kernel = _StepKernel(delta, p, sc, None)
            counts = []
            try:
                for _ in range(steps):
                    counts.append(repeats(kernel.delta))
                    kernel.march(1)
            except ZeroPivotError:
                continue
            every_step |= min(counts) >= reuse_min
            zeros = delta[delta == 0.0]
            signed_zeros |= (counts[0] >= reuse_min and np.signbit(zeros).any()
                             and not np.signbit(zeros).all())
        assert every_step and signed_zeros

    def test_known_answer_check_rejects_a_wrong_finisher(self):
        native = _native.compiled().march
        if native is None:
            pytest.skip("no compiled step finisher on this machine")

        def matches(march):
            return _native._matches_python(_native._PYTHON._replace(march=march))

        assert matches(native)
        # a march that skips every step, or blames the wrong row
        assert not matches(lambda *args: -1)
        assert not matches(lambda *args: native(*args) and 1)
        # a march that stops one step short
        assert not matches(lambda *args: native(*args[:-1], args[-1] - 1))
        # one that names the row after the zero pivot
        assert not matches(
            lambda *args: (lambda row: row + 1 if row >= 0 else row)(native(*args))
        )

    @pytest.mark.parametrize(
        "statement, mutant",
        [
            # U regrouped as a1 d0 + (a2 d1 + a1 d2)
            (
                "u = a1 * d0 + a2 * d1 + a1 * d2;",
                "u = a1 * d0 + (a2 * d1 + a1 * d2);",
            ),
            # lower regrouped as a1_ux + (b1 U - lam g1)
            (
                "*lo = a1 + half_dt * (a1_ux + b1 * u - lam_g1);",
                "*lo = a1 + half_dt * (a1_ux + (b1 * u - lam_g1));",
            ),
            # rhs with the outer weight distributed over d0 + d2
            (
                "*rh = rhs_outer * (d0 + d2) + rhs_centre * d1;",
                "*rh = rhs_outer * d0 + rhs_outer * d2 + rhs_centre * d1;",
            ),
            # the left fold with a2 / a1 taken first
            ("dg -= first * a2 / a1;", "dg -= first * (a2 / a1);"),
            # the left phantom restore regrouped as U_a - (a2 d0 + a1 d1)
            (
                "delta[0] = (bc_left - a2 * delta[1] - a1 * delta[2]) / a1;",
                "delta[0] = (bc_left - (a2 * delta[1] + a1 * delta[2])) / a1;",
            ),
            # reuse on rows that repeat the previous row: signed zeros taken
            # for each other
            ("return x == y;", "return a == b;"),
            # the multiplier reused when only lo repeats
            (
                "same(lo, lo_was) && same(piv, piv_was)",
                "same(lo, lo_was)",
            ),
            # the forward update reused when only rh repeats
            (
                "same(rh, rh_was) && same(acc, acc_was)",
                "same(rh, rh_was)",
            ),
            # the new parameter reused when the incoming one does not repeat
            (
                "reuse && flat && same(rhs[i], rhs[i + 1])",
                "reuse && same(rhs[i], rhs[i + 1])",
            ),
        ],
        ids=["regrouped-u", "regrouped-lower", "distributed-rhs", "left-fold-ratio",
             "regrouped-left-restore", "reuse-by-equality", "reuse-m-without-pivot",
             "reuse-acc-without-acc", "reuse-x-without-x"],
    )
    def test_known_answer_check_rejects_a_mutant_finisher(self, statement, mutant, tmp_path):
        if _native.compiled().march is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, [(statement, mutant)])
        # the mutant's fit alone passes: the march is what fails the check
        assert _native._matches_python(mutant._replace(march=None))
        assert not _native._matches_python(mutant)

    def test_known_answer_check_rejects_a_wrong_fit(self):
        fit = _native.compiled().fit
        if fit is None:
            pytest.skip("no compiled library on this machine")

        def matches(fit):
            return _native._matches_python(_native._PYTHON._replace(fit=fit))

        assert matches(fit)
        # a fit that never reports a zero pivot, or blames the row after it
        def never_fails(*args):
            fit(*args)
            return -1

        assert not matches(never_fails)
        assert not matches(
            lambda *args: (lambda row: row + 1 if row >= 0 else row)(fit(*args))
        )
        # one that leaves the last unknown unwritten; never on n = 0 rows,
        # where fit would write x[-1], before its buffer
        assert not matches(lambda *args: fit(*args[:3], max(args[3] - 1, 1), args[4]))

    @pytest.mark.parametrize(
        "statement, mutant",
        [
            # back substitution regrouped as rhs - (r3 x1 + r4 x2)
            (
                "x[i] = ((rhs[i] - r[3] * x[i + 1]) - r[4] * x[i + 2]) / r[2];",
                "x[i] = (rhs[i] - (r[3] * x[i + 1] + r[4] * x[i + 2])) / r[2];",
            ),
            # the first elimination run on an exactly-zero entry too
            ("if (row[1] != 0.0) {", "if (1) {"),
            # the second one
            ("if (row[0] != 0.0) {", "if (1) {"),
        ],
        ids=["regrouped-back-substitution", "unskipped-first", "unskipped-second"],
    )
    def test_known_answer_check_rejects_a_mutant_fit(self, statement, mutant, tmp_path):
        if _native.compiled().march is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, [(statement, mutant)])
        # the mutant's march alone passes: the fit is what fails the check
        assert _native._matches_python(mutant._replace(fit=None))
        assert not _native._matches_python(mutant)

    @pytest.mark.parametrize(
        "statement, mutant",
        [
            # exact ties rounded half up instead of to even
            (
                "*out = n + (half > 0.0 || (half == 0.0 && n % 2 != 0));",
                "*out = n + (half >= 0.0);",
            ),
            # glibc's -nan for a NaN with its sign bit set written as it is
            ("if (*c == 'n')\n        negative = 0;", ""),
            # trailing zeros kept: 1e-05 as 1.00000000000e-05
            ("if (v % 10 != 0)\n        return k;", "return DIGITS;"),
            # the pair table off by one entry: 37 written as 38
            ('"30313233343536373839"', '"30313233343536383839"'),
            # a product or quotient that rounds to n + 1/2 rounded up, whichever
            # side of it the exact one lies
            ("half = lo;", "half = 1.0;"),
            # no second scaling: a value whose exponent estimate is one low
            # written with 13 digits
            ("if (*digits >= TEN_TO_DIGITS) {", "if (0) {"),
            # only the carry 99..9.5 -> 10^12 moves the exponent, as 10^11
            (
                "if (*digits >= TEN_TO_DIGITS) {\n        e++;\n"
                "        if (!nearest(a, DIGITS - 1 - e, digits))\n            return 0;\n    }",
                "if (*digits == TEN_TO_DIGITS) {\n        *digits = TEN_TO_DIGITS / 10;\n"
                "        e++;\n    }",
            ),
            # the 13 digits cut to 12 instead of scaled again: rounded twice
            (
                "e++;\n        if (!nearest(a, DIGITS - 1 - e, digits))\n            return 0;",
                "e++;\n        *digits /= 10;",
            ),
        ],
        ids=["ties-half-up", "signed-nan", "trailing-zeros", "pair-table-off-by-one",
             "half-rounded-up", "no-retry", "carry-only", "digits-over-ten"],
    )
    def test_known_answer_check_rejects_a_mutant_rows(self, statement, mutant, tmp_path):
        if _native.compiled().rows is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, [(statement, mutant)])
        # the mutant's march, fit, front and sine alone pass: the formatter,
        # which the rows and the snapshot share, is what fails the check
        assert _native._matches_python(mutant._replace(rows=None, snapshot=None))
        assert not _native._matches_python(mutant)

    @pytest.mark.parametrize(
        "statement, mutant",
        [
            # exp(-eta) taken as the reciprocal of exp(eta)
            ("e = exp(-eta);", "e = 1.0 / exp(eta);"),
            # the front's position summed before it is subtracted
            (
                "eta = alpha * (x[i] - mu_t - gamma) / lam;",
                "eta = alpha * (x[i] - (mu_t + gamma)) / lam;",
            ),
        ],
        ids=["reciprocal-exp", "regrouped-eta"],
    )
    def test_known_answer_check_rejects_a_mutant_front(self, statement, mutant, tmp_path):
        if _native.compiled().front is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, [(statement, mutant)])
        # the mutant's march, fit and rows alone pass: the front is what fails the check
        assert _native._matches_python(mutant._replace(front=None))
        assert not _native._matches_python(mutant)

    @pytest.mark.parametrize(
        "replacements",
        [
            # s e multiplied first
            [
                (
                    "num[i] += jr[j] * s[j * n + i] * e[j];",
                    "num[i] += jr[j] * (s[j * n + i] * e[j]);",
                ),
            ],
            # the denominator summed from 0.0, with its 1.0 added last
            [
                ("den[i] = 1.0;", "den[i] = 0.0;"),
                (
                    "out[i] = scale * num[i] / den[i];",
                    "out[i] = scale * num[i] / (den[i] + 1.0);",
                ),
            ],
            # the terms added from the last down
            [("for (j = 0; j < terms; j++)\n", "for (j = terms - 1; j >= 0; j--)\n")],
        ],
        ids=["regrouped-term", "one-added-last", "descending-j"],
    )
    def test_known_answer_check_rejects_a_mutant_sine(self, replacements, tmp_path):
        if _native.compiled().sine is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, replacements)
        # the mutant's other entry points alone pass: the sine is what fails the check
        assert _native._matches_python(mutant._replace(sine=None))
        assert not _native._matches_python(mutant)

    @pytest.mark.parametrize(
        "replacements",
        [
            # x reduced to one period first, as np.fmod(x, 2) would
            [
                (
                    "angle = 3.141592653589793 * x[i];",
                    "angle = 3.141592653589793 * fmod(x[i], 2.0);",
                ),
            ],
            # the single-precision sine
            [("out[i] = sin(angle);", "out[i] = sinf(angle);")],
            # an infinite angle written as NaN, not reported
            [("if (isinf(angle))\n            return i;\n", "")],
        ],
        ids=["period-reduced", "sinf", "unreported-inf"],
    )
    def test_known_answer_check_rejects_a_mutant_pulse(self, replacements, tmp_path):
        if _native.compiled().pulse is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, replacements)
        # the mutant's other entry points alone pass: the pulse is what fails the check
        assert _native._matches_python(mutant._replace(pulse=None))
        assert not _native._matches_python(mutant)

    def test_zero_term_sine_row_rejects_a_mutant_pulse_alone(self, tmp_path, monkeypatch):
        # sinf, not fmod(x, 2): every knot of the sine case lies in [0, 1],
        # which the period reduction leaves as it is
        if _native.compiled().pulse is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, [("out[i] = sin(angle);", "out[i] = sinf(angle);")])
        monkeypatch.setattr(_native, "_known_answer_pulses", lambda: [])
        # the t = 0 row of the sine case is the compiled pulse of the mutant
        assert _native._matches_python(mutant._replace(pulse=None))
        assert not _native._matches_python(mutant)


    @pytest.mark.parametrize(
        "replacements",
        [
            # |U - exact| without its fabs
            [("err = fabs(u[i] - ue[i]);", "err = u[i] - ue[i];")],
            # U and the exact value swapped
            [
                (
                    "p = put(p, u[i], du);\n        *p++ = ',';\n        p = put(p, ue[i], de);",
                    "p = put(p, ue[i], de);\n        *p++ = ',';\n        p = put(p, u[i], du);",
                ),
            ],
            # the knot line of row i + 1, and of row 0 in the last row: the
            # walk skips row 0 first and goes back to it at the end
            [
                (
                    "while (*k != '\\n')\n",
                    "if (i == 0)\n"
                    "            while (*k++ != '\\n')\n"
                    "                ;\n"
                    "        if (i + 1 == n)\n"
                    "            k = knot_rows;\n"
                    "        while (*k != '\\n')\n",
                ),
            ],
            # the t field dropped
            [
                (
                    "k++;\n        memcpy(p, t_text, t_len);\n        p += t_len;\n",
                    "k++;\n",
                ),
            ],
            # the knot row's newline copied into the row
            [("*p++ = *k++;\n        k++;", "*p++ = *k++;\n        *p++ = *k++;")],
        ],
        ids=["no-fabs", "swapped-values", "next-knot", "no-t", "keeps-newline"],
    )
    def test_known_answer_check_rejects_a_mutant_snapshot(self, replacements, tmp_path):
        if _native.compiled().snapshot is None:
            pytest.skip("no compiled library on this machine")
        mutant = compile_mutant(tmp_path, replacements)
        # the mutant's other entry points alone pass: the snapshot is what fails the check
        assert _native._matches_python(mutant._replace(snapshot=None))
        assert not _native._matches_python(mutant)

    @pytest.mark.parametrize(
        "entry, caller, arg",
        [
            # every time's row written into the first
            ("front", (exact, "_front_rows"), -1),
            # every time's factors read from the first time's
            ("sine", (exact, "_sine_rows"), 3),
            # every time's row written into the first
            ("sine", (exact, "_sine_rows"), -1),
            # every file's exact values read from the first file's
            ("snapshot", (csvtext, "_snapshot_files"), 2),
        ],
        ids=["front-rows", "sine-factors", "sine-rows", "snapshot-exact"],
    )
    def test_known_answer_check_rejects_an_entry_point_that_ignores_the_time(
        self, entry, caller, arg, monkeypatch
    ):
        compiled = _native.compiled()
        if compiled.march is None:
            pytest.skip("no compiled library on this machine")
        # the pointer the first call of each caller's pass got; the caller is
        # wrapped so that every pass starts afresh and no pointer outlives
        # its buffer
        first = {}
        module, name = caller
        pass_of = getattr(module, name)

        def fresh(*args):
            first.clear()
            return pass_of(*args)

        monkeypatch.setattr(module, name, fresh)
        native = getattr(compiled, entry)

        def ignores_the_time(*args):
            args = list(args)
            args[arg] = first.setdefault(arg, args[arg])
            return native(*args)

        assert _native._matches_python(compiled)
        assert not _native._matches_python(compiled._replace(**{entry: ignores_the_time}))


class TestAddress:
    """``_native.address`` is ``ndarray.ctypes.data`` of a C-contiguous
    array, and raises for any other."""

    block = np.arange(24.0).reshape(4, 6)

    @pytest.mark.parametrize(
        "a",
        [
            np.arange(40.0),
            np.arange(40.0)[3:],
            block[2],
            block[1:3],
            np.zeros(5, dtype=np.uint8)[1:],
            np.arange(3, dtype=np.int64),
            np.array(2.5),
        ],
        ids=["array", "offset-view", "row", "rows", "bytes", "int64", "0-d"],
    )
    def test_writable_array_is_its_data_pointer(self, a):
        assert a.flags.writeable and a.flags.c_contiguous
        assert _native.address(a) == a.ctypes.data

    def test_offset_view_points_past_the_skipped_elements(self):
        a = np.arange(40.0)
        assert _native.address(a[3:]) == _native.address(a) + 3 * 8
        assert _native.address(self.block[2]) == _native.address(self.block) + 2 * 6 * 8

    @pytest.mark.parametrize(
        "a",
        [np.arange(40.0)[::2], block[:, 1], block[:, 1:3], np.asfortranarray(block)],
        ids=["strided", "column", "columns", "fortran"],
    )
    @pytest.mark.parametrize("writeable", [True, False])
    def test_non_contiguous_array_raises(self, a, writeable):
        a = a.view()
        a.flags.writeable = writeable
        with pytest.raises(ValueError, match="not C-contiguous"):
            _native.address(a)

    def test_read_only_array_takes_ctypes_data(self):
        a = np.arange(40.0)[3:]
        a.flags.writeable = False
        assert _native.address(a) == a.ctypes.data
        s, c = exact._trig_table(np.linspace(0.0, 1.0, 11).tobytes(), 5)
        assert (_native.address(s), _native.address(c)) == (s.ctypes.data, c.ctypes.data)

    @pytest.mark.parametrize(
        "a", [np.empty(0), np.arange(40.0)[5:5], np.empty((3, 0)), np.empty((0, 4))],
        ids=["empty", "empty-view", "no-columns", "no-rows"],
    )
    def test_empty_array_takes_ctypes_data(self, a):
        assert _native.address(a) == a.ctypes.data


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("n_cells", [8, 12, 16])
    def test_single_step_matches_dense_solve(self, n_cells):
        p = sine_problem(0.1, n_cells, 1e-3)
        part, sc = setup(p)
        c = initialize_coefficients(p, part, sc)
        stepped = advance(c, p, sc)
        oracle = dense_one_step_oracle(c.delta, p, sc)
        assert np.max(np.abs(stepped.delta - oracle)) < 1e-10


class TestConvergence:
    def test_spatial_refinement_monotone(self):
        errs = []
        for n in (10, 20, 40):
            p = sine_problem(1.0, n, 1e-5)
            u = solve_to_time(p, p.partition(), 0.1, [0.1])[0.1].u
            exact = np.array(
                [sine_wave_exact(i / n, 0.1, 1.0) for i in range(n + 1)]
            )
            errs.append(np.max(np.abs(u - exact)))
        assert errs[0] > errs[1] > errs[2]

    def test_time_step_halving_reduces_error(self):
        # against a 100x finer reference, so the spatial error cancels
        n, lam, t_end = 40, 0.1, 0.1
        ref_p = sine_problem(lam, n, 1e-5)
        u_ref = solve_to_time(ref_p, ref_p.partition(), t_end, [t_end])[t_end].u
        errs = []
        for dt in (2e-3, 1e-3):
            p = sine_problem(lam, n, dt)
            u = solve_to_time(p, p.partition(), t_end, [t_end])[t_end].u
            errs.append(np.max(np.abs(u - u_ref)))
        assert 1.5 <= errs[0] / errs[1] <= 4.5


class TestSolveToTime:
    def test_zero_horizon_returns_initial_state(self):
        p = sine_problem(1.0, 10, 1e-3)
        states = solve_to_time(p, p.partition(), 0.0)
        assert list(states) == [0.0]
        assert states[0.0].u[5] == pytest.approx(1.0, abs=1e-12)

    def test_sample_at_zero_and_later(self):
        p = sine_problem(1.0, 10, 1e-3)
        states = solve_to_time(p, p.partition(), 0.01, [0.0, 0.01])
        assert set(states) == {0.0, 0.01}

    def test_misaligned_sample_time_rejected(self):
        p = sine_problem(1.0, 10, 1e-3)
        with pytest.raises(ValueError, match="multiple of dt"):
            solve_to_time(p, p.partition(), 0.01, [0.0005])

    def test_sample_beyond_horizon_rejected(self):
        p = sine_problem(1.0, 10, 1e-3)
        with pytest.raises(ValueError, match="beyond"):
            solve_to_time(p, p.partition(), 0.01, [0.02])

    def test_negative_sample_time_rejected(self):
        p = sine_problem(1.0, 10, 1e-2)
        with pytest.raises(ValueError, match=r"time -0\.01 is before"):
            solve_to_time(p, p.partition(), 0.02, [-0.01, 0.02])

    def test_negative_horizon_rejected(self):
        p = sine_problem(1.0, 10, 1e-2)
        with pytest.raises(ValueError, match=r"time -0\.01 is before"):
            solve_to_time(p, p.partition(), -0.01)

    @pytest.mark.parametrize(
        "t_end, message",
        [(-0.5, r"time -0\.5 is before"), (math.inf, "finite"), (math.nan, "finite")],
        ids=["-0.5", "inf", "nan"],
    )
    def test_rejects_unmarchable_horizon(self, t_end, message):
        p = constant_problem(0.0)
        with pytest.raises(ValueError, match=message):
            solve_to_time(p, p.partition(), t_end)

    def test_colliding_sample_times_rejected(self):
        # distinct times that round to the same step must not merge silently
        p = sine_problem(1.0, 10, 1e-4)
        with pytest.raises(ValueError, match=r"0\.0004 and 0\.00040000000001"):
            solve_to_time(p, p.partition(), 0.001, [0.0004, 0.00040000000001])

    def test_equal_sample_times_rejected_before_the_fit(self, monkeypatch):
        # one state for two requested times would drop a sample silently
        def fail(*a, **k):
            raise AssertionError("reached the fit")

        monkeypatch.setattr(scheme, "initialize_coefficients", fail)
        p = sine_problem(1.0, 10, 1e-4)
        with pytest.raises(ValueError, match=r"0\.0004 and 0\.0004 both fall on step 4"):
            solve_to_time(p, p.partition(), 0.001, [0.0004, 0.001, 0.0004])
        with pytest.raises(ValueError, match=r"0\.0 and 0\.0 both fall on step 0"):
            solve_to_time(p, p.partition(), 0.001, [-0.0, 0.0])
        # no sample time at all would march the whole run for nothing
        with pytest.raises(ValueError, match="no sample time given"):
            solve_to_time(p, p.partition(), 0.001, [])

    @pytest.mark.parametrize("finisher", ["native", "python"])
    def test_non_finite_state_raises_at_the_first_sample(self, finisher, library, monkeypatch):
        # the march stops at the first sample time whose U is not finite
        if finisher == "python":
            library(_native._PYTHON)
        marches = []
        march = _StepKernel.march

        def blown_up(kernel, steps):
            marches.append(steps)
            march(kernel, steps)
            if len(marches) == 2:
                kernel.delta[3] = np.nan

        monkeypatch.setattr(_StepKernel, "march", blown_up)
        p = sine_problem(1.0, 10, 1e-3)
        with pytest.raises(FloatingPointError, match=r"non-finite solution at t=0\.002$"):
            solve_to_time(p, p.partition(), 0.01, [0.001, 0.002, 0.005])
        assert marches == [1, 1]

    def test_end_knot_curvature_changes_sign_on_every_step(self):
        # Crank-Nicolson solves the end rows' constraint with amplification
        # -1: U_xx at both ends flips sign on each step around an exact 0,
        # while U there stays the boundary value
        p = sine_problem(1.0, 10, 1e-5)
        times = [k * 1e-5 for k in range(1, 7)]
        states = solve_to_time(p, p.partition(), times[-1], times)
        for end in (0, -1):
            uxx = [states[t].uxx[end] for t in times]
            assert uxx == pytest.approx([4.48e-3, -4.48e-3] * 3, rel=1e-3)
        for t in times:
            assert np.abs(states[t].u[[0, -1]]).max() <= 1e-15

    def test_nonfinite_sample_time_rejected(self):
        p = sine_problem(1.0, 10, 1e-3)
        with pytest.raises(ValueError, match="finite"):
            solve_to_time(p, p.partition(), 0.001, [math.inf])

    def test_step_count_overflow_rejected(self):
        # 1e300 / 1e-10 is inf: no step index exists for it
        p = sine_problem(1.0, 10, 1e-10)
        with pytest.raises(ValueError, match=r"time 1e\+300 .*dt=1e-10"):
            solve_to_time(p, p.partition(), 1e300)

    def test_cell_step_cap(self, monkeypatch):
        def fail(*a, **k):
            raise AssertionError("reached the fit")

        monkeypatch.setattr(scheme, "initialize_coefficients", fail)
        # 11 knots: 10**11 // 11 steps fit under the cap, one more does not
        p = sine_problem(1.0, 10, 1.0)
        with pytest.raises(ValueError, match=r"9090909091 steps of 11 knots exceed the cap"):
            solve_to_time(p, p.partition(), float(scheme.MAX_CELL_STEPS // 11 + 1))
        with pytest.raises(AssertionError, match="reached the fit"):
            solve_to_time(p, p.partition(), float(scheme.MAX_CELL_STEPS // 11))

    def test_mismatched_partition_rejected(self):
        p = sine_problem(1.0, 10, 1e-3)
        with pytest.raises(ValueError, match="partition"):
            solve_to_time(p, UniformPartition(0.0, 1.0, 12), 0.0)

    def test_replaced_time_step_drives_the_march(self):
        # a copy with another dt marches on its own step grid: 0.0005 is a
        # step of dt=1e-4 but not of dt=1e-3
        p = sine_problem(1.0, 10, 1e-3)
        q = replace(p, dt=1e-4)
        assert q.lam == p.lam
        states = solve_to_time(q, q.partition(), 0.001, [0.0005, 0.001])
        direct = sine_problem(1.0, 10, 1e-4)
        expected = solve_to_time(direct, direct.partition(), 0.001, [0.0005, 0.001])
        assert list(states) == [0.0005, 0.001]
        for t in states:
            npt.assert_array_equal(states[t].u, expected[t].u)

    @pytest.mark.parametrize("finisher", ["native", "python"])
    @pytest.mark.parametrize(
        "t_end, sample_times, marches",
        [
            (0.1, [0.05, 0.1], [50, 50]),
            (0.1, [0.0, 0.05, 0.1], [50, 50]),
            (0.1, [0.05], [50, 50]),
            (0.0, [0.0], []),
        ],
        ids=["ends-on-t_end", "starts-at-zero", "t_end-after-last", "no-steps"],
    )
    def test_every_march_takes_a_step(
        self, finisher, t_end, sample_times, marches, library, monkeypatch
    ):
        # a spy on each finisher's march: the compiled entry point, or the
        # kernel's march on the Python path
        steps = []
        if finisher == "native":
            compiled = _native.compiled()
            if compiled.march is None:
                pytest.skip("no compiled library on this machine")

            def spy(*args):
                steps.append(args[-1])
                return compiled.march(*args)

            library(compiled._replace(march=spy))
        else:
            library(_native._PYTHON)
            march = _StepKernel.march

            def spy(kernel, n):
                steps.append(n)
                return march(kernel, n)

            monkeypatch.setattr(_StepKernel, "march", spy)
        p = sine_problem(0.1, 40, 1e-3)
        states = solve_to_time(p, p.partition(), t_end, sample_times)
        assert steps == marches
        assert list(states) == sample_times


class TestProblemSpecValidation:
    def test_rejects_nonpositive_viscosity(self):
        with pytest.raises(ValueError, match="lambda"):
            replace(constant_problem(0.0), lam=-1.0).validate()

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            replace(constant_problem(0.0), dt=0.0).validate()

    @pytest.mark.parametrize(
        "field", ["lam", "dt", "a", "b", "boundary_left", "boundary_right"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_nonfinite_parameters(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(constant_problem(0.0), **{field: value}).validate()

    def test_rejects_incompatible_boundary(self):
        with pytest.raises(ValueError, match="boundary_left"):
            replace(constant_problem(0.0), boundary_left=1.0).validate()

    def test_rejects_nan_initial_condition(self):
        # a NaN gap compares false against any tolerance; a 0-d array is a
        # scalar too, and stands for a constant
        for nan in (math.nan, np.asarray(math.nan)):
            nan_ic = replace(constant_problem(0.0), initial_condition=lambda x: nan)
            with pytest.raises(ValueError, match="boundary_left"):
                nan_ic.validate()

    def test_traveling_compatibility_is_relaxed_by_construction(self):
        # exact front at t=0 reaches only ~0.99465 at x=0 while the
        # benchmark clamps the boundary at 1; the factory must accept this
        traveling_problem(0.01, 36, 1e-3).validate()

    @pytest.mark.parametrize("factory", [sine_problem, traveling_problem])
    def test_initial_condition_is_one_call_on_both_ends(self, factory):
        p = factory(0.01, 36, 1e-3)
        calls = []

        def spy(x):
            calls.append(x)
            return p.initial_condition(x)

        replace(p, initial_condition=spy).validate()
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray) and calls[0].tolist() == [p.a, p.b]

    def test_right_end_of_an_array_is_checked(self):
        step = lambda x: np.where(x > 0.5, 1.0, 0.0)
        message = "boundary_right: |IC(1.0) - 0.0| = 1.000e+00 > 1.0e-10"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(constant_problem(0.0), initial_condition=step).validate()


class TestProblemValue:
    """A factory-built problem is a value: ``replace`` rebinds its λ and
    equal arguments give equal problems."""

    @pytest.mark.parametrize("factory", [sine_problem, traveling_problem])
    @pytest.mark.parametrize("lam", [1.0, 0.1, 0.01, 0.005])
    def test_replaced_viscosity_is_the_fresh_problem(self, factory, lam):
        fresh = factory(lam, 40, 1e-3)
        got = replace(factory(1.0, 40, 1e-3), lam=lam)
        assert got == fresh
        xs = np.linspace(0.0, 1.0, 41)
        # the sine series keeps its accuracy over the whole column at these
        # times for every lam here; at lam = 0.005 it raises for t in 0.1-0.5
        for t in (0.0, 1.0):
            assert bits(got.exact(xs, t)) == bits(fresh.exact(xs, t))
        for x, t in ((0.25, 0.05), (0.3, 0.4), (0.5, 0.5)):
            assert bits(got.exact(x, t)) == bits(fresh.exact(x, t))
            assert bits(got.initial_condition(x)) == bits(fresh.initial_condition(x))
            assert bits(got.initial_derivative(x)) == bits(fresh.initial_derivative(x))

    def test_front_slope_is_no_column_of_values(self):
        # the slope once inherited the front's columns, which gave U, not U_x
        assert not hasattr(traveling_problem(0.01, 36, 1e-3).initial_derivative, "columns")

    @pytest.mark.parametrize("factory", [sine_problem, traveling_problem])
    def test_equal_arguments_give_equal_problems(self, factory):
        first, second = factory(0.1, 40, 1e-3), factory(0.1, 40, 1e-3)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != factory(0.01, 40, 1e-3)

    @pytest.mark.parametrize("lam", [0.5, math.nan])
    def test_plain_callables_pass_through(self, lam):
        p = replace(constant_problem(0.25), exact=lambda x, t: 0.25)
        got = replace(p, lam=lam)
        assert got.initial_condition is p.initial_condition
        assert got.initial_derivative is p.initial_derivative
        assert got.exact is p.exact
