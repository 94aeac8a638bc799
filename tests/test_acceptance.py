"""Acceptance suite: benchmark-table reproduction and scheme properties.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (run with
``pytest -s tests/test_acceptance.py`` to see them as they complete).
"""

import math

import numpy as np
import pytest

from ctburgers import reference as ref
from ctburgers.basis import UniformPartition, ctb_deriv, ctb_eval, knot_coefficients
from ctburgers.exact import (
    SeriesControl,
    bessel_i,
    sine_wave_exact,
    traveling_wave_exact,
)
from ctburgers.problems import sine_problem, traveling_problem
from ctburgers.scheme import (
    advance,
    initialize_coefficients,
    nodal_values,
    solve_to_time,
)
from test_scheme import constant_problem, dense_one_step_oracle


def report(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {desc}{tail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sine_states():
    """The three canonical sine runs (N=40, dt=1e-4, out to t=3)."""
    out = {}
    for lam in (1.0, 0.1, 0.01):
        p = sine_problem(lam, 40, 1e-4)
        out[lam] = solve_to_time(p, p.partition(), 3.0, list(ref.SINE_TIMES))
    return out


def max_cell_dev(states, present):
    return max(
        abs(float(states[t].u[round(x * 40)]) - v) for (x, t), v in present.items()
    )


def test_criterion_1_table2(sine_states):
    dev = max_cell_dev(sine_states[1.0], ref.TABLE2_PRESENT)
    report(
        1,
        "table2 (sine, lam=1): 15 published cells within 2e-5",
        dev <= ref.SINE_TOL,
        f"max dev {dev:.2e}",
    )


def test_criterion_2_table3(sine_states):
    dev = max_cell_dev(sine_states[0.1], ref.TABLE3_PRESENT)
    report(
        2,
        "table3 (sine, lam=0.1): 15 published cells within 2e-5",
        dev <= ref.SINE_TOL,
        f"max dev {dev:.2e}",
    )


def test_criterion_3_table4(sine_states):
    dev = max_cell_dev(sine_states[0.01], ref.TABLE4_PRESENT)
    ok = dev <= ref.SINE_TOL
    # the printed exact column carries one misprint; elsewhere the series
    # oracle must agree with it, and on the misprinted cell the solver is
    # compared against the oracle instead
    oracle_dev = 0.0
    for (x, t), printed in ref.TABLE4_EXACT.items():
        oracle = sine_wave_exact(x, t, 0.01)
        if (x, t) == ref.TABLE4_EXACT_MISPRINT:
            ours = float(sine_states[0.01][t].u[round(x * 40)])
            ok &= abs(ours - oracle) <= ref.SINE_TOL
            ok &= abs(printed - oracle) > 0.03  # documents the misprint
        else:
            oracle_dev = max(oracle_dev, abs(oracle - printed))
    ok &= oracle_dev <= ref.SINE_TOL
    report(
        3,
        "table4 (sine, lam=0.01): cells within 2e-5, misprinted exact cell "
        "checked against the series oracle",
        ok,
        f"max dev {dev:.2e}, exact-column dev {oracle_dev:.2e}",
    )


def test_criterion_4_table5():
    passing = []
    devs = {}
    for dt in ref.TABLE5_DTS:
        p = traveling_problem(0.01, ref.TABLE5_N_CELLS, dt)
        u = solve_to_time(p, p.partition(), ref.TABLE5_TIME, [ref.TABLE5_TIME])[
            ref.TABLE5_TIME
        ].u
        devs[dt] = max(
            abs(float(u[2 * i]) - ref.TABLE5_PRESENT[i]) for i in range(19)
        )
        if devs[dt] <= ref.TRAVELING_TOL:
            passing.append(dt)
    report(
        4,
        "table5 (traveling, lam=0.01, h=1/36): 19 cells at 3 decimals for "
        "at least one published dt",
        len(passing) >= 1,
        f"passing dt {passing}, devs "
        + ", ".join(f"dt={k}: {v:.1e}" for k, v in devs.items()),
    )


def test_criterion_5_exact_solution_self_tests():
    # traveling wave satisfies the PDE pointwise (finite differences)
    lam, s = 0.1, 1e-5
    rng = np.random.default_rng(23)
    pde_res = 0.0
    for _ in range(50):
        x, t = rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.0)
        u = lambda xx, tt: traveling_wave_exact(xx, tt, 0.4, 0.6, 0.125, lam)
        ut = (u(x, t + s) - u(x, t - s)) / (2 * s)
        ux = (u(x + s, t) - u(x - s, t)) / (2 * s)
        uxx = (u(x + s, t) - 2 * u(x, t) + u(x - s, t)) / s**2
        pde_res = max(pde_res, abs(ut + u(x, t) * ux - lam * uxx))
    ok = pde_res < 1e-5
    # modified-Bessel three-term recurrence
    rec_dev = 0.0
    for z in (0.5, 2.0, 7.5, 15.0, 30.0):
        for j in range(1, 21):
            lhs = bessel_i(j - 1, z) - bessel_i(j + 1, z)
            rhs = 2.0 * j / z * bessel_i(j, z)
            if rhs != 0.0:
                rec_dev = max(rec_dev, abs(lhs - rhs) / abs(rhs))
    ok &= rec_dev <= 1e-10
    # series truncation stability
    trunc_dev = 0.0
    # a tighter tolerance sums more terms; a larger max_terms alone would not
    ctl, tighter = SeriesControl(), SeriesControl(abs_tol=1e-15)
    for lam_, t_ in ((1.0, 0.4), (0.01, 0.6), (0.01, 3.0)):
        trunc_dev = max(
            trunc_dev,
            abs(
                sine_wave_exact(0.3, t_, lam_, ctl)
                - sine_wave_exact(0.3, t_, lam_, tighter)
            ),
        )
    ok &= trunc_dev < ctl.abs_tol
    report(
        5,
        "exact-solution self-tests: PDE residual < 1e-5, Bessel recurrence "
        "1e-10, truncation stability 1e-12",
        ok,
        f"residual {pde_res:.1e}, recurrence {rec_dev:.1e}, truncation {trunc_dev:.1e}",
    )


def test_criterion_6_brute_force_equivalence():
    worst = 0.0
    for n_cells in (8, 12, 16):
        p = sine_problem(0.1, n_cells, 1e-3)
        part = p.partition()
        sc = knot_coefficients(part.h)
        c = initialize_coefficients(p, part, sc)
        stepped = advance(c, p, sc)
        oracle = dense_one_step_oracle(c.delta, p, sc)
        worst = max(worst, float(np.max(np.abs(stepped.delta - oracle))))
    report(
        6,
        "one production step equals the dense full-system solve (N <= 16)",
        worst <= 1e-10,
        f"max diff {worst:.2e}",
    )


def one_sided_d2(f, x0, step, sign):
    v = [f(x0 + sign * k * step) for k in range(4)]
    return (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / step**2


def test_criterion_7_property_suite():
    details = []
    # boundary preservation over 1e4 steps
    p = sine_problem(0.1, 40, 1e-4)
    part = p.partition()
    sc = knot_coefficients(part.h)
    c = initialize_coefficients(p, part, sc)
    bdev = 0.0
    for _ in range(10_000):
        c = advance(c, p, sc)
        u = nodal_values(c, sc).u
        bdev = max(bdev, abs(float(u[0])), abs(float(u[-1])))
    ok = bdev <= 1e-9
    details.append(f"boundary {bdev:.1e}")
    # constant-state fixed point, per step
    pc = constant_problem(0.5, lam=1.0, dt=1e-4)
    cc = initialize_coefficients(pc, part, sc)
    prev = nodal_values(cc, sc).u
    cdev = 0.0
    for _ in range(200):
        cc = advance(cc, pc, sc)
        cur = nodal_values(cc, sc).u
        cdev = max(cdev, float(np.max(np.abs(cur - prev))))
        prev = cur
    ok &= cdev <= 1e-12
    details.append(f"constant {cdev:.1e}")
    # C2 continuity of the basis at its junctions
    rng = np.random.default_rng(17)
    jdev = 0.0
    for h in [0.025, 1.0 / 36.0] + list(10 ** rng.uniform(-2, 0, size=6)):
        ph = UniformPartition(0.0, 5 * h, 5)
        for j in (1, 2, 3):
            xj = ph.knot(j)
            xl, xr = np.nextafter(xj, -np.inf), np.nextafter(xj, np.inf)
            jdev = max(jdev, abs(ctb_eval(2, xl, ph) - ctb_eval(2, xr, ph)))
            for order in (1, 2):
                jdev = max(
                    jdev, abs(ctb_deriv(2, xl, ph, order) - ctb_deriv(2, xr, ph, order))
                )
    ok &= jdev <= 1e-10
    details.append(f"C2 {jdev:.1e}")
    # published knot-value formulas for T and T' at 10 random h
    kdev = 0.0
    for seed in range(10):
        h = 10 ** np.random.default_rng(seed).uniform(math.log10(0.01), 0.0)
        ph = UniformPartition(0.0, 5 * h, 5)
        schh = knot_coefficients(h)
        beta2 = 0.75 / math.sin(1.5 * h)
        for x, order, want in (
            (ph.knot(1), 0, schh.alpha1),
            (ph.knot(2), 0, schh.alpha2),
            (ph.knot(3), 0, schh.alpha1),
            (ph.knot(1), 1, beta2),
            (ph.knot(3), 1, -beta2),
        ):
            got = ctb_eval(2, x, ph) if order == 0 else ctb_deriv(2, x, ph, order)
            kdev = max(kdev, abs(got - want) / abs(want))
    ok &= kdev <= 1e-12
    details.append(f"knot-table {kdev:.1e}")
    # center second-derivative constant against the differentiation oracle
    gdev = 0.0
    for h in (0.025, 1.0 / 36.0):
        ph = UniformPartition(0.0, 5 * h, 5)
        f = lambda x: ctb_eval(2, x, ph)
        oracle = 0.5 * (
            one_sided_d2(f, ph.knot(2), 1e-5, -1.0)
            + one_sided_d2(f, ph.knot(2), 1e-5, +1.0)
        )
        gdev = max(gdev, abs(knot_coefficients(h).gamma2 - oracle) / abs(oracle))
    ok &= gdev <= 1e-6
    details.append(f"gamma2 {gdev:.1e}")
    report(
        7,
        "property suite: boundary 1e-9/step x 1e4, constant state 1e-12/step, "
        "basis C2 1e-10, knot formulas 1e-12, gamma2 oracle 1e-6",
        ok,
        ", ".join(details),
    )


def march_tracking_shape(p, n_steps):
    part = p.partition()
    sc = knot_coefficients(part.h)
    c = initialize_coefficients(p, part, sc)
    peak0 = float(np.max(np.abs(nodal_values(c, sc).u)))
    overshoot = 0.0
    for _ in range(n_steps):
        c = advance(c, p, sc)
        overshoot = max(
            overshoot, float(np.max(nodal_values(c, sc).u)) - peak0
        )
    s = nodal_values(c, sc)
    steep_x = part.knot(int(np.argmax(np.abs(s.ux))))
    return overshoot / peak0, steep_x, float(np.max(np.abs(s.ux)))


def test_criterion_8_qualitative_figures():
    details = []
    ok = True
    # small-viscosity sine runs steepen toward the right boundary without
    # overshooting; lam=0.001 needs a front-resolving mesh (at N=40 the
    # cell size is 25x the front width and any collocation scheme rings)
    for lam, n_cells in ((0.01, 40), (0.001, 400)):
        p = sine_problem(lam, n_cells, 1e-4)
        over, steep_x, steep = march_tracking_shape(p, 5000)
        ok &= over <= 0.05
        ok &= steep_x >= 0.9
        ok &= steep > 2.0 * math.pi  # initial max slope is pi
        details.append(
            f"sine lam={lam}, N={n_cells}: overshoot {100 * over:.2f}%, "
            f"steepest at x={steep_x:.3f}"
        )
    # traveling front tracks x = mu t + gamma to within one cell
    for lam in (0.01, 0.005):
        p = traveling_problem(lam, 36, 1e-3)
        states = solve_to_time(p, p.partition(), 1.2, [0.4, 0.8, 1.2])
        worst_cells = 0.0
        for t, state in states.items():
            u = state.u
            (idx,) = np.where(np.diff(np.sign(u - 0.6)))
            i = int(idx[0])
            frac = (0.6 - u[i]) / (u[i + 1] - u[i])
            x_front = (i + frac) / 36.0
            worst_cells = max(worst_cells, abs(x_front - (0.6 * t + 0.125)) * 36.0)
        ok &= worst_cells <= 1.0
        details.append(f"front lam={lam}: off by {worst_cells:.2f} cells")
    report(
        8,
        "qualitative figure checks: steepening without >5% overshoot; front "
        "within one cell of mu*t+gamma",
        ok,
        "; ".join(details),
    )
