"""Error-report and table-rendering tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ctburgers.basis import UniformPartition
from ctburgers.exact import sine_wave_exact, traveling_wave_exact
from ctburgers.metrics import error_norms, table_report
from ctburgers.problems import sine_problem, traveling_problem
from ctburgers.scheme import NodalState, solve_to_time
from test_scheme import constant_problem


def state_from(u):
    u = np.asarray(u, dtype=float)
    return NodalState(u=u, ux=np.zeros_like(u), uxx=np.zeros_like(u))


class TestErrorNorms:
    def test_exact_agreement_gives_zero_norms(self):
        part = UniformPartition(0.0, 1.0, 4)
        f = lambda x, t: x * x
        rep = error_norms(state_from([part.knot(i) ** 2 for i in range(5)]), f, 0.3, part)
        assert rep.l_inf == 0.0
        assert rep.l2 == 0.0
        assert all(r[4] == 0.0 for r in rep.pointwise)

    def test_norm_definitions(self):
        part = UniformPartition(0.0, 1.0, 4)
        rep = error_norms(state_from([0.0, 0.1, -0.2, 0.05, 0.0]), lambda x, t: 0.0, 0.0, part)
        errs = np.array([0.0, 0.1, 0.2, 0.05, 0.0])
        assert rep.l_inf == pytest.approx(0.2)
        assert rep.l2 == pytest.approx(math.sqrt(0.25 * float(np.sum(errs**2))))
        assert rep.l_inf == max(r[4] for r in rep.pointwise)

    def test_l2_bounded_by_scaled_linf(self):
        rng = np.random.default_rng(5)
        part = UniformPartition(0.0, 2.0, 10)
        for _ in range(20):
            rep = error_norms(
                state_from(rng.uniform(-1, 1, 11)), lambda x, t: 0.0, 0.0, part
            )
            assert rep.l2 <= math.sqrt(part.b - part.a) * rep.l_inf + 1e-15

    def test_sine_run_pointwise_error_bound(self):
        # five-decimal agreement in the published table corresponds to a
        # few 1e-5 of pointwise error here
        p = sine_problem(1.0, 40, 1e-4)
        states = solve_to_time(p, p.partition(), 0.4, [0.4])
        rep = error_norms(
            states[0.4], lambda x, t: sine_wave_exact(x, t, 1.0), 0.4, p.partition()
        )
        assert rep.l_inf <= 3e-5

    def test_error_profile_peaks_at_the_front(self):
        p = traveling_problem(0.01, 36, 1e-3)
        states = solve_to_time(p, p.partition(), 0.4, [0.4])
        rep = error_norms(states[0.4], p.exact, 0.4, p.partition())
        errs = [r[4] for r in rep.pointwise]
        peak_x = rep.pointwise[int(np.argmax(errs))][0]
        front = 0.6 * 0.4 + 0.125
        assert abs(peak_x - front) <= 2.0 / 36.0


class TestExactColumns:
    @pytest.mark.parametrize("factory", [sine_problem, traveling_problem])
    def test_column_equals_points(self, factory):
        fn = factory(0.01, 36, 1e-3).exact
        xs = np.linspace(0.0, 1.0, 37)
        col = fn(xs, 0.4)
        assert isinstance(col, np.ndarray)
        assert col.tolist() == [fn(x, 0.4) for x in xs.tolist()]

    def test_traveling_exact_uses_the_factory_constants(self):
        p = traveling_problem(0.01, 36, 1e-3, alpha=0.3, mu=0.5, gamma=0.2)
        assert p.exact(0.4, 0.2) == traveling_wave_exact(0.4, 0.2, 0.3, 0.5, 0.2, 0.01)
        assert p.exact(0.4, 0.2) != traveling_problem(0.01, 36, 1e-3).exact(0.4, 0.2)

    @pytest.mark.parametrize("factory, lam", [(sine_problem, 0.1), (traveling_problem, 0.01)])
    def test_one_exact_pass_for_a_factory(self, factory, lam, monkeypatch):
        # a factory's exact gives every time in one columns pass, with the
        # bytes of one call per time and of one call per cell
        p = factory(lam, 40, 1e-3)
        part = p.partition()
        states = solve_to_time(p, part, 0.003, [0.001, 0.002, 0.003])
        fn = p.exact
        per_cell = per_cell_table(states, [0.25, 0.5, 0.75], fn, part)
        per_time = table_report(states, [0.75, 0.25, 0.5], lambda x, t: fn(x, t), part)
        passes = []
        columns = type(fn).columns

        def counted_columns(self, xs, ts):
            passes.append((xs.tolist(), list(ts)))
            return columns(self, xs, ts)

        monkeypatch.setattr(type(fn), "columns", counted_columns)
        monkeypatch.setattr(type(fn), "__call__", lambda *args: pytest.fail("called per time"))
        one_pass = table_report(states, [0.75, 0.25, 0.5], fn, part)
        assert passes == [([0.25, 0.5, 0.75], [0.001, 0.002, 0.003])]
        assert one_pass == per_time == per_cell

    def test_one_exact_call_per_time(self):
        # a plain callable, which has no columns pass
        p = sine_problem(0.1, 40, 1e-3)
        states = solve_to_time(p, p.partition(), 0.003, [0.001, 0.002, 0.003])
        fn = p.exact
        calls = []

        def counted(x, t):
            calls.append((len(x), t))
            return fn(x, t)

        table_report(states, [0.25, 0.5, 0.75], counted, p.partition())
        assert sorted(calls) == [(3, 0.001), (3, 0.002), (3, 0.003)]
        calls.clear()
        error_norms(states[0.003], counted, 0.003, p.partition())
        assert calls == [(41, 0.003)]


def per_cell_table(states, xs, exact_fn, part, decimals=5):
    """The table of :func:`table_report` formatted one cell at a time from
    each state's numpy U and one exact call per cell."""
    width = max(decimals + 4, 9)
    lines = [f"{'x':>8} {'t':>8} {'numerical':>{width}} {'exact':>{width}}"]
    for x in xs:
        i = round((x - part.a) / part.h)
        for t in sorted(states):
            lines.append(
                f"{x:8.3f} {t:8.3f} {states[t].u[i]:{width}.{decimals}f}"
                f" {exact_fn(x, t):{width}.{decimals}f}"
            )
    return "\n".join(lines) + "\n"


class TestCustomExact:
    """A problem built outside the factories can carry its own exact solution."""

    def test_constant_problem_has_zero_error(self):
        c = 0.5
        p = replace(constant_problem(c, n_cells=4), exact=lambda x, t: c)
        part = p.partition()
        rep = error_norms(state_from([c] * 5), p.exact, 0.3, part)
        assert rep.l_inf == 0.0 and rep.l2 == 0.0
        text = table_report({0.3: state_from([c] * 5)}, [0.25, 0.75], p.exact, part)
        for row in text.strip().splitlines()[1:]:
            assert row.split()[2:] == ["0.50000", "0.50000"]

    def test_spec_without_exact_has_none(self):
        assert constant_problem(0.5).exact is None


class TestTableReport:
    def test_empty_sample_list_is_header_only(self):
        part = UniformPartition(0.0, 1.0, 4)
        text = table_report({0.0: state_from(np.zeros(5))}, [], lambda x, t: 0.0, part)
        lines = text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split() == ["x", "t", "numerical", "exact"]

    def test_non_knot_sample_rejected(self):
        part = UniformPartition(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="not a knot"):
            table_report({0.0: state_from(np.zeros(5))}, [0.3], None, part)

    def test_formatting_round_trip(self):
        part = UniformPartition(0.0, 1.0, 4)
        u = [0.123456789, -0.5, 0.25, 1.0, 0.0]
        text = table_report({0.5: state_from(u)}, [0.25, 0.5], None, part, decimals=5)
        rows = text.strip().splitlines()[1:]
        parsed = [float(r.split()[2]) for r in rows]
        assert parsed[0] == pytest.approx(u[1], abs=0.5e-5)
        assert parsed[1] == pytest.approx(u[2], abs=0.5e-5)

    def test_three_decimal_mode(self):
        part = UniformPartition(0.0, 1.0, 4)
        text = table_report(
            {0.0: state_from([0.2345] * 5)}, [0.5], None, part, decimals=3
        )
        assert "0.234" in text or "0.235" in text

    def test_rows_grouped_by_x_then_time(self):
        part = UniformPartition(0.0, 1.0, 4)
        states = {t: state_from(np.full(5, t)) for t in (0.2, 0.1)}
        text = table_report(states, [0.5, 0.25], None, part)
        rows = [r.split() for r in text.strip().splitlines()[1:]]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (0.25, 0.1), (0.25, 0.2), (0.5, 0.1), (0.5, 0.2),
        ]
