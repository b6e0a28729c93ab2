import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidgibbs import DomainError, EvaluationError, Gamma, get_model, log_density
from fidgibbs.models import _shape_parts
from fidgibbs.specfun import solve_newton

# High-precision reference values (40-digit arbitrary-precision oracle).
LN_GAMMA_TABLE = {
    0.001: 6.907178885383853682512,
    0.5: 0.5723649429247000870717,
    1.0: 0.0,
    2.0: 0.0,
    3.7: 1.428072326665387921872,
    10.0: 12.80182748008146961121,
    1e6: 12815504.56914761165998,
}
DIGAMMA_TABLE = {
    0.001: -1000.5755719318103005,
    0.5: -1.9635100260214234794,
    1.0: -0.57721566490153286061,
    2.0: 0.42278433509846713939,
    3.7: 1.1671535393615113859,
    10.0: 2.2517525890667211076,
    100.0: 4.6001618527380874002,
    12345.6: 9.4210145024653965941,
}
TRIGAMMA_TABLE = {
    0.001: 1000001.642533195869,
    0.5: 4.9348022005446793094,
    1.0: 1.6449340668482264365,
    3.7: 0.3100378576700383191,
    10.0: 0.10516633568168574612,
    100.0: 0.010050166663333571395,
    12345.6: 8.1003799033883784862e-05,
}


def _ulp_tol(value, floor):
    # Accuracy floors cannot beat float64 spacing at large magnitudes.
    return max(floor, 4.0 * np.spacing(abs(value)))


def ln_gamma(x):
    """ln Gamma(x) as the gamma law's log density evaluates it: at rate 1
    and the point 1 the density is exp(-1) / Gamma(x)."""
    return -1.0 - log_density(Gamma(x, 1.0), 1.0)


def digamma(x):
    """psi(x) as the gamma shape equation evaluates it."""
    return _shape_parts(x, None, np.empty(2))[0]


def trigamma(x):
    """psi'(x), which is zeta(2, x), as the gamma shape equation evaluates it."""
    return _shape_parts(x, None, np.empty(2))[1]


def _shape_log_density(model, data, bad):
    """The log density of a shape conditional of model at the shape bad."""
    cond = get_model(model).build_conditionals(data)["alpha"]
    return cond.log_density(data, {"beta": 0.5})(bad)


def test_frozen_tables_match_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x, v in LN_GAMMA_TABLE.items():
        assert abs(float(mp.loggamma(mp.mpf(repr(x)))) - v) <= _ulp_tol(v, 1e-13)
    for x, v in DIGAMMA_TABLE.items():
        assert abs(float(mp.digamma(mp.mpf(repr(x)))) - v) <= _ulp_tol(v, 1e-13)
    for x, v in TRIGAMMA_TABLE.items():
        assert abs(float(mp.polygamma(1, mp.mpf(repr(x)))) - v) <= _ulp_tol(v, 1e-13)


class TestLnGamma:
    def test_trivial_integers(self):
        assert ln_gamma(1.0) == 0.0
        assert ln_gamma(2.0) == 0.0

    def test_half(self):
        assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-12

    @pytest.mark.parametrize("x,expected", sorted(LN_GAMMA_TABLE.items()))
    def test_oracle_table(self, x, expected):
        assert abs(ln_gamma(x) - expected) <= _ulp_tol(expected, 1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        # The law rejects every shape outside the domain of ln Gamma.
        with pytest.raises(DomainError):
            Gamma(bad, 1.0)


class TestDigamma:
    @pytest.mark.parametrize("x,expected", sorted(DIGAMMA_TABLE.items()))
    def test_oracle_table(self, x, expected):
        assert abs(digamma(x) - expected) <= _ulp_tol(expected, 1e-10)

    def test_recurrence_example(self):
        assert abs(digamma(2.0) - (digamma(1.0) + 1.0)) < 1e-12
        assert abs(digamma(10.0) - (digamma(9.0) + 1.0 / 9.0)) < 1e-12

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_recurrence_grid(self, x):
        assert abs(digamma(x + 1.0) - (digamma(x) + 1.0 / x)) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -2.5, math.nan])
    def test_domain(self, bad, gamma_data):
        # The gamma shape equation evaluates psi only for a > 0: its
        # conditional's density is 0 elsewhere.
        assert _shape_log_density("gamma", gamma_data, bad) == -math.inf

    @given(st.floats(min_value=0.01, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert abs(lhs - rhs) <= _ulp_tol(rhs, 1e-11)


class TestTrigamma:
    def test_basel_value(self):
        assert abs(trigamma(1.0) - math.pi ** 2 / 6.0) < 1e-12

    @pytest.mark.parametrize("x,expected", sorted(TRIGAMMA_TABLE.items()))
    def test_oracle_table(self, x, expected):
        assert abs(trigamma(x) - expected) <= _ulp_tol(expected, 1e-10)

    def test_recurrence_at_three(self):
        assert abs(trigamma(4.0) - (trigamma(3.0) - 1.0 / 9.0)) < 1e-12

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0, 100.0])
    def test_recurrence_grid(self, x):
        assert abs(trigamma(x + 1.0) - (trigamma(x) - 1.0 / x ** 2)) < 1e-12

    def test_asymptote(self):
        assert abs(trigamma(1e6) - 1e-6) / 1e-6 < 1e-5

    def test_domain(self, beta_data):
        # As for psi, in the beta shape equation.
        assert _shape_log_density("beta", beta_data, -1.0) == -math.inf


class TestSolveNewton:
    @staticmethod
    def _start(fdf, x):
        return (x, *fdf(x))

    def test_cube_root(self):
        def fdf(x):
            return x ** 3 - 2.0, 3.0 * x * x

        root = solve_newton(fdf, 0.0, 4.0, *self._start(fdf, 4.0), tol=1e-14)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_bad_derivative_bisects(self):
        # A zero, NaN or infinite derivative falls back to bisection.
        calls = []
        for bad in (0.0, math.nan, math.inf):
            def fdf(x, bad=bad):
                calls.append(x)
                return x - 0.3, bad

            root = solve_newton(fdf, 0.0, 1.0, *self._start(fdf, 1.0), tol=1e-12)
            assert root == pytest.approx(0.3, abs=1e-12)
        assert len(calls) < 3 * 45

    def test_step_outside_bracket_bisects(self):
        # From x = 3 the Newton step of atan overshoots far below lo.
        def fdf(x):
            return math.atan(x), 1.0 / (1.0 + x * x)

        root = solve_newton(fdf, -1.0, 3.0, *self._start(fdf, 3.0), tol=1e-14)
        assert abs(root) < 1e-14

    def test_non_finite_value_raises(self):
        def fdf(x):
            return (math.nan if 0.2 < x < 0.8 else x - 0.5), 1.0

        with pytest.raises(EvaluationError):
            solve_newton(fdf, 0.0, 1.0, 0.0, -0.5, 0.0, tol=1e-12)

    @pytest.mark.parametrize("longer", [False, True])
    def test_args_match_the_closure_form(self, longer):
        # fdf(x, *args) takes the same steps as a closure over the same
        # constants: the same root, bit for bit, and the same evaluations;
        # also when fdf returns a longer tuple that starts with (f, f').
        def fdf(x, p, q):
            value = ((x * x - p) * x - q, 3.0 * x * x - p)
            return (*value, 6.0 * x) if longer else value

        # f(-4) < 0 < f(4) for every p in [-3, 3] and q in [-5, 5].
        lo, hi = -4.0, 4.0
        rng = np.random.default_rng(16)
        for _ in range(2000):
            p, q = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
            x = float(rng.uniform(lo, hi))
            seen = {"args": [], "closure": []}

            def with_args(x, p, q):
                seen["args"].append(x)
                return fdf(x, p, q)

            def closure(x):
                seen["closure"].append(x)
                return fdf(x, p, q)

            fx, dx = fdf(x, p, q)[:2]
            got = solve_newton(with_args, lo, hi, x, fx, dx, tol=1e-13, args=(p, q))
            want = solve_newton(closure, lo, hi, x, fx, dx, tol=1e-13)
            assert got.hex() == want.hex()
            assert seen["args"] == seen["closure"]
