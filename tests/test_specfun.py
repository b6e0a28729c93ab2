import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidgibbs import (
    Bracket,
    DegenerateDataError,
    DomainError,
    EvaluationError,
    get_model,
    ln_gamma,
    solve_quadratic_positive,
)
from fidgibbs.models import _shape_parts
from fidgibbs.specfun import _cbrt, _real_cubic_roots, finite_cubic_root, solve_newton

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
        with pytest.raises(DomainError):
            ln_gamma(bad)


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

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_args_match_the_closure_form(self, quadratic):
        # fdf(x, *args) takes the same steps as a closure over the same
        # constants: the same root, bit for bit, and the same evaluations.
        def fdf(x, p, q):
            return (x * x - p) * x - q, 3.0 * x * x - p

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

            got = solve_newton(with_args, lo, hi, x, *fdf(x, p, q), tol=1e-13,
                               quadratic=quadratic, args=(p, q))
            want = solve_newton(closure, lo, hi, x, *fdf(x, p, q), tol=1e-13, quadratic=quadratic)
            assert got.hex() == want.hex()
            assert seen["args"] == seen["closure"]


class TestSolveQuadraticPositive:
    def test_simple(self):
        assert abs(solve_quadratic_positive(1.0, 0.0, -4.0) - 2.0) < 1e-12

    def test_uncorrelated_variance_case(self):
        # n (1 - rho^2) t^2 - sum(x'^2) = 0 with rho = 0, n = 4, sum = 8.
        root = solve_quadratic_positive(4.0, 0.0, -8.0)
        assert abs(root - math.sqrt(2.0)) < 1e-12

    def test_linear_fallback(self):
        assert abs(solve_quadratic_positive(0.0, 2.0, -3.0) - 1.5) < 1e-12

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.5, 50.0)
            b = rng.uniform(-20.0, 20.0)
            c = -rng.uniform(0.1, 30.0)
            t = solve_quadratic_positive(a, b, c)
            assert abs(a * t * t + b * t + c) <= 1e-12 * max(abs(a), abs(b), abs(c))

    def test_no_positive_root(self):
        with pytest.raises(DegenerateDataError):
            solve_quadratic_positive(1.0, 2.0, 1.0)  # root -1 (double)

    def test_two_positive_roots(self):
        with pytest.raises(DegenerateDataError):
            solve_quadratic_positive(1.0, -3.0, 2.0)  # roots 1 and 2

    def test_coefficient_near_the_float_limit(self):
        # b * b overflows unless the coefficients are scaled first.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a, b, c = mp.mpf(10), mp.mpf(-1e160), mp.mpf(-1)
            ref = (-b + mp.sqrt(b * b - 4 * a * c)) / (2 * a)
            root = solve_quadratic_positive(10.0, -1e160, -1.0)
            assert abs(root - ref) <= 1e-14 * ref

    def test_scaling_changes_no_in_range_root(self):
        # The unscaled arithmetic as it was before the power-of-two scaling.
        def unscaled(a, b, c):
            sq = math.sqrt(b * b - 4.0 * a * c)
            q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
            root = min(r for r in (q / a, c / q) if r > 0.0)
            for _ in range(2):
                deriv = 2.0 * a * root + b
                if deriv != 0.0:
                    root -= (a * root * root + b * root + c) / deriv
            return root

        rng = np.random.default_rng(11)
        for _ in range(20_000):
            a, b, c = (rng.uniform(0.01, 100.0, 3) * 10.0 ** rng.integers(-100, 101, 3)).tolist()
            b = -b if rng.random() < 0.5 else b
            assert solve_quadratic_positive(a, b, -c) == unscaled(a, b, -c)

    def test_one_sign_change_branch_matches_general_arithmetic(self):
        # a > 0 > c picks the positive root by the sign of q; the general
        # arithmetic (both roots, the set of positive ones, the smallest)
        # must give the same bits.
        def general(a, b, c):
            e = math.frexp(max(abs(a), abs(b), abs(c)))[1]
            sa, sb, sc = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
            sq = math.sqrt(sb * sb - 4.0 * sa * sc)
            q = -0.5 * (sb + math.copysign(sq, sb)) if sb != 0.0 else 0.5 * sq
            positive = sorted({r for r in ([0.0] if q == 0.0 else [q / sa, sc / q]) if r > 0.0})
            if len(positive) != 1:
                return None
            root = positive[0]
            for _ in range(2):
                deriv = 2.0 * sa * root + sb
                if deriv != 0.0:
                    root -= (sa * root * root + sb * root + sc) / deriv
            return root

        def lean(a, b, c):
            try:
                return solve_quadratic_positive(a, b, c)
            except DegenerateDataError:
                return None

        rng = np.random.default_rng(16)
        cases = (rng.uniform(0.01, 100.0, (200_000, 3))
                 * 10.0 ** rng.integers(-100, 101, (200_000, 3)))
        cases[:, 1] *= rng.choice([-1.0, 0.0, 1.0], 200_000, p=[0.45, 0.1, 0.45])
        cases[:, 2] *= -1.0
        triples = [(10.0, -1e160, -1.0), *map(tuple, cases.tolist())]
        for a, b, c in triples:
            want = general(a, b, c)
            got = lean(a, b, c)
            assert (got is None) == (want is None), (a, b, c)
            assert want is None or got.hex() == want.hex(), (a, b, c)

    def test_unscaled_range_gives_the_scaled_bits(self):
        # The solve as it was, always dividing by the power of two of the
        # largest coefficient: where the solve skips that division, the
        # roots and errors must not change.
        def scaled(a, b, c):
            for name, v in (("a", a), ("b", b), ("c", c)):
                if not math.isfinite(v):
                    raise DomainError(f"coefficient {name} must be finite, got {v}")
            scale = max(abs(a), abs(b), abs(c))
            if scale == 0.0:
                raise DegenerateDataError("all quadratic coefficients are zero")
            e = math.frexp(scale)[1]
            sa, sb, sc = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
            if sa == 0.0:
                if sb == 0.0:
                    raise DegenerateDataError("degenerate quadratic: a = b = 0")
                roots = [-sc / sb]
            else:
                disc = sb * sb - 4.0 * sa * sc
                if disc < 0.0:
                    raise DegenerateDataError("quadratic has no real root")
                sq = math.sqrt(disc)
                q = -0.5 * (sb + math.copysign(sq, sb)) if sb != 0.0 else 0.5 * sq
                if q == 0.0:
                    roots = [0.0]
                elif sa > 0.0 > sc:
                    roots = [q / sa if q > 0.0 else sc / q]
                else:
                    roots = [q / sa, sc / q]
            if len(roots) > 1:
                roots = sorted({r for r in roots if r > 0.0})
                if len(roots) > 1 and not math.isclose(roots[0], roots[1], rel_tol=1e-9):
                    raise DegenerateDataError(
                        f"quadratic {a}t^2 + {b}t + {c} has two positive roots {roots}")
            if not (roots and roots[0] > 0.0):
                raise DegenerateDataError(f"quadratic {a}t^2 + {b}t + {c} has no positive root")
            root = roots[0]
            for _ in range(2):
                deriv = 2.0 * sa * root + sb
                if deriv != 0.0:
                    root -= (sa * root * root + sb * root + sc) / deriv
            if root <= 0.0:
                raise DegenerateDataError("positive root collapsed to zero after polishing")
            return float(root)

        def outcome(solve, a, b, c):
            try:
                return solve(a, b, c).hex()
            except (DomainError, DegenerateDataError) as exc:
                return type(exc), str(exc)

        rng = np.random.default_rng(19)
        # 160 000 triples with exponents on both sides of the unscaled range
        # (|x| in [2**-250, 2**250]), mostly of the a > 0 > c form the
        # bivariate-normal statistics solve, and 60 000 over every exponent
        # from the subnormals to the largest float.
        n_near, n_all = 160_000, 60_000
        exps = np.concatenate([rng.integers(-270, 271, (n_near, 3)),
                               rng.integers(-1080, 1025, (n_all, 3))])
        cases = np.ldexp(rng.uniform(0.5, 1.0, (n_near + n_all, 3)), exps)
        signs = np.where(rng.random((n_near + n_all, 3)) < 0.5, -1.0, 1.0)
        bvn = rng.random(n_near + n_all) < 0.8
        signs[bvn, 0], signs[bvn, 2] = 1.0, -1.0
        cases *= signs
        # Exact powers of two and zeros at the edges of the range.
        edges = [2.0 ** -250, 2.0 ** 250, 2.0 ** -251, 2.0 ** 251, 5e-324, 1.7976931348623157e308]
        triples = [*map(tuple, cases.tolist()),
                   *((a, b, -c) for a in edges for b in [0.0, *edges, *(-e for e in edges)]
                     for c in edges)]
        for a, b, c in triples:
            assert outcome(solve_quadratic_positive, a, b, c) == outcome(scaled, a, b, c), (a, b, c)
        assert solve_quadratic_positive(10.0, -1e160, -1.0) == 1e159


class TestSolveCubicInInterval:
    """finite_cubic_root, the solver of the correlation statistic's cubic."""

    def test_scaled_factorized(self):
        # -2 (r - 0.5)(r^2 + 1) = -2 r^3 + r^2 - 2 r + 1.
        root = finite_cubic_root((-2.0, 1.0, -2.0, 1.0), Bracket(-1.0, 1.0))
        assert abs(root - 0.5) < 1e-10

    def test_pure_odd_cubic(self):
        # -n r^3 - n r = 0 has the single real root 0.
        root = finite_cubic_root((-4.0, 0.0, -4.0, 0.0), Bracket(-1.0, 1.0))
        assert abs(root) < 1e-12

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = rng.uniform(-0.95, 0.95)
            c3 = float(rng.uniform(0.5, 10.0) * rng.choice([-1.0, 1.0]))
            # (t - r)(t^2 + p t + q) with complex conjugate pair -> unique real root.
            p = rng.uniform(-1.0, 1.0)
            q = p * p / 4.0 + rng.uniform(0.5, 2.0)
            coeffs = (c3, c3 * (p - r), c3 * (q - r * p), -c3 * r * q)
            root = finite_cubic_root(coeffs, Bracket(-1.0, 1.0))
            val = ((coeffs[0] * root + coeffs[1]) * root + coeffs[2]) * root + coeffs[3]
            assert abs(root - r) < 1e-8
            assert abs(val) <= 1e-9 * max(abs(c) for c in coeffs)

    def test_multiple_roots_need_objective(self):
        # (r + 0.5) r (r - 0.5): three roots inside (-1, 1).
        coeffs = (1.0, 0.0, -0.25, 0.0)
        with pytest.raises(DomainError):
            finite_cubic_root(coeffs, Bracket(-1.0, 1.0))
        best = finite_cubic_root(coeffs, Bracket(-1.0, 1.0), lambda r: -(r - 0.5) ** 2)
        assert abs(best - 0.5) < 1e-10

    def test_no_root_in_interval(self):
        # Single real root at 2.0, outside (-1, 1).
        with pytest.raises(DegenerateDataError):
            finite_cubic_root((1.0, -2.0, 1.0, -2.0), Bracket(-1.0, 1.0))


def _closed_form_roots(coeffs):
    """The unpolished real roots of the closed form, shift included."""
    c3, c2, c1, c0 = coeffs
    if c3 == 0.0:
        roots = np.roots(coeffs)
        return roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))].real.tolist()
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    shift = a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    disc = 0.25 * q * q + p ** 3 / 27.0
    if disc > 0.0:
        s = math.sqrt(disc)
        t_roots = [_cbrt(-0.5 * q + s) + _cbrt(-0.5 * q - s)]
    elif disc == 0.0:
        u = _cbrt(-0.5 * q)
        t_roots = [2.0 * u, -u]
    else:
        r = math.sqrt(-(p ** 3) / 27.0)
        phi = math.acos(min(1.0, max(-1.0, -0.5 * q / r)))
        m = 2.0 * math.sqrt(-p / 3.0)
        t_roots = [m * math.cos((phi + 2.0 * math.pi * k) / 3.0) for k in (0, 1, 2)]
    return [t - shift for t in t_roots]


def _numpy_cubic_roots(coeffs):
    """The vectorised polish the scalar one replaced: closed-form roots,
    two Newton steps on a numpy array, then np.unique."""
    c3, c2, c1, c0 = coeffs
    real = np.array(_closed_form_roots(coeffs))
    for _ in range(2):
        val = ((c3 * real + c2) * real + c1) * real + c0
        der = (3.0 * c3 * real + 2.0 * c2) * real + c1
        step = np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), 0.0)
        real = real - step
    return np.unique(real)


def _list_cubic_roots(coeffs):
    """The list path for every discriminant: each closed-form root polished
    in a loop, then the sorted set."""
    c3, c2, c1, c0 = coeffs
    polished = []
    for t in _closed_form_roots(coeffs):
        for _ in range(2):
            der = (3.0 * c3 * t + 2.0 * c2) * t + c1
            if der != 0.0:
                t -= (((c3 * t + c2) * t + c1) * t + c0) / der
        polished.append(t)
    return sorted(set(polished))


def _random_cubics(rng, count):
    """Cubics with one or three real roots, double and triple roots,
    a zero leading coefficient, and the rho statistic's (-n, c, k, c)."""
    for i in range(count):
        kind = i % 6
        if kind == 0:  # generic coefficients
            yield rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3)
        elif kind == 1:  # three real roots (disc < 0)
            r = np.sort(rng.uniform(-2.0, 2.0, size=3))
            yield rng.uniform(0.5, 5.0) * np.poly(r)
        elif kind == 2:  # repeated roots: a double root, or a triple root (disc = 0)
            r = rng.choice([-1.5, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0], size=2)
            roots = [r[0], r[0], r[1]] if i % 12 == 2 else [r[0]] * 3
            yield np.poly(roots)
        elif kind == 3:  # one real root, complex pair (disc > 0)
            r = rng.uniform(-1.0, 1.0)
            p = rng.uniform(-1.0, 1.0)
            q = p * p / 4.0 + rng.uniform(0.1, 2.0)
            yield np.array([1.0, p - r, q - r * p, -r * q]) * rng.uniform(0.5, 10.0)
        elif kind == 4:  # rho statistic: -n r^3 + c r^2 + (n - sx - sy) r + c
            n = float(rng.integers(3, 5000))
            c = rng.uniform(-1.0, 1.0) * n
            k = n - rng.uniform(0.2, 3.0) * n
            yield np.array([-n, c, k, c])
        else:  # zero leading coefficient: the companion-matrix branch
            yield np.array([0.0, *rng.normal(size=3)])


class TestRealCubicRoots:
    def test_matches_numpy_polish_bit_for_bit(self):
        rng = np.random.default_rng(2018)
        checked = 0
        for coeffs in _random_cubics(rng, 12000):
            coeffs = [float(v) for v in coeffs]
            expected = _numpy_cubic_roots(coeffs).tolist()
            got = _real_cubic_roots(coeffs)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in expected], coeffs
            checked += 1
        assert checked == 12000

    def test_one_root_branch_matches_the_list_path(self):
        # The rho statistic's cubics (-n, c, k, c) mostly have one real root,
        # which is returned as soon as it is polished; every cubic must give
        # the list path's roots bit for bit.
        rng = np.random.default_rng(16)
        n = rng.integers(3, 5001, 100_000).astype(float)
        c = rng.uniform(-1.0, 1.0, n.size) * n
        k = n - rng.uniform(0.0, 3.0, n.size) * n
        one_root = 0
        cases = [(-nn, cc, kk, cc) for nn, cc, kk in zip(n.tolist(), c.tolist(), k.tolist())]
        cases += [(1.0, 0.0, -0.25, 0.0),             # three roots
                  (1.0, -2.5, 2.0, -0.5),             # a double root at 1
                  (2.0, -3.0, 1.5, -0.25),            # a triple root at 0.5
                  (0.0, 1.0, -3.0, 2.0)]              # c3 == 0
        for coeffs in cases:
            got = _real_cubic_roots(coeffs)
            assert [v.hex() for v in got] == [v.hex() for v in _list_cubic_roots(coeffs)], coeffs
            one_root += len(got) == 1
        assert one_root > 90_000

    def test_covers_every_discriminant_sign(self):
        # The generator above reaches all three closed-form branches.
        signs = set()
        rng = np.random.default_rng(2018)
        for coeffs in _random_cubics(rng, 600):
            c3, c2, c1, c0 = (float(v) for v in coeffs)
            if c3 == 0.0:
                continue
            a, b, c = c2 / c3, c1 / c3, c0 / c3
            p = b - a * a / 3.0
            q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
            signs.add(np.sign(0.25 * q * q + p ** 3 / 27.0))
        assert signs == {-1.0, 0.0, 1.0}


class TestBracket:
    def test_invalid(self):
        with pytest.raises(DomainError):
            Bracket(1.0, 1.0)
        with pytest.raises(DomainError):
            Bracket(math.inf, 2.0)
