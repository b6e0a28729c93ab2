"""Special functions and scalar solvers used by the conditional samplers.

Digamma/trigamma evaluation follows the usual recurrence-plus-asymptotic
scheme; we delegate to the C implementations in ``scipy.special`` (``psi``
and the Hurwitz zeta, via ``trigamma(x) == zeta(2, x)``) and keep the
accuracy contracts pinned by tests against an independent high-precision
oracle.  Root finding has two forms: a bracketing bisection/secant hybrid
(Brent) for any monotone function, and a Newton iteration safeguarded by
bisection for increasing functions whose derivative is cheap (the shape
equations, whose derivatives come from ``zeta(2, a)`` and ``zeta(3, a)``,
and the correlation equation).  Bracket validation and residual checks are
done here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import special as _sp
from scipy.optimize import brentq as _brentq

from .errors import BracketError, DegenerateDataError, DomainError, EvaluationError

__all__ = [
    "Bracket",
    "ln_gamma",
    "digamma",
    "trigamma",
    "solve_monotone",
    "solve_newton",
    "solve_quadratic_positive",
    "solve_cubic_in_interval",
]


@dataclass(frozen=True)
class Bracket:
    """A finite interval [lo, hi] expected to enclose a solver target."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"bracket endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _check_positive_finite(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} requires a positive finite argument, got {x}")
    return x


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    return math.lgamma(_check_positive_finite(x, "ln_gamma"))


def digamma(x: float) -> float:
    """Psi function (logarithmic derivative of gamma) for x > 0."""
    return float(_sp.psi(_check_positive_finite(x, "digamma")))


def trigamma(x: float) -> float:
    """Derivative of the psi function for x > 0."""
    # Hurwitz zeta identity: psi'(x) = zeta(2, x).
    return float(_sp.zeta(2.0, _check_positive_finite(x, "trigamma")))


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: Bracket,
    tol: float = 1e-10,
) -> float:
    """Solve f(x) = target for a continuous monotone f on the bracket.

    Returns x* with |f(x*) - target| <= tol or with the final bracket width
    below tol.  Deterministic for fixed inputs.  Raises BracketError when
    f - target does not change sign across the bracket and EvaluationError
    when f produces a non-finite value.
    """
    if not math.isfinite(target):
        raise DomainError(f"target must be finite, got {target}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")

    def g(x: float) -> float:
        val = f(x) - target
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite target function value at x={x}")
        return val

    glo = g(bracket.lo)
    ghi = g(bracket.hi)
    if glo == 0.0:
        return bracket.lo
    if ghi == 0.0:
        return bracket.hi
    if glo * ghi > 0.0:
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: "
            f"f-target = {glo:.6g} and {ghi:.6g}"
        )
    root = _brentq(g, bracket.lo, bracket.hi, xtol=tol, rtol=4 * np.finfo(float).eps)
    return float(root)


def solve_newton(
    fdf: Callable[[float], Tuple[float, float]],
    lo: float,
    hi: float,
    x: float,
    fx: float,
    dx: float,
    tol: float,
) -> float:
    """Root of an increasing f in [lo, hi] by Newton steps safeguarded by bisection.

    fdf(x) returns (f(x), f'(x)); the caller guarantees f(lo) < 0 < f(hi)
    and passes the starting point x in [lo, hi] with its values fx and dx.
    A Newton step is taken when the derivative is positive and finite, the
    step stays inside the bracket and is at most half the step before last;
    otherwise the bracket is bisected.  Each new point replaces the bracket
    end of its sign.  Returns once a step is at most tol, after taking it
    (clipped into the bracket).  Raises EvaluationError when f is
    non-finite at a new point.
    """
    last = before_last = 2.0 * (hi - lo)
    for _ in range(200):
        step = fx / dx if 0.0 < dx < math.inf else math.inf
        new = x - step
        if abs(step) <= tol:
            return min(max(new, lo), hi)
        if not (lo < new < hi and abs(step) <= 0.5 * before_last):
            step = 0.5 * (hi - lo)
            new = lo + step
            if step <= tol:
                return new
        before_last, last = last, abs(step)
        fx, dx = fdf(new)
        if not math.isfinite(fx):
            raise EvaluationError(f"non-finite target function value at x={new}")
        if fx == 0.0:
            return new
        if fx < 0.0:
            lo = new
        else:
            hi = new
        x = new
    raise EvaluationError(f"Newton iteration did not converge in [{lo}, {hi}]")


def solve_quadratic_positive(a: float, b: float, c: float) -> float:
    """Unique positive root of a*t^2 + b*t + c = 0.

    The quadratic is expected to have exactly one positive root (as the
    likelihood stationarity condition in sigma does, since a > 0 and c < 0
    there); anything else raises DegenerateDataError.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(v):
            raise DomainError(f"coefficient {name} must be finite, got {v}")
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        raise DegenerateDataError("all quadratic coefficients are zero")

    if a == 0.0:
        if b == 0.0:
            raise DegenerateDataError("degenerate quadratic: a = b = 0")
        roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            raise DegenerateDataError("quadratic has no real root")
        sq = math.sqrt(disc)
        # Stable form: avoid cancellation between -b and the square root.
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
        if q == 0.0:
            roots = [0.0]
        else:
            roots = [q / a, c / q]

    positive = sorted({r for r in roots if r > 0.0})
    if not positive:
        raise DegenerateDataError(f"quadratic {a}t^2 + {b}t + {c} has no positive root")
    if len(positive) > 1 and not math.isclose(positive[0], positive[1], rel_tol=1e-9):
        raise DegenerateDataError(
            f"quadratic {a}t^2 + {b}t + {c} has two positive roots {positive}"
        )
    root = positive[0]
    # Newton polish to push the residual down to rounding level.
    for _ in range(2):
        deriv = 2.0 * a * root + b
        if deriv != 0.0:
            root -= (a * root * root + b * root + c) / deriv
    if root <= 0.0:
        raise DegenerateDataError("positive root collapsed to zero after polishing")
    return float(root)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _real_cubic_roots(coeffs: Sequence[float]) -> list:
    """Real roots of c3*t^3 + c2*t^2 + c1*t + c0, coefficients highest first.

    Closed form (trigonometric for three real roots, Cardano otherwise)
    plus a Newton polish in Python floats; degenerate leading coefficients
    fall back to the companion-matrix solver.  Returns the distinct roots
    in increasing order.
    """
    c3, c2, c1, c0 = coeffs
    if c3 == 0.0:
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))].real.tolist()
    else:
        a = c2 / c3
        b = c1 / c3
        c = c0 / c3
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
        real = [t - shift for t in t_roots]
    polished = []
    for t in real:
        for _ in range(2):
            der = (3.0 * c3 * t + 2.0 * c2) * t + c1
            if der != 0.0:
                t -= (((c3 * t + c2) * t + c1) * t + c0) / der
        polished.append(t)
    return sorted(set(polished))


def solve_cubic_in_interval(
    coeffs: Sequence[float],
    interval: Bracket,
    objective: Optional[Callable[[float], float]] = None,
) -> float:
    """Real root of the cubic inside the open interval.

    coeffs are (c3, c2, c1, c0), highest degree first.  When several roots
    land in the interval the one maximizing ``objective`` is returned;
    without an objective multiple roots are an error.  No root in the
    interval raises DegenerateDataError.
    """
    coeffs = [float(v) for v in coeffs]
    if len(coeffs) != 4:
        raise DomainError(f"expected 4 cubic coefficients, got {len(coeffs)}")
    if not all(math.isfinite(v) for v in coeffs):
        raise DomainError(f"cubic coefficients must be finite, got {coeffs}")
    if coeffs[0] == 0.0 and coeffs[1] == 0.0 and coeffs[2] == 0.0:
        raise DegenerateDataError("cubic has no variable terms")

    real = _real_cubic_roots(coeffs)
    # Tolerate roundoff that pushes a boundary-hugging root just outside.
    pad = 1e-12 * max(1.0, interval.width)
    inside = [min(max(r, interval.lo), interval.hi)
              for r in real if interval.lo - pad < r < interval.hi + pad]
    if not inside:
        raise DegenerateDataError(
            f"cubic {coeffs} has no real root in ({interval.lo}, {interval.hi})"
        )
    if len(inside) == 1:
        return inside[0]
    if objective is None:
        raise DomainError(
            f"cubic has {len(inside)} roots in the interval; an objective is "
            "required to select one"
        )
    return max(inside, key=objective)
