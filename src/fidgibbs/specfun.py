"""Special functions and scalar solvers used by the conditional samplers.

The shape equations take psi and psi' straight from the C implementations
in ``scipy.special`` (``psi`` and the Hurwitz zeta, psi'(x) = zeta(2, x));
the tests pin their accuracy against an independent high-precision
oracle.  ``scipy_special`` is that module, executed on its
first attribute access, so that importing fidgibbs does not import
scipy.special.  Root finding is one Newton iteration safeguarded by
bisection, for a function that crosses zero once from below inside a given
bracket and whose derivative is cheap: the shape equations, whose
derivatives come from ``zeta(2, a)`` and ``zeta(3, a)``.  It calls ``fdf(x, *args)``, so those
equations pass a module-level function and its constants rather than a
closure built per draw.  The quadratic and cubic solvers take
closed-form roots polished in Python floats; the cases the
bivariate-normal statistics meet on almost every draw (a quadratic with
a > 0 > c, a cubic with one real root) skip the comparison of several
roots and return the same bits.  The bivariate-normal model writes those
two cases and the Newton iteration of its correlation equation out in
place, with the same operations in the same order, and comes here for
the rest; these solvers are the reference its tests compare with bit for
bit.  Bracket validation and residual checks are done here.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateDataError, DomainError, EvaluationError

__all__ = [
    "Bracket",
    "ln_gamma",
    "solve_newton",
    "solve_quadratic_positive",
    "finite_cubic_root",
]


def _lazy_module(name: str):
    """The module name, executed on its first attribute access.

    An already imported module is returned as it is.  After the first
    access the object is a plain module, so later lookups cost nothing
    extra.  The lazy load is not guarded against a second thread.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


scipy_special = _lazy_module("scipy.special")

# The largest Newton step that solve_newton(quadratic=True) certifies
# without evaluating its end: the error that the quadratic bound leaves out
# is of third order in the step, below 1e-15 where f'''/f' is of order one.
QUADRATIC_STEP = 1e-5


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


def solve_newton(
    fdf: Callable[..., Tuple[float, float]],
    lo: float,
    hi: float,
    x: float,
    fx: float,
    dx: float,
    tol: float,
    quadratic: bool = False,
    args: tuple = (),
) -> float:
    """Root of f in [lo, hi] by Newton steps safeguarded by bisection.

    fdf(x, *args) returns (f(x), f'(x)), or a longer tuple that starts with
    them: a module-level function with the equation's constants in args
    serves every solve without a closure.  The caller guarantees that f
    crosses zero once in [lo, hi], negative before the root and positive
    after it (f need not be monotone), and passes the starting point x in
    [lo, hi] with its values fx and dx.
    A Newton step is taken when the derivative is positive and finite, the
    step stays inside the bracket and is at most half the step before last;
    otherwise the bracket is bisected.  Each new point replaces the bracket
    end of its sign.  Returns once a step is at most tol, after taking it
    (clipped into the bracket).  With quadratic, it also returns the end of
    a Newton step without evaluating f there once the quadratic-convergence
    bound certifies that end: the step is at most QUADRATIC_STEP and
    |f''/f'| / 2 * step^2 <= tol, with |f''/f'| estimated from the
    derivatives at the last two points.  Raises EvaluationError when f is
    non-finite at a new point.
    """
    last = before_last = 2.0 * (hi - lo)
    px = pdx = None
    for _ in range(200):
        step = fx / dx if 0.0 < dx < math.inf else math.inf
        new = x - step
        if abs(step) <= tol:
            return min(max(new, lo), hi)
        if (quadratic and pdx is not None and abs(step) <= QUADRATIC_STEP and lo < new < hi
                and abs(dx - pdx) * step * step <= 2.0 * tol * dx * abs(x - px)):
            return new
        if not (lo < new < hi and abs(step) <= 0.5 * before_last):
            step = 0.5 * (hi - lo)
            new = lo + step
            if step <= tol:
                return new
        before_last, last = last, abs(step)
        px, pdx = x, dx
        fx, dx = fdf(new, *args)[:2]
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


# solve_quadratic_positive skips its power-of-two scaling where every
# |coefficient| lies in [_QUAD_TINY, _QUAD_HUGE].
_QUAD_TINY, _QUAD_HUGE = 2.0 ** -250, 2.0 ** 250


def solve_quadratic_positive(a: float, b: float, c: float) -> float:
    """Unique positive root of a*t^2 + b*t + c = 0.

    The quadratic is expected to have exactly one positive root (as the
    likelihood stationarity condition in sigma does, since a > 0 and c < 0
    there); anything else raises DegenerateDataError.  The roots are taken
    from the quadratic divided by the power of two of its largest
    coefficient and polished by two Newton steps.  When a > 0 > c the two
    roots have opposite signs, and the positive one is picked by the sign of
    the stable intermediate alone, with the same arithmetic.

    Where every |coefficient| lies in [2**-250, 2**250], no product or
    quotient below leaves the normal float range with or without that
    division, which is exact; it is skipped there, with the same bits.
    """
    if (_QUAD_TINY <= abs(a) <= _QUAD_HUGE and _QUAD_TINY <= abs(b) <= _QUAD_HUGE
            and _QUAD_TINY <= abs(c) <= _QUAD_HUGE):
        sa, sb, sc = a, b, c
    else:
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            for name, v in (("a", a), ("b", b), ("c", c)):
                if not math.isfinite(v):
                    raise DomainError(f"coefficient {name} must be finite, got {v}")
        scale = max(abs(a), abs(b), abs(c))
        if scale == 0.0:
            raise DegenerateDataError("all quadratic coefficients are zero")
        # The roots of the quadratic divided by the power of two 2**e of its
        # largest coefficient: the division is exact, and b^2 - 4ac cannot
        # overflow.
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
        # Stable form: avoid cancellation between -b and the square root.
        q = -0.5 * (sb + math.copysign(sq, sb)) if sb != 0.0 else 0.5 * sq
        if q == 0.0:
            roots = [0.0]
        elif sa > 0.0 > sc:
            # The roots q/sa and sc/q have the signs of q and -q.
            roots = [q / sa if q > 0.0 else sc / q]
        else:
            roots = [q / sa, sc / q]

    if len(roots) > 1:
        roots = sorted({r for r in roots if r > 0.0})
        if len(roots) > 1 and not math.isclose(roots[0], roots[1], rel_tol=1e-9):
            raise DegenerateDataError(
                f"quadratic {a}t^2 + {b}t + {c} has two positive roots {roots}"
            )
    if not (roots and roots[0] > 0.0):
        raise DegenerateDataError(f"quadratic {a}t^2 + {b}t + {c} has no positive root")
    root = roots[0]
    # Newton polish to push the residual down to rounding level.
    for _ in range(2):
        deriv = 2.0 * sa * root + sb
        if deriv != 0.0:
            root -= (sa * root * root + sb * root + sc) / deriv
    if root <= 0.0:
        raise DegenerateDataError("positive root collapsed to zero after polishing")
    return float(root)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(t: float, c3: float, c2: float, c1: float, c0: float) -> float:
    """t after two Newton steps on the cubic (a step is skipped where the
    derivative is zero)."""
    for _ in range(2):
        der = (3.0 * c3 * t + 2.0 * c2) * t + c1
        if der != 0.0:
            t -= (((c3 * t + c2) * t + c1) * t + c0) / der
    return t


def _real_cubic_roots(coeffs: Sequence[float]) -> list:
    """Real roots of c3*t^3 + c2*t^2 + c1*t + c0, coefficients highest first.

    Closed form (trigonometric for three real roots, Cardano otherwise)
    plus a Newton polish in Python floats; degenerate leading coefficients
    fall back to the companion-matrix solver.  Returns the distinct roots
    in increasing order; the one real root of a positive discriminant is
    returned as soon as it is polished.
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
            return [_polish(_cbrt(-0.5 * q + s) + _cbrt(-0.5 * q - s) - shift, c3, c2, c1, c0)]
        if disc == 0.0:
            u = _cbrt(-0.5 * q)
            t_roots = [2.0 * u, -u]
        else:
            r = math.sqrt(-(p ** 3) / 27.0)
            phi = math.acos(min(1.0, max(-1.0, -0.5 * q / r)))
            m = 2.0 * math.sqrt(-p / 3.0)
            t_roots = [m * math.cos((phi + 2.0 * math.pi * k) / 3.0) for k in (0, 1, 2)]
        real = [t - shift for t in t_roots]
    return sorted({_polish(t, c3, c2, c1, c0) for t in real})


def finite_cubic_root(coeffs: Tuple[float, float, float, float], interval: Bracket,
                      objective: Optional[Callable[..., float]] = None, *args) -> float:
    """Real root of the cubic c3*t^3 + c2*t^2 + c1*t + c0 inside the
    interval, for coefficients (c3, c2, c1, c0) that the caller has checked
    to be finite floats with a variable term.

    A root less than 1e-12 * max(1, hi - lo) outside the interval counts
    as inside and is clipped to it.  When several roots lie inside,
    the one that maximizes objective(*args, root) is returned, and without
    an objective that is a DomainError; no root inside raises
    DegenerateDataError.  It builds no list unless several roots lie inside.
    """
    lo, hi = interval.lo, interval.hi
    # Tolerate roundoff that pushes a boundary-hugging root just outside.
    pad = 1e-12 * max(1.0, hi - lo)
    real = _real_cubic_roots(coeffs)
    found = None
    several = False
    for r in real:
        if lo - pad < r < hi + pad:
            several = found is not None
            found = min(max(r, lo), hi)
    if found is None:
        raise DegenerateDataError(f"cubic {list(coeffs)} has no real root in ({lo}, {hi})")
    if not several:
        return found
    inside = [min(max(r, lo), hi) for r in real if lo - pad < r < hi + pad]
    if objective is None:
        raise DomainError(
            f"cubic has {len(inside)} roots in the interval; an objective is "
            "required to select one"
        )
    return max(inside, key=(lambda r: objective(*args, r)) if args else objective)
