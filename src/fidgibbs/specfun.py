"""The scipy.special handle and the safeguarded Newton solver of the
shape equations.

The shape equations take psi and psi' straight from the C implementations
in ``scipy.special`` (``psi`` and the Hurwitz zeta, psi'(x) = zeta(2, x));
the tests pin their accuracy against an independent high-precision
oracle.  ``scipy_special`` is that module, found and executed on its
first attribute access, so that importing fidgibbs imports no scipy
module, not even the scipy package.  Root finding is one Newton
iteration safeguarded by bisection, for a function that crosses zero
once from below inside a given bracket and whose derivative is cheap:
the shape equations, whose derivatives come from ``zeta(2, a)`` and
``zeta(3, a)``.  It calls ``fdf(x, *args)``, so those equations pass a
module-level function and its constants rather than a closure built per
draw.  The bivariate-normal model solves its sigma quadratic, its rho
cubic and its correlation equation itself, in place.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from typing import Callable, Tuple

from .errors import EvaluationError

__all__ = ["solve_newton"]


class _FindOnFirstUse:
    """A loader that finds a submodule only when its lazy module is first used.

    It then imports the package, finds the submodule on the package's path
    and executes it into the module object that sys.modules already holds,
    which becomes the package's attribute.  The submodule must be a package
    of Python source, as scipy.special is: an extension module cannot be
    executed into an existing module object.
    """

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        package_name, _, child = module.__name__.rpartition(".")
        package = importlib.import_module(package_name)
        spec = importlib.machinery.PathFinder.find_spec(module.__name__, package.__path__)
        module.__spec__, module.__loader__ = spec, spec.loader
        module.__file__, module.__cached__ = spec.origin, spec.cached
        if spec.submodule_search_locations is not None:
            module.__path__ = spec.submodule_search_locations
        spec.loader.exec_module(module)
        setattr(package, child, module)


def _lazy_module(name: str):
    """The submodule name, found and executed on its first attribute access.

    An already imported module is returned as it is.  Otherwise nothing of
    it, its package included, is imported until then; the object is the
    one in sys.modules[name], whichever code imports it first, and after
    the first access a plain module, so later lookups cost nothing extra.
    The lazy load is not guarded against a second thread.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.ModuleSpec(
        name, importlib.util.LazyLoader(_FindOnFirstUse()), is_package=True)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scipy_special = _lazy_module("scipy.special")

# The largest Newton step that solve_newton certifies without evaluating
# its end: the error that the quadratic bound leaves out is of third order
# in the step, below 1e-15 where f'''/f' is of order one.
QUADRATIC_STEP = 1e-5


def solve_newton(
    fdf: Callable[..., Tuple[float, float]],
    lo: float,
    hi: float,
    x: float,
    fx: float,
    dx: float,
    tol: float,
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
    (clipped into the bracket), or at the end of a Newton step, without
    evaluating f there, once the quadratic-convergence bound certifies
    that end: the step is at most QUADRATIC_STEP and
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
        if (pdx is not None and abs(step) <= QUADRATIC_STEP and lo < new < hi
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
