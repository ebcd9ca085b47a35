"""Exception and warning types shared across the package, and the one reader
of each argument kind, with its one rule and message: _integer (sizes and
indices), _real (gamma and other real parameters), _reals (a grid of
them), _points (arrays of points and weights), _complex (a complex
argument), _bessel_order (a) and _record (a spec or other record). The
number readers take only finite numbers: a string, None, a bool, or a
complex number where a real goes, is an ArgumentError, never converted.
_warn issues every PrecisionWarning, at the line that called gapspec."""

import math
import numbers
import operator
import sys
import warnings

import numpy as np

__all__ = [
    "DomainError",
    "ArgumentError",
    "NumericalError",
    "PoleError",
    "DegeneracyError",
    "PrecisionWarning",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ArgumentError(ValueError):
    """Structurally invalid argument (wrong family, bad enum value, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or produced invalid output."""


class PoleError(NumericalError):
    """Evaluation requested at (or too close to) a pole."""


class DegeneracyError(NumericalError):
    """A computed object degenerated (e.g. eigenvalue outside (0,1) bounds)."""


class PrecisionWarning(UserWarning):
    """Result returned but with reduced confidence in its accuracy."""


def _warn(message):
    """Issue a PrecisionWarning at the first frame outside gapspec and its
    submodules, as skip_file_prefixes does on Python 3.12+."""
    frame, level = sys._getframe(), 1
    while frame and frame.f_globals.get("__name__", "").split(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, PrecisionWarning, stacklevel=level)


def _integer(x, name, least=-math.inf, what="n"):
    """x, the integer what, as an int, refused below least; a bool, a float or
    any other non-integer is refused, not truncated. numpy ints are taken."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ArgumentError(f"{name} takes an integer {what}, got {x!r}")
    x = operator.index(x)
    if x < least:
        raise ArgumentError(f"{name} requires {what} >= {least}, got {x}")
    return x


def _number(x, name, what):
    """x as a float; anything but a real number (a bool included) is refused.
    Python and numpy ints and floats are accepted and keep their value."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ArgumentError(f"{name} takes a real {what}, got {x!r}")
    return float(x)


def _real(x, name, what, inf_ok=False):
    """x as a float, or ArgumentError for a non-number, NaN, -inf, and +inf
    unless inf_ok (v = +inf is the gamma = 1 curve)."""
    x = _number(x, name, what)
    if not (-math.inf < x < math.inf or (inf_ok and x == math.inf)):
        allowed = "finite or +inf" if inf_ok else "finite"
        raise ArgumentError(f"{name} requires a {allowed} {what}, got {x}")
    return x


def _reals(xs, name, what):
    """Each item of the sequence xs through _real; an xs that is not
    iterable (a number, None) or is a str or bytes is an ArgumentError."""
    try:
        if isinstance(xs, (str, bytes)):
            raise TypeError
        items = iter(xs)
    except TypeError:
        raise ArgumentError(f"{name} takes a sequence of real {what} values, got {xs!r}") from None
    return [_real(x, name, what) for x in items]


def _points(x, name, what="point"):
    """x as a float array. A point that is not a real number (a string, None,
    a bool, a complex number) is an ArgumentError naming name, refused before
    numpy would convert it; an int or float array is taken as it is."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        for p in np.array(x, dtype=object).flat:
            _number(p, name, what)
    return np.asarray(x, dtype=float)


def _complex(z, name):
    """z as a complex; anything but a number (a bool included), and a NaN or
    infinite real or imaginary part, is refused."""
    if not isinstance(z, numbers.Complex) or isinstance(z, bool):
        raise ArgumentError(f"{name} takes a complex z, got {z!r}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ArgumentError(f"{name} requires a finite complex z, got {z}")
    return z


def _bessel_order(a, name):
    """a as a float that is finite and > -1, or DomainError (ArgumentError
    for a non-number)."""
    a = _number(a, name, "Bessel order a")
    if not -1.0 < a < math.inf:
        raise DomainError(f"{name} requires a finite Bessel order a > -1, got {a}")
    return a


def _record(x, cls, name):
    """x if it is a cls (a KernelSpec, ...); anything else, a family name
    included, is an ArgumentError naming name and cls."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ArgumentError(f"{name} takes {article} {cls.__name__}, got {x!r}")
    return x
