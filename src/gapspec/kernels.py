"""Evaluation of the sine, Airy and Bessel integrable kernels.

Each kernel has the form K(lam, mu) = (phi(lam) psi(mu) - psi(lam) phi(mu))
/ (lam - mu) (times 1/2 for Bessel).  The difference quotient cancels
catastrophically near the diagonal, so a pair inside the band of _near, the
one switch-radius rule, is evaluated by a 3-term Taylor expansion about the
midpoint, each coefficient one closed form reduced through the defining ODE.
The sine band is |lam - mu| <= 1e-4 max(1, |lam| + |mu|); the Airy band is
that radius capped at 5e-3 / sqrt(max(1, |x|)), x the pair's mean modulus,
and the Bessel band is |u - w| <= min(1e-4 (u + w), 1e-3) in u = sqrt(x).
Ai and J vary on the scales |x|^(-1/2) and 1 in u, so a band that grew with
the argument would let the expansion's h^4 error grow with it.

The diagonal K(x, x) is kernel_eval(spec, x, x): the band form at h = 0.
At the origin the Bessel kernel takes its series limit, 1/4 for a = 0 and
0 for a > 0; it diverges for a < 0.

The exact and Taylor forms work on arrays: `kernel_matrix` fills a
whole Nystrom grid from one special-function call, and `kernel_eval` runs the
same forms on any batch of pairs, also from one call.

`kernel_matrix` returns the sqrt(w)-weighted Nystrom matrix. It evaluates
the exact form on the upper triangle only, in cache-sized blocks of rows
that it weights while they are in cache, and mirrors it: about n^2/2
entries instead of n^2. The mirror is bit-exact, because swapping a pair
only flips the sign of an exact form's numerator and of its denominator.
The sine matrix on a grid symmetric about 0 is also invariant under index
reversal, so only its two free blocks are evaluated, about n^2/4 entries.
It reports how many entries the Taylor branch set.
"""

import enum
import math

import numpy as np

from . import specfun
from .errors import ArgumentError, DomainError, _bessel_order, _integer, _number, _real
from .specfun import bessel_j_pair

__all__ = [
    "Family",
    "KernelSpec",
    "IntervalSpec",
    "SINE",
    "AIRY",
    "bessel_spec",
    "kernel_eval",
    "kernel_matrix",
    "airy_convolution",
]


class Family(enum.Enum):
    SINE = "sine"
    AIRY = "airy"
    BESSEL = "bessel"


def _coerce_family(family):
    if isinstance(family, Family):
        return family
    try:
        return Family(str(family).lower())
    except ValueError:
        raise ArgumentError(f"unknown kernel family: {family!r}") from None


class _Record:
    """Base of gapspec's immutable records, in place of frozen dataclasses,
    whose generated methods cost an import about 10 ms.

    Assignment and deletion raise AttributeError, so a record's __init__
    sets its attributes through _set. ==, hash and repr read the fields in
    _fields, in order: two records are equal when they are of the same class
    and the tuples of those fields are equal. Attributes outside _fields
    (derived values, private state) enter none of the three.
    """

    _fields = ()

    def _set(self, **attrs):
        self.__dict__.update(attrs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _order(fam, a, name):
    """The order a of the family's kernel, the one rule every reader of a
    applies: Bessel's through errors._bessel_order; sine and Airy have none,
    so a must be 0 there (ArgumentError otherwise) and is read as 0.0."""
    if fam is Family.BESSEL:
        return _bessel_order(a, name)
    a = _number(a, name, "order a")
    if a != 0.0:
        raise ArgumentError(f"{name} requires a = 0 for the {fam.value} kernel, got {a}")
    return 0.0


class KernelSpec(_Record):
    """Which integrable kernel: sine, Airy (a = 0), or Bessel with order a > -1."""

    _fields = ("family", "a")

    def __init__(self, family, a=0.0):
        fam = _coerce_family(family)
        self._set(family=fam, a=_order(fam, a, "KernelSpec"))


SINE = KernelSpec(Family.SINE)
AIRY = KernelSpec(Family.AIRY)


def bessel_spec(a):
    return KernelSpec(Family.BESSEL, a)


class IntervalSpec(_Record):
    """Family-consistent endpoint s and the derived interval J.

    Sine: J = (-s, s), s > 0.  Airy: J = (s, inf).  Bessel: J = (0, s), s > 0.
    Carries the scaling variable t of the Stokes curves: t = s (sine),
    t = (-s)^{3/2} (Airy, s < 0; nan for s >= 0) or t = sqrt(s) (Bessel).
    The derived lo, hi and t stay out of ==, hash and repr.
    """

    _fields = ("family", "s")

    def __init__(self, family, s):
        fam = _coerce_family(family)
        s = _real(s, f"{fam.value} interval", "s")
        if fam is Family.SINE:
            if s <= 0:
                raise DomainError(f"sine interval requires s > 0, got {s}")
            lo, hi, t = -s, s, s
        elif fam is Family.AIRY:
            lo, hi = s, math.inf
            t = (-s) ** 1.5 if s < 0 else float("nan")
        else:
            if s <= 0:
                raise DomainError(f"Bessel interval requires s > 0, got {s}")
            lo, hi, t = 0.0, s, math.sqrt(s)
        self._set(family=fam, s=s, lo=lo, hi=hi, t=t)


def _points(x, name):
    """x as a float array. A point that is not a real number (a string, None,
    a bool, a complex number) is an ArgumentError naming name, refused before
    numpy would convert it; an int or float array is taken as it is."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        for p in np.array(x, dtype=object).flat:
            _number(p, name, "point")
    return np.asarray(x, dtype=float)


def _check_domain(spec, x, name):
    x = np.asarray(x)
    if spec.family is Family.BESSEL:
        bad = x < 0.0
        if bad.any():
            raise DomainError(f"Bessel kernel argument must be >= 0, got {x[bad].flat[0]}")
    elif spec.family is Family.SINE and not np.isfinite(x).all():
        _real(x[~np.isfinite(x)].flat[0], name, "point")


# The forms below take the kernel's working variable: u = sqrt(x) for
# Bessel, where the kernel is regular at the hard edge and the Taylor switch
# scale stays meaningful for small x, and x itself otherwise. They take each
# pair sorted as s >= t, which makes every value bit-symmetric in (lam, mu).


def _variable(spec, x):
    return np.sqrt(x) if spec.family is Family.BESSEL else x


def _edge_values(spec, t):
    """Special-function values the forms need at the points t."""
    if spec.family is Family.AIRY:
        return specfun.airy_pair(t)
    if spec.family is Family.BESSEL:
        return bessel_j_pair(spec.a, t)
    return ()


def _near(spec, s, t):
    """Mask of the pairs that take the Taylor branch: the one switch-radius
    rule, for every family."""
    if spec.family is Family.BESSEL:
        # relative in u, where the expansion parameter is (u - w)/(u + w),
        # and at most 1e-3: the kernel oscillates on a fixed scale in u, so
        # a band growing with u would let the h^4 error grow with it
        return np.abs(s - t) <= np.minimum(1e-4 * (s + t), 1e-3)
    radius = 1e-4 * np.maximum(1.0, np.abs(s) + np.abs(t))
    if spec.family is Family.AIRY:
        # Ai oscillates (x < 0) or decays (x > 0) on the scale |x|^(-1/2),
        # so the h^4 error grows like (h^2 |x|)^2: at most 5e-3 / sqrt|x|,
        # where it meets the exact form's cancellation just outside the
        # band (both below 1e-13 of max(1, 100|K|) against mpmath to x = -40)
        scale = np.sqrt(np.maximum(1.0, 0.5 * (np.abs(s) + np.abs(t))))
        radius = np.minimum(radius, 5e-3 / scale)
    return np.abs(s - t) <= radius


# rows per block of kernel_matrix: 48 x n float64 temporaries are 115 KB at
# n = 300, where blocks of 32-64 rows assembled 1.1-3x faster than one
# block of all n rows
_BLOCK = 48


def _exact(spec, s, vs, t, vt):
    """Difference-quotient form, from the values vs at s and vt at t."""
    fam = spec.family
    if fam is Family.SINE:
        d = s - t
        # in place: one temporary fewer, same rounding as sin(d)/(pi*d)
        k = np.sin(d)
        d *= math.pi
        k /= d
        return k
    if fam is Family.AIRY:
        (a1, p1), (a2, p2) = vs, vt
        return (a1 * p2 - p1 * a2) / (s - t)
    # Bessel, with p(u) = J_a(u), q(u) = u J_a'(u) = a J_a(u) - u J_{a+1}(u):
    # the a J_a(u) J_a(w) parts of p(u) q(w) - q(u) p(w) cancel
    # algebraically, so the numerator is formed directly as
    # u J_{a+1}(u) J_a(w) - w J_{a+1}(w) J_a(u) to avoid losing digits at
    # small arguments and large orders.
    (ja_u, j1_u), (ja_w, j1_w) = vs, vt
    return (s * j1_u * ja_w - t * j1_w * ja_u) / (s - t) / (2.0 * (s + t))


def _taylor(spec, s, t, vm):
    """Even Taylor expansion about the midpoint m = (s + t)/2, from the
    values vm at m."""
    fam = spec.family
    if fam is Family.SINE:
        d2 = (s - t) ** 2
        return (1.0 - d2 / 6.0 * (1.0 - d2 / 20.0)) / math.pi
    m = 0.5 * (s + t)
    h = 0.5 * (s - t)
    if fam is Family.AIRY:
        a, b = vm
        s1 = b * b - m * a * a
        # h^2 coefficient from the ODE Ai'' = x Ai:
        #   (1/3)(phi''' psi - phi psi''') + (phi' psi'' - phi'' psi')
        s3 = a * b + 2.0 * m * b * b - 2.0 * m * m * a * a
        return s1 + h * h / 3.0 * s3
    # Bessel, with p = J_a(m), q = m J_a'(m) = a J_a(m) - m J_{a+1}(m)
    a = spec.a
    ja, ja1 = vm
    p = ja
    q = a * ja - m * ja1
    a2 = a * a
    m2 = m * m
    # s1 = p'q - pq' = (q^2 - a^2 p^2)/m + m p^2; the first part is written
    # through q - ap = -m J_{a+1} so the a^2 p^2 pieces never meet head-on
    s1 = m * p * p - ja1 * (2.0 * a * p - m * ja1)
    # h^2 coefficient from the Bessel equation p' = q/m, q' = -(m - a^2/m) p:
    #   (1/3)(p''' q - p q''') + (p' q'' - p'' q')
    bracket = -(2.0 / 3.0) * (
        2.0 * m2 * p * q + (2.0 * (a2 - m2) ** 2 + a2) * p * p + (2.0 * (m2 - a2) - 1.0) * q * q
    ) / (m2 * m)
    return (s1 + 0.5 * h * h * bracket) / (2.0 * (s + t))


def kernel_eval(spec, lam, mu):
    """Kernel value K(lam, mu); bit-symmetric in (lam, mu).

    lam and mu may be arrays of pairs (broadcast together): the values come
    from one special-function call, each equal to its one-pair call.
    """
    lam, mu = np.broadcast_arrays(_points(lam, "kernel_eval"), _points(mu, "kernel_eval"))
    _check_domain(spec, lam, "kernel_eval")
    _check_domain(spec, mu, "kernel_eval")
    shape = lam.shape
    # evaluate on the sorted pair for exact symmetry
    hi = np.maximum(lam, mu).ravel()
    lo = np.minimum(lam, mu).ravel()
    s = _variable(spec, hi)
    t = _variable(spec, lo)
    origin = (hi == 0.0) & (spec.family is Family.BESSEL)
    near = _near(spec, s, t) & ~origin
    far = ~(near | origin)
    sf, tf, sn, tn = s[far], t[far], s[near], t[near]
    values = _edge_values(spec, np.concatenate([sf, tf, 0.5 * (sn + tn)]))
    nf = len(sf)
    k = np.empty(hi.shape)
    k[far] = _exact(spec, sf, [v[:nf] for v in values], tf, [v[nf : 2 * nf] for v in values])
    k[near] = _taylor(spec, sn, tn, [v[2 * nf :] for v in values])
    if origin.any():
        if spec.a < 0.0:
            raise DomainError("Bessel kernel diagonal diverges at 0 for a < 0")
        k[origin] = 0.25 if spec.a == 0.0 else 0.0
    return k.reshape(shape) if shape else float(k[0])


def _assemble(spec, cols, rows, sw, out):
    """Write the symmetric matrix of K(cols_j, rows_i) * (sw_i * sw_j) into
    out and return how many of its entries the Taylor branch set (both
    triangles and the diagonal).

    rows is cols, or -cols for the sine kernel's reflected block; the forms
    read special-function values at cols only, and the sine forms read none.
    The exact form runs over row blocks of _BLOCK rows, each only on the
    columns from its first row on: the block's part right of its diagonal
    square is the sorted pair kernel_eval takes and is copied, transposed,
    below the square. Inside the square the pairs below the diagonal come
    unsorted. Swapping a pair only changes the sign of an exact form's
    numerator and of its denominator (s - t negates exactly, products
    commute, sin is odd), so they equal the sorted values bit for bit. A
    block's temporaries are _BLOCK x n, small enough to stay in cache where
    n x n ones do not, and its weights are applied there.
    """
    n = len(cols)
    # Taylor pairs (i, j = i + d) of the upper triangle. Along each row the
    # gap |cols_j - rows_i| grows faster than the switch radius, so they
    # fill a band from the diagonal: stop at the first diagonal without one.
    # The empty seeds serve a block with no Taylor pair at all.
    ii, jj = [np.zeros(0, int)], [np.zeros(0, int)]
    for d in range(n):
        i = np.flatnonzero(_near(spec, cols[d:], rows[: n - d]))
        if not i.size:
            break
        ii.append(i)
        jj.append(i + d)
    ii = np.concatenate(ii)
    jj = np.concatenate(jj)
    values = _edge_values(spec, np.concatenate([cols, 0.5 * (cols[jj] + rows[ii])]))
    vt = [v[:n] for v in values]
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(0, n, _BLOCK):
            e = min(r + _BLOCK, n)
            k = _exact(
                spec, cols[None, r:], [v[None, r:] for v in vt],
                rows[r:e, None], [v[r:e, None] for v in vt],
            )
            np.multiply(k, sw[r:e, None] * sw[r:], out=out[r:e, r:])
            out[e:, r:e] = out[r:e, e:].T
    band = _taylor(spec, cols[jj], rows[ii], [v[n:] for v in values])
    band *= sw[ii] * sw[jj]
    out[ii, jj] = band
    out[jj, ii] = band
    return 2 * len(ii) - int(np.count_nonzero(ii == jj))


def _parity_layout(n):
    """(h, k, c) of a sine matrix of size n: the h = n // 2 nodes below the
    centre, the first row k = n - h of the lower half, and c = 1 when node h
    is a centre node at 0 (odd n), else 0."""
    h = n // 2
    return h, n - h, n - 2 * h


def kernel_matrix(spec, x, sw):
    """The sqrt(w)-weighted matrix K(x_i, x_j) * (sw_i * sw_j) on a strictly
    increasing grid x with square-root weights sw, and the number of its
    entries the Taylor branch set (both triangles and the diagonal).

    Every entry equals kernel_eval(spec, x_i, x_j) * (sw_i * sw_j); one
    special-function call covers the grid and the near-diagonal midpoints.
    The upper triangle is evaluated in row blocks and mirrored (_assemble).

    The sine kernel on a grid and weights symmetric about 0 (x reversed is
    -x, sw reversed is sw) gives a matrix that index reversal leaves
    unchanged too: the entries depend on x_j - x_i only, and -x_i - (-x_j)
    rounds as x_j - x_i. With h = n // 2 and k = n - h (_parity_layout, the
    split the parity eigensolve in operator reads too), it evaluates the
    upper triangles of two blocks, about n^2/4 entries: the lower-right
    block on rows and columns h:, which holds the centre node of an odd n,
    and the reflected block K(x_{k+i}, -x_{k+j}) = sinc(x_{k+i} + x_{k+j})
    on the positive nodes, which is the lower-left block with its columns
    reversed. The rest of the matrix is copied from these by index
    reversal.
    """
    x = _points(x, "kernel_matrix")
    sw = np.asarray(sw, dtype=float)
    _check_domain(spec, x, "kernel_matrix")
    n = len(x)
    t = _variable(spec, x)
    out = np.empty((n, n))
    if spec.family is not Family.SINE or not (
        np.array_equal(x, -x[::-1]) and np.array_equal(sw, sw[::-1])
    ):
        return out, _assemble(spec, t, t, sw, out)
    h, k, c = _parity_layout(n)
    y = t[k:]
    repaired = _assemble(spec, t[h:], t[h:], sw[h:], out[h:, h:])
    repaired += _assemble(spec, y, -y, sw[k:], out[k:, :h][:, ::-1])
    out[:h] = out[k:][::-1, ::-1]
    if c:
        out[h, :h] = out[h, k:][::-1]
    # each block stands for itself and its reflection; the centre entry once
    return out, 2 * repaired - c


def airy_convolution(lam, mu, upper=None, n=60):
    """Airy kernel via its convolution form: integral of Ai(lam+t)Ai(t+mu)
    over t in [0, upper], by Gauss-Legendre quadrature.

    lam, mu and upper may be arrays (broadcast together); one
    special-function call serves every pair.
    """
    n = _integer(n, "airy_convolution", 40)
    lam, mu = np.broadcast_arrays(_points(lam, "airy_convolution"),
                                  _points(mu, "airy_convolution"))
    # sorted arguments keep (lam, mu) -> (mu, lam) bit-identical
    lo_arg = np.minimum(lam, mu)
    hi_arg = np.maximum(lam, mu)
    if upper is None:
        # place both shifted arguments where Ai^2 < 1e-18: Ai(11) ~ 1e-11
        upper = np.maximum(11.0 - lo_arg, 11.0)
    lo_arg, hi_arg, upper = np.broadcast_arrays(lo_arg, hi_arg, np.asarray(upper, dtype=float))
    half = 0.5 * upper
    from .operator import gauss_legendre

    quad = gauss_legendre(n)
    # one row of nodes per pair, so each row sum is the one-pair sum
    tt = np.multiply.outer(half, quad.nodes + 1.0)
    args = np.concatenate([(lo_arg[..., None] + tt).ravel(), (tt + hi_arg[..., None]).ravel()])
    ai = specfun.airy_pair(args)[0].reshape((2,) + tt.shape)
    out = half * np.sum(quad.weights * ai[0] * ai[1], axis=-1)
    return out if out.ndim else float(out)
