"""Output checks, run outside the timed region.

Each check compares an op's output with a reference that does not come
from the layer being timed, and returns None when the output is correct or
a one-line reason when it is not. Only numpy (and mpmath, in run.py) is
used here: a check must never call gapspec, or a traced run would count
the check's calls as the op's.
"""

import math

import numpy as np

# |log D - slogdet| allowed, relative to |log D|: the two differ only by
# rounding in eigvalsh against LU, so this sits well below the 1e-8 nudge
# the self-test injects.
LOG_DET_RTOL = 1e-10
LOG_DET_ATOL = 1e-13
COUNTING_RTOL = 1e-10
CLI_RTOL = 1e-12
# Kernel-entry tolerances of the mpmath reference tests in tests/test_kernels.py,
# relative to max(1, |K|).
ENTRY_TOL = {"sine": 1e-14, "airy": 1e-12, "bessel": 1e-10}
VERIFY_CRITERIA = 13
# relative error the self-test injects; every check must catch it
NUDGE = 1e-8


def _close(got, ref, rtol, atol=0.0):
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= rtol * abs(ref) + atol


def check_log_det(matrix, gamma, value):
    """log D from the eigenvalues against numpy slogdet(I - gamma A)."""
    a = np.asarray(matrix)
    sign, ref = np.linalg.slogdet(np.eye(len(a)) - gamma * a)
    if sign <= 0:
        return f"slogdet sign {sign} for I - gamma*A"
    if not _close(value, float(ref), LOG_DET_RTOL, LOG_DET_ATOL):
        return f"log_fredholm_det {value!r} vs slogdet {float(ref)!r}"
    return None


def check_counting_table(eigenvalues, gamma, values):
    """E(k) against prod(1 - gamma lambda) * e_k(mu) from np.poly(-mu)."""
    lam = gamma * np.asarray(eigenvalues)
    mu = lam / (1.0 - lam)
    esp = np.poly(-mu)  # coefficients of prod(x + mu_i) are e_0, e_1, ...
    det = float(np.prod(1.0 - lam))
    for k, got in enumerate(values):
        ref = det * float(esp[k]) if k < len(esp) else 0.0
        if not _close(got, ref, COUNTING_RTOL, 1e-300):
            return f"E({k}) = {got!r} vs reference {ref!r}"
    return None


def nudge(value):
    """The output with a relative error of NUDGE (each entry of a list)."""
    if isinstance(value, list):
        return [nudge(v) for v in value]
    return value * (1.0 + NUDGE)


def digest(value):
    """Exact bit pattern of an op's output, for traced-vs-untraced checks."""
    if isinstance(value, list):
        return ",".join(float(v).hex() for v in value)
    return float(value).hex()


def _band_pair(d):
    """Closest off-diagonal pair, measured in the variable the operator
    uses for its near-diagonal switch."""
    x = np.asarray(d.nodes)
    if d.spec.family.value == "bessel":
        u = np.sqrt(x)
        gap = np.diff(u) / (u[1:] + u[:-1])
    else:
        gap = np.diff(x) / np.maximum(1.0, np.abs(x[1:]) + np.abs(x[:-1]))
    i = int(np.argmin(gap))
    return i, i + 1, bool(gap[i] <= 1e-4)


def sample_entries(d):
    """Three entries of the Nystrom matrix for the mpmath check: one on the
    diagonal, the closest pair to the diagonal (inside the Taylor repair
    band when the grid has one there), and one far off the band."""
    n = d.n
    bi, bj, in_band = _band_pair(d)
    pairs = [(n // 2, n // 2, "diagonal"), (bi, bj, "band" if in_band else "nearest"),
             (n // 4, (3 * n) // 4, "off")]
    x, w, a = np.asarray(d.nodes), np.asarray(d.weights), np.asarray(d.matrix)
    return [
        {
            "family": d.spec.family.value,
            "a": d.spec.a,
            "where": where,
            "x": float(x[i]),
            "y": float(x[j]),
            "wx": float(w[i]),
            "wy": float(w[j]),
            "value": float(a[i, j]),
        }
        for i, j, where in pairs
    ]


def _mp_kernel(mp, family, a, x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    if family == "sine":
        return 1 / mp.pi if x == y else mp.sin(x - y) / (mp.pi * (x - y))
    if family == "airy":
        if x == y:
            return mp.airyai(x, 1) ** 2 - x * mp.airyai(x) ** 2
        return (mp.airyai(x) * mp.airyai(y, 1) - mp.airyai(x, 1) * mp.airyai(y)) / (x - y)
    u, v = mp.sqrt(x), mp.sqrt(y)
    if x == y:
        return (mp.besselj(a, u) ** 2 - mp.besselj(a + 1, u) * mp.besselj(a - 1, u)) / 4
    # u J_a'(u) = a J_a(u) - u J_{a+1}(u)
    qu = a * mp.besselj(a, u) - u * mp.besselj(a + 1, u)
    qv = a * mp.besselj(a, v) - v * mp.besselj(a + 1, v)
    return (mp.besselj(a, u) * qv - qu * mp.besselj(a, v)) / (2 * (x - y))


def check_entry(mp, entry):
    """sqrt(w_i) K(x_i, x_j) sqrt(w_j) at 30 digits against the matrix entry."""
    with mp.workdps(30):
        k = _mp_kernel(mp, entry["family"], mp.mpf(entry["a"]), entry["x"], entry["y"])
        scale = math.sqrt(entry["wx"] * entry["wy"])
        ref = float(mp.sqrt(mp.mpf(entry["wx"])) * k * mp.sqrt(mp.mpf(entry["wy"])))
    tol = ENTRY_TOL[entry["family"]] * max(1.0, abs(float(k))) * scale
    tol += 4e-16 * abs(ref)
    if abs(entry["value"] - ref) > tol:
        return f"{entry['where']} entry {entry['value']!r} vs mpmath {ref!r}"
    return None


def parse_csv_numbers(text):
    """Every cell of the CLI's CSV output, as floats where they parse."""
    cells = []
    for line in text.strip().splitlines()[1:]:
        for cell in line.split(","):
            for part in cell.split(";"):
                try:
                    cells.append(float(part))
                except ValueError:
                    cells.append(part)
    return cells


def check_cli(got, ref):
    """The process's parsed output against the same query run in-process."""
    if len(got) != len(ref):
        return f"{len(got)} output cells vs {len(ref)} in-process"
    for g, r in zip(got, ref):
        if isinstance(r, float) and isinstance(g, float):
            if not _close(g, r, CLI_RTOL):
                return f"{g!r} vs in-process {r!r}"
        elif g != r:
            return f"{g!r} vs in-process {r!r}"
    return None


def verify_statuses(text):
    """Status column of `gapspec verify`'s CSV (the detail column has commas)."""
    return [line.split(",", 2)[1] for line in text.strip().splitlines()[1:]]


def check_verify(statuses):
    passed = statuses.count("pass")
    if passed != VERIFY_CRITERIA or len(statuses) != VERIFY_CRITERIA:
        return f"{passed}/{len(statuses)} criteria pass, expected all {VERIFY_CRITERIA}"
    return None
