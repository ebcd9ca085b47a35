"""Generate the frozen coefficient tables of the Airy zones.

Runs mpmath at 40 significant digits to fit Chebyshev expansions of
slowly-varying auxiliary functions of r = 1/zeta, zeta = (2/3)|x|^{3/2}:

  positive x in [XP_LO, XP_HI]:
      FA(r)  =  2 sqrt(pi) x^{1/4}  e^{zeta} Ai(x)
      FAP(r) = -2 sqrt(pi) x^{-1/4} e^{zeta} Ai'(x)

  negative x = -y, y in [YN_LO, YN_HI], with c = cos(zeta + pi/4),
  s = sin(zeta + pi/4):
      Ai(-y)  =  pi^{-1/2} y^{-1/4} ( s*P - c*Q )
      Ai'(-y) = -pi^{-1/2} y^{+1/4} ( c*R - s*S )

All six functions are smooth and bounded on their zones, so the Chebyshev
coefficients decay geometrically; series are truncated once the tail drops
below 1e-18.

The central zone -YN_LO < x < XP_LO takes Ai = C1 f - C2 g and
Ai' = C1 f' - C2 g' from the two entire solutions f = sum a_k z^k and
g = x sum b_k z^k, z = x^3, as four power series in z:

      f = F(z),  g = x G(z),  f' = x^2 FP(z),  g' = GP(z).

All four are cut at one degree K, the smallest for which the tails bound
the truncation error of Ai and Ai' below 1e-18 at |x| = YN_LO, the zone's
largest |x| (every tail term only shrinks as |x| falls).

The output module src/gapspec/_coeffs.py is committed so the package builds
without mpmath installed.

Usage:  python3 tools/gen_airy_coeffs.py
"""

import os

import mpmath as mp

mp.mp.dps = 40

XP_LO, XP_HI = mp.mpf("2.0"), mp.mpf("15.5")
YN_LO, YN_HI = mp.mpf("3.0"), mp.mpf("13.0")
TAIL_TOL = mp.mpf("1e-18")
NFIT = 80

SQRT_PI = mp.sqrt(mp.pi)


def zeta_of(x):
    return mp.mpf(2) / 3 * x ** mp.mpf("1.5")


def x_of_r(r):
    return (mp.mpf(3) / (2 * r)) ** (mp.mpf(2) / 3)


def cheb_fit(f, a, b, n):
    """Chebyshev coefficients of f on [a, b] from the n Gauss-Chebyshev nodes."""
    nodes = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / n) for j in range(n)]
    fv = [f((b - a) / 2 * u + (a + b) / 2) for u in nodes]
    cs = []
    for k in range(n):
        s = mp.fsum(
            fv[j] * mp.cos(mp.pi * k * (j + mp.mpf(1) / 2) / n) for j in range(n)
        )
        cs.append(2 * s / n)
    cs[0] /= 2
    return cs


def truncate(cs, tol):
    n = len(cs)
    while n > 1 and abs(cs[n - 1]) < tol:
        n -= 1
    return cs[:n]


def fa_pos(r):
    x = x_of_r(r)
    return mp.airyai(x) * 2 * SQRT_PI * x ** mp.mpf("0.25") * mp.e ** zeta_of(x)


def fap_pos(r):
    x = x_of_r(r)
    return -mp.airyai(x, 1) * 2 * SQRT_PI * x ** mp.mpf("-0.25") * mp.e ** zeta_of(x)


def pqrs_neg(r):
    y = x_of_r(r)
    z = zeta_of(y)
    zp = z + mp.pi / 4
    c, s = mp.cos(zp), mp.sin(zp)
    ai, bi = mp.airyai(-y), mp.airybi(-y)
    aip, bip = mp.airyai(-y, 1), mp.airybi(-y, 1)
    p = SQRT_PI * y ** mp.mpf("0.25") * (s * ai + c * bi)
    q = SQRT_PI * y ** mp.mpf("0.25") * (-c * ai + s * bi)
    u = -SQRT_PI * y ** mp.mpf("-0.25") * aip
    w = SQRT_PI * y ** mp.mpf("-0.25") * bip
    return p, q, c * u + s * w, -s * u + c * w


def maclaurin_rows(kmax):
    """F, G, FP and GP of the central zone, coefficients of z^0 .. z^kmax."""
    a, b = [mp.mpf(1)], [mp.mpf(1)]
    for k in range(1, kmax + 2):
        a.append(a[-1] / ((3 * k) * (3 * k - 1)))
        b.append(b[-1] / ((3 * k) * (3 * k + 1)))
    ks = range(kmax + 1)
    return (
        a[: kmax + 1],
        b[: kmax + 1],
        [(3 * k + 3) * a[k + 1] for k in ks],
        [(3 * k + 1) * b[k] for k in ks],
    )


def maclaurin_tail(kmax, extra=60):
    """Bounds on |Ai - Ai_K| and |Ai' - Ai'_K| over |x| <= YN_LO.

    Row tails are summed to degree kmax + extra; from k = 3 on each term is
    below half the one before, so the rest is below the last term summed.
    """
    zmax = YN_LO**3
    rows = maclaurin_rows(kmax + extra)
    tail = []
    for row, xpow in zip(rows, (0, 1, 2, 0)):
        terms = [abs(c) * zmax**k for k, c in enumerate(row)][kmax + 1 :]
        tail.append(YN_LO**xpow * (mp.fsum(terms) + terms[-1]))
    c1 = 1 / (mp.mpf(3) ** (mp.mpf(2) / 3) * mp.gamma(mp.mpf(2) / 3))
    c2 = 1 / (mp.mpf(3) ** (mp.mpf(1) / 3) * mp.gamma(mp.mpf(1) / 3))
    return c1 * tail[0] + c2 * tail[1], c1 * tail[2] + c2 * tail[3]


def maclaurin_degree():
    k = 1
    while max(maclaurin_tail(k)) > TAIL_TOL:
        k += 1
    return k


def fmt_table(name, cs):
    lines = [f"{name} = ("]
    for c in cs:
        lines.append(f"    {mp.nstr(c, 19, strip_zeros=False)},")
    lines.append(")")
    return "\n".join(lines)


def main():
    rp_lo, rp_hi = 1 / zeta_of(XP_HI), 1 / zeta_of(XP_LO)
    rn_lo, rn_hi = 1 / zeta_of(YN_HI), 1 / zeta_of(YN_LO)

    fa = truncate(cheb_fit(fa_pos, rp_lo, rp_hi, NFIT), TAIL_TOL)
    fap = truncate(cheb_fit(fap_pos, rp_lo, rp_hi, NFIT), TAIL_TOL)

    cache = {}

    def neg(idx):
        def f(r):
            key = mp.nstr(r, 30)
            if key not in cache:
                cache[key] = pqrs_neg(r)
            return cache[key][idx]

        return f

    p = truncate(cheb_fit(neg(0), rn_lo, rn_hi, NFIT), TAIL_TOL)
    q = truncate(cheb_fit(neg(1), rn_lo, rn_hi, NFIT), TAIL_TOL)
    rr = truncate(cheb_fit(neg(2), rn_lo, rn_hi, NFIT), TAIL_TOL)
    ss = truncate(cheb_fit(neg(3), rn_lo, rn_hi, NFIT), TAIL_TOL)

    kmac = maclaurin_degree()
    mac = maclaurin_rows(kmac)

    out = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        os.pardir,
        "src",
        "gapspec",
        "_coeffs.py",
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(
            '"""Frozen Chebyshev tables for the Airy mid-range zones, and the power\n'
            "series in z = x^3 of the central zone.\n\n"
            "Generated by tools/gen_airy_coeffs.py -- do not edit by hand.\n"
            '"""\n\n'
        )
        fh.write(f"AIRY_POS_XLO = {mp.nstr(XP_LO, 19)}\n")
        fh.write(f"AIRY_POS_XHI = {mp.nstr(XP_HI, 19)}\n")
        fh.write(f"AIRY_POS_RLO = {mp.nstr(rp_lo, 19)}\n")
        fh.write(f"AIRY_POS_RHI = {mp.nstr(rp_hi, 19)}\n")
        fh.write(f"AIRY_NEG_YLO = {mp.nstr(YN_LO, 19)}\n")
        fh.write(f"AIRY_NEG_YHI = {mp.nstr(YN_HI, 19)}\n")
        fh.write(f"AIRY_NEG_RLO = {mp.nstr(rn_lo, 19)}\n")
        fh.write(f"AIRY_NEG_RHI = {mp.nstr(rn_hi, 19)}\n\n")
        for name, cs in (
            ("AIRY_FA", fa),
            ("AIRY_FAP", fap),
            ("AIRY_NEG_P", p),
            ("AIRY_NEG_Q", q),
            ("AIRY_NEG_R", rr),
            ("AIRY_NEG_S", ss),
            ("AIRY_MAC_F", mac[0]),
            ("AIRY_MAC_G", mac[1]),
            ("AIRY_MAC_FP", mac[2]),
            ("AIRY_MAC_GP", mac[3]),
        ):
            fh.write(fmt_table(name, cs))
            fh.write("\n\n")
    print(f"wrote {out}")
    for name, cs in (("FA", fa), ("FAP", fap), ("P", p), ("Q", q), ("R", rr), ("S", ss)):
        print(f"  {name}: {len(cs)} coefficients, tail {mp.nstr(abs(cs[-1]), 3)}")
    ai_tail, aip_tail = maclaurin_tail(kmac)
    print(
        f"  MAC: degree {kmac} in z = x^3, truncation bound at |x| = {mp.nstr(YN_LO, 3)}: "
        f"Ai {mp.nstr(ai_tail, 3)}, Ai' {mp.nstr(aip_tail, 3)}"
    )


if __name__ == "__main__":
    main()
