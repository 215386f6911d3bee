#!/usr/bin/env python3
"""Regenerate the Chebyshev table of e^x E1(x) on (1, 4] used by mincf.special.

The coefficients interpolate e^x E1(x) at the DEGREE + 1 Chebyshev points of
the first kind mapped onto [1, 4], with the node values and the discrete
cosine sums taken in 40-digit mpmath arithmetic and rounded to double at the
end. Needs only mpmath; runs offline in about a second.

Usage::

    python3 scripts/e1_chebyshev.py    # prints the table as Python source
"""
from __future__ import annotations

import mpmath as mp

DEGREE = 28
LOWER, UPPER = 1, 4


def coefficients(degree: int = DEGREE) -> tuple[float, ...]:
    """Chebyshev coefficients c_0..c_degree of e^x E1(x) in t = (2x - 5)/3."""
    with mp.workdps(40):
        m = degree + 1
        half = mp.mpf(UPPER - LOWER) / 2
        centre = mp.mpf(UPPER + LOWER) / 2
        angles = [mp.pi * (2 * i + 1) / (2 * m) for i in range(m)]
        values = [mp.exp(centre + half * mp.cos(a)) * mp.e1(centre + half * mp.cos(a))
                  for a in angles]
        coef = []
        for j in range(m):
            s = mp.fsum(v * mp.cos(j * a) for v, a in zip(values, angles))
            coef.append(float(s * (1 if j == 0 else 2) / m))
    return tuple(coef)


def main() -> None:
    print(f"#: Chebyshev coefficients of e^x E1(x) in t = (2x - 5)/3 on (1, 4], degree {DEGREE}.")
    print("#: Regenerate with scripts/e1_chebyshev.py.")
    print("_E1_CHEB = (")
    for c in coefficients():
        print(f"    {c!r},")
    print(")")


if __name__ == "__main__":
    main()
