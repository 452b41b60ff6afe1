"""Angle helpers: wrapping into [-pi, pi) and parsing of ``pi``-literal tokens."""

from __future__ import annotations

import math
import re

TWO_PI = 2.0 * math.pi

# [SIGN][COEF]pi[/DEN], e.g. "pi", "-pi/2", "3pi/4", "0.5pi"
_PI_TOKEN = re.compile(
    r"""^\s*(?P<sign>[+-]?)\s*
        (?P<coef>\d+(?:\.\d*)?|\.\d+)?\s*
        pi\s*
        (?:/\s*(?P<den>\d+(?:\.\d*)?|\.\d+))?\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def canonicalize(x: float) -> float:
    """Wrap an angle into [-pi, pi). Identity for values already in range."""
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    if -math.pi <= x < math.pi:
        return float(x)
    return x - TWO_PI * math.floor((x + math.pi) / TWO_PI)


def parse_angle(token: str) -> float:
    """Parse an angle token: plain float or a rational multiple of pi.

    Accepted pi forms: ``pi``, ``-pi``, ``pi/2``, ``3pi/4``, ``0.5pi``.
    Rational-of-pi input keeps x/pi exact to ~1e-16, far inside the
    degeneracy rule downstream, |zeta - r pi / N| <= DEGENERACY_TOL / 2.  Non-finite values
    (``nan``, ``inf``, overflowing literals) are rejected.
    """
    m = _PI_TOKEN.match(token)
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0.0:
            raise ValueError(f"zero denominator in angle token {token!r}")
        val = coef * math.pi / den
        val = -val if m.group("sign") == "-" else val
    else:
        try:
            val = float(token)
        except ValueError:
            raise ValueError(f"cannot parse angle token {token!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"angle must be finite, got {token!r}")
    return val
