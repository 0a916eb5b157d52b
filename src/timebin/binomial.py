"""Binomial variates in plain Python, exact for any count up to 2**63 - 1.

``random.binomialvariate`` only exists from Python 3.12.  Small means
(n p < 10) are drawn by inversion, the others by BTRS, the transformed
rejection with squeeze of W. Hörmann, "The generation of binomial random
variates", J. Statist. Comput. Simul. 46 (1993) 101-110.  Both take their
uniforms from ``rng.random()``, so one seeded ``random.Random`` gives the
same variates on every Python version.

At large n, BTRS's acceptance test cannot use lgamma: lgamma(2**62) is
about 1.9e20, whose spacing is 32768, so the difference of four such
values is noise.  The log ratio of the two probabilities is written
instead as Stirling's series, with the large terms cancelled analytically
(``_log_ratio``), and the centre and mode are exact integers.
"""

from __future__ import annotations

import math
import random

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) variate, for integer n >= 0 and 0 <= p <= 1."""
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)  # 1 - p is exact here
    if n == 0 or p <= 0.0:
        return 0
    if n * p < 10.0:
        return _inversion(rng, n, p)
    return _btrs(rng, n, p)


def _inversion(rng: random.Random, n: int, p: float) -> int:
    """Sequential search from k = 0 (p <= 1/2, n p < 10)."""
    s = p / (1.0 - p)
    a = (n + 1) * s
    p0 = math.exp(n * math.log1p(-p))  # (1 - p)**n, without rounding 1 - p
    while True:
        u, k, pk = rng.random(), 0, p0
        # P(k) / P(k - 1) = (n - k + 1) / k * p / (1 - p) = a / k - s.
        while u > pk and k < n and pk > 0.0:
            u -= pk
            k += 1
            pk *= a / k - s
        if u <= pk:
            return k
        # u fell in the mass lost to rounding (the total came out below 1): redraw.


def _stirling_tail(k: int) -> float:
    """lgamma(k + 1) - [(k + 1/2) log(k + 1) - (k + 1) + log sqrt(2 pi)]."""
    if k < 10:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k + 1.0) + (k + 1.0) - _LOG_SQRT_2PI
    r = 1.0 / (k + 1.0)
    r2 = r * r
    return (1.0 / 12.0 - (1.0 / 360.0 - r2 / 1260.0) * r2) * r


def _log_ratio(n: int, p: float, m: int, k: int) -> float:
    """log P(k) / P(m) of Binomial(n, p), accurate for any n below 2**63.

    With d = k - m, each log-factorial difference of Stirling's series
    becomes (j + 1/2) log1p(d / ...) + d log(...) - d, and the -d and +d
    cancel; what remains is small wherever the ratio matters.
    """
    d = k - m
    return (
        (n - m + 0.5) * math.log1p(d / (n - k + 1))
        - (m + 0.5) * math.log1p(d / (m + 1))
        + d * math.log(p * (n - k + 1) / ((1.0 - p) * (k + 1)))
        + _stirling_tail(m)
        + _stirling_tail(n - m)
        - _stirling_tail(k)
        - _stirling_tail(n - k)
    )


def _btrs(rng: random.Random, n: int, p: float) -> int:
    """Hörmann's BTRS (p <= 1/2, n p >= 10)."""
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    # The centre n p + 1/2 and the mode floor((n + 1) p), in integers:
    # as floats their spacing reaches 512 near 2**63.
    num, den = p.as_integer_ratio()
    centre, rem = divmod(n * num, den)
    offset = rem / den + 0.5
    m = (n + 1) * num // den
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:
            continue  # u = -1/2: the hat's pole
        k = centre + math.floor((2.0 * a / us + b) * u + offset)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or k > n:
            continue
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_ratio(n, p, m, k):
            return k
