"""Evenly spaced grids in plain Python, bit for bit those of ``numpy.linspace``.

The config build and the theory curves need a grid before anything is
drawn or fitted, and numpy takes longer to import than the whole package.
"""

from __future__ import annotations


def linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list[float]:
    """``numpy.linspace(start, stop, num, endpoint=endpoint)`` as a list of floats.

    numpy's arithmetic, step for step: with ``div`` = num - 1 points past
    the first (num without the endpoint), point i is i * step + start for
    step = (stop - start) / div, or i / div * (stop - start) + start when
    that step underflows to zero.  An included endpoint is ``stop`` itself.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1 if endpoint else num
    if div <= 0:
        # No step: numpy still adds 0 * delta, which decides the sign of a zero.
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    if endpoint:
        grid[-1] = stop
    return grid
