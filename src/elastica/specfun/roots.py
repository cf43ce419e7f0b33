"""Bracketed root finding: lockstep false position over many brackets."""

from __future__ import annotations

import numpy as np


def refine_brackets(f, a, b, fa, fb, rtol: float):
    """Roots of many brackets at once by Illinois false position.

    ``f(x, i)`` evaluates the function of brackets ``i`` at points ``x``
    (arrays of equal length); ``fa`` and ``fb`` are its values at the ends,
    of opposite signs or zero.  A bracket is done when an iterate hits an
    exact zero or its width is at most ``rtol`` times its midpoint, which is
    then returned; a bracket of zero width is its own root.  Each iterate
    keeps rtol/4 of its value away from the end that moved last, so the
    other end crosses the root once that end is within it; an iterate
    outside the open bracket, or in a bracket that has not halved in three
    steps, is replaced by the midpoint (bisection).
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    root = 0.5 * (a + b)
    root[fa == 0.0] = a[fa == 0.0]
    root[fb == 0.0] = b[fb == 0.0]
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0) & (b - a > rtol * np.abs(root)))
    moved = np.zeros(a.size, dtype=np.int8)  # end moved by the last step: -1 = a, +1 = b
    slow = np.zeros(a.size, dtype=int)  # consecutive steps that did not halve the width
    for _ in range(200):
        if not live.size:
            break
        al, bl, fal, fbl, ml = a[live], b[live], fa[live], fb[live], moved[live]
        x = al - fal * (bl - al) / (fbl - fal)
        gap = 0.25 * rtol * np.abs(x)
        x = np.where(ml == -1, np.maximum(x, al + gap), np.where(ml == 1, np.minimum(x, bl - gap), x))
        x = np.where((slow[live] >= 3) | ~((x > al) & (x < bl)), 0.5 * (al + bl), x)
        fx = f(x, live)
        right = np.sign(fx) == np.sign(fal)  # the root lies in [x, b]: move a
        # Illinois: an end kept twice in a row has its value halved
        a[live] = np.where(right, x, al)
        b[live] = np.where(right, bl, x)
        fa[live] = np.where(right, fx, np.where(ml == 1, 0.5 * fal, fal))
        fb[live] = np.where(right, np.where(ml == -1, 0.5 * fbl, fbl), fx)
        moved[live] = np.where(right, -1, 1)
        width = b[live] - a[live]
        slow[live] = np.where(width <= 0.5 * (bl - al), 0, slow[live] + 1)
        root[live] = np.where(fx == 0.0, x, 0.5 * (a[live] + b[live]))
        live = live[(fx != 0.0) & (width > rtol * np.abs(root[live]))]
    return root
