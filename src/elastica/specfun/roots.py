"""Bracketed root finding: lockstep safeguarded Newton over many brackets."""

from __future__ import annotations

import numpy as np


def _hermite_root(a, b, fa, fb, ga, gb):
    """Root of the cubic Hermite interpolant of values fa, fb and slopes ga, gb
    at a, b: four Newton steps on the cubic from the secant point.  Where they
    fail the result is NaN, infinite or outside [a, b]."""
    h = b - a
    c1 = h * ga  # the cubic in t = (x - a)/h: fa + c1*t + c2*t^2 + c3*t^3
    c3 = 2.0 * (fa - fb) + c1 + h * gb
    c2 = (fb - fa) - c1 - c3
    t = fa / (fa - fb)
    for _ in range(4):
        t = t - (fa + t * (c1 + t * (c2 + t * c3))) / (c1 + t * (2.0 * c2 + 3.0 * t * c3))
    return a + t * h


def refine_brackets(f, a, b, fa, fb, rtol: float, ga, gb):
    """Roots of many brackets at once by Newton's method, kept inside each bracket.

    ``f(x, i)`` returns the values and the slopes (two arrays) of the
    functions of brackets ``i`` at points ``x``; ``fa`` and ``fb`` are the
    values at the ends, of opposite signs or zero, and ``ga``, ``gb`` the
    slopes there.  Each bracket starts at the root of the cubic Hermite
    interpolant of its ends' values and slopes (the four end data need only
    share one positive scale); where that root is not finite or not strictly
    inside (a NaN slope gives that), at the secant point of its ends (its
    midpoint if that point is not inside).  It then takes Newton steps;
    as in Numerical Recipes' ``rtsafe``, it bisects instead whenever a
    Newton step would leave the bracket or fails to halve the previous step.
    A bracket is done when an iterate is an exact zero, when the bracket is
    at most ``rtol`` times the next iterate wide, or when a Newton step of
    at most ``rtol`` relative follows another Newton step; the next iterate
    is then returned unevaluated.  A bracket of zero width is its own root.
    A slope that is zero, NaN, of the wrong sign or far too large costs
    bisections, not accuracy: the halving rule catches the equal tiny steps
    of a huge slope, and a first Newton step never ends a bracket.  Each
    bracket's iterates depend on nothing else in the batch.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        secant = a - fa * (b - a) / (fb - fa)
        root = np.where((secant > a) & (secant < b), secant, 0.5 * (a + b))
        hermite = _hermite_root(a, b, fa, fb, np.asarray(ga, dtype=float), np.asarray(gb, dtype=float))
        root = np.where((hermite > a) & (hermite < b), hermite, root)
    root[fa == 0.0] = a[fa == 0.0]
    root[fb == 0.0] = b[fb == 0.0]
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0) & (b - a > rtol * np.abs(root)))
    x = root[live]
    step = b[live] - a[live]  # the last step taken, of any kind
    newton = np.zeros(live.size, dtype=bool)  # the last step was Newton's
    for _ in range(200):
        if not live.size:
            break
        fx, gx = f(x, live)
        right = np.sign(fx) == np.sign(fa[live])  # the root lies in [x, b]: move a
        a[live] = np.where(right, x, a[live])
        fa[live] = np.where(right, fx, fa[live])
        b[live] = np.where(right, b[live], x)
        al, bl = a[live], b[live]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx = fx / gx
        xn = x - dx
        ok = (xn >= al) & (xn <= bl) & (np.abs(dx) < 0.5 * np.abs(step))
        xn = np.where(ok, xn, 0.5 * (al + bl))
        step = np.where(ok, dx, 0.5 * (bl - al))
        tol = rtol * np.abs(xn)
        done = (fx == 0.0) | (bl - al <= tol) | (ok & newton & (np.abs(dx) <= tol))
        root[live] = np.where(fx == 0.0, x, xn)
        keep = ~done
        live, x, step, newton = live[keep], xn[keep], step[keep], ok[keep]
    return root
