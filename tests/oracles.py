"""Independent reference computations used to freeze expected test values.

Everything here is deliberately decoupled from the package's own refinement
machinery: quadrature by adaptive Simpson, Stieltjes integrals by dense
midpoint sums, matrix exponentials by scaling and squaring, winding numbers
by signed axis crossings, dyadic refinement and mesh by plain loops.
"""
from __future__ import annotations

import numpy as np


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11) -> float:
    def simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, hi, flo, fmid, fhi, whole, eps):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simp(lo, mid, flo, flm, fmid)
        right = simp(mid, hi, fmid, frm, fhi)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, flo, flm, fmid, left, eps / 2.0) + rec(
            mid, hi, fmid, frm, fhi, right, eps / 2.0
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return rec(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), tol)


def stieltjes_midpoint(y, x, a: float = 0.0, b: float = 1.0, n: int = 200_000) -> float:
    """Riemann-Stieltjes integral of y dx by dense midpoint sums."""
    total = 0.0
    prev_x = x(a)
    for i in range(1, n + 1):
        hi = a + (b - a) * i / n
        mid = a + (b - a) * (i - 0.5) / n
        cur_x = x(hi)
        total += y(mid) * (cur_x - prev_x)
        prev_x = cur_x
    return total


def expm2(a, tol: float = 1e-12) -> np.ndarray:
    """2x2 matrix exponential by scaling and squaring a Taylor series."""
    mat = np.array(a, dtype=float)
    norm = np.linalg.norm(mat, 2)
    squarings = 0
    while norm / (2**squarings) > 0.25:
        squarings += 1
    scaled = mat / (2**squarings)
    acc = np.eye(2)
    term = np.eye(2)
    for k in range(1, 40):
        term = term @ scaled / k
        acc = acc + term
        if np.linalg.norm(term, 2) < tol:
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def winding_number(points) -> int:
    """Winding of a closed polygon about the origin, by signed crossings
    of the positive x-axis."""
    w = 0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y0 <= 0.0 < y1:
            t = -y0 / (y1 - y0)
            if x0 + t * (x1 - x0) > 0.0:
                w += 1
        elif y1 <= 0.0 < y0:
            t = -y0 / (y1 - y0)
            if x0 + t * (x1 - x0) > 0.0:
                w -= 1
    return w


def left_riemann(f, a: float, b: float, k: int) -> float:
    h = (b - a) / k
    return sum(f(a + j * h) for j in range(k)) * h


def dyadic_midpoints(points) -> tuple:
    """Dyadic refinement by a plain loop: (a + b) / 2 inserted between a and b."""
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        out += [(a + b) / 2, b]
    return tuple(out)


def max_gap(points) -> float:
    """Mesh by a plain loop: the largest abs(b - a), 0.0 for a single point."""
    best = 0.0
    for a, b in zip(points, points[1:]):
        best = max(best, abs(b - a))
    return best
