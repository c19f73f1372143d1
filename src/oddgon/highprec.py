"""High-precision mirrors of the closed-form quantities, built on mpmath.

These functions are the oracle side of every dual-route check: they never
call into the float implementation modules, and they evaluate the vertex
coordinate and sheared-coordinate formulas directly from their summation
definitions at BASE_DIGITS = 64 significant digits.
"""
from __future__ import annotations

import mpmath

BASE_DIGITS = 64


def oracle_digits() -> int:
    return BASE_DIGITS


def _ws():
    return mpmath.workdps(oracle_digits())


def telescoping_sides(theta, k: int):
    """Both sides of the cot-half telescoping identity as mpf values."""
    with _ws():
        th = mpmath.mpf(theta)
        lhs = mpmath.cos(th / 2) / mpmath.sin(th / 2) * mpmath.sin(k * th)
        rhs = 1 + 2 * mpmath.fsum(mpmath.cos(i * th) for i in range(1, k)) + mpmath.cos(k * th)
        return lhs, rhs


def identity_sum_sides(alpha, k: int):
    with _ws():
        a = mpmath.mpf(alpha)
        cot_half = mpmath.cos(a / 2) / mpmath.sin(a / 2)
        lhs = mpmath.fsum(cot_half * mpmath.sin(i * a) for i in range(1, k + 1))
        rhs = k + mpmath.fsum((2 * (k - i) + 1) * mpmath.cos(i * a) for i in range(1, k + 1))
        return lhs, rhs


def shear_coefficient(n: int):
    """2 cot(pi/n) as an mpf."""
    with _ws():
        return 2 / mpmath.tan(mpmath.pi / n)


def vertex(family: str, n: int, k: int):
    """Level-k side vertex of the double n-gon from the summation formulas."""
    with _ws():
        a = 2 * mpmath.pi / n
        cs = mpmath.fsum(mpmath.cos(i * a) for i in range(1, k + 1))
        ss = mpmath.fsum(mpmath.sin(i * a) for i in range(1, k + 1))
        if family == "upper_right":
            return 1 + cs, ss
        if family == "upper_left":
            return -cs, ss
        if family == "lower_right":
            return -mpmath.cos(a) + cs, mpmath.sin(a) - ss
        if family == "lower_left":
            return -1 - mpmath.cos(a) - cs, mpmath.sin(a) - ss
        raise ValueError(f"unknown point family {family!r}")


def sheared_x_closed_form(family: str, n: int, k: int):
    """The cosine-polynomial closed form for the sheared x-coordinate."""
    with _ws():
        a = 2 * mpmath.pi / n
        ca = mpmath.cos(a)
        s3 = mpmath.fsum((4 * (k - i) + 3) * mpmath.cos(i * a) for i in range(1, k + 1))
        s1 = mpmath.fsum((4 * (k - i) + 1) * mpmath.cos(i * a) for i in range(1, k + 1))
        if family == "upper_right":
            return 2 * k + 1 + s3
        if family == "upper_left":
            return 2 * k + s1
        if family == "lower_right":
            return 2 - 2 * k + ca - s1
        if family == "lower_left":
            return 1 - 2 * k + ca - s3
        raise ValueError(f"unknown point family {family!r}")


def sheared_x_via_matrix(family: str, n: int, k: int):
    """Matrix route: x + 2 cot(pi/n) y applied to the high-precision vertex."""
    with _ws():
        x, y = vertex(family, n, k)
        return x + shear_coefficient(n) * y
