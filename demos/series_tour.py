"""Truncated series in three scenes.

First the special-relativity kinetic factor, then the Gamma function
around its pole at the origin, then a round trip: truncate, invert,
re-expand, and watch the closed form come back.
"""

from fractions import Fraction

from minicas import (
    Eq,
    Symbol,
    add,
    gamma,
    mul,
    power,
    ps_to_expr,
    series_coeff,
    series_of,
    to_string,
)


def main():
    v, c = Symbol("v"), Symbol("c")
    lorentz = power(add(1, mul(-1, power(v, 2), power(c, -2))), Fraction(-1, 2))
    s = series_of(lorentz, Eq(v, 0), 6)
    print("1/sqrt(1-v^2/c^2) at v=0:")
    print("   ", to_string(s))

    # the inverse square of the truncation recovers 1 - v^2/c^2 exactly
    back = series_of(power(ps_to_expr(s), -2), Eq(v, 0), 6)
    print("inverse square, re-expanded:")
    print("   ", to_string(back))

    x = Symbol("x")
    print("gamma(x) around the pole at x=0:")
    print("   ", to_string(series_of(gamma(x), Eq(x, 0), 3)))
    # the coefficients come out expanded: polynomials in Euler, Pi and
    # the odd zeta values
    s = series_of(gamma(x), Eq(x, 0), 7)
    print("coefficients through x^6:")
    for k in range(-1, 7):
        print(f"    x^{k}: {to_string(series_coeff(s, k))}")


if __name__ == "__main__":
    main()
