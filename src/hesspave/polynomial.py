"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are frozen sorted tuples of (variable, exponent); coefficients are
Fractions.  Only what symbolic matrix conjugation needs: ring arithmetic
and zero testing.  Variables are arbitrary hashable, sortable
labels (we use root/variable name pairs).
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Poly"]

_ZERO = Fraction(0)


class Poly:
    """Immutable sparse polynomial: {monomial: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return cls({(): c}) if c else cls()

    @classmethod
    def var(cls, name) -> "Poly":
        return cls({((name, 1),): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        return self.terms == Poly.const(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return Poly.const(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            mono = "*".join(
                f"{name}" if e == 1 else f"{name}^{e}" for name, e in m
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))
