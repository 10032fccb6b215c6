"""Exact rational and cyclotomic arithmetic, on Fractions.

Two number domains live here, the only ones that need ``fractions``; the
integer and prime-field arithmetic under them is in `modp`:

* ``CycloNumber``: an element of the cyclotomic field Q(zeta_M), stored as a
  dense vector of rationals in the power basis 1, zeta, ..., zeta^(phi(M)-1)
  reduced modulo the M-th cyclotomic polynomial.  Every group works inside a
  single fixed conductor M, so no field towers ever appear.

* ``LaurentPoly``: a sparse Laurent polynomial in one variable with exact
  coefficients (int, Fraction or CycloNumber).  The engine uses it, in the
  variable ``X`` and with integer coefficients, for the Poincare series and
  the fake degrees.

The reduction modulo Phi_M reads `modp.cyclotomic`, and the ring map of
Z[zeta_M] to F_p, the engine's one prime search, is `modp.residue_map`.

Everything is immutable by convention and hash/compare-safe, so values can be
used as dictionary keys.  No floating point is used anywhere.

>>> ctx = cyclo_context(5)
>>> zeta = CycloNumber(ctx, tuple(map(Fraction, ctx.zeta_vector(1))))
>>> g = zeta + zeta * zeta * zeta * zeta
>>> g * g + g == cyclo_rational(5, 1)
True

The value g = zeta + zeta^4 above is 2*cos(2*pi/5), a root of
x^2 + x - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistencyError, UsageError
from .modp import cyclotomic

__all__ = [
    "CycloContext",
    "CycloNumber",
    "LaurentPoly",
    "cyclo_context",
    "cyclo_rational",
    "is_palindromic",
]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# cyclotomic field context

class CycloContext:
    """Shared tables for one conductor M: reduction rows and zeta powers.

    Instances are interned through :func:`cyclo_context`; identity comparison
    of contexts is therefore safe and cheap.
    """

    __slots__ = (
        "order", "degree", "_red", "_zeta_rows", "_conj_rows", "zero",
    )

    def __init__(self, order: int):
        if order < 1:
            raise UsageError("conductor must be positive")
        self.order = order
        mod = cyclotomic(order)
        phi = len(mod) - 1
        self.degree = phi
        first = tuple(-c for c in mod[:phi])                # zeta^phi reduced
        # zeta^k for all k modulo M, as integer vectors
        rows = []
        vec = [0] * phi
        vec[0] = 1
        for _ in range(order):
            rows.append(tuple(vec))
            top = vec[phi - 1]
            nxt = ([0] + vec[:phi - 1]) if phi > 1 else [0]
            if top:
                for j in range(phi):
                    nxt[j] += top * first[j]
            vec = nxt
        if tuple(vec) != rows[0]:
            raise InternalInconsistencyError("zeta powers do not close at M")
        self._zeta_rows = tuple(rows)
        # reduction rows: zeta^k for k in [phi, 2*phi-2], read off the table
        self._red = tuple(rows[k % order] for k in range(phi, 2 * phi - 1))
        self._conj_rows = tuple(rows[(order - k) % order] for k in range(order))
        self.zero = CycloNumber(self, (_ZERO,) * phi)

    def __repr__(self) -> str:
        return f"CycloContext(order={self.order}, degree={self.degree})"

    def zeta_vector(self, k: int) -> tuple:
        return self._zeta_rows[k % self.order]

    def mul_coeffs(self, a: tuple, b: tuple) -> tuple:
        """Product of two power-basis coefficient vectors, reduced mod
        Phi_M, as Fractions."""
        phi = self.degree
        acc = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        acc[j] += x * y
        red = self._red
        for k in range(2 * phi - 2, phi - 1, -1):
            c = acc[k]
            if c:
                for j, r in enumerate(red[k - phi]):
                    if r:
                        acc[j] += c * r
        return tuple(acc[:phi])


@lru_cache(maxsize=None)
def cyclo_context(order: int) -> CycloContext:
    return CycloContext(order)


class CycloNumber:
    """An element of Q(zeta_M) in the reduced power basis.

    Construct through :func:`cyclo_rational` or from a context's
    ``zero`` and ``zeta_vector`` rows.  Arithmetic between
    different conductors is a usage error by design: one group, one field.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloContext, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.ctx is not self.ctx:
                if other.ctx.order != self.ctx.order:
                    raise UsageError(
                        f"conductor mismatch: {self.ctx.order} vs {other.ctx.order}"
                    )
            return other
        if isinstance(other, (int, Fraction)):
            return cyclo_rational(self.ctx.order, other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNumber(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ctx.zero
            if other == 1:
                return self
            return CycloNumber(self.ctx, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.ctx, self.ctx.mul_coeffs(self.coeffs, o.coeffs)
        )

    __rmul__ = __mul__

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation, i.e. the Galois map zeta -> zeta^(-1)."""
        ctx = self.ctx
        phi = ctx.degree
        acc = [_ZERO] * phi
        for j, c in enumerate(self.coeffs):
            if c:
                row = ctx._conj_rows[j]
                for k in range(phi):
                    r = row[k]
                    if r:
                        acc[k] += c * r
        return CycloNumber(ctx, tuple(acc))

    # -- predicates and conversions ---------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise UsageError("cyclotomic number is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            return (
                self.ctx.order == other.ctx.order and self.coeffs == other.coeffs
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.ctx.order, self.coeffs))

    def render(self) -> str:
        """Canonical text form, e.g. ``1/2 + z5^1 - z5^3``; bit-stable."""
        if self.is_rational():
            return str(self.coeffs[0])
        m = self.ctx.order
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = str(abs(c)) if (abs(c) != 1 or k == 0) else ""
            base = f"z{m}^{k}" if k else ""
            body = f"{mag}*{base}" if (mag and base) else (mag or base)
            parts.append((c < 0, body))
        out = []
        for i, (neg, body) in enumerate(parts):
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append((" - " if neg else " + ") + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"CycloNumber({self.ctx.order}, {self.render()})"


# -- constructors ----------------------------------------------------------

def cyclo_rational(order: int, value) -> CycloNumber:
    ctx = cyclo_context(order)
    v = Fraction(value)
    if not v:
        return ctx.zero
    return CycloNumber(ctx, (v,) + (_ZERO,) * (ctx.degree - 1))


# ---------------------------------------------------------------------------
# sparse Laurent polynomials


def _czero(c) -> bool:
    return not c


class LaurentPoly:
    """Sparse Laurent polynomial in a single named variable.

    Coefficients may be int, Fraction or CycloNumber (mixing is fine, ints
    absorb into the richer domain).  Zero coefficients are never stored, so
    equality of the coefficient dictionaries is structural equality of the
    polynomials.  Treat instances as immutable.

    >>> p = LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)
    >>> (p * p).render()
    'v^-2 + 2 + v^2'
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs: dict | None = None, var: str = "v"):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not _czero(c):
                    clean[e] = c
        self.var = var
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "v") -> "LaurentPoly":
        return cls({}, var)

    @classmethod
    def constant(cls, c, var: str = "v") -> "LaurentPoly":
        return cls({0: c}, var)

    @classmethod
    def monomial(cls, exp: int, coeff=1, var: str = "v") -> "LaurentPoly":
        return cls({exp: coeff}, var)

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise UsageError("valuation of the zero polynomial")
        return min(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise UsageError("degree of the zero polynomial")
        return max(self.coeffs)

    def coeff(self, exp: int):
        return self.coeffs.get(exp, 0)

    def _check(self, other: "LaurentPoly"):
        if self.var != other.var:
            raise UsageError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = LaurentPoly.constant(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) + c
            if _czero(s):
                d.pop(e, None)
            else:
                d[e] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.var = self.var
        out.coeffs = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.var = self.var
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = LaurentPoly.constant(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            if _czero(other):
                return LaurentPoly.zero(self.var)
            out = LaurentPoly.__new__(LaurentPoly)
            out.var = self.var
            out.coeffs = {}
            for e, c in self.coeffs.items():
                p = c * other
                if not _czero(p):
                    out.coeffs[e] = p
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                d[e] = s
        out = LaurentPoly.__new__(LaurentPoly)
        out.var = self.var
        out.coeffs = {e: c for e, c in d.items() if not _czero(c)}
        return out

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def at_one(self):
        """Sum of coefficients, i.e. evaluation at var = 1."""
        total = 0
        for c in self.coeffs.values():
            total = c + total
        return total

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycloNumber)):
            if _czero(other):
                return not self.coeffs
            return set(self.coeffs) == {0} and self.coeffs[0] == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text, ascending exponents: ``v^-2 + 2 + v^2``."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            neg = False
            if isinstance(c, CycloNumber):
                if c.is_rational():
                    f = c.as_fraction()
                    neg = f < 0
                    cs = str(-f if neg else f)
                else:
                    cs = "(" + c.render() + ")"
            else:
                neg = c < 0
                cs = str(-c if neg else c)
            if e == 0:
                body = cs
            else:
                var = self.var if e == 1 else f"{self.var}^{e}"
                body = var if cs == "1" else f"{cs}*{var}"
            parts.append((neg, body))
        out = []
        for i, (neg, body) in enumerate(parts):
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append((" - " if neg else " + ") + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly[{self.var}]({self.render()})"


# -- predicates ----------------------------------------------------------

def is_palindromic(p: LaurentPoly):
    """Return the witness u with coeff(e) == coeff(u - e) for all e, else None.

    Defined for nonzero polynomials with nonnegative exponents only; u is
    always valuation + degree.
    """
    if not p:
        raise UsageError("palindromicity of the zero polynomial is undefined")
    lo = p.valuation()
    if lo < 0:
        raise UsageError("palindromicity needs nonnegative exponents")
    u = lo + p.degree()
    for e, c in p.coeffs.items():
        if p.coeffs.get(u - e, 0) != c:
            return None
    return u
