"""Independent slow reference implementations used only by the tests.

Nothing here reaches into coxcells internals beyond the public tables; the
point is to recompute the same quantities along different routes.  That
includes the direct classification lane: the all-pairs h-table, an exact
dense rational inverse of the transport matrix, asymptotic traces from that
inverse and generic-algebra traces through the dual-basis expansion.  The
streamed lane in coxcells.classify is checked against it, and its block
solve against that inverse and against every right cell solved on all
the class sums (the library solves a cell on its own columns when fewer).
The lane reads each irreducible's two-sided cell off its asymptotic
traces (the library takes it from the solve).
Fake degrees in Q(zeta_M) over one common denominator (the library works
modulo one prime), with the reflection characteristic polynomials taken
from powers of the exact reflection matrices, and modulo that prime from
the character table's reflection row by Newton's identities (the library
reduces the matrices), the degrees peeled off a Poincare polynomial (the
library checks the product over the closed-form degrees),
canonical-basis products through the T-basis, left cell modules with the
v=1 sign convention they pin, the row-by-row leading scan over the
all-pairs table, the leading scan over every row of every block (the
program reads only the left-cell rows of one block per
diagram-automorphism orbit), and the cross-cutting property checks on a
finished classification live here for the same reason.

So do the helpers only the tests use: the Bruhat order, descent sets,
roots of unity as CycloNumbers, the CycloNumber reflection matrices with
their 2cos(pi/m) entries, the embedding of one cyclotomic field into a
larger one, complex embeddings, powers and inverses of CycloNumbers,
character multiplicities, the value-polynomial arithmetic (`vp` extends
the library's constants), the packing that `klbase.unpack` inverts, a few
LaurentPoly operations, and the LaurentPoly division and cyclotomic
polynomials that the Q(zeta) fake degrees above use (the library divides
dense integer lists instead), the cyclotomic ones as quotients of X^n - 1
(`modp.cyclotomic` multiplies and divides by 1 - X^d instead).  The
characteristic polynomial mod p from power traces, by Newton's
identities, cross-checks the library's Hessenberg one.
`reseal_cache` edits a cache file behind its digest.  The KL
polynomials come once more from the recursion `klbase.compute_kl` runs,
on one dict per row and with no use of the symmetry of a row under its
first letter.
"""

import cmath
import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from coxcells.classify import (
    ClassifyResult,
    _cell_solve,
    _finish_records,
    _transport_blocks,
    classify_involutions,
    word_name,
)
from coxcells.errors import InternalInconsistencyError, UsageError
from coxcells.exactnum import (
    CycloNumber,
    LaurentPoly,
    cyclo_context,
    cyclo_rational,
)
from coxcells.klbase import (
    HTable,
    generator_rows,
    stream_h_blocks,
)
from coxcells.klbase import vp as _vp


# ---------------------------------------------------------------------------
# helpers on the library's types that only the tests need


class vp(_vp):
    """The library's value-polynomial constants plus the arithmetic the
    oracles and tests use: normalization, sums, scaling, products,
    subtraction, shifts, coefficients, degree, bar symmetry and
    conversions, with the value at v = 1 that the library takes from
    the block recursion at slot width 0 instead (`klbase._h_block`)."""

    @staticmethod
    def at_one(a: tuple) -> int:
        return sum(a[1])

    @staticmethod
    def norm(val: int, coeffs: list) -> tuple:
        lo = 0
        hi = len(coeffs)
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        while lo < hi and not coeffs[lo]:
            lo += 1
        if lo == hi:
            return vp.ZERO
        return (val + lo, tuple(coeffs[lo:hi]))

    @staticmethod
    def add(a: tuple, b: tuple) -> tuple:
        if not a[1]:
            return b
        if not b[1]:
            return a
        lo = min(a[0], b[0])
        hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
        out = [0] * (hi - lo)
        for i, c in enumerate(a[1]):
            out[a[0] - lo + i] += c
        for i, c in enumerate(b[1]):
            out[b[0] - lo + i] += c
        return vp.norm(lo, out)

    @staticmethod
    def scale(a: tuple, k: int) -> tuple:
        if not k or not a[1]:
            return vp.ZERO
        if k == 1:
            return a
        return (a[0], tuple(c * k for c in a[1]))

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        if not a[1] or not b[1]:
            return vp.ZERO
        out = [0] * (len(a[1]) + len(b[1]) - 1)
        for i, x in enumerate(a[1]):
            if x:
                for j, y in enumerate(b[1]):
                    if y:
                        out[i + j] += x * y
        return vp.norm(a[0] + b[0], out)

    @staticmethod
    def sub(a: tuple, b: tuple) -> tuple:
        return vp.add(a, vp.neg(b))

    @staticmethod
    def neg(a: tuple) -> tuple:
        return (a[0], tuple(-c for c in a[1]))

    @staticmethod
    def shift(a: tuple, k: int) -> tuple:
        if not a[1]:
            return vp.ZERO
        return (a[0] + k, a[1])

    @staticmethod
    def coeff(a: tuple, e: int) -> int:
        i = e - a[0]
        if 0 <= i < len(a[1]):
            return a[1][i]
        return 0

    @staticmethod
    def deg(a: tuple) -> int:
        if not a[1]:
            raise UsageError("degree of zero")
        return a[0] + len(a[1]) - 1

    @staticmethod
    def bar_symmetric(a: tuple) -> bool:
        """Invariance under v -> v^-1."""
        if not a[1]:
            return True
        return a[0] == -(a[0] + len(a[1]) - 1) and a[1] == a[1][::-1]

    @staticmethod
    def to_laurent(a: tuple, var: str = "v") -> LaurentPoly:
        return LaurentPoly(
            {a[0] + i: c for i, c in enumerate(a[1]) if c}, var
        )

    @staticmethod
    def from_q(qcoeffs: tuple, shift: int = 0) -> tuple:
        """Polynomial in q = v^2 as a v-polynomial, then shifted by v^shift."""
        if not qcoeffs:
            return vp.ZERO
        out = [0] * (2 * len(qcoeffs) - 1)
        for i, c in enumerate(qcoeffs):
            out[2 * i] = c
        return vp.norm(shift, out)


def pack(a: tuple, bits: int, off: int) -> int:
    """The packed integer a(2^bits) * 2^(bits * off) of a value
    polynomial, the inverse of `klbase.Packing.unpack`."""
    return sum(c << bits * (a[0] + i + off) for i, c in enumerate(a[1]))


def bar(p: LaurentPoly) -> LaurentPoly:
    """The involution var -> var^(-1)."""
    return LaurentPoly({-e: c for e, c in p.coeffs.items()}, p.var)


def cyclo_inverse(x: CycloNumber) -> CycloNumber:
    """Inverse of any nonzero element of Q(zeta_M): a rational directly,
    anything else by the extended Euclid algorithm modulo Phi_M."""
    if x.is_rational():
        return cyclo_rational(x.ctx.order, 1 / x.coeffs[0])
    mod = [Fraction(c) for c in _cyclotomic_coeffs(x.ctx.order)]
    inv = _fracpoly_invmod(list(x.coeffs), mod)
    phi = x.ctx.degree
    inv = inv + [Fraction(0)] * (phi - len(inv))
    return CycloNumber(x.ctx, tuple(inv[:phi]))


def _fracpoly_divmod(a: list, b: list):
    """divmod for dense Fraction polynomials, ascending coefficients."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] / lead
        k = len(a) - 1 - db
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
        while a and not a[-1]:
            a.pop()
    return q, a


def _fracpoly_invmod(a: list, mod: list) -> list:
    """Inverse of a modulo mod over Q, both dense ascending Fraction lists."""
    r0, r1 = list(mod), [Fraction(x) for x in a]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) == 1:
            c = r1[0]
            return [x / c for x in s1]
        if not r1:
            raise InternalInconsistencyError("non-invertible cyclotomic element")
        q, r = _fracpoly_divmod(r0, r1)
        qs = _dense_mul(q, s1)
        news = [x - y for x, y in _zip_pad(s0, qs)]
        r0, r1 = r1, r
        s0, s1 = s1, news


def _zip_pad(a: list, b: list):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def cyclo_pow(x: CycloNumber, n: int) -> CycloNumber:
    """x^n by repeated squaring; a negative n inverts first."""
    if n < 0:
        return cyclo_pow(cyclo_inverse(x), -n)
    out = cyclo_one(x.ctx.order)
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


def from_pairs(pairs, var: str = "v") -> LaurentPoly:
    """Laurent polynomial from (exponent, coefficient) pairs, summing
    repeated exponents."""
    d = {}
    for e, c in pairs:
        d[e] = d.get(e, 0) + c
    return LaurentPoly(d, var)


def shift(p: LaurentPoly, k: int) -> LaurentPoly:
    """Multiply by var^k."""
    return LaurentPoly({e + k: c for e, c in p.coeffs.items()}, p.var)


def stretch(p: LaurentPoly, k: int) -> LaurentPoly:
    """Substitute var -> var^k (exponent dilation)."""
    return LaurentPoly({e * k: c for e, c in p.coeffs.items()}, p.var)


def rename(p: LaurentPoly, var: str) -> LaurentPoly:
    return LaurentPoly(p.coeffs, var)


def evaluate(p: LaurentPoly, value):
    inv = None
    total = 0
    for e, c in p.coeffs.items():
        if e >= 0:
            total = total + c * value ** e
        else:
            if inv is None:
                inv = Fraction(1, value) if isinstance(value, int) else 1 / value
            total = total + c * inv ** (-e)
    return total


def complex_value(x: CycloNumber, embedding: int = 1) -> complex:
    """Numeric value under zeta -> exp(2*pi*i*embedding/M)."""
    if gcd(embedding, x.ctx.order) != 1:
        raise UsageError("embedding index must be coprime to the conductor")
    z = cmath.exp(2j * cmath.pi * embedding / x.ctx.order)
    return sum(float(c) * z ** k for k, c in enumerate(x.coeffs))


def root_of_unity(order: int, k: int) -> CycloNumber:
    """zeta_M^k as an exact field element."""
    ctx = cyclo_context(order)
    return CycloNumber(ctx, tuple(Fraction(c) for c in ctx.zeta_vector(k)))


def cyclo_zero(order: int) -> CycloNumber:
    return cyclo_context(order).zero


def cyclo_one(order: int) -> CycloNumber:
    return cyclo_rational(order, 1)


def embed_cyclo(x: CycloNumber, order: int) -> CycloNumber:
    """Carry x from Q(zeta_m) into Q(zeta_order) via zeta_m -> zeta_order^(order/m).

    Requires m to divide order; the identity map when the orders agree.
    """
    src = x.ctx.order
    if src == order:
        return x
    if order % src:
        raise UsageError(
            f"cannot embed conductor {src} into conductor {order}"
        )
    ctx = cyclo_context(order)
    step = order // src
    out = [Fraction(0)] * ctx.degree
    for i, c in enumerate(x.coeffs):
        if c:
            for j, z in enumerate(ctx.zeta_vector((step * i) % order)):
                if z:
                    out[j] += c * z
    return CycloNumber(ctx, tuple(out))


def two_cos_pi_over(order: int, m: int) -> CycloNumber:
    """2*cos(pi/m) inside Q(zeta_order).

    Written as zeta_{2m} + zeta_{2m}^(-1) when zeta_{2m} lies in the field;
    for odd m the identity zeta_{2m} = -zeta_m^((m+1)/2) lets the value live
    in Q(zeta_m) already.
    """
    if m < 1:
        raise UsageError("cosine denominator must be positive")
    if order % (2 * m) == 0:
        k = order // (2 * m)
        return root_of_unity(order, k) + root_of_unity(order, -k % order)
    if m % 2 == 1 and order % m == 0:
        k = (order // m) * ((m + 1) // 2)
        return -(root_of_unity(order, k) + root_of_unity(order, -k % order))
    raise UsageError(f"2*cos(pi/{m}) does not lie in Q(zeta_{order})")


def gamma(table, x: int, y: int, z: int) -> int:
    """gamma_{x,y,z} read off a GammaTable's leading coefficients."""
    return table.lead.get((x, y, table.group.inverse[z]), 0)


def left_descents(group, w: int) -> tuple:
    mask = group.left_descent_mask[w]
    return tuple(s for s in range(group.datum.rank) if mask >> s & 1)


def right_descents(group, w: int) -> tuple:
    """The right descents of w are the left descents of its inverse."""
    return left_descents(group, group.inverse[w])


def bruhat_leq(group, x: int, y: int) -> bool:
    """Bruhat order test by descending through y's canonical word."""
    if not 0 <= x < group.size or not 0 <= y < group.size:
        raise UsageError("element index out of range")
    lengths = group.length
    word = group.words[y]
    # peel the last letter of y repeatedly; drop the same letter from x
    # exactly when it is a right descent there
    for pos in range(len(word) - 1, -1, -1):
        if lengths[x] > pos + 1:
            return False
        if x == 0:
            return True
        s = word[pos]
        if lengths[group.right[s][x]] < lengths[x]:
            x = group.right[s][x]
    return x == 0


# ---------------------------------------------------------------------------
# LaurentPoly division and cyclotomic polynomials


def _dense_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _dense_mul(a: list, b: list) -> list:
    """Product of dense polynomials, ascending coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _dense_trim(out)


def _dense_divmod(num: list, den: list) -> tuple:
    """Quotient and remainder of dense integer polynomials, the remainder
    trimmed and below deg den; den must be trimmed, and a quotient
    coefficient that is not an integer raises."""
    rem = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = rem[k + len(den) - 1]
        if c % lead:
            raise InternalInconsistencyError("inexact dense polynomial division")
        c //= lead
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                rem[k + j] -= c * dj
    return q, _dense_trim(rem[:len(den) - 1])


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending,
    as the quotient of X^n - 1 by the product of the Phi_d over the proper
    divisors d of n (the library builds it from products of 1 - X^d)."""
    if n < 1:
        raise UsageError("cyclotomic index must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]          # X^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _dense_mul(den, list(_cyclotomic_coeffs(d)))
    q, r = _dense_divmod(num, den)
    if r:
        raise InternalInconsistencyError("inexact cyclotomic division")
    return tuple(q)


def _coeff_div(a, b):
    """Exact coefficient division a/b; raise when not exact over the ints
    or when b is an irrational cyclotomic number."""
    if isinstance(b, CycloNumber) or isinstance(a, CycloNumber):
        if not isinstance(b, CycloNumber):
            b = cyclo_rational(a.ctx.order, b)
        if not b.is_rational():
            raise InternalInconsistencyError(
                f"division by irrational {b.render()}"
            )
        return cyclo_inverse(b) * a
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(a) / Fraction(b)
    q, r = divmod(a, b)
    if r:
        raise InternalInconsistencyError("inexact integer coefficient division")
    return q


def exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact polynomial division; a nonzero remainder is an internal error."""
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise UsageError("exact_divide expects LaurentPoly operands")
    num._check(den)
    if not den:
        raise UsageError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero(num.var)
    nv, dv = num.valuation(), den.valuation()
    q, r = poly_divmod(shift(num, -nv), shift(den, -dv))
    if r:
        raise InternalInconsistencyError(
            f"inexact division: remainder of degree {r.degree()}"
        )
    return shift(q, nv - dv)


def poly_divmod(num: LaurentPoly, den: LaurentPoly):
    """Quotient and remainder with deg(rem) < deg(den); exponents must be >= 0.

    Coefficient divisions must stay exact (integer leading coefficients other
    than +-1 can make them inexact; such a division raises).
    """
    num._check(den)
    if not den:
        raise UsageError("division by the zero polynomial")
    if (num and num.valuation() < 0) or den.valuation() < 0:
        raise UsageError("poly_divmod needs nonnegative exponents")
    work = dict(num.coeffs)
    dd = den.degree()
    lead = den.coeffs[dd]
    q = {}
    while work and max(work) >= dd:
        wd = max(work)
        c = _coeff_div(work[wd], lead)
        k = wd - dd
        q[k] = c
        for e, dc in den.coeffs.items():
            t = work.get(k + e, 0) - c * dc
            if not t:
                work.pop(k + e, None)
            else:
                work[k + e] = t
    return LaurentPoly(q, num.var), LaurentPoly(work, num.var)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int, var: str = "X") -> LaurentPoly:
    """The n-th cyclotomic polynomial with integer coefficients."""
    coeffs = _cyclotomic_coeffs(n)
    return LaurentPoly({e: c for e, c in enumerate(coeffs) if c}, var)


def degrees_from_poincare(poincare: LaurentPoly, rank: int, order: int) -> tuple:
    """Solve W(X) = prod_i (1 + X + ... + X^(d_i - 1)) for the degrees d_i.

    Factors W into cyclotomic polynomials, then peels the largest index as
    the largest degree repeatedly; each factor 1 + ... + X^(d-1) contributes
    exactly the cyclotomics Phi_e with e | d, e > 1.  The library compares
    the length counts with the product over the closed-form degrees
    instead; this peeling is why a match there fixes the degrees.
    """
    if poincare.at_one() != order:
        raise InternalInconsistencyError("Poincare polynomial mass mismatch")
    if poincare.valuation() < 0:
        raise UsageError("a Poincare polynomial has no negative exponents")
    rem = [poincare.coeff(e) for e in range(poincare.degree() + 1)]
    mult = {}
    e = 2
    # phi(e) >= sqrt(e / 2), so Phi_e of degree <= deg rem has e <= 2 deg^2
    while len(rem) > 1 and e <= 2 * (len(rem) - 1) ** 2:
        phi_e = list(_cyclotomic_coeffs(e))
        while True:
            q, r = _dense_divmod(rem, phi_e)
            if r:
                break
            mult[e] = mult.get(e, 0) + 1
            rem = q
        e += 1
    if rem != [1]:
        raise InternalInconsistencyError("Poincare polynomial is not cyclotomic")
    degrees = []
    for _ in range(rank):
        live = [e for e, k in mult.items() if k > 0]
        if not live:
            raise InternalInconsistencyError("cyclotomic cover ran dry early")
        d = max(live)
        for f in range(2, d + 1):
            if d % f == 0:
                mult[f] = mult.get(f, 0) - 1
                if mult[f] < 0:
                    raise InternalInconsistencyError(
                        f"cyclotomic cover infeasible at Phi_{f}"
                    )
        degrees.append(d)
    if any(k > 0 for k in mult.values()):
        raise InternalInconsistencyError("cyclotomic cover left residue")
    degrees.sort()
    prod = 1
    for d in degrees:
        prod *= d
    if prod != order:
        raise InternalInconsistencyError("degree product does not match order")
    return tuple(degrees)


# ---------------------------------------------------------------------------
# the reflection representation over CycloNumbers


def reflection_matrices(datum) -> tuple:
    """Generator matrices as rank x rank tuples of CycloNumbers: generator
    s negates alpha_s and sends alpha_j to alpha_j + 2cos(pi/m_sj) alpha_s,
    so its row s is the only one that differs from the identity's."""
    M = datum.refl_conductor
    ctx = cyclo_context(M)
    one = cyclo_one(M)
    n = datum.rank

    def entry(s, j):
        m = datum.coxeter_matrix[s][j]
        if j == s:
            return -one
        if m == 2:
            return ctx.zero
        if m == 3:
            return one
        return two_cos_pi_over(M, m)

    return tuple(
        tuple(
            tuple(entry(s, j) for j in range(n)) if i == s
            else tuple(one if i == j else ctx.zero for j in range(n))
            for i in range(n)
        )
        for s in range(n)
    )


def matrix_of(group, w: int) -> tuple:
    """Reflection-representation matrix of element w, CycloNumber entries."""
    gens = reflection_matrices(group.datum)
    n = group.datum.rank
    ctx = cyclo_context(group.datum.refl_conductor)
    one = cyclo_one(group.datum.refl_conductor)
    rows = [
        tuple(one if i == j else ctx.zero for j in range(n))
        for i in range(n)
    ]
    for s in group.words[w]:
        g = gens[s]
        rows = [
            tuple(
                sum((rows[i][k] * g[k][j] for k in range(n)), ctx.zero)
                for j in range(n)
            )
            for i in range(n)
        ]
    return tuple(rows)


# ---------------------------------------------------------------------------
# canonical-basis polynomials through R-polynomials


class RPolyOracle:
    """P_{x,y} from the inversion formula against R-polynomials.

    R recursion (s a right descent of y):
        R_{x,y} = R_{xs,ys}                       if xs < x
        R_{x,y} = (q-1) R_{x,ys} + q R_{xs,ys}    if xs > x
    and then P_{x,y} is the unique polynomial of q-degree at most
    (l(y)-l(x)-1)/2 with

        q^(l(y)-l(x)) P_{x,y}(1/q) - P_{x,y}(q)
            = sum over x < z <= y of R_{x,z} P_{z,y}.

    The low-degree part of the right side determines P; the high part is
    checked as a consistency identity.
    """

    def __init__(self, group):
        self.group = group
        self._R = {}
        self._P = {}

    def R(self, x, y):
        g = self.group
        if x == y:
            return LaurentPoly.constant(1, "q")
        if not bruhat_leq(g, x, y):
            return LaurentPoly.zero("q")
        key = (x, y)
        got = self._R.get(key)
        if got is not None:
            return got
        s = g.words[y][-1]
        ys = g.right[s][y]
        xs = g.right[s][x]
        if g.length[xs] < g.length[x]:
            out = self.R(xs, ys)
        else:
            q = LaurentPoly.monomial(1, 1, "q")
            one = LaurentPoly.constant(1, "q")
            out = (q - one) * self.R(x, ys) + q * self.R(xs, ys)
        self._R[key] = out
        return out

    def P(self, x, y):
        g = self.group
        if x == y:
            return LaurentPoly.constant(1, "q")
        if not bruhat_leq(g, x, y):
            return LaurentPoly.zero("q")
        key = (x, y)
        got = self._P.get(key)
        if got is not None:
            return got
        L = g.length[y] - g.length[x]
        interval = [
            z
            for z in range(x + 1, y + 1)
            if bruhat_leq(g, x, z) and bruhat_leq(g, z, y)
        ]
        rhs = LaurentPoly.zero("q")
        for z in interval:
            rhs = rhs + self.R(x, z) * self.P(z, y)
        bound = (L - 1) // 2
        low = LaurentPoly(
            {e: c for e, c in rhs.coeffs.items() if e <= bound}, "q"
        )
        out = LaurentPoly.zero("q") - low
        # consistency: the defining identity must hold on the nose
        lhs = shift(bar(out), L) - out
        if lhs != rhs:
            raise AssertionError(
                f"R/P inversion identity failed at ({x}, {y})"
            )
        self._P[key] = out
        return out


# ---------------------------------------------------------------------------
# naive canonical-basis product over LaurentPoly


def naive_c_product(group, oracle: RPolyOracle, x, y):
    """h-row of c_x c_y computed with LaurentPoly and letter-by-letter
    T-multiplication, no sharing, no integer fast path."""
    v = "v"

    def cvec(w):
        lw = group.length[w]
        out = {}
        for u in range(w + 1):
            p = oracle.P(u, w)
            if p.is_zero():
                continue
            out[u] = shift(stretch(rename(p, v), 2), -lw)
        return out

    def t_s_times(s, vec):
        out = {}
        for u, p in vec.items():
            su = group.left[s][u]
            if group.length[su] > group.length[u]:
                out[su] = out.get(su, LaurentPoly.zero(v)) + p
            else:
                out[su] = out.get(su, LaurentPoly.zero(v)) + shift(p, 2)
                out[u] = out.get(u, LaurentPoly.zero(v)) + shift(p, 2) - p
        return {u: p for u, p in out.items() if not p.is_zero()}

    xv = cvec(x)
    yv = cvec(y)
    total = {}
    for u, f in xv.items():
        piece = dict(yv)
        for s in reversed(group.words[u]):
            piece = t_s_times(s, piece)
        for z, p in piece.items():
            total[z] = total.get(z, LaurentPoly.zero(v)) + f * p
    total = {z: p for z, p in total.items() if not p.is_zero()}

    rows = []
    while total:
        w = max(total)
        h = shift(total[w], group.length[w])
        rows.append((w, h))
        for u, p in cvec(w).items():
            r = total.get(u, LaurentPoly.zero(v)) - h * p
            if r.is_zero():
                total.pop(u, None)
            else:
                total[u] = r
    rows.sort()
    return rows


# ---------------------------------------------------------------------------
# the KL polynomials by the recursion on one dict per row


def _dict_mu_row(row: dict, w: int, length, bits: int) -> tuple:
    """(z, mu(z, w)) pairs, sorted by z, read off the packed P row of w:
    the coefficient of q^((l(w) - l(z) - 1)/2), one slot, nonzero only
    when l(w) - l(z) is odd."""
    lw = length[w]
    mask = (1 << bits) - 1
    mus = []
    for z, n in row.items():
        gap = lw - length[z]
        if gap % 2:
            m = (n >> (gap // 2 * bits)) & mask
            if m:
                mus.append((z, m))
    mus.sort()
    return tuple(mus)


def mu_rows(store) -> list:
    """Per w, the (z, mu(z, w)) pairs with nonzero mu, sorted by z, read
    off the store's P rows by `_dict_mu_row`: every nonzero mu, those the
    W-graph table `KLStore.mu_down` leaves out included."""
    length = store.group.length
    bits = store.packing.bits
    values = store.P_values
    return [_dict_mu_row(dict(zip(ys, map(values.__getitem__, ids))), w,
                         length, bits)
            for w, (ys, ids) in enumerate(zip(store.P_by_w,
                                              store.P_index_by_w))]


def split_mu(group, rows) -> list:
    """(z, mu) rows in the form of `KLStore.mu_down`: per s and w, () at
    s in D_L(w), else the z with s in D_L(z), each listed mu times."""
    lmask = group.left_descent_mask
    return [[() if lmask[w] >> s & 1 else
             tuple(z for z, m in mus if lmask[z] >> s & 1 for _ in range(m))
             for w, mus in enumerate(rows)]
            for s in range(group.datum.rank)]


def compute_kl_dicts(group) -> tuple:
    """(P_by_w, mu_by_w) by the length-increasing recursion that
    `klbase.compute_kl` runs, one dict y -> P_{y,w}(2^bits) per w, bits =
    l(w0) + 2, with no use of P_{y,w} = P_{sy,w}: for w = s u,

        P_{y,w} = q^[sy<y] P_{y,u} + q^[y<sy] P_{sy,u}
                  - sum over z with sz < z of mu(z, u) q^((l(w)-l(z))/2) P_{y,z}
    """
    length = group.length
    left = group.left
    lmask = group.left_descent_mask
    bits = length[group.w0] + 2
    mask = (1 << bits) - 1
    P_by_w = [{0: 1}]
    mu_by_w = [()]
    for w in range(1, group.size):
        s = group.words[w][0]
        u = left[s][w]
        lrow = left[s]
        lw = length[w]
        acc = {}
        get = acc.get
        for y, p in P_by_w[u].items():
            sy = lrow[y]
            if length[sy] < length[y]:
                p <<= bits
            acc[y] = get(y, 0) + p
            acc[sy] = get(sy, 0) + p
        for z, m in mu_by_w[u]:
            if lmask[z] >> s & 1:
                k = (lw - length[z]) // 2 * bits
                for y, p in P_by_w[z].items():
                    acc[y] = get(y, 0) - (p << k) * m
        row = {y: n for y, n in acc.items() if n}
        for y, n in row.items():
            if n & mask != 1 or y != w and (
                    2 * ((n.bit_length() - 1) // bits) >= lw - length[y]):
                raise InternalInconsistencyError(
                    f"P({y},{w}) breaks its degree bound or constant term")
        P_by_w.append(row)
        mu_by_w.append(_dict_mu_row(row, w, length, bits))
    return P_by_w, mu_by_w


# ---------------------------------------------------------------------------
# canonical-basis products row by row through the T-basis, on the store


def P_row(store, w: int) -> dict:
    """The P row of w decoded: y -> ascending q-coefficients of P_{y,w}."""
    return {y: store.P(y, w) for y in store.P_by_w[w]}


def c_vector(store, w: int) -> dict:
    """T-basis coordinates of c_w as a dict y -> value polynomial."""
    lw = store.group.length[w]
    return {y: vp.from_q(qc, -lw) for y, qc in P_row(store, w).items()}


def P_at_one(store, x: int, y: int) -> int:
    return sum(store.P(x, y))


def N_values(store) -> list:
    """N(w) = sum over u of P_{u,w}(1), for every w."""
    return [sum(map(sum, P_row(store, w).values()))
            for w in range(store.group.size)]


def _row_bounds(kit) -> list:
    """T_x, a bound on the sum of |coefficients| over row x of any block,
    assuming no positivity: the slot width `klbase.BlockKit` had before
    its width came from the positivity lemma of `klbase.KLStore`.

    Row e is the single entry 1, c_s multiplies the sum by at most
    max(2, 1 + the most targets the W-graph lists for one s and z), and
    the correction subtracts row z once per listing of z.
    """
    grow = 2
    for col in kit.mu_down:
        grow = max(grow, 1 + max(map(len, col)))
    bound = [1] * kit.size
    for x in range(1, kit.size):
        s = kit.first_letter[x]
        parent = kit.left[s][x]
        bound[x] = bound[parent] * grow + sum(
            bound[z] for z in kit.mu_down[s][parent])
    return bound


def _t_mul_left_gen(group, s: int, vec: dict) -> dict:
    """T_s times a T-basis vector: T_s T_y = T_{sy} or v^2 T_{sy}+(v^2-1)T_y."""
    lrow = group.left[s]
    length = group.length
    out = {}
    for y, p in vec.items():
        sy = lrow[y]
        if length[sy] > length[y]:
            cur = out.get(sy)
            out[sy] = p if cur is None else vp.add(cur, p)
        else:
            q = vp.shift(p, 2)
            cur = out.get(sy)
            out[sy] = q if cur is None else vp.add(cur, q)
            r = vp.add(vp.shift(p, 2), vp.neg(p))
            cur = out.get(y)
            out[y] = r if cur is None else vp.add(cur, r)
    return {y: p for y, p in out.items() if p[1]}


def c_product(store, x: int, y: int) -> tuple:
    """The h-row of c_x c_y as a tuple of (z, value polynomial), sorted by z.

    Expands both factors over the T-basis, multiplies through the quadratic
    relation, and converts back by unitriangular elimination against the
    c-basis.  Fine for single rows; the product code streams blocks instead.
    """
    group = store.group
    xvec = c_vector(store, x)
    yvec = c_vector(store, y)

    # T_u * yvec for every u in the support of c_x, sharing prefixes:
    # T_u = T_s T_u' with s the first letter of u's canonical word
    words = group.words
    need = sorted(xvec)
    memo = {0: yvec}
    for u in need:
        if u in memo:
            continue
        stack = []
        cur = u
        while cur not in memo:
            stack.append(cur)
            cur = group.left[words[cur][0]][cur]
        while stack:
            cur = stack.pop()
            memo[cur] = _t_mul_left_gen(group, words[cur][0], memo[group.left[words[cur][0]][cur]])

    prod = {}
    for u, f in xvec.items():
        for z, p in memo[u].items():
            q = vp.mul(f, p)
            cur = prod.get(z)
            prod[z] = q if cur is None else vp.add(cur, q)
    prod = {z: p for z, p in prod.items() if p[1]}

    # unitriangular conversion: repeatedly strip the highest-index term
    length = group.length
    out = []
    while prod:
        w = max(prod)
        h = vp.shift(prod[w], length[w])
        out.append((w, h))
        for yy, qc in P_row(store, w).items():
            contrib = vp.mul(h, vp.from_q(qc, -length[w]))
            cur = prod.get(yy)
            r = vp.sub(cur, contrib) if cur is not None else vp.neg(contrib)
            if r[1]:
                prod[yy] = r
            else:
                prod.pop(yy, None)
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# the left cell order


def left_leq(store, cells, cell_a: int, cell_b: int) -> bool:
    """Is cell_a weakly below cell_b in the left order?

    Search from the members of cell_b along the generator rows, with an
    edge y -> z whenever some h_{s,y,z} is nonzero.
    """
    group = store.group
    gens = [w for w in range(group.size) if group.length[w] == 1]
    rows = generator_rows(store).rows
    seen = set(cells.left_cells[cell_b])
    todo = list(seen)
    while todo:
        y = todo.pop()
        for s in gens:
            for z, _ in rows[(s, y)]:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
    return cells.left_cells[cell_a][0] in seen


# ---------------------------------------------------------------------------
# standard Young tableaux counts (hook lengths)


def tableaux_count(n):
    """Sum of f_lambda over partitions of n: the number of involutions of
    the symmetric group on n letters, hence the left-cell count in type
    A_{n-1}."""

    def partitions(k, cap=None):
        if cap is None:
            cap = k
        if k == 0:
            yield ()
            return
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    total = 0
    for lam in partitions(n):
        prod = 1
        for i, row in enumerate(lam):
            for j in range(row):
                arm = row - j - 1
                leg = sum(1 for r in lam[i + 1 :] if r > j)
                prod *= arm + leg + 1
        total += factorial(n) // prod
    return total


# ---------------------------------------------------------------------------
# dihedral character tables in closed form


def dihedral_character_table(group):
    """Rows of the I2(m) character table in the group's own class order,
    from the textbook description of dihedral group representations.

    Returns a list of (dim, row) with row a tuple of exact CycloNumber or
    int values aligned to group.conjugacy_classes().representatives.
    """
    m = group.datum.coxeter_matrix[0][1]
    M = group.datum.conductor
    classes = group.conjugacy_classes()
    reps = classes.representatives

    # identify each representative: rotation r^k (even length) or a
    # reflection (odd length); r = s0 s1
    r = group.element_by_word((0, 1))

    def rotation_power(w):
        cur = 0
        for k in range(m):
            if cur == w:
                return k
            cur = group.multiply(cur, r)
        return None

    rows = []
    one = [1] * len(reps)
    rows.append((1, tuple(one)))  # trivial
    sgn = []
    for w in reps:
        sgn.append(1 if group.length[w] % 2 == 0 else -1)
    rows.append((1, tuple(sgn)))  # sign
    if m % 2 == 0:
        # two more linear characters: sign on one generator only
        for which in (0, 1):
            row = []
            for w in reps:
                word = group.words[w]
                count = sum(1 for s in word if s == which)
                row.append(1 if count % 2 == 0 else -1)
            rows.append((1, tuple(row)))
    for j in range(1, (m - 1) // 2 + 1 if m % 2 else m // 2):
        row = []
        for w in reps:
            k = rotation_power(w)
            if k is None:
                row.append(0)
            else:
                z = root_of_unity(M, (M // m) * j * k)
                val = z + z.conjugate()
                row.append(val)
        rows.append((2, tuple(row)))
    return rows


# ---------------------------------------------------------------------------
# brute-force coinvariant algebra for I2(3)


def dihedral3_coinvariant_graded_characters():
    """Graded characters of the coinvariant algebra of I2(3) on its
    reflection representation, degree by degree, by direct linear algebra
    over the rationals.

    Returns a list indexed by degree d of dicts w -> trace of w acting on
    the degree-d piece of S(V*)/(positive-degree invariants), for w over
    all six group elements of the group built by the caller.
    """
    from coxcells import coxeter

    group = coxeter.build_group("I2(3)")
    n = 2

    # exact rational matrices of the reflection representation: conductor of
    # I2(3) is 6 but the cosines are rational (2cos(pi/3) = 1)
    def gen_matrix(s):
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        rows[s][s] = Fraction(-1)
        other = 1 - s
        rows[s][other] = Fraction(1)
        return rows

    mats = {0: gen_matrix(0), 1: gen_matrix(1)}

    def mat_mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def matrix_of(w):
        out = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for s in group.words[w]:
            out = mat_mul(out, mats[s])
        return out

    reps = {w: matrix_of(w) for w in range(group.size)}

    # monomial basis of degree d in two variables; action on polynomials is
    # substitution by the transpose matrix (dual representation)
    def monomials(d):
        return [(i, d - i) for i in range(d + 1)]

    def act_on_poly(mat, poly, d):
        # poly: dict monomial -> Fraction; variables X0, X1 transform by the
        # transpose of mat acting on (X0, X1)
        out = {}
        for (a, b), c in poly.items():
            # (m00 X0 + m10 X1)^a (m01 X0 + m11 X1)^b  with m = mat
            terms = {(0, 0): Fraction(1)}
            for _ in range(a):
                nxt = {}
                for (i, j), cc in terms.items():
                    nxt[(i + 1, j)] = nxt.get((i + 1, j), Fraction(0)) + cc * mat[0][0]
                    nxt[(i, j + 1)] = nxt.get((i, j + 1), Fraction(0)) + cc * mat[1][0]
                terms = nxt
            for _ in range(b):
                nxt = {}
                for (i, j), cc in terms.items():
                    nxt[(i + 1, j)] = nxt.get((i + 1, j), Fraction(0)) + cc * mat[0][1]
                    nxt[(i, j + 1)] = nxt.get((i, j + 1), Fraction(0)) + cc * mat[1][1]
                terms = nxt
            for mono, cc in terms.items():
                out[mono] = out.get(mono, Fraction(0)) + c * cc
        return {mono: cc for mono, cc in out.items() if cc}

    def poly_vector(poly, d):
        basis = monomials(d)
        return [poly.get(mono, Fraction(0)) for mono in basis]

    # Reynolds projection of a monomial, to find the invariants
    def reynolds(mono, d):
        acc = {}
        for w in range(group.size):
            moved = act_on_poly(reps[w], {mono: Fraction(1)}, d)
            for mm, cc in moved.items():
                acc[mm] = acc.get(mm, Fraction(0)) + cc
        return {mm: cc / group.size for mm, cc in acc.items() if cc}

    def row_reduce(rows):
        rows = [list(r) for r in rows]
        pivots = []
        rank = 0
        for col in range(len(rows[0]) if rows else 0):
            piv = None
            for r in range(rank, len(rows)):
                if rows[r][col]:
                    piv = r
                    break
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = Fraction(1) / rows[rank][col]
            rows[rank] = [x * inv for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            pivots.append(col)
            rank += 1
        return rows[:rank], pivots

    # positive-degree invariant generators (degrees 2 and 3)
    inv_gens = []
    for d in (2, 3):
        seen, _ = row_reduce(
            [poly_vector(reynolds(mono, d), d) for mono in monomials(d)]
        )
        basis = monomials(d)
        for rowvec in seen:
            inv_gens.append(
                (d, {basis[i]: c for i, c in enumerate(rowvec) if c})
            )

    max_deg = 3  # number of reflections = top degree of the coinvariants
    graded = []
    for d in range(max_deg + 1):
        basis = monomials(d)
        # span of ideal in degree d: invariant generator times any monomial
        ideal_rows = []
        for gd, gpoly in inv_gens:
            if gd > d:
                continue
            for mono in monomials(d - gd):
                prod = {}
                for (a, b), c in gpoly.items():
                    key = (a + mono[0], b + mono[1])
                    prod[key] = prod.get(key, Fraction(0)) + c
                ideal_rows.append(poly_vector(prod, d))
        reduced, pivots = row_reduce(ideal_rows) if ideal_rows else ([], [])
        chars = {}
        for w in range(group.size):
            # trace on the quotient = trace on degree d minus trace on ideal
            full_trace = Fraction(0)
            for mono in basis:
                moved = act_on_poly(reps[w], {mono: Fraction(1)}, d)
                full_trace += moved.get(mono, Fraction(0))
            # trace on the ideal: image of each reduced basis row, expanded
            # against the reduced basis via its pivot columns; keep diagonal
            ideal_trace = Fraction(0)
            for ridx, rowvec in enumerate(reduced):
                poly = {basis[i]: c for i, c in enumerate(rowvec) if c}
                moved = act_on_poly(reps[w], poly, d)
                vec = poly_vector(moved, d)
                diag = Fraction(0)
                for rr_idx, (rr, pc) in enumerate(zip(reduced, pivots)):
                    f = vec[pc]
                    if rr_idx == ridx:
                        diag = f
                    if f:
                        vec = [a - f * b for a, b in zip(vec, rr)]
                if any(vec):
                    raise AssertionError("ideal not stable in oracle")
                ideal_trace += diag
            chars[w] = full_trace - ideal_trace
        graded.append(chars)
    return group, graded


# ---------------------------------------------------------------------------
# the all-pairs h-table


def compute_h_table(store) -> HTable:
    """Every h row h_{x,y,.}, materialized from the block stream and
    decoded to value polynomials."""
    kit = store.block_kit()
    rows = {}

    def keep(x, y, row):
        rows[(x, y)] = tuple(sorted(
            (z, kit.unpack(p)) for z, p in row.items()
        ))

    stream_h_blocks(store, keep)
    return HTable(store.group, rows)


def leading_scan(htable):
    """(a, lead) by the row-by-row scan of the all-pairs table: per z the
    top degree and the leading coefficients at it, in (y, x) order."""
    size = htable.group.size
    best = [None] * size
    cands = [None] * size
    for (x, y), row in sorted(htable.rows.items(),
                              key=lambda item: item[0][::-1]):
        for z, p in row:
            d = vp.deg(p)
            if best[z] is None or d > best[z]:
                best[z] = d
                cands[z] = {}
            if d == best[z]:
                cands[z][(x, y)] = p[1][-1]
    lead = {
        (x, y, z): c for z in range(size) for (x, y), c in cands[z].items()
    }
    return tuple(best), lead


def full_block_leads(kit, y: int, block: list) -> dict:
    """Per z, the top degree over every row of the block and the (x,
    leading coefficient) pairs that reach it, x ascending."""
    degree = kit.top_degree
    best = {}
    hits = {}
    for x, row in enumerate(block):
        for z, p in row.items():
            d = degree(p)
            b = best.get(z)
            if b is None or d > b:
                best[z] = d
                hits[z] = [(x, p)]
            elif d == b:
                hits[z].append((x, p))
    return {
        z: (best[z], [(x, kit.lead(p)[1]) for x, p in xs])
        for z, xs in hits.items()
    }


def full_leading_scan(store):
    """(a, lead) over every row of every block, with no cell or symmetry
    taken into account; merging the blocks in order keeps the (y, x)
    order of a scan row by row."""
    size = store.group.size
    best = [None] * size
    cands = [None] * size

    def merge(y, top):
        for z, (d, xs) in top.items():
            b = best[z]
            if b is None or d > b:
                best[z] = d
                cands[z] = {(x, y): c for x, c in xs}
            elif d == b:
                cands[z].update(((x, y), c) for x, c in xs)

    stream_h_blocks(store, merge, reduce=full_block_leads)
    lead = {
        (x, y, z): c
        for z in range(size)
        for (x, y), c in cands[z].items()
    }
    return tuple(best), lead


def dagger_T_basis(store, x: int) -> dict:
    """T-basis expansion of the image of c_x under the automorphism
    sending T_s to -T_s^(-1).

    On T_w the map acts by T_w -> (-1)^l(w) (T_{w^-1})^(-1); inverse basis
    vectors are built by the right-multiplication rule
    X T_s^(-1) = v^(-2) (X T_s) - (1 - v^(-2)) X.
    """
    group = store.group
    length = group.length

    # (T_{y^-1})^(-1) accumulated by chaining along the canonical word of y
    inv_memo = {0: {0: vp.ONE}}

    def inv_of(y: int) -> dict:
        # returns the expansion of (T_{y^-1})^(-1)
        got = inv_memo.get(y)
        if got is not None:
            return got
        # chain: word(y) = word(parent) + (s) with parent = y s
        word = group.words[y]
        s = word[-1]
        parent = group.right[s][y]
        base = inv_of(parent)
        out = {}
        rrow = group.right[s]
        for u, p in base.items():
            us = rrow[u]
            if length[us] > length[u]:
                # X T_s at T_u flows to T_{us}; then scale v^-2
                q = vp.shift(p, -2)
                cur = out.get(us)
                out[us] = q if cur is None else vp.add(cur, q)
            else:
                q = p  # v^-2 * v^2 T_{us}
                cur = out.get(us)
                out[us] = q if cur is None else vp.add(cur, q)
                r = vp.sub(p, vp.shift(p, -2))  # v^-2 (v^2-1) p = (1 - v^-2) p
                cur = out.get(u)
                out[u] = r if cur is None else vp.add(cur, r)
            # subtract (1 - v^-2) X
            r2 = vp.sub(vp.shift(p, -2), p)
            cur = out.get(u)
            out[u] = r2 if cur is None else vp.add(cur, r2)
        out = {u: p for u, p in out.items() if p[1]}
        inv_memo[y] = out
        return out

    lw = length[x]
    total = {}
    for y, qc in P_row(store, x).items():
        f = vp.from_q(qc, -lw)
        if length[y] % 2:
            f = vp.neg(f)
        for u, p in inv_of(y).items():
            q = vp.mul(f, p)
            cur = total.get(u)
            total[u] = q if cur is None else vp.add(cur, q)
    return {u: p for u, p in total.items() if p[1]}


# ---------------------------------------------------------------------------
# cell modules

def multiplicity(table, f, i: int) -> int:
    """Exact multiplicity of the irreducible of row i inside a character
    f of the character table."""
    m = table.inner_product(f, table.rows[i])
    if not m.is_rational():
        raise InternalInconsistencyError("irrational multiplicity")
    q = m.as_fraction()
    if q.denominator != 1 or q < 0:
        raise InternalInconsistencyError(f"multiplicity {q} not in N")
    return int(q)


def left_cell_module(htable, cells, table, cell_id, orientation="standard"):
    """Multiset of irreducibles carried by one left cell, as a dict
    {row index: multiplicity}.

    Generator action read at v = 1 from the one-letter rows, keeping
    only targets inside the cell; the standard orientation takes
    1 - (c-action) for each generator, which sends the identity's cell
    to the trivial character.
    """
    group = htable.group
    members = cells.left_cells[cell_id]
    idx = {m: i for i, m in enumerate(members)}
    n = len(members)
    mats = []
    for s in range(group.datum.rank):
        s_elt = group.element_by_word((s,))
        act = [[0] * n for _ in range(n)]
        for col, y in enumerate(members):
            for z, p in htable.rows[(s_elt, y)]:
                r = idx.get(z)
                if r is not None:
                    act[r][col] = vp.at_one(p)
        if orientation == "standard":
            rho = [
                [(1 if i == j else 0) - act[i][j] for j in range(n)]
                for i in range(n)
            ]
        else:
            rho = [
                [act[i][j] - (1 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        mats.append(rho)
    vals = []
    for rep in table.classes.representatives:
        acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for s in group.words[rep]:
            rho = mats[s]
            acc = [
                [
                    sum(acc[i][t] * rho[t][j] for t in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        vals.append(sum(acc[i][i] for i in range(n)))
    M = table.conductor
    fvals = tuple(cyclo_rational(M, t) for t in vals)
    mults = {}
    for i in range(len(table)):
        m = multiplicity(table, fvals, i)
        if m:
            mults[i] = m
    if sum(m * table.dims[i] for i, m in mults.items()) != n:
        raise InternalInconsistencyError(
            "cell module decomposition misses the cell size"
        )
    return mults


def detect_orientation(htable, cells, table):
    """Pin the v=1 sign convention: the identity's left cell must carry
    the trivial character.  The library takes "standard" as a constant;
    this is the check that the constant is right."""
    cid = cells.left_cell_of[0]
    for orientation in ("standard", "flipped"):
        mults = left_cell_module(htable, cells, table, cid, orientation)
        if mults == {0: 1}:
            return orientation
    raise InternalInconsistencyError(
        "identity cell carries neither candidate orientation"
    )



# ---------------------------------------------------------------------------
# the direct classification lane: transport isomorphism and its inverse

class PhiIso:
    """Invertible change of basis from group elements to the asymptotic
    basis, with its exact rational inverse.

    matrix[x] is a sparse integer row {z: coefficient of t_z}; inverse[z]
    is a dense tuple of Fractions over group elements.  The image of the
    identity is checked to be the sum of t_d over distinguished d.
    """

    __slots__ = ("group", "dset", "matrix", "inverse")

    def __init__(self, group, dset, matrix, inverse):
        self.group = group
        self.dset = dset
        self.matrix = matrix
        self.inverse = inverse
        unit = matrix[0]
        want = set(dset)
        if set(unit) != want or any(unit[d] != 1 for d in want):
            raise InternalInconsistencyError(
                "image of the identity is not the sum over distinguished "
                "involutions"
            )


def _transport_rows(htable, cells, dset):
    """Sparse integer rows x -> {z: h_{x,d(z),z}(1)} over z ~L d."""
    group = htable.group
    lc = cells.left_cell_of
    rows = []
    for x in range(group.size):
        acc = {}
        for d in dset:
            target = lc[d]
            for z, p in htable.rows[(x, d)]:
                if lc[z] == target:
                    val = vp.at_one(p)
                    if val:
                        acc[z] = val
        rows.append(acc)
    return rows


def rational_solve(trans, rhs_cols):
    """Solution columns of the whole transport system, each as (den, ints)
    with den the lcm of its denominators, from the exact rational inverse."""
    inverse = _invert_rational(trans, len(trans))
    out = []
    for rhs in rhs_cols:
        ys = [sum(q * v for q, v in zip(row, rhs) if q) for row in inverse]
        den = lcm(*(Fraction(y).denominator for y in ys))
        out.append((den, [int(y * den) for y in ys]))
    return out


def class_sum_solve(trans, cells, a, sums, columns):
    """(rhs_cols, sols, col_cells) as `classify._solve_columns` returns
    them, every right cell solved by `classify._cell_solve` against all k
    class sums and each column assembled as those solutions times its
    class values (the library solves a right cell on its own two-sided
    cell's columns when there are fewer of them than classes)."""
    two = cells.two_sided_of
    by_cell = {}
    for block in _transport_blocks(trans, cells, a):
        by_cell.setdefault(two[block[0]], []).append(
            (block, _cell_solve(trans, block, [sums[x] for x in block]))
        )
    rhs_cols, sols, col_cells = [], [], []
    for _, _, vals in columns:
        rhs = [sum(s * v for s, v in zip(row, vals)) for row in sums]
        top = max((x for x, r in enumerate(rhs) if r), key=a.__getitem__,
                  default=0)
        parts = [(block, det, [sum(q * v for q, v in zip(row, vals))
                               for row in rows])
                 for block, (det, rows) in by_cell[two[top]]]
        den = lcm(*(det // gcd(det, *nums) for _, det, nums in parts))
        ints = [0] * len(rhs)
        for block, det, nums in parts:
            for z, q in zip(block, nums):
                ints[z] = q * den // det
        rhs_cols.append(rhs)
        sols.append((den, ints))
        col_cells.append(two[top])
    return rhs_cols, sols, col_cells


def _signed_row(store, x):
    """{u: (-1)^l(u) P_{u,x}(1)}: the v=1 coordinates of the dual basis
    element attached to x (the library sums them per conjugacy class
    straight from the P rows)."""
    lengths = store.group.length
    return {
        u: (-s if lengths[u] % 2 else s)
        for u, qc in P_row(store, x).items()
        for s in (sum(qc),)
        if s
    }


def build_phi(store, htable, cells, dset) -> PhiIso:
    """The transport matrix on group-element rows and its exact inverse."""
    group = store.group
    size = group.size
    if len(htable.rows) != size * size:
        raise UsageError("transport needs the all-pairs table")
    lengths = group.length
    cols = _transport_rows(htable, cells, dset)
    # peel the unitriangular signed layer: rows of the dual basis are
    # supported on the Bruhat ideal with diagonal (-1)^l(x)
    matrix = [None] * size
    for x in range(size):
        acc = dict(cols[x])
        for u, b in _signed_row(store, x).items():
            if u == x:
                continue
            for z, c in matrix[u].items():
                t = acc.get(z, 0) - b * c
                if t:
                    acc[z] = t
                else:
                    acc.pop(z, None)
        if lengths[x] % 2:
            acc = {z: -c for z, c in acc.items()}
        matrix[x] = acc

    inverse = _invert_rational(matrix, size)
    return PhiIso(group, dset, tuple(matrix), inverse)


def _invert_rational(rows, size):
    """Exact inverse of a sparse integer row matrix, dense Fraction rows."""
    aug = []
    for x in range(size):
        line = [Fraction(0)] * (2 * size)
        for z, c in rows[x].items():
            line[z] = Fraction(c)
        line[size + x] = Fraction(1)
        aug.append(line)
    for col in range(size):
        piv = next((r for r in range(col, size) if aug[r][col]), None)
        if piv is None:
            raise InternalInconsistencyError(
                "transport matrix is singular; the sign convention broke"
            )
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        base = aug[col]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], base)]
    # inverse row z gives the group-element coordinates of t_z
    return tuple(
        tuple(aug[x][size + z] for z in range(size)) for x in range(size)
    )


def check_phi_multiplicative(phi, gamma, pairs=200, seed=None):
    """phi(x) phi(y) = phi(xy) on a seeded random sample, exactly."""
    group = phi.group
    if seed is None:
        seed = int(
            hashlib.sha256(f"{group.fingerprint()}:phi".encode()).hexdigest(), 16
        )
    rng = random.Random(seed)
    for _ in range(pairs):
        x = rng.randrange(group.size)
        y = rng.randrange(group.size)
        lhs = {}
        for z, a in phi.matrix[x].items():
            for w, b in phi.matrix[y].items():
                ab = a * b
                for u, c in gamma.by_xy.get((z, w), ()):
                    t = lhs.get(u, 0) + ab * c
                    if t:
                        lhs[u] = t
                    else:
                        lhs.pop(u, None)
        if lhs != phi.matrix[group.multiply(x, y)]:
            raise InternalInconsistencyError(
                f"transport not multiplicative at ({x}, {y})"
            )


# ---------------------------------------------------------------------------
# traces on the asymptotic ring and the generic algebra

def j_traces(phi, table, row_index):
    """tr(t_z) on the module transported from a character row, per z."""
    group = phi.group
    M = table.conductor
    cof = table.classes.class_of
    chi = [table.rows[row_index][cof[w]] for w in range(group.size)]
    out = []
    for z in range(group.size):
        acc = cyclo_rational(M, 0)
        for w, c in enumerate(phi.inverse[z]):
            if c:
                acc = acc + c * chi[w]
        out.append(acc)
    dim = table.dims[row_index]
    unit = sum((out[d] for d in phi.dset), cyclo_rational(M, 0))
    if unit != dim:
        raise InternalInconsistencyError(
            f"unit trace {unit.render()} differs from the degree {dim}"
        )
    return tuple(out)


def _dual_traces(htable, cells, dset, jt, conductor):
    """Per x, the generic trace of the dual basis element at x as a
    sparse {exponent: value} dict."""
    group = htable.group
    lc = cells.left_cell_of
    zero = cyclo_rational(conductor, 0)
    out = []
    for x in range(group.size):
        acc = {}
        for d in dset:
            target = lc[d]
            for z, p in htable.rows[(x, d)]:
                if lc[z] != target:
                    continue
                t = jt[z]
                if not t:
                    continue
                val, coeffs = p
                for i, c in enumerate(coeffs):
                    if c:
                        e = val + i
                        acc[e] = acc.get(e, zero) + c * t
        out.append({e: c for e, c in acc.items() if c})
    return out


# v^-1 - v: the correction term when a generator inverse acts in the
# normalization whose quadratic is (T_s - v)(T_s + v^-1) = 0.  Only in
# that normalization is T_s -> -T_s^-1 an algebra automorphism, so the
# dual-basis expansion used for the trace solve is built here rather
# than on top of the table module's T-basis, which absorbs an extra
# v^l(w) into each basis vector.
_INV_STEP = (-1, (1, 0, -1))


def balanced_dagger_rows(store):
    """Per element x, the expansion {w: coefficient} of the image of the
    canonical basis element under the automorphism T_s -> -T_s^-1, in
    the balanced T-basis.

    The diagonal coefficient is exactly (-1)^l(x) and specializing v = 1
    gives the signed Bruhat-ideal rows of the v=1 transport.
    """
    group = store.group
    size = group.size
    lengths = group.length
    left = group.left
    words = group.words
    # inv[y] expands the inverse of the balanced basis vector at y^-1;
    # built by left-composing generator inverses along first letters
    inv = [None] * size
    inv[0] = {0: vp.ONE}
    for y in range(1, size):
        s = words[y][0]
        lrow = left[s]
        out = {}
        for w, p in inv[lrow[y]].items():
            sw = lrow[w]
            if lengths[sw] > lengths[w]:
                cur = out.get(sw)
                out[sw] = p if cur is None else vp.add(cur, p)
                q = vp.mul(p, _INV_STEP)
                cur = out.get(w)
                out[w] = q if cur is None else vp.add(cur, q)
            else:
                cur = out.get(sw)
                out[sw] = p if cur is None else vp.add(cur, p)
        inv[y] = {w: p for w, p in out.items() if p[1]}
    rows = []
    for x in range(size):
        acc = {}
        for u, qc in P_row(store, x).items():
            m = vp.from_q(qc, lengths[u] - lengths[x])
            if lengths[u] % 2:
                m = vp.neg(m)
            for w, p in inv[u].items():
                t = vp.mul(m, p)
                cur = acc.get(w)
                acc[w] = t if cur is None else vp.add(cur, t)
        row = {w: p for w, p in acc.items() if p[1]}
        want = vp.neg(vp.ONE) if lengths[x] % 2 else vp.ONE
        if row.get(x) != want:
            raise InternalInconsistencyError(
                "dual-basis diagonal is not the expected sign"
            )
        rows.append(row)
    return rows


def hecke_character(store, htable, cells, dset, table, row_index, jt=None,
                    dag_rows=None):
    """Generic-algebra traces tr(T_w) for one irreducible, all w.

    Solved from the dual-basis traces through the triangular balanced
    expansion, then shifted by v^l(w) into the normalization whose
    generator quadratic is (T_s - v^2)(T_s + 1) = 0; specializing v = 1
    must recover the ordinary character values, which is asserted.
    dag_rows, when given, caches the expansions across calls.
    """
    group = store.group
    M = table.conductor
    if jt is None:
        raise UsageError("hecke_character needs the asymptotic traces")
    if dag_rows is None:
        dag_rows = balanced_dagger_rows(store)
    trc = _dual_traces(htable, cells, dset, jt, M)
    zero = cyclo_rational(M, 0)
    lengths = group.length
    out = [None] * group.size
    for x in range(group.size):
        acc = dict(trc[x])
        for u, g in dag_rows[x].items():
            if u == x:
                continue
            gv, gc = g
            for e2, c2 in out[u].items():
                for i, c in enumerate(gc):
                    if c:
                        e = gv + i + e2
                        t = acc.get(e, zero) + (-c) * c2
                        if t:
                            acc[e] = t
                        else:
                            acc.pop(e, None)
        if lengths[x] % 2:
            out[x] = {e: -c for e, c in acc.items()}
        else:
            out[x] = acc
    cof = table.classes.class_of
    polys = []
    for w, row in enumerate(out):
        total = sum(row.values(), zero)
        if total != table.rows[row_index][cof[w]]:
            raise InternalInconsistencyError(
                f"generic trace at v=1 disagrees with the character at w={w}"
            )
        shift = lengths[w]
        polys.append(
            LaurentPoly({e + shift: c for e, c in row.items()}, var="v")
        )
    return tuple(polys)


def even_parity(p: LaurentPoly) -> bool:
    """True when only even powers of the variable occur (the zero poly passes)."""
    return all(e % 2 == 0 for e in p.coeffs)


def is_ordinary(hecke_traces) -> bool:
    """Ordinary means every generic trace lives in even powers of v."""
    return all(even_parity(p) for p in hecke_traces)


def support_cell(jt, cells) -> int:
    """The unique two-sided cell carrying nonzero asymptotic traces."""
    hit = {cells.two_sided_of[z] for z, v in enumerate(jt) if v}
    if len(hit) != 1:
        raise InternalInconsistencyError(
            f"asymptotic traces meet {len(hit)} two-sided cells"
        )
    return hit.pop()


def classify_group(store, htable, cells, gamma, dset, table, phi=None,
                   sample_pairs=200) -> ClassifyResult:
    """Direct-lane classification from a fully materialized table; phi,
    when given, is the transport built by build_phi for the same data."""
    group = store.group
    orientation = detect_orientation(htable, cells, table)
    if phi is None:
        phi = build_phi(store, htable, cells, dset)
    check_phi_multiplicative(phi, gamma, pairs=sample_pairs)
    dag_rows = balanced_dagger_rows(store)
    jts = []
    flags = []
    for i in range(len(table)):
        jt = j_traces(phi, table, i)
        hc = hecke_character(
            store, htable, cells, dset, table, i, jt=jt, dag_rows=dag_rows
        )
        jts.append(jt)
        flags.append(is_ordinary(hc))
    records, cell_ordinary, profile, consistent = _finish_records(
        group, table, cells, gamma, jts, flags,
        [support_cell(jt, cells) for jt in jts],
    )
    involutions = classify_involutions(group, cells, gamma.a)
    return ClassifyResult(
        group, table, cells, gamma, records, involutions,
        orientation, cell_ordinary, profile, consistent,
    )


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Quotient of two Laurent polynomials, normalized lazily.

    Normalization keeps the denominator with unit leading coefficient and
    strips common monomial factors; full gcd reduction is not attempted.
    Equality is decided by cross multiplication, so unreduced representatives
    still compare correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
            raise UsageError("RationalFunction expects LaurentPoly operands")
        num._check(den)
        if not den:
            raise UsageError("zero denominator")
        if num:
            k = min(num.valuation(), den.valuation())
            if k:
                num = shift(num, -k)
                den = shift(den, -k)
        lead = den.coeffs[den.degree()]
        if lead != 1:
            if isinstance(lead, CycloNumber):
                inv = cyclo_inverse(lead)
            else:
                inv = Fraction(1) / Fraction(lead)
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFunction":
        return cls(p, LaurentPoly.constant(1, p.var))

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def as_poly(self) -> LaurentPoly:
        """Close the quotient to a polynomial; inexactness is an internal error."""
        return exact_divide(self.num, self.den)

    def __repr__(self) -> str:
        return f"RationalFunction(({self.num.render()}) / ({self.den.render()}))"


# ---------------------------------------------------------------------------
# characteristic polynomials mod p from power traces


def newton_identities(traces, p):
    """det(1 - X A) mod p, little-endian, from the power traces tr A^m,
    m = 1..d, by Newton's identities: m c_m = -sum_j c_(m-j) tr A^j."""
    c = [1] + [0] * len(traces)
    for m in range(1, len(traces) + 1):
        acc = sum(c[m - j] * traces[j - 1] for j in range(1, m + 1))
        c[m] = -acc % p * pow(m, p - 2, p) % p
    return c


def charpoly_by_power_traces(mat, p):
    """det(X - A) mod p, little-endian, from the power traces tr A^m,
    m = 1..d, by d matrix products and Newton's identities, in O(d^4);
    p must exceed d.  The library reduces to Hessenberg form instead."""
    d = len(mat)
    traces = []
    cur = [row[:] for row in mat]
    for m in range(1, d + 1):
        traces.append(sum(cur[i][i] for i in range(d)) % p)
        if m < d:
            cur = [
                [sum(cur[i][t] * mat[t][j] for t in range(d)) % p
                 for j in range(d)]
                for i in range(d)
            ]
    # det(X - A) is det(1 - X A) with its coefficients reversed
    return newton_identities(traces, p)[::-1]


def reflection_charpolys_by_table(group, table, p, to_fp):
    """det(1 - X rho(w)) mod p per conjugacy class, little-endian, from
    the table alone: the power traces tr rho(w^k) are the reflection
    character's values at the classes of w^k, and Newton's identities turn
    them into the coefficients.  The library takes the characteristic
    polynomials of the reflection matrices mod p instead."""
    refl = [to_fp(v) for v in table.rows[table._locate_reflection()]]
    class_of = table.classes.class_of
    polys = []
    for rep in table.classes.representatives:
        traces = []
        cur = rep
        for _ in range(group.datum.rank):
            traces.append(refl[class_of[cur]])
            cur = group.multiply(cur, rep)
        polys.append(newton_identities(traces, p))
    return polys


# ---------------------------------------------------------------------------
# fake degrees over a common denominator


def reflection_charpolys_by_matrices(group, table):
    """det(1 - X rho(z)) per conjugacy class from powers of the exact
    reflection matrices, carried into the table's conductor; elementary
    symmetric functions via Newton's identities."""
    rank = group.datum.rank
    ctx = cyclo_context(group.datum.refl_conductor)
    M = table.conductor
    polys = []
    for rep in table.classes.representatives:
        mat = matrix_of(group, rep)
        traces = []
        cur = mat
        for k in range(1, rank + 1):
            traces.append(
                sum((cur[i][i] for i in range(rank)), ctx.zero)
            )
            if k < rank:
                cur = tuple(
                    tuple(
                        sum(
                            (cur[i][t] * mat[t][j] for t in range(rank)),
                            ctx.zero,
                        )
                        for j in range(rank)
                    )
                    for i in range(rank)
                )
        elem = [cyclo_one(group.datum.refl_conductor)]
        for k in range(1, rank + 1):
            acc = ctx.zero
            sign = 1
            for i in range(1, k + 1):
                acc = acc + sign * elem[k - i] * traces[i - 1]
                sign = -sign
            elem.append(acc * Fraction(1, k))
        coeffs = {}
        for k, e in enumerate(elem):
            if e:
                coeffs[k] = embed_cyclo(-e if k % 2 else e, M)
        polys.append(LaurentPoly(coeffs, var="X"))
    return polys


def fake_degrees_common_denominator(group, table):
    """Graded multiplicities by Molien's formula over the common
    denominator |W| * prod_j det(1 - X w_j), closed by one exact division
    per irreducible; with the same checks as
    coxcells.classify.fake_degrees."""
    polys = reflection_charpolys_by_matrices(group, table)
    k = len(polys)
    one = LaurentPoly.constant(1, var="X")
    prefix = [one]
    for d in polys:
        prefix.append(prefix[-1] * d)
    suffix = [one] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix[j] = polys[j] * suffix[j + 1]
    den = prefix[k] * group.size
    co = one
    for d in group.datum.degrees:
        co = co * (one - LaurentPoly.monomial(d, var="X"))
    out = []
    for idx in range(len(table)):
        row = table.rows[idx]
        num = LaurentPoly.zero("X")
        for j in range(k):
            scale = row[j] * table.classes.sizes[j]
            if scale:
                num = num + prefix[j] * suffix[j + 1] * scale
        quo = exact_divide(num * co, den)
        coeffs = {}
        for e, c in quo.coeffs.items():
            if not (c.is_rational() and c.is_integer()):
                raise InternalInconsistencyError(
                    f"graded multiplicity {c.render()} is not an integer"
                )
            iv = int(c.as_fraction())
            if iv < 0 or e < 0:
                raise InternalInconsistencyError(
                    "negative term in a graded multiplicity series"
                )
            coeffs[e] = iv
        p = LaurentPoly(coeffs, var="X")
        if p.at_one() != table.dims[idx]:
            raise InternalInconsistencyError(
                "graded multiplicities do not sum to the degree"
            )
        out.append(p)
    total = LaurentPoly.zero("X")
    for d, p in zip(table.dims, out):
        total = total + p * d
    if total != group.poincare_polynomial():
        raise InternalInconsistencyError(
            "degree-weighted sum of graded series misses the length "
            "generating function"
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# cross-cutting property checks on a classification

def check_parity_bridge(result):
    """Ordinary irreducibles only see even l(x) + a(x) where their
    asymptotic trace survives on x ~L x^-1."""
    group = result.group
    cells = result.cells
    inv = group.inverse
    a = result.gamma.a
    for r in result.irreps:
        if not r.ordinary:
            continue
        for x in range(group.size):
            if cells.left_cell_of[x] != cells.left_cell_of[inv[x]]:
                continue
            if r.j_traces[x] and (group.length[x] + a[x]) % 2:
                raise InternalInconsistencyError(
                    f"parity bridge breaks at {word_name(group, x)} "
                    f"for {r.label}"
                )


def check_b_not_below_a(result):
    for r in result.irreps:
        if r.b_value < r.a_value:
            raise InternalInconsistencyError(
                f"{r.label} has fake-degree valuation {r.b_value} below "
                f"its cell invariant {r.a_value}"
            )


def check_cell_modules_contain_special(result, htable):
    """Every left cell of an ordinary two-sided cell contains its
    special irreducible at least once."""
    table = result.table
    cells = result.cells
    specials = {r.cell: table.names.index(r.label)
                for r in result.irreps if r.special}
    for lid in range(len(cells.left_cells)):
        member = cells.left_cells[lid][0]
        cid = cells.two_sided_of[member]
        if not result.cell_ordinary[cid]:
            continue
        mults = left_cell_module(
            htable, cells, table, lid, result.orientation
        )
        if mults.get(specials[cid], 0) < 1:
            raise InternalInconsistencyError(
                f"left cell {lid} misses the special irreducible of its "
                f"two-sided cell {cid}"
            )


def check_longest_twist(result):
    """When w0 is central of odd length, every exceptional two-sided
    cell must be fixed by multiplication with w0, which then pairs each
    involution with one of the opposite parity class.

    Returns True when something was actually checked, False when the
    hypotheses fail or no exceptional cell exists.
    """
    group = result.group
    w0 = group.w0
    if group.length[w0] % 2 == 0:
        return False
    if any(
        group.multiply(w0, s) != group.multiply(s, w0)
        for s in (group.element_by_word((t,)) for t in range(group.datum.rank))
    ):
        return False
    cells = result.cells
    flags = {r.element: r.ordinary for r in result.involutions}
    exc = [cid for cid, o in result.cell_ordinary.items() if not o]
    for cid in exc:
        members = set(cells.two_sided_cells[cid])
        for x in members:
            if group.multiply(w0, x) not in members:
                raise InternalInconsistencyError(
                    f"longest element moves cell {cid} off itself"
                )
        for x in members:
            if x not in flags:
                continue
            mate = group.multiply(w0, x)
            if mate not in flags or flags[mate] == flags[x]:
                raise InternalInconsistencyError(
                    f"longest-element twist keeps the parity class at "
                    f"{word_name(group, x)}"
                )
    return bool(exc)


def reseal_cache(directory, edit):
    """Edit cache.bin before its trailing SHA-256 and seal it again, so
    that the decode checks behind the digest check are the ones tested."""
    path = directory / "cache.bin"
    data = bytearray(path.read_bytes()[:-32])
    edit(data)
    path.write_bytes(bytes(data) + hashlib.sha256(data).digest())
