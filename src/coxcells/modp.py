"""Integer and prime-field arithmetic on ascending coefficient lists.

Plain ints only, so the layers that need no rationals (the group and the
engine) never load ``fractions``: `residue_map`, the engine's one prime
search; polynomials over F_p, for the character table's roots and the
class quotients of the fake degrees; and products of 1 - X^d over Z,
multiplied and divided in place, for the Poincare polynomial, Molien's
numerator and the cyclotomic polynomials.

>>> c = [1]
>>> mul_one_minus(c, 2); mul_one_minus(c, 3); div_one_minus(c, 1)
>>> c, cyclotomic(12)
([1, 1, 0, -1, -1], (1, 0, -1, 0, 1))
"""

from functools import lru_cache

from .errors import InternalInconsistencyError, UsageError

# ---------------------------------------------------------------------------
# integer polynomials: products of 1 - X^d

def mul_one_minus(c: list, d: int) -> None:
    """c *= 1 - X^d, in place."""
    c.extend([0] * d)
    c[d:] = [a - b for a, b in zip(c[d:], c)]


def div_one_minus(c: list, d: int) -> None:
    """c /= 1 - X^d, in place: the running sums q_e = c_e + q_(e-d), which
    must vanish above deg c - d, or the remainder raises."""
    for e in range(d, len(c)):
        c[e] += c[e - d]
    top = max(len(c) - d, 0)
    if any(c[top:]):
        raise InternalInconsistencyError(f"inexact division by 1 - X^{d}")
    del c[top:]


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending."""
    out, q = [], 2
    while n > 1:
        if q * q > n:
            q = n                       # what is left is prime
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending:
    for n > 1, prod (1 - X^(n/e))^mu(e) over the squarefree e | n, the
    Moebius inversion of X^n - 1 = prod_(d | n) Phi_d (the signs of
    X^d - 1 = -(1 - X^d) cancel).  The factors with mu(e) = 1 are
    multiplied first, so every division is exact."""
    if n < 1:
        raise UsageError("cyclotomic index must be positive")
    if n == 1:
        return (-1, 1)
    # (e, mu(e) == 1) over the squarefree divisors e of n
    terms = [(1, True)]
    for q in _prime_factors(n):
        terms += [(e * q, not even) for e, even in terms]
    c = [1]
    for e, even in terms:
        if even:
            mul_one_minus(c, n // e)
    for e, even in terms:
        if not even:
            div_one_minus(c, n // e)
    return tuple(c)


# ---------------------------------------------------------------------------
# polynomials over F_p

def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a, f, p):
    return pdiv(a, f, p)[1]


def _pmonic(a, p):
    a = _trim(a[:])
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def pgcd(a, b, p):
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _pmod(a, b, p)
    return _pmonic(a, p)


def ppowmod(base, e, f, p):
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def psub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim([c % p for c in out])


def pdiv(a, b, p):
    """(quotient, remainder) of a by a nonzero b over F_p, both trimmed."""
    b = _trim([c % p for c in b])
    inv = pow(b[-1], p - 2, p)
    b = [c * inv % p for c in b]
    a = _trim([c % p for c in a])
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        # a is trimmed, so its leading coefficient is nonzero
        lead = a.pop()
        shift = len(a) - db
        q[shift] = lead
        for i in range(db):
            a[shift + i] = (a[shift + i] - lead * b[i]) % p
        _trim(a)
    # q is the quotient by b / lead(b)
    return [c * inv % p for c in q], a


# ---------------------------------------------------------------------------
# reduction modulo a prime

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _primitive_root(p: int) -> int:
    fac = _prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
        g += 1


def residue_map(conductor: int, order: int) -> tuple:
    """(p, eta, to_fp): the first prime p = 1 mod conductor above order,
    a primitive conductor-th root of unity eta mod p, and the ring map
    Z[zeta_M] -> F_p, zeta_M -> eta, on CycloNumbers of conductor M with
    integer power-basis coordinates.  Every prime of the engine comes from
    here: above |W| for the group enumeration, the reflection matrices and
    the fake degrees, and above larger bounds for the character table's
    split and validation primes.
    """
    p = conductor + 1
    while p <= order or not _is_prime(p):
        p += conductor
    eta = pow(_primitive_root(p), (p - 1) // conductor, p)
    etas = [pow(eta, k, p) for k in range(conductor)]

    def to_fp(v):
        return sum(c.numerator * t for c, t in zip(v.coeffs, etas) if c) % p

    return p, eta, to_fp
