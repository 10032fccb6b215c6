"""Exact complex character tables via the class-matrix method.

The table is computed over a prime field first: class multiplication
matrices commute and share a basis of simultaneous eigenvectors, one per
irreducible character, with the vector of raw character values chi(z_j)
as the eigenvector and the central character |C_i| chi(g_i)/chi(1) as the
eigenvalue.  Splitting the common eigenspaces down to lines mod p, the
degrees are recovered from the orthogonality relation and the exact
cyclotomic values by a discrete Fourier transform over each cyclic group
<z_j>, reading eigenvalue multiplicities off the mod-p data.

The prime p and a primitive exponent(W)-th root of unity eta mod p come
from `modp.residue_map`: p = 1 mod exponent(W), so that F_p contains
the needed roots of unity, and p^2 > 4 |W| max_class^2, so that degrees
and multiplicities lift uniquely from their residues.  A failed split or
an inconsistent lift moves to the next such prime, `residue_map` above
the failed one; persistent failure is reported as an internal error,
never silently absorbed.

The eigenspaces split along the roots of characteristic polynomials,
taken by Hessenberg reduction mod p.  Each value is lifted as a sum of
chi(1) roots of unity and held as its integer power-basis vector in the
group's ambient conductor: those vectors are the table every stage
reads, and `CharacterTable.rows`, their CycloNumber view, serves the
reports and the library.  The table is checked against full row and
column orthogonality before being handed back: modulo one prime q = 1
mod M above |W|^2 + |W|, under all phi(M) maps zeta_M -> eta^j.  Every
such sum is at most |W|^2 in absolute value under each complex
embedding, so agreement under all those maps makes the relation exact.
The sums under one map read the values' images under it and under its
inverse only, so each distinct pair of images is checked once; a
rational table, as every Weyl group's is, is checked once (see
`_validate`).
"""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import InternalInconsistencyError
from .exactnum import CycloNumber, cyclo_context, cyclo_rational
from .modp import pdiv, pgcd, ppowmod, psub, residue_map


# ---------------------------------------------------------------------------
# linear algebra mod p

class _Retry(Exception):
    """Current prime rejected; the caller moves on to the next one."""


def _rref(rows, p):
    """Row-reduce in place; returns (reduced nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [a * inv % p for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _coords_in(basis, pivots, vec, p):
    """Coordinates of vec in an RREF basis; vec must lie in the span."""
    coords = [vec[c] % p for c in pivots]
    resid = [a % p for a in vec]
    for co, brow in zip(coords, basis):
        if co:
            resid = [(a - co * b) % p for a, b in zip(resid, brow)]
    if any(resid):
        raise _Retry("vector left the subspace during restriction")
    return coords


def _nullspace(mat, p):
    """Basis of {v : mat.v = 0} over F_p, deterministic free-column order."""
    d = len(mat)
    red, pivots = _rref(mat, p)
    free = [c for c in range(d) if c not in pivots]
    out = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        out.append(v)
    return out


def _charpoly(mat, p):
    """det(X - A) mod p, little-endian, in O(d^3): A is brought to upper
    Hessenberg form H by similarity transforms, then p_m = det(X - H_m)
    for the leading m x m blocks follows from

        p_m = (X - h_mm) p_(m-1) - sum_i h_(m-i),m h_m,(m-1) ...
              h_(m-i+1),(m-i) p_(m-i-1)

    (1-based indices; Cohen, A Course in Computational Algebraic Number
    Theory, GTM 138, Algorithm 2.2.9)."""
    d = len(mat)
    h = [[a % p for a in row] for row in mat]
    for m in range(1, d - 1):
        sel = next((i for i in range(m, d) if h[i][m - 1]), None)
        if sel is None:
            continue
        if sel != m:
            h[m], h[sel] = h[sel], h[m]
            for row in h:
                row[m], row[sel] = row[sel], row[m]
        inv = pow(h[m][m - 1], p - 2, p)
        for i in range(m + 1, d):
            u = h[i][m - 1] * inv % p
            if u:
                # row i -= u row m, then column m += u column i
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(d):
        cur = [0] + polys[m]
        for t, c in enumerate(polys[m]):
            cur[t] -= h[m][m] * c
        prod = 1
        for i in range(1, m + 1):
            prod = prod * h[m - i + 1][m - i] % p
            if not prod:
                break
            f = h[m - i][m] * prod
            for t, c in enumerate(polys[m - i]):
                cur[t] -= f * c
        polys.append([c % p for c in cur])
    return polys[d]


def _distinct_roots(f, p, rng):
    """Roots of f lying in F_p, each once, ascending."""
    xp = ppowmod([0, 1], p, f, p)
    g = pgcd(psub(xp, [0, 1], p), f, p)
    roots = []
    stack = [g]
    guard = 0
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d <= 0:
            continue
        if d == 1:
            roots.append((-h[0]) % p)
            continue
        while True:
            guard += 1
            if guard > 64 * len(f):
                raise _Retry("equal-degree splitting stalled")
            a = rng.randrange(p)
            w = ppowmod([a, 1], (p - 1) // 2, h, p)
            cand = pgcd(psub(w, [1], p), h, p)
            if 0 < len(cand) - 1 < d:
                q, r = pdiv(h, cand, p)
                if r:
                    raise _Retry("split factor does not divide")
                stack.append(cand)
                stack.append(q)
                break
    return sorted(roots)


# ---------------------------------------------------------------------------
# eigenvector splitting

def _common_eigenvectors(k, get_matrix, p, rng):
    """One vector per irreducible: simultaneous eigenvectors of the class
    matrices, normalized to value 1 at the identity class."""
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    spaces = [(ident, list(range(k)))]
    for i in range(1, k):
        if all(len(b) == 1 for b, _ in spaces):
            break
        mat = get_matrix(i)
        nxt = []
        for basis, pivots in spaces:
            d = len(basis)
            if d == 1:
                nxt.append((basis, pivots))
                continue
            images = [
                [sum(mat[j][m] * b[m] for m in range(k)) % p for j in range(k)]
                for b in basis
            ]
            cols = [_coords_in(basis, pivots, w, p) for w in images]
            # column r of the restricted matrix holds the image of basis row r
            rmat = [[cols[r][s] for r in range(d)] for s in range(d)]
            pieces = []
            total = 0
            for lam in _distinct_roots(_charpoly(rmat, p), p, rng):
                shifted = [
                    [(rmat[s][r] - (lam if s == r else 0)) % p for r in range(d)]
                    for s in range(d)
                ]
                kern = _nullspace(shifted, p)
                if not kern:
                    raise _Retry("eigenvalue without eigenvector")
                lifted = [
                    [sum(v[r] * basis[r][c] for r in range(d)) % p for c in range(k)]
                    for v in kern
                ]
                nb, np_ = _rref(lifted, p)
                if len(nb) != len(kern):
                    raise _Retry("eigenspace lift lost rank")
                total += len(nb)
                pieces.append((nb, np_))
            if total != d:
                raise _Retry("eigenspaces do not fill the subspace")
            nxt.extend(pieces)
        spaces = nxt
    vecs = []
    for basis, _ in spaces:
        if len(basis) != 1:
            raise _Retry("splitting stalled above dimension one")
        v = basis[0]
        if v[0] == 0:
            raise _Retry("eigenvector vanishes at the identity class")
        inv = pow(v[0], p - 2, p)
        vecs.append([a * inv % p for a in v])
    return vecs


# ---------------------------------------------------------------------------
# the table

class CharacterTable:
    """Complete exact character table of a finite Coxeter group.

    `vectors` is the table: vectors[i][c] is the integer power-basis
    vector over Q(zeta_M) of the i-th irreducible at class c.  Rows are
    ordered by (dimension, canonical value order) with the trivial
    character first; columns follow the group's conjugacy-class
    numbering.  `rows` is its view as CycloNumbers, one per distinct
    value, for the reports and the library's readers.
    """

    __slots__ = (
        "group", "classes", "vectors", "rows", "dims", "names", "conductor",
        "reflection_charpolys", "_by_values",
    )

    def __init__(self, group, classes, vectors, dims, names, conductor):
        self.group = group
        self.classes = classes
        self.vectors = vectors
        self.dims = dims
        self.names = names
        self.conductor = conductor
        ctx = cyclo_context(conductor)
        one = (1,) + (0,) * (ctx.degree - 1)
        if any(v != one for v in vectors[0]):
            raise InternalInconsistencyError("trivial character not first")
        made = {v: CycloNumber(ctx, tuple(map(Fraction, v)))
                for v in set().union(*vectors)}
        self.rows = tuple(tuple(map(made.__getitem__, row)) for row in vectors)
        self._by_values = {row: i for i, row in enumerate(vectors)}
        # the sign character, the trivial one's twist, and the reflection
        # character are rows
        self.tensor_sign_index(0)
        self.reflection_charpolys = _reflection_charpolys(
            group, classes.representatives
        )
        self._locate_reflection()

    def __len__(self) -> int:
        return len(self.vectors)

    def _locate_reflection(self) -> int:
        """The row of the reflection character, found modulo the prime of
        `residue_map`: the traces of the class representatives' reflection
        matrices, read off `reflection_charpolys` (det(1 - X w) = 1 -
        tr(w) X + ...), against each row's image under zeta_M -> eta.
        Exactly one row must match, and its degree must be the rank.
        Two rows cannot share an image: for p > |W|, sum |C| chi psi-bar =
        sum |C| chi chi-bar mod p would make p divide |W|."""
        g = self.group
        n = g.datum.rank
        p, _, to_fp = residue_map(self.conductor, g.size)
        traces = [-poly[1] % p for poly in self.reflection_charpolys]
        hits = [
            i for i, row in enumerate(self.vectors)
            if all(to_fp(v) == t for v, t in zip(row, traces))
        ]
        if len(hits) != 1:
            raise InternalInconsistencyError(
                f"{len(hits)} rows match the reflection traces mod {p}"
            )
        if self.dims[hits[0]] != n:
            raise InternalInconsistencyError("reflection row has wrong degree")
        return hits[0]

    def inner_product(self, f, g) -> CycloNumber:
        """Hermitian pairing |W|^-1 sum over classes of size * f * conj(g)."""
        acc = cyclo_rational(self.conductor, 0)
        for size, a, b in zip(self.classes.sizes, f, g):
            acc = acc + a * b.conjugate() * size
        return acc * Fraction(1, self.group.size)

    def tensor_sign_index(self, row_index: int) -> int:
        """Index of the row's pointwise product with the sign character,
        its vectors negated at the classes of odd length; error if the
        table is not closed under the sign twist."""
        length = self.group.length
        idx = self._by_values.get(tuple(
            tuple(-c for c in v) if length[z] % 2 else v
            for v, z in zip(self.vectors[row_index],
                            self.classes.representatives)
        ))
        if idx is None:
            raise InternalInconsistencyError(
                f"the sign twist of {self.names[row_index]} is not a row "
                "of the character table"
            )
        return idx


def _reflection_charpolys(group, elements):
    """det(1 - X rho(w)) mod p per element, little-endian, p the prime of
    `residue_map(conductor, |W|)`: the characteristic polynomial
    det(X - rho(w)) of the reflection matrix mod p, reversed.  The matrix
    is the `CoxeterDatum.reflection_action` image of the exact one, built
    along the element's word."""
    n = group.datum.rank
    ident, right_mul = group.datum.reflection_action()
    p = residue_map(group.datum.conductor, group.datum.order)[0]
    out = []
    for w in elements:
        mat = ident
        for s in group.words[w]:
            mat = right_mul(mat, s)
        out.append(_charpoly([mat[i:i + n] for i in range(0, n * n, n)],
                             p)[::-1])
    return out


def _class_matrix(group, classes, i):
    """Entry [j][m] counts elements x of class i with x z_j in class m."""
    k = len(classes)
    out = [[0] * k for _ in range(k)]
    mult = group.multiply
    cof = classes.class_of
    for j, z in enumerate(classes.representatives):
        row = out[j]
        for x in classes.members[i]:
            row[cof[mult(x, z)]] += 1
    return out


def _modular_rows(group, classes, jstar, p, rng):
    """Mod-p character rows and degrees, one per irreducible."""
    k = len(classes)
    # each class matrix is asked for once per prime
    vecs = _common_eigenvectors(
        k, lambda i: _class_matrix(group, classes, i), p, rng
    )
    rows = []
    dims = []
    bound = isqrt(group.size)
    for u in vecs:
        s = sum(n * u[j] * u[jstar[j]] for j, n in enumerate(classes.sizes)) % p
        if s == 0:
            raise _Retry("norm of eigenvector vanished mod p")
        d2 = group.size * pow(s, p - 2, p) % p
        cands = [d for d in range(1, bound + 1) if d * d % p == d2]
        if len(cands) != 1:
            raise _Retry(f"degree lift ambiguous: {cands}")
        d = cands[0]
        dims.append(d)
        rows.append([d * a % p for a in u])
    if sum(d * d for d in dims) != group.size:
        raise _Retry("degrees do not sum to the group order")
    if len({tuple(r) for r in rows}) != k:
        raise _Retry("modular rows collide")
    return rows, dims


def _pack(rows, bound):
    """rows packed for `_dots` (Kronecker substitution): (width, columns),
    column c one integer holding rows[r][c] in slot r of width bits, wide
    enough for a sum below bound."""
    width = bound.bit_length()
    return width, [sum(v << width * r for r, v in enumerate(col))
                   for col in zip(*rows)]


def _dots(vec, packed, count):
    """[sum_c vec[c] rows[r][c] for r < count], rows packed by `_pack`;
    one product of big integers, exact while the entries are nonnegative
    and each sum stays below the packing bound."""
    width, cols = packed
    n = sum(map(mul, vec, cols))
    mask = (1 << width) - 1
    return [n >> width * r & mask for r in range(count)]


def _inverse_dfts(orders, eta, n, p):
    """Per class, the inverse DFT over <z> mod p for z of order o, packed,
    one per order: row s holds o^-1 eta_o^(-t s) over t, with eta_o =
    eta^(n / o) a primitive o-th root of unity."""
    by_order = {}
    for o in set(orders):
        eta_o = pow(eta, n // o, p)
        pows = [pow(o, p - 2, p)]
        for _ in range(1, o):
            pows.append(pows[-1] * eta_o % p)
        by_order[o] = _pack(
            [[pows[-t * s % o] for t in range(o)] for s in range(o)],
            o * p * p,
        )
    return [by_order[o] for o in orders]


def _lift_row(row_p, dim, powmaps, dfts, ctx, p):
    """Exact cyclotomic values from a mod-p row, class by class.

    For z of order o the value is sum m_s zeta_o^s with m_s the
    multiplicity of the eigenvalue; the inverse DFT over <z> recovers
    each m_s as a residue, which must lift into [0, dim].  Each value is
    returned as its integer power-basis vector.
    """
    out = []
    for chain, dft in zip(powmaps, dfts):
        vals = [row_p[c] for c in chain]
        step = ctx.order // len(chain)
        acc = [0] * ctx.degree
        total = 0
        for s, m in enumerate(_dots(vals, dft, len(chain))):
            m %= p
            if m > dim:
                raise _Retry(f"multiplicity {m} exceeds degree {dim}")
            total += m
            if m:
                for t, c in enumerate(ctx.zeta_vector(s * step)):
                    if c:
                        acc[t] += m * c
        if total != dim:
            raise _Retry("eigenvalue multiplicities do not sum to the degree")
        out.append(tuple(acc))
    return tuple(out)


def _validate(group, classes, rows, dims, conductor):
    """Row and column orthogonality and the degree sum of a lifted table,
    its values given as integer power-basis vectors; the orthogonality is
    checked modulo one prime q, under every embedding.

    A lifted value is a sum of chi(1) roots of unity (`_lift_row` checks
    the multiplicities), so under every complex embedding sigma a row sum
    alpha = sum |C| chi psi-bar has |sigma(alpha)| <= |W| chi(1) psi(1)
    <= |W|^2, a column sum has |sigma(beta)| <= sum chi(1)^2 = |W|, and
    the wanted value is at most |W|.  q, the prime of `residue_map` for
    the bound |W|^2 + |W|, is 1 mod M, so it splits completely in
    Z[zeta_M], and the phi(M) maps zeta -> eta^j, j a unit mod M, are the
    reductions modulo the primes above it.  A sum that matches its wanted
    value under all of them differs from it by q times an algebraic
    integer whose conjugates all lie below 1 in absolute value; the norm
    of that integer is an integer below 1, so it is 0, and the relation
    holds exactly.  The sums under zeta -> eta^j read only the table's
    values under that map and under zeta -> eta^-j, so each distinct pair
    of those images is checked once, at its least j: a rational table
    needs one pass.
    """
    k = len(classes)
    # each value as the index of its distinct vector
    index = {}
    at = [[index.setdefault(v, len(index)) for v in row] for row in rows]
    if group.datum.crystallographic and any(any(v[1:]) for v in index):
        raise _Retry("irrational value in a crystallographic type")
    size = group.size
    q, eta, _ = residue_map(conductor, size * size + size)
    etas = [pow(eta, t, q) for t in range(conductor)]
    # images[j][i]: distinct value i under zeta -> eta^j, j a unit mod M
    images = {
        j: tuple(sum(c * etas[j * t % conductor] for t, c in enumerate(vec)
                     if c) % q for vec in index)
        for j in range(conductor) if gcd(j, conductor) == 1
    }
    sizes = classes.sizes
    # the conjugate's image under zeta -> eta^j is the value's under
    # zeta -> eta^-j; each distinct pair once, in ascending j
    pairs = dict.fromkeys((img, images[-j % conductor])
                          for j, img in images.items())
    for img, bar in pairs:
        vals = [[img[i] for i in row] for row in at]
        bars = [[bar[i] for i in row] for row in at]
        packed = _pack(bars, k * q * q)
        for i in range(k):
            weighted = [n * a % q for n, a in zip(sizes, vals[i])]
            for r, got in enumerate(_dots(weighted, packed, k)):
                if (got - (size if i == r else 0)) % q:
                    raise _Retry(f"row orthogonality fails at ({i}, {r})")
        packed = _pack(list(zip(*bars)), k * q * q)
        for a, col in enumerate(zip(*vals)):
            for b, got in enumerate(_dots(col, packed, k)):
                if (got - (size // sizes[a] if a == b else 0)) % q:
                    raise _Retry(f"column orthogonality fails at ({a}, {b})")
    if sum(d * d for d in dims) != size:
        raise _Retry("degree squares do not sum to the group order")


def character_table(group) -> CharacterTable:
    """Exact character table by modular splitting and cyclotomic lifting."""
    classes = group.conjugacy_classes()
    k = len(classes)
    reps = classes.representatives
    orders = [group.order_of(z) for z in reps]
    n = lcm(*orders)
    conductor = group.datum.conductor
    if conductor % n:
        raise InternalInconsistencyError(
            f"exponent {n} outside the ambient conductor {conductor}"
        )
    ctx = cyclo_context(conductor)
    jstar = [classes.class_of[group.inverse[z]] for z in reps]
    powmaps = []
    for j, z in enumerate(reps):
        chain = [0] * orders[j]
        cur = 0
        for t in range(orders[j]):
            chain[t] = classes.class_of[cur]
            cur = group.multiply(cur, z)
        powmaps.append(chain)

    failures = []
    # the primes p = 1 mod n with p^2 > 4 |W| max_class^2, ascending
    p = isqrt(4 * group.size * max(classes.sizes) ** 2)
    for _ in range(6):
        p, eta, _ = residue_map(n, p)
        # random hashes a str seed with its own sha512: no OpenSSL loads
        rng = random.Random(f"{group.datum.type_symbol}:{p}:chartab")
        try:
            rows_p, dims_p = _modular_rows(group, classes, jstar, p, rng)
            dfts = _inverse_dfts(orders, eta, n, p)
            lifted = [_lift_row(r, d, powmaps, dfts, ctx, p)
                      for r, d in zip(rows_p, dims_p)]
            _validate(group, classes, lifted, dims_p, conductor)
        except _Retry as exc:
            failures.append(f"p={p}: {exc}")
            continue
        # by degree, then by values in descending power-basis order
        order = sorted(range(k), key=lifted.__getitem__, reverse=True)
        order.sort(key=dims_p.__getitem__)
        dims = tuple(dims_p[i] for i in order)
        names = []
        seen = {}
        for d in dims:
            idx = seen.get(d, 0)
            seen[d] = idx + 1
            names.append(f"phi{d}_{idx}")
        return CharacterTable(group, classes,
                              tuple(lifted[i] for i in order), dims,
                              tuple(names), conductor)
    raise InternalInconsistencyError(
        "character table construction failed for 6 primes: "
        + "; ".join(failures)
    )
