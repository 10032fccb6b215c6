"""Finite Coxeter groups: construction, enumeration, and basic order theory.

A group is specified by a type symbol ("A3", "B4", "D5", "I2(7)", "H3", "H4",
"F4", "E6", "E7", "E8") and realized through its standard geometric reflection
representation: generator s sends alpha_s to -alpha_s and alpha_t to
alpha_t + 2cos(pi/m_st) * alpha_s.  Elements are enumerated by breadth-first
closure over generator multiplication, with element identity decided by the
matrix of the representation modulo a prime p = 1 mod M above |W| (never
by word rewriting).  The reduced generators satisfy the Coxeter relations,
since zeta_M -> eta is a ring map, so they generate a quotient of W: two
elements sharing a matrix mod p would close the enumeration below |W|,
which raises, as does running past |W|.  (Reduction modulo an odd prime
not dividing M is injective on a finite group anyway, by Minkowski's
lemma.)

Generator numbering per type (0-based internally, reported as s1..sn):

* A_n: path s1 - s2 - ... - sn.
* B_n: path with the 4-bond at the far end, m(s_{n-1}, s_n) = 4.
* D_n: path s1 .. s_{n-2} with both s_{n-1} and s_n attached to s_{n-2}.
* I2(m): two generators, m(s1, s2) = m.
* H3, H4: the 5-bond first, m(s1, s2) = 5, then a path.
* F4: path with m(s2, s3) = 4.
* E6/E7/E8: path s1, s3, s4, s5, ... with s2 attached to s4.

Words are ShortLex-minimal reduced words under that numbering; element index
order is discovery order, which equals ShortLex order on canonical words, so
index 0 is always the identity.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import lcm

from .errors import InternalInconsistencyError, RefusalError, UsageError
from .modp import div_one_minus, mul_one_minus, residue_map

__all__ = [
    "ConjugacyClasses",
    "CoxeterDatum",
    "CoxeterGroup",
    "build_group",
    "group_datum",
    "word_name",
]

DEFAULT_MAX_ORDER = 20000

_EXCEPTIONAL_DEGREES = {
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}

_SYMBOL_RE = re.compile(r"^([ABDEFH])(\d+)$")
_DIHEDRAL_RE = re.compile(r"^I2\((\d+)\)$")


def _parse_symbol(symbol: str):
    """Normalize a type symbol to (family, rank, bond); bond only for I2."""
    s = symbol.strip()
    if s == "G2":
        raise UsageError("type G2 is not a recognized symbol here; use I2(6)")
    m = _DIHEDRAL_RE.match(s)
    if m:
        bond = int(m.group(1))
        if bond < 3:
            raise UsageError(f"I2(m) needs m >= 3, got m = {bond}")
        return "I", 2, bond
    m = _SYMBOL_RE.match(s)
    if not m:
        raise UsageError(f"unrecognized type symbol {symbol!r}")
    family, rank = m.group(1), int(m.group(2))
    minimum = {"A": 1, "B": 2, "D": 4, "E": 6, "F": 4, "H": 3}[family]
    maximum = {"A": None, "B": None, "D": None, "E": 8, "F": 4, "H": 4}[family]
    if rank < minimum or (maximum is not None and rank > maximum):
        raise UsageError(f"rank {rank} is out of range for family {family}")
    return family, rank, None


def _coxeter_matrix(family: str, rank: int, bond) -> tuple:
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1

    def link(i, j):
        m[i][j] = m[j][i] = 3

    if family == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif family == "B":
        for i in range(rank - 1):
            link(i, i + 1)
        m[rank - 2][rank - 1] = m[rank - 1][rank - 2] = 4
    elif family == "D":
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)
    elif family == "I":
        m[0][1] = m[1][0] = bond
    elif family == "H":
        m[0][1] = m[1][0] = 5
        for i in range(1, rank - 1):
            link(i, i + 1)
    elif family == "F":
        link(0, 1)
        m[1][2] = m[2][1] = 4
        link(2, 3)
    elif family == "E":
        # nodes 0,2,3,4,... form the long path; node 1 hangs off node 3
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    else:
        raise InternalInconsistencyError(f"unhandled family {family}")
    return tuple(tuple(row) for row in m)


def _closed_form_degrees(family: str, rank: int, bond) -> tuple:
    if family == "A":
        return tuple(range(2, rank + 2))
    if family == "B":
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * rank - 1, 2)) + [rank]))
    if family == "I":
        return tuple(sorted((2, bond)))
    return _EXCEPTIONAL_DEGREES[f"{family}{rank}"]


def _cosine_conductor(m: int) -> int:
    """Smallest M with 2cos(pi/m) in Q(zeta_M)."""
    if m <= 2:
        return 1
    if m == 3:
        return 1
    return m if m % 2 else 2 * m


class CoxeterDatum:
    """Type-level data: diagram, degrees, field conductors, reflection action.

    Everything here is available without enumerating the group, including for
    E6/E7/E8.  ``conductor`` is the working field for character-level work,
    lcm of the group exponent and 2*m_st over all Coxeter matrix entries;
    ``refl_conductor`` is the smaller field that already holds every entry of
    the reflection matrices; the group fingerprint records it.
    ``crystallographic`` marks the Weyl types, whose Coxeter matrix entries
    are all 2, 3, 4 or 6: exactly the finite Coxeter groups with integer
    character values.
    """

    __slots__ = (
        "type_symbol", "rank", "coxeter_matrix", "degrees",
        "order", "num_positive_roots", "exponent", "conductor",
        "refl_conductor", "crystallographic",
    )

    def __init__(self, family: str, rank: int, bond):
        self.rank = rank
        self.type_symbol = f"I2({bond})" if family == "I" else f"{family}{rank}"
        self.coxeter_matrix = _coxeter_matrix(family, rank, bond)
        self.degrees = _closed_form_degrees(family, rank, bond)
        order = 1
        for d in self.degrees:
            order *= d
        self.order = order
        self.num_positive_roots = sum(d - 1 for d in self.degrees)
        self.exponent = lcm(*self.degrees)
        twos = [2 * e for row in self.coxeter_matrix for e in row]
        self.conductor = lcm(self.exponent, *twos)
        self.refl_conductor = lcm(
            1, *(_cosine_conductor(e) for row in self.coxeter_matrix for e in row)
        )
        self.crystallographic = all(
            e in (1, 2, 3, 4, 6) for row in self.coxeter_matrix for e in row
        )

    def __repr__(self) -> str:
        return f"CoxeterDatum({self.type_symbol})"

    def reflection_action(self):
        """The reflection representation modulo the prime of
        `residue_map(conductor, order)`, as (identity, right_mul).

        A matrix is a flat tuple of residues mod p with entry (i, j) at
        index i*rank + j: the image of the exact matrix under zeta_M ->
        eta, M = conductor.  Generator s sends alpha_s to -alpha_s and
        alpha_j to alpha_j + c_sj alpha_s with c_sj = 2cos(pi/m_sj) =
        zeta_2m + zeta_2m^-1, whose image is eta^(M/2m) + eta^(-M/2m)
        (2m divides M); right_mul(mat, s) negates column s and adds c_sj
        times column s to every bonded column j.
        """
        n = self.rank
        M = self.conductor
        p, eta, _ = residue_map(M, self.order)

        def cosine(m: int) -> int:
            k = M // (2 * m)
            return (pow(eta, k, p) + pow(eta, M - k, p)) % p

        neighbors = tuple(
            tuple(
                (j, cosine(m))
                for j, m in enumerate(self.coxeter_matrix[s])
                if j != s and m != 2
            )
            for s in range(n)
        )
        identity = tuple(int(i == j) for i in range(n) for j in range(n))

        def right_mul(mat: tuple, s: int) -> tuple:
            out = list(mat)
            for base in range(0, n * n, n):
                a = mat[base + s]
                if a:
                    out[base + s] = p - a
                    for j, c in neighbors[s]:
                        out[base + j] = (out[base + j] + a * c) % p
            return tuple(out)

        return identity, right_mul


@lru_cache(maxsize=None)
def group_datum(symbol: str) -> CoxeterDatum:
    """Parse and validate a type symbol."""
    family, rank, bond = _parse_symbol(symbol)
    return CoxeterDatum(family, rank, bond)


class ConjugacyClasses:
    """Conjugation-orbit decomposition with deterministic numbering.

    Classes are ordered by their smallest member index, which under ShortLex
    enumeration means by (minimal length, then lexicographically least word).
    """

    __slots__ = ("class_of", "members", "representatives", "sizes")

    def __init__(self, class_of, members):
        self.class_of = class_of
        self.members = members
        self.representatives = [c[0] for c in members]
        self.sizes = [len(c) for c in members]

    def __len__(self) -> int:
        return len(self.members)


class CoxeterGroup:
    """A fully enumerated finite Coxeter group with its Cayley structure.

    Immutable after construction; every query method is read-only.  Built
    through :func:`build_group`, not directly.
    """

    __slots__ = (
        "datum", "size", "words", "length", "right", "left", "inverse",
        "w0", "left_descent_mask",
        "_classes", "_fingerprint",
    )

    # -- construction ------------------------------------------------------

    def __init__(self, datum: CoxeterDatum, words, length, right, inverse):
        self.datum = datum
        self.size = len(words)
        self.words = words
        self.length = length
        self.right = right
        self.inverse = inverse
        n = datum.rank
        left = [[0] * self.size for _ in range(n)]
        for s in range(n):
            row = right[s]
            inv = inverse
            ls = left[s]
            for w in range(self.size):
                ls[w] = inv[row[inv[w]]]
        self.left = left
        lengths = length
        maxlen = max(lengths)
        longest = [w for w in range(self.size) if lengths[w] == maxlen]
        if len(longest) != 1:
            raise InternalInconsistencyError("longest element is not unique")
        self.w0 = longest[0]
        if maxlen != datum.num_positive_roots:
            raise InternalInconsistencyError(
                f"longest length {maxlen} does not match the root count"
            )
        lmask = [0] * self.size
        for s in range(n):
            lrow = left[s]
            bit = 1 << s
            for w in range(self.size):
                if lengths[lrow[w]] < lengths[w]:
                    lmask[w] |= bit
        self.left_descent_mask = lmask
        self._classes = None
        self._fingerprint = None

    def __repr__(self) -> str:
        return f"CoxeterGroup({self.datum.type_symbol}, order={self.size})"

    # -- elementary queries ------------------------------------------------

    def element_by_word(self, word) -> int:
        """Index of the product s_{i1} ... s_{ik} for a 0-based index word."""
        w = 0
        for s in word:
            if not 0 <= s < self.datum.rank:
                raise UsageError(f"generator index {s} out of range")
            w = self.right[s][w]
        return w

    def multiply(self, x: int, y: int) -> int:
        for s in self.words[y]:
            x = self.right[s][x]
        return x

    def order_of(self, x: int) -> int:
        k, cur = 1, x
        while cur != 0:
            cur = self.multiply(cur, x)
            k += 1
        return k

    def poincare_polynomial(self) -> LaurentPoly:
        from .exactnum import LaurentPoly  # loads fractions: only on demand
        counts = {}
        for l in self.length:
            counts[l] = counts.get(l, 0) + 1
        return LaurentPoly(counts, var="X")

    def diagram_automorphisms(self) -> tuple:
        """Element permutations of the diagram automorphisms, identity first.

        A permutation sigma of the generators that preserves the Coxeter
        matrix extends to the group automorphism s_1 ... s_k ->
        sigma(s_1) ... sigma(s_k); each is returned as the tuple of images
        of the element indices.
        """
        m = self.datum.coxeter_matrix
        n = self.datum.rank
        out = []
        for sigma in itertools.permutations(range(n)):
            if any(m[sigma[i]][sigma[j]] != m[i][j]
                   for i in range(n) for j in range(i)):
                continue
            image = [0] * self.size
            for w in range(1, self.size):
                s = self.words[w][-1]
                image[w] = self.right[sigma[s]][image[self.right[s][w]]]
            out.append(tuple(image))
        return tuple(out)

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> ConjugacyClasses:
        if self._classes is not None:
            return self._classes
        n = self.datum.rank
        class_of = [-1] * self.size
        members = []
        for start in range(self.size):
            if class_of[start] >= 0:
                continue
            cid = len(members)
            orbit = [start]
            class_of[start] = cid
            frontier = [start]
            while frontier:
                nxt = []
                for x in frontier:
                    for s in range(n):
                        y = self.left[s][self.right[s][x]]
                        if class_of[y] < 0:
                            class_of[y] = cid
                            orbit.append(y)
                            nxt.append(y)
                frontier = nxt
            orbit.sort()
            members.append(orbit)
        self._classes = ConjugacyClasses(class_of, members)
        return self._classes

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of the full group structure; cache files key on this."""
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            h.update(self.datum.type_symbol.encode())
            h.update(repr(self.datum.coxeter_matrix).encode())
            h.update(str(self.datum.refl_conductor).encode())
            for w in self.words:
                h.update(bytes(w))
                h.update(b"\xff")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def metadata(self) -> dict:
        """JSON-ready summary of the group."""
        classes = self.conjugacy_classes()
        return {
            "type": self.datum.type_symbol,
            "rank": self.datum.rank,
            "order": self.size,
            "degrees": list(self.datum.degrees),
            "exponent": self.datum.exponent,
            "conductor": self.datum.conductor,
            "num_positive_roots": self.datum.num_positive_roots,
            "num_conjugacy_classes": len(classes),
            "class_sizes": list(classes.sizes),
            "longest_element_word": [s + 1 for s in self.words[self.w0]],
            "fingerprint": self.fingerprint(),
        }


def word_name(group, w: int) -> str:
    """Readable word for an element, 'e' for the identity."""
    if w == 0:
        return "e"
    return "".join(f"s{s + 1}" for s in group.words[w])


def build_group(source, max_order: int = DEFAULT_MAX_ORDER) -> CoxeterGroup:
    """Enumerate the group by BFS over the reflection matrices mod p.

    Elements are keyed on their `CoxeterDatum.reflection_action` matrices;
    an enumeration that runs past the known order or closes below it
    raises InternalInconsistencyError, so a collision mod p cannot pass,
    and so do length counts that miss the datum's degrees.  Refuses
    types whose known order exceeds max_order, reporting that order, so
    E6/E7/E8 need an explicit override to build.
    """
    datum = source if isinstance(source, CoxeterDatum) else group_datum(source)
    if datum.order > max_order:
        raise RefusalError(
            f"{datum.type_symbol} has order {datum.order}, above the cap "
            f"{max_order}; raise it with --max-order to build it anyway"
        )
    n = datum.rank
    ident, right_mul = datum.reflection_action()
    index = {ident: 0}
    mats = [ident]
    words = [()]
    length = [0]
    right = [[-1] for _ in range(n)]
    head = 0
    while head < len(mats):
        w = head
        head += 1
        mw = mats[w]
        for s in range(n):
            child = right_mul(mw, s)
            idx = index.get(child)
            if idx is None:
                idx = len(mats)
                if idx >= datum.order:
                    raise InternalInconsistencyError(
                        f"enumeration of {datum.type_symbol} overshot the "
                        f"known order {datum.order}"
                    )
                index[child] = idx
                mats.append(child)
                words.append(words[w] + (s,))
                length.append(length[w] + 1)
                for row in right:
                    row.append(-1)
            # the edge is its own inverse: idx = w*s means idx*s = w
            right[s][w] = idx
            right[s][idx] = w
    size = len(mats)
    if size != datum.order:
        raise InternalInconsistencyError(
            f"enumeration closed at {size} elements, expected {datum.order}"
        )
    del index, mats

    # inverse by walking the reversed canonical word from the identity
    inverse = [0] * size
    for w in range(size):
        x = 0
        for s in reversed(words[w]):
            x = right[s][x]
        inverse[w] = x
    for w in range(size):
        if inverse[inverse[w]] != w or length[inverse[w]] != length[w]:
            raise InternalInconsistencyError("inverse table is not an involution")

    group = CoxeterGroup(datum, words, length, right, inverse)
    _check_length_counts(length, datum.degrees)
    return group


def _check_length_counts(length, degrees):
    """Raise unless the elements counted by length are the coefficients of
    prod_i [d_i]_X, with [d]_X = 1 + X + ... + X^(d-1) = (1 - X^d) / (1 - X)
    (the product formula for the Poincare polynomial).

    [d]_X = prod Phi_e over e | d, e > 1, so the product fixes the multiset
    of degrees: peeling off the largest Phi_e as a degree recovers it.  A
    match therefore means the length counts carry exactly the closed-form
    degrees of the datum.
    """
    counts = [0] * (max(length) + 1)
    for l in length:
        counts[l] += 1
    product = [1]
    for d in degrees:
        mul_one_minus(product, d)
        div_one_minus(product, 1)
    if counts != product:
        raise InternalInconsistencyError(
            "length counts are not the product of [d]_X over the degrees "
            f"{degrees}"
        )
