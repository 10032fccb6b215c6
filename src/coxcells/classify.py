"""Transport of group representations into the asymptotic ring, parity
classification of irreducibles and involutions, fake degrees, special
representations, and the claim checks built on top of them.

The bridge is the linear map sending each group element to a combination
of the asymptotic basis {t_z}: the signed canonical-basis element c_x
with bar-dual coefficients, specialized at v = 1, goes to the sum of
h_{x,d,z} t_z over distinguished d and z in the same left cell as d
(Lusztig's homomorphism from the Hecke algebra to the asymptotic ring).
That map is invertible, so every character of the group pulls back to
trace data tr(t_z) on the asymptotic ring, and pushes forward through
the structure constants to a trace on the generic algebra.  Parity of
the exponents appearing in those generic traces splits the irreducibles
into ordinary and exceptional; the same parity language applies to
involutions through l(x) - a(x) mod 2.

Only the table columns at distinguished involutions are ever generated,
by one block recursion seeded with every d: it is linear in its first
row and keeps each term in the left cell of the term it comes from, and
the d lie in distinct left cells, so its row x holds the h_{x,d,z} with
z in the left cell of d side by side for all d, the transport row of x.
It runs at slot width 0, on the values at v = 1 (v -> 1 is a ring map),
so the matrix comes out as integers.  Only the blocks that can break
parity are computed again as polynomials, in one recursion seeded the
same way (below).  Character values lie in Z[zeta_M], so each
power-basis coordinate of a character is an integer class function and
the transport system is rational.  It is block triangular by right
cells: h_{x,d,z} != 0 implies z <=_R x, so a(z) >= a(x) (P4), and
z ~R x when a(z) = a(x) (P9).  That shape is checked on every entry.
Each irreducible lives on one two-sided cell (J is the sum of the J_c:
Lusztig, Cells in affine Weyl groups II, J. Algebra 109, 1987), where
the matrix is block diagonal by right cells, and the right-hand side is
linear in its k class values: each right cell is solved once,
uncoupled, by one fraction-free elimination in integers (Bareiss) on k
class columns, and each coordinate column is assembled from them,
checked exactly in integers and reassembled in Q(zeta_M).

Parity.  The quadratic relation (T_s + 1)(T_s - v^2) = 0 involves only
v^2, so H has the ring automorphism v -> -v, T_w -> T_w.  It sends c_w =
v^-l(w) sum P_{y,w}(v^2) T_y to (-1)^l(w) c_w, and applied to c_x c_y =
sum_z h_{x,y,z} c_z, with the c_z a basis, it gives

    h_{x,y,z}(-v) = (-1)^(l(x) + l(y) + l(z)) h_{x,y,z}(v),

that is, every exponent of h_{x,y,z} is l(x) + l(y) + l(z) mod 2.  (The
recursion of `klbase._h_block` shows the same step by step: v + v^-1,
c_{sz}, each c_t with mu(t, z) != 0, for which l(z) - l(t) is odd, and
the correction mu(z, x') c_z c_y all move the exponent parity and the
length parity together.)  The cut to a left cell drops entries and
leaves the others exact, so the lemma holds for every computed entry.
The generic trace of a solved coordinate column q on the dual
basis element at x is sum over d and z of q(z) h_{x,d,z}, and the
column is ordinary when all its exponents are l(x) mod 2.  The terms
with l(d) + l(z) even meet that by the lemma, and those with l(d) +
l(z) odd have only exponents of the other parity, so nothing cancels
between the two: the column is ordinary iff the odd part vanishes for
every x.  So only the odd entries whose z carries a nonzero solved
coordinate are read, and only the blocks d holding one are computed
again, packed (none on A3, A4, B3, B4, D4, D5, F4, I2(5), I2(8) and
I2(60); 4 of 22 on H3).  The positive scale of a solved column does
not change the test.  At v = 1 the dual trace is the integer sum_z
h_{x,d,z}(1) q(z), which `_verify_traces` compares with the scaled
character on every row.

Fake degrees follow Molien's formula one conjugacy class at a time,
modulo the prime p = 1 mod M above |W| of `residue_map`, where zeta_M ->
eta (a primitive M-th root mod p) is a ring map from Z[zeta_M].  That
ring holds the character values and the entries of the reflection
matrices, so det(1 - X w) mod p is the reversed characteristic
polynomial of w's reflection matrix mod p, the one the group enumeration
uses; and since det(1 - X w) has constant term 1, it also holds the
class quotients of Springer's divisibility.  A coefficient c_e obeys
0 <= c_e chi(1) <= [X^e] Poincare < |W| < p, so its residue is c_e; a
residue out of that bound, a division remainder, a wrong degree sum or
a missed Poincare sum raises.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .coxeter import word_name
from .errors import InternalInconsistencyError, UsageError
from .exactnum import CycloNumber, LaurentPoly, cyclo_context, is_palindromic
from .klbase import _h_block
from .modp import mul_one_minus, pdiv, residue_map

CLAIM_IDS = ("1.2b", "1.3a", "1.3c", "1.5a", "1.6b")


# ---------------------------------------------------------------------------
# the transport system

def _class_sums(store, table):
    """S[x][C] = sum over u in the class C of (-1)^l(u) P_{u,x}(1): the
    v=1 coordinates of the dual basis element attached to x, summed per
    conjugacy class, the right-hand side of the transport for any class
    function."""
    cof = table.classes.class_of
    sign = [-1 if n % 2 else 1 for n in store.group.length]
    width = len(table.classes.representatives)
    sums = []
    for us, column in store.rows_at_one():
        row = [0] * width
        for u, n in zip(us, column):
            row[cof[u]] += sign[u] * n
        sums.append(row)
    return sums


# ---------------------------------------------------------------------------
# fake degrees

def _class_quotients(degrees, charpolys, p):
    """Q_j = prod_i (1 - X^d_i) / det(1 - X w_j) mod p per class: every
    det(1 - X w) divides that product (Springer, Regular elements of
    finite reflection groups, Thm 3.4), so a remainder means a wrong
    class polynomial."""
    co = [1]
    for d in degrees:
        mul_one_minus(co, d)
    out = []
    for poly in charpolys:
        q, r = pdiv(co, poly, p)
        if r:
            raise InternalInconsistencyError("inexact class quotient")
        out.append(q)
    return out


def fake_degrees(group, table):
    """Graded multiplicities of every irreducible in the coinvariant
    algebra, as polynomials in X with nonnegative integer coefficients.

    Molien's formula class by class modulo the prime p of `residue_map`:
    P_chi = |W|^-1 sum_j |C_j| chi(C_j) Q_j with the quotients of
    `_class_quotients` by the table's `reflection_charpolys`, of degree
    N, the number of positive roots.  One prime is exact: zeta_M -> eta
    is a ring map from Z[zeta_M], which holds the values, the reflection
    matrices and the quotients (det(1 - X w) has constant term 1), and
    0 <= c_e chi(1) <= [X^e] Poincare < |W| < p, so a residue is the
    coefficient.  A residue out of that bound raises, as do a series not
    summing to chi(1) and degree-weighted series missing the Poincare
    polynomial.
    """
    p, _, to_fp = residue_map(table.conductor, group.size)
    quots = _class_quotients(
        group.datum.degrees, table.reflection_charpolys, p
    )
    top = group.datum.num_positive_roots
    poincare = [group.poincare_polynomial().coeff(e) for e in range(top + 1)]
    inv_order = pow(group.size, p - 2, p)
    series = []
    for row, dim in zip(table.vectors, table.dims):
        acc = [0] * (top + 1)
        for q, v, size in zip(quots, row, table.classes.sizes):
            scale = to_fp(v) * size
            if scale:
                for e, c in enumerate(q):
                    acc[e] += scale * c
        coeffs = [c * inv_order % p for c in acc]
        if any(c * dim > bound for c, bound in zip(coeffs, poincare)):
            raise InternalInconsistencyError(
                "graded multiplicity outside [0, [X^e] Poincare / degree]"
            )
        if sum(coeffs) != dim:
            raise InternalInconsistencyError(
                "graded multiplicities do not sum to the degree"
            )
        series.append(coeffs)
    total = [sum(d * c[e] for d, c in zip(table.dims, series))
             for e in range(top + 1)]
    if total != poincare:
        raise InternalInconsistencyError(
            "degree-weighted sum of graded series misses the length "
            "generating function"
        )
    return tuple(LaurentPoly(dict(enumerate(c)), var="X") for c in series)


# ---------------------------------------------------------------------------
# records (namedtuples: functools, and so the command line, loads
# collections anyway, where dataclasses would load inspect and ast)

class IrrepRecord(namedtuple("IrrepRecord", (
        "label", "dim", "cell", "j_traces", "a_value", "fake_degree",
        "b_value", "ordinary", "special"))):
    """One irreducible with its transport and classification data."""

    __slots__ = ()

    @property
    def exceptional(self) -> bool:
        return not self.ordinary


# A self-inverse element with its length/a-value parity class.
InvolutionRecord = namedtuple("InvolutionRecord", (
    "element", "length", "a_value", "ordinary", "cell", "left_cell"))

ClaimReport = namedtuple("ClaimReport", ("claim_id", "status", "witness"))


# Everything the classification pipeline produces for one group.
ClassifyResult = namedtuple("ClassifyResult", (
    "group", "table", "cells", "gamma", "irreps", "involutions",
    "orientation", "cell_ordinary", "expected_profile",
    "profile_consistent"))


def expected_exceptional_profile(datum):
    """(count, dimension) of the expected exceptional irreducibles, or
    None for types that have none."""
    profile = {
        "H3": (2, 4),
        "H4": (4, 16),
        "E7": (2, 512),
        "E8": (4, 4096),
    }.get(datum.type_symbol)
    if profile is None:
        return None
    count, dim = profile
    part = count * dim
    if datum.order % part or (datum.order // part) % 2 == 0:
        raise InternalInconsistencyError(
            "exceptional profile does not match the 2-part of the order"
        )
    return profile


def classify_involutions(group, cells, a):
    out = []
    for x in range(group.size):
        if group.inverse[x] != x:
            continue
        out.append(
            InvolutionRecord(
                element=x,
                length=group.length[x],
                a_value=a[x],
                ordinary=(group.length[x] - a[x]) % 2 == 0,
                cell=cells.two_sided_of[x],
                left_cell=cells.left_cell_of[x],
            )
        )
    return tuple(out)


def _finish_records(group, table, cells, gamma, jts, ordinary_flags,
                    irrep_cells):
    fakes = fake_degrees(group, table)
    records = []
    for i, cell in enumerate(irrep_cells):
        p = fakes[i]
        b = p.valuation()
        a_val = gamma.a[cells.two_sided_cells[cell][0]]
        records.append(
            IrrepRecord(
                label=table.names[i],
                dim=table.dims[i],
                cell=cell,
                j_traces=jts[i],
                a_value=a_val,
                fake_degree=p,
                b_value=b,
                ordinary=ordinary_flags[i],
                special=(a_val == b),
            )
        )
    by_cell = {}
    for r in records:
        by_cell.setdefault(r.cell, []).append(r)
    if len(by_cell) != len(cells.two_sided_cells):
        raise InternalInconsistencyError(
            "some two-sided cell carries no irreducible"
        )
    cell_ordinary = {}
    for cid, rs in by_cell.items():
        specials = [r for r in rs if r.special]
        if len(specials) != 1:
            raise InternalInconsistencyError(
                f"cell {cid} holds {len(specials)} special irreducibles"
            )
        flags = {r.ordinary for r in rs}
        if len(flags) != 1:
            raise InternalInconsistencyError(
                f"ordinary flag not constant on the fibre of cell {cid}"
            )
        cell_ordinary[cid] = flags.pop()
    profile = expected_exceptional_profile(group.datum)
    exc = [r for r in records if not r.ordinary]
    if profile is None:
        consistent = not exc
    else:
        count, dim = profile
        consistent = len(exc) == count and all(r.dim == dim for r in exc)
    return tuple(records), cell_ordinary, profile, consistent



# ---------------------------------------------------------------------------
# the exact transport solve

def _transport_blocks(trans, cells, a):
    """The right cells, after checking that they cut the transport matrix
    into triangular blocks: every entry (x, z) must have a(z) > a(x), or
    z ~R x."""
    rc = cells.right_cell_of
    for x, row in enumerate(trans):
        for z in row:
            if a[z] < a[x] or (a[z] == a[x] and rc[z] != rc[x]):
                raise InternalInconsistencyError(
                    "transport entry outside the right-cell blocks"
                )
    return cells.right_cells


def _cell_solve(trans, block, rhs_rows):
    """(det, rows): the diagonal block of one right cell solved against
    rhs_rows, one list per element, by fraction-free Gauss-Jordan
    elimination in integers (Bareiss, Math. Comp. 22, 1968).  Every
    division by the previous pivot is exact; det is the last pivot and
    rows[i] is det times the solution at block[i]."""
    n = len(block)
    rows = [[trans[x].get(z, 0) for z in block] + list(rhs)
            for x, rhs in zip(block, rhs_rows)]
    prev = 1
    for k in range(n):
        sel = next((i for i in range(k, n) if rows[i][k]), None)
        if sel is None:
            raise InternalInconsistencyError("singular diagonal block")
        rows[k], rows[sel] = rows[sel], rows[k]
        pivot = rows[k]
        piv = pivot[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                row[k + 1:] = [(piv * a - f * b) // prev
                               for a, b in zip(row[k + 1:], pivot[k + 1:])]
        prev = piv
    return prev, [row[n:] for row in rows]


def _solve_columns(trans, cells, a, sums, columns):
    """(rhs_cols, sols, col_cells) for the coordinate columns (i, k, class
    values v): rhs = S v, the solution as (den, ints), the lcm of its
    denominators and the column scaled by it, and the two-sided cell it
    lives on.  A column lives on the two-sided cell of the x of largest a
    with rhs[x] != 0 (the identity's when rhs is zero), where it is the
    solution of each right cell; that support is checked, not trusted, by
    `_verify_traces`.  So each right cell is solved once, against the
    fewer of two sets of right-hand sides: the rhs columns living on its
    two-sided cell, or the k class sums S, whose solutions times v give
    those columns.  Bareiss's det depends on the block alone, not on the
    right-hand side, and the solution times det is exact either way, so
    both give the same (den, ints)."""
    two = cells.two_sided_of
    rhs_cols, col_cells = [], []
    on_cell = {}
    for j, (_, _, vals) in enumerate(columns):
        rhs = [sum(map(mul, s, vals)) for s in sums]
        top = max((x for x, r in enumerate(rhs) if r), key=a.__getitem__,
                  default=0)
        rhs_cols.append(rhs)
        col_cells.append(two[top])
        on_cell.setdefault(two[top], []).append(j)
    parts = [[] for _ in columns]
    for block in _transport_blocks(trans, cells, a):
        js = on_cell.get(two[block[0]], ())
        if len(js) < len(sums[0]):
            det, rows = _cell_solve(
                trans, block, [[rhs_cols[j][x] for j in js] for x in block])
            nums = zip(*rows)
        else:
            det, rows = _cell_solve(trans, block, [sums[x] for x in block])
            nums = ([sum(map(mul, row, columns[j][2])) for row in rows]
                    for j in js)
        for j, col in zip(js, nums):
            parts[j].append((block, det, col))
    sols = []
    for rhs, ps in zip(rhs_cols, parts):
        den = lcm(*(det // gcd(det, *col) for _, det, col in ps))
        ints = [0] * len(rhs)
        for block, det, col in ps:
            for z, q in zip(block, col):
                ints[z] = q * den // det
        sols.append((den, ints))
    if not _verify_traces(trans, rhs_cols, sols):
        raise InternalInconsistencyError(
            "transport solution fails the exact integer check"
        )
    return rhs_cols, sols, col_cells


def _coordinate_columns(table):
    """One integer class function per nonzero power-basis coordinate of
    each irreducible's values over Q(zeta_M), as (row index, coordinate,
    values per class): the nonzero columns of its `vectors` row."""
    return [(i, k, col) for i, row in enumerate(table.vectors)
            for k, col in enumerate(zip(*row)) if any(col)]


def _assemble_traces(columns, sols, table, size):
    """Per irreducible, the tuple of asymptotic traces in Q(zeta_M) whose
    power-basis coordinates are the solved (den, ints) columns."""
    ctx = cyclo_context(table.conductor)
    jts = [[ctx.zero] * size for _ in range(len(table))]
    for (i, k, _), (den, ints) in zip(columns, sols):
        jt = jts[i]
        for z, q in enumerate(ints):
            if q:
                coeffs = list(jt[z].coeffs)
                coeffs[k] = Fraction(q, den)
                jt[z] = CycloNumber(ctx, tuple(coeffs))
    return [tuple(jt) for jt in jts]


def classify_group_streamed(store, cells, gamma, dset, table,
                            jobs=1) -> ClassifyResult:
    """Classification from the table columns at distinguished involutions
    only, each generated once.

    The blocks h_{x,d,.}, cut to the columns z in the left cell of d, are
    computed once at slot width 0, side by side in one recursion: each
    entry is then the integer h_{x,d,z}(1), the transport matrix at v=1.
    Asymptotic traces come from an exact solve in integers, one per right
    cell on the class columns, assembled per nonzero coordinate of each
    character.  A coordinate column q is ordinary iff sum_z q(z)
    h_{x,d,z} over the entries with l(d) + l(z) odd vanishes for every x
    (the parity lemma of the module docstring), so only the blocks d
    whose left cell holds such a z with a nonzero solved coordinate are
    computed again, packed, in one recursion, and only those entries are
    decoded.  jobs is accepted and unused.
    """
    group = store.group
    size = group.size
    lengths = group.length
    lc = cells.left_cell_of
    # each left cell holds one distinguished involution
    d_of = {lc[d]: d for d in dset}
    # {e} is a left cell and c_s c_e = c_s has no c_e term: trivial module
    orientation = "standard"

    kit = store.block_kit()
    trans = _h_block(kit, sorted(dset), cell=lc, bits=0)

    sums = _class_sums(store, table)
    columns = _coordinate_columns(table)
    _, sols, col_cells = _solve_columns(trans, cells, gamma.a, sums, columns)
    del sums, trans
    # each irreducible lives on the one two-sided cell of all its columns
    irrep_cells = [None] * len(table)
    for (i, _, _), cell in zip(columns, col_cells):
        if irrep_cells[i] not in (None, cell):
            raise InternalInconsistencyError(
                f"the columns of {table.names[i]} lie on two two-sided cells"
            )
        irrep_cells[i] = cell
    # the unit trace sum_d tr(t_d) is chi(1), coordinate by coordinate
    for (i, k, _), (den, ints) in zip(columns, sols):
        if sum(ints[d] for d in dset) != (den * table.dims[i] if k == 0
                                          else 0):
            raise InternalInconsistencyError(
                "unit trace differs from the degree"
            )
    jts = _assemble_traces(columns, sols, table, size)

    # per z of odd l(d) + l(z) with a nonzero solved coordinate, the
    # entries h_{x,d,z} as (x, valuation, coefficients)
    odd = {z: [] for _, ints in sols for z, q in enumerate(ints)
           if q and (lengths[z] + lengths[d_of[lc[z]]]) & 1}
    parity = sorted({d_of[lc[z]] for z in odd})
    if parity:
        for x, row in enumerate(_h_block(kit, parity, cell=lc)):
            for z, n in row.items():
                if z in odd:
                    odd[z].append((x, *kit.unpack(n)))
    flags = [True] * len(table)
    for (i, _, _), (_, ints) in zip(columns, sols):
        acc = {}
        for z, entries in odd.items():
            q = ints[z]
            if q:
                for x, val, coeffs in entries:
                    for e, c in enumerate(coeffs, val):
                        acc[x, e] = acc.get((x, e), 0) + q * c
        if any(acc.values()):
            flags[i] = False

    records, cell_ordinary, profile, consistent = _finish_records(
        group, table, cells, gamma, jts, flags, irrep_cells
    )
    involutions = classify_involutions(group, cells, gamma.a)
    return ClassifyResult(
        group, table, cells, gamma, records, involutions,
        orientation, cell_ordinary, profile, consistent,
    )


def _verify_traces(trans, rhs_cols, sols):
    """Exact check of the solved (den, ints) columns in integers: ints
    must map to den * rhs on every row.  The product walks the transpose
    of the matrix over the z where ints is nonzero, which for a solved
    column lie on its own two-sided cell."""
    # column z of the matrix as parallel lists, a third of the memory of
    # (x, c) pairs
    xs = [[] for _ in trans]
    cs = [[] for _ in trans]
    for x, row in enumerate(trans):
        for z, c in row.items():
            xs[z].append(x)
            cs[z].append(c)
    for (den, ints), rhs in zip(sols, rhs_cols):
        acc = [0] * len(trans)
        for z, q in enumerate(ints):
            if q:
                for x, c in zip(xs[z], cs[z]):
                    acc[x] += c * q
        if acc != [den * r for r in rhs]:
            return False
    return True


# ---------------------------------------------------------------------------
# claims

def _claim_12b(result):
    group = result.group
    cells = result.cells
    inv = group.inverse
    checked = 0
    for x in range(group.size):
        if cells.left_cell_of[x] != cells.left_cell_of[inv[x]]:
            continue
        checked += 1
        if not any(r.j_traces[x] for r in result.irreps):
            return "fail", {
                "element": word_name(group, x),
                "reason": "all asymptotic traces vanish",
            }
    return "pass", {"elements_checked": checked}


def _claim_13a(result):
    group = result.group
    cells = result.cells
    inv = group.inverse
    a = result.gamma.a
    checked = 0
    for cid, ordinary in sorted(result.cell_ordinary.items()):
        if not ordinary:
            continue
        for x in cells.two_sided_cells[cid]:
            if cells.left_cell_of[x] != cells.left_cell_of[inv[x]]:
                continue
            checked += 1
            if (group.length[x] - a[x]) % 2:
                return "fail", {
                    "cell": cid,
                    "element": word_name(group, x),
                    "length": group.length[x],
                    "a": a[x],
                }
    return "pass", {"elements_checked": checked}


def _claim_13c(result):
    group = result.group
    cells = result.cells
    exc_cells = sorted(
        cid for cid, ordinary in result.cell_ordinary.items() if not ordinary
    )
    if not exc_cells:
        return "pass", {"exceptional_cells": 0}
    inv_by_elt = {r.element: r for r in result.involutions}
    details = []
    for cid in exc_cells:
        fibre = [r for r in result.irreps if r.cell == cid]
        left_ids = sorted(
            {cells.left_cell_of[x] for x in cells.two_sided_cells[cid]}
        )
        dims = sorted(r.dim for r in fibre)
        if len(fibre) != 2 or dims[0] != dims[1]:
            return "fail", {"cell": cid, "fibre_dims": dims}
        if dims[0] != len(left_ids):
            return "fail", {
                "cell": cid,
                "dimension": dims[0],
                "left_cells": len(left_ids),
            }
        pairs = []
        for lid in left_ids:
            invs = [
                inv_by_elt[x]
                for x in cells.left_cells[lid]
                if x in inv_by_elt
            ]
            ordinary = [r for r in invs if r.ordinary]
            strange = [r for r in invs if not r.ordinary]
            if len(ordinary) != 1 or len(strange) != 1:
                return "fail", {
                    "cell": cid,
                    "left_cell": lid,
                    "ordinary_involutions": len(ordinary),
                    "exceptional_involutions": len(strange),
                }
            pairs.append(
                [
                    word_name(group, ordinary[0].element),
                    word_name(group, strange[0].element),
                ]
            )
        details.append(
            {
                "cell": cid,
                "left_cells": len(left_ids),
                "fibre": [r.label for r in fibre],
                "dimension": dims[0],
                "involution_pairs": pairs,
            }
        )
    return "pass", {"exceptional_cells": len(exc_cells), "cells": details}


def _claim_15a(result):
    bad = []
    for r in result.irreps:
        pal = is_palindromic(r.fake_degree) is not None
        if pal != r.ordinary:
            return "fail", {
                "irrep": r.label,
                "ordinary": r.ordinary,
                "palindromic": pal,
            }
        if not pal:
            bad.append(r.label)
    return "pass", {
        "irreps": len(result.irreps),
        "non_palindromic": bad,
    }


def _claim_16b(result):
    table = result.table
    by_row = {
        table.names.index(r.label): r for r in result.irreps
    }
    checked = []
    for cid, ordinary in sorted(result.cell_ordinary.items()):
        special = next(
            r for r in result.irreps if r.cell == cid and r.special
        )
        idx = table.names.index(special.label)
        twisted = by_row[table.tensor_sign_index(idx)]
        if twisted.special != ordinary:
            return "fail", {
                "cell": cid,
                "special": special.label,
                "twisted": twisted.label,
                "twisted_special": twisted.special,
                "cell_ordinary": ordinary,
            }
        checked.append(
            {
                "cell": cid,
                "special": special.label,
                "twisted": twisted.label,
            }
        )
    return "pass", {"cells": checked}


_CLAIMS = {
    "1.2b": _claim_12b,
    "1.3a": _claim_13a,
    "1.3c": _claim_13c,
    "1.5a": _claim_15a,
    "1.6b": _claim_16b,
}


def verify_claim(claim_id, result) -> ClaimReport:
    """Run one claim check over a finished classification."""
    fn = _CLAIMS.get(claim_id)
    if fn is None:
        raise UsageError(
            f"unknown claim {claim_id!r}; expected one of {', '.join(CLAIM_IDS)}"
        )
    return ClaimReport(claim_id, *fn(result))
