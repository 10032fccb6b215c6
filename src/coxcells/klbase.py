"""Canonical basis of the Hecke algebra and its structure constants.

The Hecke algebra here is taken over Z[v, v^-1] with quadratic relation
(T_s + 1)(T_s - v^2) = 0.  The canonical basis element attached to w is

    c_w = v^(-l(w)) * sum over y <= w of P_{y,w}(v^2) T_y

with P the classical polynomials in q = v^2 (integer coefficients, constant
term 1, q-degree at most (l(w) - l(y) - 1)/2 for y < w).  mu(y, w) is the
coefficient at that top degree bound.

P_{y,w} is stored as the int P_{y,w}(2^bits) and `compute_kl` runs on
those ints, q -> 2^bits being a ring map.  Each structure constant
h_{x,y,z} inside the recursion is one int too: p(v) is stored as
p(2^bits) * 2^(bits * off) with off = l(w0) + 1, one signed coefficient
per slot (Kronecker substitution).  Addition and integer scaling are
then the int operations and multiplication by v + v^-1 is a shift pair.
`Packing` decodes both: `lead` reads the top degree and leading
coefficient off the bit length, and `unpack` decodes balanced digits
back to a pair (val, coeffs) meaning sum coeffs[i] * v^(val + i).  Both
widths are proven from positivity (see `KLStore`); the digit check is
only a sanity check.  The same recursion at width 0 runs on the values
at v = 1: p(2^0) = p(1), and v -> 1 is a ring map Z[v, v^-1] -> Z.
`vp` keeps the constants of the (val, coeffs) form for the generator
rows; the test oracles extend it with the arithmetic.

Products c_x c_y = sum over z of h_{x,y,z} c_z come in bulk from the
left-multiplication recursion on blocks of fixed y (`stream_h_blocks`),
which never touches the T-basis and is what makes the big groups
affordable.  No all-pairs table is ever held: each block can be reduced
as soon as it is computed, and only the reduction is kept.  A block can
also be cut to a set of rows closed under the recursion
(`BlockKit.closure`); the leading scan cuts each block to the rows of
one left cell (Lusztig's P8, see `jring._leading_scan`).  And a block y
can be cut to the columns z in the left cell of y, which is all that
the leading scan and the transport pass read: the c_z with z <_L y span
a left ideal, and modulo it the products c_x c_y live in the left cell
module of Kazhdan-Lusztig (Invent. Math. 53, 1979), with basis the left
cell of y, where the same recursion runs.  The blocks of ys in distinct
left cells run side by side as one recursion in the direct sum of their
cell modules (see `_h_block`), whose rows the transport pass reads.
Every block is computed in the calling process.  The test suite checks
the blocks against products taken row by row through the T-basis.

The cache is one file, cache.bin, per type (format 7).  It holds the
table of distinct P values, the bytes of each element's two row arrays
as `KLStore` holds them, so that a row loads as one copy plus its
checks (mu is read off the rows again on load), and the result of the
leading scan (a-values and leading coefficients), not the h rows
themselves.  It ends with the SHA-256 of everything before it, and is
written under a temporary name and moved into place in one step, so a
reader sees either a whole file or none; a torn or altered file fails
its digest and is recomputed rather than read.
"""

from __future__ import annotations

import io
import os
import struct
import sys
from array import array
from bisect import bisect_left
from itertools import compress, islice, repeat
from operator import lt, rshift

from .coxeter import CoxeterGroup
from .errors import CacheInvalidError, InternalInconsistencyError

__all__ = [
    "BlockKit",
    "HTable",
    "KLStore",
    "Packing",
    "cache_load",
    "cache_save",
    "compute_kl",
    "generator_rows",
    "stream_h_blocks",
    "vp",
]

CACHE_FORMAT_VERSION = 7


# ---------------------------------------------------------------------------
# value polynomials: (val, coeffs) with coeffs a tuple of ints


class vp:
    """Constants of the (val, coeffs) value polynomials."""

    ZERO = (0, ())
    ONE = (0, (1,))
    # v + v^-1, the eigenvalue sum of c_s acting on its own line
    GATE = (-1, (1, 0, 1))


# ---------------------------------------------------------------------------
# packed entries: p(v) as the integer p(2^bits) * 2^(bits * off)


class Packing:
    """The packed form of a P or h entry: p as p(2^bits) * 2^(bits * off).

    Degrees within +-(off - 1) and coefficients below 2^(bits - 2) in
    magnitude are what the recursions guarantee (see `KLStore`); under
    them every slot is one balanced digit.  The decoders check the
    digits they read against 2^(bits - 2), which catches a slot that is
    too narrow by up to one bit, not every overflow: a value of 2^(bits-1)
    or more carries into the next slot and reads as a small digit.
    Exactness rests on the proven width.
    """

    __slots__ = ("bits", "off")

    def __init__(self, bits: int, off: int):
        self.bits = bits
        self.off = off

    def unpack(self, n: int) -> tuple:
        """(val, coeffs) of a packed entry, read as balanced digits."""
        if not n:
            return vp.ZERO
        bits = self.bits
        lo = ((n & -n).bit_length() - 1) // bits
        n >>= lo * bits
        base = 1 << bits
        half = base >> 1
        mask = base - 1
        coeffs = []
        while n:
            d = n & mask
            if d >= half:
                d -= base
            coeffs.append(d)
            n = (n - d) >> bits
        if max(map(abs, coeffs)) >= half >> 1:
            raise InternalInconsistencyError("coefficient overflows its slot")
        return (lo - self.off, tuple(coeffs))

    def top_degree(self, n: int) -> int:
        """Top degree of a nonzero packed entry.

        Every lower slot adds less than half a unit of the top one, so
        the top slot is the bit length over the width.
        """
        return n.bit_length() // self.bits - self.off

    def lead(self, n: int) -> tuple:
        """(top degree, leading coefficient) of a nonzero packed entry;
        the coefficient is a rounded shift, no full decode."""
        bits = self.bits
        k = n.bit_length() // bits
        c = (n + (1 << (k * bits - 1))) >> (k * bits)
        if abs(c) >= 1 << (bits - 2):
            raise InternalInconsistencyError("coefficient overflows its slot")
        return k - self.off, c


# ---------------------------------------------------------------------------
# KL store


class KLStore:
    """Polynomials P, coefficients mu, and the data for c-basis products.

    P is kept per target as two parallel arrays: P_by_w[w] is the sorted
    array('I') of the y <= w, and P_index_by_w[w] holds, for each of
    them, the index into P_values of the int P_{y,w}(2^bits), bits =
    l(w0) + 2, which `P` decodes.  Most rows repeat a handful of values
    (313 distinct ones on F4, for 396 809 pairs), so a pair costs 8
    bytes, and cache format 7 holds the two arrays' bytes as they are.
    mu_by_w[w] lists the pairs (z, mu(z, w)) with nonzero mu, sorted by z.

    Both slot widths rest on one lemma.  Put N(w) = sum over u of
    P_{u,w}(1).  The ring maps c_w -> sum_u P_{u,w}(1) u at v = 1 and
    Z[W] -> Z, summing coefficients, give N(x) N(y) = sum over z of
    h_{x,y,z}(1) N(z), every term >= 0 by positivity (Elias-Williamson,
    Ann. of Math. 180, 2014).  With x = s, N(sw) <= 2 N(w) for s w > w,
    so a coefficient of P_{y,w} is at most N(w) - 1 < 2^l(w) <=
    2^(bits - 2), and so is P(1) = P(2^bits) mod (2^bits - 1).  A
    coefficient of h_{x,y,z} is at most N(x) N(y) <= maxN^2, maxN = max
    N(w), which exceeds N(w0) = |W| (F4: 11648 and 1152).  Entries are
    exact ints whatever their intermediate sums, so only the final ones
    need to fit.
    """

    __slots__ = ("group", "P_by_w", "P_index_by_w", "P_values", "mu_by_w",
                 "packing", "_kit")

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.P_by_w = [None] * group.size
        self.P_index_by_w = [None] * group.size
        self.P_values = []
        self.mu_by_w = [None] * group.size
        self.packing = Packing(group.length[group.w0] + 2, 0)
        self._kit = None

    def block_kit(self) -> BlockKit:
        """The BlockKit of this store, built on first use."""
        if self._kit is None:
            self._kit = BlockKit(self)
        return self._kit

    def P(self, x: int, y: int) -> tuple:
        """Ascending q-coefficients of P_{x,y}; () when x is not <= y."""
        row = self.P_by_w[y]
        i = bisect_left(row, x)
        if i == len(row) or row[i] != x:
            return ()
        return self.packing.unpack(self.P_values[self.P_index_by_w[y][i]])[1]

    def rows_at_one(self):
        """(ys, the P_{y,w}(1) of those ys) for each w, P(1) being P(2^bits)
        mod (2^bits - 1), taken once per distinct value."""
        m = (1 << self.packing.bits) - 1
        at_one = [n % m for n in self.P_values]
        for ys, ids in zip(self.P_by_w, self.P_index_by_w):
            yield ys, map(at_one.__getitem__, ids)


def _length_starts(group: CoxeterGroup) -> list:
    """The index of the first element of each length, then |W|: the
    elements are indexed in ShortLex order, which refines length."""
    return [bisect_left(group.length, n)
            for n in range(group.length[group.w0] + 2)]


def _mu_row(store: KLStore, w: int, starts: list) -> tuple:
    """(z, mu(z, w)) pairs with nonzero mu, sorted by z, read off the
    stored row of w; starts is `_length_starts` of the group.

    mu(z, w) is the coefficient of q^((l(w) - l(z) - 1)/2) in P_{z,w},
    nonzero only when l(w) - l(z) is odd.  Within the degree bound it is
    the top slot, one shift of a positive value.  The z of one length
    are one slice of the sorted row.
    """
    ys = store.P_by_w[w]
    ids = store.P_index_by_w[w]
    values = store.P_values
    bits = store.packing.bits
    lw = store.group.length[w]
    mus = []
    for n in range((lw + 1) % 2, lw, 2):
        a = bisect_left(ys, starts[n])
        b = bisect_left(ys, starts[n + 1], a)
        if a < b:
            top = list(map(rshift, map(values.__getitem__, ids[a:b]),
                           repeat(bits * ((lw - n) // 2))))
            mus += compress(zip(ys[a:b], top), top)
    return tuple(mus)


def compute_kl(group: CoxeterGroup) -> KLStore:
    """All P_{x,y} and mu by the classical length-increasing recursion.

    For w = s u with l(w) = l(u) + 1 (Kazhdan-Lusztig, Invent. Math. 53,
    1979), on the packed ints directly, q being the shift by bits:

        P_{y,w} = q^[sy<y] P_{y,u} + q^[y<sy] P_{sy,u}
                  - sum over z with sz < z of mu(z, u) q^((l(w)-l(z))/2) P_{y,z}

    Each (y, P_{y,u}) therefore adds q^[sy<y] P_{y,u} to both y and sy,
    and the y <= w are the y <= u and their s y.  Every term is constant
    on each pair {y, sy}, as P_{y,w} = P_{sy,w} is, s being a left
    descent of w, so the sums run once per pair, at its shorter member,
    in one dense list per w.  The degree bound is checked at the longer
    member sy, where it is the stricter, and each new distinct value
    once for sign and constant term 1.
    """
    size = group.size
    length = group.length
    left = group.left
    lmask = group.left_descent_mask
    words = group.words
    top = length[group.w0]

    store = KLStore(group)
    P_by_w = store.P_by_w
    index_by_w = store.P_index_by_w
    values = store.P_values
    mu_by_w = store.mu_by_w
    bits = store.packing.bits
    mask = (1 << bits) - 1
    # per l(w), indexed by l(y): P_{y,w} stays below 2^(bits * slots),
    # with (l(w) - l(y) + 1) // 2 slots for y < w, and P_{w,w} = 1
    limit = [[1 << bits * ((lw - ly + 1) // 2) for ly in range(lw)] + [2]
             for lw in range(top + 1)]
    starts = _length_starts(group)
    values.append(1)
    index = {1: 0}
    # scaled[j][i] = q^j P_values[i], for the q^j of both sums
    scaled = [values] + [[1 << bits * j] for j in range(1, top // 2 + 2)]
    qvalues = scaled[1]
    P_by_w[0] = array("I", [0])
    index_by_w[0] = array("I", [0])
    mu_by_w[0] = ()

    for w in range(1, size):
        s = words[w][0]                       # smallest left descent
        lrow = left[s]
        u = lrow[w]
        lw = length[w]
        # every term is constant on each pair {y, sy}, as row w is: sum
        # at the shorter member y < sy (index order refines length); it
        # is in row u, ahead of sy when sy is there too
        acc = [0] * size
        low = []
        for y, i in zip(P_by_w[u], index_by_w[u]):
            sy = lrow[y]
            if y < sy:
                low.append(y)
                acc[y] = values[i]
            else:
                acc[sy] += qvalues[i]
        for z, m in mu_by_w[u]:
            if lmask[z] >> s & 1:
                col = scaled[(lw - length[z]) // 2]
                if m != 1:
                    col = [n * m for n in col]
                for y, i in zip(P_by_w[z], index_by_w[z]):
                    if y < lrow[y]:
                        acc[y] -= col[i]
        # the pairs {y, sy} of row w, y < sy, with the value of each
        high = list(map(lrow.__getitem__, low))
        ns = list(map(acc.__getitem__, low))
        ids = list(map(index.get, ns))
        fresh = set(ns).difference(index) if None in ids else ()
        # the degree bound at sy, one less than at y, is the stricter
        bound = limit[lw]
        if any(n <= 0 or n & mask != 1 for n in fresh) or not all(
                map(lt, ns, map(bound.__getitem__,
                                map(length.__getitem__, high)))):
            y = next(y for y, n in zip(high, ns) if not 0 < n < bound[
                length[y]] or n & mask != 1)
            raise InternalInconsistencyError(
                f"P({y},{w}) breaks its degree bound or constant term"
            )
        if fresh:
            for n in fresh:
                index[n] = len(values)
                for j, col in enumerate(scaled):
                    col.append(n << bits * j)
            ids = list(map(index.__getitem__, ns))
        # acc now maps each y of row w to its value index
        for y, sy, i in zip(low, high, ids):
            acc[y] = acc[sy] = i
        row = sorted(low + high)
        if row[-1] != w:
            raise InternalInconsistencyError(
                f"canonical basis recursion lost the top term at {w}"
            )
        P_by_w[w] = array("I", row)
        index_by_w[w] = array("I", list(map(acc.__getitem__, row)))
        mu_by_w[w] = _mu_row(store, w, starts)

    return store


# ---------------------------------------------------------------------------
# bulk h-table work


class HTable:
    """Structure-constant rows h_{x,y,.} keyed by (x, y), for x of length
    1 only or for every x.  Rows are tuples of (z, value polynomial)
    sorted by z.
    """

    __slots__ = ("group", "rows")

    def __init__(self, group: CoxeterGroup, rows: dict):
        self.group = group
        self.rows = rows


def _generator_row(store: KLStore, s: int, y: int) -> tuple:
    """c_s c_y read off descents and mu, no polynomial arithmetic."""
    group = store.group
    if group.left_descent_mask[y] >> s & 1:
        return ((y, vp.GATE),)
    out = [(group.left[s][y], vp.ONE)]
    for z, m in store.mu_by_w[y]:
        if group.left_descent_mask[z] >> s & 1:
            out.append((z, (0, (m,))))
    out.sort()
    return tuple(out)


def generator_rows(store: KLStore) -> HTable:
    """The generators-only h-table, enough for the cell preorders."""
    group = store.group
    rows = {}
    gens = [(group.element_by_word((s,)), s) for s in range(group.datum.rank)]
    for y in range(group.size):
        for s_elt, s in gens:
            rows[(s_elt, y)] = _generator_row(store, s, y)
    return HTable(group, rows)


class BlockKit(Packing):
    """Just enough immutable data to run one y-block of the h recursion.

    mu_down[s][z] lists the (t, mu(t, z)) with s t < t, the terms c_s c_z
    picks up when s z > z.  Entries are packed in slots of `bits` bits at
    degree offset `off` = l(w0) + 1, bits = (maxN^2).bit_length() + 2 by
    the lemma of `KLStore` (30 bits on F4 and D5); a row cut to a left
    cell keeps exact entries, so it fits too.
    """

    __slots__ = ("size", "left", "lmask", "first_letter", "mu_down")

    def __init__(self, store: KLStore):
        g = store.group
        self.size = g.size
        self.left = g.left
        self.lmask = g.left_descent_mask
        self.first_letter = [w[0] if w else -1 for w in g.words]
        # the store's (t, mu) pairs themselves, shared, not copied
        self.mu_down = [
            [tuple(e for e in mus if self.lmask[e[0]] >> s & 1)
             for mus in store.mu_by_w]
            for s in range(g.datum.rank)
        ]
        # N(w) <= 2^(bits - 2) is the sum of its row at v = 1 (see KLStore)
        top = max(sum(row) for _, row in store.rows_at_one())
        # two spare bits keep every balanced digit below 2^(bits - 2)
        super().__init__((top * top).bit_length() + 2, g.length[g.w0] + 1)

    def closure(self, xs) -> tuple:
        """xs with the identity and every row the recursion builds them
        from, sorted: the parent x' = s x of each x and the z with
        mu(z, x') != 0 and s z < z, recursively."""
        need = {0, *xs}
        stack = list(need)
        while stack:
            x = stack.pop()
            if x:
                s = self.first_letter[x]
                parent = self.left[s][x]
                for z in (parent, *(t for t, _ in self.mu_down[s][parent])):
                    if z not in need:
                        need.add(z)
                        stack.append(z)
        return tuple(sorted(need))


def _h_block(kit: BlockKit, ys, xs: tuple | None = None,
             cell=None, bits: int | None = None) -> list:
    """Rows h_{x,y,.} for the y in ys side by side, indexed by x, packed
    in slots of `bits` bits (the kit's width by default): every row, or
    those in xs, a sorted tuple closed under `BlockKit.closure`; the
    other rows are None.  With cell, the left-cell array, each row keeps
    only the columns z in the left cell of each y.  At width 0 an entry
    is the integer h_{x,y,z}(1) and the shift pair below is 2p, the
    value of v + v^-1 at v = 1; v -> 1 is a ring map, so those values
    are exact too.

    Row x is built from row x' (x = s x', first-letter descent) through
    c_x c_y = c_s (c_x' c_y) - sum mu(z, x') c_z c_y over z with s z < z.
    x' and every such z are shorter than x, so have smaller indices.
    Left multiplication by c_s in the c-basis needs only descents and mu.
    Row x has degrees within +-l(x) < off, so multiplying by v + v^-1 is
    the exact shift pair (p << bits) + (p >> bits).  mu is almost always
    1, and skipping that product saves a copy of a wide integer.

    The cut to the left cell is exact: every c_x c_y lies in the left
    ideal spanned by the c_z with z <=_L y, and those with z <_L y span a
    left ideal I' inside it.  Modulo I' the recursion is the same, with
    basis the left cell of y (the left cell module, Kazhdan-Lusztig,
    Invent. Math. 53, 1979), so dropping the terms that c_s c_z sends out
    of the cell at every step leaves the other entries exact, so the
    width of `BlockKit` holds for a cut row too.  With row 0 holding
    every y and each term kept in the left cell of the term it comes
    from, the recursion, linear in row 0, runs in the direct sum of the
    left cell modules of the ys, one block per summand.  Two ys in one
    cell, as any two are without cell, would add up there: refused.
    """
    bits = kit.bits if bits is None else bits
    lmask = kit.lmask
    rows = [None] * kit.size
    if cell is None:
        cell = bytes(kit.size)  # one cell holding every element
    if len({cell[y] for y in ys}) != len(ys):
        raise InternalInconsistencyError(
            "two h blocks side by side share a left cell")
    rows[0] = dict.fromkeys(ys, 1 << bits * kit.off)
    for x in range(1, kit.size) if xs is None else xs[1:]:
        s = kit.first_letter[x]
        lrow = kit.left[s]
        down = kit.mu_down[s]
        parent = lrow[x]
        acc = {}
        get = acc.get
        for z, p in rows[parent].items():
            if lmask[z] >> s & 1:
                acc[z] = get(z, 0) + (p << bits) + (p >> bits)
            else:
                home = cell[z]
                sz = lrow[z]
                if cell[sz] == home:
                    acc[sz] = get(sz, 0) + p
                for t, m in down[z]:
                    if cell[t] == home:
                        acc[t] = get(t, 0) + (p if m == 1 else p * m)
        for z, m in down[parent]:
            for t, p in rows[z].items():
                acc[t] = get(t, 0) - (p if m == 1 else p * m)
        rows[x] = {z: p for z, p in acc.items() if p}
    return rows


def stream_h_blocks(store: KLStore, consumer, ys=None, reduce=None,
                    rows=None, cell=None):
    """Run the h recursion block by block, in the order of ys.

    ys selects which y-blocks to visit (all of them by default).  rows,
    when given, is indexed by y: block y then computes only the rows
    rows[y], a closed set as `BlockKit.closure` returns, and the others
    are None.  cell, when given, is the left-cell array (the cell id of
    every element): block y then holds only the columns z in the left
    cell of y (see `_h_block`).  With no reduce, `consumer(x, y, row)`
    receives every row of every block, packed.  With reduce,
    `consumer(y, reduce(kit, y, block))` receives one result per block,
    kit being the store's `BlockKit` (whose `unpack` and `lead` decode an
    entry), and the block is dropped before the next one is computed.
    """
    kit = store.block_kit()
    for y in range(kit.size) if ys is None else ys:
        block = _h_block(kit, (y,), None if rows is None else rows[y], cell)
        if reduce is not None:
            consumer(y, reduce(kit, y, block))
        else:
            for x, row in enumerate(block):
                consumer(x, y, row)
        # two whole blocks alive at once would raise the peak memory
        del block


# ---------------------------------------------------------------------------
# cache


def _write_record(f, payload: bytes):
    f.write(struct.pack("<I", len(payload)))
    f.write(payload)


def _read_record(f) -> bytes:
    head = f.read(4)
    if len(head) != 4:
        raise CacheInvalidError("truncated cache record")
    (n,) = struct.unpack("<I", head)
    payload = f.read(n)
    if len(payload) != n:
        raise CacheInvalidError("truncated cache record")
    return payload


def _little(row: array) -> array:
    """row in little-endian order, as cache.bin holds it: a byte-swapped
    copy on a big-endian host, row itself otherwise."""
    if sys.byteorder == "big":
        row = array(row.typecode, row)
        row.byteswap()
    return row


# one (x, y, z, leading coefficient) entry of the lead record
_LEAD = struct.Struct("<IIIq")

_CACHE_FILE = "cache.bin"
_MAGIC = b"CXCC"


def _replace_file(directory: str, name: str, *chunks):
    """Write the chunks under a temporary sibling name, then move it into
    place; the temporary is removed when either step fails."""
    path = os.path.join(directory, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cache_save(store: KLStore, gamma, directory: str):
    """Write cache.bin in one move into place.

    It holds magic and version, the fingerprint record, the element
    count, one record of P_values (an <I count, an <H byte length per
    value, then the little-endian bytes), one record per element of its
    P_by_w array and then its P_index_by_w array, both <I, so on a
    little-endian host the bytes the arrays hold (mu is not stored), the
    a-values and (x, y, z, lead) records of gamma's leading scan, and
    last the SHA-256 of everything before it.
    """
    import hashlib

    os.makedirs(directory, exist_ok=True)
    size = store.group.size
    values = [n.to_bytes((n.bit_length() + 7) // 8, "little")
              for n in store.P_values]
    f = io.BytesIO()
    f.write(_MAGIC + struct.pack("<I", CACHE_FORMAT_VERSION))
    _write_record(f, store.group.fingerprint().encode())
    f.write(struct.pack("<I", size))
    _write_record(f, struct.pack(f"<I{len(values)}H", len(values),
                                 *map(len, values)) + b"".join(values))
    for ys, ids in zip(store.P_by_w, store.P_index_by_w):
        f.write(struct.pack("<I", 4 * (len(ys) + len(ids))))
        f.write(_little(ys))
        f.write(_little(ids))
    _write_record(f, struct.pack(f"<{size}I", *gamma.a))
    _write_record(f, b"".join(
        _LEAD.pack(x, y, z, c) for (x, y, z), c in gamma.lead.items()
    ))
    with f.getbuffer() as body:
        _replace_file(directory, _CACHE_FILE, body,
                      hashlib.sha256(body).digest())


def cache_load(directory: str, group: CoxeterGroup):
    """(KLStore, (a, lead)) for this group, or None without cache.bin.

    (a, lead) is the cached leading scan, as compute_gamma takes it.
    Every way the file can fail to decode (unreadable, a digest that
    does not match, another format or group, short or oversized record,
    an index out of range) is raised as CacheInvalidError.
    """
    path = os.path.join(directory, _CACHE_FILE)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as f:
            return _decode_cache(f.read(), group)
    except (OSError, ValueError, struct.error) as exc:
        raise CacheInvalidError(f"unreadable cache: {exc}") from exc


def _decode_cache(data: bytes, group: CoxeterGroup):
    import hashlib

    # a view and a truncated BytesIO of data share its bytes: no copy
    if hashlib.sha256(memoryview(data)[:-32]).digest() != data[-32:]:
        raise CacheInvalidError("cache.bin does not match its digest")
    f = io.BytesIO(data)
    f.truncate(len(data) - 32)
    if f.read(4) != _MAGIC:
        raise CacheInvalidError("bad cache magic")
    (ver,) = struct.unpack("<I", f.read(4))
    if ver != CACHE_FORMAT_VERSION:
        raise CacheInvalidError(f"cache format {ver} != {CACHE_FORMAT_VERSION}")
    if _read_record(f).decode() != group.fingerprint():
        raise CacheInvalidError("cache belongs to a different group")
    (size,) = struct.unpack("<I", f.read(4))
    if size != group.size:
        raise CacheInvalidError("cache element count mismatch")
    store = KLStore(group)
    bits = store.packing.bits
    # a P_{y,w} with y < w has at most (l(w0) + 1) // 2 slots
    widest = (bits * ((group.length[group.w0] + 1) // 2) + 7) // 8
    raw = _read_record(f)
    (nval,) = struct.unpack_from("<I", raw)
    pos = 4 + 2 * nval
    values = store.P_values
    for n in struct.unpack_from(f"<{nval}H", raw, 4):
        if not 0 < n <= widest:
            raise CacheInvalidError(f"P value of {n} bytes")
        values.append(int.from_bytes(raw[pos:pos + n], "little"))
        pos += n
    if pos != len(raw):
        raise CacheInvalidError("P value record size mismatch")
    starts = _length_starts(group)
    for w in range(size):
        raw = _read_record(f)
        # two halves of whole <I entries: the ys, then their value indices
        if not raw or len(raw) % 8:
            raise CacheInvalidError("P record size mismatch")
        half = len(raw) // 2
        ys = _little(array("I", raw[:half]))
        ids = _little(array("I", raw[half:]))
        # strictly increasing up to w < |W| puts every y in range
        if ys[-1] >= size or max(ids) >= nval:
            raise CacheInvalidError("P entry out of range")
        if ys[-1] != w or not all(map(lt, ys, islice(ys, 1, None))):
            raise CacheInvalidError("P row not increasing up to its element")
        store.P_by_w[w] = ys
        store.P_index_by_w[w] = ids
        store.mu_by_w[w] = _mu_row(store, w, starts)
    a_raw = _read_record(f)
    lead_raw = _read_record(f)
    if f.read(1):
        raise CacheInvalidError("trailing bytes after the lead record")
    if len(a_raw) != 4 * size or len(lead_raw) % _LEAD.size:
        raise CacheInvalidError("a or lead record size mismatch")
    a = struct.unpack(f"<{size}I", a_raw)
    # an entry is five <I words: x, y and z, then the two of its lead
    words = _little(array("I", lead_raw))
    if words and max(max(words[k::5]) for k in range(3)) >= size:
        raise CacheInvalidError("lead entry out of range")
    lead = {(x, y, z): c for x, y, z, c in _LEAD.iter_unpack(lead_raw)}
    return store, (a, lead)
