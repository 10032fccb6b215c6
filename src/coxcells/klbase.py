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

The cache is one file, cache.bin, per type.  It holds the P rows (mu is
read off them again on load) and the result of the leading scan
(a-values and leading coefficients), not the h rows themselves, and
ends with the SHA-256 of everything before it.  It is written under a
temporary name and moved into place in one step, so a reader sees
either a whole file or none; a torn or altered file fails its digest
and is recomputed rather than read.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct

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

CACHE_FORMAT_VERSION = 6


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

    P is kept per target and packed: P_by_w[w] maps y -> the int
    P_{y,w}(2^bits), bits = l(w0) + 2, which `P` decodes.  mu_by_w[w]
    lists the pairs (z, mu(z, w)) with nonzero mu, sorted by z.

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

    __slots__ = ("group", "P_by_w", "mu_by_w", "fingerprint", "packing",
                 "_kit")

    def __init__(self, group: CoxeterGroup, P_by_w, mu_by_w):
        self.group = group
        self.P_by_w = P_by_w
        self.mu_by_w = mu_by_w
        self.fingerprint = group.fingerprint()
        self.packing = Packing(group.length[group.w0] + 2, 0)
        self._kit = None

    def block_kit(self) -> BlockKit:
        """The BlockKit of this store, built on first use."""
        if self._kit is None:
            self._kit = BlockKit(self)
        return self._kit

    def P(self, x: int, y: int) -> tuple:
        """Ascending q-coefficients of P_{x,y}; () when x is not <= y."""
        return self.packing.unpack(self.P_by_w[y].get(x, 0))[1]


def _mu_row(row: dict, w: int, length, bits: int) -> tuple:
    """(z, mu(z, w)) pairs, sorted by z, read off the packed P row of w.

    mu(z, w) is the coefficient of q^((l(w) - l(z) - 1)/2) in P_{z,w},
    one slot, nonzero only when l(w) - l(z) is odd.
    """
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


def compute_kl(group: CoxeterGroup) -> KLStore:
    """All P_{x,y} and mu by the classical length-increasing recursion.

    For w = s u with l(w) = l(u) + 1 (Kazhdan-Lusztig, Invent. Math. 53,
    1979), on the packed ints directly, q being the shift by bits:

        P_{y,w} = q^[sy<y] P_{y,u} + q^[y<sy] P_{sy,u}
                  - sum over z with sz < z of mu(z, u) q^((l(w)-l(z))/2) P_{y,z}

    Each (y, P_{y,u}) therefore adds q^[sy<y] P_{y,u} to both y and sy.
    """
    size = group.size
    length = group.length
    left = group.left
    lmask = group.left_descent_mask
    words = group.words

    store = KLStore(group, [None] * size, [None] * size)
    P_by_w = store.P_by_w
    mu_by_w = store.mu_by_w
    bits = store.packing.bits
    mask = (1 << bits) - 1
    P_by_w[0] = {0: 1}
    mu_by_w[0] = ()
    interned = {}  # most P rows repeat a handful of values

    for w in range(1, size):
        s = words[w][0]                       # smallest left descent
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

        Prow = {}
        for y, n in acc.items():
            if not n:
                continue
            if n & mask != 1 or y != w and (
                    2 * ((n.bit_length() - 1) // bits) >= lw - length[y]):
                raise InternalInconsistencyError(
                    f"P({y},{w}) breaks its degree bound or constant term"
                )
            Prow[y] = interned.setdefault(n, n)
        if Prow.get(w) != 1:
            raise InternalInconsistencyError(
                f"canonical basis recursion lost the top term at {w}"
            )
        P_by_w[w] = Prow
        mu_by_w[w] = _mu_row(Prow, w, length, bits)

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
        self.mu_down = [
            [tuple((t, m) for t, m in mus if self.lmask[t] >> s & 1)
             for mus in store.mu_by_w]
            for s in range(g.datum.rank)
        ]
        # N(w) <= 2^(bits - 2) is its row sum mod 2^bits - 1 (see KLStore)
        m = (1 << store.packing.bits) - 1
        top = max(sum(row.values()) % m for row in store.P_by_w)
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
    count, one record of the distinct packed P values (an <I count, an
    <H byte length per value, then the little-endian bytes), one <I
    record of (y, value index) pairs per element (mu is not stored), the
    a-values and (x, y, z, lead) records of gamma's leading scan, and
    last the SHA-256 of everything before it.
    """
    os.makedirs(directory, exist_ok=True)
    size = store.group.size
    index = {}
    rows = []
    for row in store.P_by_w:
        flat = []
        for y in sorted(row):
            flat += (y, index.setdefault(row[y], len(index)))
        rows.append(struct.pack(f"<{len(flat)}I", *flat))
    values = [n.to_bytes((n.bit_length() + 7) // 8, "little") for n in index]
    f = io.BytesIO()
    f.write(_MAGIC + struct.pack("<I", CACHE_FORMAT_VERSION))
    _write_record(f, store.fingerprint.encode())
    f.write(struct.pack("<I", size))
    _write_record(f, struct.pack(f"<I{len(values)}H", len(values),
                                 *map(len, values)) + b"".join(values))
    for row in rows:
        _write_record(f, row)
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
    store = KLStore(group, [None] * size, [None] * size)
    bits = store.packing.bits
    # a P_{y,w} with y < w has at most (l(w0) + 1) // 2 slots
    widest = (bits * ((group.length[group.w0] + 1) // 2) + 7) // 8
    raw = _read_record(f)
    (nval,) = struct.unpack_from("<I", raw)
    pos = 4 + 2 * nval
    values = []
    for n in struct.unpack_from(f"<{nval}H", raw, 4):
        if not 0 < n <= widest:
            raise CacheInvalidError(f"P value of {n} bytes")
        values.append(int.from_bytes(raw[pos:pos + n], "little"))
        pos += n
    if pos != len(raw):
        raise CacheInvalidError("P value record size mismatch")
    for w in range(size):
        raw = _read_record(f)
        if not raw or len(raw) % 8:
            raise CacheInvalidError("P record size mismatch")
        flat = struct.unpack(f"<{len(raw) // 4}I", raw)
        ys, ids = flat[0::2], flat[1::2]
        if max(ys) >= size or max(ids) >= nval:
            raise CacheInvalidError("P entry out of range")
        row = dict(zip(ys, map(values.__getitem__, ids)))
        store.P_by_w[w] = row
        store.mu_by_w[w] = _mu_row(row, w, group.length, bits)
    a_raw = _read_record(f)
    lead_raw = _read_record(f)
    if f.read(1):
        raise CacheInvalidError("trailing bytes after the lead record")
    if len(a_raw) != 4 * size or len(lead_raw) % _LEAD.size:
        raise CacheInvalidError("a or lead record size mismatch")
    a = struct.unpack(f"<{size}I", a_raw)
    lead = {}
    for x, y, z, c in _LEAD.iter_unpack(lead_raw):
        if max(x, y, z) >= size:
            raise CacheInvalidError("lead entry out of range")
        lead[(x, y, z)] = c
    return store, (a, lead)
