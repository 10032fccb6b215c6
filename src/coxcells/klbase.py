"""Canonical basis of the Hecke algebra and its structure constants.

The Hecke algebra here is taken over Z[v, v^-1] with quadratic relation
(T_s + 1)(T_s - v^2) = 0.  The canonical basis element attached to w is

    c_w = v^(-l(w)) * sum over y <= w of P_{y,w}(v^2) T_y

with P the classical polynomials in q = v^2 (integer coefficients, constant
term 1, q-degree at most (l(w) - l(y) - 1)/2 for y < w).  mu(y, w) is the
coefficient at that top degree bound.

P is stored as tuples of ascending q-coefficients and computed on them
directly.  The structure constants h use a tiny value representation
instead of the general LaurentPoly class: a pair (val, coeffs) of an int
and a tuple of ints meaning sum coeffs[i] * v^(val + i).  The zero
polynomial is (0, ()).  `vp` holds only what the recursion and its
consumers use: normalize, add, scale, multiply and evaluate at v = 1.
The test oracles extend it with conversions and further helpers.

Products c_x c_y = sum over z of h_{x,y,z} c_z come in bulk from the
left-multiplication recursion on blocks of fixed y (`stream_h_blocks`),
which never touches the T-basis and is what makes the big groups
affordable.  No all-pairs table is ever held: consumers reduce each block
as it streams past.  The test suite checks the blocks against products
taken row by row through the T-basis.

The cache holds the P rows (mu is read off them again on load) and the
result of the leading scan over all h rows (a-values and leading
coefficients), not the rows themselves.  Its manifest records the length
and SHA-256 of both payload files and is written last, each file under a
temporary name moved into place, so a torn or altered cache is recomputed
rather than read.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import os
import struct

from .coxeter import CoxeterGroup
from .errors import CacheInvalidError, InternalInconsistencyError

__all__ = [
    "HTable",
    "KLStore",
    "cache_load",
    "cache_save",
    "compute_kl",
    "generator_rows",
    "stream_h_blocks",
    "vp",
]

CACHE_FORMAT_VERSION = 4


# ---------------------------------------------------------------------------
# value polynomials: (val, coeffs) with coeffs a tuple of ints


class vp:
    """Namespace of free functions on (val, coeffs) value polynomials."""

    ZERO = (0, ())
    ONE = (0, (1,))
    # v + v^-1, the eigenvalue sum of c_s acting on its own line
    GATE = (-1, (1, 0, 1))

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
    def at_one(a: tuple) -> int:
        return sum(a[1])


# ---------------------------------------------------------------------------
# KL store


class KLStore:
    """Polynomials P, coefficients mu, and the data for c-basis products.

    P is kept per target: P_by_w[w] maps y -> tuple of ascending q-coefficients
    (so P_by_w[w][y][k] is the coefficient of q^k).  mu_by_w[w] lists the
    pairs (z, mu(z, w)) with nonzero mu, sorted by z.
    """

    __slots__ = ("group", "P_by_w", "mu_by_w", "fingerprint")

    def __init__(self, group: CoxeterGroup, P_by_w, mu_by_w):
        self.group = group
        self.P_by_w = P_by_w
        self.mu_by_w = mu_by_w
        self.fingerprint = group.fingerprint()

    def P(self, x: int, y: int) -> tuple:
        """Ascending q-coefficients of P_{x,y}; () when x is not <= y."""
        return self.P_by_w[y].get(x, ())


def _mu_row(row: dict, w: int, length) -> tuple:
    """(z, mu(z, w)) pairs, sorted by z, read off the P row of w.

    mu(z, w) is the coefficient of q^((l(w) - l(z) - 1)/2) in P_{z,w},
    nonzero only when l(w) - l(z) is odd.
    """
    lw = length[w]
    mus = []
    for z, qc in row.items():
        gap = lw - length[z]
        if gap % 2:
            k = gap // 2
            if k < len(qc) and qc[k]:
                mus.append((z, qc[k]))
    mus.sort()
    return tuple(mus)


def _add_shifted(acc: dict, y: int, qc: tuple, k: int, m: int):
    """acc[y] += m * q^k * qc, on lists of ascending q-coefficients."""
    cur = acc.get(y)
    if cur is None:
        acc[y] = [0] * k + [m * c for c in qc]
        return
    if len(cur) < k + len(qc):
        cur.extend([0] * (k + len(qc) - len(cur)))
    for i, c in enumerate(qc, k):
        cur[i] += m * c


def compute_kl(group: CoxeterGroup) -> KLStore:
    """All P_{x,y} and mu by the classical length-increasing recursion.

    For w = s u with l(w) = l(u) + 1 (Kazhdan-Lusztig, Invent. Math. 53,
    1979), on the q-coefficient tuples directly:

        P_{y,w} = q^[sy<y] P_{y,u} + q^[y<sy] P_{sy,u}
                  - sum over z with sz < z of mu(z, u) q^((l(w)-l(z))/2) P_{y,z}

    Each (y, P_{y,u}) therefore adds q^[sy<y] P_{y,u} to both y and sy.
    """
    size = group.size
    length = group.length
    left = group.left
    lmask = group.left_descent_mask
    words = group.words

    P_by_w = [None] * size
    P_by_w[0] = {0: (1,)}
    mu_by_w = [None] * size
    mu_by_w[0] = ()
    interned = {(1,): (1,)}  # most P rows repeat a handful of tuples

    for w in range(1, size):
        s = words[w][0]                       # smallest left descent
        u = left[s][w]
        lrow = left[s]
        lw = length[w]
        acc = {}
        for y, qc in P_by_w[u].items():
            sy = lrow[y]
            k = 1 if length[sy] < length[y] else 0
            _add_shifted(acc, y, qc, k, 1)
            _add_shifted(acc, sy, qc, k, 1)
        for z, m in mu_by_w[u]:
            if lmask[z] >> s & 1:
                k = (lw - length[z]) // 2
                for y, qc in P_by_w[z].items():
                    _add_shifted(acc, y, qc, k, -m)

        Prow = {}
        for y, qc in acc.items():
            while qc and not qc[-1]:
                qc.pop()
            if not qc:
                continue
            if y != w and 2 * len(qc) - 1 > lw - length[y]:
                raise InternalInconsistencyError(
                    f"degree bound violated at ({y}, {w})"
                )
            if qc[0] != 1:
                raise InternalInconsistencyError(
                    f"constant term of P({y},{w}) is {qc[0]}, not 1"
                )
            qct = tuple(qc)
            Prow[y] = interned.setdefault(qct, qct)
        if Prow.get(w) != (1,):
            raise InternalInconsistencyError(
                f"canonical basis recursion lost the top term at {w}"
            )
        P_by_w[w] = Prow
        mu_by_w[w] = _mu_row(Prow, w, length)

    return KLStore(group, P_by_w, mu_by_w)


# ---------------------------------------------------------------------------
# bulk h-table work


class HTable:
    """Structure-constant rows h_{x,y,.} keyed by (x, y).

    scope is "generators" (rows for x of length 1 only) or "all".  Rows are
    tuples of (z, value polynomial) sorted by z.
    """

    __slots__ = ("group", "scope", "rows")

    def __init__(self, group: CoxeterGroup, scope: str, rows: dict):
        self.group = group
        self.scope = scope
        self.rows = rows


def _generator_row(store: KLStore, s_elt: int, s: int, y: int) -> tuple:
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
            rows[(s_elt, y)] = _generator_row(store, s_elt, s, y)
    return HTable(group, "generators", rows)


class _BlockKit:
    """Just enough immutable data to run one y-block of the h recursion."""

    __slots__ = ("size", "length", "left", "lmask", "first_letter", "mu_by_w")

    def __init__(self, store: KLStore):
        g = store.group
        self.size = g.size
        self.length = g.length
        self.left = g.left
        self.lmask = g.left_descent_mask
        self.first_letter = [w[0] if w else -1 for w in g.words]
        self.mu_by_w = store.mu_by_w


def _h_block(kit: _BlockKit, y: int) -> list:
    """All rows h_{x,y,.} for fixed y, x in index order.

    Row x is built from row x' (x = s x', first-letter descent) through
    c_x c_y = c_s (c_x' c_y) - sum mu(z, x') c_z c_y over z with s z < z.
    Left multiplication by c_s in the c-basis needs only descents and mu.
    """
    length = kit.length
    lmask = kit.lmask
    mu_by_w = kit.mu_by_w
    rows = [None] * kit.size
    rows[0] = {y: vp.ONE}
    for x in range(1, kit.size):
        s = kit.first_letter[x]
        lrow = kit.left[s]
        parent = lrow[x]
        bit = s
        src = rows[parent]
        acc = {}
        for z, p in src.items():
            if lmask[z] >> bit & 1:
                q = vp.mul(p, vp.GATE)
                cur = acc.get(z)
                acc[z] = q if cur is None else vp.add(cur, q)
            else:
                sz = lrow[z]
                cur = acc.get(sz)
                acc[sz] = p if cur is None else vp.add(cur, p)
                for t, m in mu_by_w[z]:
                    if lmask[t] >> bit & 1:
                        q = vp.scale(p, m)
                        cur = acc.get(t)
                        acc[t] = q if cur is None else vp.add(cur, q)
        for z, m in mu_by_w[parent]:
            if lmask[z] >> bit & 1:
                for t, p in rows[z].items():
                    q = vp.scale(p, -m)
                    cur = acc.get(t)
                    acc[t] = q if cur is None else vp.add(cur, q)
        rows[x] = {z: p for z, p in acc.items() if p[1]}
    return rows


def stream_h_blocks(store: KLStore, consumer, jobs: int = 1, ys=None):
    """Run `consumer(x, y, row_dict)` over h rows, block by block.

    ys selects which y-blocks to visit (all of them by default).  Rows
    arrive grouped by y in the order given; the consumer always runs in the
    calling process.  With jobs > 1 the blocks are computed in worker
    processes but consumed in the same deterministic order.
    """
    group = store.group
    kit = _BlockKit(store)
    targets = list(range(group.size)) if ys is None else list(ys)
    if jobs <= 1:
        for y in targets:
            _deliver(consumer, y, _h_block(kit, y))
        return
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(kit,)
    ) as pool:
        # at most 2 * jobs blocks in flight, consumed in submission order
        window = collections.deque()
        for y in targets:
            window.append((y, pool.submit(_stream_worker, y)))
            if len(window) == 2 * jobs:
                first, future = window.popleft()
                _deliver(consumer, first, future.result())
        for first, future in window:
            _deliver(consumer, first, future.result())


def _deliver(consumer, y: int, block: list):
    for x, row in enumerate(block):
        consumer(x, y, row)


_WORKER_KIT = None


def _init_worker(kit: _BlockKit):
    global _WORKER_KIT
    _WORKER_KIT = kit


def _stream_worker(y: int):
    return _h_block(_WORKER_KIT, y)


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


# one (x, y, z, leading coefficient) entry of lead.bin
_LEAD = struct.Struct("<IIIq")


def _replace_file(directory: str, name: str, data: bytes):
    """Write data under a temporary sibling name, then move it into place."""
    path = os.path.join(directory, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def cache_save(store: KLStore, gamma, directory: str):
    """Write kl.bin, lead.bin and, last, manifest.json.

    kl.bin holds one record of P rows per element; mu is not stored.
    lead.bin holds the leading scan of gamma (a GammaTable): the a-values
    and the (x, y, z, lead) entries, one record each.  The manifest
    records the length and SHA-256 of both.
    """
    os.makedirs(directory, exist_ok=True)
    group = store.group
    kl = io.BytesIO()
    kl.write(b"CXKL")
    kl.write(struct.pack("<I", CACHE_FORMAT_VERSION))
    _write_record(kl, store.fingerprint.encode())
    kl.write(struct.pack("<I", group.size))
    for w in range(group.size):
        row = store.P_by_w[w]
        parts = [struct.pack("<I", len(row))]
        for y in sorted(row):
            qc = row[y]
            parts.append(struct.pack(f"<IH{len(qc)}q", y, len(qc), *qc))
        _write_record(kl, b"".join(parts))
    lead = io.BytesIO()
    lead.write(b"CXLD")
    lead.write(struct.pack("<I", CACHE_FORMAT_VERSION))
    _write_record(lead, store.fingerprint.encode())
    _write_record(lead, struct.pack(f"<{group.size}I", *gamma.a))
    _write_record(lead, b"".join(
        _LEAD.pack(x, y, z, c) for (x, y, z), c in gamma.lead.items()
    ))
    files = {}
    for name, buf in (("kl.bin", kl), ("lead.bin", lead)):
        data = buf.getvalue()
        _replace_file(directory, name, data)
        files[name] = {
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    manifest = {
        "format_version": CACHE_FORMAT_VERSION,
        "type": group.datum.type_symbol,
        "order": group.size,
        "rank": group.datum.rank,
        "fingerprint": store.fingerprint,
        "files": files,
    }
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    _replace_file(directory, "manifest.json", text.encode())


def cache_load(directory: str, group: CoxeterGroup):
    """Load (KLStore, (a, lead)) for this group; validate everything.

    (a, lead) is the cached leading scan, as compute_gamma takes it.
    Every way the files can fail to decode (missing or unreadable file,
    malformed JSON, a payload whose length or digest differs from the
    manifest, short or oversized record, bad text) is raised as
    CacheInvalidError.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CacheInvalidError(f"no manifest at {manifest_path}")
    try:
        return _read_cache(directory, manifest_path, group)
    except (OSError, ValueError, struct.error) as exc:
        raise CacheInvalidError(f"unreadable cache: {exc}") from exc


def _read_payload(directory: str, manifest: dict, name: str) -> io.BytesIO:
    """One payload file, checked against the manifest's length and digest."""
    files = manifest.get("files")
    entry = files.get(name) if isinstance(files, dict) else None
    if not isinstance(entry, dict):
        raise CacheInvalidError(f"manifest lists no {name}")
    with open(os.path.join(directory, name), "rb") as f:
        data = f.read()
    if (len(data) != entry.get("bytes")
            or hashlib.sha256(data).hexdigest() != entry.get("sha256")):
        raise CacheInvalidError(f"{name} does not match the manifest digest")
    return io.BytesIO(data)


def _read_cache(directory: str, manifest_path: str, group: CoxeterGroup):
    with open(manifest_path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise CacheInvalidError("manifest is not a JSON object")
    if manifest.get("format_version") != CACHE_FORMAT_VERSION:
        raise CacheInvalidError(
            f"cache format {manifest.get('format_version')} != "
            f"{CACHE_FORMAT_VERSION}"
        )
    fp = group.fingerprint()
    if manifest.get("fingerprint") != fp or manifest.get("type") != group.datum.type_symbol:
        raise CacheInvalidError("cache belongs to a different group")

    f = _read_payload(directory, manifest, "kl.bin")
    if f.read(4) != b"CXKL":
        raise CacheInvalidError("bad kl.bin magic")
    (ver,) = struct.unpack("<I", f.read(4))
    if ver != CACHE_FORMAT_VERSION:
        raise CacheInvalidError("kl.bin version mismatch")
    if _read_record(f).decode() != fp:
        raise CacheInvalidError("kl.bin fingerprint mismatch")
    (size,) = struct.unpack("<I", f.read(4))
    if size != group.size:
        raise CacheInvalidError("kl.bin element count mismatch")
    P_by_w = [None] * size
    mu_by_w = [None] * size
    for w in range(size):
        buf = io.BytesIO(_read_record(f))
        (nrow,) = struct.unpack("<I", buf.read(4))
        row = {}
        for _ in range(nrow):
            y, nq = struct.unpack("<IH", buf.read(6))
            if y >= size:
                raise CacheInvalidError("kl.bin entry out of range")
            row[y] = struct.unpack(f"<{nq}q", buf.read(8 * nq))
        if buf.read(1):
            raise CacheInvalidError("kl.bin record longer than its rows")
        P_by_w[w] = row
        mu_by_w[w] = _mu_row(row, w, group.length)
    if f.read(1):
        raise CacheInvalidError("trailing bytes after kl.bin records")
    store = KLStore(group, P_by_w, mu_by_w)

    f = _read_payload(directory, manifest, "lead.bin")
    if f.read(8) != b"CXLD" + struct.pack("<I", CACHE_FORMAT_VERSION):
        raise CacheInvalidError("bad lead.bin header")
    if _read_record(f) != fp.encode():
        raise CacheInvalidError("lead.bin fingerprint mismatch")
    a_raw = _read_record(f)
    lead_raw = _read_record(f)
    if f.read(1):
        raise CacheInvalidError("trailing bytes after lead.bin records")
    if len(a_raw) != 4 * size or len(lead_raw) % _LEAD.size:
        raise CacheInvalidError("lead.bin record size mismatch")
    a = struct.unpack(f"<{size}I", a_raw)
    lead = {}
    for x, y, z, c in _LEAD.iter_unpack(lead_raw):
        if max(x, y, z) >= size:
            raise CacheInvalidError("lead.bin entry out of range")
        lead[(x, y, z)] = c
    return store, (a, lead)
