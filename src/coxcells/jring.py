"""Cells, the a-function, and the asymptotic ring.

Left cells are the strongly connected components of the digraph with an
edge y -> z whenever some generator row h_{s,y,.} touches z; right cells
come from the same graph on inverses, two-sided cells from the union.

a(z) is the top v-degree over all x, y of h_{x,y,z}; gamma_{x,y,z^-1} is
the coefficient of v^(a(z)) there.  The products

    t_x t_y = sum over z of gamma_{x,y,z^-1} t_z

make the span of the t_w a ring; its identity is the sum of t_d over the
distinguished involutions d, one per left cell.  Distinguished elements
are cut out by a(z) equalling l(z) minus twice the q-degree of the
polynomial P at (identity, z), then every defining property is checked.

The single scan that produces a and the leading coefficients reads in
block y only the rows x of the left cell of y^-1, where Lusztig's P8
puts every leading term, computes only those rows and the rows they are
built from, keeps only the columns in the left cell of y, computes one
block per orbit of the diagram automorphisms, and runs the blocks of one
right cell side by side in one recursion.  Each recursion is reduced to
its leading terms as soon as it is computed, so no group ever holds the
full table in memory.  The result is small enough to cache; a cached
scan gets the same checks as a fresh one.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .coxeter import CoxeterGroup
from .errors import InternalInconsistencyError
from .klbase import BlockKit, HTable, KLStore, stream_h_blocks

__all__ = [
    "CellPartition",
    "GammaTable",
    "compute_cells",
    "compute_gamma",
    "distinguished_involutions",
]


def _sccs(size: int, adj) -> list:
    """Strongly connected components, iterative Tarjan.

    Emitted in reverse topological order: every component is emitted
    before any component with an edge into it ... i.e. after all the
    components it can reach.  Members come out sorted.
    """
    idx = [-1] * size
    low = [0] * size
    on_stack = bytearray(size)
    stack = []
    comps = []
    counter = 0
    for root in range(size):
        if idx[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                idx[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            nbrs = adj[v]
            descended = False
            while pi < len(nbrs):
                w = nbrs[pi]
                pi += 1
                if idx[w] == -1:
                    work.append((v, pi))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and idx[w] < low[v]:
                    low[v] = idx[w]
            if descended:
                continue
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                comps.append(comp)
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return comps


def _partition_from_comps(size: int, comps) -> tuple:
    """Cells numbered by smallest member, as (cell_of, cells).

    comps are disjoint sorted member lists covering range(size), in any
    order; cell_of lists the cell id of every element.
    """
    cells = tuple(tuple(members) for members in sorted(comps))
    cell_of = [0] * size
    for fid, members in enumerate(cells):
        for m in members:
            cell_of[m] = fid
    return cell_of, cells


# Left, right and two-sided cells, numbered by smallest member: the cell
# id of every element, then the cells as sorted member tuples.
CellPartition = namedtuple("CellPartition", (
    "left_cell_of", "left_cells", "right_cell_of", "right_cells",
    "two_sided_of", "two_sided_cells"))


def compute_cells(gen_table: HTable) -> CellPartition:
    """Cell partition from a generators-only (or all-pairs) h-table: the
    left preorder has an edge y -> z for each z != y in a row h_{s,y,.},
    the right one these on inverses, the two-sided one both, neighbours
    in no order, on which the components do not depend."""
    group = gen_table.group
    rows = gen_table.rows
    size = group.size
    inv = group.inverse
    gens = [w for w in range(size) if group.length[w] == 1]

    adj_left = [tuple({z for s in gens for z, _ in rows[s, y]} - {y})
                for y in range(size)]
    adj_right = [tuple(inv[z] for z in adj_left[inv[y]]) for y in range(size)]
    adj_two = [a + b for a, b in zip(adj_left, adj_right)]

    left = _partition_from_comps(size, _sccs(size, adj_left))
    # right cells: inverted left cells
    right = _partition_from_comps(
        size, (sorted(inv[m] for m in members) for members in left[1]))
    cells = CellPartition(*left, *right,
                          *_partition_from_comps(size, _sccs(size, adj_two)))
    # every left cell must sit inside a single two-sided cell
    for members in cells.left_cells:
        if len({cells.two_sided_of[m] for m in members}) != 1:
            raise InternalInconsistencyError(
                "left cell splits across two-sided cells")
    return cells


class GammaTable:
    """a-function plus the leading structure constants of the h-table.

    lead[(x, y, z)] is the coefficient of v^(a(z)) in h_{x,y,z}, each one
    checked positive; in terms of the abstract constants that number is
    gamma_{x, y, z^-1}.  by_xy[(x, y)] lists (z, lead) pairs: the
    expansion of t_x t_y, which the ring checks of
    distinguished_involutions read through product().  lead's keys come
    in the scan's (z, y, x) order, so one pass lists each sorted by z.
    """

    __slots__ = ("group", "a", "lead", "by_xy")

    def __init__(self, group: CoxeterGroup, a: tuple, lead: dict):
        self.group = group
        self.a = a
        self.lead = lead
        by_xy = self.by_xy = {}
        for (x, y, z), c in lead.items():
            if c <= 0:
                raise InternalInconsistencyError(
                    f"nonpositive leading coefficient {c} at h({x},{y},{z})"
                )
            by_xy.setdefault((x, y), []).append((z, c))

    def product(self, x: int, y: int) -> list:
        """t_x t_y as a list of (z, coefficient) sorted by z."""
        return self.by_xy.get((x, y), [])


def _cell_leads(reads: list, kit: BlockKit, ys: tuple, block: list) -> dict:
    """Per z, the top degree of h_{x,y,z} over the x in reads[y], which
    the seeds y of ys share, and the (x, leading coefficient) pairs that
    reach it, x ascending; y is the seed in the left cell of z."""
    degree = kit.top_degree
    best = {}
    hits = {}
    for x in reads[ys[0]]:
        for z, p in block[x].items():
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


def _orbit_blocks(group: CoxeterGroup, cost: list) -> dict:
    """The blocks to compute, each with the element permutations that
    carry it to the members of its diagram-automorphism orbit.

    Every orbit is represented by its member of least cost (then least
    index); the identity comes first in each list.
    """
    autos = group.diagram_automorphisms()
    moved = [False] * group.size
    out = {}
    for y in range(group.size):
        if moved[y]:
            continue
        r = min({g[y] for g in autos}, key=lambda w: (cost[w], w))
        out[r] = []
        for g in autos:
            if not moved[g[r]]:
                moved[g[r]] = True
                out[r].append(g)
    return dict(sorted(out.items()))


def _leading_scan(store: KLStore, cells: CellPartition):
    """Per z the top degree of h_{x,y,z} and the leading coefficients
    at it with their (x, y).  Returns (a, lead).

    Only the rows x in the left cell of y^-1 are read in block y.  By
    Lusztig's P8 (Hecke algebras with unequal parameters, CRM Monograph
    Series 18, 2003, ch. 14; for finite Coxeter groups through the
    positivity of Elias-Williamson, Ann. of Math. 180, 2014)
    gamma_{x,y,z^-1} is nonzero only when x ~L y^-1, so every leading
    term lies there, and a(z) is reached there too: t_z t_d = t_z for
    the distinguished involution d of the left cell of z.  Block y
    computes those rows and the rows they are built from, no others, and
    only their columns z in the left cell of y: P8 also gives y ~L z for
    every leading term (see `klbase._h_block` for why the cut is exact).

    A diagram automorphism sigma fixes the canonical basis, so
    h_{sigma x, sigma y, sigma z} = h_{x,y,z}: one block per orbit is
    computed, the member with the fewest rows, and its reduction is
    carried to the other members.  lead's keys (x, y, z) come in
    (z, y, x) order, which `GammaTable` relies on.

    The ys of one right cell share those rows and run side by side as one
    recursion, in the direct sum of their left cell modules (see
    `klbase._h_block`); a z belongs to the block of the seed in its left
    cell.  Seeds in one left cell would add up there, so a right cell
    meeting a left cell in n orbit representatives splits into n
    recursions.
    """
    group = store.group
    size = group.size
    inv = group.inverse
    lc = cells.left_cell_of
    kit = store.block_kit()
    cell = [lc[inv[y]] for y in range(size)]
    built = [kit.closure(members) for members in cells.left_cells]
    orbits = _orbit_blocks(group, [len(built[c]) for c in cell])
    # the n-th representative in a right and a left cell seeds the n-th
    # recursion of that right cell
    seeds = {}
    rank = {}
    for y in orbits:
        n = rank[cell[y], lc[y]] = rank.get((cell[y], lc[y]), -1) + 1
        seeds.setdefault((cell[y], n), []).append(y)
    seeds = [tuple(ys) for ys in seeds.values()]
    best = [None] * size
    cands = [None] * size

    def merge(ys, top):
        owner = {lc[y]: y for y in ys}
        for z, (d, xs) in top.items():
            r = owner[lc[z]]
            for g in orbits[r]:
                y = g[r]
                gz = g[z]
                b = best[gz]
                if b is None or d > b:
                    best[gz] = d
                    cands[gz] = [(y, g[x], c) for x, c in xs]
                elif d == b:
                    cands[gz].extend((y, g[x], c) for x, c in xs)

    reads = [cells.left_cells[c] for c in cell]
    stream_h_blocks(store, merge, ys=seeds,
                    reduce=functools.partial(_cell_leads, reads),
                    rows=[built[cell[ys[0]]] for ys in seeds],
                    cell=lc)
    lead = {
        (x, y, z): c for z in range(size) for y, x, c in sorted(cands[z])
    }
    return tuple(best), lead


def compute_gamma(store: KLStore, cells: CellPartition, jobs: int = 1,
                  scan=None) -> GammaTable:
    """The full leading-coefficient table (contains the a-function).

    The scan reads the left-cell rows of one block per diagram orbit
    (see `_leading_scan`), which is why it takes the cells.  scan, when
    given, is a cached (a, lead) pair, in the scan's (z, y, x) order,
    that replaces it; it is checked exactly like a fresh one, a here and
    the leads in `GammaTable`.  jobs is accepted and unused: every block
    is computed in this process.
    """
    a, lead = _leading_scan(store, cells) if scan is None else scan
    if a[0] != 0:
        raise InternalInconsistencyError(f"a(identity) = {a[0]}, not 0")
    for members in cells.two_sided_cells:
        vals = {a[m] for m in members}
        if len(vals) != 1:
            raise InternalInconsistencyError(
                f"a not constant on a two-sided cell: {sorted(vals)}"
            )
    return GammaTable(store.group, a, lead)


def distinguished_involutions(
    gamma: GammaTable, cells: CellPartition, store: KLStore
) -> tuple:
    """The distinguished involutions, one per left cell, via the defect
    a(z) = l(z) - 2 deg P_{identity,z}, sorted; validates the ring axioms
    they must satisfy.
    """
    group = gamma.group
    inv = group.inverse
    size = group.size

    dlist = []
    for z in range(size):
        qc = store.P(0, z)
        if not qc:
            raise InternalInconsistencyError("missing P(identity, z)")
        if gamma.a[z] == group.length[z] - 2 * (len(qc) - 1):
            dlist.append(z)

    dset = set(dlist)
    for d in dlist:
        if inv[d] != d:
            raise InternalInconsistencyError(
                f"distinguished candidate {d} is not an involution"
            )

    # one per left cell, bijectively
    seen_cells = {}
    for d in dlist:
        c = cells.left_cell_of[d]
        if c in seen_cells:
            raise InternalInconsistencyError(
                f"left cell {c} holds two distinguished involutions"
            )
        seen_cells[c] = d
    if len(seen_cells) != len(cells.left_cells):
        raise InternalInconsistencyError(
            f"{len(dlist)} distinguished involutions for "
            f"{len(cells.left_cells)} left cells"
        )

    # every t_x t_{x^-1} meets exactly one of them, with coefficient 1,
    # namely the one in the left cell of x^-1
    d_of = [seen_cells[c] for c in cells.left_cell_of]
    for x in range(size):
        hits = [(z, c) for z, c in gamma.product(x, inv[x]) if inv[z] in dset]
        if len(hits) != 1:
            raise InternalInconsistencyError(
                f"t_{x} t_inv meets {len(hits)} distinguished involutions"
            )
        z, c = hits[0]
        if c != 1:
            raise InternalInconsistencyError(
                f"gamma(x, x^-1, d) = {c} != 1 at x={x}"
            )
        if inv[z] != d_of[inv[x]]:
            raise InternalInconsistencyError(
                f"distinguished involution of x={x} outside the left "
                "cell of its inverse"
            )
        # sum of t_d is a two-sided identity: acting on the right the
        # working summand is the involution of the left cell of x, on the
        # left that of the left cell of x^-1
        if gamma.product(x, d_of[x]) != [(x, 1)]:
            raise InternalInconsistencyError(
                f"t_x t_d != t_x at x={x}, d={d_of[x]}"
            )
        if gamma.product(d_of[inv[x]], x) != [(x, 1)]:
            raise InternalInconsistencyError(
                f"t_d t_x != t_x at x={x}, d={d_of[inv[x]]}"
            )
    # and every other t_x t_d or t_d t_x vanishes: no key of by_xy holds one
    for x, y in gamma.by_xy:
        if y in dset and y != d_of[x]:
            raise InternalInconsistencyError(
                f"t_x t_d nonzero off the diagonal at x={x}, d={y}"
            )
        if x in dset and x != d_of[inv[y]]:
            raise InternalInconsistencyError(
                f"t_d t_x nonzero off the diagonal at x={y}, d={x}"
            )

    return tuple(sorted(dlist))
