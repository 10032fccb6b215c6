"""Cells, a-function, leading constants, asymptotic ring."""

import functools
import random

import pytest

import coxcells.jring as jring
from coxcells.coxeter import build_group
from coxcells.errors import InternalInconsistencyError
from coxcells.jring import (
    GammaTable,
    _orbit_blocks,
    compute_cells,
    compute_gamma,
    distinguished_involutions,
)
from coxcells.klbase import _h_block, compute_kl, generator_rows

from oracles import (
    compute_h_table,
    full_leading_scan,
    gamma,
    leading_scan,
    left_leq,
    tableaux_count,
    vp,
)


def _setup(symbol):
    g = build_group(symbol)
    store = compute_kl(g)
    cells = compute_cells(generator_rows(store))
    gamma = compute_gamma(store, cells)
    dlist = distinguished_involutions(gamma, cells, store)
    return g, store, cells, gamma, dlist


# ---------------------------------------------------------------------------
# cells


def test_dihedral3_cells_frozen():
    g, store, cells, gamma, dlist = _setup("I2(3)")
    assert cells.left_cells == ((0,), (1, 4), (2, 3), (5,))
    assert cells.right_cells == ((0,), (1, 3), (2, 4), (5,))
    assert cells.two_sided_cells == ((0,), (1, 2, 3, 4), (5,))
    assert [cells.left_cell_of[w] for w in range(6)] == [0, 1, 2, 2, 1, 3]


def test_dihedral5_cells_frozen():
    g, store, cells, gamma, dlist = _setup("I2(5)")
    assert cells.left_cells == ((0,), (1, 4, 5, 8), (2, 3, 6, 7), (9,))
    assert len(cells.two_sided_cells) == 3


def test_right_cells_are_inverted_left_cells():
    for symbol in ("I2(5)", "A3", "B3"):
        g = build_group(symbol)
        store = compute_kl(g)
        cells = compute_cells(generator_rows(store))
        left_sets = {frozenset(c) for c in cells.left_cells}
        inverted = {
            frozenset(g.inverse[m] for m in c) for c in cells.right_cells
        }
        assert left_sets == inverted


def test_left_cells_refine_two_sided():
    g, store, cells, gamma, dlist = _setup("A3")
    for members in cells.left_cells:
        assert len({cells.two_sided_of[m] for m in members}) == 1


def test_A3_cell_counts_against_tableaux_oracle():
    g, store, cells, gamma, dlist = _setup("A3")
    assert len(cells.left_cells) == tableaux_count(4) == 10
    assert len(cells.two_sided_cells) == 5  # partitions of 4
    assert sorted(len(c) for c in cells.two_sided_cells) == [1, 1, 4, 9, 9]
    assert sorted(len(c) for c in cells.left_cells) == [
        1, 1, 2, 2, 3, 3, 3, 3, 3, 3,
    ]


def test_dihedral_left_order():
    g, store, cells, gamma, dlist = _setup("I2(5)")
    c_e = cells.left_cell_of[0]
    c_w0 = cells.left_cell_of[g.w0]
    mid1 = cells.left_cell_of[1]
    mid2 = cells.left_cell_of[2]
    assert left_leq(store, cells, c_w0, mid1) and not left_leq(store, cells, mid1, c_w0)
    assert left_leq(store, cells, mid1, c_e) and not left_leq(store, cells, c_e, mid1)
    assert not left_leq(store, cells, mid1, mid2)
    assert not left_leq(store, cells, mid2, mid1)
    assert left_leq(store, cells, mid1, mid1)


# ---------------------------------------------------------------------------
# a-function


def test_dihedral_a_values():
    g, store, cells, gamma, dlist = _setup("I2(3)")
    assert gamma.a == (0, 1, 1, 1, 1, 3)
    g5, _, cells5, gamma5, _ = _setup("I2(5)")
    assert gamma5.a[0] == 0
    assert gamma5.a[g5.w0] == 5
    assert all(gamma5.a[w] == 1 for w in range(1, 9))


def test_A3_a_values_per_two_sided_cell():
    g, store, cells, gamma, dlist = _setup("A3")
    per_cell = {}
    for members in cells.two_sided_cells:
        per_cell[len(members)] = gamma.a[members[0]]
    # sizes 1 (identity), 9, 4, 9, 1 (longest); a = 0, 1, 2, 3, 6
    assert gamma.a[0] == 0
    assert gamma.a[g.w0] == 6
    assert sorted(gamma.a[c[0]] for c in cells.two_sided_cells) == [
        0, 1, 2, 3, 6,
    ]


def test_streaming_gamma_matches_materialized():
    g = build_group("A3")
    store = compute_kl(g)
    cells = compute_cells(generator_rows(store))
    # top degree and leading coefficients read off the all-pairs table
    terms = {}
    for (x, y), row in compute_h_table(store).rows.items():
        for z, p in row:
            terms.setdefault(z, []).append((vp.deg(p), (x, y, z), p[1][-1]))
    a = tuple(max(d for d, _, _ in terms[z]) for z in range(g.size))
    lead = {k: c for z in terms for d, k, c in terms[z] if d == a[z]}
    via_stream = compute_gamma(store, cells)
    assert via_stream.a == a
    assert via_stream.lead == lead
    cached = compute_gamma(store, cells, scan=(via_stream.a, via_stream.lead))
    assert cached.by_xy == via_stream.by_xy


@functools.lru_cache(maxsize=None)
def _store_and_cells(symbol):
    store = compute_kl(build_group(symbol))
    return store, compute_cells(generator_rows(store))


@pytest.mark.parametrize("symbol", ["I2(5)", "A3", "H3"])
def test_full_scan_matches_row_by_row_scan(symbol):
    store, _ = _store_and_cells(symbol)
    a, lead = leading_scan(compute_h_table(store))
    full_a, full_lead = full_leading_scan(store)
    assert full_a == a
    assert list(full_lead.items()) == list(lead.items())


@pytest.mark.parametrize("symbol", [
    "I2(5)", "A3", "B3", "H3", "A4", "D4", "B4",
    pytest.param("F4", marks=pytest.mark.heavy),
])
def test_reduced_scan_matches_full_scan(symbol):
    # same a, same entries and the same dict order as the scan over every
    # row of every block
    store, cells = _store_and_cells(symbol)
    a, lead = full_leading_scan(store)
    reduced = compute_gamma(store, cells)
    assert reduced.a == a
    assert list(reduced.lead.items()) == list(lead.items())


@pytest.mark.parametrize("symbol, blocks", [
    ("I2(5)", 6), ("A3", 16), ("A4", 64), ("D4", 60), ("B4", 384),
    ("H3", 120), pytest.param("F4", 584, marks=pytest.mark.heavy),
])
def test_one_block_per_diagram_orbit(symbol, blocks):
    g = build_group(symbol)
    orbits = _orbit_blocks(g, [0] * g.size)
    assert len(orbits) == blocks
    members = sorted(perm[r] for r, perms in orbits.items() for perm in perms)
    assert members == list(range(g.size))


@pytest.mark.parametrize("symbol, recursions", [
    ("H3", 32), ("B4", 76), ("D4", 20),
])
def test_one_recursion_per_right_cell(monkeypatch, symbol, recursions):
    # the scan's seeds: each recursion's ys lie in one right cell and in
    # distinct left cells, read the closure of the left cell of y^-1, and
    # the recursions hold one member of every diagram orbit, once
    store, cells = _store_and_cells(symbol)
    g = store.group
    kit = store.block_kit()
    calls = []
    real = jring.stream_h_blocks

    def recorder(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(jring, "stream_h_blocks", recorder)
    compute_gamma(store, cells)
    (call,) = calls
    seeds = call["ys"]
    assert len(seeds) == recursions
    lc = cells.left_cell_of
    for ys, xs in zip(seeds, call["rows"], strict=True):
        assert len({cells.right_cell_of[y] for y in ys}) == 1, ys
        assert len({lc[y] for y in ys}) == len(ys), ys
        assert xs == kit.closure(cells.left_cells[lc[g.inverse[ys[0]]]])
    scanned = [y for ys in seeds for y in ys]
    orbits = {frozenset(perm[y] for perm in g.diagram_automorphisms())
              for y in range(g.size)}
    assert sorted(len(orbit & set(scanned)) for orbit in orbits) == \
        [1] * len(orbits)
    assert len(scanned) == len(orbits)
    # fewer recursions than blocks, and some right cell, meeting a left
    # cell twice, splits into two recursions
    assert len(seeds) < len(scanned)
    assert len({cells.right_cell_of[ys[0]] for ys in seeds}) < len(seeds)


def test_orbit_representative_has_least_cost():
    g = build_group("A3")
    cost = [(7 * w) % 5 for w in range(g.size)]
    for r, perms in _orbit_blocks(g, cost).items():
        assert perms[0] == tuple(range(g.size))
        assert all((cost[r], r) <= (cost[p[r]], p[r]) for p in perms)


@pytest.mark.parametrize("symbol", ["A3", "D4"])
def test_diagram_automorphisms_preserve_h(symbol):
    # h_{sigma x, sigma y, sigma z} = h_{x,y,z} over whole blocks
    store, _ = _store_and_cells(symbol)
    kit = store.block_kit()
    blocks = [_h_block(kit, (y,)) for y in range(kit.size)]
    autos = store.group.diagram_automorphisms()
    assert len(autos) > 1
    for g in autos:
        for y, block in enumerate(blocks):
            moved = blocks[g[y]]
            for x, row in enumerate(block):
                assert moved[g[x]] == {g[z]: p for z, p in row.items()}


# ---------------------------------------------------------------------------
# gamma and the ring structure


def test_gamma_support_stays_in_two_sided_cell():
    for symbol in ("I2(5)", "A3"):
        g, store, cells, gamma, dlist = _setup(symbol)
        for (x, y, z) in gamma.lead:
            cx = cells.two_sided_of[x]
            assert cells.two_sided_of[y] == cx, (symbol, x, y, z)
            assert cells.two_sided_of[z] == cx, (symbol, x, y, z)


def test_gamma_cyclic_and_inverse_symmetry():
    for symbol in ("I2(5)", "A3"):
        g, store, cells, table, dlist = _setup(symbol)
        inv = g.inverse
        for (x, y, zz), c in table.lead.items():
            z = inv[zz]  # abstract slot: gamma(x, y, z) = c
            assert gamma(table, x, y, z) == c
            assert gamma(table, y, z, x) == c, (symbol, x, y, z)
            assert gamma(table, z, x, y) == c, (symbol, x, y, z)
            assert gamma(table, inv[y], inv[x], inv[z]) == c, (symbol, x, y, z)


def test_j_ring_associativity_random_triples():
    g, store, cells, gamma, dlist = _setup("A3")
    rng = random.Random(60902)
    for _ in range(500):
        x = rng.randrange(g.size)
        y = rng.randrange(g.size)
        z = rng.randrange(g.size)
        lhs = {}
        for w, c in gamma.product(x, y):
            for t, c2 in gamma.product(w, z):
                lhs[t] = lhs.get(t, 0) + c * c2
        rhs = {}
        for w, c in gamma.product(y, z):
            for t, c2 in gamma.product(x, w):
                rhs[t] = rhs.get(t, 0) + c * c2
        assert {t: c for t, c in lhs.items() if c} == {
            t: c for t, c in rhs.items() if c
        }, (x, y, z)


# ---------------------------------------------------------------------------
# distinguished involutions


def test_dihedral_distinguished():
    g, store, cells, gamma, dlist = _setup("I2(3)")
    assert type(dlist) is tuple and dlist == (0, 1, 2, 5)
    g5, _, cells5, gamma5, d5 = _setup("I2(5)")
    assert d5 == (0, 1, 2, 9)
    # the longer palindromic reflections are involutions but not distinguished
    pal = g5.element_by_word((0, 1, 0))
    assert g5.inverse[pal] == pal
    assert pal not in d5


def test_A3_distinguished_are_all_involutions():
    g, store, cells, gamma, dlist = _setup("A3")
    involutions = sorted(
        w for w in range(g.size) if g.inverse[w] == w
    )
    # special to this type: one involution per left cell
    assert list(dlist) == involutions
    assert len(dlist) == len(cells.left_cells) == 10


def test_B3_distinguished_one_per_left_cell():
    g, store, cells, gamma, dlist = _setup("B3")
    assert len(dlist) == len(cells.left_cells)
    for d in dlist:
        assert g.inverse[d] == d
    cells_hit = {cells.left_cell_of[d] for d in dlist}
    assert len(cells_hit) == len(cells.left_cells)


def test_identity_checks_reach_each_message():
    # sum_d t_d is a two-sided identity; one forged leading entry per
    # check of it, each at an x outside the distinguished set, so that it
    # breaks that check and no other
    g, store, cells, gamma, dlist = _setup("B3")
    inv = g.inverse
    d_of = {cells.left_cell_of[d]: d for d in dlist}
    x = next(x for x in range(g.size) if x not in dlist and inv[x] != x)
    dx = d_of[cells.left_cell_of[x]]
    dleft = d_of[cells.left_cell_of[inv[x]]]
    off_right = next(d for d in dlist if d != dx)
    off_left = next(d for d in dlist if d != dleft)
    assert distinguished_involutions(gamma, cells, store) == dlist
    for forged, message in [
        ({(x, dx, x): 2}, r"t_x t_d != t_x"),
        ({(dleft, x, x): 2}, r"t_d t_x != t_x"),
        ({(x, off_right, x): 1}, r"t_x t_d nonzero off the diagonal"),
        ({(off_left, x, x): 1}, r"t_d t_x nonzero off the diagonal"),
    ]:
        table = GammaTable(g, gamma.a, {**gamma.lead, **forged})
        with pytest.raises(InternalInconsistencyError, match=message):
            distinguished_involutions(table, cells, store)


@pytest.mark.parametrize("c", [0, -1])
def test_nonpositive_leading_coefficient_refused(c):
    # a cached scan gets the check a fresh one does
    g, store, cells, gamma, dlist = _setup("I2(5)")
    lead = {**gamma.lead, (0, 0, 0): c}
    with pytest.raises(InternalInconsistencyError,
                       match=rf"^nonpositive leading coefficient {c} "
                             r"at h\(0,0,0\)$"):
        compute_gamma(store, cells, scan=(gamma.a, lead))


@pytest.mark.parametrize("symbol", ["A3", "B3", "H3", "B4", "D4", "I2(5)"])
def test_products_come_sorted_from_the_scan_order(symbol):
    # the scan emits lead in (z, y, x) order, so one pass over it lists
    # every product sorted by z
    store, cells = _store_and_cells(symbol)
    gamma = compute_gamma(store, cells)
    assert list(gamma.lead) == sorted(gamma.lead, key=lambda k: k[::-1])
    assert all(list(v) == sorted(v) for v in gamma.by_xy.values())


def test_nondistinguished_involutions_can_carry_gamma():
    # the defect test is what cuts out the distinguished set; the support
    # of t_x t_{x^-1} is strictly bigger in general
    g, store, cells, gamma, dlist = _setup("B3")
    dset = set(dlist)
    slot = set()
    for x in range(g.size):
        for z, _ in gamma.product(x, g.inverse[x]):
            slot.add(g.inverse[z])
    assert dset < slot
    assert len(slot) == 20  # all involutions of this group
    extra = sorted(slot - dset)
    assert all(g.inverse[u] == u for u in extra)


def test_B3_cell_profile_frozen():
    g, store, cells, gamma, dlist = _setup("B3")
    assert len(cells.left_cells) == 14
    assert sorted(len(c) for c in cells.two_sided_cells) == [1, 1, 9, 9, 14, 14]
    assert sorted(gamma.a[c[0]] for c in cells.two_sided_cells) == [
        0, 1, 2, 3, 4, 9,
    ]
    assert gamma.a[g.w0] == 9


def test_H3_cell_profile_frozen():
    g, store, cells, gamma, dlist = _setup("H3")
    assert len(cells.left_cells) == 22
    assert len(dlist) == 22
    assert sorted(len(c) for c in cells.two_sided_cells) == [
        1, 1, 18, 18, 25, 25, 32,
    ]
    assert sorted(gamma.a[c[0]] for c in cells.two_sided_cells) == [
        0, 1, 2, 3, 5, 6, 15,
    ]
    # the size-32 two-sided cell: four left cells of size 8, each meeting
    # its own inverse in exactly two elements
    big = next(c for c in cells.two_sided_cells if len(c) == 32)
    inside = [
        members
        for members in cells.left_cells
        if cells.two_sided_of[members[0]] == cells.two_sided_of[big[0]]
    ]
    assert [len(m) for m in inside] == [8, 8, 8, 8]
    for members in inside:
        mem = set(members)
        assert sum(1 for m in members if g.inverse[m] in mem) == 2
