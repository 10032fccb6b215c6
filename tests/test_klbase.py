"""Canonical basis, structure constants, dagger, cache."""

import copy
import hashlib
import os
import random
import struct
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxcells.coxeter import build_group
from coxcells.errors import CacheInvalidError, InternalInconsistencyError
from coxcells.jring import (
    compute_cells,
    compute_gamma,
    distinguished_involutions,
)
from coxcells.klbase import (
    CACHE_FORMAT_VERSION,
    BlockKit,
    Packing,
    _h_block,
    cache_load,
    cache_save,
    compute_kl,
    generator_rows,
    stream_h_blocks,
)

from oracles import (
    N_values,
    P_at_one,
    P_row,
    RPolyOracle,
    _row_bounds,
    bruhat_leq,
    c_product,
    compute_h_table,
    compute_kl_dicts,
    dagger_T_basis,
    naive_c_product,
    pack,
    reseal_cache,
    vp,
)


def _store(symbol):
    return compute_kl(build_group(symbol))


def _gamma(store):
    return compute_gamma(store, compute_cells(generator_rows(store)))


# ---------------------------------------------------------------------------
# value polynomial helpers


def test_vp_arithmetic():
    a = (-1, (1, 0, 1))  # v^-1 + v
    assert vp.mul(a, a) == (-2, (1, 0, 2, 0, 1))
    assert vp.add(a, vp.neg(a)) == vp.ZERO
    assert vp.sub((0, (5,)), (0, (5,))) == vp.ZERO
    assert vp.shift(a, 3) == (2, (1, 0, 1))
    assert vp.coeff(a, -1) == 1 and vp.coeff(a, 0) == 0
    assert vp.at_one(a) == 2
    assert vp.bar_symmetric(a)
    assert not vp.bar_symmetric((0, (1, 1)))
    assert vp.norm(5, [0, 0, 0]) == vp.ZERO
    assert vp.from_q((1, 2), -2) == (-2, (1, 0, 2))
    assert vp.to_laurent((-1, (1, 0, 1))).render() == "v^-1 + v"


# ---------------------------------------------------------------------------
# the P polynomials


def test_dihedral_P_all_one():
    store = _store("I2(5)")
    g = store.group
    for w in range(g.size):
        for y, qc in P_row(store, w).items():
            assert qc == (1,), (y, w)
        # support of c_w is the full Bruhat interval below w
        assert len(store.P_by_w[w]) == sum(
            1 for y in range(g.size) if bruhat_leq(g, y, w)
        )


def test_dihedral_mu_is_covering():
    store = _store("I2(5)")
    g = store.group
    for w in range(g.size):
        expect = sorted(
            (z, 1)
            for z in range(g.size)
            if g.length[z] == g.length[w] - 1 and bruhat_leq(g, z, w)
        )
        assert list(store.mu_by_w[w]) == expect


def test_A3_known_nontrivial_P():
    store = _store("A3")
    g = store.group
    x = g.element_by_word((1,))
    y = g.element_by_word((1, 0, 2, 1))
    assert store.P(x, y) == (1, 1)  # 1 + q
    assert dict(store.mu_by_w[y]).get(x, 0) == 1


# SHA-256 of the sorted P rows, as q-coefficient tuples, and of the mu
# lists, recorded with the canonical-basis recursion run on
# v-polynomials, a second route to the same store
PINNED_STORE_DIGESTS = {
    "D4": (
        "9d0de092760daca52bd65eafed99939c5e6c13d82810e008ca7381ced0241396",
        "6b837a46a065aa05aed9695f7a42f67fa953461e1f3345564ace82e619f4c263",
    ),
    "B4": (
        "64fa2009cf5f98fb23721625bf35cbdca1d7a4fbfdef82aa4d4fed1fd0904163",
        "c9991cdded845ff072a7c2292d7bdc179a8cdccbcb93bc6b5e9bc7f5c6a16faa",
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_kl_store_pinned():
    for symbol, (p_digest, mu_digest) in PINNED_STORE_DIGESTS.items():
        store = _store(symbol)
        rows = [sorted(P_row(store, w).items())
                for w in range(store.group.size)]
        assert _digest(rows) == p_digest, symbol
        assert _digest(list(store.mu_by_w)) == mu_digest, symbol


def test_longest_element_row_is_all_ones():
    for symbol in ("A3", "B3", "H3"):
        store = _store(symbol)
        g = store.group
        row = P_row(store, g.w0)
        assert len(row) == g.size
        assert all(qc == (1,) for qc in row.values())


def test_P_against_R_inversion_oracle_small_groups():
    for symbol in ("A1", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "A3", "B3"):
        g = build_group(symbol)
        store = compute_kl(g)
        oracle = RPolyOracle(g)
        for y in range(g.size):
            for x in range(g.size):
                got = store.P(x, y)
                want = oracle.P(x, y)
                want_t = tuple(
                    want.coeff(e) for e in range(want.degree() + 1)
                ) if not want.is_zero() else ()
                assert got == want_t, (symbol, x, y)


def test_P_against_oracle_H3_random_pairs():
    g = build_group("H3")
    store = compute_kl(g)
    oracle = RPolyOracle(g)
    rng = random.Random(20260219)
    for _ in range(500):
        x = rng.randrange(g.size)
        y = rng.randrange(g.size)
        got = store.P(x, y)
        want = oracle.P(x, y)
        if want.is_zero():
            assert got == ()
        else:
            assert got == tuple(
                want.coeff(e) for e in range(want.degree() + 1)
            ), (x, y)


def _matches_dict_recursion(symbol):
    # every P_{y,w}, read through KLStore.P, and every mu row equal those
    # of the same recursion run on one dict per row
    g = build_group(symbol)
    store = compute_kl(g)
    P_by_w, mu_by_w = compute_kl_dicts(g)
    unpack = store.packing.unpack
    for w in range(g.size):
        row = P_by_w[w]
        assert list(store.P_by_w[w]) == sorted(row), (symbol, w)
        for y in range(g.size):
            want = unpack(row[y])[1] if y in row else ()
            assert store.P(y, w) == want, (symbol, y, w)
        assert store.mu_by_w[w] == mu_by_w[w], (symbol, w)


def test_recursion_without_corrections_is_refused():
    # with no left descents recorded, no mu correction runs, and the
    # first P_{y,w} past its degree bound is refused
    g = copy.copy(build_group("A3"))
    g.left_descent_mask = [0] * g.size
    with pytest.raises(InternalInconsistencyError, match="degree bound"):
        compute_kl(g)


def test_kl_store_memory():
    # the rows are flat arrays of ys and of indices into one table of
    # distinct values: B4's 40 249 pairs, with its mu rows, stay within
    # 0.6 MB, where one dict per row held 1.6 MB
    g = build_group("B4")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = compute_kl(g)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, store.P_by_w)) == 40249
    assert live <= 600_000, live


def test_block_kit_shares_the_mu_pairs():
    # mu_down filters the store's (t, mu) pairs by reference: B4's kit
    # stays within 0.2 MB, where copying every pair held 0.35 MB
    store = compute_kl(build_group("B4"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kit = store.block_kit()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    shared = {id(e) for mus in store.mu_by_w for e in mus}
    assert all(id(e) in shared for row in kit.mu_down for mus in row
               for e in mus)
    assert live <= 200_000, live


@pytest.mark.parametrize("symbol",
                         ["A3", "A4", "B3", "B4", "H3", "D4", "I2(5)"])
def test_P_and_mu_match_dict_recursion(symbol):
    _matches_dict_recursion(symbol)


@pytest.mark.heavy
@pytest.mark.parametrize("symbol", ["F4", "D5"])
def test_P_and_mu_match_dict_recursion_heavy(symbol):
    _matches_dict_recursion(symbol)


# ---------------------------------------------------------------------------
# products


def test_c_s_squared():
    store = _store("I2(3)")
    g = store.group
    s = g.element_by_word((0,))
    assert c_product(store, s, s) == ((s, vp.GATE),)


def test_dihedral_product_with_mu_correction():
    store = _store("I2(3)")
    g = store.group
    s1 = g.element_by_word((0,))
    s2s1 = g.element_by_word((1, 0))
    s1s2s1 = g.element_by_word((0, 1, 0))
    row = c_product(store, s1, s2s1)
    assert row == ((s1, vp.ONE), (s1s2s1, vp.ONE))


def test_c_product_against_naive_oracle():
    cases = [("I2(3)", None), ("I2(5)", None), ("A3", 40), ("B3", 12)]
    rng = random.Random(77)
    for symbol, n_samples in cases:
        g = build_group(symbol)
        store = compute_kl(g)
        oracle = RPolyOracle(g)
        if n_samples is None:
            pairs = [(x, y) for x in range(g.size) for y in range(g.size)]
        else:
            pairs = [
                (rng.randrange(g.size), rng.randrange(g.size))
                for _ in range(n_samples)
            ]
        for x, y in pairs:
            fast = c_product(store, x, y)
            slow = naive_c_product(g, oracle, x, y)
            assert len(fast) == len(slow), (symbol, x, y)
            for (z1, p1), (z2, p2) in zip(fast, slow):
                assert z1 == z2
                assert vp.to_laurent(p1) == p2, (symbol, x, y, z1)


def test_c_product_against_naive_oracle_H3_sample():
    g = build_group("H3")
    store = compute_kl(g)
    oracle = RPolyOracle(g)
    rng = random.Random(55)
    for _ in range(5):
        x = rng.randrange(g.size)
        y = rng.randrange(g.size)
        fast = c_product(store, x, y)
        slow = naive_c_product(g, oracle, x, y)
        assert [(z, vp.to_laurent(p)) for z, p in fast] == slow


# ---------------------------------------------------------------------------
# h tables


def test_generator_table_row_count():
    store = _store("I2(3)")
    tab = generator_rows(store)
    group = store.group
    gens = {group.element_by_word((s,)) for s in range(group.datum.rank)}
    assert {x for x, _ in tab.rows} == gens
    assert len(tab.rows) == 12
    full = compute_h_table(store)
    assert len(full.rows) == 36
    # generator rows agree between the two routes
    for key, row in tab.rows.items():
        assert full.rows[key] == row


def test_h_table_rows_match_c_product():
    for symbol, n_samples in (("I2(5)", None), ("A3", 60)):
        store = _store(symbol)
        g = store.group
        tab = compute_h_table(store)
        rng = random.Random(4242)
        if n_samples is None:
            pairs = list(tab.rows)
        else:
            pairs = [
                (rng.randrange(g.size), rng.randrange(g.size))
                for _ in range(n_samples)
            ]
        for x, y in pairs:
            assert tab.rows[(x, y)] == c_product(store, x, y), (symbol, x, y)


def test_h_polynomials_bar_symmetric():
    for symbol in ("I2(5)", "A3"):
        tab = compute_h_table(_store(symbol))
        for row in tab.rows.values():
            for _, p in row:
                assert vp.bar_symmetric(p)


def test_h_top_degree_of_longest_element():
    store = _store("I2(3)")
    g = store.group
    tab = compute_h_table(store)
    p = dict(tab.rows[(g.w0, g.w0)])[g.w0]
    assert vp.deg(p) == 3  # the a-value of the longest dihedral element


def test_h_associativity_random_triples():
    store = _store("A3")
    g = store.group
    tab = compute_h_table(store)
    rng = random.Random(987)
    for _ in range(200):
        x = rng.randrange(g.size)
        y = rng.randrange(g.size)
        z = rng.randrange(g.size)
        lhs = {}
        for w, p in tab.rows[(x, y)]:
            for t, q in tab.rows[(w, z)]:
                lhs[t] = vp.add(lhs.get(t, vp.ZERO), vp.mul(p, q))
        rhs = {}
        for w, p in tab.rows[(y, z)]:
            for t, q in tab.rows[(x, w)]:
                rhs[t] = vp.add(rhs.get(t, vp.ZERO), vp.mul(p, q))
        lhs = {t: p for t, p in lhs.items() if p[1]}
        rhs = {t: p for t, p in rhs.items() if p[1]}
        assert lhs == rhs, (x, y, z)


def _decoded(kit, row):
    return tuple(sorted((z, kit.unpack(p)) for z, p in row.items()))


def test_streaming_matches_materialized():
    store = _store("I2(5)")
    kit = store.block_kit()
    tab = compute_h_table(store)
    seen = {}

    def consumer(x, y, row):
        seen[(x, y)] = _decoded(kit, row)

    stream_h_blocks(store, consumer)
    assert seen == tab.rows


def test_streaming_repeated_y():
    # a y listed twice is delivered twice, in order
    store = _store("A3")
    kit = store.block_kit()
    rows = []
    stream_h_blocks(
        store,
        lambda x, y, row: rows.append((x, y, _decoded(kit, row))),
        ys=[1, 1],
    )
    assert [(x, y) for x, y, _ in rows] == [(x, 1) for x in range(24)] * 2
    assert rows[:24] == rows[24:]


# ---------------------------------------------------------------------------
# packed h entries

# Laurent polynomials with degrees within +-(off - 1) and coefficients of
# either sign, small enough for the slot width drawn with them
_packed_cases = st.integers(min_value=3, max_value=40).flatmap(
    lambda bits: st.integers(min_value=1, max_value=12).flatmap(
        lambda off: st.tuples(
            st.just(bits),
            st.just(off),
            st.integers(min_value=1 - off, max_value=off - 1),
            st.lists(
                st.integers(min_value=1 - (1 << bits - 2),
                            max_value=(1 << bits - 2) - 1),
                max_size=2 * off - 1,
            ),
        )
    )
)


def _poly(val, coeffs, reach):
    """The drawn polynomial cut to degrees within +-reach."""
    val = max(val, -reach)
    return vp.norm(val, coeffs[:max(reach + 1 - val, 0)])


@given(_packed_cases)
def test_unpack_inverts_pack(case):
    bits, off, val, coeffs = case
    p = _poly(val, coeffs, off - 1)
    n = pack(p, bits, off)
    assert Packing(bits, off).unpack(n) == p
    assert (n == 0) == (p == vp.ZERO)


@given(_packed_cases)
def test_lead_is_decoded_top_term(case):
    bits, off, val, coeffs = case
    p = _poly(val, coeffs, off - 1)
    if p != vp.ZERO:
        codec = Packing(bits, off)
        n = pack(p, bits, off)
        assert codec.lead(n) == (vp.deg(p), p[1][-1])
        assert codec.top_degree(n) == vp.deg(p)


@given(_packed_cases)
def test_shift_pair_multiplies_by_gate(case):
    # halved coefficients keep the sums of two inside a slot, and degrees
    # within +-(off - 2) stay within +-(off - 1) after v + v^-1
    bits, off, val, coeffs = case
    p = _poly(val, [int(c / 2) for c in coeffs], off - 2)
    n = pack(p, bits, off)
    assert (Packing(bits, off).unpack((n << bits) + (n >> bits))
            == vp.mul(p, vp.GATE))


# block reductions as (x, z, degree, coefficients) entries


def _leads(kit, y, block):
    out = []
    for x, row in enumerate(block):
        for z, p in row.items():
            d, c = kit.lead(p)
            out.append((x, z, d, (c,)))
    return out


def _rows(kit, y, block):
    return [
        (x, z) + kit.unpack(p)
        for x, row in enumerate(block) for z, p in row.items()
    ]


def _reduced(kit, reduce):
    return [reduce(kit, y, _h_block(kit, (y,))) for y in range(kit.size)]


@given(st.integers(min_value=2, max_value=16),
       st.sampled_from([_leads, _rows]))
def test_slot_width_below_bound_raises_or_is_exact(bits, reduce):
    # Every slot width tried here, narrower than A3's or not, either
    # still holds every decoded value or trips the decoders' digit check.
    # The check is not complete in general (a value of 2^(bits-1) or more
    # carries into the next slot and can read as a small digit), so
    # exactness rests on the width, proven by the test below.
    kit = BlockKit(_store("A3"))
    exact = _reduced(kit, reduce)
    widest = max(abs(c) for block in exact for *_, cs in block for c in cs)
    kit.bits = bits
    try:
        got = _reduced(kit, reduce)
    except InternalInconsistencyError as exc:
        assert "overflows its slot" in str(exc)
        return
    assert widest < 1 << bits - 2
    assert got == exact


@pytest.mark.parametrize("symbol", ["I2(5)", "A3", "B3", "H3", "A4", "D4"])
def test_row_bounds_hold_every_row(symbol):
    # the lemma of KLStore: with N(w) = sum over u of P_{u,w}(1),
    # N(x) N(y) = sum over z of h_{x,y,z}(1) N(z) with every term >= 0,
    # which bounds every P digit by 2^l(w0) and every h coefficient by
    # maxN^2, the two slot widths
    store = _store(symbol)
    g = store.group
    kit = store.block_kit()
    N = N_values(store)
    top = max(N) ** 2
    assert top < 1 << kit.bits - 2
    # x = s: c_s c_w = c_{sw} + sum of mu(z, w) c_z over z with s z < z
    for s in range(g.datum.rank):
        ns = N[g.element_by_word((s,))]
        for w in range(g.size):
            sw = g.left[s][w]
            if g.length[sw] > g.length[w]:
                assert ns * N[w] == N[sw] + sum(
                    m * N[z] for z, m in kit.mu_down[s][w]
                ), (s, w)
    bits = store.packing.bits
    for w in range(g.size):
        for y, i in zip(store.P_by_w[w], store.P_index_by_w[w]):
            n = store.P_values[i]
            assert n > 0, (y, w)
            while n:
                assert n & (1 << bits) - 1 < 1 << bits - 2, (y, w)
                n >>= bits
    # every whole and cut block is nonnegative and within maxN^2, and the
    # bound of the oracle, which assumes no positivity, holds as well
    bounds = _row_bounds(kit)
    cell = compute_cells(generator_rows(store)).left_cell_of
    for y in range(g.size):
        for cut in (None, cell):
            for x, row in enumerate(_h_block(kit, (y,), cell=cut)):
                coeffs = {z: kit.unpack(p)[1] for z, p in row.items()}
                assert all(0 <= c <= top for cs in coeffs.values()
                           for c in cs), (x, y, cut is None)
                assert sum(map(sum, coeffs.values())) <= bounds[x], (x, y)
                if cut is None:
                    assert sum(sum(cs) * N[z] for z, cs in coeffs.items()) \
                        == N[x] * N[y], (x, y)


@pytest.mark.parametrize("symbol", ["A3", "B3", "H3"])
def test_closed_rows_match_whole_block(symbol):
    # a block cut to the closure of a left cell holds exactly those rows,
    # each equal to its row in the whole block
    store = _store(symbol)
    kit = store.block_kit()
    cells = compute_cells(generator_rows(store))
    whole = [_h_block(kit, (y,)) for y in range(kit.size)]
    for members in cells.left_cells:
        xs = kit.closure(members)
        assert xs[0] == 0 and list(xs) == sorted(set(xs))
        assert set(members) <= set(xs)
        for x in xs[1:]:
            s = kit.first_letter[x]
            parent = kit.left[s][x]
            assert {parent, *(t for t, _ in kit.mu_down[s][parent])} <= set(xs)
        for y in range(0, kit.size, 5):
            block = _h_block(kit, (y,), xs)
            assert [x for x, row in enumerate(block) if row is not None] \
                == list(xs)
            assert all(block[x] == whole[y][x] for x in xs)


@pytest.mark.parametrize("symbol", ["A3", "B3", "H3", "D4"])
def test_cell_truncated_blocks_match_whole_block(symbol):
    # a block cut to the left cell of y equals the whole block with only
    # the columns in that cell kept, on every row and on the rows of each
    # closure
    store = _store(symbol)
    kit = store.block_kit()
    cells = compute_cells(generator_rows(store))
    cell = cells.left_cell_of
    closures = [kit.closure(members) for members in cells.left_cells]
    for y in range(kit.size):
        want = [{z: p for z, p in row.items() if cell[z] == cell[y]}
                for row in _h_block(kit, (y,))]
        assert _h_block(kit, (y,), cell=cell) == want, y
        for xs in closures:
            keep = set(xs)
            assert _h_block(kit, (y,), xs, cell) == [
                want[x] if x in keep else None for x in range(kit.size)
            ], (y, xs[-1])


def _seeded_blocks_side_by_side(symbol, widths):
    # one recursion seeded with one y per left cell is the side-by-side
    # union of the one-y blocks cut to those cells, at each width, for ys
    # the distinguished involutions and for a seeded draw
    store = _store(symbol)
    kit = store.block_kit()
    cells = compute_cells(generator_rows(store))
    cell = cells.left_cell_of
    dlist = distinguished_involutions(compute_gamma(store, cells), cells,
                                      store)
    rng = random.Random(symbol)
    drawn = sorted(rng.choice(members) for members in cells.left_cells)
    for ys in (list(dlist), drawn):
        for bits in widths:
            want = [{} for _ in range(kit.size)]
            for y in ys:
                block = _h_block(kit, (y,), cell=cell, bits=bits)
                for x, row in enumerate(block):
                    assert not want[x].keys() & row.keys(), (x, y)
                    want[x].update(row)
            assert _h_block(kit, ys, cell=cell, bits=bits) == want, bits


@pytest.mark.parametrize("symbol",
                         ["A3", "B3", "H3", "A4", "D4", "B4", "I2(5)"])
def test_seeded_blocks_sit_side_by_side(symbol):
    _seeded_blocks_side_by_side(symbol, (None, 0))


@pytest.mark.heavy
@pytest.mark.parametrize("symbol", ["F4", "D5"])
def test_seeded_blocks_sit_side_by_side_heavy(symbol):
    _seeded_blocks_side_by_side(symbol, (0,))


def test_seeds_that_would_add_up_raise():
    # two ys in one left cell, or two ys with no cell array to keep them
    # apart, would add their blocks in one summand
    store = _store("B3")
    kit = store.block_kit()
    cells = compute_cells(generator_rows(store))
    pair = next(members[:2] for members in cells.left_cells
                if len(members) > 1)
    with pytest.raises(InternalInconsistencyError, match="share a left"):
        _h_block(kit, pair, cell=cells.left_cell_of)
    apart = (cells.left_cells[0][0], cells.left_cells[1][0])
    assert _h_block(kit, apart, cell=cells.left_cell_of)[0] == dict.fromkeys(
        apart, 1 << kit.bits * kit.off)
    with pytest.raises(InternalInconsistencyError, match="share a left"):
        _h_block(kit, apart)


# ---------------------------------------------------------------------------
# the dagger automorphism


def test_dagger_on_generator():
    store = _store("I2(3)")
    g = store.group
    s = g.element_by_word((0,))
    vec = dagger_T_basis(store, s)
    # v^-1 (T_e - T_s^-1) = v^-1 ((2 - v^-2) T_e - v^-2 T_s)
    assert vec[0] == vp.add(vp.scale((-1, (1,)), 2), (-3, (-1,)))
    assert vec[s] == (-3, (-1,))


def test_dagger_leading_term_and_support():
    store = _store("A3")
    g = store.group
    for x in range(g.size):
        vec = dagger_T_basis(store, x)
        lx = g.length[x]
        sign = -1 if lx % 2 else 1
        # (T_{y^-1})^(-1) lives on {u <= y}, top term v^(-2 l(y)) T_y
        assert vec[x] == (-3 * lx, (sign,))
        for u in vec:
            assert bruhat_leq(g, u, x), (x, u)


def test_dagger_specializes_to_signed_P_at_one():
    for symbol in ("I2(3)", "I2(5)", "A3"):
        store = _store(symbol)
        g = store.group
        for x in range(g.size):
            vec = dagger_T_basis(store, x)
            for u in range(g.size):
                got = vp.at_one(vec.get(u, vp.ZERO))
                sign = -1 if g.length[u] % 2 else 1
                # each (T_{y^-1})^(-1) collapses to plain y at v = 1
                want = sign * P_at_one(store, u, x) if bruhat_leq(g, u, x) else 0
                assert got == want, (symbol, x, u)


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(tmp_path):
    # mu is not stored: the loaded store reads it off the P rows again
    for symbol in ("I2(5)", "H3"):
        g = build_group(symbol)
        store = compute_kl(g)
        gamma = _gamma(store)
        d = str(tmp_path / symbol)
        cache_save(store, gamma, d)
        store2, (a, lead) = cache_load(d, g)
        assert store2.P_by_w == store.P_by_w
        assert store2.P_index_by_w == store.P_index_by_w
        assert store2.P_values == store.P_values
        assert store2.mu_by_w == store.mu_by_w
        assert a == gamma.a
        assert lead == gamma.lead


def test_cache_is_one_file(tmp_path):
    g = build_group("I2(3)")
    store = compute_kl(g)
    d = tmp_path / "c"
    cache_save(store, _gamma(store), str(d))
    assert sorted(os.listdir(d)) == ["cache.bin"]
    store2, _ = cache_load(str(d), g)
    assert store2.P_by_w == store.P_by_w
    assert store2.P_index_by_w == store.P_index_by_w
    assert store2.P_values == store.P_values


def test_cache_load_without_file_is_none(tmp_path):
    assert cache_load(str(tmp_path / "c"), build_group("I2(3)")) is None


def _saved(tmp_path, symbol="I2(3)"):
    """A group and the directory of its freshly saved cache."""
    g = build_group(symbol)
    store = compute_kl(g)
    d = tmp_path / "c"
    cache_save(store, _gamma(store), str(d))
    return g, d


def test_cache_without_lead_file_rejected(tmp_path):
    # the a and lead records, what lead.bin held, cut off the file
    g, d = _saved(tmp_path)
    _, (_, lead) = cache_load(str(d), g)
    # two length fields, 4 bytes per a-value, 24 per (x, y, z, lead)
    tail = 4 + 4 * g.size + 4 + 24 * len(lead)

    def edit(data):
        del data[-tail:]

    reseal_cache(d, edit)
    with pytest.raises(CacheInvalidError, match="truncated cache record"):
        cache_load(str(d), g)


def test_cache_rejects_wrong_group(tmp_path):
    _, d = _saved(tmp_path, "I2(5)")
    with pytest.raises(CacheInvalidError, match="different group"):
        cache_load(str(d), build_group("I2(3)"))


def test_cache_rejects_version_bump(tmp_path):
    g, d = _saved(tmp_path)

    def edit(data):
        struct.pack_into("<I", data, 4, CACHE_FORMAT_VERSION + 1)

    reseal_cache(d, edit)
    with pytest.raises(CacheInvalidError, match="cache format"):
        cache_load(str(d), g)


def test_cache_rejects_corrupt_payload(tmp_path):
    g, d = _saved(tmp_path)
    path = d / "cache.bin"
    with open(path, "r+b") as f:
        f.write(b"XXXX")
    with pytest.raises(CacheInvalidError, match="digest"):
        cache_load(str(d), g)
    reseal_cache(d, lambda data: None)
    with pytest.raises(CacheInvalidError, match="magic"):
        cache_load(str(d), g)


def _first_P_offsets(data):
    """Offsets in a format-7 cache.bin of the value count, the first value
    length, and the first y of the first element, whose value index
    follows it: after magic, version, the fingerprint record and the
    element count come the value record (length, count, byte lengths,
    bytes) and the element records (length, the ys, their indices)."""
    (fp_len,) = struct.unpack_from("<I", data, 8)
    values = 16 + fp_len
    (values_len,) = struct.unpack_from("<I", data, values)
    return values + 4, values + 8, values + 4 + values_len + 4


def test_cache_rejects_mismatched_digest_and_out_of_range_row(tmp_path):
    g, d = _saved(tmp_path)
    path = d / "cache.bin"
    data = bytearray(path.read_bytes())
    *_, pair = _first_P_offsets(data)
    struct.pack_into("<I", data, pair, g.size + 5)
    path.write_bytes(bytes(data))
    with pytest.raises(CacheInvalidError, match="digest"):
        cache_load(str(d), g)
    # with the digest made to match, the structural check still refuses it
    reseal_cache(d, lambda data: None)
    with pytest.raises(CacheInvalidError, match="out of range"):
        cache_load(str(d), g)


@pytest.mark.parametrize("word", range(5),
                         ids=["x", "y", "z", "lead-low", "lead-high"])
def test_cache_range_checks_lead_elements_only(tmp_path, word):
    # one word of the last (x, y, z, lead) entry, five <I words, set to
    # |W|: an element index is refused, a lead coefficient word is not
    g, d = _saved(tmp_path, "H3")
    reseal_cache(d, lambda data: struct.pack_into(
        "<I", data, len(data) - 20 + 4 * word, g.size))
    if word < 3:
        with pytest.raises(CacheInvalidError,
                           match="lead entry out of range"):
            cache_load(str(d), g)
    else:
        _, (_, lead) = cache_load(str(d), g)
        assert list(lead.values())[-1] >> 32 * (word - 3) & 0xFFFFFFFF \
            == g.size


def _y_out_of_range(data, g):
    struct.pack_into("<I", data, _first_P_offsets(data)[2], g.size)


def _index_out_of_range(data, g):
    count, _, pair = _first_P_offsets(data)
    (nval,) = struct.unpack_from("<I", data, count)
    struct.pack_into("<I", data, pair + 4, nval)


def _zero_length_value(data, g):
    struct.pack_into("<H", data, _first_P_offsets(data)[1], 0)


def _oversized_value(data, g):
    struct.pack_into("<H", data, _first_P_offsets(data)[1], 1000)


def _value_past_its_record(data, g):
    at = _first_P_offsets(data)[1]
    (n,) = struct.unpack_from("<H", data, at)
    struct.pack_into("<H", data, at, n + 1)


def _P_record(data, entries):
    """(offset, ys) of the first element record with at least that many
    entries, the offset being that of its length field."""
    at = _first_P_offsets(data)[2] - 4
    while True:
        (n,) = struct.unpack_from("<I", data, at)
        if n // 8 >= entries:
            return at, list(struct.unpack_from(f"<{n // 8}I", data, at + 4))
        at += 4 + n


def _unsorted_ys(data, g):
    # the middle two ys swapped: every y in range, the row ends at w
    at, ys = _P_record(data, 4)
    ys[1], ys[2] = ys[2], ys[1]
    struct.pack_into(f"<{len(ys)}I", data, at + 4, *ys)


def _duplicate_ys(data, g):
    at, ys = _P_record(data, 4)
    ys[1] = ys[2]
    struct.pack_into(f"<{len(ys)}I", data, at + 4, *ys)


def _row_not_ending_at_its_element(data, g):
    # increasing and in range, but the last y is not the element
    at, ys = _P_record(data, 2)
    ys[-1] = g.size - 1
    struct.pack_into(f"<{len(ys)}I", data, at + 4, *ys)


def _cut_record(data, cut):
    """Drop the last bytes of the first element record of two entries."""
    at, ys = _P_record(data, 2)
    end = at + 4 + 8 * len(ys)
    struct.pack_into("<I", data, at, 8 * len(ys) - cut)
    del data[end - cut:end]


def _mismatched_halves(data, g):
    # whole <I entries, one index fewer than ys
    _cut_record(data, 4)


def _partial_entry(data, g):
    _cut_record(data, 2)


@pytest.mark.parametrize("edit, match", [
    (_y_out_of_range, "P entry out of range"),
    (_index_out_of_range, "P entry out of range"),
    (_zero_length_value, "P value of 0 bytes"),
    (_oversized_value, "P value of 1000 bytes"),
    (_value_past_its_record, "P value record size mismatch"),
    (_unsorted_ys, "P row not increasing up to its element"),
    (_duplicate_ys, "P row not increasing up to its element"),
    (_row_not_ending_at_its_element, "P row not increasing up to its element"),
    (_mismatched_halves, "P record size mismatch"),
    (_partial_entry, "P record size mismatch"),
])
def test_cache_rejects_bad_P_entries(tmp_path, edit, match):
    # behind a digest that matches, every bad P entry is refused as a
    # CacheInvalidError, never an IndexError or a struct.error
    g, d = _saved(tmp_path, "H3")
    reseal_cache(d, lambda data: edit(data, g))
    with pytest.raises(CacheInvalidError, match=match):
        cache_load(str(d), g)
