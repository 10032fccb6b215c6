import random
from math import lcm

import pytest

import coxcells.coxeter as coxeter_mod
from coxcells.coxeter import build_group, group_datum
from coxcells.errors import InternalInconsistencyError, RefusalError, UsageError
from coxcells.exactnum import LaurentPoly, cyclo_context, cyclo_rational
from coxcells.modp import residue_map

from oracles import (
    bruhat_leq,
    degrees_from_poincare,
    embed_cyclo,
    left_descents,
    matrix_of,
    power_vector,
    reflection_matrices,
    right_descents,
)


# ---------------------------------------------------------------------------
# symbols and type-level data


def test_symbol_parsing():
    assert group_datum("A3").rank == 3
    assert group_datum("I2(7)").coxeter_matrix[0][1] == 7
    assert group_datum(" H3 ").type_symbol == "H3"
    for bad in ("A0", "B1", "D3", "E5", "E9", "F5", "H5", "I2(2)", "Z4", "G2", ""):
        with pytest.raises(UsageError):
            group_datum(bad)


def test_g2_hint_mentions_dihedral():
    with pytest.raises(UsageError, match="I2"):
        group_datum("G2")


def test_closed_form_orders():
    assert group_datum("A3").order == 24
    assert group_datum("B3").order == 48
    assert group_datum("D4").order == 192
    assert group_datum("I2(5)").order == 10
    assert group_datum("H3").order == 120
    assert group_datum("H4").order == 14400
    assert group_datum("F4").order == 1152
    assert group_datum("E6").order == 51840
    assert group_datum("E7").order == 2903040
    assert group_datum("E8").order == 696729600


def test_conductors():
    for symbol, expected in [
        ("A1", 2), ("A3", 12), ("B3", 24), ("F4", 24),
        ("I2(3)", 6), ("I2(5)", 10), ("I2(7)", 14), ("H3", 60), ("H4", 60),
    ]:
        assert group_datum(symbol).conductor == expected, symbol


def test_refl_conductor_small():
    assert group_datum("A5").refl_conductor == 1
    assert group_datum("D4").refl_conductor == 1
    assert group_datum("B4").refl_conductor == 8
    assert group_datum("H3").refl_conductor == 5
    assert group_datum("I2(6)").refl_conductor == 12


def test_exponent_is_lcm_of_degrees():
    d = group_datum("H3")
    assert d.exponent == lcm(*d.degrees) == 30


def test_reflection_matrices_are_involutions_with_braid_orders():
    for symbol in ("A2", "B2", "I2(5)", "I2(7)", "H3", "F4"):
        datum = group_datum(symbol)
        gens = reflection_matrices(datum)
        n = datum.rank
        ctx = cyclo_context(datum.refl_conductor)
        one = cyclo_rational(datum.refl_conductor, 1)
        ident = tuple(
            tuple(one if i == j else ctx.zero for j in range(n))
            for i in range(n)
        )

        def mul(a, b):
            return tuple(
                tuple(
                    sum((a[i][k] * b[k][j] for k in range(n)), ctx.zero)
                    for j in range(n)
                )
                for i in range(n)
            )

        for s in range(n):
            assert mul(gens[s], gens[s]) == ident
        for s in range(n):
            for t in range(s + 1, n):
                m = datum.coxeter_matrix[s][t]
                prod = mul(gens[s], gens[t])
                acc = ident
                seen_identity_early = False
                for k in range(1, m + 1):
                    acc = mul(acc, prod)
                    if k < m and acc == ident:
                        seen_identity_early = True
                assert acc == ident and not seen_identity_early, (symbol, s, t)


# ---------------------------------------------------------------------------
# enumeration


def test_small_group_orders():
    assert build_group("I2(3)").size == 6
    assert build_group("I2(5)").size == 10
    assert build_group("A3").size == 24
    assert build_group("B3").size == 48


def test_h3_enumeration():
    g = build_group("H3")
    assert g.size == 120
    assert g.length[g.w0] == 15
    assert g.datum.degrees == (2, 6, 10)


def test_refusal_reports_order():
    with pytest.raises(RefusalError, match="51840"):
        build_group("E6")
    with pytest.raises(RefusalError, match="14400"):
        build_group("H4", max_order=10000)


def test_shortlex_words_are_canonical_and_prefix_closed():
    g = build_group("A3")
    seen = set()
    for w in range(g.size):
        word = g.words[w]
        assert len(word) == g.length[w]
        assert g.element_by_word(word) == w
        assert word not in seen
        seen.add(word)
        if word:
            assert word[:-1] in seen  # prefix discovered earlier
    # index order is ShortLex order
    keys = [ (len(word), word) for word in g.words ]
    assert keys == sorted(keys)


def test_cayley_tables_consistent():
    g = build_group("B3")
    rng = random.Random(7)
    for _ in range(200):
        w = rng.randrange(g.size)
        s = rng.randrange(3)
        ws = g.right[s][w]
        assert abs(g.length[ws] - g.length[w]) == 1
        assert g.right[s][ws] == w
        sw = g.left[s][w]
        assert g.multiply(w, g.element_by_word((s,))) == ws
        assert g.multiply(g.element_by_word((s,)), w) == sw


def test_inverse_and_w0():
    for symbol in ("I2(5)", "A3", "B3"):
        g = build_group(symbol)
        for w in range(g.size):
            assert g.multiply(w, g.inverse[w]) == 0
            # multiplying by w0 complements length
            assert g.length[g.multiply(g.w0, w)] == g.length[g.w0] - g.length[w]
        assert g.multiply(g.w0, g.w0) == 0


def test_descents_match_length_drop():
    g = build_group("A3")
    for w in range(g.size):
        for s in range(3):
            assert (s in right_descents(g, w)) == (g.length[g.right[s][w]] < g.length[w])
            assert (s in left_descents(g, w)) == (g.length[g.left[s][w]] < g.length[w])


def test_matrix_of_respects_multiplication():
    g = build_group("I2(5)")
    rng = random.Random(3)
    n = g.datum.rank
    ctx = cyclo_context(g.datum.refl_conductor)

    def mul(a, b):
        return tuple(
            tuple(
                sum((a[i][k] * b[k][j] for k in range(n)), ctx.zero)
                for j in range(n)
            )
            for i in range(n)
        )

    for _ in range(25):
        x, y = rng.randrange(g.size), rng.randrange(g.size)
        assert mul(matrix_of(g, x), matrix_of(g, y)) == matrix_of(g, g.multiply(x, y))


def test_reflection_action_matches_cyclo_matrices():
    # the mod-p kernel behind build_group and the reflection row of the
    # character table, against the CycloNumber matrices of the oracle
    # carried into Q(zeta_M) and mapped through the same zeta_M -> eta
    for symbol in ("I2(5)", "B3", "H3"):
        g = build_group(symbol)
        n = g.datum.rank
        M = g.datum.conductor
        _, _, to_fp = residue_map(M, g.size)
        ident, right_mul = g.datum.reflection_action()
        for w in range(g.size):
            mat = ident
            for s in g.words[w]:
                mat = right_mul(mat, s)
            want = matrix_of(g, w)
            assert all(
                to_fp(power_vector(embed_cyclo(want[i][j], M)))
                == mat[i * n + j]
                for i in range(n) for j in range(n)
            ), (symbol, w)


@pytest.mark.parametrize("symbol, prime, message", [
    ("H3", None, "overshot the known order 120"),
    ("B3", 3, "closed at 24 elements"),
])
def test_collision_mod_p_raises(monkeypatch, symbol, prime, message):
    # with eta = 1 every 2cos(pi/m) reduces to 2, so the reduced matrices
    # are no longer those of W: on H3 the enumeration runs past |W| = 120,
    # and on B3 mod 3 it closes at 24 elements, below |W| = 48
    real = coxeter_mod.residue_map

    def eta_one(conductor, order):
        p, _, to_fp = real(conductor, order)
        return prime or p, 1, to_fp

    monkeypatch.setattr(coxeter_mod, "residue_map", eta_one)
    with pytest.raises(InternalInconsistencyError, match=message):
        build_group(symbol)


def test_element_orders_divide_exponent():
    for symbol in ("I2(3)", "I2(5)", "A3", "B3", "H3"):
        g = build_group(symbol)
        reps = g.conjugacy_classes().representatives
        orders = [g.order_of(r) for r in reps]
        assert all(g.datum.exponent % o == 0 for o in orders)
        assert lcm(*orders) == g.datum.exponent


# ---------------------------------------------------------------------------
# Bruhat order


def test_bruhat_basics():
    g = build_group("A3")
    for w in range(g.size):
        assert bruhat_leq(g, 0, w)
        assert bruhat_leq(g, w, g.w0)
        assert bruhat_leq(g, w, w)
    s1 = g.element_by_word((0,))
    s1s2 = g.element_by_word((0, 1))
    assert bruhat_leq(g, s1, s1s2)
    assert not bruhat_leq(g, s1s2, s1)


def test_bruhat_subword_instance():
    g = build_group("A3")
    s2 = g.element_by_word((1,))
    y = g.element_by_word((1, 0, 2, 1))  # s2 s1 s3 s2
    assert g.length[y] == 4
    assert bruhat_leq(g, s2, y)


def test_bruhat_is_partial_order_refining_length():
    g = build_group("B3")
    rng = random.Random(11)
    pairs = [(rng.randrange(g.size), rng.randrange(g.size)) for _ in range(300)]
    for x, y in pairs:
        lx, ly = bruhat_leq(g, x, y), bruhat_leq(g, y, x)
        if lx and ly:
            assert x == y
        if lx and x != y:
            assert g.length[x] < g.length[y]
    # transitivity spot check
    for _ in range(300):
        x, y, z = (rng.randrange(g.size) for _ in range(3))
        if bruhat_leq(g, x, y) and bruhat_leq(g, y, z):
            assert bruhat_leq(g, x, z)


def test_bruhat_agrees_with_exhaustive_subword_check():
    # brute force: x <= y iff some subsequence of y's word multiplies to x
    from itertools import combinations

    g = build_group("I2(5)")
    for y in range(g.size):
        word = g.words[y]
        reachable = set()
        for k in range(len(word) + 1):
            for pick in combinations(range(len(word)), k):
                reachable.add(g.element_by_word(tuple(word[i] for i in pick)))
        for x in range(g.size):
            assert bruhat_leq(g, x, y) == (x in reachable), (x, y)


# ---------------------------------------------------------------------------
# conjugacy classes


def test_conjugacy_class_sizes_dihedral():
    g3 = build_group("I2(3)")
    assert g3.conjugacy_classes().sizes == [1, 3, 2]
    g5 = build_group("I2(5)")
    assert g5.conjugacy_classes().sizes == [1, 5, 2, 2]


def test_conjugacy_class_count_h3():
    assert len(build_group("H3").conjugacy_classes()) == 10


def test_conjugacy_classes_partition_and_are_closed():
    g = build_group("A3")
    cls = g.conjugacy_classes()
    assert sum(cls.sizes) == g.size
    assert len(cls) == 5  # partitions of 4
    rng = random.Random(13)
    for _ in range(200):
        x, t = rng.randrange(g.size), rng.randrange(g.size)
        conj = g.multiply(g.multiply(t, x), g.inverse[t])
        assert cls.class_of[conj] == cls.class_of[x]


def test_class_numbering_deterministic():
    g = build_group("B3")
    cls = g.conjugacy_classes()
    # representatives are the least member, and appear in increasing order
    assert cls.representatives == sorted(cls.representatives)
    for rep, members in zip(cls.representatives, cls.members):
        assert rep == min(members)


# ---------------------------------------------------------------------------
# degrees and Poincare polynomial


def test_poincare_product_formula():
    for symbol in ("I2(3)", "I2(7)", "A3", "B3", "H3"):
        g = build_group(symbol)
        X = LaurentPoly.monomial(1, var="X")
        prod = LaurentPoly.constant(1, "X")
        for d in g.datum.degrees:
            prod = prod * LaurentPoly({e: 1 for e in range(d)}, "X")
        assert g.poincare_polynomial() == prod


def test_degrees_derived_from_poincare():
    # the degrees peeled off an enumerated group's length counts
    for symbol, degrees in (("A2", (2, 3)), ("I2(7)", (2, 7)),
                            ("H3", (2, 6, 10)), ("B4", (2, 4, 6, 8))):
        g = build_group(symbol)
        assert degrees_from_poincare(
            g.poincare_polynomial(), g.datum.rank, g.size
        ) == degrees


_ALL_SYMBOLS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 31)]
)


@pytest.mark.parametrize("symbol", _ALL_SYMBOLS)
def test_degrees_from_closed_form_poincare(symbol):
    # prod_i [d_i]_X from the datum alone, so types never enumerated here
    # (E6-E8, H4, large dihedral) are covered too: the product that
    # build_group compares the length counts with gives the degrees back
    datum = group_datum(symbol)
    poincare = LaurentPoly.constant(1, "X")
    for d in datum.degrees:
        poincare = poincare * LaurentPoly({e: 1 for e in range(d)}, "X")
    assert degrees_from_poincare(poincare, datum.rank, datum.order) == (
        datum.degrees
    )


def test_degrees_cover_rejects_non_group_series():
    for coeffs, rank, order in (
        ({0: 1, 1: 2, 2: 1}, 2, 5),          # mass 4, not 5
        ({0: 1, 1: 3, 2: 1}, 2, 5),          # no cyclotomic factor at all
        ({0: 1, 1: 2, 2: 2, 3: 1}, 1, 6),    # (1 + X)(1 + X + X^2), rank 2
    ):
        with pytest.raises(InternalInconsistencyError):
            degrees_from_poincare(LaurentPoly(coeffs, "X"), rank, order)


def test_length_check_rejects_counts_off_the_degree_product():
    # one element moved from length 1 to length 2 keeps the order, the
    # longest length and its uniqueness, but the counts are no longer
    # prod [d]_X over the degrees
    g = build_group("H3")
    coxeter_mod._check_length_counts(g.length, g.datum.degrees)
    forged = list(g.length)
    forged[forged.index(1)] = 2
    assert len(forged) == g.datum.order
    assert max(forged) == g.datum.num_positive_roots
    assert forged.count(max(forged)) == 1
    with pytest.raises(InternalInconsistencyError, match="length counts"):
        coxeter_mod._check_length_counts(forged, g.datum.degrees)


def test_metadata_shape():
    g = build_group("I2(3)")
    meta = g.metadata()
    assert meta["order"] == 6
    assert meta["degrees"] == [2, 3]
    assert meta["class_sizes"] == [1, 3, 2]
    assert meta["longest_element_word"] in ([1, 2, 1], [2, 1, 2])
    assert meta["longest_element_word"] == [1, 2, 1]  # ShortLex picks s1 first
    assert isinstance(meta["fingerprint"], str) and len(meta["fingerprint"]) == 64


def test_fingerprint_stable_across_builds():
    a = build_group("A3").fingerprint()
    b = build_group("A3").fingerprint()
    assert a == b
    assert a != build_group("B3").fingerprint()


# ---------------------------------------------------------------------------
# diagram automorphisms


@pytest.mark.parametrize("symbol, count", [
    ("I2(5)", 2), ("A3", 2), ("A4", 2), ("B3", 1), ("D4", 6), ("H3", 1),
    ("F4", 2),
])
def test_diagram_automorphisms_are_group_automorphisms(symbol, count):
    g = build_group(symbol)
    autos = g.diagram_automorphisms()
    assert len(autos) == count
    assert autos[0] == tuple(range(g.size))
    gens = [g.element_by_word((s,)) for s in range(g.datum.rank)]
    for perm in autos:
        assert sorted(perm) == list(range(g.size))
        sigma = [gens.index(perm[e]) for e in gens]
        m = g.datum.coxeter_matrix
        assert all(m[sigma[i]][sigma[j]] == m[i][j]
                   for i in range(g.datum.rank) for j in range(i))
        for w in range(g.size):
            assert g.length[perm[w]] == g.length[w]
            assert perm[g.inverse[w]] == g.inverse[perm[w]]
            for s, t in enumerate(sigma):
                assert perm[g.right[s][w]] == g.right[t][perm[w]]
                assert perm[g.left[s][w]] == g.left[t][perm[w]]
