"""Transport, generic traces, fake degrees and the parity classification.

The worked small-group values here (dihedral asymptotic traces, generic
trace tables, graded coinvariant multiplicities) were checked by hand and
against the brute-force oracles; the bigger groups are pinned to frozen
runs of the same code path plus structural invariants that do not depend
on element numbering.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracles import (
    _signed_row,
    _transport_rows,
    balanced_dagger_rows,
    check_b_not_below_a,
    check_cell_modules_contain_special,
    check_longest_twist,
    check_parity_bridge,
    check_phi_multiplicative,
    class_sum_solve,
    detect_orientation,
    dihedral3_coinvariant_graded_characters,
    fake_degrees_common_denominator,
    hecke_character,
    left_cell_module,
    rational_solve,
    reflection_charpolys_by_matrices,
    reflection_charpolys_by_table,
    vp,
)

import coxcells.chartab as chartab_mod
import coxcells.classify as classify_mod
from coxcells.chartab import CharacterTable, character_table
from coxcells.classify import (
    _cell_solve,
    _class_quotients,
    _class_sums,
    _coordinate_columns,
    _solve_columns,
    _transport_blocks,
    _verify_traces,
    classify_group_streamed,
    expected_exceptional_profile,
    fake_degrees,
    verify_claim,
    word_name,
)
from coxcells.coxeter import build_group
from coxcells.errors import InternalInconsistencyError, UsageError
from coxcells.exactnum import LaurentPoly
from coxcells.klbase import _h_block, generator_rows
from coxcells.modp import residue_map
from coxcells.pipeline import analysis, classification, classify_report

DEFAULT_SYMBOLS = ("I2(3)", "I2(5)", "I2(7)", "A3", "B3", "H3")


def _row_of(table, label):
    return table.names.index(label)


def _as_fraction(value):
    if isinstance(value, int):
        return Fraction(value)
    return value.as_fraction()


# ---------------------------------------------------------------------------
# the transport isomorphism


def test_phi_identity_row_is_distinguished_sum(rig):
    for symbol in ("I2(3)", "A3"):
        r = rig(symbol)
        phi = r.phi
        assert phi.matrix[0] == {d: 1 for d in r.dset}


def test_phi_inverse_is_exact(rig):
    r = rig("I2(5)")
    phi = r.phi
    size = r.group.size
    for x in range(size):
        for z in range(size):
            acc = sum(
                Fraction(phi.matrix[x].get(w, 0)) * phi.inverse[w][z]
                for w in range(size)
            )
            assert acc == (1 if x == z else 0)


def test_phi_multiplicative_small_groups(rig):
    # raises InternalInconsistencyError on any failing pair
    for symbol in ("I2(3)", "A3"):
        r = rig(symbol)
        check_phi_multiplicative(r.phi, r.gamma, pairs=300)


# ---------------------------------------------------------------------------
# asymptotic traces


def test_two_dim_asymptotic_traces_dihedral3(rig):
    r = rig("I2(3)")
    two = _row_of(r.table, "phi2_0")
    jt = next(x.j_traces for x in r.result.irreps if x.label == "phi2_0")
    by_word = {word_name(r.group, w): jt[w] for w in range(r.group.size)}
    assert by_word["e"] == 0
    assert by_word["s1"] == 1
    assert by_word["s2"] == 1
    assert by_word["s1s2"] == 0
    assert by_word["s2s1"] == 0
    assert by_word["s1s2s1"] == 0
    assert r.table.dims[two] == 2


def test_unit_asymptotic_trace_equals_dimension(rig):
    for symbol in ("I2(7)", "B3"):
        r = rig(symbol)
        for rec in r.result.irreps:
            vals = [rec.j_traces[d] for d in r.dset]
            total = vals[0]
            for v in vals[1:]:
                total = total + v
            assert total == rec.dim


def test_asymptotic_support_fills_every_cell(rig):
    for symbol in ("A3", "B3"):
        r = rig(symbol)
        seen = {}
        for rec in r.result.irreps:
            support = {
                r.cells.two_sided_of[z]
                for z, v in enumerate(rec.j_traces)
                if v
            }
            assert support == {rec.cell}
            seen.setdefault(rec.cell, []).append(rec.label)
        assert sorted(seen) == list(range(len(r.cells.two_sided_cells)))


# ---------------------------------------------------------------------------
# generic traces


def test_dagger_rows_diagonal_signs(rig):
    r = rig("A3")
    rows = balanced_dagger_rows(r.store)
    for x, row in enumerate(rows):
        val, coeffs = row[x]
        assert val == 0
        assert coeffs == ((1,) if r.group.length[x] % 2 == 0 else (-1,))


def test_trivial_and_sign_generic_traces(rig):
    for symbol in ("I2(3)", "A3"):
        r = rig(symbol)
        triv = hecke_character(
            r.store, r.htable, r.cells, r.dset, r.table,
            0,
            jt=next(
                x.j_traces for x in r.result.irreps
                if x.label == r.table.names[0]
            ),
        )
        sgn = r.table.tensor_sign_index(0)
        sign = hecke_character(
            r.store, r.htable, r.cells, r.dset, r.table,
            sgn,
            jt=next(
                x.j_traces for x in r.result.irreps
                if x.label == r.table.names[sgn]
            ),
        )
        for w in range(r.group.size):
            l = r.group.length[w]
            assert triv[w] == LaurentPoly.monomial(2 * l, 1, "v")
            assert sign[w] == LaurentPoly.constant((-1) ** l, "v")


def test_dihedral5_generator_trace(rig):
    r = rig("I2(5)")
    expected = LaurentPoly({0: -1, 2: 1}, var="v")
    for rec in r.result.irreps:
        if rec.dim != 2:
            continue
        row = _row_of(r.table, rec.label)
        hc = hecke_character(
            r.store, r.htable, r.cells, r.dset, r.table, row,
            jt=rec.j_traces,
        )
        for w in range(r.group.size):
            if r.group.length[w] == 1:
                assert hc[w] == expected


def test_generic_traces_specialize_to_characters(rig):
    r = rig("A3")
    cof = r.table.classes.class_of
    for rec in r.result.irreps:
        row = _row_of(r.table, rec.label)
        hc = hecke_character(
            r.store, r.htable, r.cells, r.dset, r.table, row,
            jt=rec.j_traces,
        )
        for w in range(r.group.size):
            assert hc[w].at_one() == r.table.rows[row][cof[w]]


# ---------------------------------------------------------------------------
# fake degrees


def test_fake_degree_examples_dihedral3(rig):
    r = rig("I2(3)")
    by_label = {rec.label: rec.fake_degree for rec in r.result.irreps}
    triv = r.table.names[0]
    sgn = r.table.names[r.table.tensor_sign_index(0)]
    assert by_label[triv] == LaurentPoly.constant(1, "X")
    assert by_label[sgn] == LaurentPoly.monomial(3, 1, "X")
    assert by_label["phi2_0"] == LaurentPoly({1: 1, 2: 1}, var="X")


def test_fake_degrees_match_coinvariant_oracle(rig):
    r = rig("I2(3)")
    oracle_group, graded = dihedral3_coinvariant_graded_characters()
    assert oracle_group.fingerprint() == r.group.fingerprint()
    cof = r.table.classes.class_of
    order = r.group.size
    for rec in r.result.irreps:
        row = _row_of(r.table, rec.label)
        chi = [
            _as_fraction(r.table.rows[row][cof[w]]) for w in range(order)
        ]
        for degree in range(len(graded)):
            mult = (
                sum(chi[w] * graded[degree][w] for w in range(order)) / order
            )
            assert mult == rec.fake_degree.coeff(degree)
        assert rec.fake_degree.degree() < len(graded)


def test_fake_degree_sum_is_poincare(rig):
    for symbol in ("I2(7)", "A3", "B3"):
        r = rig(symbol)
        total = LaurentPoly.zero("X")
        for rec in r.result.irreps:
            total = total + rec.fake_degree * rec.dim
        assert total == r.group.poincare_polynomial()


def test_fake_degrees_match_common_denominator_oracle():
    for symbol in ("I2(5)", "A3", "B3", "D4", "H3"):
        group = build_group(symbol)
        table = character_table(group)
        assert fake_degrees(group, table) == fake_degrees_common_denominator(
            group, table
        ), symbol


def test_table_charpolys_match_matrix_oracle():
    # the mod-p class polynomials of the fake degrees are the images, under
    # the same zeta -> eta map, of those from the exact reflection matrices
    for symbol in ("I2(5)", "B3", "H3", "D4"):
        group = build_group(symbol)
        table = character_table(group)
        p, _, to_fp = residue_map(table.conductor, group.size)
        reduced = [
            [to_fp(poly.coeff(k)) if poly.coeff(k) else 0
             for k in range(group.datum.rank + 1)]
            for poly in reflection_charpolys_by_matrices(group, table)
        ]
        assert table.reflection_charpolys == reduced, symbol


def test_matrix_charpolys_match_newton_from_the_table_row():
    # det(1 - X w) by Hessenberg reduction of the reflection matrix mod p
    # against Newton's identities on the table's reflection row at the
    # classes of w^k: the table checked against the geometry, every class
    for symbol in ("I2(5)", "B3", "H3", "D4"):
        group = build_group(symbol)
        table = character_table(group)
        p, _, to_fp = residue_map(table.conductor, group.size)
        polys = table.reflection_charpolys
        assert len(polys) == len(table.classes)
        assert polys == reflection_charpolys_by_table(
            group, table, p, to_fp
        ), symbol


def test_reflection_matrices_walked_once_per_classification(monkeypatch):
    # the reflection row and the fake degrees read the same class
    # polynomials, built once with the table
    real = chartab_mod._reflection_charpolys
    walks = []

    def counting(group, elements):
        walks.append(len(elements))
        return real(group, elements)

    monkeypatch.setattr(chartab_mod, "_reflection_charpolys", counting)
    for symbol in ("I2(5)", "B3", "H3"):
        walks.clear()
        classification(build_group(symbol))
        assert len(walks) == 1, symbol


def test_class_quotient_rejects_a_non_divisor():
    # 1 + X^2 has no root mod 7, so it does not divide
    # (1 - X^2)(1 - X^3), whose roots mod 7 are 1, -1, 2 and 4
    p, _, _ = residue_map(1, 6)
    assert p == 7
    with pytest.raises(InternalInconsistencyError, match="inexact"):
        _class_quotients((2, 3), [[1, 0, 1]], p)


@pytest.mark.parametrize("sym", ["B3", "H3"])
def test_fake_degrees_reject_a_perturbed_table(sym):
    # one value of one row moved by 1 off the identity class: the mod-p
    # residues are then wrong, and fake_degrees must raise rather than
    # return them
    group = build_group(sym)
    table = character_table(group)
    rows = [list(row) for row in table.rows]
    rows[-1][1] = rows[-1][1] + 1
    bad = CharacterTable(group, table.classes, tuple(map(tuple, rows)),
                         table.dims, table.names, table.conductor)
    with pytest.raises(InternalInconsistencyError):
        fake_degrees(group, bad)


def test_b_value_is_fake_degree_valuation(rig):
    r = rig("B3")
    for rec in r.result.irreps:
        assert rec.b_value == rec.fake_degree.valuation()
        assert rec.a_value <= rec.b_value
        assert rec.special == (rec.a_value == rec.b_value)


def test_dihedral5_special_is_reflection_row(rig):
    r = rig("I2(5)")
    two_dim = [rec for rec in r.result.irreps if rec.dim == 2]
    assert sorted(rec.b_value for rec in two_dim) == [1, 2]
    for rec in two_dim:
        assert rec.special == (rec.b_value == 1)
        assert rec.a_value == 1


# ---------------------------------------------------------------------------
# left cell modules


def test_left_cell_modules_dihedral3(rig):
    r = rig("I2(3)")
    two = _row_of(r.table, "phi2_0")
    modules = [
        left_cell_module(r.htable, r.cells, r.table, cid,
                         r.result.orientation)
        for cid in range(len(r.cells.left_cells))
    ]
    for cid, cell in enumerate(r.cells.left_cells):
        if cell == (0,):
            assert modules[cid] == {0: 1}
        elif len(cell) == 1:
            assert modules[cid] == {r.table.tensor_sign_index(0): 1}
        else:
            assert modules[cid] == {two: 1}


def test_exceptional_cell_modules_h3(rig):
    r = rig("H3")
    four = [i for i, d in enumerate(r.table.dims) if d == 4]
    exc_cells = {rec.cell for rec in r.result.irreps if rec.exceptional}
    assert len(exc_cells) == 1
    cell = exc_cells.pop()
    left_ids = sorted({
        r.cells.left_cell_of[z]
        for z, c in enumerate(r.cells.two_sided_of)
        if c == cell
    })
    assert len(left_ids) == 4
    for cid in left_ids:
        module = left_cell_module(
            r.htable, r.cells, r.table, cid, r.result.orientation
        )
        assert module == {four[0]: 1, four[1]: 1}


def test_orientation_detected_standard(rig):
    for symbol in DEFAULT_SYMBOLS:
        r = rig(symbol)
        gen = generator_rows(r.store)
        assert detect_orientation(gen, r.cells, r.table) == "standard"
        assert r.result.orientation == "standard"


# ---------------------------------------------------------------------------
# the classification


def test_h3_frozen_classification(rig):
    r = rig("H3")
    got = {
        rec.label: (rec.dim, rec.a_value, rec.b_value, rec.ordinary,
                    rec.special)
        for rec in r.result.irreps
    }
    assert got == {
        "phi1_0": (1, 0, 0, True, True),
        "phi1_1": (1, 15, 15, True, True),
        "phi3_0": (3, 1, 3, True, False),
        "phi3_1": (3, 1, 1, True, True),
        "phi3_2": (3, 6, 8, True, False),
        "phi3_3": (3, 6, 6, True, True),
        "phi4_0": (4, 3, 3, False, True),
        "phi4_1": (4, 3, 4, False, False),
        "phi5_0": (5, 2, 2, True, True),
        "phi5_1": (5, 5, 5, True, True),
    }


def test_everything_ordinary_outside_h3(rig):
    for symbol in ("I2(3)", "I2(5)", "I2(7)", "A3", "B3"):
        r = rig(symbol)
        assert all(rec.ordinary for rec in r.result.irreps)
        assert all(rec.ordinary for rec in r.result.involutions)
        assert all(r.result.cell_ordinary.values())


def test_one_special_per_cell(rig):
    for symbol in DEFAULT_SYMBOLS:
        r = rig(symbol)
        specials = {}
        for rec in r.result.irreps:
            if rec.special:
                specials.setdefault(rec.cell, []).append(rec.label)
        assert all(len(v) == 1 for v in specials.values())
        assert sorted(specials) == list(
            range(len(r.cells.two_sided_cells))
        )


def test_distinguished_involutions_are_ordinary(rig):
    for symbol in DEFAULT_SYMBOLS:
        r = rig(symbol)
        by_element = {rec.element: rec for rec in r.result.involutions}
        for d in r.dset:
            assert by_element[d].ordinary


def test_h3_exceptional_involutions(rig):
    r = rig("H3")
    exc_cell = {rec.cell for rec in r.result.irreps if rec.exceptional}.pop()
    strange = [rec for rec in r.result.involutions if not rec.ordinary]
    assert len(strange) == 4
    assert all(rec.cell == exc_cell for rec in strange)
    assert all((rec.length - rec.a_value) % 2 == 1 for rec in strange)


def test_expected_profiles(rig):
    # the function only reads the type symbol and the order, so the types
    # over the build cap get a stand-in datum
    def datum(sym, order):
        return SimpleNamespace(type_symbol=sym, order=order)

    assert expected_exceptional_profile(rig("H3").group.datum) == (2, 4)
    assert expected_exceptional_profile(datum("H4", 14400)) == (4, 16)
    assert expected_exceptional_profile(datum("E7", 2903040)) == (2, 512)
    assert expected_exceptional_profile(datum("E8", 696729600)) == (4, 4096)
    assert expected_exceptional_profile(rig("B3").group.datum) is None
    assert rig("H3").result.profile_consistent
    assert rig("B3").result.profile_consistent


# ---------------------------------------------------------------------------
# claims and cross-checks


def test_all_claims_pass_on_default_groups(rig):
    for symbol in DEFAULT_SYMBOLS:
        r = rig(symbol)
        for report in r.claims:
            assert report.status == "pass", (symbol, report.claim_id)


def test_claim_witnesses_h3(rig):
    r = rig("H3")
    by_id = {report.claim_id: report for report in r.claims}
    assert by_id["1.2b"].witness["elements_checked"] == 32
    assert by_id["1.3a"].witness["elements_checked"] == 24
    assert sorted(by_id["1.5a"].witness["non_palindromic"]) == [
        "phi4_0", "phi4_1",
    ]


def test_unknown_claim_rejected(rig):
    with pytest.raises(UsageError):
        verify_claim("9.9z", rig("I2(3)").result)


def test_property_checks(rig):
    for symbol in DEFAULT_SYMBOLS:
        r = rig(symbol)
        check_parity_bridge(r.result)
        check_b_not_below_a(r.result)
        check_cell_modules_contain_special(r.result, r.htable)
    assert check_longest_twist(rig("H3").result) is True
    assert check_longest_twist(rig("B3").result) is False


# ---------------------------------------------------------------------------
# the streamed lane against the direct-lane oracle


def test_streamed_lane_matches_direct(rig):
    for symbol in ("A3", "B3", "H3"):
        r = rig(symbol)
        direct = r.oracle
        assert r.result.irreps == direct.irreps
        assert r.result.involutions == direct.involutions
        assert r.result.cell_ordinary == direct.cell_ordinary
        assert r.result.orientation == direct.orientation


def _transport_system(r):
    """(trans, sums, columns) of the streamed lane: the transport matrix
    built from the oracle's all-pairs table, the class sums S[x][C] and
    the coordinate columns."""
    trans = _transport_rows(r.htable, r.cells, r.dset)
    return trans, _class_sums(r.store, r.table), _coordinate_columns(r.table)


def _solve(r, trans, sums, columns):
    """(rhs_cols, sols) of `_solve_columns`, without the column cells."""
    return _solve_columns(trans, r.cells, r.gamma.a, sums, columns)[:2]


@pytest.mark.parametrize("symbol", ["A3", "B3", "H3", "B4"])
def test_class_sums_add_up_the_signed_rows(rig, symbol):
    r = rig(symbol)
    cof = r.table.classes.class_of
    want = [[0] * len(r.table.classes.representatives)
            for _ in range(r.group.size)]
    for x, row in enumerate(want):
        for u, c in _signed_row(r.store, x).items():
            row[cof[u]] += c
    assert _class_sums(r.store, r.table) == want


def test_integer_trace_check_rejects_a_perturbed_entry(rig):
    r = rig("H3")
    trans, sums, columns = _transport_system(r)
    rhs_cols, sols = _solve(r, trans, sums, columns)
    assert _verify_traces(trans, rhs_cols, sols)
    sols[0][1][0] += 1
    assert not _verify_traces(trans, rhs_cols, sols)


def test_transport_blocks_check_the_right_cell_shape(rig):
    r = rig("H3")
    a = r.gamma.a
    trans, _, _ = _transport_system(r)
    assert _transport_blocks(trans, r.cells, a) == r.cells.right_cells
    x = r.group.size - 1
    z = next(z for z in range(r.group.size) if a[z] < a[x])
    trans[x][z] = 1
    with pytest.raises(InternalInconsistencyError, match="right-cell"):
        _transport_blocks(trans, r.cells, a)


def test_block_solve_matches_rational_inverse(rig):
    # each right cell against the exact inverse of its diagonal block, on
    # its class sums and two random integer columns, whose solutions are
    # not integral, so they need a denominator; then the assembled
    # character columns against the inverse of the whole matrix
    for symbol in ("A3", "B3", "H3"):
        r = rig(symbol)
        trans, sums, columns = _transport_system(r)
        rng = random.Random(symbol)
        rand_dens = []
        for block in _transport_blocks(trans, r.cells, r.gamma.a):
            at = {z: i for i, z in enumerate(block)}
            sub = [{at[z]: c for z, c in trans[x].items() if z in at}
                   for x in block]
            rhs_rows = [sums[x] + [rng.randint(-3, 3), rng.randint(-3, 3)]
                        for x in block]
            det, rows = _cell_solve(trans, block, rhs_rows)
            want = rational_solve(sub, [list(c) for c in zip(*rhs_rows)])
            assert [[Fraction(q, det) for q in c] for c in zip(*rows)] == [
                [Fraction(q, den) for q in ints] for den, ints in want
            ], symbol
            rand_dens += [den for den, _ in want[-2:]]
        assert max(rand_dens) > 1, symbol
        rhs_cols, sols = _solve(r, trans, sums, columns)
        assert sols == rational_solve(trans, rhs_cols), symbol


def test_column_on_two_cells_fails_the_exact_check(rig):
    # the sum of two irreducibles' columns on different two-sided cells
    # solves to one of its parts only: the support read off the
    # right-hand side is caught by the exact check, not trusted; D4 has
    # three two-sided cells of a = 2 and three of a = 6
    ties = 0
    for symbol in ("D4", "H3"):
        r = rig(symbol)
        trans, sums, columns = _transport_system(r)
        cell = [rec.cell for rec in r.result.irreps]
        a_of = [rec.a_value for rec in r.result.irreps]
        first = {}
        for i, _, vals in columns:
            first.setdefault(i, vals)
        pairs = [(i, j) for i in first for j in first
                 if i < j and cell[i] != cell[j]]
        ties += sum(a_of[i] == a_of[j] for i, j in pairs)
        for i, j in pairs:
            mixed = [(i, 0, [u + v for u, v in zip(first[i], first[j])])]
            with pytest.raises(InternalInconsistencyError, match="exact"):
                _solve(r, trans, sums, mixed)
    assert ties


def _streamed_system(store, cells, dset, table):
    """(trans, sums, columns) as `classify_group_streamed` builds them:
    the transport rows from one width-0 recursion seeded with every d."""
    trans = _h_block(store.block_kit(), sorted(dset),
                     cell=cells.left_cell_of, bits=0)
    return trans, _class_sums(store, table), _coordinate_columns(table)


def _own_cell_solve(monkeypatch, trans, cells, a, sums, columns):
    """`_solve_columns` with every `_cell_solve` call recorded as (the
    block's two-sided cell, rhs width), checked against the class-sum
    route of the oracle."""
    real = classify_mod._cell_solve
    widths = []

    def recorder(trans, block, rhs_rows):
        widths.append((cells.two_sided_of[block[0]], len(rhs_rows[0])))
        return real(trans, block, rhs_rows)

    monkeypatch.setattr(classify_mod, "_cell_solve", recorder)
    got = _solve_columns(trans, cells, a, sums, columns)
    monkeypatch.undo()
    assert got == class_sum_solve(trans, cells, a, sums, columns)
    return got, widths


def test_right_cells_solved_on_own_cell_columns(rig, monkeypatch):
    # each of B4's right cells is solved once, on the columns of its own
    # two-sided cell, fewer than its k classes; a cell holding k columns
    # or more keeps the k class sums; both routes give the parent's
    # (rhs_cols, sols, col_cells)
    r = rig("B4")
    a = r.gamma.a
    trans, sums, columns = _streamed_system(r.store, r.cells, r.dset,
                                            r.table)
    k = len(sums[0])
    (_, _, col_cells), widths = _own_cell_solve(
        monkeypatch, trans, r.cells, a, sums, columns)
    assert len(widths) == len(r.cells.right_cells)
    per_cell = {c: col_cells.count(c) for c in col_cells}
    assert [w for _, w in widths] == [per_cell[c] for c, _ in widths]
    assert max(per_cell.values()) < k
    big = col_cells.index(max(per_cell, key=per_cell.get))
    crowded = columns + [columns[big]] * k
    (_, _, col_cells), widths = _own_cell_solve(
        monkeypatch, trans, r.cells, a, sums, crowded)
    assert {w for c, w in widths if c == col_cells[big]} == {k}
    assert all(w < k for c, w in widths if c != col_cells[big])


@pytest.mark.heavy
@pytest.mark.parametrize("symbol", ["F4", "D5"])
def test_own_cell_solve_matches_class_sums_heavy(monkeypatch, symbol):
    group = build_group(symbol)
    store, _, cells, gamma, dset = analysis(group)
    table = character_table(group)
    trans, sums, columns = _streamed_system(store, cells, dset, table)
    _, widths = _own_cell_solve(monkeypatch, trans, cells, gamma.a, sums,
                                columns)
    assert all(w < len(sums[0]) for _, w in widths)


# SHA-256 of the JSON (den, ints) columns that the transport solve of
# `classify_group_streamed` returned, recorded from the modular solve with
# rational reconstruction that the exact block solve replaced
SOLVE_SHA256 = {
    "A3": "bb9670f3c170850501678c46ea222d97ab04fd1643e39a33857e063d24c7cf2d",
    "B3": "2547a2c9a04e7eb5728b523b782e93ddbebe1b0b8e63f6c2e6c61b6e2fcd740d",
    "H3": "79858853374b7e1fdbcba46c5731e2791808f331cd55760bca7a6fa75217a95d",
    "B4": "0e44a1be01fbbc3e44d6ae4c09c470057bf0337a541335b60b42c5269d6abf37",
}


def test_block_solve_pinned(rig, monkeypatch):
    real = classify_mod._solve_columns
    got = []

    def recorder(*args):
        out = real(*args)
        got.append(out[1])
        return out

    monkeypatch.setattr(classify_mod, "_solve_columns", recorder)
    for symbol, want in SOLVE_SHA256.items():
        r = rig(symbol)
        classify_group_streamed(r.store, r.cells, r.gamma, r.dset, r.table)
        text = json.dumps(got.pop())
        assert hashlib.sha256(text.encode()).hexdigest() == want, symbol


def test_block_solve_scales_exactly_and_rejects_a_singular_block(rig):
    r = rig("H3")
    trans, sums, _ = _transport_system(r)
    block = next(b for b in _transport_blocks(trans, r.cells, r.gamma.a)
                 if len(b) > 1)
    rhs_rows = [sums[x] for x in block]
    det, rows = _cell_solve(trans, block, rhs_rows)
    big = 1 << 20
    assert _cell_solve(
        trans, block, [[big * v for v in rhs] for rhs in rhs_rows]
    ) == (det, [[big * q for q in row] for row in rows])
    # one equation times -1 flips the sign of its block's determinant
    x = block[0]
    flipped = list(trans)
    flipped[x] = {z: -c for z, c in trans[x].items()}
    flipped_rhs = [[-v for v in rhs_rows[0]]] + rhs_rows[1:]
    assert _cell_solve(flipped, block, flipped_rhs) == (
        -det, [[-q for q in row] for row in rows]
    )
    trans[x] = {z: c for z, c in trans[x].items() if z not in block}
    with pytest.raises(InternalInconsistencyError, match="singular"):
        _cell_solve(trans, block, rhs_rows)


def _parity_blocks(r):
    """The blocks d whose left cell holds a z with l(d) + l(z) odd and a
    nonzero asymptotic trace."""
    lc = r.cells.left_cell_of
    length = r.group.length
    return sorted(
        d for d in r.dset
        if any((length[d] + length[z]) % 2
               and any(rec.j_traces[z] for rec in r.result.irreps)
               for z in r.cells.left_cells[lc[d]])
    )


def _record_streams(monkeypatch, transform=None):
    """Every h recursion of the classification as (ys, bits);
    transform(ys, bits) may drop blocks from a call."""
    real = classify_mod._h_block
    calls = []

    def recorder(kit, ys, *args, **kw):
        calls.append((list(ys), kw.get("bits")))
        if transform is not None:
            ys = transform(list(ys), kw.get("bits"))
        return real(kit, ys, *args, **kw)

    monkeypatch.setattr(classify_mod, "_h_block", recorder)
    return calls


def test_distinguished_blocks_streamed_once(rig, monkeypatch):
    # one width-0 pass over every distinguished block, then one packed
    # pass over the blocks that can break parity: H3's 4, none on B3
    for symbol, packed in (("H3", 4), ("B3", 0)):
        r = rig(symbol)
        calls = _record_streams(monkeypatch)
        got = classify_group_streamed(r.store, r.cells, r.gamma, r.dset,
                                      r.table)
        monkeypatch.undo()
        want = [(sorted(r.dset), 0)]
        if packed:
            want.append((_parity_blocks(r), None))
        assert calls == want, symbol
        assert len(_parity_blocks(r)) == packed, symbol
        assert got.irreps == r.result.irreps
        assert got.involutions == r.result.involutions
        assert got.cell_ordinary == r.result.cell_ordinary


def test_exceptional_pair_comes_from_the_packed_pass(rig, monkeypatch):
    # H3's two exceptional irreducibles are flagged from the 4 blocks of
    # the packed pass: each block alone carries the odd part of both, and
    # without all four every irreducible reads as ordinary
    r = rig("H3")
    flags = [rec.ordinary for rec in r.result.irreps]
    assert [rec.dim for rec in r.result.irreps
            if not rec.ordinary] == [4, 4]
    blocks = _parity_blocks(r)
    assert len(blocks) == 4
    everything_ordinary = [True] * len(flags)
    for keep, want in [([d], flags) for d in blocks] + [
            ([], everything_ordinary)]:
        calls = _record_streams(
            monkeypatch, lambda ys, bits: ys if bits == 0 else keep)
        got = classify_group_streamed(r.store, r.cells, r.gamma, r.dset,
                                      r.table)
        monkeypatch.undo()
        assert calls[-1] == (blocks, None)
        assert [rec.ordinary for rec in got.irreps] == want, keep


def test_unit_trace_check_rejects_a_wrong_column(rig, monkeypatch):
    # the trivial character's solved column moved off the distinguished
    # involutions, after the exact check: sum_d tr(t_d) is no longer 1
    r = rig("B3")
    real = classify_mod._solve_columns

    def moved(*args):
        rhs_cols, sols, col_cells = real(*args)
        den, ints = sols[0]
        d = min(r.dset)
        ints = list(ints)
        ints[d] += den
        return rhs_cols, [(den, ints)] + sols[1:], col_cells

    monkeypatch.setattr(classify_mod, "_solve_columns", moved)
    with pytest.raises(InternalInconsistencyError, match="unit trace"):
        classify_group_streamed(r.store, r.cells, r.gamma, r.dset, r.table)


def test_irreducible_cells_come_from_the_solve(rig, monkeypatch):
    # the cell each column was solved on is the irreducible's record cell,
    # the one the oracle lane reads off the asymptotic traces; a column of
    # an irreducible with two coordinates moved to another cell raises
    r = rig("H3")
    real = classify_mod._solve_columns
    seen = []

    def recorder(*args):
        out = real(*args)
        seen.append(out[2])
        return out

    monkeypatch.setattr(classify_mod, "_solve_columns", recorder)
    got = classify_group_streamed(r.store, r.cells, r.gamma, r.dset, r.table)
    columns = _coordinate_columns(r.table)
    for (i, _, _), cell in zip(columns, seen.pop()):
        assert cell == got.irreps[i].cell == r.oracle.irreps[i].cell
    i = next(i for i, _, _ in columns
             if sum(j == i for j, _, _ in columns) > 1)
    last = max(t for t, (j, _, _) in enumerate(columns) if j == i)

    def moved(*args):
        rhs_cols, sols, col_cells = real(*args)
        col_cells = list(col_cells)
        col_cells[last] = next(c for c in range(len(r.cells.two_sided_cells))
                               if c != col_cells[last])
        return rhs_cols, sols, col_cells

    monkeypatch.setattr(classify_mod, "_solve_columns", moved)
    with pytest.raises(InternalInconsistencyError, match="two-sided cells"):
        classify_group_streamed(r.store, r.cells, r.gamma, r.dset, r.table)


@pytest.mark.parametrize("symbol", ["A3", "B3", "H3", "B4", "I2(5)"])
def test_distinguished_blocks_obey_the_parity_lemma(rig, symbol):
    # every exponent of h_{x,d,z} is l(x) + l(d) + l(z) mod 2, and the
    # width-0 block holds the decoded entries' values at v = 1
    r = rig(symbol)
    kit = r.store.block_kit()
    length = r.group.length
    cell = r.cells.left_cell_of
    seen = []
    for d in sorted(r.dset):
        at_one = []
        for x, row in enumerate(_h_block(kit, (d,), cell=cell)):
            for z, p in row.items():
                val, coeffs = kit.unpack(p)
                par = length[x] + length[d] + length[z]
                assert all((val + t - par) % 2 == 0
                           for t, c in enumerate(coeffs) if c), (x, d, z)
                seen.append(par % 2)
            at_one.append({z: h1 for z, p in row.items()
                           if (h1 := vp.at_one(kit.unpack(p)))})
        assert _h_block(kit, (d,), cell=cell, bits=0) == at_one, d
    assert 0 in seen and 1 in seen


def test_over_wide_digit_in_the_parity_pass_raises(rig, monkeypatch):
    # every entry of H3's packed parity pass forged to 2^(bits - 2), one
    # past what a slot holds: the decode of a kept entry raises
    r = rig("H3")
    kit = r.store.block_kit()
    forged = (1 << kit.bits - 2) << kit.bits * kit.off
    real = classify_mod._h_block

    def forging(kit, ys, *args, **kw):
        block = real(kit, ys, *args, **kw)
        if kw.get("bits") is None:
            return [{z: forged for z in row} for row in block]
        return block

    monkeypatch.setattr(classify_mod, "_h_block", forging)
    with pytest.raises(InternalInconsistencyError, match="overflows"):
        classify_group_streamed(r.store, r.cells, r.gamma, r.dset, r.table)


# SHA-256 of `coxcells classify --type G` stdout (the JSON report with a
# trailing newline), recorded before the direct lane left the program;
# I2(8), A4, D4 and B4 (the last with --heavy) recorded before the h blocks
# were cut to left cells and the transport solve to one prime; I2(60), the
# widest elimination (two right cells of 59 elements, 257 coordinate
# columns), recorded before the modular solve became an exact one
REPORT_SHA256 = {
    "I2(3)": "545fbeeee940a5f2f9fb494fb8648ee47ff7ff61f0884cf5e353aa30b2fb0c6f",
    "I2(5)": "2559ccb9f5d70cfdd7eed93ed364ac6c962896da509724a1e4629b40048b0124",
    "I2(7)": "1c6b564c64939f0d07518c08229a6d53991860718015ba05619fa8f34f105744",
    "A3": "26ce448a371a227fdcc92b75e3a71552ae69000318a6a745d8539828f94f603d",
    "B3": "13f1865b3433a428d7dc36cd14d1e0f5974f4b2930047dd80c4f2379d70c5537",
    "H3": "d77fbab7a999dfed2746148f05fa6a77ae387b5a665991c2637dff2e8928b1fe",
    "I2(8)": "b267c339f3c5f696b1b08f77af175fe2010fe5da55da7e30a173230d02d76544",
    "A4": "fd15f959eee0fc56ac8c44525d8f1ef26e378d88e9908c832bcc98b97d219b99",
    "D4": "be916756bb3a6f7247e17badfa07dd4b7f9f3657f58dcc69943385023da9ad73",
    "B4": "65c5767033e137994de6476235a6f16ec554ace3856294252864a587947e3e60",
    "I2(60)": "af3b4026503dde28434fb2dd784f730354fab82884256f98ea446299d6010053",
}


def test_classify_reports_pinned(rig):
    for symbol, want in REPORT_SHA256.items():
        r = rig(symbol)
        text = json.dumps(classify_report(r.result, r.claims), indent=2)
        got = hashlib.sha256((text + "\n").encode()).hexdigest()
        assert got == want, symbol


def _cli_digest(*argv, prelude=""):
    """SHA-256 of the stdout of `coxcells argv`, run without a cache in a
    fresh interpreter after the statements in prelude."""
    code = ("import sys; " + prelude
            + "from coxcells.cli import main; sys.exit(main())")
    src = os.path.dirname(os.path.dirname(classify_mod.__file__))
    env = {k: v for k, v in os.environ.items() if k != "COXCELLS_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, env=env, timeout=600,
    )
    assert run.returncode == 0, run.stderr.decode()
    return hashlib.sha256(run.stdout).hexdigest()


def test_classify_needs_no_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    got = _cli_digest("classify", "--type", "H3",
                      prelude="sys.modules['numpy'] = None; ")
    assert got == REPORT_SHA256["H3"]


# SHA-256 of `coxcells classify --type G --heavy` stdout, recorded before
# the transport was solved once per right cell on the class columns;
# I2(100) has 1205 coordinate columns on 53 classes
HEAVY_REPORT_SHA256 = {
    "F4": "a7ee212c1e7e9f18be6776322e49145ca714c032b909a89ffd833fb937c7ba89",
    "D5": "b0f5b9f7445d6df3d45b3427f6e2c01eb857bc857fbbafad7ef8b6a6879d5baf",
    "I2(100)": "f40c820970d5a0aa01a0cbc79e76a4292f50d2880609d0009c1f61ff93ed2e4d",
}


@pytest.mark.heavy
@pytest.mark.parametrize("symbol", sorted(HEAVY_REPORT_SHA256))
def test_heavy_classify_reports_pinned(symbol):
    got = _cli_digest("classify", "--type", symbol, "--heavy")
    assert got == HEAVY_REPORT_SHA256[symbol]
