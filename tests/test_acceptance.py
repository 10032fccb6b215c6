"""Acceptance battery: one test per advertised guarantee.

Each test prints a single summary line (visible with -s) and otherwise
relies on its assertions; run with -v to get one pass/fail line per
criterion from the runner itself.  Criterion 12 is the heavy stretch lane
and stays behind the "heavy" marker.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    RPolyOracle,
    balanced_dagger_rows,
    check_b_not_below_a,
    check_longest_twist,
    check_parity_bridge,
    check_phi_multiplicative,
    dihedral3_coinvariant_graded_characters,
    hecke_character,
    vp,
)

from coxcells.chartab import character_table
from coxcells.classify import classify_group_streamed
from coxcells.cli import main
from coxcells.coxeter import build_group
from coxcells.exactnum import LaurentPoly, cyclo_rational, is_palindromic
from coxcells.klbase import generator_rows
from coxcells.pipeline import (
    analysis,
    classification,
    classify_report,
    run_claims,
)

SYMBOLS = ("I2(3)", "I2(5)", "I2(7)", "A3", "B3", "H3")
SMALL = ("I2(3)", "I2(5)", "I2(7)", "A3", "B3")  # order <= 48


def _ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_01_h3_exceptional_profile():
    started = time.monotonic()
    group = build_group("H3")
    result = classification(group)
    reports = run_claims(result)
    elapsed = time.monotonic() - started
    exceptional = [r for r in result.irreps if r.exceptional]
    assert len(exceptional) == 2
    assert all(r.dim == 4 for r in exceptional)
    assert all(r.status == "pass" for r in reports)
    assert elapsed < 300.0
    _ok(f"criterion 1 (H3 profile 2x dim 4 in {elapsed:.1f}s)")


def test_criterion_02_palindromic_dichotomy(rig):
    for symbol in SYMBOLS:
        for rec in rig(symbol).result.irreps:
            palindromic = is_palindromic(rec.fake_degree) is not None
            assert palindromic == rec.ordinary, (symbol, rec.label)
    skew = [
        rec.label for rec in rig("H3").result.irreps
        if is_palindromic(rec.fake_degree) is None
    ]
    assert len(skew) == 2
    _ok("criterion 2 (palindromic iff ordinary; H3 has exactly 2 skew)")


def test_criterion_03_involution_parity(rig):
    r = rig("H3")
    exc_cells = {
        cid for cid, flag in r.result.cell_ordinary.items() if not flag
    }
    assert len(exc_cells) == 1
    cell = exc_cells.pop()
    by_left = {}
    for rec in r.result.involutions:
        if rec.cell == cell:
            by_left.setdefault(rec.left_cell, []).append(rec)
    assert len(by_left) == 4
    for members in by_left.values():
        flags = sorted(rec.ordinary for rec in members)
        assert flags == [False, True]
    for symbol in SYMBOLS:
        res = rig(symbol).result
        for rec in res.involutions:
            if res.cell_ordinary[rec.cell]:
                assert rec.ordinary, (symbol, rec.element)
    _ok("criterion 3 (involution parity per cell)")


def test_criterion_04_asymptotic_trace_nonvanishing(rig):
    for symbol in SYMBOLS:
        r = rig(symbol)
        inv = r.group.inverse
        lc = r.cells.left_cell_of
        for x in range(r.group.size):
            if lc[x] != lc[inv[x]]:
                continue
            assert any(rec.j_traces[x] for rec in r.result.irreps), (
                symbol, x,
            )
    _ok("criterion 4 (every x ~L x^-1 carries an asymptotic trace)")


def test_criterion_05_sign_twist_of_specials(rig):
    for symbol in SYMBOLS:
        r = rig(symbol)
        rec_by_row = {
            r.table.names.index(rec.label): rec for rec in r.result.irreps
        }
        for rec in r.result.irreps:
            if not rec.special:
                continue
            row = r.table.names.index(rec.label)
            partner = rec_by_row[r.table.tensor_sign_index(row)]
            if r.result.cell_ordinary[rec.cell]:
                assert partner.special, (symbol, rec.label)
            else:
                assert not partner.special, (symbol, rec.label)
    exc_specials = [
        rec for rec in rig("H3").result.irreps
        if rec.special and not rig("H3").result.cell_ordinary[rec.cell]
    ]
    assert len(exc_specials) == 1
    _ok("criterion 5 (sign twist preserves specials except H3 exception)")


def test_criterion_06_kl_oracle_equivalence(rig):
    for symbol in SMALL:
        r = rig(symbol)
        oracle = RPolyOracle(r.group)
        for y in range(r.group.size):
            for x in range(r.group.size):
                want = oracle.P(x, y)
                want_t = () if want.is_zero() else tuple(
                    want.coeff(e) for e in range(want.degree() + 1)
                )
                assert r.store.P(x, y) == want_t, (symbol, x, y)
    r = rig("H3")
    oracle = RPolyOracle(r.group)
    rng = random.Random(20260822)
    for _ in range(500):
        x = rng.randrange(r.group.size)
        y = rng.randrange(r.group.size)
        want = oracle.P(x, y)
        want_t = () if want.is_zero() else tuple(
            want.coeff(e) for e in range(want.degree() + 1)
        )
        assert r.store.P(x, y) == want_t, (x, y)
    a3 = rig("A3")
    x = a3.group.element_by_word((1,))
    y = a3.group.element_by_word((1, 0, 2, 1))
    assert a3.store.P(x, y) == (1, 1)
    _ok("criterion 6 (KL engine matches the R-inversion oracle)")


def test_criterion_07_structure_constants(rig):
    for symbol in SYMBOLS:
        r = rig(symbol)
        rows = r.htable.rows
        rng = random.Random(symbol)
        for _ in range(200):
            x, y, z = (
                rng.randrange(r.group.size),
                rng.randrange(r.group.size),
                rng.randrange(r.group.size),
            )
            lhs = {}
            for w, p in rows[(x, y)]:
                for t, q in rows[(w, z)]:
                    lhs[t] = vp.add(lhs.get(t, vp.ZERO), vp.mul(p, q))
            rhs = {}
            for w, p in rows[(y, z)]:
                for t, q in rows[(x, w)]:
                    rhs[t] = vp.add(rhs.get(t, vp.ZERO), vp.mul(p, q))
            assert (
                {t: p for t, p in lhs.items() if p[1]}
                == {t: p for t, p in rhs.items() if p[1]}
            ), (symbol, x, y, z)
        for block in rows.values():
            for _, p in block:
                assert vp.bar_symmetric(p)
        a = r.gamma.a
        for cell in r.cells.two_sided_cells:
            assert len({a[x] for x in cell}) == 1
        for x in range(r.group.size):
            left = {}
            right = {}
            for d in r.dset:
                for z, c in r.gamma.by_xy.get((d, x), ()):
                    left[z] = left.get(z, 0) + c
                for z, c in r.gamma.by_xy.get((x, d), ()):
                    right[z] = right.get(z, 0) + c
            unit = {x: 1}
            assert {z: c for z, c in left.items() if c} == unit
            assert {z: c for z, c in right.items() if c} == unit
    _ok("criterion 7 (associativity, bar symmetry, a-constancy, J-unit)")


def test_criterion_08_character_table_soundness(rig):
    for symbol in SYMBOLS:
        r = rig(symbol)
        table = r.table
        n = len(table.rows)
        assert sum(d * d for d in table.dims) == r.group.size
        for i in range(n):
            for k in range(i, n):
                got = table.inner_product(table.rows[i], table.rows[k])
                assert got == (1 if i == k else 0), (symbol, i, k)
        sizes = table.classes.sizes
        for ci in range(n):
            for ck in range(n):
                acc = cyclo_rational(table.conductor, 0)
                for i in range(n):
                    acc = acc + (
                        table.rows[i][ci] * table.rows[i][ck].conjugate()
                    )
                # columns pair to the centralizer order |W| / |class|
                want = 0 if ci != ck else Fraction(r.group.size, sizes[ci])
                assert acc == want, (symbol, ci, ck)
    assert sorted(rig("H3").table.dims) == [1, 1, 3, 3, 3, 3, 4, 4, 5, 5]
    _ok("criterion 8 (orthogonality, dim sum rule, H3 dim multiset)")


def test_criterion_09_coinvariant_sum_rule(rig):
    for symbol in SYMBOLS:
        r = rig(symbol)
        total = LaurentPoly.zero("X")
        for rec in r.result.irreps:
            total = total + rec.fake_degree * rec.dim
        assert total == r.group.poincare_polynomial(), symbol
    r = rig("I2(3)")
    oracle_group, graded = dihedral3_coinvariant_graded_characters()
    cof = r.table.classes.class_of
    for rec in r.result.irreps:
        row = r.table.names.index(rec.label)
        for degree, chars in enumerate(graded):
            mult = sum(
                (
                    r.table.rows[row][cof[w]]
                    if isinstance(r.table.rows[row][cof[w]], int)
                    else r.table.rows[row][cof[w]].as_fraction()
                ) * chars[w]
                for w in range(oracle_group.size)
            ) / oracle_group.size
            assert mult == rec.fake_degree.coeff(degree)
    _ok("criterion 9 (fake degree sum rule and coinvariant oracle)")


def test_criterion_10_phi_contract(rig):
    for symbol in SYMBOLS:
        r = rig(symbol)
        phi = r.phi
        assert phi.matrix[0] == {d: 1 for d in r.dset}
        check_phi_multiplicative(phi, r.gamma, pairs=200)
        assert len(phi.inverse) == r.group.size
        dag = balanced_dagger_rows(r.store)
        cof = r.table.classes.class_of
        for rec in r.result.irreps:
            row = r.table.names.index(rec.label)
            traces = hecke_character(
                r.store, r.htable, r.cells, r.dset, r.table, row,
                jt=rec.j_traces, dag_rows=dag,
            )
            for w in range(r.group.size):
                assert traces[w].at_one() == r.table.rows[row][cof[w]], (
                    symbol, rec.label, w,
                )
    _ok("criterion 10 (phi unit, multiplicative, invertible, v=1 traces)")


def test_criterion_11_determinism_and_cache(tmp_path, capsys):
    def one_pass(symbol):
        result = classification(build_group(symbol))
        return json.dumps(
            classify_report(result, run_claims(result)), indent=2
        )

    for symbol in ("I2(5)", "A3"):
        assert one_pass(symbol) == one_pass(symbol), symbol
    cache = str(tmp_path / "cache")
    args = ["classify", "--type", "B3", "--cache-dir", cache]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert cold == warm
    _ok("criterion 11 (byte-identical reruns and cold/warm cache)")


@pytest.mark.heavy
def test_criterion_12_f4_streamed_pipeline():
    started = time.monotonic()
    group = build_group("F4")
    jobs = min(4, os.cpu_count() or 1)
    store, htable, cells, gamma, dset = analysis(group, jobs=jobs)
    assert htable is None  # analysis never builds an all-pairs table
    table = character_table(group)
    result = classify_group_streamed(store, cells, gamma, dset, table,
                                     jobs=jobs)
    reports = run_claims(result)
    elapsed = time.monotonic() - started
    assert all(r.status == "pass" for r in reports)
    assert not any(rec.exceptional for rec in result.irreps)
    assert result.expected_profile is None
    assert result.profile_consistent
    check_parity_bridge(result)
    check_b_not_below_a(result)
    assert check_longest_twist(result) is False  # no exceptional cells
    a = gamma.a
    for cell in cells.two_sided_cells:
        assert len({a[x] for x in cell}) == 1
    for block in generator_rows(store).rows.values():
        for _, p in block:
            assert vp.bar_symmetric(p)
    assert elapsed < 7200.0
    _ok(f"criterion 12 (F4 streamed pipeline clean in {elapsed:.0f}s)")
