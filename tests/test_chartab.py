"""Character table construction against independent oracles and frozen facts."""

import random
from fractions import Fraction
from math import gcd

import pytest

import coxcells.chartab as chartab_mod
from coxcells.chartab import (
    CharacterTable,
    _charpoly,
    _Retry,
    _validate,
    character_table,
)
from coxcells.coxeter import build_group
from coxcells.errors import InternalInconsistencyError
from coxcells.exactnum import CycloNumber, cyclo_rational
from coxcells.modp import _pmod, _pmul, pdiv, psub, residue_map

from oracles import (
    charpoly_by_power_traces,
    dihedral_character_table,
    multiplicity,
    root_of_unity,
)


def _cyclo_row(group, row):
    M = group.datum.conductor
    return tuple(
        v if not isinstance(v, int) else cyclo_rational(M, v) for v in row
    )


@pytest.mark.parametrize("sym", ["I2(3)", "I2(5)", "I2(6)", "I2(7)"])
def test_dihedral_tables_match_textbook_oracle(sym):
    g = build_group(sym)
    tab = character_table(g)
    want = {(d, _cyclo_row(g, row)) for d, row in dihedral_character_table(g)}
    got = {(d, row) for d, row in zip(tab.dims, tab.rows)}
    assert got == want


def test_frozen_dimension_multisets():
    for sym, dims in [
        ("I2(3)", (1, 1, 2)),
        ("I2(5)", (1, 1, 2, 2)),
        ("A3", (1, 1, 2, 3, 3)),
        ("B3", (1, 1, 1, 1, 2, 2, 3, 3, 3, 3)),
        ("H3", (1, 1, 3, 3, 3, 3, 4, 4, 5, 5)),
    ]:
        g = build_group(sym)
        tab = character_table(g)
        assert tab.dims == dims, sym
        assert sum(d * d for d in tab.dims) == g.size
        assert len(set(tab.names)) == len(tab.names)


def test_trivial_row_first_and_named():
    tab = character_table(build_group("B3"))
    assert all(v == 1 for v in tab.rows[0])
    assert tab.names[0] == "phi1_0"
    # sign row takes (-1)^length on every class
    sign = tab.rows[tab.tensor_sign_index(0)]
    for v, z in zip(sign, tab.classes.representatives):
        assert v == (-1 if tab.group.length[z] % 2 else 1)


def test_golden_ratio_in_pentagon_table():
    g = build_group("I2(5)")
    tab = character_table(g)
    hits = 0
    for d, row in zip(tab.dims, tab.rows):
        if d != 2:
            continue
        for v in row:
            if not v.is_rational() and v * v + v - 1 == 0:
                hits += 1  # value is 2cos(2pi/5) or 2cos(4pi/5)
    assert hits > 0


def test_inner_product_basics():
    tab = character_table(build_group("B3"))
    triv = tab.rows[0]
    sgn = tab.rows[tab.tensor_sign_index(0)]
    assert tab.inner_product(triv, triv) == 1
    assert tab.inner_product(triv, sgn) == 0
    for i, row in enumerate(tab.rows):
        for j, other in enumerate(tab.rows):
            assert tab.inner_product(row, other) == (1 if i == j else 0)


def test_regular_character_decomposes_by_dimension():
    g = build_group("I2(5)")
    tab = character_table(g)
    M = tab.conductor
    reg = tuple(
        cyclo_rational(M, g.size if j == 0 else 0)
        for j in range(len(tab.classes))
    )
    for i, d in enumerate(tab.dims):
        assert multiplicity(tab, reg, i) == d


def test_crystallographic_values_are_integers():
    for sym in ("A3", "B3", "I2(6)"):
        tab = character_table(build_group(sym))
        for row in tab.rows:
            for v in row:
                assert v.is_rational() and v.is_integer(), sym


def test_conjugation_permutation_character_nonnegative():
    for sym in ("I2(5)", "B3"):
        g = build_group(sym)
        tab = character_table(g)
        M = tab.conductor
        pi = tuple(
            cyclo_rational(M, g.size // n) for n in tab.classes.sizes
        )
        mults = [multiplicity(tab, pi, i) for i in range(len(tab))]
        assert all(m >= 0 for m in mults)
        # the multiplicities reconstruct the permutation character
        for j in range(len(tab.classes)):
            acc = cyclo_rational(M, 0)
            for m, row in zip(mults, tab.rows):
                acc = acc + m * row[j]
            assert acc == pi[j]


def test_tensor_sign_closure():
    g = build_group("I2(3)")
    tab = character_table(g)
    # trivial, sign, then the reflection representation
    assert list(tab.dims) == [1, 1, 2]
    assert tab.tensor_sign_index(1) == 0
    assert tab.tensor_sign_index(0) == 1
    two = tab.dims.index(2)
    assert tab.tensor_sign_index(two) == two

    b3 = character_table(build_group("B3"))
    perm = [b3.tensor_sign_index(i) for i in range(len(b3))]
    assert sorted(perm) == list(range(len(b3)))
    for i, j in enumerate(perm):
        assert perm[j] == i and b3.dims[i] == b3.dims[j]


def test_reflection_row_identified_by_matrix_traces():
    for sym, rank in (("A3", 3), ("B3", 3), ("H3", 3)):
        g = build_group(sym)
        tab = character_table(g)
        idx = tab._locate_reflection()
        assert tab.dims[idx] == rank
        gen_class = tab.classes.class_of[1]
        assert tab.rows[idx][gen_class] == rank - 2
    # on H3 the (dim, generator-value) heuristic alone is ambiguous:
    # two 3-dim rows take the value 1 on the reflection class
    h3 = character_table(build_group("H3"))
    gen_class = h3.classes.class_of[1]
    cands = [
        i
        for i, (d, row) in enumerate(zip(h3.dims, h3.rows))
        if d == 3 and row[gen_class] == 1
    ]
    assert len(cands) == 2 and h3._locate_reflection() in cands


@pytest.mark.parametrize("sym", ["B3", "H3"])
def test_reflection_row_lookup_needs_exactly_one_match(sym):
    # the table rebuilt without its reflection row, then with it twice
    g = build_group(sym)
    tab = character_table(g)
    r = tab._locate_reflection()
    without = [i for i in range(len(tab)) if i != r]
    for picks, count in ((without, 0), (list(range(len(tab))) + [r], 2)):
        with pytest.raises(InternalInconsistencyError,
                           match=f"{count} rows match"):
            CharacterTable(
                g, tab.classes,
                tuple(tab.rows[i] for i in picks),
                tuple(tab.dims[i] for i in picks),
                tuple(tab.names[i] for i in picks),
                tab.conductor,
            )


def test_find_row_rejects_non_rows():
    tab = character_table(build_group("I2(3)"))
    M = tab.conductor
    bogus = tuple(cyclo_rational(M, 7) for _ in range(len(tab.classes)))
    with pytest.raises(InternalInconsistencyError):
        tab.find_row(bogus)


def test_table_is_deterministic():
    a = character_table(build_group("I2(5)"))
    b = character_table(build_group("I2(5)"))
    assert a.names == b.names and a.dims == b.dims
    assert [[v.render() for v in row] for row in a.rows] == [
        [v.render() for v in row] for row in b.rows
    ]


def test_multiplicity_rejects_fractional():
    tab = character_table(build_group("I2(3)"))
    M = tab.conductor
    half = tuple(cyclo_rational(M, Fraction(1, 2)) for _ in range(len(tab.classes)))
    with pytest.raises(InternalInconsistencyError):
        multiplicity(tab, half, 0)


def test_pdiv_remainder_below_divisor_degree():
    # x^3 = x (x^2 + 1) - x over F_7: the remainder falls below deg b
    # after one step and must stop there
    assert pdiv([0, 0, 0, 1], [1, 0, 1], 7) == ([0, 1], [0, 6])
    assert _pmod([0, 0, 0, 1], [1, 0, 1], 7) == [0, 6]


def test_pdiv_quotient_by_a_non_monic_divisor():
    # the quotient is by b itself, not by b made monic: a - q b == r
    assert pdiv([1, 0, 0, 1], [1, 3], 7) == ([6, 3, 5], [2])
    for a, b in (([1, 0, 0, 1], [1, 3]), ([1, 2, 3, 4, 5], [6, 0, 5])):
        q, r = pdiv(a, b, 7)
        assert len(r) < len(b)
        assert psub(a, _pmul(q, b, 7), 7) == r


@pytest.mark.parametrize("sym", ["B3", "H3"])
def test_validate_rejects_a_perturbed_value(sym):
    # the finished table passes the integer orthogonality checks; one
    # value moved by 1 off the identity class fails the row relations
    g = build_group(sym)
    tab = character_table(g)
    _validate(g, tab.classes, tab.rows, tab.dims, tab.conductor)
    rows = [list(row) for row in tab.rows]
    rows[-1][1] = rows[-1][1] + 1
    with pytest.raises(_Retry, match="row orthogonality fails"):
        _validate(g, tab.classes, rows, tab.dims, tab.conductor)


def _galois(v, j):
    """The image of v under zeta_M -> zeta_M^j."""
    ctx = v.ctx
    acc = [0] * ctx.degree
    for t, c in enumerate(v.coeffs):
        if c:
            for u, e in enumerate(ctx.zeta_vector(j * t)):
                acc[u] += c * e
    return CycloNumber(ctx, tuple(map(Fraction, acc)))


def test_validate_rejects_a_galois_conjugate_row(monkeypatch):
    # sqrt5 -> -sqrt5 on one row of H3 leaves an integral row, another
    # row of the table, so the relations fail; they are checked modulo a
    # prime q = 1 mod M above |W|^2 + |W|
    g = build_group("H3")
    tab = character_table(g)
    M = tab.conductor
    i = next(i for i, row in enumerate(tab.rows)
             if not all(v.is_rational() for v in row))
    j = next(j for j in range(2, M) if gcd(j, M) == 1
             and [_galois(v, j) for v in tab.rows[i]] != list(tab.rows[i]))
    rows = [list(row) for row in tab.rows]
    rows[i] = [_galois(v, j) for v in rows[i]]
    assert all(c.denominator == 1 for v in rows[i] for c in v.coeffs)
    assert tuple(rows[i]) in tab.rows[:i] + tab.rows[i + 1:]
    primes = []
    real = chartab_mod.residue_map

    def recorder(conductor, bound):
        out = real(conductor, bound)
        primes.append((conductor, bound, out[0]))
        return out

    monkeypatch.setattr(chartab_mod, "residue_map", recorder)
    _validate(g, tab.classes, tab.rows, tab.dims, M)
    with pytest.raises(_Retry, match="orthogonality fails"):
        _validate(g, tab.classes, rows, tab.dims, M)
    bound = g.size * g.size + g.size
    assert primes == [(M, bound, primes[0][2])] * 2
    q = primes[0][2]
    assert q % M == 1 and q > bound


def test_validate_checks_every_embedding():
    # (zeta - eta)(zeta - eta^-1) vanishes under zeta -> eta^1 and
    # zeta -> eta^-1, the maps mod q that a value and its conjugate take
    # on the first unit, and under no other: added to one value, it is
    # seen only because every map zeta -> eta^j is checked
    g = build_group("H3")
    tab = character_table(g)
    M = tab.conductor
    q, eta, to_fp = residue_map(M, g.size * g.size + g.size)
    zeta = root_of_unity(M, 1)
    shift = (zeta - eta) * (zeta - pow(eta, q - 2, q))
    assert to_fp(shift) == to_fp(shift.conjugate()) == 0
    rows = [list(row) for row in tab.rows]
    rows[-1][1] = rows[-1][1] + shift
    with pytest.raises(_Retry, match="orthogonality fails"):
        _validate(g, tab.classes, rows, tab.dims, M)


_P = 1_000_003


def _random_matrix(rng, d, zeros):
    return [[0 if rng.random() < zeros else rng.randrange(_P)
             for _ in range(d)] for _ in range(d)]


def test_hessenberg_charpoly_matches_power_traces():
    rng = random.Random(20)
    cases = [_random_matrix(rng, d, zeros)
             for d in range(1, 9) for zeros in (0.0, 0.5, 0.8)]
    # a zero at (1, 0) with a nonzero below it needs a row swap; a block
    # triangular matrix leaves a zero on the subdiagonal
    cases.append([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
    cases.append([[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 9, 1], [0, 0, 2, 3]])
    cases.append([[0] * 5 for _ in range(5)])
    for mat in cases:
        assert _charpoly(mat, _P) == charpoly_by_power_traces(mat, _P), mat


@pytest.mark.parametrize("sym", ["B4", "H3"])
def test_charpoly_of_every_split_matches_power_traces(sym, monkeypatch):
    seen = []

    def recorder(mat, p):
        got = _charpoly(mat, p)
        seen.append((mat, p, got))
        return got

    monkeypatch.setattr(chartab_mod, "_charpoly", recorder)
    character_table(build_group(sym))
    assert any(len(mat) > 2 for mat, _, _ in seen)
    for mat, p, got in seen:
        assert got == charpoly_by_power_traces(mat, p)
