"""Endomorphism algebras, brick certification, semi-brick checking."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverfilt import (
    GF,
    QQ,
    Matrix,
    Morphism,
    check_semibrick,
    direct_sum,
    end_algebra,
    hom_basis,
    is_brick,
    kronecker,
    linear_quiver,
    quasi_simple,
    standard_module,
    universal_sequence,
)
from quiverfilt.bricks import AlgebraPresentation, end_coordinates
from quiverfilt.errors import InvariantError
from quiverfilt.reps import compose, linear_combination

from conftest import draw_rep, field_scalar, make_x11


def _y2(field=QQ):
    r0 = quasi_simple(field, field.of(0))
    sb = check_semibrick([r0])
    return universal_sequence(r0, sb).middle


# ---------------------------------------------------------------------------
# end_algebra


def test_end_algebra_simple_is_scalar(k2):
    s1 = standard_module(k2, QQ, "simple", 1)
    alg = end_algebra(s1)
    assert alg.dimension == 1
    assert alg.verify()


def test_end_algebra_truncated_level_two():
    alg = end_algebra(_y2())
    assert alg.dimension == 2
    assert alg.verify()
    # pick the non-unit direction: some basis combination t with t^2 = 0
    f = QQ
    found = False
    for c0, c1 in itertools.product(range(-2, 3), repeat=2):
        coords = [f.of(c0), f.of(c1)]
        op = alg.operator_matrix(coords)
        if not op.is_zero() and alg.is_nilpotent(coords):
            sq = alg.multiply(coords, coords)
            assert all(x == f.zero for x in sq)
            found = True
    assert found


def test_end_algebra_matrix_algebra(r0):
    mm, _, _ = direct_sum([r0, r0])
    assert end_algebra(mm).dimension == 4


def test_end_algebra_unit_coordinates(r0):
    alg = end_algebra(r0)
    assert alg.dimension == 1
    one = alg.element(alg.unit_coordinates)
    from quiverfilt import Morphism

    assert one == Morphism.identity(r0)


def test_end_coordinates_reads_free_columns_and_checks_span(r0):
    mm, _, _ = direct_sum([r0, r0])
    basis = hom_basis(mm, mm)
    coords_of = end_coordinates(basis)
    d = len(basis)
    for i, b in enumerate(basis):
        assert coords_of(b) == [QQ.one if j == i else QQ.zero for j in range(d)]
    coeffs = [QQ.of(c) for c in (3, -1, 0, 2)]
    assert coords_of(linear_combination(basis, coeffs)) == coeffs
    # vertexwise blocks that break a commuting square lie outside the span
    blocks = {1: Matrix.from_rows(QQ, [[1, 0], [0, 0]]), 2: Matrix.zeros(QQ, 2, 2)}
    with pytest.raises(InvariantError):
        coords_of(Morphism._trusted(mm, mm, blocks))


def _reference_multiply(alg, a, b):
    f = alg.field
    out = [f.zero] * alg.dimension
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            coeff = f.mul(ai, bj)
            for l, t in enumerate(alg.multiplication_table[i][j]):
                out[l] = f.add(out[l], f.mul(coeff, t))
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(2), linear_quiver(3)]),
    st.data(),
)
def test_multiply_matches_reference_and_composition(field, quiver, data):
    m = draw_rep(data, quiver, field)
    alg = end_algebra(m)
    d = alg.dimension
    coords = st.lists(field_scalar(field), min_size=d, max_size=d)
    a, b = data.draw(coords), data.draw(coords)
    prod = alg.multiply(a, b)
    assert prod == _reference_multiply(alg, a, b)
    kind = int if field.characteristic else Fraction
    assert all(type(x) is kind for x in prod)
    if d:
        assert alg.element(prod) == compose(alg.element(a), alg.element(b))


def test_algebra_presentation_verify_catches_tampering(r0):
    alg = end_algebra(_y2())
    table = [[list(row) for row in plane] for plane in alg.multiplication_table]
    # break the unit law: corrupt a product against the unit element
    u = next(i for i, c in enumerate(alg.unit_coordinates) if c != QQ.zero)
    table[u][0][0] = QQ.add(table[u][0][0], QQ.one)
    bad = AlgebraPresentation(
        rep=alg.rep,
        basis=alg.basis,
        multiplication_table=table,
        unit_coordinates=list(alg.unit_coordinates),
    )
    assert not bad.verify()


# ---------------------------------------------------------------------------
# is_brick


def test_brick_generic_wild_rep(k3):
    x = make_x11(k3, QQ, [1, 2, 3])
    report = is_brick(x)
    assert report.status == "certified_brick"
    assert report.end_dim == 1


def test_brick_direct_sum_refuted(r0):
    mm, _, _ = direct_sum([r0, r0])
    report = is_brick(mm)
    assert report.status == "not_brick"
    assert report.witness_kind == "idempotent"
    w = report.witness
    assert compose_is_idempotent(w)


def compose_is_idempotent(w):
    from quiverfilt import compose

    ww = compose(w, w)
    return ww == w and not w.is_zero() and not _is_identity(w)


def _is_identity(w):
    from quiverfilt import Morphism

    return w == Morphism.identity(w.source)


def test_brick_local_uncertified_char_zero():
    report = is_brick(_y2())
    assert report.status == "local_not_certified"
    assert report.end_dim == 2
    assert report.radical_dim == 1
    assert report.residue_dim == 1


def test_brick_local_uncertified_char_p():
    f5 = GF(5)
    report = is_brick(_y2(f5))
    assert report.status == "local_not_certified"
    assert report.radical_dim is None  # trace-form evidence is char-0 only
    assert "characteristic 0" in report.notes


def test_brick_zero_module(k2):
    from quiverfilt import Rep

    report = is_brick(Rep.zero(k2, QQ))
    assert report.status == "not_brick"


# ---------------------------------------------------------------------------
# check_semibrick


def test_semibrick_simples_k3(k3):
    s1 = standard_module(k3, QQ, "simple", 1)
    s2 = standard_module(k3, QQ, "simple", 2)
    cert = check_semibrick([s1, s2])
    assert cert.ok
    assert cert.hom_table == [[1, 0], [0, 1]]
    # three classes in the arrow direction, none against it
    assert cert.ext_table == [[0, 0], [3, 0]]


def test_semibrick_quasi_simples(r0, r1, rinf):
    cert = check_semibrick([r0, r1, rinf])
    assert cert.ok
    for i in range(3):
        assert cert.ext_table[i][i] == 1
        for j in range(3):
            if i != j:
                assert cert.hom_table[i][j] == 0 and cert.ext_table[i][j] == 0


def test_semibrick_k4_pair(k4):
    xa = make_x11(k4, QQ, [1, 0, 0, 0])
    xb = make_x11(k4, QQ, [1, 1, 1, 1])
    cert = check_semibrick([xa, xb])
    assert cert.ok
    assert cert.ext_table == [[3, 2], [2, 3]]


def test_semibrick_rejects_duplicates(r0):
    other = quasi_simple(QQ, QQ.of(0))
    ref = check_semibrick([r0, other])
    assert not ref.ok and ref.indices == (0, 1)
    assert "isomorphic" in ref.reason


def test_semibrick_rejects_non_bricks(r0):
    mm, _, _ = direct_sum([r0, r0])
    ref = check_semibrick([mm])
    assert not ref.ok and "not a brick" in ref.reason


def test_semibrick_rejects_hom_pairs(k2):
    p1 = standard_module(k2, QQ, "projective", 1)
    p2 = standard_module(k2, QQ, "projective", 2)
    ref = check_semibrick([p1, p2])
    assert not ref.ok and "Hom-orthogonal" in ref.reason


def test_semibrick_uncertified_without_flag(r0):
    y2 = _y2()
    ref = check_semibrick([y2])
    assert not ref.ok and "assume" in ref.reason


def test_semibrick_assume_flag_recorded(r0):
    # the flag only marks certificates that actually skipped certification
    cert = check_semibrick([r0], assume_bricks=True)
    assert cert.ok and not cert.assumed
    solo = check_semibrick([_y2()], assume_bricks=True)
    assert solo.ok and solo.assumed


def test_semibrick_mixed_fields_invariant_error(r0):
    f5 = GF(5)
    other = quasi_simple(f5, f5.of(1))
    with pytest.raises(InvariantError):
        check_semibrick([r0, other])


def test_semibrick_order_invariance(r0, r1, rinf):
    base = check_semibrick([r0, r1, rinf])
    for perm in itertools.permutations(range(3)):
        members = [[r0, r1, rinf][i] for i in perm]
        cert = check_semibrick(members)
        assert cert.ok
        for a in range(3):
            for b in range(3):
                assert cert.hom_table[a][b] == base.hom_table[perm[a]][perm[b]]
                assert cert.ext_table[a][b] == base.ext_table[perm[a]][perm[b]]


def test_end_dim_additivity(r0, r1):
    """dim End(M + N) = dim End M + dim End N + hom both ways."""
    s, _, _ = direct_sum([r0, r1])
    expected = (
        end_algebra(r0).dimension
        + end_algebra(r1).dimension
        + len(hom_basis(r0, r1))
        + len(hom_basis(r1, r0))
    )
    assert end_algebra(s).dimension == expected
