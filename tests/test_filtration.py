"""Relative socles, semisimple decomposition, socle filtrations, membership."""

import pytest
from hypothesis import event, given, settings, strategies as st

from quiverfilt import (
    GF,
    QQ,
    Matrix,
    Rep,
    check_semibrick,
    decompose_semisimple,
    direct_sum,
    ext_basis,
    extension_middle,
    filt_membership,
    kronecker,
    linear_quiver,
    quasi_simple,
    standard_module,
    tower,
    universal_sequence,
    verify_filtration,
    x_socle,
    x_socle_filtration,
)
from quiverfilt.errors import InvariantError
from quiverfilt.filtration import Filtration, SemisimpleDecomposition, _zero_inclusion
from quiverfilt.linalg import hstack, mat_from_cols
from quiverfilt.reps import Morphism, SubrepInclusion, cokernel, subrep_from_spans

from conftest import columns_contained, field_scalar, make_x11, reference_nullspace, reference_rref


@pytest.fixture
def sb0(r0):
    return check_semibrick([r0])


def test_socle_of_member_is_everything(r0, sb0):
    soc = x_socle(r0, sb0)
    assert soc.sub.dim_vector() == r0.dim_vector()


def test_socle_preprojective_zero(k2, sb0):
    p1 = standard_module(k2, QQ, "projective", 1)
    assert x_socle(p1, sb0).sub.dim_total == 0


def test_socle_of_truncation_is_base(r0, sb0):
    y2 = universal_sequence(r0, sb0).middle
    soc = x_socle(y2, sb0)
    assert soc.sub.dim_vector() == {1: 1, 2: 1}


def test_socle_requires_certificate(r0):
    refusal = check_semibrick([r0, r0])
    with pytest.raises(InvariantError):
        x_socle(r0, refusal)


def test_decompose_multiplicities(r0, r1):
    sb = check_semibrick([r0, r1])
    l, _, _ = direct_sum([r0, r0, r1])
    dec = decompose_semisimple(l, sb)
    assert dec.ok and list(dec.multiplicities) == [2, 1]
    assert dec.witness.is_isomorphism()


def test_decompose_refuses_nonsplit_middle(r0, sb0):
    e = ext_basis(r0, r0)[0][0]
    mid = extension_middle(r0, r0, e).middle
    dec = decompose_semisimple(mid, sb0)
    assert not dec.ok
    assert dec.diagnostics["reason"]


def test_decompose_zero_rep(k2, r0, sb0):
    dec = decompose_semisimple(Rep.zero(k2, QQ), sb0)
    assert dec.ok and list(dec.multiplicities) == [0]


def test_filtration_of_member_single_step(r0, sb0):
    res = x_socle_filtration(r0, sb0)
    assert res.ok and res.steps_completed == 1
    assert len(res.filtration.chain) == 2


def test_filtration_of_tower_level(r0, sb0):
    t = tower(r0, sb0, 3)
    res = x_socle_filtration(t.levels[-1], sb0)
    assert res.ok
    dims = [i.sub.dim_vector() for i in res.filtration.chain]
    assert dims == [
        {1: 0, 2: 0},
        {1: 1, 2: 1},
        {1: 2, 2: 2},
        {1: 3, 2: 3},
    ]
    for layer in res.filtration.layers:
        assert list(layer.multiplicities) == [1]


def test_filtration_stalls_on_preprojective(k2, sb0):
    p1 = standard_module(k2, QQ, "projective", 1)
    res = x_socle_filtration(p1, sb0)
    assert not res.ok and res.filtration is None
    assert res.diagnostics["hom_dims_into_quotient"] == [0]


def test_membership_direct_sum(r0, r1):
    sb = check_semibrick([r0, r1])
    s, _, _ = direct_sum([r0, r1, r1])
    res = filt_membership(s, sb)
    assert res.ok and res.steps_completed == 1


def test_membership_extension_middle(r0, sb0):
    e = ext_basis(r0, r0)[0][0]
    mid = extension_middle(r0, r0, e).middle
    res = filt_membership(mid, sb0)
    assert res.ok and res.steps_completed == 2


def test_membership_refuses_simple(k2, sb0):
    s1 = standard_module(k2, QQ, "simple", 1)
    res = filt_membership(s1, sb0)
    assert not res.ok


def test_verify_filtration_accepts_genuine(r0, sb0):
    t = tower(r0, sb0, 2)
    res = x_socle_filtration(t.levels[-1], sb0)
    assert verify_filtration(res.filtration, sb0)


def test_verify_filtration_rejects_gap(r0, sb0):
    t = tower(r0, sb0, 3)
    res = x_socle_filtration(t.levels[-1], sb0)
    filt = res.filtration
    # drop the middle chain element: the remaining layer is not semisimple
    broken = Filtration(
        ambient=filt.ambient,
        chain=[filt.chain[0], filt.chain[1], filt.chain[3]],
        layers=[filt.layers[0], filt.layers[1]],
        layer_reps=[filt.layer_reps[0], filt.layer_reps[1]],
    )
    assert not verify_filtration(broken, sb0)


def test_verify_filtration_rejects_forged_layer_witness(r0, r1, sb0):
    # one step 0 < R1 whose layer claims zero copies of R0 yet is witnessed
    # by the identity of R1
    witness = Morphism.identity(r1)
    forged = Filtration(
        ambient=r1,
        chain=[_zero_inclusion(r1), SubrepInclusion(r1, r1, witness)],
        layers=[SemisimpleDecomposition(True, [0], witness, r1, None)],
        layer_reps=[r1],
    )
    assert not filt_membership(r1, sb0).ok
    assert not verify_filtration(forged, sb0)


def test_wild_singleton_filtration(k3):
    x = make_x11(k3, QQ, [1, 0, 0])
    sb = check_semibrick([x])
    t = tower(x, sb, 2)
    res = x_socle_filtration(t.levels[-1], sb)
    assert res.ok
    assert [i.sub.dim_vector() for i in res.filtration.chain] == [
        {1: 0, 2: 0},
        {1: 1, 2: 1},
        {1: 3, 2: 3},
    ]
    assert list(res.filtration.layers[1].multiplicities) == [2]


def _preimage_reference(a, target):
    """Reference: a basis (as columns) of {x : a*x lies in the column space of
    target}, the kernel of q*a for q whose rows span the annihilator of
    target's columns, each kernel read off ``reference_rref``."""
    f = a.field
    q = [vec.entries for vec in reference_nullspace(target.transpose())]
    comp = Matrix(f, len(q), a.rows, [x for row in q for x in row]).mul(a)
    vecs = reference_nullspace(comp)
    return hstack(vecs) if vecs else Matrix.zeros(f, a.cols, 0)


def _canonical_columns(span):
    """Reference: the nonzero rows of rref(span^T), as columns."""
    red, pivots = reference_rref(span.transpose())
    return mat_from_cols(span.field, span.rows, [red.row(i) for i in range(len(pivots))])


def _filt_members(quiver, field):
    """A semi-brick on each quiver: quasi-simples on K2, three (1,1)-dimensional
    reps at distinct points on K3, the simples on A3."""
    if quiver == kronecker(2):
        return [quasi_simple(field, point) for point in (0, 1, "inf")]
    if quiver == kronecker(3):
        return [make_x11(quiver, field, e) for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    return [standard_module(quiver, field, "simple", v) for v in quiver.vertices]


def _draw_filt_member(data, quiver, field, sb, members):
    """A tower level, a direct sum of members, or the middle of an extension
    of a tower level by a member, by a drawn combination of the Ext basis."""
    kind = data.draw(st.sampled_from(["tower", "sum", "extension"]))
    pick = st.sampled_from(members)
    if kind == "sum":
        return direct_sum(data.draw(st.lists(pick, min_size=1, max_size=3)))[0]
    top = 2 if quiver == kronecker(3) else 4
    level = tower(data.draw(pick), sb, data.draw(st.integers(1, top))).levels[-1]
    if kind == "tower":
        return level
    sub = data.draw(pick)
    basis = ext_basis(level, sub)[0]
    if not basis:
        return direct_sum([sub, level])[0]
    cocycle = basis[0].scale(data.draw(field_scalar(field)))
    for b in basis[1:]:
        cocycle = cocycle.add(b.scale(data.draw(field_scalar(field))))
    return extension_middle(level, sub, cocycle).middle


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.data(),
)
def test_socle_step_matches_the_preimage_reference(field, quiver, data):
    """Each step Y_k -> Y_{k+1} of ``x_socle_filtration`` is the preimage in m
    of the socle of m/Y_k: the same sub and the same inclusion blocks as the
    canonical basis of ``_preimage_reference`` at each vertex."""
    # preimage of a line under a rank-1 map: 2-dimensional
    a, line = Matrix.from_rows(QQ, [[1, 0], [0, 0]]), Matrix.from_rows(QQ, [[1], [0]])
    pre = _preimage_reference(a, line)
    assert pre.cols == 2 and columns_contained(a.mul(pre), line)

    members = _filt_members(quiver, field)
    sb = check_semibrick(members)
    m = _draw_filt_member(data, quiver, field, sb, members)
    res = x_socle_filtration(m, sb)
    assert res.ok
    chain = res.filtration.chain
    event(f"{len(chain) - 1} steps")
    for current, nxt in zip(chain, chain[1:]):
        quot, proj = cokernel(current.inclusion)
        soc = x_socle(quot, sb)
        spans = {
            v: _preimage_reference(proj.blocks[v], soc.inclusion.blocks[v])
            for v in m.quiver.vertices
        }
        assert nxt.sub == subrep_from_spans(m, spans).sub
        for v in m.quiver.vertices:
            assert nxt.inclusion.blocks[v] == _canonical_columns(spans[v])
