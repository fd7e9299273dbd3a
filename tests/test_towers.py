"""Universal sequences, towers, endomorphism-ring towers, uniseriality."""

import pytest

from quiverfilt import (
    QQ,
    Morphism,
    Rep,
    check_semibrick,
    cokernel,
    compose,
    connecting_map,
    decompose_semisimple,
    dimension_budget,
    direct_sum,
    end_basis_of_ext,
    end_ring_tower,
    ext_basis,
    hom_basis,
    image,
    is_isomorphic,
    is_universal,
    kronecker,
    quasi_simple,
    standard_module,
    tower,
    uniserial_check,
    universal_sequence,
)
from quiverfilt.errors import BudgetError, InapplicableError, InvariantError
from quiverfilt.homext import ShortExactSequence
from quiverfilt.linalg import solve

from conftest import make_x11


@pytest.fixture
def sb0(r0):
    return check_semibrick([r0])


def x_and_sb(k3):
    x = make_x11(k3, QQ, [1, 0, 0])
    return x, check_semibrick([x])


def test_end_basis_of_ext_sizes(r0, k3, sb0):
    assert len(end_basis_of_ext(r0, r0)) == 1
    x, _ = x_and_sb(k3)
    assert len(end_basis_of_ext(x, x)) == 2


def test_end_basis_requires_certified_brick(r0):
    mm, _, _ = direct_sum([r0, r0])
    with pytest.raises(InvariantError):
        end_basis_of_ext(mm, r0)
    assert end_basis_of_ext(mm, r0, allow_uncertified=True) is not None


def test_universal_sequence_two_member_base(r0, r1):
    sb = check_semibrick([r0, r1])
    ses = universal_sequence(r0, sb)
    # Ext(R_1, R_0) = 0, so only R_0 contributes
    assert ses.middle.dim_vector() == {1: 2, 2: 2}
    ok, _ = is_isomorphic(ses.quot, r0)
    assert ok


def test_universal_sequence_wild_base(k3):
    x, sb = x_and_sb(k3)
    ses = universal_sequence(x, sb)
    assert ses.middle.dim_vector() == {1: 3, 2: 3}
    s, _, _ = direct_sum([x, x])
    ok, _ = is_isomorphic(ses.quot, s)
    assert ok


def test_universal_sequence_relatively_injective_base(k2, sb0):
    # Ext(R_0, S_2) = 0: the universal sequence degenerates to the split one
    s2 = standard_module(k2, QQ, "simple", 2)
    ses = universal_sequence(s2, sb0)
    assert ses.quot.dim_total == 0
    assert ses.middle.dim_vector() == s2.dim_vector()


def test_is_universal_accepts_construction(r0, r1, rinf, k3):
    for members, base in (
        ([r0], r0),
        ([r0, r1, rinf], r0),
    ):
        sb = check_semibrick(members)
        assert is_universal(universal_sequence(base, sb), sb).ok
    x, sbx = x_and_sb(k3)
    assert is_universal(universal_sequence(x, sbx), sbx).ok


def test_is_universal_rejects_split_with_ext(r0, sb0):
    s, injs, projs = direct_sum([r0, r0])
    split = ShortExactSequence(r0, s, r0, injs[0], projs[1])
    report = is_universal(split, sb0)
    assert not report.ok
    entry = report.per_member[0]
    assert entry["square"] and not entry["invertible"]


def test_quotient_sequences_stay_universal(r0, sb0):
    """0 -> Y(r)/Y(i) -> Y(r+1)/Y(i) -> Y(r+1)/Y(r) -> 0 is universal."""
    t = tower(r0, sb0, 3)
    i, r = 1, 2
    q1, proj1 = cokernel(t.inclusion(i, r))
    q2, proj2 = cokernel(t.inclusion(i, r + 1))
    q3, proj3 = cokernel(t.inclusion(r, r + 1))
    step = t.inclusion(r, r + 1)
    # induced inclusion Y(r)/Y(i) -> Y(r+1)/Y(i): solve through the surjection
    incl_blocks = _factor_through_surjection(compose(step, proj2), proj1)
    proj_blocks = _factor_through_surjection(proj3, proj2)
    incl_bar = Morphism(q1, q2, incl_blocks)
    proj_bar = Morphism(q2, q3, proj_blocks)
    ses = ShortExactSequence(q1, q2, q3, incl_bar, proj_bar)
    assert is_universal(ses, sb0).ok


def _factor_through_surjection(f, proj):
    """Blocks of the unique g with g . proj = f, given proj surjective."""
    blocks = {}
    for v in f.source.quiver.vertices:
        a = proj.blocks[v].transpose()
        b = f.blocks[v].transpose()
        sol = solve(a, b)
        assert sol is not None
        blocks[v] = sol.transpose()
    return blocks


def test_tower_dims_kronecker(r0, sb0):
    t = tower(r0, sb0, 4)
    assert [l.dim_vector() for l in t.levels] == [
        {1: i, 2: i} for i in range(1, 5)
    ]
    assert t.height == 4 and t.base == r0


def test_tower_dims_wild(k3):
    x, sb = x_and_sb(k3)
    t = tower(x, sb, 3)
    assert [l.dim_vector() for l in t.levels] == [
        {1: 1, 2: 1},
        {1: 3, 2: 3},
        {1: 7, 2: 7},
    ]
    # at every level one Hom and a doubling Ext against the brick
    for i, lev in enumerate(t.levels):
        assert len(hom_basis(x, lev)) == 1
        assert len(ext_basis(x, lev)[0]) == 2 ** (i + 1)


def test_tower_level_one_is_base(r0, sb0):
    t = tower(r0, sb0, 1)
    assert t.height == 1
    assert list(t.levels) == [r0]
    assert len(t.sequences) == 0


def test_tower_inclusions_compose(r0, sb0):
    t = tower(r0, sb0, 4)
    direct = t.inclusion(1, 4)
    stepwise = compose(compose(t.inclusion(1, 2), t.inclusion(2, 3)), t.inclusion(3, 4))
    assert direct == stepwise
    assert t.inclusion(2, 2) == Morphism.identity(t.levels[1])


def test_tower_budget_enforced(r0, sb0, monkeypatch):
    with pytest.raises(BudgetError):
        tower(r0, sb0, 4, budget=5)
    monkeypatch.setenv("SEMIBRICK_BUDGET", "5")
    assert dimension_budget() == 5
    with pytest.raises(BudgetError):
        tower(r0, sb0, 4)
    monkeypatch.setenv("SEMIBRICK_BUDGET", "not-a-number")
    with pytest.raises(InvariantError):
        dimension_budget()


def test_end_ring_tower_kronecker(r0, sb0):
    t = tower(r0, sb0, 3)
    et = end_ring_tower(t)
    assert et.ok
    assert et.end_dims == (1, 2, 3)
    for rep in et.level_reports:
        assert rep["nilpotency_index"] == rep["level"]
        assert rep["residue_dim"] == 1
        if "psi_surjective" in rep:
            assert rep["psi_surjective"] and rep["psi_unital"]
            assert rep["psi_multiplicative"]
    assert et.level_reports[-1]["composite_kernel_matches_ideal"]


def test_end_ring_tower_refuses_a_top_ideal_short_of_the_composite_kernel(
    r0, sb0, monkeypatch
):
    """With one vector missing from the top ideal's basis, every vector left
    still lies in the composite kernel: only the dimension comparison can
    tell the two spaces apart."""
    from quiverfilt import towers

    t = tower(r0, sb0, 4)
    full = towers._ideal_basis
    calls = []

    def short_at_top(alg, incl_from_base):
        basis = full(alg, incl_from_base)
        calls.append(len(basis))
        return basis[:-1] if len(calls) == t.height else basis

    monkeypatch.setattr(towers, "_ideal_basis", short_at_top)
    et = end_ring_tower(t)
    assert calls == [0, 1, 2, 3]
    assert len(et.ideal_bases[-1]) == 2
    assert et.level_reports[-1]["composite_kernel_matches_ideal"] is False
    assert et.ok is False


def test_end_ring_tower_single_level(r0, sb0):
    et = end_ring_tower(tower(r0, sb0, 1))
    assert et.ok and et.end_dims == (1,) and et.psi_maps == []


def test_end_ring_tower_wild_local(k3):
    x, sb = x_and_sb(k3)
    et = end_ring_tower(tower(x, sb, 2))
    assert et.ok
    top = et.level_reports[-1]
    assert top["local_evidence"] and top["residue_dim"] == 1
    assert top["ideal_nilpotent"]


def test_uniserial_kronecker_tower(r0, sb0):
    assert uniserial_check(tower(r0, sb0, 4)) is True


def test_uniserial_image_is_bottom_layer(r0, sb0):
    # the Hom-property at (j=0, i=2): any nonzero f: R_0 -> Y(2) has image Y(1)
    t = tower(r0, sb0, 2)
    incl_img = image(t.inclusion(1, 2))
    for f in hom_basis(r0, t.levels[1]):
        img = image(f)
        assert img.sub == incl_img.sub


def test_uniserial_inapplicable_wild(k3):
    x, sb = x_and_sb(k3)
    with pytest.raises(InapplicableError):
        uniserial_check(tower(x, sb, 2))


def test_orthogonality_shadow(k2, r0, sb0):
    """Towers over the full projective generator stay Hom-orthogonal to their
    regular quotients: hom(Y(r)/Y(1), Y(r)) = 0."""
    p1 = standard_module(k2, QQ, "projective", 1)
    p2 = standard_module(k2, QQ, "projective", 2)
    y, _, _ = direct_sum([p1, p2])
    t = tower(y, sb0, 3)
    for r in (2, 3):
        quot, _ = cokernel(t.inclusion(1, r))
        assert hom_basis(quot, t.levels[r - 1]) == []


def test_ext_classes_die_in_next_level(r0, sb0):
    t = tower(r0, sb0, 3)
    from quiverfilt import ExtSpace

    for i in range(1, t.height):
        incl = t.inclusion(i, i + 1)
        classes, _ = ext_basis(r0, t.levels[i - 1])
        target = ExtSpace(r0, t.levels[i])
        for e in classes:
            assert target.is_zero_class(e.pushed_forward(incl))
