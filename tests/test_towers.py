"""Universal sequences, towers, endomorphism-ring towers, uniseriality."""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import event, given, settings, strategies as st

from quiverfilt import (
    GF,
    QQ,
    ExtCocycle,
    ExtSpace,
    Matrix,
    Morphism,
    Rep,
    Tower,
    check_semibrick,
    cokernel,
    compose,
    connecting_map,
    decompose_semisimple,
    dimension_budget,
    direct_sum,
    end_algebra,
    end_basis_of_ext,
    end_ring_tower,
    ext_basis,
    extension_middle,
    filt_membership,
    hom_basis,
    image,
    is_isomorphic,
    is_universal,
    kernel,
    kronecker,
    linear_quiver,
    quasi_simple,
    standard_module,
    tower,
    uniserial_check,
    universal_sequence,
)
from quiverfilt.bricks import end_coordinates
from quiverfilt.errors import BudgetError, InapplicableError, InvariantError
from quiverfilt.homext import ShortExactSequence
from quiverfilt.linalg import (
    _integer_multiple,
    solve,
    unit_vectors,
)
from quiverfilt.reps import linear_combination
from quiverfilt.towers import (
    _assemble_universal,
    _ideal_checks,
    _restriction_coords,
    _universal_data,
)

from conftest import (
    field_scalar,
    make_x11,
    reference_ext,
    reference_hom_basis,
    reference_rank,
    reference_uniserial,
)


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


def _reference_orbit_basis(x, y):
    """Reference: the End(X)-orbit greedy of ``end_basis_of_ext`` on
    ``reference_ext`` and ``reference_hom_basis``, each span test a
    ``reference_rank``: a basis cocycle is kept when its class lies outside
    the span of the pullbacks of the cocycles kept before it."""
    space = reference_ext(x, y)
    endos = reference_hom_basis(x, x)
    orbit, selected = [], []
    for cand in space.basis:
        coords = space.reduce(cand)
        if reference_rank(x.field, orbit + [coords], space.dim) == reference_rank(
            x.field, orbit, space.dim
        ):
            continue
        selected.append(cand)
        orbit += [space.reduce(cand.pulled_back(phi)) for phi in endos]
    return selected


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
def test_end_orbit_basis_on_sums_of_quasi_simples(field):
    """On X = R0+R0, R0+R1 (End(X) = M_2(k), resp. k x k) the End(X)-orbit
    greedy keeps one cocycle per orbit: Ext(R0+R0, R0) = k^2 is one orbit,
    and Ext(R0+R1, R0) = k is one; with Y = X the orbits double.  The kept
    cocycles are those of a greedy on reference ranks."""
    r0, r1 = quasi_simple(field, field.zero), quasi_simple(field, field.one)
    r00, r01 = direct_sum([r0, r0])[0], direct_sum([r0, r1])[0]
    pairs = [(r00, r0), (r01, r0), (r01, r01), (r00, r00)]
    sizes = []
    for x, y in pairs:
        chosen = end_basis_of_ext(x, y, allow_uncertified=True)
        expected = _reference_orbit_basis(x, y)
        assert [c.components for c in chosen] == [c.components for c in expected]
        sizes.append(len(chosen))
    assert sizes == [1, 1, 2, 2]


def test_tower_reads_brick_status_from_the_semibrick(r0, sb0, monkeypatch):
    def no_recheck(m):
        raise AssertionError("is_brick ran again")

    monkeypatch.setattr("quiverfilt.towers.is_brick", no_recheck)
    assert [y.dim_total for y in tower(r0, sb0, 3).levels] == [2, 4, 6]
    # direct callers of end_basis_of_ext keep their own check
    with pytest.raises(AssertionError):
        end_basis_of_ext(r0, r0)


def test_tower_refuses_a_semibrick_whose_report_is_not_certified(r0, sb0):
    report = replace(sb0.brick_reports[0], status="local_not_certified")
    uncertified = replace(sb0, brick_reports=[report])
    with pytest.raises(InvariantError, match="certified brick"):
        tower(r0, uncertified, 2)
    assumed = replace(uncertified, assumed=True)
    assert tower(r0, assumed, 2).levels == tower(r0, sb0, 2).levels


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


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_is_universal_rejects_one_perturbed_connecting_map(field):
    k2 = kronecker(2)
    r0, r1 = quasi_simple(field, field.of(0)), quasi_simple(field, field.of(1))
    p1 = standard_module(k2, field, "projective", 1)
    r0r0, _, _ = direct_sum([r0, r0])
    # Over {R0, R1} on P1 one member's cocycle becomes zero; over {R0} on
    # R0 + R0 the second cocycle becomes a copy of the first.
    for members, base, perturb in (
        ([r0, r1], p1, lambda parts, cs: [ExtCocycle.zero(parts[0], base)] + cs[1:]),
        ([r0], r0r0, lambda parts, cs: [cs[0], cs[0]]),
    ):
        sb = check_semibrick(members)
        parts, cocycles = _universal_data(base, sb)
        assert is_universal(_assemble_universal(base, sb, parts, cocycles), sb).ok
        ses = _assemble_universal(base, sb, parts, perturb(parts, cocycles))
        report = is_universal(ses, sb)
        assert not report.ok
        assert [e["invertible"] for e in report.per_member] == [False] + [True] * (
            len(members) - 1
        )
        assert report.per_member[0]["square"]


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


def test_end_ring_tower_refuses_a_top_ideal_of_the_right_dimension_off_the_kernel(
    r0, sb0, monkeypatch
):
    """With the last vector of the top ideal's basis replaced by the unit of
    End(Y(4)), which restricts to the unit of End(Y(1)), the top ideal keeps
    the composite kernel's dimension: only the rank of the two stacked
    together can tell the two spaces apart."""
    from quiverfilt import towers

    t = tower(r0, sb0, 4)
    full = towers._ideal_basis
    calls = []

    def unit_at_top(alg, incl_from_base):
        basis = full(alg, incl_from_base)
        calls.append(len(basis))
        if len(calls) == t.height:
            basis[-1] = list(alg.unit_coordinates)
        return basis

    monkeypatch.setattr(towers, "_ideal_basis", unit_at_top)
    et = end_ring_tower(t)
    assert calls == [0, 1, 2, 3]
    assert len(et.ideal_bases[-1]) == 3
    assert et.level_reports[-1]["ideal_dim"] == 3
    assert et.level_reports[-1]["composite_kernel_matches_ideal"] is False
    assert et.ok is False


_PSI_FLAGS = ("psi_surjective", "psi_unital", "psi_multiplicative")


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("column", ["first", "last"])
def test_end_ring_tower_refuses_one_perturbed_psi_column(field, level, column, monkeypatch):
    """One entry of one column of one restriction map is moved by 1: the
    tower is refused, and only the level whose psi changed fails a psi check."""
    from quiverfilt import towers

    r = quasi_simple(field, field.of(0))
    t = tower(r, check_semibrick([r]), 4)
    full = towers._restriction_coords
    calls = []

    def perturbed(coords_of, incl, endos):
        cols = full(coords_of, incl, endos)
        calls.append(len(cols))
        if len(calls) == level + 1:
            k = 0 if column == "first" else len(cols) - 1
            cols[k] = [field.add(cols[k][0], field.one), *cols[k][1:]]
        return cols

    monkeypatch.setattr(towers, "_restriction_coords", perturbed)
    et = end_ring_tower(t)
    assert calls == [2, 3, 4]
    assert et.ok is False
    for i, report in enumerate(et.level_reports[:-1]):
        flags = [report[name] for name in _PSI_FLAGS]
        assert all(flags) == (i != level), (i, flags)


def _nilpotency_index(f):
    """The least k with f^k = 0, composing f with itself; None past dim."""
    power = Morphism.identity(f.source)
    for k in range(f.source.dim_total + 2):
        if power.is_zero():
            return k
        power = compose(power, f)
    return None


# a field and a point of the projective line over it, for the K2 tower of R_point
_kronecker_point = st.sampled_from([QQ, GF(2), GF(101)]).flatmap(
    lambda f: st.tuples(st.just(f), st.one_of(st.just("inf"), field_scalar(f)))
)


@settings(max_examples=12, deadline=None)
@given(_kronecker_point)
def test_end_of_each_level_is_a_truncated_valuation_ring(case):
    """End(Y(n)) = k[t]/(t^n) for a single brick with one self-extension (the
    Pruefer module's End ring is a discrete valuation ring): dim End = n and
    some t has t^(n-1) != 0 = t^n, so 1, t, ..., t^(n-1) is a basis."""
    field, point = case
    r = quasi_simple(field, point)
    t = tower(r, check_semibrick([r]), 5)
    et = end_ring_tower(t)
    for n, (level, alg, ideal) in enumerate(zip(t.levels, et.algebras, et.ideal_bases), 1):
        assert alg.dimension == n
        candidates = [linear_combination(alg.basis, vec) for vec in ideal]
        candidates = candidates or [Morphism.zero(level, level)]
        assert n in [_nilpotency_index(c) for c in candidates]


def _assert_inclusions_carry_hom_bijectively(t):
    """Composing with incl : Y(i) -> Y(i+1) maps hom_basis(X, Y(i)) onto a
    basis of Hom(X, Y(i+1)) for every member X; returns the Hom dimensions."""
    dims = []
    for x in t.semibrick.members:
        for i, seq in enumerate(t.sequences):
            below = hom_basis(x, t.levels[i])
            above = hom_basis(x, t.levels[i + 1])
            images = [compose(h, seq.incl) for h in below]
            flat = [[e for v in x.quiver.vertices for e in h.blocks[v].entries] for h in images]
            width = sum(t.levels[i + 1].dims[v] * x.dims[v] for v in x.quiver.vertices)
            assert len(below) == len(above) == reference_rank(x.field, flat, width)
            dims.append(len(above))
    return dims


@settings(max_examples=12, deadline=None)
@given(_kronecker_point)
def test_inclusions_carry_hom_from_the_member_bijectively(case):
    field, point = case
    x = quasi_simple(field, point)
    t = tower(x, check_semibrick([x]), 5)
    assert _assert_inclusions_carry_hom_bijectively(t) == [1] * 4


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
def test_inclusions_carry_hom_bijectively_on_k3_and_a3(k3, a3, field):
    """The same over the wild K3 member of ``x_and_sb`` and over the
    semibrick {S1, S2} of A3 (Ext(S2, S1) = k), three levels each."""
    x = make_x11(k3, field, [1, 0, 0])
    t = tower(x, check_semibrick([x]), 3)
    assert [sum(y.dims.values()) for y in t.levels] == [2, 6, 14]
    assert _assert_inclusions_carry_hom_bijectively(t) == [1, 1]
    s1, s2 = (standard_module(a3, field, "simple", v) for v in (1, 2))
    t = tower(s1, check_semibrick([s1, s2]), 3)
    assert [y.dim_vector() for y in t.levels] == [{1: 1, 2: 0, 3: 0}] + [{1: 1, 2: 1, 3: 0}] * 2
    assert _assert_inclusions_carry_hom_bijectively(t) == [1, 1, 0, 0]


@cache
def _r_tower(field, point):
    """The K2 tower of R_point over X = {R_point} to height 5."""
    r = quasi_simple(field, point)
    return tower(r, check_semibrick([r]), 5)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([QQ, GF(101)]).flatmap(
        lambda f: st.tuples(st.just(f), st.sampled_from(["inf", f.of(0), f.of(1), f.of(-2)]))
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_filt_is_wide_on_tower_levels(case, i, j, data):
    """Filt X is wide: for a random linear combination f of hom_basis(Y(i),
    Y(j)) on the tower of R_lambda, the kernel, image and cokernel of f pass
    ``filt_membership``.  dim Hom(Y(i), Y(j)) = min(i, j)."""
    field, point = case
    t = _r_tower(field, point)
    basis = hom_basis(t.levels[i - 1], t.levels[j - 1])
    assert len(basis) == min(i, j)
    coeffs = data.draw(st.lists(field_scalar(field), min_size=len(basis), max_size=len(basis)))
    f = linear_combination(basis, coeffs)
    for piece in (kernel(f).sub, image(f).sub, cokernel(f)[0]):
        assert filt_membership(piece, t.semibrick).ok


@cache
def _k3_tower(field):
    """The K3 tower of X = x11:1,0,0 over X = {X} to height 4, dims (15, 15) at the top."""
    x = make_x11(kronecker(3), field, [1, 0, 0])
    return tower(x, check_semibrick([x]), 4)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([QQ, GF(101)]).flatmap(
        lambda f: st.tuples(
            st.just(f), st.sampled_from(["inf", f.of(0), f.of(1), f.of(-2), "k3"])
        )
    ),
    st.data(),
)
def test_ext_classes_die_in_next_level_on_tower_levels(case, data):
    """Universal sequences kill Ext: a random class of Ext(X, Y(i)), X the
    member, pushed forward along the inclusion Y(i) -> Y(i+1) is zero in
    Ext(X, Y(i+1)).  On the K2 towers of R_lambda dim Ext(X, Y(i)) = 1, on
    the K3 tower of x11:1,0,0 it is 2^i.  Both classes are reduced on the
    forward echelon rows of Phi^T (``ExtSpace.reduce``)."""
    field, point = case
    t = _k3_tower(field) if point == "k3" else _r_tower(field, point)
    i = data.draw(st.integers(min_value=1, max_value=t.height - 1))
    x = t.base
    source = ExtSpace(x, t.levels[i - 1])
    assert source.dim == (2**i if point == "k3" else 1)
    coords = data.draw(st.lists(field_scalar(field), min_size=source.dim, max_size=source.dim))
    c = source.from_coords(coords)
    assert source.reduce(c) == coords
    assert source.is_zero_class(c) == (not any(coords))
    target = ExtSpace(x, t.levels[i])
    assert target.is_zero_class(c.pushed_forward(t.inclusion(i, i + 1)))


def _ideal_checks_reference(alg, ideal):
    """``_ideal_checks`` one ``AlgebraPresentation.multiply`` per product,
    each span test a ``reference_rank``."""
    f, d = alg.field, alg.dimension
    dim = reference_rank(f, ideal, d)
    two_sided = all(
        reference_rank(f, ideal + [prod], d) == dim
        for vec in ideal
        for e in unit_vectors(f, d)
        for prod in (alg.multiply(e, vec), alg.multiply(vec, e))
    )
    current = [list(v) for v in ideal]
    for power in range(1, d + 2):
        if not current or all(all(x == f.zero for x in vec) for vec in current):
            return dim, two_sided, power
        nxt = []
        for a in current:
            for b in ideal:
                prod = alg.multiply(a, b)
                if reference_rank(f, nxt + [prod], d) > len(nxt):
                    nxt.append(prod)
        current = nxt
    return dim, two_sided, None


@cache
def _test_algebras(field):
    """End algebras over ``field``, commutative and not: levels of an R_1
    tower, End(R0 + R0) = M_2(k), End(P1 + P2) and End(R0 + Y(2))."""
    k2 = kronecker(2)
    r0, r1 = quasi_simple(field, field.zero), quasi_simple(field, field.one)
    levels = tower(r1, check_semibrick([r1]), 4).levels
    p1 = standard_module(k2, field, "projective", 1)
    p2 = standard_module(k2, field, "projective", 2)
    y2 = tower(r0, check_semibrick([r0]), 2).levels[-1]
    reps = list(levels) + [direct_sum(parts)[0] for parts in ([r0, r0], [p1, p2], [r0, y2])]
    return [end_algebra(m) for m in reps]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(101)]), st.data())
def test_ideal_checks_match_one_product_at_a_time(field, data):
    alg = data.draw(st.sampled_from(_test_algebras(field)))
    d = alg.dimension
    vectors = data.draw(
        st.lists(st.lists(field_scalar(field), min_size=d, max_size=d), max_size=d)
    )
    assert _ideal_checks(alg, vectors) == _ideal_checks_reference(alg, vectors)


def test_ideal_checks_see_one_sided_and_non_nilpotent_spans(r0):
    """End(R0 + R0) = M_2(QQ): E11 is idempotent, E12 squares to zero, and
    neither spans a two-sided ideal; the matrix units span all of M_2."""
    alg = end_algebra(direct_sum([r0, r0])[0])
    units = unit_vectors(QQ, alg.dimension)
    found = {_ideal_checks(alg, [e]) for e in units}
    assert found == {(1, False, None), (1, False, 2)}
    assert _ideal_checks(alg, units) == (4, True, None)
    for vectors in ([e] for e in units):
        assert _ideal_checks(alg, vectors) == _ideal_checks_reference(alg, vectors)


def _matrices(*objs):
    """The arrow maps of the reps and the blocks of the morphisms in ``objs``."""
    for x in objs:
        yield from (x.arrow_maps if isinstance(x, Rep) else x.blocks).values()


def _cache_guard_case(name):
    if name == "K2":
        base = quasi_simple(QQ, QQ.of(Fraction(1, 2)))
        return base, [base]
    if name == "K3":
        base = make_x11(kronecker(3), QQ, [1, Fraction(-2, 3), 0])
        return base, [base]
    a3 = linear_quiver(3)
    simples = [standard_module(a3, QQ, "simple", v) for v in a3.vertices]
    return simples[0], simples


@pytest.mark.parametrize("name", ["K2", "K3", "A3"])
def test_cached_integer_forms_match_the_entries_after_a_tower(name):
    """Every arrow map and basis block read by a QQ product keeps its
    entries, and its cached integer form is the one its entries give now,
    after elimination has read it."""
    base, members = _cache_guard_case(name)
    seen = {}

    def watch(*objs):
        for m in _matrices(*objs):
            seen.setdefault(id(m), (m, list(m.entries)))

    watch(base, *members)
    basis = hom_basis(base, base)
    watch(*basis)
    copies = [
        Morphism(b.source, b.target, {v: Matrix(QQ, m.rows, m.cols, list(m.entries))
                                      for v, m in b.blocks.items()})
        for b in basis
    ]
    watch(*copies)
    assert [Morphism(b.source, b.target, dict(b.blocks)) for b in basis] == copies
    t = tower(base, check_semibrick(members), 3)
    watch(*t.levels)
    for seq in t.sequences:
        watch(seq.incl, seq.proj)
    for level in t.levels:
        watch(*end_algebra(level).basis)
    et = end_ring_tower(t)
    assert et.ok
    for alg in et.algebras:
        watch(*alg.basis)
    cached = 0
    for m, before in seen.values():
        assert m.entries == before
        cached += m._ints is not None
        assert m._integer_form() == _integer_multiple(m.entries)
    assert cached == len(seen)


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


def test_uniserial_check_refuses_a_split_level(r0, sb0):
    # Y(2) = R0 + R0 (split), so dim Hom(R0, Y(2)) = 2 and Y(2) is not uniserial
    split = extension_middle(r0, r0, ExtCocycle.zero(r0, r0))
    t = Tower(r0, sb0, [r0, split.middle], [split])
    assert len(hom_basis(r0, t.levels[1])) == 2
    assert uniserial_check(t) is False
    # the same split level on top of a genuine Y(2)
    good = tower(r0, sb0, 2)
    top = extension_middle(r0, good.levels[1], ExtCocycle.zero(r0, good.levels[1]))
    t3 = Tower(r0, sb0, list(good.levels) + [top.middle], list(good.sequences) + [top])
    assert uniserial_check(good) is True
    assert uniserial_check(t3) is False


def test_tower_refuses_levels_and_sequences_that_do_not_chain(r0, sb0):
    t = tower(r0, sb0, 3)
    r0_cubed = direct_sum([r0, r0, r0])[0]
    assert r0_cubed.dims == t.levels[-1].dims
    with pytest.raises(InvariantError, match="sequence 2 does not join level 2 to level 3"):
        Tower(r0, sb0, list(t.levels[:-1]) + [r0_cubed], t.sequences)
    with pytest.raises(InvariantError, match="3 tower levels need 2 sequences, got 1"):
        Tower(r0, sb0, t.levels, t.sequences[:-1])
    with pytest.raises(InvariantError, match="sequence 1 does not join level 1 to level 2"):
        Tower(r0, sb0, t.levels, t.sequences[::-1])
    for levels in ([], t.levels[1:]):
        with pytest.raises(InvariantError, match="must start at the base"):
            Tower(r0, sb0, levels, t.sequences[1:])


def test_tower_chain_cannot_be_changed_after_construction(r0, sb0):
    levels, sequences = [r0], []
    t = Tower(r0, sb0, levels, sequences)
    levels.append(r0)
    assert t.levels == (r0,) and t.sequences == ()
    grown = tower(r0, sb0, 3)
    with pytest.raises(AttributeError):
        grown.levels.append(r0)
    with pytest.raises(AttributeError):
        grown.sequences.append(grown.sequences[0])
    with pytest.raises(TypeError):
        grown.levels[2] = r0
    assert uniserial_check(grown) is True


@st.composite
def _uniserial_cases(draw):
    """A K2 tower of R_point, heights 1-6, over {R_point} or {R_point, R_other}:
    either ``tower``'s own, or hand-built with level i+1 the middle of a random
    class in Ext(X, Y(i)) for a drawn member X (the zero class splits)."""
    field, point = draw(_kronecker_point)
    base = quasi_simple(field, point)
    members = [base]
    if draw(st.booleans()):
        points = {"inf", field.zero, field.one, field.of(2)} - {point}
        members.append(quasi_simple(field, draw(st.sampled_from(sorted(points, key=str)))))
    sb = check_semibrick(members)
    height = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        return tower(base, sb, height)
    levels, sequences = [base], []
    while len(levels) < height:
        x = draw(st.sampled_from(members))
        space = ExtSpace(x, levels[-1])
        coords = draw(st.lists(field_scalar(field), min_size=space.dim, max_size=space.dim))
        sequences.append(extension_middle(x, levels[-1], space.from_coords(coords)))
        levels.append(sequences[-1].middle)
    return Tower(base, sb, levels, sequences)


@settings(max_examples=150, deadline=None)
@given(_uniserial_cases())
def test_uniserial_check_matches_every_quotient(t):
    verdict = uniserial_check(t)
    event(f"uniserial {verdict}")
    assert verdict == reference_uniserial(t)


def _restriction_reference(coords_of, incl, endo):
    """The restriction of one endomorphism along incl, one solve per vertex."""
    blocks = {}
    for v in incl.source.quiver.vertices:
        rhs = endo.blocks[v].mul(incl.blocks[v])
        sol = solve(incl.blocks[v], rhs)
        assert sol is not None and incl.blocks[v].mul(sol) == rhs
        blocks[v] = sol
    return coords_of(Morphism(incl.source, incl.source, blocks))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([0, 1, "inf"]),
    st.integers(min_value=2, max_value=5),
)
def test_restriction_coords_match_per_element_solve(field, point, height):
    base = quasi_simple(field, point if point == "inf" else field.of(point))
    t = tower(base, check_semibrick([base]), height)
    algebras = [end_algebra(level) for level in t.levels]
    for seq, small, big in zip(t.sequences, algebras, algebras[1:]):
        coords_of = end_coordinates(small.basis)
        got = _restriction_coords(coords_of, seq.incl, big.basis)
        assert got == [_restriction_reference(coords_of, seq.incl, e) for e in big.basis]


def test_restriction_coords_refuse_an_endomorphism_that_moves_the_sub(r0, monkeypatch):
    mm, injections, _ = direct_sum([r0, r0])
    coords_of = end_coordinates(hom_basis(r0, r0))
    # E21 sends the first summand onto the second
    with pytest.raises(InvariantError, match="does not preserve"):
        _restriction_coords(coords_of, injections[0], hom_basis(mm, mm))
    # the exact product check holds even if the solver returns a wrong answer
    monkeypatch.setattr(
        "quiverfilt.towers.solve", lambda a, b: Matrix.zeros(a.field, a.cols, b.cols)
    )
    with pytest.raises(InvariantError, match="does not preserve"):
        _restriction_coords(coords_of, injections[0], [Morphism.identity(mm)])


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
    for i in range(1, t.height):
        incl = t.inclusion(i, i + 1)
        classes, _ = ext_basis(r0, t.levels[i - 1])
        target = ExtSpace(r0, t.levels[i])
        for e in classes:
            assert target.is_zero_class(e.pushed_forward(incl))
