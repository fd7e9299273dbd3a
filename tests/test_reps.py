"""Representations, morphisms, sub/quotient machinery, standard modules."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quiverfilt import (
    GF,
    QQ,
    Matrix,
    Morphism,
    Rep,
    check_semibrick,
    cokernel,
    compose,
    direct_sum,
    hom_basis,
    image,
    is_isomorphic,
    kernel,
    kronecker,
    linear_quiver,
    quasi_simple,
    standard_module,
    subrep_from_spans,
    tower,
)
from quiverfilt.errors import InvariantError, UndecidedError
from quiverfilt.linalg import (
    _integer_multiple,
    column_space_pivots,
    hstack,
    inverse,
    nullspace_basis,
    quotient_map_free,
    rank,
    solve,
)
from quiverfilt.reps import factor_through_inclusion, linear_combination

from conftest import draw_rep, field_scalar, make_x11, reference_linear_combination


def mq(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


def test_rep_validates_shapes(k2):
    with pytest.raises(InvariantError):
        Rep(k2, QQ, {1: 1, 2: 1}, {"a1": mq([[1, 2]]), "a2": mq([[0]])})
    with pytest.raises(InvariantError):
        Rep(k2, QQ, {1: 1, 2: 1}, {"a1": mq([[1]])})  # missing arrow map


def test_rep_zero_and_dims(k2):
    z = Rep.zero(k2, QQ)
    assert z.dim_total == 0 and z.dim_vector() == {1: 0, 2: 0}
    r0 = quasi_simple(QQ, QQ.of(0))
    assert r0.dim_total == 2


def test_morphism_validates_intertwining(r0, r1):
    with pytest.raises(InvariantError) as exc:
        Morphism(r0, r1, {1: mq([[1]]), 2: mq([[1]])})
    assert "a2" in str(exc.value)  # names the offending arrow
    assert Morphism.identity(r0).is_isomorphism()
    assert Morphism.zero(r0, r1).is_injective() is False
    with pytest.raises(InvariantError):
        Morphism.zero(r0, standard_module(kronecker(3), QQ, "simple", 1))


def test_compose_order(r0):
    f = Morphism.identity(r0)
    g = f.scale(QQ.of(2))
    h = compose(f, g)  # f then g
    assert h.blocks[1] == mq([[2]])
    assert linear_combination([f, g], [QQ.of(1), QQ.of(1)]).blocks[1] == mq([[3]])


def test_direct_sum_block_structure(r0, r1):
    s, injs, projs = direct_sum([r0, r1])
    assert s.dim_vector() == {1: 2, 2: 2}
    assert s.arrow_maps["a2"] == mq([[0, 0], [0, 1]])  # scalars 0 and 1
    for i, part in enumerate((r0, r1)):
        assert compose(injs[i], projs[i]) == Morphism.identity(part)
    z = direct_sum([])[0] if False else Rep.zero(r0.quiver, QQ)
    assert z.dim_total == 0


def test_direct_sum_single_part(r0):
    s, injs, projs = direct_sum([r0])
    ok, wit = is_isomorphic(s, r0)
    assert ok


# frozen kernel/image/cokernel family: the unique map P(1) -> R_0


def _p1_to_r0(k2):
    p1 = standard_module(k2, QQ, "projective", 1)
    r0 = quasi_simple(QQ, QQ.of(0))
    basis = hom_basis(p1, r0)
    assert len(basis) == 1
    return basis[0]


def test_kernel_frozen(k2):
    f = _p1_to_r0(k2)
    assert kernel(f).sub.dim_vector() == {1: 0, 2: 0}
    assert kernel(Morphism.identity(f.source)).sub.dim_total == 0
    z = Morphism.zero(f.source, f.target)
    assert kernel(z).sub.dim_vector() == f.source.dim_vector()


def test_image_frozen(k2):
    f = _p1_to_r0(k2)
    assert image(f).sub.dim_vector() == {1: 1, 2: 0}
    assert image(Morphism.identity(f.target)).sub.dim_vector() == f.target.dim_vector()
    assert image(Morphism.zero(f.source, f.target)).sub.dim_total == 0


def test_cokernel_frozen(k2):
    f = _p1_to_r0(k2)
    quot, proj = cokernel(f)
    assert quot.dim_vector() == {1: 0, 2: 1}  # the simple at the source vertex
    assert proj.is_surjective()
    quot_id, _ = cokernel(Morphism.identity(f.source))
    assert quot_id.dim_total == 0


def test_cokernel_of_zero_map(r0, r1):
    quot, proj = cokernel(Morphism.zero(r0, r1))
    ok, _ = is_isomorphic(quot, r1)
    assert ok


def test_cokernel_refuses_an_image_that_is_not_arrow_stable(r0):
    # not a morphism: the image is k at vertex 2, which arrow a1 moves out of
    # the zero image at vertex 1
    f = Morphism._trusted(r0, r0, {1: mq([[0]]), 2: mq([[1]])})
    with pytest.raises(InvariantError, match="not well defined"):
        cokernel(f)


def _subrep_reference(ambient, spans):
    """Bases and arrow maps of subrep_from_spans, by one solve per arrow."""
    bases = {v: column_space_pivots(spans[v])[0] for v in ambient.quiver.vertices}
    maps = {}
    for aid, s, t in ambient.quiver.arrows:
        pushed = ambient.arrow_maps[aid].mul(bases[s])
        maps[aid] = solve(bases[t], pushed)
        assert maps[aid] is not None and bases[t].mul(maps[aid]) == pushed
    return bases, maps


def _cokernel_reference(f):
    """Projections and arrow maps of cokernel, by one solve per arrow."""
    projections = {
        v: quotient_map_free(column_space_pivots(f.blocks[v])[0])[0] for v in f.blocks
    }
    maps = {}
    for aid, s, t in f.target.quiver.arrows:
        rhs = projections[t].mul(f.target.arrow_maps[aid]).transpose()
        sol = solve(projections[s].transpose(), rhs)
        assert sol is not None
        maps[aid] = sol.transpose()
    return projections, maps


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(3), linear_quiver(3)]),
    st.data(),
)
def test_cokernel_image_kernel_match_solve_reference(field, quiver, data):
    m = draw_rep(data, quiver, field)
    n = m if data.draw(st.booleans()) else draw_rep(data, quiver, field)
    basis = hom_basis(m, n)
    coeffs = data.draw(st.lists(field_scalar(field), min_size=len(basis), max_size=len(basis)))
    f = linear_combination(basis, coeffs) if basis else Morphism.zero(m, n)
    quot, proj = cokernel(f)
    assert (proj.blocks, quot.arrow_maps) == _cokernel_reference(f)
    img = image(f)
    assert (img.inclusion.blocks, img.sub.arrow_maps) == _subrep_reference(n, f.blocks)
    spans = {}
    for v in quiver.vertices:
        vecs = nullspace_basis(f.blocks[v])
        spans[v] = hstack(vecs) if vecs else Matrix.zeros(field, m.dims[v], 0)
    ker = kernel(f)
    assert (ker.inclusion.blocks, ker.sub.arrow_maps) == _subrep_reference(m, spans)


def test_standard_modules(k2):
    assert standard_module(k2, QQ, "simple", 1).dim_vector() == {1: 1, 2: 0}
    assert standard_module(k2, QQ, "projective", 2).dim_vector() == {1: 2, 2: 1}
    assert standard_module(k2, QQ, "projective", 1).dim_vector() == {1: 1, 2: 0}
    assert standard_module(k2, QQ, "injective", 1).dim_vector() == {1: 1, 2: 2}
    a2 = linear_quiver(2)
    assert standard_module(a2, QQ, "injective", 2).dim_vector() == {1: 0, 2: 1}
    with pytest.raises(InvariantError):
        standard_module(k2, QQ, "flat", 1)


def test_subrep_from_spans(k2, r0):
    s, injs, projs = direct_sum([r0, r0])
    incl = subrep_from_spans(s, {1: mq([[1], [0]]), 2: mq([[1], [0]])})
    assert incl.sub.dim_vector() == {1: 1, 2: 1}
    # arrow-unstable spans must be rejected: on P(2) take the span missing
    # the image of the arrows at vertex 1
    p2 = standard_module(k2, QQ, "projective", 2)
    with pytest.raises(InvariantError, match="not stable under arrow"):
        subrep_from_spans(p2, {1: Matrix.zeros(QQ, 2, 0), 2: mq([[1]])})


@pytest.mark.parametrize(
    "field, points",
    [(QQ, (Fraction(1, 2), Fraction(1, 3))), (GF(2), (0, 1)), (GF(101), (2, 3))],
)
def test_morphism_refuses_every_block_entry_off_by_one(field, points):
    """On R_a + R_b (arrow a1 acts as the identity at both vertices) no map
    supported at one vertex is a morphism, so 1/7 times the identity with
    any one block entry moved by one is refused at arrow a1."""
    m = direct_sum([quasi_simple(field, field.of(c)) for c in points])[0]
    f = Morphism.identity(m).scale(field.of(Fraction(1, 7)))
    Morphism(m, m, f.blocks)
    for v in m.quiver.vertices:
        for i in range(len(f.blocks[v].entries)):
            entries = list(f.blocks[v].entries)
            entries[i] = field.add(entries[i], field.one)
            blocks = dict(f.blocks)
            blocks[v] = Matrix(field, 2, 2, entries)
            with pytest.raises(InvariantError, match="do not intertwine arrow 'a1'"):
                Morphism(m, m, blocks)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(2), linear_quiver(3)]),
    st.data(),
)
def test_subrep_from_spans_refuses_exactly_the_unstable_spans(field, quiver, data):
    """Spans of random columns, or the image of a random endomorphism (which
    is stable) with one entry moved by one: ``subrep_from_spans`` raises
    "not stable under arrow" iff some arrow a: s -> t takes the span at s
    out of the span at t, by ranks; otherwise it matches the solve
    reference."""
    m = draw_rep(data, quiver, field, max_dim=3)
    ends = hom_basis(m, m)
    if ends and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(field_scalar(field), min_size=len(ends), max_size=len(ends)))
        spans = dict(linear_combination(ends, coeffs).blocks)
        v = data.draw(st.sampled_from([v for v in quiver.vertices if m.dims[v]]))
        entries = list(spans[v].entries)
        i = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
        entries[i] = field.add(entries[i], field.one)
        spans[v] = Matrix(field, m.dims[v], m.dims[v], entries)
    else:
        spans = {}
        for v in quiver.vertices:
            k = data.draw(st.integers(min_value=1, max_value=2))
            n = m.dims[v] * k
            entries = data.draw(st.lists(field_scalar(field), min_size=n, max_size=n))
            spans[v] = Matrix(field, m.dims[v], k, entries)
    stable = all(
        rank(hstack([spans[t], m.arrow_maps[aid].mul(spans[s])])) == rank(spans[t])
        for aid, s, t in quiver.arrows
    )
    if stable:
        incl = subrep_from_spans(m, spans)
        assert (incl.inclusion.blocks, incl.sub.arrow_maps) == _subrep_reference(m, spans)
        Morphism(incl.sub, m, incl.inclusion.blocks)
    else:
        with pytest.raises(InvariantError, match="not stable under arrow"):
            subrep_from_spans(m, spans)


def test_factor_through_inclusion(k2, r0):
    s, injs, projs = direct_sum([r0, r0])
    incl = image(injs[0])
    fact = factor_through_inclusion(injs[0], incl)
    assert compose(fact, incl.inclusion) == injs[0]
    # a map that does not land in the subobject cannot factor
    with pytest.raises(InvariantError):
        factor_through_inclusion(injs[1], incl)


def test_is_isomorphic_basics(r0, r1):
    ok, wit = is_isomorphic(r0, r0)
    assert ok and wit.is_isomorphism()
    ok, wit = is_isomorphic(r0, r1)
    assert not ok and wit is None
    s, _, _ = direct_sum([r0, Rep.zero(r0.quiver, QQ)])
    ok, _ = is_isomorphic(s, r0)
    assert ok


def test_is_isomorphic_permuted_sum(r0, r1):
    a, _, _ = direct_sum([r0, r1])
    b, _, _ = direct_sum([r1, r0])
    ok, wit = is_isomorphic(a, b)
    assert ok and wit.is_isomorphism()


def test_is_isomorphic_dim_mismatch(r0, k2):
    p2 = standard_module(k2, QQ, "projective", 2)
    ok, wit = is_isomorphic(r0, p2)
    assert not ok


@pytest.mark.parametrize("field, k", [(QQ, 5), (GF(101), 3)])
def test_is_isomorphic_certified_negative_by_vertex_span(field, k):
    # Hom(R0^k, Y(k)) lands in the socle of Y(k), so the images span less
    # than Y(k) at each vertex; Hom(Y(k), R0^k) kills the radical Y(k-1),
    # so the kernels share a nonzero vector.  The grid search alone runs for
    # minutes over QQ with k = 5 and refuses over GF(101) with k = 3.
    r = quasi_simple(field, field.of(0))
    power, _, _ = direct_sum([r] * k)
    level = tower(r, check_semibrick([r]), k).levels[-1]
    assert is_isomorphic(power, level) == (False, None)
    assert is_isomorphic(level, power) == (False, None)


# properties: random morphisms on K_2 respect rank-nullity vertexwise

_scalar = st.integers(min_value=-3, max_value=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(_scalar, min_size=2, max_size=2), st.lists(_scalar, min_size=4, max_size=4))
def test_kernel_image_rank_nullity(scalars, coeffs):
    k2 = kronecker(2)
    x = make_x11(k2, QQ, scalars)
    s, injs, projs = direct_sum([x, x])
    basis = hom_basis(s, s)
    f = linear_combination(basis, [QQ.of(c) for c in coeffs[: len(basis)]] + [QQ.zero] * max(0, len(basis) - len(coeffs)))
    ker = kernel(f)
    img = image(f)
    for v in (1, 2):
        assert ker.sub.dims[v] + img.sub.dims[v] == s.dims[v]
    quot, proj = cokernel(f)
    for v in (1, 2):
        assert quot.dims[v] == s.dims[v] - img.sub.dims[v]


# properties: morphism arithmetic, built without re-validation, equals the
# same arithmetic done blockwise with Matrix operations, and every result
# still passes the full check in Morphism(...)

_arith_fields = st.sampled_from([QQ, GF(2), GF(101)])
_arith_quivers = st.sampled_from([kronecker(2), linear_quiver(3)])


def _reference_combination(source, target, basis, coeffs):
    blocks = {
        v: Matrix.zeros(source.field, target.dims[v], source.dims[v])
        for v in source.quiver.vertices
    }
    for c, b in zip(coeffs, basis):
        blocks = {v: blocks[v].add(b.blocks[v].scale(c)) for v in blocks}
    return blocks


@settings(max_examples=100, deadline=None)
@given(_arith_fields, _arith_quivers, st.data())
def test_trusted_arithmetic_matches_reference_and_validates(field, quiver, data):
    m = draw_rep(data, quiver, field)
    n = m if data.draw(st.booleans()) else draw_rep(data, quiver, field)
    basis = hom_basis(m, n)
    assume(basis)
    scalars = st.lists(field_scalar(field), min_size=len(basis), max_size=len(basis))
    coeffs = data.draw(scalars)
    combo = linear_combination(basis, coeffs)
    assert combo.source is m and combo.target is n
    other = linear_combination(basis, data.draw(scalars))
    c = data.draw(field_scalar(field))
    vertices = quiver.vertices
    cases = [
        (combo, _reference_combination(m, n, basis, coeffs)),
        (combo.add(other), {v: combo.blocks[v].add(other.blocks[v]) for v in vertices}),
        (combo.sub(other), {v: combo.blocks[v].sub(other.blocks[v]) for v in vertices}),
        (combo.scale(c), {v: combo.blocks[v].scale(c) for v in vertices}),
    ]
    ends = hom_basis(n, n)
    if ends:
        g = linear_combination(ends, data.draw(st.lists(
            field_scalar(field), min_size=len(ends), max_size=len(ends))))
        cases.append((compose(combo, g), {v: g.blocks[v].mul(combo.blocks[v]) for v in vertices}))
    if combo.is_isomorphism():
        inv = combo.inverse()
        cases.append((inv, {v: inverse(combo.blocks[v]) for v in vertices}))
        cases.append((compose(combo, inv), Morphism.identity(m).blocks))
    for result, expected in cases:
        assert result.blocks == expected
        Morphism(result.source, result.target, result.blocks)  # full validation accepts it


def _perturbed(f, v, i):
    """The blocks of f with entry i of the block at v moved by 1/7."""
    field = f.source.field
    entries = list(f.blocks[v].entries)
    entries[i] = field.add(entries[i], field.of(Fraction(1, 7)))
    blocks = dict(f.blocks)
    blocks[v] = Matrix(field, f.blocks[v].rows, f.blocks[v].cols, entries)
    return blocks


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_morphism_rejects_every_perturbed_hom_basis_entry(field):
    """Y(3) over R_2 is regular, so no single-entry map at one vertex is a
    morphism: every perturbed endomorphism must be refused."""
    base = quasi_simple(field, field.of(2))
    y3 = tower(base, check_semibrick([base]), 3).levels[-1]
    basis = hom_basis(y3, y3)
    assert len(basis) == 3
    for f in basis:
        Morphism(y3, y3, f.blocks)
        for v in y3.quiver.vertices:
            for i in range(len(f.blocks[v].entries)):
                with pytest.raises(InvariantError, match="do not intertwine"):
                    Morphism(y3, y3, _perturbed(f, v, i))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(101)]), _arith_quivers, st.data())
def test_morphism_check_matches_reference_on_perturbed_elements(field, quiver, data):
    m = draw_rep(data, quiver, field, max_dim=3)
    n = draw_rep(data, quiver, field, max_dim=3)
    basis = hom_basis(m, n)
    assume(basis)
    f = data.draw(st.sampled_from(basis))
    v = data.draw(st.sampled_from([v for v in quiver.vertices if f.blocks[v].entries] or [None]))
    assume(v is not None)
    blocks = _perturbed(f, v, data.draw(st.integers(0, len(f.blocks[v].entries) - 1)))
    intertwines = all(
        blocks[t].mul(m.arrow_maps[aid]) == n.arrow_maps[aid].mul(blocks[s])
        for aid, s, t in quiver.arrows
    )
    if intertwines:
        assert Morphism(m, n, blocks).blocks == blocks
    else:
        with pytest.raises(InvariantError):
            Morphism(m, n, blocks)


def _draw_coefficients(data, field, d):
    """Random canonical scalars (non-integer fractions over QQ, zeros), a
    single 1, a single -1, or all zero."""
    kind = data.draw(st.sampled_from(["random", "one", "minus one", "zero"]))
    if kind == "random":
        return data.draw(st.lists(field_scalar(field), min_size=d, max_size=d))
    coeffs = [field.zero] * d
    if kind != "zero":
        coeffs[data.draw(st.integers(min_value=0, max_value=d - 1))] = field.of(
            1 if kind == "one" else -1
        )
    return coeffs


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([QQ, GF(5), GF(101)]),
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.data(),
)
def test_linear_combination_matches_the_entrywise_reference(field, quiver, data):
    """Combinations of a random hom basis against the entrywise loop; over QQ
    each block is born with the integer form its entries give."""
    m, n = (draw_rep(data, quiver, field, max_dim=3) for _ in range(2))
    basis = hom_basis(m, n)
    assume(basis)
    coeffs = _draw_coefficients(data, field, len(basis))
    got = linear_combination(basis, coeffs)
    assert got.blocks == reference_linear_combination(basis, coeffs)
    for block in got.blocks.values():
        if field.characteristic:
            assert all(type(x) is int and 0 <= x < field.characteristic for x in block.entries)
        else:
            assert all(type(x) is Fraction for x in block.entries)
            assert block._integer_form() == _integer_multiple(block.entries)


def test_linear_combination_rejects_mismatched_endpoints(r0, r1):
    mixed = [Morphism.identity(r0), Morphism.identity(r1)]
    with pytest.raises(InvariantError, match="common source and target"):
        linear_combination(mixed, [QQ.one, QQ.one])
    with pytest.raises(InvariantError):
        linear_combination([], [])
    with pytest.raises(InvariantError):
        linear_combination(mixed[:1], [QQ.one, QQ.one])
