"""Hom spaces, Ext cocycles, short exact sequences, pullback/pushout calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverfilt import (
    GF,
    QQ,
    ExtCocycle,
    ExtSpace,
    Morphism,
    Rep,
    ShortExactSequence,
    check_semibrick,
    cocycle_of,
    compose,
    connecting_map,
    direct_sum,
    ext_basis,
    extension_middle,
    hom_basis,
    image,
    is_split,
    kronecker,
    linear_quiver,
    pullback,
    pushout,
    quasi_simple,
    ses_equivalence_witness,
    ses_equivalent,
    standard_module,
    universal_sequence,
)
from quiverfilt import homext
from quiverfilt.bricks import _MODULAR_PRIME
from quiverfilt.errors import InvariantError, UndecidedError
from quiverfilt.homext import (
    _check_intertwines,
    _intertwine_rows,
    _phi_rows,
    pullback_with_map,
    pushout_with_map,
)
from quiverfilt.linalg import (
    Matrix,
    _rows,
    _sparse_echelon,
    forward_echelon,
    inverse,
    is_invertible,
    mat_from_cols,
    rank,
    solve,
    sparse_rank,
)
from quiverfilt.reps import linear_combination

from conftest import (
    columns_contained,
    draw_rep,
    field_scalar,
    make_x11,
    reference_ext,
    reference_hom_basis,
    reference_intertwine_matrix,
    reference_nullspace,
)


def x_k3():
    return make_x11(kronecker(3), QQ, [1, 0, 0])


# ---------------------------------------------------------------------------
# hom_basis frozen values


def test_hom_simple_endos(k2):
    s1 = standard_module(k2, QQ, "simple", 1)
    assert len(hom_basis(s1, s1)) == 1


def test_hom_projective_to_projective(k2):
    p1 = standard_module(k2, QQ, "projective", 1)
    p2 = standard_module(k2, QQ, "projective", 2)
    # Hom(P(v), M) is the vertex space M_v; here dim 2
    assert len(hom_basis(p1, p2)) == 2


def test_hom_distinct_quasi_simples_empty(r0, r1):
    assert hom_basis(r0, r1) == []


def test_hom_mismatched_inputs(r0, k3):
    other = make_x11(k3, QQ, [1, 0, 0])
    with pytest.raises(InvariantError):
        hom_basis(r0, other)


# ---------------------------------------------------------------------------
# ext_basis frozen values


def test_ext_wild_brick(k3):
    classes, _ = ext_basis(x_k3(), x_k3())
    assert len(classes) == 2  # r - 1


def test_ext_projective_source_empty(k2, r0):
    p1 = standard_module(k2, QQ, "projective", 1)
    assert ext_basis(p1, r0)[0] == []
    assert ext_basis(p1, p1)[0] == []


def test_ext_self_extension_quasi_simple(r0):
    classes, _ = ext_basis(r0, r0)
    assert len(classes) == 1


def test_ext_k4_brick(k4):
    x = make_x11(k4, QQ, [1, 0, 0, 0])
    assert len(ext_basis(x, x)[0]) == 3


def test_ext_into_projective(k2, r0):
    p1 = standard_module(k2, QQ, "projective", 1)
    assert len(ext_basis(r0, p1)[0]) == 1


def test_ext_space_reduction(r0):
    sp = ExtSpace(r0, r0)
    basis = sp.basis()
    assert len(basis) == sp.dim == 1
    e = basis[0]
    assert not sp.is_zero_class(e)
    assert sp.is_zero_class(e.add(e.scale(QQ.of(-1))))
    assert sp.same_class(e, e.add(ExtCocycle.zero(r0, r0)))


# ---------------------------------------------------------------------------
# extension_middle and cocycle_of


def test_extension_middle_zero_cocycle_splits(r0, r1):
    ses = extension_middle(r0, r1, ExtCocycle.zero(r0, r1))
    assert is_split(ses)
    s, _, _ = direct_sum([r1, r0])
    from quiverfilt import is_isomorphic

    assert is_isomorphic(ses.middle, s)[0]


def test_extension_middle_nonsplit_k2(r0):
    e = ext_basis(r0, r0)[0][0]
    ses = extension_middle(r0, r0, e)
    assert ses.middle.dim_vector() == {1: 2, 2: 2}
    assert not is_split(ses)
    # Hom-property shadow: every map R_0 -> middle lands inside the sub copy
    sub_cols = {v: ses.incl.blocks[v] for v in (1, 2)}
    for f in hom_basis(r0, ses.middle):
        for v in (1, 2):
            assert columns_contained(f.blocks[v], sub_cols[v])


def test_extension_middle_nonsplit_k3():
    x = x_k3()
    e = ext_basis(x, x)[0][0]
    ses = extension_middle(x, x, e)
    assert ses.middle.dim_vector() == {1: 2, 2: 2}
    assert not is_split(ses)


def test_cocycle_of_round_trip(r0):
    sp = ExtSpace(r0, r0)
    e = sp.basis()[0]
    ses = extension_middle(r0, r0, e)
    assert sp.same_class(cocycle_of(ses), e)
    split = extension_middle(r0, r0, ExtCocycle.zero(r0, r0))
    assert sp.is_zero_class(cocycle_of(split))


def test_cocycle_of_universal_nonzero(r0):
    sb = check_semibrick([r0])
    ses = universal_sequence(r0, sb)
    sp = ExtSpace(ses.quot, r0)
    assert not sp.is_zero_class(cocycle_of(ses))


# ---------------------------------------------------------------------------
# pullback / pushout


def test_pullback_identity_and_zero(r0):
    e = ext_basis(r0, r0)[0][0]
    ses = extension_middle(r0, r0, e)
    assert ses_equivalent(pullback(ses, Morphism.identity(r0)), ses)
    pulled_zero = pullback(ses, Morphism.zero(r0, r0))
    assert is_split(pulled_zero)


def test_pullback_end_action(r0):
    sb = check_semibrick([r0])
    ses = universal_sequence(r0, sb)
    gen = hom_basis(ses.quot, ses.quot)[0]
    pulled = pullback(ses, gen)
    sp = ExtSpace(ses.quot, r0)
    assert sp.same_class(cocycle_of(pulled), cocycle_of(ses).pulled_back(gen))


def test_pushout_identity_and_zero(r0):
    e = ext_basis(r0, r0)[0][0]
    ses = extension_middle(r0, r0, e)
    assert ses_equivalent(pushout(ses, Morphism.identity(r0)), ses)
    assert is_split(pushout(ses, Morphism.zero(r0, r0)))


def test_pushout_stacking_matches_extension_middle():
    """Pushing the direct sum of basis sequences along the codiagonal equals
    realizing the stacked cocycle directly."""
    x = x_k3()
    e1, e2 = ext_basis(x, x)[0]
    s1 = extension_middle(x, x, e1)
    s2 = extension_middle(x, x, e2)
    subsum, _, _ = direct_sum([x, x])
    quotsum, _, _ = direct_sum([s1.quot, s2.quot])
    midsum, _, _ = direct_sum([s1.middle, s2.middle])
    # assemble the summed sequence blockwise
    import quiverfilt.linalg as la

    f = QQ
    incl_blocks = {}
    proj_blocks = {}
    for v in x.quiver.vertices:
        z01 = la.Matrix.zeros(f, s1.middle.dims[v], x.dims[v])
        z10 = la.Matrix.zeros(f, s2.middle.dims[v], x.dims[v])
        incl_blocks[v] = la.vstack(
            [la.hstack([s1.incl.blocks[v], z01]), la.hstack([z10, s2.incl.blocks[v]])]
        )
        z01q = la.Matrix.zeros(f, s1.quot.dims[v], s2.middle.dims[v])
        z10q = la.Matrix.zeros(f, s2.quot.dims[v], s1.middle.dims[v])
        proj_blocks[v] = la.vstack(
            [la.hstack([s1.proj.blocks[v], z01q]), la.hstack([z10q, s2.proj.blocks[v]])]
        )
    summed = ShortExactSequence(
        subsum,
        midsum,
        quotsum,
        Morphism(subsum, midsum, incl_blocks),
        Morphism(midsum, quotsum, proj_blocks),
    )
    # codiagonal X + X -> X as sum of the two projections
    _, _, projs = direct_sum([x, x])
    codiag = linear_combination(projs, [f.of(1), f.of(1)])
    pushed = pushout(summed, codiag)
    stacked = ExtCocycle(
        quotsum,
        x,
        {
            aid: la.hstack([e1.components[aid], e2.components[aid]])
            for aid, _, _ in x.quiver.arrows
        },
    )
    sp = ExtSpace(quotsum, x)
    assert sp.same_class(cocycle_of(pushed), stacked)


# ---------------------------------------------------------------------------
# connecting map, is_split, equivalence


def test_connecting_map_split_zero(r0, r1):
    ses = extension_middle(r0, r1, ExtCocycle.zero(r0, r1))
    delta = connecting_map(ses, r0)
    assert delta.is_zero()


def test_connecting_map_universal_k2(r0):
    sb = check_semibrick([r0])
    ses = universal_sequence(r0, sb)
    delta = connecting_map(ses, r0)
    assert delta.shape == (1, 1) and is_invertible(delta)


def test_connecting_map_universal_k3():
    x = x_k3()
    sb = check_semibrick([x])
    ses = universal_sequence(x, sb)
    delta = connecting_map(ses, x)
    assert delta.shape == (2, 2) and is_invertible(delta)


def test_is_split_frozen(r0, r1, k2):
    assert is_split(extension_middle(r0, r0, ExtCocycle.zero(r0, r0)))
    e = ext_basis(r0, r0)[0][0]
    assert not is_split(extension_middle(r0, r0, e))
    # forced split: Ext(quot, sub) = 0
    s2 = standard_module(k2, QQ, "simple", 2)
    assert ExtSpace(r0, s2).dim == 0
    assert is_split(extension_middle(r0, s2, ExtCocycle.zero(r0, s2)))


def test_ses_equivalent_reflexive_and_distinguishes(r0):
    e = ext_basis(r0, r0)[0][0]
    nonsplit = extension_middle(r0, r0, e)
    split = extension_middle(r0, r0, ExtCocycle.zero(r0, r0))
    assert ses_equivalent(nonsplit, nonsplit)
    assert not ses_equivalent(split, nonsplit)
    assert not ses_equivalent(nonsplit, split)


def test_ses_equivalent_across_basis_rescale(r0):
    sb = check_semibrick([r0])
    top = universal_sequence(r0, sb)
    # a rescaled Ext-basis choice realizes an equivalent sequence
    e = cocycle_of(top)
    bottom = extension_middle(top.quot, r0, e.scale(QQ.of(7)))
    assert ses_equivalent(top, bottom)
    f, g = ses_equivalence_witness(top, bottom)
    assert compose(top.incl, f) == bottom.incl
    assert compose(f, bottom.proj) == compose(top.proj, g)


def test_ses_equivalence_of_zero_sequences(k2):
    z = Rep.zero(k2, QQ)
    ses = extension_middle(z, z, ExtCocycle.zero(z, z))
    f, g = ses_equivalence_witness(ses, ses)
    assert f == Morphism.zero(z, z) and g == Morphism.identity(z)
    assert is_split(ses)


def test_ses_equivalent_refuses_inconclusive_search():
    # quot = R0 + R0 over GF(1009): the endomorphisms matching the split class
    # form a 2-dimensional family with no automorphism, and 1009^2 candidates
    # exceed the search cap, so the negative answer cannot be certified
    r = quasi_simple(GF(1009), 0)
    quot, _, _ = direct_sum([r, r])
    split = extension_middle(quot, r, ExtCocycle.zero(quot, r))
    nonsplit = extension_middle(quot, r, ExtSpace(quot, r).basis()[0])
    with pytest.raises(UndecidedError):
        ses_equivalent(split, nonsplit)
    with pytest.raises(UndecidedError):
        ses_equivalence_witness(split, nonsplit)


def test_ses_equivalence_requires_matching_ends(r0, r1):
    e = ext_basis(r0, r0)[0][0]
    a = extension_middle(r0, r0, e)
    e2 = ext_basis(r1, r1)[0][0]
    b = extension_middle(r1, r1, e2)
    with pytest.raises(InvariantError):
        ses_equivalence_witness(a, b)


def test_pullback_pushout_with_map_naturality(r0):
    """The canonical comparison maps of pullback/pushout commute as required."""
    e = ext_basis(r0, r0)[0][0]
    ses = extension_middle(r0, r0, e)
    phi = hom_basis(r0, r0)[0]
    pulled, nat = pullback_with_map(ses, phi)
    # nat: pulled.middle -> ses.middle covers phi on quotients
    assert compose(nat, ses.proj) == compose(pulled.proj, phi)
    pushed, nat2 = pushout_with_map(ses, phi)
    assert compose(ses.incl, nat2) == compose(phi, pushed.incl)


# ---------------------------------------------------------------------------
# Euler identity property (drives criterion 1 at unit scale)

_scalar = st.integers(min_value=-2, max_value=2)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_scalar, min_size=2, max_size=2),
    st.lists(_scalar, min_size=2, max_size=2),
)
def test_euler_identity_on_kronecker_pairs(s1, s2):
    from quiverfilt import euler_form

    k2 = kronecker(2)
    m = make_x11(k2, QQ, s1)
    n = make_x11(k2, QQ, s2)
    hom = len(hom_basis(m, n))
    ext = len(ext_basis(m, n)[0])
    assert hom - ext == euler_form(k2, m.dim_vector(), n.dim_vector())


def _has_retraction(ses):
    """Reference split test: some r in hom_basis(middle, sub) with incl then r = id."""
    f = ses.sub.field

    def flat(m):
        return [x for v in m.source.quiver.vertices for x in m.blocks[v].entries]

    ident = flat(Morphism.identity(ses.sub))
    cols = [flat(compose(ses.incl, r)) for r in hom_basis(ses.middle, ses.sub)]
    lhs = mat_from_cols(f, len(ident), cols)
    return solve(lhs, Matrix(f, len(ident), 1, ident)) is not None


def _random_matrix(rng, f, rows, cols):
    return Matrix(f, rows, cols, [f.of(rng.randint(-2, 2)) for _ in range(rows * cols)])


def _random_rep(rng, quiver, f):
    dims = {v: rng.randint(0, 3) for v in quiver.vertices}
    maps = {aid: _random_matrix(rng, f, dims[t], dims[s]) for aid, s, t in quiver.arrows}
    return Rep(quiver, f, dims, maps)


def _random_ses(rng, quiver, f, split):
    """A random extension, in a random basis of its middle.

    With ``split`` the cocycle is the coboundary of random blocks
    F_v : quot_v -> sub_v, so the class is zero; otherwise it is random.
    """
    sub, quot = _random_rep(rng, quiver, f), _random_rep(rng, quiver, f)
    if split:
        fb = {v: _random_matrix(rng, f, sub.dims[v], quot.dims[v]) for v in quiver.vertices}
        comps = {
            aid: fb[t].mul(quot.arrow_maps[aid]).sub(sub.arrow_maps[aid].mul(fb[s]))
            for aid, s, t in quiver.arrows
        }
    else:
        comps = {
            aid: _random_matrix(rng, f, sub.dims[t], quot.dims[s])
            for aid, s, t in quiver.arrows
        }
    ses = extension_middle(quot, sub, ExtCocycle(quot, sub, comps))
    change = {}
    for v in quiver.vertices:
        g = _random_matrix(rng, f, ses.middle.dims[v], ses.middle.dims[v])
        while not is_invertible(g):
            g = _random_matrix(rng, f, g.rows, g.cols)
        change[v] = g
    inv = {v: inverse(g) for v, g in change.items()}
    maps = {
        aid: change[t].mul(ses.middle.arrow_maps[aid]).mul(inv[s])
        for aid, s, t in quiver.arrows
    }
    middle = Rep(quiver, f, ses.middle.dims, maps)
    incl = Morphism(sub, middle, {v: change[v].mul(ses.incl.blocks[v]) for v in change})
    proj = Morphism(middle, quot, {v: ses.proj.blocks[v].mul(inv[v]) for v in change})
    return ShortExactSequence(sub, middle, quot, incl, proj)


def test_split_iff_zero_class():
    """``is_split`` (the zero test of the Ext class) against a retraction search."""
    rng = random.Random(5151)
    verdicts = {True: 0, False: 0}
    for quiver in (kronecker(2), kronecker(3), linear_quiver(3)):
        for f in (QQ, GF(2), GF(101)):
            for trial in range(10):
                ses = _random_ses(rng, quiver, f, split=trial % 3 == 0)
                verdict = is_split(ses)
                assert verdict == _has_retraction(ses), (quiver.name, f, trial)
                if trial % 3 == 0:
                    assert verdict
                verdicts[verdict] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 15, verdicts


def _random_hom(rng, m, n):
    """A random combination of hom_basis(m, n); zero about a fifth of the time."""
    basis = hom_basis(m, n)
    if not basis or rng.random() < 0.2:
        return Morphism.zero(m, n)
    return linear_combination(basis, [m.field.of(rng.randint(-3, 3)) for _ in basis])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([kronecker(3), linear_quiver(3)]),
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.randoms(use_true_random=False),
)
def test_pullback_pushout_squares_commute_and_classes_follow(quiver, field, rng):
    """Both squares of each result commute, and its class is the moved cocycle's.

    W is half the time a direct sum with the quotient (or the sub), so that
    f and g are often nonzero.
    """
    ses = _random_ses(rng, quiver, field, split=rng.random() < 0.2)
    e = cocycle_of(ses)
    w = _random_rep(rng, quiver, field)
    if rng.random() < 0.5:
        w = direct_sum([w, ses.quot])[0]
    f = _random_hom(rng, w, ses.quot)
    pulled, nat = pullback_with_map(ses, f)
    assert (pulled.sub, pulled.quot) == (ses.sub, w)
    assert compose(pulled.incl, nat) == ses.incl
    assert compose(nat, ses.proj) == compose(pulled.proj, f)
    assert ExtSpace(w, ses.sub).same_class(cocycle_of(pulled), e.pulled_back(f))
    w = _random_rep(rng, quiver, field)
    if rng.random() < 0.5:
        w = direct_sum([ses.sub, w])[0]
    g = _random_hom(rng, ses.sub, w)
    pushed, nat = pushout_with_map(ses, g)
    assert (pushed.sub, pushed.quot) == (w, ses.quot)
    assert compose(ses.incl, nat) == compose(g, pushed.incl)
    assert compose(nat, pushed.proj) == ses.proj
    assert ExtSpace(ses.quot, w).same_class(cocycle_of(pushed), e.pushed_forward(g))


def test_short_exact_sequence_rejects_each_broken_condition(r0):
    s, injs, projs = direct_sum([r0, r0])
    zero = Rep.zero(r0.quiver, r0.field)
    ShortExactSequence(r0, s, r0, injs[0], projs[1])
    cases = [
        ((r0, s, r0, Morphism.zero(r0, s), projs[1]), "inclusion is not injective"),
        ((r0, s, r0, injs[0], Morphism.zero(s, r0)), "projection is not surjective"),
        ((r0, s, r0, injs[0], projs[0]), "composite sub -> quot is nonzero"),
        ((zero, s, r0, Morphism.zero(zero, s), projs[1]), "dimension count fails exactness"),
    ]
    for args, message in cases:
        with pytest.raises(InvariantError, match=message):
            ShortExactSequence(*args)


_wide_denominators = st.one_of(
    st.just(QQ.zero),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=1, max_value=2**40),
    ),
)

_phi_scalars = {
    QQ: _wide_denominators,
    GF(2): field_scalar(GF(2)),
    GF(101): field_scalar(GF(101)),
}

_phi_cases = (
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.sampled_from(list(_phi_scalars)),
    st.data(),
)


def _draw_phi_pair(data, quiver, field):
    """Two random reps with dims 0..3, over QQ with denominators up to 2^40."""
    scalar = _phi_scalars[field]
    return [draw_rep(data, quiver, field, max_dim=3, scalar=scalar) for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(*_phi_cases)
def test_intertwine_matrix_matches_reference(quiver, field, data):
    """``_phi_rows`` are the raw rows the row kernels read off the reference
    Phi: its entries over GF(p); over QQ its integer form, the entries times
    the lcm of their denominators, also where a zero-dimensional vertex keeps
    an arrow map's denominators out of Phi."""
    m, n = _draw_phi_pair(data, quiver, field)
    got = _phi_rows(m, n)
    assert got == _rows(reference_intertwine_matrix(m, n))
    assert all(type(x) is int for row in got for x in row)


@settings(max_examples=100, deadline=None)
@given(*_phi_cases)
def test_hom_basis_matches_the_reference_kernel(quiver, field, data):
    """``hom_basis`` against the kernel of the reference Phi read off its
    rref, each vector cut into per-vertex blocks in vertex order."""
    m, n = _draw_phi_pair(data, quiver, field)
    want = []
    for vec in reference_nullspace(reference_intertwine_matrix(m, n)):
        entries, off, blocks = vec.col(0), 0, {}
        for v in quiver.vertices:
            r, c = n.dims[v], m.dims[v]
            blocks[v] = Matrix(field, r, c, entries[off : off + r * c])
            off += r * c
        want.append(blocks)
    assert [f.blocks for f in hom_basis(m, n)] == want


def _reduced_mod(m, p):
    """m over QQ with its arrow maps reduced into GF(p)."""
    f = GF(p)
    maps = {aid: Matrix(f, a.rows, a.cols, [f.of(x) for x in a.entries])
            for aid, a in m.arrow_maps.items()}
    return Rep(m.quiver, f, m.dims, maps)


def _sparse_rank_input(data, quiver, field):
    """A random rep, one with zero arrow maps, or a direct sum of two; on K2
    the sums are R_lambda + R_mu with lambda = mu allowed, so End has dim 2 or 4."""
    kind = data.draw(st.sampled_from(["random", "zero maps", "direct sum"]))
    if kind == "random":
        return draw_rep(data, quiver, field, max_dim=3)
    if kind == "zero maps":
        return draw_rep(data, quiver, field, max_dim=3, scalar=st.just(field.zero))
    if quiver == kronecker(2):
        extra = {QQ: [-2, Fraction(1, 3)], GF(2): [], GF(101): [5]}[field]
        points = st.sampled_from([0, 1, "inf"] + extra)
        parts = [quasi_simple(field, data.draw(points)) for _ in range(2)]
    else:
        parts = [draw_rep(data, quiver, field, max_dim=2) for _ in range(2)]
    return direct_sum(parts)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.data(),
)
def test_sparse_rank_of_phi_rows_matches_dense_rank(field, quiver, data):
    """``sparse_rank`` of Phi's item rows against ``rank`` of the dense Phi,
    over GF(p) and over QQ reduced modulo 2^31 - 1; the sparse pivots are
    those of forward elimination, and the item rows written out are Phi's rows."""
    m = _sparse_rank_input(data, quiver, field)
    n = m if data.draw(st.booleans()) else _sparse_rank_input(data, quiver, field)
    if field == QQ:
        qq_rank = rank(reference_intertwine_matrix(m, n))
        m, n = _reduced_mod(m, _MODULAR_PRIME), _reduced_mod(n, _MODULAR_PRIME)
    p = m.field.characteristic
    phi = reference_intertwine_matrix(m, n)
    rows = _intertwine_rows(m, n)
    assert len(rows) == phi.rows
    for i, items in enumerate(rows):
        written = [0] * phi.cols
        for j, x in items:
            assert x and not written[j]
            written[j] = x
        assert written == phi.row(i)
    got = sparse_rank(rows, p)
    assert got == rank(phi)
    assert sorted(_sparse_echelon(rows, p)) == list(forward_echelon(phi))
    assert got == phi.cols - len(hom_basis(m, n))
    if field == QQ:
        assert got <= qq_rank


@settings(max_examples=150, deadline=None)
@given(*_phi_cases)
def test_ext_space_matches_the_rref_reference(quiver, field, data):
    """``ExtSpace`` from one forward elimination against the full rref of
    Phi^T: the same dimensions, basis cocycles and reduced coordinates of
    random cocycles, zero-dimensional vertices included."""
    scalar = _phi_scalars[field]
    m, n = _draw_phi_pair(data, quiver, field)
    space, ref = ExtSpace(m, n), reference_ext(m, n)
    assert (space.dim, space.coboundary_rank) == (ref.dim, ref.coboundary_rank)
    got = space.basis()
    assert [c.components for c in got] == [c.components for c in ref.basis]
    assert [space.reduce(c) for c in got] == [ref.reduce(c) for c in got]
    for _ in range(3):
        comps = {}
        for aid, s, t in quiver.arrows:
            k = n.dims[t] * m.dims[s]
            entries = data.draw(st.lists(scalar, min_size=k, max_size=k))
            comps[aid] = Matrix(field, n.dims[t], m.dims[s], entries)
        c = ExtCocycle(m, n, comps)
        assert space.reduce(c) == ref.reduce(c)


_huge_scalars = st.one_of(
    st.just(QQ.zero),
    st.integers(min_value=-3, max_value=3).map(QQ.of),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=2**70),
    ),
)

_hom_scalars = {QQ: _huge_scalars, **{GF(p): field_scalar(GF(p)) for p in (2, 5, 101)}}


def _twisted(data, m, scalar):
    """m with the basis at each vertex changed by a random unitriangular g_v,
    its entries above the diagonal drawn from ``scalar``."""
    f, g = m.field, {}
    for v, d in m.dims.items():
        rows = [[f.one if i == j else f.zero for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                rows[i][j] = data.draw(scalar)
        g[v] = Matrix(f, d, d, [x for row in rows for x in row])
    maps = {aid: g[t].mul(m.arrow_maps[aid]).mul(inverse(g[s])) for aid, s, t in m.quiver.arrows}
    return Rep(m.quiver, f, m.dims, maps)


def _draw_hom_pair(data, quiver, field):
    """M with dims 0..3 and N != M in general: a random rep, M in a random
    change of basis, M plus a random rep, or a rep with zero arrow maps.
    Over QQ entries have numerators and denominators up to 2^70."""
    scalar = _hom_scalars[field]
    m = draw_rep(data, quiver, field, max_dim=3, scalar=scalar)
    kind = data.draw(st.sampled_from(["random", "twisted", "sum", "zero maps"]))
    if kind == "twisted":
        return m, _twisted(data, m, scalar)
    if kind == "sum":
        return m, direct_sum([m, draw_rep(data, quiver, field, max_dim=1, scalar=scalar)])[0]
    if kind == "zero maps":
        scalar = st.just(field.zero)
    return m, draw_rep(data, quiver, field, max_dim=3, scalar=scalar)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.sampled_from(list(_hom_scalars)),
    st.data(),
)
def test_hom_basis_matches_the_per_element_validated_reference(quiver, field, data):
    """``hom_basis``, checked once per basis and built trusted, against
    ``reference_hom_basis``, which validates each element through
    ``Morphism(...)``: the same elements, entry for entry and of the same
    type, each of which ``Morphism(...)`` accepts."""
    m, n = _draw_hom_pair(data, quiver, field)
    got, want = hom_basis(m, n), reference_hom_basis(m, n)
    assert len(got) == len(want)
    for h, ref in zip(got, want):
        assert h.source is m and h.target is n
        for v in quiver.vertices:
            assert h.blocks[v].shape == ref.blocks[v].shape
            typed = [(type(x), x) for x in h.blocks[v].entries]
            assert typed == [(type(x), x) for x in ref.blocks[v].entries]
        Morphism(m, n, h.blocks)


def _r0_sum(field, copies):
    """R_0 summed ``copies`` times on K2: dims (copies, copies) and arrow maps
    (I, 0), so Phi has 2 copies^2 columns and rows of at most 2 copies
    entries.  One copy puts Phi on the dense side of ``_SPARSE_RATIO``, 8 on
    the sparse side."""
    return direct_sum([quasi_simple(field, field.of(0))] * copies)[0]


def _huge_hom_pair(field, copies):
    """``_r0_sum`` with 2 or 8 copies and a change of basis of it by entries
    2^70, so that over QQ its Hom basis (dim copies^2) has entries of 2^70
    and more."""
    m = _r0_sum(field, copies)
    big = field.of(2**70)
    g = {v: Matrix.identity(field, copies).to_rows() for v in (1, 2)}
    g[1][0][1] = g[2][1][0] = big
    g = {v: Matrix.from_rows(field, rows) for v, rows in g.items()}
    maps = {aid: g[t].mul(m.arrow_maps[aid]).mul(inverse(g[s])) for aid, s, t in m.quiver.arrows}
    return m, Rep(m.quiver, field, m.dims, maps)


def _dense_and_sparse(fields, dense, sparse):
    """``(field, copies)`` parameters: each field with ``dense`` copies of R_0,
    id ``field<i>``, then with ``sparse`` copies, id ``field<i>-sparse``."""
    return [pytest.param(f, c, id=f"field{i}{suffix}")
            for c, suffix in ((dense, ""), (sparse, "-sparse")) for i, f in enumerate(fields)]


def _spy_on_sparse_path(monkeypatch) -> list:
    """Record each call of ``hom_basis``'s sparse elimination in the list returned."""
    real, calls = homext._sparse_echelon, []

    def spy(rows, p):
        calls.append(p)
        return real(rows, p)

    monkeypatch.setattr(homext, "_sparse_echelon", spy)
    return calls


@pytest.mark.parametrize("field, copies", _dense_and_sparse([QQ, GF(5), GF(101)], 2, 8))
def test_hom_basis_refuses_a_kernel_entry_off_by_one(field, copies, monkeypatch):
    """One integer kernel entry off by one, at a pivot column (whose column of
    Phi is nonzero), makes ``hom_basis`` raise instead of returning a
    non-morphism; unperturbed, the same basis passes.  Phi is eliminated
    densely with 2 copies of R_0 and sparsely with 8."""
    sparse_calls = _spy_on_sparse_path(monkeypatch)
    m, n = _huge_hom_pair(field, copies)
    assert len(hom_basis(m, n)) == copies**2
    assert bool(sparse_calls) == (copies == 8)
    real = homext._row_kernel_forms
    seen = []

    def off_by_one(solved, free, ncols, p):
        forms = real(solved, free, ncols, p)
        seen.append(max(abs(x) for ints, _ in forms for x in ints))
        ints, den = forms[-1]
        pc = min(set(range(ncols)) - set(free))
        bumped = list(ints)
        bumped[pc] = (bumped[pc] + 1) % p if p else bumped[pc] + 1
        return forms[:-1] + [(bumped, den)]

    monkeypatch.setattr(homext, "_row_kernel_forms", off_by_one)
    with pytest.raises(InvariantError, match="does not intertwine"):
        hom_basis(m, n)
    assert len(seen) == 1
    if field == QQ:
        assert seen[0] >= 2**70


@pytest.mark.parametrize("field, copies", _dense_and_sparse([QQ, GF(101)], 1, 8))
def test_hom_basis_check_does_not_read_phi(field, copies, monkeypatch):
    """With one segment of Phi's rows negated, the kernel holds a vector that
    is no morphism; the check, which reads the arrow maps and not Phi, makes
    ``hom_basis`` raise.  Phi is eliminated densely for R_0 and sparsely for
    8 copies of it."""
    sparse_calls = _spy_on_sparse_path(monkeypatch)
    real = homext._intertwine_segments

    def negate_first(m, n, blocks):
        segments = real(m, n, blocks)
        t_first, t_vals, s_first, s_vals, stride = next(segments)
        yield t_first, [-x for x in t_vals], s_first, s_vals, stride
        yield from segments

    m = _r0_sum(field, copies)
    assert m.arrow_maps["a1"] == Matrix.identity(field, copies)
    basis = hom_basis(m, m)
    assert bool(sparse_calls) == (copies == 8)
    assert len(basis) == copies**2
    if copies == 1:
        assert [h.blocks for h in basis] == [Morphism.identity(m).blocks]
    monkeypatch.setattr(homext, "_intertwine_segments", negate_first)
    with pytest.raises(InvariantError, match="does not intertwine"):
        hom_basis(m, m)


def test_packed_check_needs_base_two_bound_plus_one():
    """On A2 over QQ with M = N = k, arrow map 1, a square's residual is
    F_1 - F_2 and its bound 2K, K the largest |entry|.  (K, -K) has residual
    2K and (0, 1) residual -1: packed in base 2K they would cancel, so the
    check's base must exceed 2 * bound.  The two vectors are refused, a
    genuine pair with entries 2^70 is accepted."""
    big = 2**70
    m = Rep(linear_quiver(2), QQ, {1: 1, 2: 1}, {"a1": Matrix.identity(QQ, 1)})
    with pytest.raises(InvariantError, match="does not intertwine"):
        _check_intertwines(m, m, [[big, -big], [0, 1]])
    _check_intertwines(m, m, [[big, big], [1, 1]])
