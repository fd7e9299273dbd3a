"""Endomorphism algebras, brick certification, semi-brick checking."""

import functools
import itertools
import os
from dataclasses import astuple
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from quiverfilt import (
    GF,
    QQ,
    Matrix,
    Morphism,
    Rep,
    check_semibrick,
    direct_sum,
    end_algebra,
    hom_basis,
    is_brick,
    kronecker,
    linear_quiver,
    load,
    quasi_simple,
    standard_module,
    tower,
    universal_sequence,
)
from quiverfilt import bricks
from quiverfilt.bricks import AlgebraPresentation, _brick_report_of_end, end_coordinates
from quiverfilt.errors import InvariantError
from quiverfilt.linalg import inverse, rank
from quiverfilt.reps import compose, linear_combination, trace_pairing_rank

from conftest import (
    draw_rep,
    field_scalar,
    make_x11,
    operator_matrix,
    reference_linear_combination,
    reference_trace,
    reference_trace_radical,
)


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
        op = operator_matrix(alg, coords)
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


def _assert_table_matches_composition(m):
    """end_algebra's table against coordinates of every composite, one by one."""
    alg = end_algebra(m)
    coords_of = end_coordinates(alg.basis)
    reference = [[coords_of(compose(bi, bj)) for bj in alg.basis] for bi in alg.basis]
    assert alg.multiplication_table == reference
    kind = int if m.field.characteristic else Fraction
    assert all(type(x) is kind for plane in reference for row in plane for x in row)
    assert all(
        type(x) is type(y)
        for got, ref in zip(alg.multiplication_table, reference)
        for grow, rrow in zip(got, ref)
        for x, y in zip(grow, rrow)
    )
    if alg.dimension:
        assert alg.unit_coordinates == coords_of(Morphism.identity(m))
    assert alg.verify()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
def test_end_algebra_table_matches_composition_on_tower_levels(field):
    r0 = quasi_simple(field, field.of(0))
    r1 = quasi_simple(field, field.of(1))
    for level in tower(r0, check_semibrick([r0]), 6).levels:
        _assert_table_matches_composition(level)
    _assert_table_matches_composition(direct_sum([r0, r1])[0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(3), linear_quiver(3)]),
    st.data(),
)
def test_end_algebra_table_matches_composition_on_random_reps(field, quiver, data):
    _assert_table_matches_composition(draw_rep(data, quiver, field))


def test_end_algebra_span_check_refuses_a_basis_not_closed_under_composition(
    r0, monkeypatch
):
    mm, _, _ = direct_sum([r0, r0])
    # hom_basis(mm, mm) is E11, E12, E21, E22 on both vertices; E12 * E21 = E11
    not_closed = hom_basis(mm, mm)[1:3]
    # b * b agrees with b at vertex 1 and at the free entry, not elsewhere at 2
    n = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    b = Morphism._trusted(mm, mm, {1: Matrix.identity(QQ, 2), 2: n})
    for fake in (not_closed, [b]):
        monkeypatch.setattr("quiverfilt.bricks.hom_basis", lambda m, n: fake)
        with pytest.raises(InvariantError, match="leaves their span"):
            end_algebra(mm)


@functools.lru_cache(maxsize=None)
def _tower_levels_for_the_table(field, quiver_name, height):
    """Tower levels whose End algebras grow: R_2 on K2 (k[t]/(t^n)) and
    x11:1,0,0 on K3 (dim End 2^n - 1)."""
    if quiver_name == "K2":
        base = quasi_simple(field, field.of(2))
    else:
        base = make_x11(kronecker(3), field, [1, 0, 0])
    return tuple(tower(base, check_semibrick([base]), height).levels)


def _reference_coordinates(basis, morphism):
    """Test-local: the entries of ``morphism`` at each basis element's last
    nonzero flattened entry, checked entry by entry against the field's own
    sum of the basis (``reference_linear_combination``)."""
    coords = []
    for b in basis:
        v = [v for v in b.source.quiver.vertices if not b.blocks[v].is_zero()][-1]
        j = max(j for j, x in enumerate(b.blocks[v].entries) if x)
        coords.append(morphism.blocks[v].entries[j])
    assert reference_linear_combination(basis, coords) == morphism.blocks
    return coords


def _rescaled(m, scales):
    """m in the basis scaled by ``scales[v][i]`` at vertex v: M_a becomes
    S_t M_a S_s^-1.  Over QQ the End basis then carries denominators."""
    f = m.field
    maps = {}
    for aid, s, t in m.quiver.arrows:
        a = m.arrow_maps[aid]
        maps[aid] = Matrix(f, a.rows, a.cols, [
            f.mul(f.mul(scales[t][i], a.at(i, j)), f.inv(scales[s][j]))
            for i in range(a.rows) for j in range(a.cols)
        ])
    return Rep(m.quiver, f, m.dims, maps)


@st.composite
def _table_inputs(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    kind = draw(st.sampled_from(["rep", "level", "level-sum"]))
    if kind == "rep":
        quiver = draw(st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]))
        m = draw_rep(SimpleNamespace(draw=draw), quiver, field)
    else:
        name = draw(st.sampled_from(["K2", "K3"]))
        levels = _tower_levels_for_the_table(field, name, 4 if name == "K2" else 3)
        m = draw(st.sampled_from(levels))
        if kind == "level-sum":
            # a level plus a lower one: End is not local, its table has idempotents
            m = direct_sum([m, draw(st.sampled_from(levels))])[0]
    if draw(st.booleans()):
        scalar = st.integers(1, 6).map(field.of).filter(bool)
        m = _rescaled(m, {
            v: draw(st.lists(scalar, min_size=m.dims[v], max_size=m.dims[v]))
            for v in m.quiver.vertices
        })
    return m


@settings(max_examples=120, deadline=None)
@given(_table_inputs())
def test_items_table_and_unit_match_the_compose_reference(m):
    alg = end_algebra(m)
    assert alg.basis == hom_basis(m, m)
    coords_of = end_coordinates(alg.basis)
    reference = [
        [_reference_coordinates(alg.basis, compose(bi, bk)) for bk in alg.basis]
        for bi in alg.basis
    ]
    assert reference == [
        [coords_of(compose(bi, bk)) for bk in alg.basis] for bi in alg.basis
    ]
    assert alg.multiplication_table == reference
    assert all(
        type(x) is type(y)
        for got, ref in zip(alg.multiplication_table, reference)
        for grow, rrow in zip(got, ref)
        for x, y in zip(grow, rrow)
    )
    if alg.dimension:
        unit = _reference_coordinates(alg.basis, Morphism.identity(m))
        assert alg.unit_coordinates == unit == coords_of(Morphism.identity(m))


# Faults injected into the items path, on three modules with dim End > 1
# over each field: each fault must make end_algebra and end_coordinates raise.
_FAULT_CASES = [
    (field, kind) for field in (QQ, GF(2), GF(101)) for kind in ("y2", "k3-level", "sum")
]


def _fault_module(field, kind):
    if kind == "y2":
        return _y2(field)
    if kind == "k3-level":
        return _tower_levels_for_the_table(field, "K3", 3)[1]
    return direct_sum(list(_tower_levels_for_the_table(field, "K2", 4)[:2]))[0]


@pytest.mark.parametrize("field, kind", _FAULT_CASES)
def test_span_check_refuses_a_composite_missing_one_item(field, kind, monkeypatch):
    m = _fault_module(field, kind)
    basis = hom_basis(m, m)
    free = {j for _, j in bricks._free_entries(basis)}
    composite = bricks._composite
    dropped = []

    def dropping(left, right, n, p):
        out = composite(left, right, n, p)
        j = next((j for j in out if j not in free), None)
        if not dropped and j is not None:
            dropped.append(out.pop(j))
        return out

    monkeypatch.setattr(bricks, "_composite", dropping)
    with pytest.raises(InvariantError, match="leaves their span"):
        end_algebra(m)
    assert dropped
    # the same composite with one entry zeroed is refused by end_coordinates
    coords_of = end_coordinates(basis)
    for bi, bk in itertools.product(basis, repeat=2):
        c = compose(bi, bk)
        v, j = next(
            ((v, j) for v in c.blocks for j, x in enumerate(c.blocks[v].entries)
             if x and j not in free),
            (None, None),
        )
        if v is not None:
            break
    entries = list(c.blocks[v].entries)
    entries[j] = field.zero
    blocks = dict(c.blocks)
    blocks[v] = Matrix(field, c.blocks[v].rows, c.blocks[v].cols, entries)
    with pytest.raises(InvariantError, match="does not lie in the End basis span"):
        coords_of(Morphism._trusted(m, m, blocks))


@pytest.mark.parametrize("field, kind", _FAULT_CASES)
def test_span_check_refuses_a_sum_missing_one_term(field, kind, monkeypatch):
    m = _fault_module(field, kind)
    basis = hom_basis(m, m)
    coords_of = end_coordinates(basis)
    span_sum = bricks._span_sum

    def dropping(q, nums, v, p):
        q = list(q)
        i = next((i for i, x in enumerate(q) if x), None)
        if i is not None:
            q[i] = 0
        return span_sum(q, nums, v, p)

    monkeypatch.setattr(bricks, "_span_sum", dropping)
    with pytest.raises(InvariantError, match="leaves their span"):
        end_algebra(m)
    with pytest.raises(InvariantError, match="does not lie in the End basis span"):
        coords_of(Morphism.identity(m))


@pytest.mark.parametrize("field, kind", _FAULT_CASES)
def test_span_check_refuses_a_basis_block_tampered_after_the_basis_was_built(
    field, kind, monkeypatch
):
    m = _fault_module(field, kind)
    basis = hom_basis(m, m)
    unit = end_algebra(m).unit_coordinates
    # an element the identity needs, changed at the first entry of the first
    # vertex, which lies before its free entry, so that stays where it was
    first = m.quiver.vertices[0]
    free = bricks._free_entries(basis)
    l = next(i for i, c in enumerate(unit) if c and free[i] != (first, 0))
    block = basis[l].blocks[first]
    entries = list(block.entries)
    entries[0] = field.add(entries[0], field.one)
    blocks = dict(basis[l].blocks)
    blocks[first] = Matrix(field, block.rows, block.cols, entries)
    tampered = list(basis)
    tampered[l] = Morphism._trusted(m, m, blocks)
    monkeypatch.setattr(bricks, "hom_basis", lambda a, b: tampered)
    with pytest.raises(InvariantError):
        end_algebra(m)
    with pytest.raises(InvariantError, match="does not lie in the End basis span"):
        end_coordinates(tampered)(Morphism.identity(m))


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


def _no_search(alg):
    raise AssertionError("the witness search ran")


@pytest.mark.parametrize("level, end_dim", [(3, 3), (5, 5)])
def test_local_end_returns_its_report_without_the_witness_search(level, end_dim, monkeypatch):
    """On Y(3) and Y(5) of the R_0 tower dim End/J = 1, so End is local and no
    candidate can be a witness: the report, recorded before the search was
    skipped, comes without it."""
    monkeypatch.setattr(bricks, "_witness_candidates", _no_search)
    report = is_brick(_r_tower_levels(0)[level - 1])
    assert report == bricks.BrickReport(
        "local_not_certified", end_dim, None, None, end_dim - 1, 1,
        "no witness found; trace-form radical evidence attached",
    )


def test_semisimple_end_still_searches_for_its_witness(monkeypatch):
    """The twisted R_0 + R_inf + R_inf has dim End/J = 5 > 1, so the search runs."""
    m = load(
        os.path.join(os.path.dirname(__file__), "golden", "inputs", "r0_rinf_rinf_twisted.json")
    )
    monkeypatch.setattr(bricks, "_witness_candidates", _no_search)
    with pytest.raises(AssertionError, match="witness search ran"):
        is_brick(m)


def test_brick_local_uncertified_char_p():
    f5 = GF(5)
    report = is_brick(_y2(f5))
    assert report.status == "local_not_certified"
    assert report.radical_dim is None  # trace-form evidence is char-0 only
    assert "characteristic 0" in report.notes


_LAMBDAS = (0, 1, -1, Fraction(1, 2), "inf")


@functools.lru_cache(maxsize=None)
def _r_tower_levels(lam):
    """Levels 1..5 of the tower over R_lambda with X = {R_lambda} over QQ."""
    r = quasi_simple(QQ, lam if lam == "inf" else QQ.of(lam))
    return tuple(tower(r, check_semibrick([r]), 5).levels)


def _draw_lower_unitriangular(data, n):
    def entry(i, j):
        if i > j:
            return QQ.of(data.draw(st.integers(-2, 2)))
        return QQ.one if i == j else QQ.zero

    return Matrix(QQ, n, n, [entry(i, j) for i in range(n) for j in range(n)])


def _draw_twist(data, m):
    """m in a drawn change of basis g_v = L_v U_v, with L_v lower and U_v upper
    unitriangular, their off-diagonal entries in -2..2."""
    g = {}
    for v in m.quiver.vertices:
        lower, upper = (_draw_lower_unitriangular(data, m.dims[v]) for _ in range(2))
        g[v] = lower.mul(upper.transpose())
    maps = {
        aid: g[t].mul(m.arrow_maps[aid]).mul(inverse(g[s]))
        for aid, s, t in m.quiver.arrows
    }
    return Rep(m.quiver, QQ, m.dims, maps)


def _assert_radical_matches_reference(m):
    """is_brick's radical_dim against the gram of the left-regular
    representation, if the report reaches it; returns the report."""
    report = is_brick(m)
    if report.status == "local_not_certified":
        alg = end_algebra(m)
        assert report.radical_dim == reference_trace_radical(alg)
        assert report.residue_dim == alg.dimension - report.radical_dim
    return report


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]), st.data())
def test_trace_form_radical_matches_the_regular_trace_form(quiver, data):
    """radical_dim against the regular trace form, on a twisted tower level
    Y(n), n >= 2, of R_lambda on K2 and on a random rep, or a direct sum of
    two, on the drawn quiver, all over QQ.

    The radical of tr(y o x) on M and that of tr(L_a L_b) on End(M) are
    both J(End M).  Every level reaches the radical: its End is k[t]/(t^n),
    local, so no witness exists, and its radical has dimension n - 1.
    """
    levels = _r_tower_levels(data.draw(st.sampled_from(_LAMBDAS)))
    n = data.draw(st.integers(2, len(levels)))
    report = _assert_radical_matches_reference(_draw_twist(data, levels[n - 1]))
    assert (report.status, report.end_dim, report.radical_dim) == ("local_not_certified", n, n - 1)
    m = draw_rep(data, quiver, QQ)
    if data.draw(st.booleans()):
        m = direct_sum([m, draw_rep(data, quiver, QQ)])[0]
    if m.dim_total:
        _assert_radical_matches_reference(m)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]), st.data())
def test_trace_pairing_rank_matches_the_traces_of_composites(quiver, data):
    """trace_pairing_rank(Hom(M, N), Hom(N, M)) against the rank of the traces
    of every ``compose(x, y)``, for M != N: N is random, M plus a random rep,
    or M twisted."""
    m = draw_rep(data, quiver, QQ)
    kind = data.draw(st.sampled_from(["random", "sum", "twist"]))
    if kind == "random":
        n = draw_rep(data, quiver, QQ)
    elif kind == "sum":
        n = direct_sum([m, draw_rep(data, quiver, QQ)])[0]
    else:
        n = _draw_twist(data, m)
    if m == n:
        return
    xs, ys = hom_basis(m, n), hom_basis(n, m)
    traces = [[reference_trace(compose(x, y)) for y in ys] for x in xs]
    expected = rank(Matrix.from_rows(QQ, traces)) if xs and ys else 0
    assert trace_pairing_rank(xs, ys) == expected


def test_trace_pairing_rank_refuses_mismatched_endpoints(r0, r1):
    mm = direct_sum([r0, r1])[0]
    xs, ys = hom_basis(r0, mm), hom_basis(mm, r0)
    assert trace_pairing_rank(xs, ys) == 1
    with pytest.raises(InvariantError):
        trace_pairing_rank(xs, hom_basis(mm, r1))
    with pytest.raises(InvariantError):
        trace_pairing_rank(xs + hom_basis(r1, mm), ys)


def test_non_invertible_non_nilpotent_witness_rechecks():
    """The witness on the twisted R_0 + R_inf + R_inf of the CLI goldens.

    It is an endomorphism of m, nonzero and not idempotent, singular at some
    vertex and not nilpotent: w^k != 0 for every k <= dim m.
    """
    m = load(
        os.path.join(os.path.dirname(__file__), "golden", "inputs", "r0_rinf_rinf_twisted.json")
    )
    report = is_brick(m)
    assert (report.status, report.end_dim) == ("not_brick", 5)
    assert report.witness_kind == "non_invertible_non_nilpotent"
    w = Morphism(m, m, report.witness.blocks)
    assert not w.is_zero()
    assert compose(w, w) != w
    assert any(rank(b) < b.rows for b in w.blocks.values())
    power = w
    for _ in range(m.dim_total):
        assert not power.is_zero()
        power = compose(power, w)


def test_brick_zero_module(k2):
    from quiverfilt import Rep

    report = is_brick(Rep.zero(k2, QQ))
    assert report.status == "not_brick"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.data(),
)
def test_is_brick_agrees_with_the_end_algebra_path(field, quiver, data):
    m = draw_rep(data, quiver, field)
    if m.dim_total == 0:
        return
    report = is_brick(m)
    alg = end_algebra(m)
    assert report == _brick_report_of_end(alg)
    basis = bricks._end_basis_unless_scalars(m)
    assert (basis is None) == (alg.dimension == 1)
    # dim End > 1: the basis solved from the rank test's echelon is hom_basis's
    assert basis is None or basis == alg.basis


def _count_end_algebra_calls(monkeypatch):
    calls = []
    build = bricks._end_algebra_of

    def counting(m, basis):
        calls.append(m)
        return build(m, basis)

    monkeypatch.setattr(bricks, "_end_algebra_of", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
def test_rank_certificate_skips_end_algebra_on_bricks_only(field, monkeypatch):
    calls = _count_end_algebra_calls(monkeypatch)
    r = quasi_simple(field, field.of(1))
    assert is_brick(r).status == "certified_brick"
    assert calls == []
    assert is_brick(_y2(field)).status == "local_not_certified"
    assert len(calls) == 1


_SCALARS_REPORT = ("certified_brick", 1, None, None, 0, 1, "endomorphisms are scalars")


def test_rank_certifies_rationals_with_any_denominator(k2, monkeypatch):
    # Denominators 2, 3 and 2^31 - 1: the rank over QQ is exact, so no prime
    # has to avoid them.
    calls = _count_end_algebra_calls(monkeypatch)
    mods = [
        quasi_simple(QQ, Fraction(1, 2)),
        quasi_simple(QQ, Fraction(1, 3)),
        make_x11(k2, QQ, [1, Fraction(1, 2**31 - 1)]),
    ]
    for m in mods:
        assert bricks._end_basis_unless_scalars(m) is None
        assert astuple(is_brick(m)) == _SCALARS_REPORT
    assert calls == []


def test_rank_certifies_a_brick_whose_reduction_is_not_one(k2, monkeypatch):
    # (1,1) with arrow scalars 3 and 0 is a brick over QQ; modulo 3 both
    # arrows vanish and End of the reduction is k x k.  The exact rank over
    # QQ certifies it without end_algebra.
    x = make_x11(k2, QQ, [3, 0])
    reduced = make_x11(k2, GF(3), [3, 0])
    assert len(hom_basis(reduced, reduced)) == 2
    assert bricks._end_basis_unless_scalars(reduced) == hom_basis(reduced, reduced)
    calls = _count_end_algebra_calls(monkeypatch)
    assert bricks._end_basis_unless_scalars(x) is None
    report = is_brick(x)
    assert calls == []
    assert report == is_brick(quasi_simple(QQ, QQ.of(0)))
    assert astuple(report) == _SCALARS_REPORT


def test_modular_certificate_on_a_preprojective_level_matches_the_rational_rank():
    # dims (4, 3): the rank certifies that End is one-dimensional, as
    # hom_basis finds.
    members = [quasi_simple(QQ, QQ.of(3)), quasi_simple(QQ, QQ.of(5)), quasi_simple(QQ, "inf")]
    sb = check_semibrick(members)
    level = tower(standard_module(kronecker(2), QQ, "projective", 1), sb, 2).levels[-1]
    assert (level.dims[1], level.dims[2]) == (4, 3)
    assert bricks._end_basis_unless_scalars(level) is None
    assert len(hom_basis(level, level)) == 1


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
