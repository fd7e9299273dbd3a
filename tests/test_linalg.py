"""Exact linear algebra kernel: fields, matrices, canonical eliminations."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from quiverfilt import GF, QQ, Matrix
from quiverfilt.errors import FormatError, InvariantError
from quiverfilt.linalg import (
    RowSpace,
    column_space_basis,
    column_space_pivots,
    columns_contained,
    hstack,
    inverse,
    is_invertible,
    mat_from_cols,
    nullspace_basis,
    preimage_basis,
    products_equal,
    quotient_map,
    quotient_map_free,
    rank,
    rref,
    solve,
    unit_vectors,
    vstack,
)

from conftest import field_scalar

F2 = GF(2)
F5 = GF(5)


def mq(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


# ---------------------------------------------------------------------------
# fields


def test_rational_scalar_round_trip():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.format(Fraction(-3, 4)) == "-3/4"
    assert QQ.format(Fraction(0)) == "0"
    assert QQ.format(Fraction(5)) == "5"


def test_prime_field_parse_rejects_out_of_range():
    assert F5.parse("3") == 3
    with pytest.raises(FormatError):
        F5.parse("7")
    with pytest.raises(FormatError):
        F5.parse("-1")


def test_prime_field_arithmetic():
    assert F5.add(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.neg(1) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_gf_requires_prime():
    with pytest.raises(InvariantError):
        GF(6)
    assert GF(5) is GF(5)  # cached singleton


def test_field_identity():
    assert QQ == QQ and QQ != F5 and F5 != F2


def test_field_constants_are_fixed_canonical_scalars():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert type(QQ.zero) is Fraction and QQ.zero == 0 and QQ.one == 1
    assert (F5.zero, F5.one) == (0, 1) and type(F5.zero) is int


# ---------------------------------------------------------------------------
# rref / rank / nullspace, frozen examples


def test_rref_identity_fixed_point():
    m = Matrix.identity(QQ, 2)
    r, pivots = rref(m)
    assert r == m and pivots == (0, 1)


def test_rref_rank_one():
    r, pivots = rref(mq([[1, 2], [2, 4]]))
    assert r == mq([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_over_f2():
    m = Matrix.from_rows(F2, [[1, 1], [1, 0]])
    r, pivots = rref(m)
    assert r == Matrix.identity(F2, 2)
    assert pivots == (0, 1)


def test_nullspace_identity_empty():
    assert nullspace_basis(Matrix.identity(QQ, 3)) == []


def test_nullspace_zero_matrix_full():
    vecs = nullspace_basis(Matrix.zeros(QQ, 2, 3))
    assert len(vecs) == 3


def test_nullspace_single_row():
    m = mq([[1, 2, 3]])
    vecs = nullspace_basis(m)
    assert len(vecs) == 2
    for v in vecs:
        assert m.mul(v).is_zero()


def test_solve_and_inverse():
    a = mq([[1, 2], [3, 5]])
    b = mq([[1], [0]])
    x = solve(a, b)
    assert a.mul(x) == b
    assert a.mul(inverse(a)) == Matrix.identity(QQ, 2)
    assert solve(mq([[1, 0], [0, 0]]), mq([[0], [1]])) is None
    assert not is_invertible(mq([[1, 2], [2, 4]]))


def test_stack_helpers():
    a, b = mq([[1], [2]]), mq([[3], [4]])
    assert hstack([a, b]) == mq([[1, 3], [2, 4]])
    assert vstack([a, b]) == mq([[1], [2], [3], [4]])
    assert mat_from_cols(QQ, 2, [[QQ.of(1), QQ.of(2)]]) == a


def test_column_space_and_quotient():
    m = mq([[1, 2], [2, 4]])
    basis = column_space_basis(m)
    assert basis.cols == 1
    proj = quotient_map(basis)
    assert proj.rows == 1 and proj.mul(basis).is_zero()
    assert columns_contained(m, basis)
    assert not columns_contained(Matrix.identity(QQ, 2), basis)


def test_preimage_basis():
    a = mq([[1, 0], [0, 0]])
    target = mq([[1], [0]])
    pre = preimage_basis(a, target)
    # preimage of a line under a rank-1 map: 2-dimensional
    assert pre.cols == 2
    assert columns_contained(a.mul(pre), target)


def test_zero_dimension_edge_cases():
    e = Matrix.zeros(QQ, 0, 3)
    assert rank(e) == 0
    assert len(nullspace_basis(e)) == 3
    assert rref(Matrix.zeros(QQ, 3, 0))[1] == ()
    assert is_invertible(Matrix.zeros(QQ, 0, 0))


# ---------------------------------------------------------------------------
# properties

_dims = st.integers(min_value=0, max_value=4)
_entry = st.integers(min_value=-5, max_value=5)


def _matrix(field):
    return st.tuples(_dims, _dims).flatmap(
        lambda shape: st.lists(
            _entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(
            lambda ent: Matrix(
                field, shape[0], shape[1], [field.of(x) for x in ent]
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F5]).flatmap(_matrix))
def test_rref_idempotent(m):
    r, pivots = rref(m)
    again, pivots2 = rref(r)
    assert again == r and pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F5]).flatmap(_matrix))
def test_rank_nullity(m):
    assert rank(m) + len(nullspace_basis(m)) == m.cols


@settings(max_examples=40, deadline=None)
@given(_matrix(QQ), st.lists(_entry, min_size=4, max_size=4))
def test_solve_consistent_systems(m, coeffs):
    x = Matrix(QQ, m.cols, 1, [QQ.of(coeffs[i % 4]) for i in range(m.cols)])
    b = m.mul(x)
    sol = solve(m, b)
    assert sol is not None and m.mul(sol) == b


# ---------------------------------------------------------------------------
# differential: the field-specialised kernels against plain Field arithmetic


def _reference_rref(m):
    f = m.field
    rows = [m.row(i) for i in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        found = [i for i in range(r, m.rows) if rows[i][c] != f.zero]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r:
                factor = f.neg(rows[i][c])
                rows[i] = [f.add(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return Matrix(f, m.rows, m.cols, [x for row in rows for x in row]), tuple(pivots)


def _reference_mul(a, b):
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero
            for l in range(a.cols):
                acc = f.add(acc, f.mul(a.at(i, l), b.at(l, j)))
            out.append(acc)
    return Matrix(f, a.rows, b.cols, out)


_kernel_fields = st.sampled_from([QQ, F2, F5, GF(101)])
_kernel_dims = st.integers(min_value=0, max_value=8)


def _sparse_matrix(field, rows, cols):
    return st.lists(
        field_scalar(field), min_size=rows * cols, max_size=rows * cols
    ).map(lambda ent: Matrix(field, rows, cols, ent))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(_kernel_fields, _kernel_dims, _kernel_dims).flatmap(
        lambda t: _sparse_matrix(*t)
    )
)
def test_rref_matches_reference_and_keeps_input(m):
    before = list(m.entries)
    out = rref(m)
    assert out == _reference_rref(m)
    assert _canonical(out[0])
    assert m.entries == before


def _canonical(m):
    """Entries are the values ``Field.of`` returns; ``Matrix.__eq__`` alone
    would accept an ``int`` 0 in place of ``Fraction(0)``."""
    p = m.field.characteristic
    if p:
        return all(type(x) is int and 0 <= x < p for x in m.entries)
    return all(type(x) is Fraction for x in m.entries)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(_kernel_fields, _kernel_dims, _kernel_dims).flatmap(
        lambda t: _sparse_matrix(*t)
    )
)
def test_canonical_bases_carry_an_identity_at_their_read_off_positions(m):
    f = m.field
    basis, pivots = column_space_pivots(m)
    assert basis == column_space_basis(m)
    assert basis.rows_at(pivots) == Matrix.identity(f, basis.cols)
    q, free = quotient_map_free(m)
    # quotient_map takes any spanning set: the canonical basis gives the same map
    assert q == quotient_map(m) == quotient_map(basis)
    assert q.cols_at(free) == Matrix.identity(f, q.rows)
    assert q.mul(m).is_zero() and q.rows + basis.cols == m.rows
    # coordinates read off at those positions, for vectors in each space
    assert basis.mul(m.rows_at(pivots)) == m
    assert q.transpose().mul(q).cols_at(free) == q.transpose()


_huge = st.integers(min_value=2**69, max_value=2**70)
_big_rational = st.one_of(
    st.just(QQ.zero),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.one_of(st.integers(min_value=1, max_value=9), _huge),
    ),
    st.builds(lambda n, d: Fraction(-n, d), _huge, _huge),
)


@st.composite
def _rank_deficient_qq(draw):
    """QQ matrices up to 12x12 with entries up to 2^70 in numerator and
    denominator, whose later rows duplicate or combine earlier ones."""
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=0, max_value=12))
    base = draw(st.integers(min_value=1, max_value=rows))
    out = [draw(st.lists(_big_rational, min_size=cols, max_size=cols)) for _ in range(base)]
    while len(out) < rows:
        i = draw(st.integers(min_value=0, max_value=len(out) - 1))
        j = draw(st.integers(min_value=0, max_value=len(out) - 1))
        a, b = draw(
            st.one_of(st.just((QQ.one, QQ.zero)), st.tuples(field_scalar(QQ), field_scalar(QQ)))
        )
        out.append([a * x + b * y for x, y in zip(out[i], out[j])])
    order = draw(st.permutations(range(rows)))
    return Matrix(QQ, rows, cols, [x for k in order for x in out[k]]), base


@settings(max_examples=60, deadline=None)
@given(_rank_deficient_qq(), st.data())
def test_rref_rational_big_entries_rank_deficient(case, data):
    m, base = case
    before = list(m.entries)
    red, pivots = rref(m)
    assert (red, pivots) == _reference_rref(m)
    assert len(pivots) <= base
    assert m.entries == before
    assert _canonical(red)
    null = nullspace_basis(m)
    assert len(null) == m.cols - len(pivots)
    assert all(_canonical(v) and m.mul(v).is_zero() for v in null)
    x = Matrix(QQ, m.cols, 1, data.draw(st.lists(_big_rational, min_size=m.cols, max_size=m.cols)))
    sol = solve(m, m.mul(x))
    assert sol is not None and _canonical(sol) and m.mul(sol) == m.mul(x)
    n = m.rows
    square = Matrix(QQ, n, n, data.draw(st.lists(_big_rational, min_size=n * n, max_size=n * n)))
    inv = inverse(square)
    if inv is None:
        assert rank(square) < n
    else:
        assert _canonical(inv) and square.mul(inv) == Matrix.identity(QQ, n)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(_kernel_fields, _kernel_dims, _kernel_dims, _kernel_dims).flatmap(
        lambda t: st.tuples(_sparse_matrix(t[0], t[1], t[2]), _sparse_matrix(t[0], t[2], t[3]))
    )
)
def test_mul_matches_reference_and_keeps_inputs(pair):
    a, b = pair
    before = (list(a.entries), list(b.entries))
    assert a.mul(b) == _reference_mul(a, b)
    assert (a.entries, b.entries) == before


# ---------------------------------------------------------------------------
# products_equal against comparing the two Matrix.mul products


def _pe_entry(field):
    """Fractional QQ entries with numerators up to 2^70; canonical residues over GF(p)."""
    if field.characteristic:
        return field_scalar(field)
    return st.one_of(
        st.just(QQ.zero),
        st.builds(
            Fraction,
            st.integers(min_value=-(2**70), max_value=2**70),
            st.one_of(st.integers(min_value=1, max_value=9), _huge),
        ),
    )


def _pe_matrix(draw, field, rows, cols):
    n = rows * cols
    return Matrix(field, rows, cols, draw(st.lists(_pe_entry(field), min_size=n, max_size=n)))


def _invertible(draw, field, n):
    """L*R with L unit lower and R upper triangular with a nonzero diagonal."""
    scalar = field_scalar(field)
    lower = [[field.one if i == j else draw(scalar) if j < i else field.zero for j in range(n)]
             for i in range(n)]
    if field.characteristic:
        nonzero = st.integers(min_value=1, max_value=field.characteristic - 1)
    else:
        nonzero = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 5))
    upper = [[draw(nonzero) if i == j else draw(scalar) if j > i else field.zero
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(field, lower).mul(Matrix.from_rows(field, upper))


@st.composite
def _product_case(draw):
    """(a, b, c, d, expected): about half equal by construction, a quarter
    one entry off by 1/7, the rest independent factors of any shape."""
    field = draw(st.sampled_from([QQ, F2, GF(101)]))
    dim = st.integers(min_value=0, max_value=6)
    n, m, k = draw(dim), draw(dim), draw(dim)
    a = _pe_matrix(draw, field, n, m)
    b = _pe_matrix(draw, field, m, k)
    kind = draw(st.sampled_from(["equal", "equal", "near", "random"]))
    if kind == "equal":  # c = a*U, d = U^-1*b
        u = _invertible(draw, field, m)
        return a, b, a.mul(u), inverse(u).mul(b), True
    if kind == "near" and n and k:  # c = a*b with one entry off by 1/7, d = I
        ab = a.mul(b)
        i = draw(st.integers(min_value=0, max_value=n * k - 1))
        off = list(ab.entries)
        off[i] = field.add(off[i], field.of(Fraction(1, 7)))
        return a, b, Matrix(field, n, k, off), Matrix.identity(field, k), False
    rows = draw(st.sampled_from([n, draw(dim)]))
    inner = draw(dim)
    cols = draw(st.sampled_from([k, draw(dim)]))
    return a, b, _pe_matrix(draw, field, rows, inner), _pe_matrix(draw, field, inner, cols), None


@settings(max_examples=150, deadline=None)
@given(_product_case())
def test_products_equal_matches_mul_comparison(case):
    a, b, c, d, expected = case
    before = [list(x.entries) for x in (a, b, c, d)]
    verdict = products_equal(a, b, c, d)
    assert verdict == (a.mul(b) == c.mul(d))
    if expected is not None:
        assert verdict is expected
    assert [x.entries for x in (a, b, c, d)] == before


def test_products_equal_rejects_mismatched_factors():
    with pytest.raises(InvariantError):
        products_equal(mq([[1, 2]]), mq([[1]]), mq([[1]]), mq([[1]]))
    one = Matrix.identity(F5, 1)
    with pytest.raises(InvariantError):
        products_equal(mq([[1]]), mq([[1]]), one, one)
    # denominators on both sides that cancel only after cross-multiplication
    half = mq([["1/2"]])
    assert products_equal(half, mq([[3]]), mq([[3]]), half)
    assert not products_equal(half, mq([[1]]), mq([[1]]), mq([[1]]))
    # equal modulo p, unequal as integers
    assert products_equal(Matrix(F5, 1, 1, [4]), Matrix(F5, 1, 1, [4]), one, one)


# ---------------------------------------------------------------------------
# RowSpace against rank(hstack(...))


def _rank_of(field, width, vectors):
    cols = [Matrix(field, width, 1, list(v)) for v in vectors]
    return rank(hstack([Matrix.zeros(field, width, 1)] + cols))


@st.composite
def _vector_stream(draw):
    """A field, a width, and vectors of which some combine earlier ones."""
    field = draw(st.sampled_from([QQ, F2, GF(101)]))
    width = draw(st.integers(min_value=0, max_value=6))
    scalar = field_scalar(field)
    vectors = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if vectors and draw(st.booleans()):
            coeffs = draw(st.lists(scalar, min_size=len(vectors), max_size=len(vectors)))
            vec = [field.zero] * width
            for c, v in zip(coeffs, vectors):
                vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, v)]
        else:
            vec = draw(st.lists(scalar, min_size=width, max_size=width))
        vectors.append(vec)
    return field, width, vectors


@settings(max_examples=150, deadline=None)
@given(_vector_stream())
def test_row_space_matches_rank_of_hstack(case):
    field, width, vectors = case
    space = RowSpace(field)
    kept = []
    for i, vec in enumerate(vectors):
        before = list(vec)
        inside = _rank_of(field, width, kept + [vec]) == _rank_of(field, width, kept)
        assert space.contains(vec) == inside
        red = space.reduce(vec)
        assert all(red[pivot] == field.zero for pivot, _ in space.echelon)
        # vec - reduce(vec) lies in the space, so reduce keeps the coset
        assert space.contains([field.sub(x, y) for x, y in zip(vec, red)])
        assert space.add(vec) == (not inside)
        assert vec == before
        if not inside:
            kept.append(vec)
        assert space.dim == len(kept) == _rank_of(field, width, vectors[: i + 1])
    # after every insertion, reduce clears all pivots, also the later ones
    for vec in vectors:
        red = space.reduce(vec)
        assert all(red[pivot] == field.zero for pivot, _ in space.echelon)
        assert not any(red)
    assert RowSpace(field, vectors).echelon == space.echelon


def test_unit_vectors_are_canonical_standard_basis():
    for field in (QQ, F2, GF(101)):
        units = unit_vectors(field, 3)
        assert Matrix.from_rows(field, units) == Matrix.identity(field, 3)
        assert all(x is field.zero or x is field.one for e in units for x in e)
        assert unit_vectors(field, 0) == []
