"""Exact linear algebra kernel: fields, matrices, canonical eliminations."""

import json
import random
import subprocess
import sys

import pytest
from fractions import Fraction
from math import gcd, isqrt, lcm
from hypothesis import example, given, settings, strategies as st

from quiverfilt import GF, QQ, Matrix, Rep, formats, linear_quiver, quasi_simple
from quiverfilt.errors import FormatError, InvariantError
from quiverfilt.reps import Morphism, _first_broken_square, _forms
from quiverfilt.linalg import (
    _MR_LIMIT,
    _integer_multiple,
    _is_prime,
    _kernel_at_free,
    _row_forward_echelon,
    _row_kernel,
    _row_kernel_forms,
    _rows,
    _solve_at_free,
    _sparse_echelon,
    column_space_pivots,
    combination,
    forward_echelon,
    hstack,
    inverse,
    is_invertible,
    mat_from_cols,
    nonzero_items,
    nullspace_basis,
    quotient_map_free,
    rank,
    rref,
    solve,
    unit_vectors,
    vstack,
)

from conftest import (
    columns_contained,
    field_scalar,
    reference_nullspace,
    reference_rank,
    reference_rref,
)

F2 = GF(2)
F5 = GF(5)


def mq(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


# Inputs whose back-solve does work, each built fresh so that no test
# sees an integer form another one cached: negative QQ pivot entries; a
# triangular QQ matrix whose last pivot column is nonzero in all three rows
# above it; a rank-3 GF(5) matrix whose last pivot column is nonzero in both
# rows above.
def _negative_pivots():
    return mq([[-2, 3, 1, 0], [4, -1, 5, 2], [-6, 2, -3, 1]])


def _triangular():
    return mq(
        [
            ["1/2", "1/3", "2/5", "3/7"],
            [0, "-2/3", "1/4", "5/6"],
            [0, 0, "3/2", "-1/5"],
            [0, 0, 0, "7/3"],
        ]
    )


def _gf5_rank_3():
    return Matrix.from_rows(
        F5, [[1, 2, 0, 3, 1], [0, 1, 4, 2, 3], [0, 0, 0, 1, 2], [1, 3, 4, 0, 4]]
    )


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


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        (2047, False),  # strong pseudoprime to base 2
        (1373653, False),  # strong pseudoprime to bases 2, 3
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (561, False),  # Carmichael numbers
        (1105, False),
        (2**31 - 1, True),
        (2**61 - 1, True),
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the
        # bases 2..37: refused only with base 41
        (318665857834031151167461, False),
    ],
)
def test_is_prime_on_pseudoprimes_and_mersenne_primes(n, prime):
    assert _is_prime(n) is prime
    if prime:
        assert GF(n).characteristic == n
    else:
        with pytest.raises(InvariantError):
            GF(n)


_REFUSE_BEYOND_THE_BOUND = """
import json
from quiverfilt import GF, formats, quasi_simple
from quiverfilt.errors import FormatError, InvariantError
from quiverfilt.reps import Morphism, _first_broken_square, _forms
p = 2**89 - 1
try:
    GF(p)
except InvariantError as exc:
    print("library:", exc)
doc = json.loads(formats.serialize(quasi_simple(GF(5), 0)))
doc["payload"]["field"]["characteristic"] = p
try:
    formats.parse(json.dumps(doc))
except FormatError as exc:
    print("formats:", exc)
"""


def test_gf_refuses_a_characteristic_beyond_the_exact_primality_bound():
    """GF(2^89 - 1), a prime with sqrt(p) about 2.5e13, is refused at once
    with the bound named, by ``GF`` and by ``formats.parse`` of a rep file;
    run in a subprocess with a timeout, so that a trial division up to
    sqrt(p) fails the test instead of hanging it."""
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSE_BEYOND_THE_BOUND], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    refusal = f"characteristic {2**89 - 1} is not below {_MR_LIMIT}"
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["library", "formats"]
    assert all(refusal in line for line in lines)


def test_rep_file_over_a_strong_pseudoprime_is_refused():
    """A rep file whose characteristic is psi_12 = 399165290221 *
    798330580441 is refused by ``formats.parse``, as ``GF`` refuses it."""
    doc = json.loads(formats.serialize(quasi_simple(GF(5), 0)))
    doc["payload"]["field"]["characteristic"] = 318665857834031151167461
    with pytest.raises(FormatError, match="318665857834031151167461 is not prime"):
        formats.parse(json.dumps(doc))


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
    basis = column_space_pivots(m)[0]
    assert basis.cols == 1
    proj = quotient_map_free(basis)[0]
    assert proj.rows == 1 and proj.mul(basis).is_zero()
    assert columns_contained(m, basis)
    assert not columns_contained(Matrix.identity(QQ, 2), basis)


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
@example(_negative_pivots())
@example(_triangular())
@example(_gf5_rank_3())
def test_rref_matches_reference_and_keeps_input(m):
    before = list(m.entries)
    out = rref(m)
    assert out == reference_rref(m)
    assert _canonical(out[0])
    assert m.entries == before


@st.composite
def _low_rank(draw):
    """A product a*b of random sparse factors: rank at most the inner dimension."""
    field = draw(_kernel_fields)
    rows, inner, cols = (draw(_kernel_dims) for _ in range(3))
    a = draw(_sparse_matrix(field, rows, inner))
    b = draw(_sparse_matrix(field, inner, cols))
    return a.mul(b)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(_kernel_fields, _kernel_dims, _kernel_dims).flatmap(
            lambda t: _sparse_matrix(*t)
        ),
        _low_rank(),
    )
)
def test_rank_is_the_pivot_count_of_rref(m):
    before = list(m.entries)
    echelon = forward_echelon(m)
    assert tuple(echelon) == rref(m)[1]
    assert rank(m) == len(echelon)
    assert m.entries == before


def _dense_rows(echelon, ncols):
    """The pivot rows of an echelon ``{pc: (a, items)}`` written out as
    dense rows, in increasing pivot order."""
    rows = []
    for pc in sorted(echelon):
        a, items = echelon[pc]
        row = [0] * ncols
        row[pc] = a
        for j, x in items:
            row[j] = x
        rows.append(row)
    return rows


def _assert_echelon_format(echelon, ncols, p):
    """``{pc: (a, items)}`` as the ``linalg`` docstrings state it: a is 1
    over GF(p) and positive over QQ, and the items are nonzero, at distinct
    columns after pc and before ``ncols``."""
    for pc, (a, items) in echelon.items():
        assert 0 <= pc < ncols
        assert a == 1 if p else a > 0
        assert all(x and pc < j < ncols for j, x in items)
        assert len({j for j, _ in items}) == len(items)
        if p:
            assert all(0 < x < p for _, x in items)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(_kernel_fields, _kernel_dims, _kernel_dims).flatmap(
            lambda t: _sparse_matrix(*t)
        ),
        _low_rank(),
    )
)
def test_forward_echelon_rows_are_echelon_and_span_the_row_space(m):
    """The pivot rows of ``forward_echelon`` come in increasing pivot order,
    each with a pivot entry 1 over GF(p) and positive over QQ and nonzero
    items after its pivot only; written out, they span the row space of m,
    by ``reference_rank``."""
    f = m.field
    pivot_rows = forward_echelon(m)
    assert list(pivot_rows) == sorted(pivot_rows)
    _assert_echelon_format(pivot_rows, m.cols, f.characteristic)
    rows = _dense_rows(pivot_rows, m.cols)
    # integer rows over QQ, residues over GF(p): read as scalars of f
    echelon = [[f.of(x) for x in row] for row in rows]
    own = m.to_rows()
    assert (
        reference_rank(f, echelon, m.cols)
        == reference_rank(f, echelon + own, m.cols)
        == reference_rank(f, own, m.cols)
        == len(rows)
    )


@st.composite
def _qq_raw_rows(draw):
    """Integer rows for QQ forward elimination, of one of four kinds: entries
    with no unit (so no pivot is 1 at first), rows each multiplied by a
    content of 2..12 of either sign, a full-column-rank block among the rows,
    or any entries up to 2^40; zero rows inserted at random."""
    kind = draw(st.sampled_from(["no unit", "content", "full rank", "any"]))
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=6))
    if kind == "no unit":
        entry = st.sampled_from([0, 0, 2, -2, 3, -3, 4, -6, 9, -10])
    else:
        entry = st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-(2**40), max_value=2**40),
        )
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "content":
        scales = st.integers(min_value=2, max_value=12).flatmap(lambda k: st.sampled_from([k, -k]))
        rows = [[k * x for x in row] for row, k in ((row, draw(scales)) for row in rows)]
    if kind == "full rank":
        lead = st.integers(min_value=-12, max_value=12).filter(bool)
        rows += [
            [draw(lead) if i == j else (draw(entry) if i < j else 0) for j in range(ncols)]
            for i in range(ncols)
        ]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * ncols)
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None)
@given(_qq_raw_rows())
@example(([[-2, 4, 6], [-3, 0, 9], [0, -4, 2]], 3))  # negative leading entries, content 2 and 3
@example(([[4, 6], [6, 9], [0, 0]], 2))  # no unit in column 0, a zero row, rank 1
@example(([[-1, 2], [3, -5]], 2))  # a -1 pivot, full rank
def test_qq_forward_echelon_against_rref(case):
    """QQ ``_row_forward_echelon`` on integer rows: the pivots are rref's;
    each pivot row is primitive with a positive pivot entry and nonzero
    items after its pivot only; and the rows span the input's row space."""
    raw, ncols = case
    m = Matrix(QQ, len(raw), ncols, [QQ.of(x) for row in raw for x in row])
    echelon = _row_forward_echelon([list(row) for row in raw], ncols, 0)
    red, want = rref(m)
    assert tuple(echelon) == want
    _assert_echelon_format(echelon, ncols, 0)
    rows = _dense_rows(echelon, ncols)
    assert all(gcd(*row) == 1 for row in rows)
    span = Matrix(QQ, len(rows), ncols, [QQ.of(x) for row in rows for x in row])
    assert rref(span)[0].entries == red.entries[: len(rows) * ncols]


@pytest.mark.parametrize("field", [QQ, F2, GF(101)])
def test_rank_of_empty_shapes(field):
    for shape in [(0, 0), (0, 5), (5, 0)]:
        assert rank(Matrix.zeros(field, *shape)) == 0
    assert rank(Matrix.identity(field, 4)) == 4


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
    # canonical: the basis of its own column space is itself
    assert column_space_pivots(basis)[0] == basis
    assert basis.rows_at(pivots) == Matrix.identity(f, basis.cols)
    q, free = quotient_map_free(m)
    # any spanning set gives the same map: the canonical basis does
    assert q == quotient_map_free(basis)[0]
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
    assert (red, pivots) == reference_rref(m)
    assert len(pivots) <= base
    assert rank(m) == len(pivots)
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
# the commuting-square check against comparing the two Matrix.mul products


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
    """(a, b, c, d, expected) with a*b and c*d both n x k: about half equal
    by construction, a quarter one entry off by 1/7, the rest independent
    factors."""
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
    inner = draw(dim)
    return a, b, _pe_matrix(draw, field, n, inner), _pe_matrix(draw, field, inner, k), None


def _square_holds(a, b, c, d, forms=None):
    """Whether ``_first_broken_square`` passes the square F_t M_a == N_a F_s
    of the one arrow a: s -> t of A2 with F_t = a, M_a = b, N_a = c and
    F_s = d, that is a*b == c*d; the blocks are read as ``forms``, by
    default their ``_forms`` as ``Morphism(...)`` reads them."""
    (aid, s, t), = linear_quiver(2).arrows
    m = Rep(linear_quiver(2), a.field, {t: b.rows, s: b.cols}, {aid: b})
    n = Rep(linear_quiver(2), a.field, {t: c.rows, s: c.cols}, {aid: c})
    broken = _first_broken_square(m, n, forms or _forms({t: a, s: d}))
    assert broken in (None, aid)
    return broken is None


@settings(max_examples=150, deadline=None)
@given(_product_case(), st.integers(min_value=1, max_value=2**70), st.integers(1, 2**70))
def test_square_check_matches_mul_comparison(case, gt, gs):
    """Over QQ the blocks are also read as forms times a common factor
    (``gt`` at t, ``gs`` at s), which is harmless; the forms and the
    matrices are left as they were."""
    a, b, c, d, expected = case
    before = [list(x.entries) for x in (a, b, c, d)]
    verdict = _square_holds(a, b, c, d)
    assert verdict == (a.mul(b) == c.mul(d))
    if expected is not None:
        assert verdict is expected
    if a.field == QQ:
        (ai, da), (di, dd) = a._integer_form(), d._integer_form()
        forms = {1: ([x * gt for x in ai], da * gt), 2: ([x * gs for x in di], dd * gs)}
        kept = {v: (list(ints), den) for v, (ints, den) in forms.items()}
        assert _square_holds(a, b, c, d, forms) is verdict
        assert forms == kept
    assert [x.entries for x in (a, b, c, d)] == before


def test_square_check_cross_multiplies_and_reduces_mod_p():
    """Blocks of the wrong shape or field never reach the check:
    ``Morphism(...)`` refuses them first."""
    (aid, s, t), = linear_quiver(2).arrows
    rep = Rep(linear_quiver(2), QQ, {1: 1, 2: 1}, {aid: mq([[1]])})
    with pytest.raises(InvariantError, match="shape"):
        Morphism(rep, rep, {t: mq([[1, 2]]), s: mq([[1]])})
    with pytest.raises(InvariantError, match="wrong field"):
        Morphism(rep, rep, {t: mq([[1]]), s: Matrix.identity(F5, 1)})
    # denominators on both sides that cancel only after cross-multiplication
    half = mq([["1/2"]])
    assert _square_holds(half, mq([[3]]), mq([[3]]), half)
    assert not _square_holds(half, mq([[1]]), mq([[1]]), mq([[1]]))
    # equal modulo p, unequal as integers
    one = Matrix.identity(F5, 1)
    assert _square_holds(Matrix(F5, 1, 1, [4]), Matrix(F5, 1, 1, [4]), one, one)


@st.composite
def _kernel_input(draw):
    """Shapes 0..8 over QQ (entries up to 2^70), GF(2) and GF(101); half of
    them a product a*b, whose kernel is larger than its shape forces."""
    field = draw(st.sampled_from([QQ, F2, GF(101)]))
    entry = _big_rational if field == QQ else field_scalar(field)

    def matrix(rows, cols):
        n = rows * cols
        return Matrix(field, rows, cols, draw(st.lists(entry, min_size=n, max_size=n)))

    rows, inner, cols = (draw(_kernel_dims) for _ in range(3))
    if draw(st.booleans()):
        return matrix(rows, cols)
    return matrix(rows, inner).mul(matrix(inner, cols))


@settings(max_examples=200, deadline=None)
@given(_kernel_input(), st.booleans())
@example(_negative_pivots(), True)
@example(_triangular(), False)
@example(_gf5_rank_3(), False)
def test_nullspace_basis_matches_the_rref_reference(m, cached):
    """The kernel read off the echelon rows equals the one read off the
    reduced matrix, with the input's integer form cached beforehand or not;
    ``quotient_map_free`` of the transpose has the same vectors as its rows.
    A product input over QQ is born with its integer form, which must be
    ``_integer_multiple`` of its entries; the input is rebuilt without it."""
    qq = not m.field.characteristic
    if m._ints is not None:
        assert qq and m._ints == _integer_multiple(m.entries)
    m = Matrix(m.field, m.rows, m.cols, m.entries)
    if cached and qq:
        m._integer_form()
    assert (m._ints is not None) == (cached and qq)
    before = list(m.entries)
    got = nullspace_basis(m)
    assert got == reference_nullspace(m)
    assert all(_canonical(v) for v in got)
    assert m.entries == before
    if qq:
        assert m._integer_form() == _integer_multiple(m.entries)
    q, free = quotient_map_free(m.transpose())
    assert q == Matrix(m.field, len(got), m.cols, [x for v in got for x in v.entries])
    assert free == [c for c in range(m.cols) if c not in rref(m)[1]]


@st.composite
def _raw_kernel_input(draw):
    """A tall, wide, zero or full-column-rank matrix over QQ (wide
    denominators, negative entries), GF(2) or GF(101)."""
    field = draw(st.sampled_from([QQ, F2, GF(101)]))
    entry = _big_rational if field == QQ else field_scalar(field)
    kind = draw(st.sampled_from(["tall", "wide", "zero", "full column rank"]))
    small, large = st.integers(min_value=1, max_value=4), st.integers(min_value=4, max_value=9)
    rows, cols = draw(st.tuples(small, large) if kind == "wide" else st.tuples(large, small))
    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    if kind == "full column rank":
        # an upper triangular block with a nonzero diagonal, among the rows drawn
        top = [
            draw(entry.filter(bool)) if i == j else (draw(entry) if i < j else field.zero)
            for i in range(cols)
            for j in range(cols)
        ]
        order = draw(st.permutations(range(rows + cols)))
        lines = [top[i * cols : (i + 1) * cols] for i in range(cols)]
        lines += [entries[i * cols : (i + 1) * cols] for i in range(rows)]
        return Matrix(field, rows + cols, cols, [x for i in order for x in lines[i]])
    return Matrix(field, rows, cols, entries)


@settings(max_examples=300, deadline=None)
@given(_raw_kernel_input())
@example(mq([[2, 1], [0, -3], [1, 1]]))  # no free column
@example(mq([[0, 1, 2], [0, 3, 4]]))  # column 0 free
@example(mq([[1, 2, 3], [0, 1, 0]]))  # pivot row 1 is zero at the free column
@example(Matrix.from_rows(F2, [[1, 1, 0, 0], [0, 1, 0, 0]]))  # both pivot rows zero there
@example(mq([[-2, 3, 1, "1/3"], [0, -5, 2, "-1/7"], [4, -6, "-5/2", 0]]))  # negative pivots
@example(Matrix.zeros(GF(101), 3, 4))  # all-zero rows
def test_row_kernel_on_raw_rows_matches_the_rref_reference(m):
    """``_row_kernel`` on the raw rows of m, solved at the free columns only,
    against the kernel read off the ``Field``-arithmetic reduced matrix; the
    solved rows are its rows at the free columns, over QQ as canonical
    integer pairs."""
    vecs, free = _row_kernel(_rows(m), m.cols, m.field)
    assert [Matrix(m.field, m.cols, 1, v) for v in vecs] == reference_nullspace(m)
    assert all(_canonical(Matrix(m.field, m.cols, 1, v)) for v in vecs)
    red, pivots = reference_rref(m)
    assert free == [c for c in range(m.cols) if c not in pivots]
    if not free:
        return
    echelon = _row_forward_echelon(_rows(m), m.cols, m.field.characteristic)
    solved = _solve_at_free(echelon, free, m.field.characteristic)
    assert tuple(echelon) == pivots
    for k, pc in enumerate(pivots):
        want = [red.at(k, c) for c in free]
        sol = solved.get(pc)
        if sol is None:
            assert not any(want)
            continue
        vals, den = sol
        if m.field.characteristic:
            assert den == 1 and vals == want
        else:
            assert den > 0 and gcd(den, *vals) == 1
            assert [Fraction(x, den) for x in vals] == want


@st.composite
def _sparse_kernel_input(draw):
    """A 0..9 x 0..9 matrix over QQ (entries up to 2^70, wide denominators),
    GF(2) or GF(101), of one of five kinds: sparse (about two entries in
    three zero, zero rows common), one nonzero entry per row, zero (every
    column free), full column rank (no free column), or a product through
    an inner dimension 0..3."""
    field = draw(st.sampled_from([QQ, F2, GF(101)]))
    entry = _big_rational if field == QQ else field_scalar(field)
    nonzero = entry.filter(bool)
    kind = draw(st.sampled_from(["sparse", "one entry", "zero", "full column rank", "product"]))
    dim = st.integers(min_value=0, max_value=9)
    rows, cols = draw(dim), draw(dim)

    def matrix(r, c, scalar):
        return Matrix(field, r, c, draw(st.lists(scalar, min_size=r * c, max_size=r * c)))

    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    if kind == "sparse":
        return matrix(rows, cols, st.one_of(st.just(field.zero), st.just(field.zero), nonzero))
    if kind == "product":
        inner = draw(st.integers(min_value=0, max_value=3))
        return matrix(rows, inner, entry).mul(matrix(inner, cols, entry))
    if kind == "one entry":
        cols = max(cols, 1)
        flat = [field.zero] * (rows * cols)
        for i in range(rows):
            flat[i * cols + draw(st.integers(min_value=0, max_value=cols - 1))] = draw(nonzero)
        return Matrix(field, rows, cols, flat)
    # an upper triangular block with a nonzero diagonal, among random rows
    top = [draw(nonzero) if i == j else (draw(entry) if i < j else field.zero)
           for i in range(cols) for j in range(cols)]
    lines = [top[i * cols : (i + 1) * cols] for i in range(cols)]
    lines += matrix(rows, cols, entry).to_rows()
    order = draw(st.permutations(range(len(lines))))
    return Matrix(field, len(lines), cols, [x for i in order for x in lines[i]])


def _shuffled_items(m, rng, scale):
    """The nonzero items of m's raw rows, rows and items in a random order,
    over QQ every row times ``scale``."""
    p = m.field.characteristic
    items = [[(j, x * (1 if p else scale)) for j, x in nonzero_items(row)] for row in _rows(m)]
    for row in items:
        rng.shuffle(row)
    rng.shuffle(items)
    return items


@settings(max_examples=300, deadline=None)
@given(_sparse_kernel_input(), st.randoms(use_true_random=False), st.integers(1, 2**70))
@example(mq([[0, -3, 1], [0, 6, -2], [-2, 0, 5]]), random.Random(0), 1)  # negative leads
@example(mq([[-4, 6], [0, 0], [2, -3]]), random.Random(0), 3)  # one pivot, a zero row
@example(Matrix.zeros(GF(101), 3, 4), random.Random(0), 1)  # no pivot at all
def test_both_eliminations_return_the_one_echelon_format(m, rng, scale):
    """``_row_forward_echelon`` on m's dense raw rows and ``_sparse_echelon``
    on their shuffled items return the same pivot set, rref's, each pivot
    entry 1 over GF(p) and positive over QQ, every item nonzero and after
    its pivot; and each pivot-row set, written out, spans m's row space."""
    f, p = m.field, m.field.characteristic
    dense = _row_forward_echelon(_rows(m), m.cols, p)
    sparse = _sparse_echelon(_shuffled_items(m, rng, scale), p)
    red, pivots = rref(m)
    assert set(dense) == set(sparse) and tuple(dense) == pivots
    for echelon in (dense, sparse):
        _assert_echelon_format(echelon, m.cols, p)
        rows = _dense_rows(echelon, m.cols)
        span = Matrix(f, len(rows), m.cols, [f.of(x) for row in rows for x in row])
        assert rref(span)[0].entries == red.entries[: len(rows) * m.cols]


@settings(max_examples=400, deadline=None)
@given(_sparse_kernel_input(), st.randoms(use_true_random=False), st.integers(1, 2**70))
@example(mq([[0, -3, 1], [0, 6, -2], [-2, 0, 5]]), random.Random(0), 1)  # negative leads
@example(mq([[-4, 6], [0, 0], [2, -3]]), random.Random(0), 3)  # one pivot, a zero row
@example(Matrix.from_rows(F2, [[1, 1, 0, 0], [0, 1, 0, 0]]), random.Random(0), 1)
@example(Matrix.zeros(GF(101), 3, 4), random.Random(0), 1)  # every column free
def test_sparse_kernel_matches_the_dense_one_and_the_rref_reference(m, rng, scale):
    """``_kernel_at_free`` of ``_sparse_echelon`` on the nonzero items of m's
    raw rows (rows and items in a random order, over QQ every row times a
    common ``scale``) equals ``_kernel_at_free`` of ``_row_forward_echelon``
    on the dense rows: the same rref rows at the free columns, as canonical
    ``(vals, den)`` pairs, the same pivots and free columns, as many pivots
    as ``_sparse_echelon`` returns rows, and the kernel forms read off the
    solved rows are the reference kernel."""
    f, p = m.field, m.field.characteristic
    items = _shuffled_items(m, rng, scale)
    got = _kernel_at_free(_sparse_echelon(items, p), m.cols, p)
    assert got == _kernel_at_free(_row_forward_echelon(_rows(m), m.cols, p), m.cols, p)
    solved, pivots, free = got
    red, ref_pivots = reference_rref(m)
    assert tuple(pivots) == ref_pivots and len(_sparse_echelon(items, p)) == len(pivots)
    assert free == [c for c in range(m.cols) if c not in ref_pivots]
    for k, pc in enumerate(pivots):
        want = [red.at(k, c) for c in free]
        if pc not in solved:
            assert not any(want)
            continue
        vals, den = solved[pc]
        assert den > 0 and gcd(den, *vals) == 1 and (den == 1 or not p)
        assert [f.of(Fraction(x, den)) for x in vals] == want
    forms = _row_kernel_forms(solved, free, m.cols, p)
    vecs = [Matrix(f, m.cols, 1, [f.of(Fraction(x, den)) for x in ints]) for ints, den in forms]
    assert vecs == reference_nullspace(m)


@st.composite
def _solve_case(draw):
    """(a, b) over QQ (entries up to 2^70), GF(2) or GF(101).  a is 0..6 x
    0..6, zero rows or columns included, of one of four kinds: any entries,
    a product through an inner dimension 0..3, or square and invertible or
    singular.  b has 0..3 columns and is a*x for a random x or drawn at
    random, which makes many systems inconsistent."""
    field = draw(st.sampled_from([QQ, F2, GF(101)]))
    entry = _big_rational if field == QQ else field_scalar(field)
    dim = st.integers(min_value=0, max_value=6)

    def matrix(rows, cols):
        n = rows * cols
        return Matrix(field, rows, cols, draw(st.lists(entry, min_size=n, max_size=n)))

    kind = draw(st.sampled_from(["any", "low rank", "invertible", "singular"]))
    rows, cols = draw(dim), draw(dim)
    if kind == "any":
        a = matrix(rows, cols)
    elif kind == "low rank":
        inner = draw(st.integers(min_value=0, max_value=3))
        a = matrix(rows, inner).mul(matrix(inner, cols))
    elif kind == "invertible":
        a = _invertible(draw, field, rows)
    else:
        inner = draw(st.integers(min_value=0, max_value=max(rows - 1, 0)))
        a = matrix(rows, inner).mul(matrix(inner, rows))
    k = draw(st.integers(min_value=0, max_value=3))
    b = a.mul(matrix(a.cols, k)) if draw(st.booleans()) else matrix(a.rows, k)
    return a, b


def _solution_from_rref(a, b):
    """Reference: X of a*X = b with free variables zero, read off the
    ``Field``-arithmetic rref of ``[a | b]``, or None if it has a pivot in
    b's block."""
    f, n, k = a.field, a.cols, b.cols
    red, pivots = reference_rref(hstack([a, b]))
    if any(pc >= n for pc in pivots):
        return None
    x = [f.zero] * (n * k)
    for r, pc in enumerate(pivots):
        x[pc * k : (pc + 1) * k] = [red.at(r, n + j) for j in range(k)]
    return Matrix(f, n, k, x)


@settings(max_examples=200, deadline=None)
@given(_solve_case())
@example((mq([[1, 0], [0, 0]]), mq([[0], [1]])))  # the pivot lands in b's block
@example((mq([[1, 2], [2, 4]]), mq([[1, 0], [2, 0]])))  # singular, consistent
@example((Matrix.zeros(QQ, 0, 3), Matrix.zeros(QQ, 0, 2)))  # no equations
@example((Matrix.zeros(F2, 2, 0), Matrix.from_rows(F2, [[0], [1]])))  # no unknowns
def test_solve_matches_the_reference_rref_of_the_augmented_matrix(case):
    """``solve`` is None exactly when the reference rref of ``[a | b]`` has a
    pivot in b's block, and otherwise the reference solution, in canonical
    entries; on a square a, ``inverse`` is the reference ``solve(a, I)``."""
    a, b = case
    before = (list(a.entries), list(b.entries))
    want = _solution_from_rref(a, b)
    got = solve(a, b)
    if want is None:
        assert got is None
    else:
        assert got == want and _canonical(got) and a.mul(got) == b
    assert (a.entries, b.entries) == before
    if a.is_square():
        inv = inverse(a)
        assert inv == _solution_from_rref(a, Matrix.identity(a.field, a.rows))
        assert (inv is None) == (rank(a) < a.rows)
        assert inv is None or _canonical(inv)


# ---------------------------------------------------------------------------
# QQ products on the cached integer forms against Fraction arithmetic

def _qq_with_zero_lines(draw, rows, cols):
    """Numerators and denominators up to 2^70, some whole rows and columns zero."""
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max(rows - 1, 0)), max_size=rows))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(cols - 1, 0)), max_size=cols))
    return Matrix(QQ, rows, cols, [
        QQ.zero if i in zero_rows or j in zero_cols else draw(_big_rational)
        for i in range(rows)
        for j in range(cols)
    ])


@st.composite
def _qq_factors(draw):
    n, m, k = draw(_kernel_dims), draw(_kernel_dims), draw(_kernel_dims)
    return _qq_with_zero_lines(draw, n, m), _qq_with_zero_lines(draw, m, k)


def _assert_fresh_integer_form(x):
    ints, den = x._integer_form()
    assert den == lcm(*[e.denominator for e in x.entries])
    assert len(ints) == len(x.entries) and all(type(i) is int for i in ints)
    assert all(Fraction(i, den) == e for i, e in zip(ints, x.entries))


@settings(max_examples=200, deadline=None)
@given(_qq_factors())
def test_qq_mul_on_integer_forms_matches_fraction_reference(pair):
    a, b = pair
    before = (list(a.entries), list(b.entries))
    got = a.mul(b)
    assert got == _reference_mul(a, b)
    assert all(type(x) is Fraction for x in got.entries)
    assert all(x is QQ.zero for x in got.entries if not x)
    assert (a.entries, b.entries) == before
    # the product is born with its integer form, the right factor's pattern kept
    assert got._ints == _integer_multiple(got.entries)
    _assert_fresh_integer_form(got)
    b_ints = b._ints[0]
    assert b._pat == [nonzero_items(b_ints[l * b.cols : (l + 1) * b.cols]) for l in range(b.rows)]
    forms = (a._ints, b._ints)
    assert None not in forms
    for x, form in zip((a, b), forms):
        assert x._integer_form() is form
        _assert_fresh_integer_form(x)
    # a second product reads the same cached forms
    assert a.mul(b) == got
    assert a._ints is forms[0] and b._ints is forms[1]


@settings(max_examples=150, deadline=None)
@given(_product_case(), st.data())
def test_square_check_reads_cached_forms_in_any_order(case, data):
    a, b, c, d, _ = case
    factors = [a, b, c, d]
    if a.field == QQ:
        order = data.draw(st.permutations(range(4)))
        for i in order[: data.draw(st.integers(min_value=0, max_value=4))]:
            factors[i]._integer_form()
    verdict = _square_holds(a, b, c, d)
    assert verdict == (_reference_mul(a, b) == _reference_mul(c, d))
    assert verdict == (a.mul(b) == c.mul(d))
    # every operand cached now, and the sides swapped
    assert _square_holds(a, b, c, d) == verdict == _square_holds(c, d, a, b)
    assert _square_holds(a, b, a, b)
    if a.field == QQ:
        for x in factors:
            _assert_fresh_integer_form(x)


# ---------------------------------------------------------------------------
# unit vectors


def test_unit_vectors_are_canonical_standard_basis():
    for field in (QQ, F2, GF(101)):
        units = unit_vectors(field, 3)
        assert Matrix.from_rows(field, units) == Matrix.identity(field, 3)
        assert all(x is field.zero or x is field.one for e in units for x in e)
        assert unit_vectors(field, 0) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(101)]), st.data())
def test_combination_matches_scale_and_add(field, data):
    """``combination`` against ``scale`` and ``add`` in ``Field`` arithmetic,
    on matrices that are mostly zero; over GF(p) each term adds only its
    nonzero items, read from its kept pattern."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 4))
    mats = [
        Matrix(field, rows, cols, data.draw(st.lists(field_scalar(field), min_size=rows * cols, max_size=rows * cols)))
        for _ in range(k)
    ]
    coeffs = data.draw(st.lists(field_scalar(field), min_size=k, max_size=k))
    before = [list(m.entries) for m in mats]
    want = Matrix.zeros(field, rows, cols)
    for c, m in zip(coeffs, mats):
        want = want.add(m.scale(c))
    got = combination(coeffs, mats)
    assert got == want
    assert [m.entries for m in mats] == before
    if field.characteristic:
        assert all(type(x) is int and 0 <= x < field.characteristic for x in got.entries)
