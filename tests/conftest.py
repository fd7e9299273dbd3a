from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from quiverfilt import (
    GF,
    QQ,
    Matrix,
    Morphism,
    Rep,
    cokernel,
    compose,
    hom_basis,
    image,
    kronecker,
    linear_quiver,
    quasi_simple,
)
from quiverfilt.homext import ExtCocycle, _phi_rows
from quiverfilt.linalg import (
    _row_kernel,
    hstack,
    mat_from_cols,
    rank,
    unit_vectors,
)


@pytest.fixture(scope="session")
def k2():
    return kronecker(2)


@pytest.fixture(scope="session")
def k3():
    return kronecker(3)


@pytest.fixture(scope="session")
def k4():
    return kronecker(4)


@pytest.fixture(scope="session")
def a3():
    return linear_quiver(3)


@pytest.fixture
def r0():
    return quasi_simple(QQ, QQ.of(0))


@pytest.fixture
def r1():
    return quasi_simple(QQ, QQ.of(1))


@pytest.fixture
def rinf():
    return quasi_simple(QQ, "inf")


def make_x11(quiver, field, scalars):
    """(1,1)-dimensional rep on an r-arrow Kronecker quiver from arrow scalars."""
    maps = {
        arrow[0]: Matrix.from_rows(field, [[field.of(c)]])
        for arrow, c in zip(quiver.arrows, scalars)
    }
    return Rep(quiver, field, {1: 1, 2: 1}, maps)


@pytest.fixture(scope="session")
def fields():
    return [QQ, GF(5)]


def field_scalar(field):
    """Canonical scalars, zero about half the time; fractional over QQ."""
    if field.characteristic == 0:
        nonzero = st.builds(
            Fraction,
            st.integers(min_value=-6, max_value=6).filter(bool),
            st.integers(min_value=1, max_value=5),
        )
    else:
        nonzero = st.integers(min_value=1, max_value=field.characteristic - 1)
    return st.one_of(st.just(field.zero), nonzero)


def draw_rep(data, quiver, field, max_dim=2, scalar=None):
    """A random rep with dims in 0..max_dim, drawn through Hypothesis ``data``.

    Entries come from ``scalar``, by default ``field_scalar(field)``.
    """
    scalar = field_scalar(field) if scalar is None else scalar
    dims = {v: data.draw(st.integers(min_value=0, max_value=max_dim)) for v in quiver.vertices}
    maps = {}
    for aid, s, t in quiver.arrows:
        n = dims[t] * dims[s]
        entries = data.draw(st.lists(scalar, min_size=n, max_size=n))
        maps[aid] = Matrix(field, dims[t], dims[s], entries)
    return Rep(quiver, field, dims, maps)


def reference_rref(m):
    """Reference: Gauss-Jordan elimination in ``Field`` arithmetic, one row at
    a time, shared with no kernel under test.  Returns the reduced matrix and
    its pivot columns."""
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


def reference_rank(f, vectors, width):
    """Reference: the dimension of the span of ``vectors``, canonical scalars
    of ``f`` in lists of length ``width``: the pivot count of
    ``reference_rref`` of their stack."""
    vectors = list(vectors)
    flat = [x for vec in vectors for x in vec]
    return len(reference_rref(Matrix(f, len(vectors), width, flat))[1])


def columns_contained(inner, outer):
    """Reference: whether every column of ``inner`` lies in the column space of
    ``outer``, read off the pivot counts of two full reductions."""
    if inner.cols == 0:
        return True
    return len(reference_rref(hstack([outer, inner]))[1]) == len(reference_rref(outer)[1])


def reference_nullspace(m):
    """Reference: the canonical kernel basis read off the reduced matrix, one
    vector per free column of rref(m) with a 1 there and, at each pivot
    column, the negated entry of rref(m) in that free column."""
    f = m.field
    red, pivots = reference_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        vec = [f.zero] * m.cols
        vec[fc] = f.one
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(red.at(r, fc))
        basis.append(Matrix(f, m.cols, 1, vec))
    return basis


def reference_linear_combination(basis, coeffs):
    """Reference: the blocks of the sum of ``c * b``, accumulated entry by entry
    with the field's own operators (``Fraction`` over QQ, one ``% p`` per entry
    over GF(p)), skipping zero coefficients and zero entries."""
    field = basis[0].source.field
    p = field.characteristic
    terms = [(c, b.blocks) for c, b in zip(map(field.of, coeffs), basis) if c]
    blocks = {}
    for v, template in basis[0].blocks.items():
        acc = [field.zero] * len(template.entries)
        for c, bb in terms:
            for i, x in enumerate(bb[v].entries):
                if x:
                    acc[i] += c * x
        if p:
            acc = [x % p for x in acc]
        blocks[v] = Matrix(field, template.rows, template.cols, acc)
    return blocks


def _matrix_trace(m):
    f = m.field
    total = f.zero
    for i in range(m.rows):
        total = f.add(total, m.at(i, i))
    return total


def reference_trace(f):
    """Reference: the trace of an endomorphism, the sum of its blocks' diagonals."""
    total = f.source.field.zero
    for block in f.blocks.values():
        total = f.source.field.add(total, _matrix_trace(block))
    return total


def operator_matrix(alg, coords):
    """Reference: left multiplication on ``alg`` by the element with the given
    coordinates, as a d x d matrix whose columns are its products with the
    basis."""
    f, d = alg.field, alg.dimension
    return mat_from_cols(f, d, [alg.multiply(coords, e) for e in unit_vectors(f, d)])


def reference_trace_radical(alg):
    """Reference: the dimension of the radical of the regular trace form
    tr(L_a L_b) on an endomorphism algebra over QQ, from the d operator
    matrices L_e of its left-regular representation and their d^2 products."""
    f, d = alg.field, alg.dimension
    ops = [operator_matrix(alg, e) for e in unit_vectors(f, d)]
    gram = Matrix.from_rows(f, [[_matrix_trace(a.mul(b)) for b in ops] for a in ops])
    return d - rank(gram)


def reference_intertwine_matrix(m, n):
    """Reference: Phi for Hom(m, n), written entry by entry through Field.add/sub.

    Row (i, j) of arrow a: s -> t holds entry (i, j) of F_t M_a - N_a F_s;
    the columns are the blocks F_v in vertex order, each row-major.
    """
    f = m.field
    quiver = m.quiver
    col_off, ncols = {}, 0
    for v in quiver.vertices:
        col_off[v] = ncols
        ncols += n.dims[v] * m.dims[v]
    nrows = sum(n.dims[t] * m.dims[s] for _, s, t in quiver.arrows)
    flat = [f.zero] * (nrows * ncols)
    r = 0
    for aid, s, t in quiver.arrows:
        ma, na = m.arrow_maps[aid], n.arrow_maps[aid]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                base = r * ncols
                for l in range(m.dims[t]):
                    c = base + col_off[t] + i * m.dims[t] + l
                    flat[c] = f.add(flat[c], ma.at(l, j))
                for l in range(n.dims[s]):
                    c = base + col_off[s] + l * m.dims[s] + j
                    flat[c] = f.sub(flat[c], na.at(i, l))
                r += 1
    return Matrix(f, nrows, ncols, flat)


def _cut_blocks(f, vec, shapes):
    """``{key: Matrix}`` cut from ``vec`` in turn, for each ``(key, rows, cols)``."""
    blocks, off = {}, 0
    for key, r, c in shapes:
        blocks[key] = Matrix(f, r, c, vec[off : off + r * c])
        off += r * c
    return blocks


def reference_hom_basis(m, n):
    """Reference: the canonical Hom basis with each element validated on its
    own, ``Morphism(...)`` checking every commuting square of every element."""
    rows = _phi_rows(m, n)
    shapes = [(v, n.dims[v], m.dims[v]) for v in m.quiver.vertices]
    vecs = _row_kernel(rows, sum(r * c for _, r, c in shapes), m.field)[0]
    return [Morphism(m, n, _cut_blocks(m.field, vec, shapes)) for vec in vecs]


def reference_ext(m, n):
    """Reference: Ext^1(m, n) built from the full rref of Phi^T, Phi from
    ``reference_intertwine_matrix``.

    Returns ``dim``, ``coboundary_rank``, the ``basis`` cocycles (a 1 at one
    free coordinate of the rref, zero elsewhere) and ``reduce``, the class
    coordinates of a cocycle: its flattened components less, for each pivot,
    their entry there times that pivot's rref row, in ``Field`` arithmetic,
    read at the free coordinates.
    """
    f = m.field
    reduced, pivots = reference_rref(reference_intertwine_matrix(m, n).transpose())
    free = [c for c in range(reduced.cols) if c not in pivots]
    shapes = [(aid, n.dims[t], m.dims[s]) for aid, s, t in m.quiver.arrows]

    def cocycle(vec):
        return ExtCocycle(m, n, _cut_blocks(f, vec, shapes))

    def unit(i):
        vec = [f.zero] * reduced.cols
        vec[free[i]] = f.one
        return cocycle(vec)

    def reduce(c):
        vec = [x for aid, _, _ in shapes for x in c.components[aid].entries]
        for k, pc in enumerate(pivots):
            factor = vec[pc]
            vec = [f.sub(x, f.mul(factor, y)) for x, y in zip(vec, reduced.row(k))]
        assert not any(vec[pc] for pc in pivots)
        return [vec[fc] for fc in free]

    return SimpleNamespace(
        dim=len(free),
        coboundary_rank=len(pivots),
        basis=[unit(i) for i in range(len(free))],
        reduce=reduce,
    )


def reference_uniserial(t):
    """Reference: ``uniserial_check``'s verdict from every quotient Y(i)/Y(j),
    0 <= j < i <= height, each built from scratch: for every member X,
    dim Hom(X, Y(i)/Y(j)) <= 1 and each basis morphism's image is the bottom
    layer Y(j+1)/Y(j).  The applicability checks are left to the caller."""
    lower = None
    for j in range(t.height):
        # upper[k] = inclusion(j + 1, j + 1 + k); lower[k] = inclusion(j, j + k)
        upper = list(t._inclusions_from(j + 1))
        for i in range(j + 1, t.height + 1):
            # quotient Y(i)/Y(j); j = 0 means Y(i) itself (1-based levels)
            if j == 0:
                quot = t.levels[i - 1]
                bottom = image(upper[i - 1])
            else:
                quot, proj = cokernel(lower[i - j])
                bottom = image(compose(upper[i - j - 1], proj))
            for member in t.semibrick.members:
                basis = hom_basis(member, quot)
                if len(basis) > 1:
                    return False
                for fmor in basis:
                    img = image(fmor)
                    if img.sub.dim_vector() != bottom.sub.dim_vector():
                        return False
                    if img.inclusion.blocks != bottom.inclusion.blocks:
                        return False
        lower = upper
    return True
