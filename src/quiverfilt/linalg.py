"""Exact dense linear algebra over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
``int`` in the range [0, p) over GF(p).  A ``Field`` object owns the scalar
arithmetic.  Everything here is exact; no floats appear anywhere in the
package.

The hot kernels (``rref``, ``Matrix.mul`` and the row kernels below) bypass
``Field`` and specialise on the characteristic: ``int`` arithmetic with one
``% p`` per result over GF(p), ``Fraction`` operators over the rationals.
``rref`` over the rationals does no ``Fraction`` arithmetic at all: it clears
each row's denominators once, eliminates by cross-multiplication on integer
rows kept primitive (divided by the gcd of their entries), and builds each
``Fraction`` of the result once, from a pivot row and its pivot entry.
``products_equal(a, b, c, d)`` decides ``a*b == c*d`` on integers and builds
no field element: over QQ it scales each factor once by the lcm of its
denominators and compares the two integer products by cross-multiplying
with the other side's denominators; over GF(p) it compares the unreduced
products modulo p.  ``Matrix.mul`` and ``products_equal`` share one
zero-skipping product loop.  The kernels skip zeros by truthiness, so they
require canonical entries, the values ``Field.of`` returns: a ``Fraction``
over QQ, an ``int`` in [0, p) over GF(p).

Matrices are immutable by convention: no public routine mutates its inputs,
and ``Matrix`` instances may be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import FormatError, InvariantError


class Field:
    """Arithmetic context for an exact field.

    ``zero`` and ``one`` are fixed canonical scalars of the field, shared by
    every caller.
    """

    kind: str
    characteristic: int
    zero: object
    one: object

    def of(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        if self.kind == "rationals":
            return "QQ"
        return f"GF({self.characteristic})"


class _Rationals(Field):
    kind = "rationals"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise InvariantError(f"cannot coerce {x!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def parse(self, text: str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational literal {text!r}") from exc

    def format(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"


class _PrimeField(Field):
    kind = "prime_field"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise InvariantError(f"{p} is not prime")
        self.characteristic = p

    def of(self, x):
        if isinstance(x, int):
            return x % self.characteristic
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            # convenience for literals shared with QQ test data
            if x.denominator % self.characteristic == 0:
                raise InvariantError(f"{x} has no image in GF({self.characteristic})")
            return self.of(x.numerator) * pow(x.denominator, -1, self.characteristic) % self.characteristic
        raise InvariantError(f"cannot coerce {x!r} into GF({self.characteristic})")

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.characteristic)

    def parse(self, text: str):
        try:
            value = int(text)
        except ValueError as exc:
            raise FormatError(f"bad GF({self.characteristic}) literal {text!r}") from exc
        if not 0 <= value < self.characteristic:
            raise FormatError(
                f"literal {text!r} outside [0, {self.characteristic}) for GF({self.characteristic})"
            )
        return value

    def format(self, a) -> str:
        return str(a % self.characteristic)


QQ: Field = _Rationals()

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    """Return the field with p elements (p prime); instances are cached."""
    if p not in _gf_cache:
        _gf_cache[p] = _PrimeField(p)
    return _gf_cache[p]


def field_from_spec(kind: str, characteristic: int) -> Field:
    if kind == "rationals":
        if characteristic != 0:
            raise FormatError("rationals must have characteristic 0")
        return QQ
    if kind == "prime_field":
        return GF(characteristic)
    raise FormatError(f"unknown field kind {kind!r}")


class Matrix:
    """Immutable dense matrix with row-major flat storage."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: list):
        if rows < 0 or cols < 0:
            raise InvariantError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise InvariantError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise InvariantError("ragged rows")
            flat.extend(field.of(x) for x in row)
        return cls(field, r, c, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        flat = [z] * (n * n)
        for i in range(n):
            flat[i * n + i] = o
        return cls(field, n, n, flat)

    @classmethod
    def column(cls, field: Field, values: Sequence) -> "Matrix":
        return cls(field, len(values), 1, [field.of(v) for v in values])

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def rows_at(self, indices: Sequence[int]) -> "Matrix":
        """The submatrix of the given rows, in the given order."""
        flat = [x for i in indices for x in self.row(i)]
        return Matrix(self.field, len(indices), self.cols, flat)

    def cols_at(self, indices: Sequence[int]) -> "Matrix":
        """The submatrix of the given columns, in the given order."""
        e, n = self.entries, self.cols
        flat = [e[i * n + j] for i in range(self.rows) for j in indices]
        return Matrix(self.field, self.rows, len(indices), flat)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for x in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise InvariantError("field mismatch")
        if self.shape != other.shape:
            raise InvariantError(f"shape mismatch {self.shape} vs {other.shape}")

    def add(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        flat = [f.add(a, b) for a, b in zip(self.entries, other.entries)]
        return Matrix(f, self.rows, self.cols, flat)

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        flat = [f.sub(a, b) for a, b in zip(self.entries, other.entries)]
        return Matrix(f, self.rows, self.cols, flat)

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, [f.neg(a) for a in self.entries])

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.of(c)
        return Matrix(f, self.rows, self.cols, [f.mul(c, a) for a in self.entries])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise InvariantError("field mismatch")
        if self.cols != other.rows:
            raise InvariantError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        p = f.characteristic
        out = _product(self.entries, other.entries, self.rows, self.cols, other.cols, f.zero)
        if p:
            out = [x % p for x in out]
        return Matrix(f, self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        f = self.field
        out = [f.zero] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(f, self.cols, self.rows, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.to_rows()!r})"


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    if not blocks:
        raise InvariantError("hstack of nothing")
    f = blocks[0].field
    r = blocks[0].rows
    for b in blocks:
        if b.field != f or b.rows != r:
            raise InvariantError("hstack shape/field mismatch")
    flat = []
    for i in range(r):
        for b in blocks:
            flat.extend(b.row(i))
    return Matrix(f, r, sum(b.cols for b in blocks), flat)


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    if not blocks:
        raise InvariantError("vstack of nothing")
    f = blocks[0].field
    c = blocks[0].cols
    flat = []
    for b in blocks:
        if b.field != f or b.cols != c:
            raise InvariantError("vstack shape/field mismatch")
        flat.extend(b.entries)
    return Matrix(f, sum(b.rows for b in blocks), c, flat)


def mat_from_cols(field: Field, nrows: int, cols: Iterable[Sequence]) -> Matrix:
    """Build a matrix from an iterable of length-nrows column vectors."""
    cols = list(cols)
    flat = [field.zero] * (nrows * len(cols))
    for j, col in enumerate(cols):
        if len(col) != nrows:
            raise InvariantError("column length mismatch")
        for i, v in enumerate(col):
            flat[i * len(cols) + j] = field.of(v)
    return Matrix(field, nrows, len(cols), flat)


# -- products --------------------------------------------------------------


def _product(ae: list, be: list, n: int, m: int, k: int, zero) -> list:
    """Flat entries of the n x m by m x k product of the flat lists ``ae``, ``be``.

    Zero entries of either factor are skipped.  Nothing is reduced: over
    GF(p) the caller takes residues.
    """
    # nonzero_items of each row of be, inlined: most products are tiny
    pattern = [[(j, x) for j, x in enumerate(be[l * k : (l + 1) * k]) if x] for l in range(m)]
    out = []
    for i in range(n):
        acc = [zero] * k
        for a, items in zip(ae[i * m : (i + 1) * m], pattern):
            if a:
                for j, v in items:
                    acc[j] += a * v
        out += acc
    return out


def _integer_multiple(values: list) -> tuple[list, int]:
    """``values`` (Fractions) times the lcm ``den`` of their denominators, and ``den``."""
    items = nonzero_items(values)
    den = lcm(*[x.denominator for _, x in items])
    out = [0] * len(values)
    for j, x in items:
        out[j] = x.numerator * (den // x.denominator)
    return out, den


def products_equal(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """Whether ``a*b == c*d``, decided on integers without building a field element.

    Over GF(p) the entries are integers already, and the two unreduced
    products are compared modulo p.  Over QQ each factor is scaled once by
    the lcm of its denominators, so ``a*b = A*B / (la*lb)`` and
    ``c*d = C*D / (lc*ld)``; the integer products are compared by
    cross-multiplying each with the other side's denominators.
    """
    f = a.field
    if b.field != f or c.field != f or d.field != f:
        raise InvariantError("field mismatch")
    if a.cols != b.rows or c.cols != d.rows:
        raise InvariantError(
            f"cannot multiply {a.shape} by {b.shape} or {c.shape} by {d.shape}"
        )
    if (a.rows, b.cols) != (c.rows, d.cols):
        return False
    p = f.characteristic
    if p:
        left = _product(a.entries, b.entries, a.rows, a.cols, b.cols, 0)
        right = _product(c.entries, d.entries, c.rows, c.cols, d.cols, 0)
        return not any((x - y) % p for x, y in zip(left, right))
    ai, la = _integer_multiple(a.entries)
    bi, lb = _integer_multiple(b.entries)
    ci, lc = _integer_multiple(c.entries)
    di, ld = _integer_multiple(d.entries)
    left = _product(ai, bi, a.rows, a.cols, b.cols, 0)
    right = _product(ci, di, c.rows, c.cols, d.cols, 0)
    s, t = lc * ld, la * lb
    return all(x * s == y * t for x, y in zip(left, right))


# -- elimination -----------------------------------------------------------


def nonzero_items(row: list, start: int = 0) -> list:
    """The nonzero ``(column, value)`` pairs of ``row`` from column ``start`` on."""
    return [(j, x) for j, x in enumerate(row[start:], start) if x]


def scale_to_unit(row: list, start: int, p: int) -> list:
    """Scale ``row`` in place so its entry at ``start`` is 1.

    Every entry before ``start`` must be zero.  Returns the nonzero pairs of
    the scaled row; ``p`` is the field characteristic, 0 for the rationals.
    """
    lead = row[start]
    if lead == 1:
        return nonzero_items(row, start)
    if p:
        inv = pow(lead, -1, p)
        items = [(j, x * inv % p) for j, x in enumerate(row[start:], start) if x]
    else:
        inv = 1 / lead
        items = [(j, x * inv) for j, x in enumerate(row[start:], start) if x]
    for j, x in items:
        row[j] = x
    return items


def subtract_multiple(row: list, factor, items: list, p: int) -> None:
    """In place, ``row -= factor * v`` for the row ``v`` given by its nonzero ``items``.

    ``p`` is the field characteristic, 0 for the rationals.
    """
    if p:
        for j, v in items:
            row[j] = (row[j] - factor * v) % p
    else:
        for j, v in items:
            row[j] -= factor * v


def reduce_against(vec: list, echelon: list, p: int) -> list:
    """Reduce ``vec`` in place by echelon rows, returning it.

    ``echelon`` lists ``(pivot, items)`` pairs in insertion order; each row
    has a 1 at its pivot and a 0 at the pivots of the rows before it.
    """
    for pivot, items in echelon:
        factor = vec[pivot]
        if factor:
            subtract_multiple(vec, factor, items, p)
    return vec


class RowSpace:
    """A growing subspace of k^n, kept as echelon rows, with membership tests.

    ``echelon`` lists ``(pivot, items)`` pairs in the form ``reduce_against``
    takes; ``reduce`` returns a copy of a vector with every pivot cleared.
    """

    def __init__(self, field: Field, vectors: Iterable[Sequence] = ()):
        self.field = field
        self.echelon: list = []
        for vec in vectors:
            self.add(vec)

    @property
    def dim(self) -> int:
        return len(self.echelon)

    def reduce(self, vec: Sequence) -> list:
        return reduce_against(list(vec), self.echelon, self.field.characteristic)

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Add ``vec`` to the space; False if it already lay in it."""
        red = self.reduce(vec)
        for i, x in enumerate(red):
            if x:
                self.echelon.append((i, scale_to_unit(red, i, self.field.characteristic)))
                return True
        return False


def unit_vectors(field: Field, d: int) -> list[list]:
    """The standard basis of k^d, as coordinate lists."""
    return [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leftmost pivots and unit leading entries.

    Returns the reduced matrix and the tuple of pivot column indices.  The
    output is canonical: equal row spaces give equal results.
    """
    p = m.field.characteristic
    if not p:
        return _rref_rational(m)
    rows = [m.row(i) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        items = scale_to_unit(pivot, c, p)
        for row in [row for row in rows if row[c]]:
            if row is not pivot:
                subtract_multiple(row, row[c], items, p)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    flat = [x for row in rows for x in row]
    return Matrix(m.field, m.rows, m.cols, flat), tuple(pivots)


def _primitive(row: list) -> list:
    """``row`` divided by the gcd of its entries (a zero row is returned as is)."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _rref_rational(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """``rref`` over QQ, eliminating on integer rows.

    Scaling a row keeps the row space, so each row is multiplied once by the
    lcm of its denominators.  An entry ``b`` is cleared against the pivot
    entry ``a`` by ``row = (a/g)*row - (b/g)*pivot`` with ``g = gcd(a, b)``,
    and a changed row is divided by its content; primitive rows keep the
    entries bounded by the minors of the cleared integer matrix.  The ``Fraction`` entries of
    the result are built once, by dividing each pivot row by its pivot entry.
    """
    n = m.cols
    e = m.entries
    rows = []
    for i in range(m.rows):
        rows.append(_primitive(_integer_multiple(e[i * n : (i + 1) * n])[0]))
    pivots: list[int] = []
    r = 0
    for c in range(n):
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        if pivot[c] < 0:
            pivot = rows[r] = [-x for x in pivot]
        a = pivot[c]
        items = nonzero_items(pivot, c)
        for i, row in enumerate(rows):
            b = row[c]
            if not b or i == r:
                continue
            g = gcd(a, b)
            s, t = a // g, b // g
            if s != 1:
                row = [s * x for x in row]
            for j, x in items:
                row[j] -= t * x
            rows[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    zero = QQ.zero
    flat = []
    for row, c in zip(rows, pivots):
        a = row[c]
        flat += [Fraction(x, a) if x else zero for x in row]
    flat += [zero] * ((m.rows - r) * n)
    return Matrix(m.field, m.rows, n, flat), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace_basis(m: Matrix) -> list[Matrix]:
    """Canonical kernel basis: one column vector per free column of rref(m).

    Free columns are taken in increasing order and each basis vector has a 1
    in its free coordinate, so the result is determined by the row space.
    """
    f = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [f.zero] * m.cols
        vec[fc] = f.one
        for r_idx, pc in enumerate(pivots):
            vec[pc] = f.neg(red.at(r_idx, fc))
        basis.append(Matrix(f, m.cols, 1, vec))
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of a*X = b with free variables set to zero, else None."""
    if a.field != b.field:
        raise InvariantError("field mismatch")
    if a.rows != b.rows:
        raise InvariantError("row count mismatch in solve")
    f = a.field
    red, pivots = rref(hstack([a, b]))
    # inconsistent iff some pivot lands in the b block
    for p in pivots:
        if p >= a.cols:
            return None
    x = [f.zero] * (a.cols * b.cols)
    for r_idx, pc in enumerate(pivots):
        for j in range(b.cols):
            x[pc * b.cols + j] = red.at(r_idx, a.cols + j)
    return Matrix(f, a.cols, b.cols, x)


def inverse(m: Matrix) -> Matrix | None:
    if not m.is_square():
        return None
    if m.rows == 0:
        return Matrix(m.field, 0, 0, [])
    red, pivots = rref(hstack([m, Matrix.identity(m.field, m.rows)]))
    if len(pivots) != m.rows or any(p >= m.cols for p in pivots):
        return None
    flat = []
    for i in range(m.rows):
        flat.extend(red.row(i)[m.cols :])
    return Matrix(m.field, m.rows, m.rows, flat)


def is_invertible(m: Matrix) -> bool:
    return m.is_square() and rank(m) == m.rows


def column_space_basis(m: Matrix) -> Matrix:
    """Canonical basis of the column space, returned as the columns of a matrix.

    Computed as the nonzero rows of rref(m^T), so the basis depends only on
    the column space itself, not on the generating order.
    """
    return column_space_pivots(m)[0]


def column_space_pivots(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """``column_space_basis(m)`` and its pivot rows, where it carries an identity.

    So a vector of the column space has its entries at the pivot rows as coordinates.
    """
    red, pivots = rref(m.transpose())
    cols = [red.row(i) for i in range(len(pivots))]
    return mat_from_cols(m.field, m.rows, cols), pivots


def quotient_map(span: Matrix) -> Matrix:
    """Projection q onto complementary coordinates of a subspace.

    ``span`` holds spanning columns of a subspace U of k^n, any spanning
    set: a basis or not, in any order.  Returns a (n - dim U) x n matrix q
    with ker q = U, built from rref data: eliminate each echelon row at its
    pivot coordinate, then keep the non-pivot coordinate rows.  Canonical
    for a given U.
    """
    return quotient_map_free(span)[0]


def quotient_map_free(span: Matrix) -> tuple[Matrix, list[int]]:
    """``quotient_map(span)`` and its free columns, where q carries an identity.

    So an X with ``X * q == B``, if one exists, is ``B`` at the free columns.
    """
    f = span.field
    n = span.rows
    red, pivots = rref(span.transpose())
    r = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    flat = []
    for c in free:
        row = [f.zero] * n
        row[c] = f.one
        for i, p in enumerate(pivots):
            row[p] = f.neg(red.at(i, c))
        flat.extend(row)
    return Matrix(f, n - r, n, flat), free


def preimage_basis(a: Matrix, target: Matrix) -> Matrix:
    """Canonical basis (as columns) of {x : a*x lies in the column space of target}."""
    q = quotient_map(target)
    comp = q.mul(a)
    vecs = nullspace_basis(comp)
    if not vecs:
        return Matrix(a.field, a.cols, 0, [])
    return column_space_basis(hstack(vecs))


def columns_contained(inner: Matrix, outer: Matrix) -> bool:
    """Whether every column of ``inner`` lies in the column space of ``outer``."""
    if inner.cols == 0:
        return True
    return rank(hstack([outer, inner])) == rank(outer)
