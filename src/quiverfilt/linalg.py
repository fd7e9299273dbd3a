"""Exact dense linear algebra over the rationals and prime fields, and one sparse elimination.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
``int`` in the range [0, p) over GF(p).  A ``Field`` object owns the scalar
arithmetic.  Everything here is exact; no floats appear anywhere in the
package.

The hot kernels (``rref``, ``Matrix.mul`` and the row kernels below) bypass
``Field`` and specialise on the characteristic: ``int`` arithmetic with one
``% p`` per result over GF(p), ``int`` arithmetic on cleared denominators
over the rationals.  Elimination runs on raw rows, ``(rows, ncols, p)``:
residues over GF(p), integers over the rationals, which ``_rows`` reads off a
``Matrix`` (its entries, or its ``_integer_form()``) and which callers such
as ``homext`` may build directly.  Over the rationals it does no ``Fraction``
arithmetic at all: it takes each row divided by its content (the gcd of its
entries) and eliminates by cross-multiplication on rows kept primitive.  It
pivots on the remaining entry of least absolute value in each column, made
positive; small pivots keep fraction-free elimination cheap (cf. Bareiss,
Math. Comp. 22, 1968), and a unit pivot clears a row without scaling it.
There are two eliminations and one echelon format.  The dense loop,
``_row_forward_echelon``, clears each pivot's column below it, with
``_clear_column`` alone.  The sparse one, ``_sparse_echelon``, takes rows
as their nonzero ``(column, value)`` items and eliminates them one at a
time in column order, pivoting on each row's leftmost nonzero column.
Both return ``{pivot column: (pivot entry, the nonzero items after it)}``,
the entry 1 over GF(p) and positive over QQ; ``rank`` and ``sparse_rank``
count the pivots.  There is one back-solve: ``_solve_at_free`` solves the
rref rows at given non-pivot columns only, from the pivot rows of either
elimination, last pivot first, and nothing clears a column above a pivot.
``_kernel_at_free`` solves them at all free columns, for ``rref``, which
assembles the reduced matrix building each entry once, and for the row
kernels; ``solve`` reads the rows of ``[a | b]`` at b's columns only, and
``homext.ExtSpace.reduce`` the rref rows of Phi^T at its free
coordinates.  A span test is a ``rank``, a canonical span basis the
nonzero rows of an ``rref``.
``_row_kernel`` (behind ``nullspace_basis``) builds each kernel entry once
from the solved rows, and no reduced matrix.  ``_row_kernel_forms`` reads
each kernel vector's integer form off them, for ``homext.hom_basis`` to
check its basis on; ``_row_kernel`` builds none.  ``hom_basis`` picks the
elimination from the shape of its system.
Over QQ every ``Matrix`` keeps its integer form, its entries times the lcm
``den`` of their denominators, once a product or an elimination has read
it; the transpose of a matrix whose form is cached is born with it.
``Matrix.mul`` multiplies the two integer forms and builds each nonzero
entry of the result once; ``combination`` sums multiples of matrices on
their integer forms the same way.  Both results are born with their own
integer form, ``(acc/g, den/g)`` with ``g = gcd(den, *acc)``, as are the
blocks ``_blocks_of_form`` cuts from a kernel vector's form.  A matrix read
as a right factor keeps the nonzero items of its rows (``_pattern``), so a
factor used again is not scanned again.  ``products_equal(a, b, c, d)`` decides
``a*b == c*d`` on integers and builds no field element: over QQ it compares
the integer products of the four integer forms by cross-multiplying with
the other side's denominators; over GF(p) it compares the unreduced products
modulo p.  ``Matrix.mul`` and ``products_equal`` share one zero-skipping
product loop.  The kernels skip zeros by truthiness, so they require
canonical entries, the values ``Field.of`` returns: a ``Fraction`` over QQ,
an ``int`` in [0, p) over GF(p).

Matrices are immutable by convention: no public routine mutates its inputs,
and ``Matrix`` instances may be shared freely.  The cached integer form
relies on this.
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
        # at or above the bound _is_prime is not exact
        if p >= _MR_LIMIT:
            raise InvariantError(
                f"characteristic {p} is not below {_MR_LIMIT}, the bound of the exact primality test"
            )
        if not _is_prime(p):
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

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above is deterministic below this bound, psi_13
# (Sorenson and Webster, 2015); without 41 it is so only below psi_12 =
# 318665857834031151167461, a strong pseudoprime to the bases up to 37.
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality by Miller-Rabin on ``_MR_BASES``: exact below ``_MR_LIMIT``."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    """Return the field with p elements (p prime, below ``_MR_LIMIT``); instances are cached."""
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
    """Immutable dense matrix with row-major flat storage.

    Over QQ a matrix keeps its integer form once a product or an elimination
    has read it (see ``_integer_form``); QQ elimination reads nothing else.
    Products, ``combination`` and ``_blocks_of_form`` build their results
    with it, and the transpose of a matrix whose form is cached is built with
    it.  A matrix read as the right factor of a product keeps the nonzero
    items of its raw rows (``_pattern``).  The caches are sound only because
    ``entries`` never changes: no routine writes to ``entries``, or to a list
    after passing it to ``Matrix(...)``.  Only this module sets ``_ints``.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_ints", "_pat")

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
        self._ints = None
        self._pat = None

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

    def _integer_form(self) -> tuple[list, int]:
        """``(ints, den)`` over QQ: ``den`` is the lcm of the denominators and
        ``entries[i] == Fraction(ints[i], den)``.  Computed on the first call
        and kept."""
        if self._ints is None:
            self._ints = _integer_multiple(self.entries)
        return self._ints

    def _pattern(self) -> list[list]:
        """The nonzero ``(column, value)`` items of each row of the raw form
        (the entries over GF(p), ``_integer_form()`` over QQ), as ``_product``
        reads a right factor.  Computed on the first call and kept."""
        if self._pat is None:
            flat = self.entries if self.field.characteristic else self._integer_form()[0]
            self._pat = _pattern_of(flat, self.rows, self.cols)
        return self._pat

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
        """The product, on residues over GF(p) and on integer forms over QQ,
        reading ``other`` through its kept ``_pattern``.  Over QQ each nonzero
        entry is built once and the result is born with its integer form
        ``(acc/g, den/g)``, ``acc`` the integer product, ``den = la*lb`` and
        ``g = gcd(den, *acc)``: that is ``_integer_multiple`` of its entries,
        since the lcm of their reduced denominators is ``den/g``."""
        if self.field != other.field:
            raise InvariantError("field mismatch")
        if self.cols != other.rows:
            raise InvariantError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        p = f.characteristic
        if p:
            out = _product(self.entries, other._pattern(), self.rows, other.cols, 0)
            return Matrix(f, self.rows, other.cols, [x % p for x in out])
        ai, la = self._integer_form()
        acc = _product(ai, other._pattern(), self.rows, other.cols, 0)
        den = la * other._integer_form()[1]
        g = gcd(den, *acc)
        if g > 1:
            acc, den = [x // g for x in acc], den // g
        zero = f.zero
        out = Matrix(f, self.rows, other.cols, [Fraction(x, den) if x else zero for x in acc])
        out._ints = (acc, den)
        return out

    def transpose(self) -> "Matrix":
        """The transpose; a cached integer form is carried over, permuted."""
        r, c = self.rows, self.cols
        t = Matrix(self.field, c, r, [x for j in range(c) for x in self.entries[j::c]])
        if self._ints is not None:
            ints, den = self._ints
            t._ints = ([x for j in range(c) for x in ints[j::c]], den)
        return t

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


def _pattern_of(flat: list, m: int, k: int) -> list[list]:
    """The nonzero ``(column, value)`` items of each row of the flat m x k ``flat``."""
    # nonzero_items of each row, inlined: most factors are tiny
    return [[(j, x) for j, x in enumerate(flat[l * k : (l + 1) * k]) if x] for l in range(m)]


def _product(ae: list, pattern: list, n: int, k: int, zero) -> list:
    """Flat entries of the n x m by m x k product of the flat list ``ae`` and
    the right factor given by the ``_pattern_of`` its m rows.

    Zero entries of either factor are skipped.  Nothing is reduced: over
    GF(p) the caller takes residues.
    """
    m = len(pattern)
    out = []
    for i in range(n):
        acc = [zero] * k
        for a, items in zip(ae[i * m : (i + 1) * m], pattern):
            if a:
                for j, v in items:
                    acc[j] += a * v
        out += acc
    return out


def combination(coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """The sum of ``c * m`` over canonical coefficients and same-shape matrices.

    Accumulated on integer forms, skipping zero coefficients.  Over GF(p)
    each term adds only the nonzero items of its kept ``_pattern``.  Over
    QQ each nonzero entry is built once, and the result is born with its
    integer form ``(acc/g, den/g)``, ``g = gcd(den, *acc)``, which is
    ``_integer_multiple`` of its entries.  A single coefficient 1 returns
    its matrix itself.
    """
    first = mats[0]
    f = first.field
    terms = [(c, m) for c, m in zip(coeffs, mats) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    p = f.characteristic
    acc = [0] * len(first.entries)
    if p:
        n = first.cols
        for c, m in terms:
            for r, items in enumerate(m._pattern()):
                base = r * n
                for j, y in items:
                    acc[base + j] += c * y
        return Matrix(f, first.rows, first.cols, [x % p for x in acc])
    forms = [(c, m._integer_form()) for c, m in terms]
    den = lcm(*[c.denominator * d for c, (_, d) in forms])
    for c, (ints, d) in forms:
        s = c.numerator * (den // (c.denominator * d))
        acc = [x + s * y for x, y in zip(acc, ints)]
    g = gcd(den, *acc)
    if g > 1:
        acc, den = [x // g for x in acc], den // g
    zero = f.zero
    out = Matrix(f, first.rows, first.cols, [Fraction(x, den) if x else zero for x in acc])
    out._ints = (acc, den)
    return out


def _integer_multiple(values: list) -> tuple[list, int]:
    """``values`` (Fractions) times the lcm ``den`` of their denominators, and ``den``.

    Most entries are the shared ``QQ.zero``, skipped by identity before any
    ``Fraction`` truth test.
    """
    zero = QQ.zero
    items = [(j, x) for j, x in enumerate(values) if x is not zero and x]
    den = lcm(*[x.denominator for _, x in items])
    out = [0] * len(values)
    for j, x in items:
        out[j] = x.numerator * (den // x.denominator)
    return out, den


def products_equal(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """Whether ``a*b == c*d``, decided on integers without building a field element.

    Over GF(p) the entries are integers already, and the two unreduced
    products are compared modulo p.  Over QQ each factor is read in its
    cached integer form, the entries times the lcm of their denominators, so
    ``a*b = A*B / (la*lb)`` and ``c*d = C*D / (lc*ld)``; the integer products
    are compared by cross-multiplying each with the other side's denominators.
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
        left = _product(a.entries, b._pattern(), a.rows, b.cols, 0)
        right = _product(c.entries, d._pattern(), c.rows, d.cols, 0)
        return not any((x - y) % p for x, y in zip(left, right))
    ai, la = a._integer_form()
    ci, lc = c._integer_form()
    left = _product(ai, b._pattern(), a.rows, b.cols, 0)
    right = _product(ci, d._pattern(), c.rows, d.cols, 0)
    s, t = lc * d._integer_form()[1], la * b._integer_form()[1]
    return all(x * s == y * t for x, y in zip(left, right))


# -- elimination -----------------------------------------------------------


def nonzero_items(row: list, start: int = 0) -> list:
    """The nonzero ``(column, value)`` pairs of ``row`` from column ``start`` on."""
    return [(j, x) for j, x in enumerate(row[start:], start) if x]


def unit_vectors(field: Field, d: int) -> list[list]:
    """The standard basis of k^d, as coordinate lists."""
    return [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leftmost pivots and unit leading entries.

    Returns the reduced matrix and the tuple of pivot column indices.  The
    output is canonical: equal row spaces give equal results.  Row k is
    assembled from ``_kernel_at_free``: a 1 at its pivot pc_k, zero at the
    other pivots, and ``vals[i] / den`` at the i-th free column, each entry
    built once.
    """
    f = m.field
    p = f.characteristic
    solved, pivots, free = _kernel_at_free(forward_echelon(m), m.cols, p)
    flat = [f.zero] * (m.rows * m.cols)
    for k, pc in enumerate(pivots):
        base = k * m.cols
        flat[base + pc] = f.one
        vals, den = solved.get(pc, ((), 1))
        for c, x in zip(free, vals):
            if x:
                flat[base + c] = x if p else Fraction(x, den)
    return Matrix(f, m.rows, m.cols, flat), tuple(pivots)


def _rows(m: Matrix) -> list[list]:
    """Fresh raw rows of m for the row kernels: the entries over GF(p), the
    rows of ``m._integer_form()`` over QQ."""
    n = m.cols
    flat = m.entries if m.field.characteristic else m._integer_form()[0]
    return [flat[i * n : (i + 1) * n] for i in range(m.rows)]


def _primitive(row: list) -> list:
    """``row`` divided by the gcd of its entries (a zero row is returned as is)."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def forward_echelon(m: Matrix) -> dict:
    """``_row_forward_echelon`` of the rows of m: its pivot rows, ``{pivot
    column: (pivot entry, nonzero items after it)}``."""
    return _row_forward_echelon(_rows(m), m.cols, m.field.characteristic)


def _row_forward_echelon(rows: list[list], ncols: int, p: int) -> dict:
    """Forward elimination of dense rows, in ``_sparse_echelon``'s format.

    ``rows`` are fresh lists of length ``ncols``, eliminated in place: over
    GF(p) residues, the pivot row at a column being the first row nonzero
    there, scaled to a unit; over QQ integers, each row first divided by its
    content and kept primitive, and no ``Fraction`` is built.  Over QQ the
    pivot row at a column is the remaining row whose entry there has the
    least absolute value, the first +-1 ending the search, negated if that
    entry is negative: every pivot entry is positive, and a pivot 1 clears a
    row without scaling it, so fewer rows pick up a content to divide out.
    A primitive row depends only on the row's own entries up to a positive
    factor, so rows scaled by any common positive ``den`` eliminate alike.
    The pivot rows depend on the pivot rule, the rref does not.  Each pivot
    row clears the rows below it and is not touched again.  Returns
    ``{pivot column: (pivot entry, the nonzero items after it)}`` in
    increasing pivot order, the entry 1 over GF(p): the pivots are those of
    the rref, and the pivot rows span the same row space.
    """
    rows = [row if p else _primitive(row) for row in rows if any(row)]
    echelon: dict = {}
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        if p:
            for i in range(r, len(rows)):
                if rows[i][c]:
                    break
            else:
                continue
        else:
            i, least = r, 0
            for k in range(r, len(rows)):
                x = abs(rows[k][c])
                if x and (x < least or not least):
                    i, least = k, x
                    if x == 1:
                        break
            if not least:
                continue
        rows[r], rows[i] = rows[i], rows[r]
        row, r = rows[r], r + 1
        a = row[c]
        if p and a != 1:
            inv = pow(a, -1, p)
            a, after = 1, [(j, x * inv % p) for j, x in enumerate(row[c + 1 :], c + 1) if x]
        else:
            after = nonzero_items(row, c + 1)
            if a < 0:
                a, after = -a, [(j, -x) for j, x in after]
        echelon[c] = (a, after)
        _clear_column(rows, r, c, a, after, p)
    return echelon


def _clear_column(rows: list[list], lo: int, c: int, a: int, after: list, p: int) -> None:
    """Clear column c in ``rows[lo:]``, the rows below the pivot row at c
    with pivot entry ``a`` and nonzero items ``after`` it.

    Over GF(p) the pivot is 1 and a row ``v`` becomes ``v - v[c]*pivot``.
    Over QQ an entry ``b`` is cleared against ``a`` by ``v = (a/g)*v -
    (b/g)*pivot`` with ``g = gcd(a, b)``, and a changed row is divided by its
    content, which keeps the entries bounded by the minors of the integer
    form of the matrix eliminated.
    """
    if p:
        for row in rows[lo:]:
            b = row[c]
            if b:
                row[c] = 0
                for j, v in after:
                    row[j] = (row[j] - b * v) % p
        return
    for i in range(lo, len(rows)):
        row = rows[i]
        b = row[c]
        if b:
            g = gcd(a, b)
            s, t = a // g, b // g
            if s != 1:
                row = [s * x for x in row]
            row[c] = 0
            for j, x in after:
                row[j] -= t * x
            rows[i] = _primitive(row)


def rank(m: Matrix) -> int:
    """The rank of m: the number of pivot rows ``forward_echelon`` keys by
    their pivots, so no reduced matrix is built."""
    return len(forward_echelon(m))


def sparse_rank(rows: Iterable[list], p: int) -> int:
    """The rank of the rows given by their nonzero ``(column, value)`` items,
    raw as ``_sparse_echelon`` takes them: the pivot count of its echelon."""
    return len(_sparse_echelon(rows, p))


def _sparse_echelon(rows: Iterable[list], p: int) -> dict:
    """Sparse forward elimination, one incoming row at a time, of rows given
    by their nonzero ``(column, value)`` items: residues over GF(p), integers
    over QQ (any common positive factor of the rows is harmless).

    Each row is reduced against the pivot rows found so far: while a pivot
    row sits at the row's leftmost nonzero column, the row subtracts its
    multiple of that pivot row.  A row that does not vanish becomes the pivot
    row at that column: over GF(p) scaled to 1 there, over QQ negated if its
    entry there is negative.  Over QQ a row is cleared as ``_clear_column``
    clears one, by gcd cross-multiplication, and is kept primitive.  Only
    nonzero entries are stored or touched.  A pivot row is zero before its
    pivot, so fill-in lands only to the right of the column being cleared,
    and the pivots are those of rref.  Returns ``_row_forward_echelon``'s
    format, ``{pivot column: (pivot entry, the nonzero items after it)}``,
    the entry 1 over GF(p) and positive over QQ, in the order the pivots
    were found.
    """
    pivots: dict = {}
    for items in rows:
        row = dict(items)
        if not p and row:
            row = _primitive_items(row)
        while row:
            c = min(row)
            x = row.pop(c)
            pivot = pivots.get(c)
            if pivot is None:
                if p:
                    inv = pow(x, -1, p)
                    pivots[c] = (1, [(j, v * inv % p) for j, v in row.items()])
                elif x < 0:
                    pivots[c] = (-x, [(j, -v) for j, v in row.items()])
                else:
                    pivots[c] = (x, list(row.items()))
                break
            a, after = pivot
            if p:
                for j, v in after:
                    y = (row.get(j, 0) - x * v) % p
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                continue
            g = gcd(a, x)
            s, t = a // g, x // g
            if s != 1:
                row = {j: s * v for j, v in row.items()}
            for j, v in after:
                y = row.get(j, 0) - t * v
                if y:
                    row[j] = y
                else:
                    del row[j]
            if row:
                row = _primitive_items(row)
    return pivots


def _primitive_items(row: dict) -> dict:
    """The integer dict ``row`` divided by the gcd of its values."""
    g = gcd(*row.values())
    return row if g < 2 else {j: v // g for j, v in row.items()}


def _kernel_vectors(m: Matrix) -> tuple[list[list], list[int]]:
    """``_row_kernel`` of the rows of m."""
    return _row_kernel(_rows(m), m.cols, m.field)


def _row_kernel(rows: list[list], ncols: int, f: Field) -> tuple[list[list], list[int]]:
    """The canonical kernel basis of ``rows`` as coordinate lists, and the free columns.

    ``rows`` are raw rows as ``_row_forward_echelon`` takes them.  One vector
    per free column fc of the rref, in increasing order, with a 1 at fc and,
    at each pivot column pc, the entry of the rref at fc negated, built once
    from the rows ``_kernel_at_free`` solves: ``Fraction(-vals_k[i], den_k)``
    over QQ, ``-vals_k[i] % p`` over GF(p).  No integer form is built; see
    ``_row_kernel_forms``.
    """
    p = f.characteristic
    solved, _, free = _kernel_at_free(_row_forward_echelon(rows, ncols, p), ncols, p)
    zero, one = f.zero, f.one
    vecs = []
    for i, fc in enumerate(free):
        vec = [zero] * ncols
        vec[fc] = one
        for pc, (vals, den) in solved.items():
            x = vals[i]
            if x:
                vec[pc] = -x % p if p else Fraction(-x, den)
        vecs.append(vec)
    return vecs, free


def _row_kernel_forms(solved: dict, free: list[int], ncols: int, p: int) -> list[tuple[list, int]]:
    """The integer forms ``(ints, L)`` of ``_row_kernel``'s vectors, vector =
    ints / L, from the solved rows ``{pc_k: (vals_k, den_k)}`` of
    ``_kernel_at_free``.

    For the i-th free column fc, ``L`` is the lcm of ``den_k`` over the
    solved rows with ``vals_k[i] != 0``, ``ints[fc] = L`` and ``ints[pc_k] =
    -vals_k[i] * (L // den_k)``.  Over GF(p) ``L`` is 1 and ``ints`` are the
    residues of the vector.  The solved rows are read once, by row.
    """
    at_free = [[] for _ in free]
    for pc, (vals, den) in solved.items():
        for i, x in enumerate(vals):
            if x:
                at_free[i].append((pc, x, den))
    forms = []
    for fc, entries in zip(free, at_free):
        lcd = lcm(*[den for _, _, den in entries])
        ints = [0] * ncols
        ints[fc] = lcd
        for pc, x, den in entries:
            ints[pc] = -x % p if p else -x * (lcd // den)
        forms.append((ints, lcd))
    return forms


def _blocks_of_form(field: Field, ints: list, den: int, shapes) -> dict:
    """``{key: Matrix}`` cut in turn from the vector ``ints / den``, for each
    ``(key, rows, cols)`` of ``shapes``.

    Over GF(p) ``ints`` are residues and ``den`` is 1.  Over QQ each block is
    born with its integer form ``(part/g, den/g)``, ``g = gcd(den, *part)``,
    which is ``_integer_multiple`` of its entries.
    """
    p = field.characteristic
    zero = field.zero
    blocks, off = {}, 0
    for key, r, c in shapes:
        part = ints[off : off + r * c]
        off += r * c
        if p:
            blocks[key] = Matrix(field, r, c, part)
            continue
        g = gcd(den, *part)
        d = den // g
        if g > 1:
            part = [x // g for x in part]
        block = Matrix(field, r, c, [Fraction(x, d) if x else zero for x in part])
        block._ints = (part, d)
        blocks[key] = block
    return blocks


def _kernel_at_free(echelon: dict, ncols: int, p: int) -> tuple[dict, list[int], list[int]]:
    """The pivot rows of ``echelon`` solved at all their free columns:
    ``(_solve_at_free(...), pivots, free)``, both in increasing order.
    ``echelon`` comes from either elimination, ``_row_forward_echelon`` or
    ``_sparse_echelon``; the result is the same, since the rref is unique.
    ``rref`` and the row kernels read the rref through it."""
    free = [c for c in range(ncols) if c not in echelon]
    return _solve_at_free(echelon, free, p), sorted(echelon), free


def _solve_at_free(echelon: dict, free: list[int], p: int) -> dict:
    """The rref rows R_k at the non-pivot columns F, from the pivot rows E_k
    ``{pc_k: (a_k, items)}`` of either elimination, last pivot first:
    ``R_k = (E_k[F] - sum_{j>k} E_k[pc_j] * R_j) / a_k``.  Each column of F
    is solved on its own, so F may be any of the free columns: all of them
    for ``rref``, the right-hand sides for ``solve``.  One pass over a pivot
    row's items writes its entries at F into ``vals`` and collects the
    solved rows R_j it meets; ``vals`` then subtracts each multiple.
    Returns ``{pc_k: (vals, den)}`` with ``R_k[free[i]] == vals[i] / den``,
    leaving out each R_k that is zero on F, so the sum runs over the rows
    kept.  Over GF(p) ``den`` is 1, and only a row that subtracted something
    is reduced; over QQ ``vals`` are integers and ``gcd(den, *vals) == 1``,
    and ``den > 0`` because every pivot entry is.
    """
    solved: dict = {}
    if not free:  # full column rank, or b without columns: nothing to solve at
        return solved
    index = {c: i for i, c in enumerate(free)}
    for pc in sorted(echelon, reverse=True):
        a, after = echelon[pc]
        vals, hits, den = [0] * len(free), [], 1
        for j, x in after:
            i = index.get(j)
            if i is not None:
                vals[i] = x
            elif j in solved:
                hits.append((x, solved[j]))
        for e, (vj, dj) in hits:
            if p:
                vals = [x - e * y for x, y in zip(vals, vj)]
            else:
                g = gcd(den, dj)
                s, t = dj // g, e * (den // g)
                vals = [s * x - t * y for x, y in zip(vals, vj)]
                den *= s
        if p:
            if hits:
                vals = [x % p for x in vals]
        else:
            den *= a
            g = gcd(den, *vals)
            if g > 1:
                vals, den = [x // g for x in vals], den // g
        if any(vals):
            solved[pc] = (vals, den)
    return solved


def nullspace_basis(m: Matrix) -> list[Matrix]:
    """Canonical kernel basis: one column vector per free column of rref(m).

    Free columns are taken in increasing order and each basis vector has a 1
    in its free coordinate, so the result is determined by the row space.
    """
    return [Matrix(m.field, m.cols, 1, vec) for vec in _kernel_vectors(m)[0]]


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of a*X = b with free variables set to zero, else None.

    ``[a | b]`` is eliminated forward; the system is inconsistent iff it
    has a pivot in b's block, that is iff its last pivot is at a column
    ``>= a.cols``.  Otherwise the row of X at each pivot column is that
    pivot's rref row at b's columns, which ``_solve_at_free`` solves at
    those columns only.
    """
    if a.field != b.field:
        raise InvariantError("field mismatch")
    if a.rows != b.rows:
        raise InvariantError("row count mismatch in solve")
    f = a.field
    p = f.characteristic
    n, k = a.cols, b.cols
    echelon = forward_echelon(hstack([a, b]))
    if echelon and max(echelon) >= n:
        return None
    x = [f.zero] * (n * k)
    for pc, (vals, den) in _solve_at_free(echelon, list(range(n, n + k)), p).items():
        x[pc * k : (pc + 1) * k] = vals if p else [Fraction(v, den) if v else f.zero for v in vals]
    return Matrix(f, n, k, x)


def inverse(m: Matrix) -> Matrix | None:
    return solve(m, Matrix.identity(m.field, m.rows)) if m.is_square() else None


def is_invertible(m: Matrix) -> bool:
    return m.is_square() and rank(m) == m.rows


def column_space_pivots(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Canonical basis of the column space, as the columns of a matrix, and
    its pivot rows, where that basis carries an identity.

    The basis is the nonzero rows of rref(m^T), so it depends only on the
    column space itself, not on the generating order, and a vector of the
    column space has its entries at the pivot rows as coordinates.
    """
    red, pivots = rref(m.transpose())
    cols = [red.row(i) for i in range(len(pivots))]
    return mat_from_cols(m.field, m.rows, cols), pivots


def quotient_map_free(span: Matrix) -> tuple[Matrix, list[int]]:
    """Projection q onto complementary coordinates of a subspace, and the
    free columns, where q carries an identity.

    ``span`` holds spanning columns of a subspace U of k^n, any spanning
    set: a basis or not, in any order.  q is the (n - dim U) x n matrix of
    the canonical kernel vectors of span^T, so ker q = U and q depends only
    on U.  An X with ``X * q == B``, if one exists, is ``B`` at the free
    columns.
    """
    vecs, free = _kernel_vectors(span.transpose())
    return Matrix(span.field, len(free), span.rows, [x for vec in vecs for x in vec]), free
