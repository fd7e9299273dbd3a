"""Endomorphism algebras, brick certification, and semi-brick certificates.

Certification policy: a representation earns ``certified_brick`` only when
its endomorphism algebra is one-dimensional.  That is decided by one exact
rank of the intertwining system before any End basis is built; only
dim End > 1 goes on to the End algebra, whose basis is solved from that
rank's elimination.  Larger endomorphism algebras are
either refuted by an explicit witness (a nontrivial idempotent or a
non-invertible non-nilpotent element, both re-checkable) or reported as
``local_not_certified`` together with trace-form radical evidence in
characteristic 0, the radical of tr(y o x) on M, J(End M).  Deciding
"division ring" beyond dimension 1 is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InvariantError
from .homext import ExtSpace, _hom_basis_of_echelon, _hom_layout, _intertwine_rows, hom_basis
from .linalg import _sparse_echelon, unit_vectors
from .reps import Morphism, Rep, is_isomorphic, linear_combination, trace_pairing_rank


@dataclass(frozen=True)
class AlgebraPresentation:
    """A finite-dimensional algebra given by a basis and structure constants.

    ``multiplication_table[i][j]`` holds the coordinates of ``basis[i]``
    followed by ``basis[j]`` (left-to-right composition), and
    ``unit_coordinates`` those of the identity.
    """

    rep: Rep
    basis: list
    multiplication_table: list
    unit_coordinates: list

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def field(self):
        return self.rep.field

    def multiply(self, a: list, b: list) -> list:
        p = self.field.characteristic
        table = self.multiplication_table
        out = [self.field.zero] * self.dimension
        for ai, plane in zip(a, table):
            if not ai:
                continue
            for bj, tij in zip(b, plane):
                if not bj:
                    continue
                coeff = ai * bj
                for l, x in enumerate(tij):
                    if x:
                        out[l] += coeff * x
        if p:
            out = [x % p for x in out]
        return out

    def element(self, coords: list) -> Morphism:
        return linear_combination(self.basis, coords)

    def is_nilpotent(self, coords: list) -> bool:
        f = self.field
        power = list(coords)
        for _ in range(self.dimension + 1):
            if all(x == f.zero for x in power):
                return True
            power = self.multiply(power, coords)
        return False

    def verify(self) -> bool:
        """Exact associativity and unit laws on all basis triples/pairs."""
        d = self.dimension
        units = unit_vectors(self.field, d)
        for i in range(d):
            if self.multiply(self.unit_coordinates, units[i]) != units[i]:
                return False
            if self.multiply(units[i], self.unit_coordinates) != units[i]:
                return False
        for i in range(d):
            for j in range(d):
                ij = self.multiply(units[i], units[j])
                for k in range(d):
                    left = self.multiply(ij, units[k])
                    right = self.multiply(units[i], self.multiply(units[j], units[k]))
                    if left != right:
                        return False
        return True


def end_coordinates(basis: list):
    """The coordinate function of ``basis = hom_basis(m, m)``.

    Flattened, each vector of that canonical nullspace basis has a 1 at its
    own free column of the intertwining system, a 0 at the other free
    columns, and nonzero entries only at pivot columns before its own.  So
    its free column is its last nonzero entry, and the coordinates of an
    endomorphism are its flattened entries at the free columns.  They are
    checked as ``end_algebra`` checks its table, on the nonzero integer
    items of the blocks (``_span_coordinates``); ``InvariantError`` if the
    endomorphism does not lie in the span.
    """
    free = _free_entries(basis)
    nums, den = _numerators(basis)

    def coords_of(morphism: Morphism) -> list:
        (items,), _ = _numerators([morphism])
        target = {v: dict(flat) for v, (flat, _) in items.items()}
        if _span_coordinates(nums, free, target, den, morphism.source.field.characteristic) is None:
            raise InvariantError("endomorphism does not lie in the End basis span")
        return [morphism.blocks[v].entries[j] for v, j in free]

    return coords_of


def _free_entries(basis: list) -> list:
    """Each basis element's free column, its last nonzero flattened entry, as
    (vertex, index into that block), read off the blocks' ``_pattern``."""
    out = []
    for b in basis:
        v = next(v for v in reversed(b.source.quiver.vertices) if any(b.blocks[v]._pattern()))
        rows = b.blocks[v]._pattern()
        r = max(r for r, items in enumerate(rows) if items)
        out.append((v, r * b.blocks[v].cols + rows[r][-1][0]))
    return out


def _numerators(morphisms: list) -> tuple[list, int]:
    """The blocks of ``morphisms`` times one common denominator D, and D.

    Over QQ, D is the lcm of the blocks' integer-form denominators; over
    GF(p) it is 1 and the numerators are the residues.  Each block N at v
    comes as ``(flat, rows)``: its nonzero ``(row * cols + column, value)``
    items, and the nonzero ``(column, value)`` items of each row.
    """
    def den_of(block):
        return 1 if block.field.characteristic else block._integer_form()[1]

    den = lcm(*[den_of(b) for g in morphisms for b in g.blocks.values()])
    nums = []
    for g in morphisms:
        items = {}
        for v, block in g.blocks.items():
            s, n = den // den_of(block), block.cols
            rows = [[(c, s * x) for c, x in row] for row in block._pattern()]
            items[v] = ([(r * n + c, x) for r, row in enumerate(rows) for c, x in row], rows)
        nums.append(items)
    return nums, den


def _composite(left: list, right: list, n: int, p: int) -> dict:
    """The nonzero items ``{flat index: value}`` of the n x n product of two
    numerator blocks, the left one given by its ``flat`` items and the right
    one by its ``rows``: each item (r, l) of the left meets only row l of the
    right (Gustavson, ACM TOMS 4(3), 1978).  Over GF(p) the values are
    reduced."""
    out: dict = {}
    for idx, a in left:
        l = idx % n
        base = idx - l
        for c, b in right[l]:
            out[base + c] = out.get(base + c, 0) + a * b
    if p:
        return {j: x % p for j, x in out.items() if x % p}
    return {j: x for j, x in out.items() if x}


def _span_sum(q: list, nums: list, v, p: int) -> dict:
    """The nonzero items of sum_l q_l N_l at vertex v (reduced over GF(p))."""
    out: dict = {}
    for ql, num in zip(q, nums):
        if ql:
            for j, x in num[v][0]:
                out[j] = out.get(j, 0) + ql * x
    if p:
        return {j: x % p for j, x in out.items() if x % p}
    return {j: x for j, x in out.items() if x}


def _span_coordinates(nums: list, free: list, target: dict, den: int, p: int) -> list | None:
    """The values q_l of ``target`` at the free entries when they are its
    coordinates, else None.

    ``nums`` and ``den`` are ``_numerators`` of an End basis, so basis[l] is
    N_l / den, and ``target`` maps every vertex to the nonzero items of an
    endomorphism's block times some common T.  Its coordinates are then q_l / T,
    and it lies in the span iff sum_l q_l N_l == den * target at every
    vertex: compared as nonzero items, modulo p over GF(p), where den is 1.
    """
    q = [target[v].get(j, 0) for v, j in free]
    for v, want in target.items():
        if not p:
            want = {j: den * x for j, x in want.items()}
        if _span_sum(q, nums, v, p) != want:
            return None
    return q


def end_algebra(m: Rep) -> AlgebraPresentation:
    """The endomorphism algebra of m with honestly computed structure
    constants, on the basis ``hom_basis(m, m)``, built from the nonzero
    integer items of the basis blocks only.

    Over one common denominator D the blocks are integer numerators N_k,v
    (residues over GF(p), where D = 1).  Entry (i, k) of the table holds the
    coordinates of ``compose(b_i, b_k)``: the values q of the composite
    N_k,v * N_i,v at the free entries, as in ``end_coordinates``, so
    ``Fraction(q, D**2)`` over QQ.  Only the composite's nonzero items are
    built (``_composite``), and each composite is checked exactly on
    integers: sum_l q_l N_l,v must equal D times it at every vertex
    (``_span_coordinates``); ``InvariantError`` if not.
    """
    return _end_algebra_of(m, hom_basis(m, m))


def _end_algebra_of(m: Rep, basis: list) -> AlgebraPresentation:
    """``end_algebra(m)`` on the End basis ``basis``."""
    if not basis:
        return AlgebraPresentation(m, [], [], [])
    f = m.field
    p, zero = f.characteristic, f.zero
    free = _free_entries(basis)
    nums, den = _numerators(basis)
    table = []
    for ni in nums:
        row = []
        for nk in nums:
            comp = {v: _composite(nk[v][0], ni[v][1], m.dims[v], p) for v in ni}
            q = _span_coordinates(nums, free, comp, den, p)
            if q is None:
                raise InvariantError("a composite of End basis elements leaves their span")
            row.append(q if p else [Fraction(x, den * den) if x else zero for x in q])
        table.append(row)
    unit = end_coordinates(basis)(Morphism.identity(m))
    return AlgebraPresentation(m, basis, table, unit)


@dataclass(frozen=True)
class BrickReport:
    status: str  # certified_brick | local_not_certified | not_brick
    end_dim: int
    witness: Morphism | None
    witness_kind: str | None
    radical_dim: int | None
    residue_dim: int | None
    notes: str


def _witness_candidates(alg: AlgebraPresentation):
    f = alg.field
    d = alg.dimension
    units = unit_vectors(f, d)
    for e in units:
        yield e
    for i in range(d):
        for j in range(i + 1, d):
            yield [f.add(a, b) for a, b in zip(units[i], units[j])]
            yield [f.sub(a, b) for a, b in zip(units[i], units[j])]
    for i in range(d):
        yield [f.add(a, b) for a, b in zip(alg.unit_coordinates, units[i])]
        yield [f.sub(a, b) for a, b in zip(alg.unit_coordinates, units[i])]


_SCALARS_ONLY = BrickReport(
    "certified_brick", 1, None, None, 0, 1, "endomorphisms are scalars"
)


def _end_basis_unless_scalars(m: Rep) -> list | None:
    """None exactly when dim End(m) = 1, read off one rank of the intertwining
    system; otherwise ``hom_basis(m, m)``, solved from the same elimination.

    End(m) is the kernel of Phi, the intertwining system of (m, m), and the
    identity lies in it, so dim End = 1 exactly when rank Phi = cols - 1.
    Phi is never built densely: its rows come as their nonzero items
    straight from the arrow maps (``_intertwine_rows``, a few per row) and
    ``_sparse_echelon`` eliminates them exactly, over QQ as over GF(p).
    When dim End > 1 that echelon is solved at its free columns and the
    basis checked (``homext._hom_basis_of_echelon``), so Phi is eliminated
    once.
    """
    echelon = _sparse_echelon(_intertwine_rows(m, m), m.field.characteristic)
    if len(echelon) == _hom_layout(m, m)[1] - 1:
        return None
    return _hom_basis_of_echelon(m, m, echelon)


def is_brick(m: Rep) -> BrickReport:
    """Certify dim End = 1, or refute brickness with a checkable witness.

    dim End = 1 is first certified from one rank
    (``_end_basis_unless_scalars``), without building End(m).  Otherwise the
    verdict is read off the End algebra on the basis solved from that rank's
    elimination, by ``_brick_report_of_end``.
    """
    if m.dim_total == 0:
        return BrickReport("not_brick", 0, None, None, None, None, "zero module")
    basis = _end_basis_unless_scalars(m)
    if basis is None:
        return _SCALARS_ONLY
    return _brick_report_of_end(_end_algebra_of(m, basis))


def _brick_report_of_end(alg: AlgebraPresentation) -> BrickReport:
    """The brick verdict of a nonzero m read off its endomorphism algebra ``alg``.

    A witness is a nontrivial idempotent or an endomorphism that is neither
    an automorphism nor nilpotent.  Otherwise the verdict is
    ``local_not_certified``, and over characteristic 0 the report carries the
    radical of the trace form tr(y o x) on M over End(m), from one product
    (``trace_pairing_rank``): a nil ideal containing J(End m) (Newton's
    identities), so its dimension is dim J.  It is computed first: when
    dim End/J = 1, End/J = k and End is local, so every element is a unit or
    nilpotent, 0 and 1 are the only idempotents, and no candidate is searched.
    """
    d = alg.dimension
    if d == 1:
        return _SCALARS_ONLY
    f = alg.field
    rad = d - trace_pairing_rank(alg.basis, alg.basis) if f.characteristic == 0 else None
    zero = [f.zero] * d
    for cand in () if rad == d - 1 else _witness_candidates(alg):
        if cand == zero or cand == alg.unit_coordinates:
            continue
        if alg.multiply(cand, cand) == cand:
            return BrickReport(
                "not_brick",
                d,
                alg.element(cand),
                "idempotent",
                None,
                None,
                "nontrivial idempotent endomorphism found",
            )
        if not alg.element(cand).is_isomorphism() and not alg.is_nilpotent(cand):
            return BrickReport(
                "not_brick",
                d,
                alg.element(cand),
                "non_invertible_non_nilpotent",
                None,
                None,
                "endomorphism that is neither invertible nor nilpotent",
            )
    if rad is not None:
        return BrickReport(
            "local_not_certified",
            d,
            None,
            None,
            rad,
            d - rad,
            "no witness found; trace-form radical evidence attached",
        )
    return BrickReport(
        "local_not_certified",
        d,
        None,
        None,
        None,
        None,
        "no witness found; trace-form evidence only computed in characteristic 0",
    )


@dataclass(frozen=True)
class SemiBrickCert:
    members: list
    brick_reports: list
    hom_table: list
    ext_table: list
    assumed: bool

    @property
    def ok(self) -> bool:
        return True

    @property
    def quiver(self):
        return self.members[0].quiver

    @property
    def field(self):
        return self.members[0].field


@dataclass(frozen=True)
class SemiBrickRefusal:
    reason: str
    indices: tuple

    @property
    def ok(self) -> bool:
        return False


def check_semibrick(members: list, assume_bricks: bool = False):
    """Certify pairwise Hom-orthogonal, pairwise non-isomorphic bricks.

    Returns a ``SemiBrickCert`` on success and a ``SemiBrickRefusal`` naming
    the offending member or pair otherwise.  With ``assume_bricks`` the
    per-member certification may be ``local_not_certified``; the certificate
    is then marked ``assumed`` and downstream guarantees weaken accordingly.
    """
    if not members:
        raise InvariantError("a semi-brick needs at least one member")
    quiver, fld = members[0].quiver, members[0].field
    for m in members:
        if m.quiver != quiver or m.field != fld:
            raise InvariantError("members disagree on quiver or field")
    reports = [is_brick(m) for m in members]
    for i, rep in enumerate(reports):
        if rep.status == "not_brick":
            return SemiBrickRefusal(f"member {i} is not a brick: {rep.notes}", (i,))
        if rep.status == "local_not_certified" and not assume_bricks:
            return SemiBrickRefusal(
                f"member {i} not certified (dim End = {rep.end_dim}); "
                "rerun with assume_bricks to proceed without certification",
                (i,),
            )
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            iso, _ = is_isomorphic(members[i], members[j])
            if iso:
                return SemiBrickRefusal(
                    f"members {i} and {j} are isomorphic", (i, j)
                )
    hom_table = [
        [len(hom_basis(a, b)) for b in members] for a in members
    ]
    for i in range(len(members)):
        for j in range(len(members)):
            if i != j and hom_table[i][j] != 0:
                return SemiBrickRefusal(
                    f"members {i} and {j} are not Hom-orthogonal "
                    f"(dim Hom = {hom_table[i][j]})",
                    (i, j),
                )
    ext_table = [
        [ExtSpace(a, b).dim for b in members] for a in members
    ]
    assumed = any(r.status != "certified_brick" for r in reports)
    return SemiBrickCert(list(members), reports, hom_table, ext_table, assumed)
