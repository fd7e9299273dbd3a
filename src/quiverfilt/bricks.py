"""Endomorphism algebras, brick certification, and semi-brick certificates.

Certification policy: a representation earns ``certified_brick`` only when
its endomorphism algebra is one-dimensional.  That is decided by one exact
rank of the intertwining system before any End basis is built; only
dim End > 1 goes on to ``end_algebra``.  Larger endomorphism algebras are
either refuted by an explicit witness (a nontrivial idempotent or a
non-invertible non-nilpotent element, both re-checkable) or reported as
``local_not_certified`` together with trace-form radical evidence in
characteristic 0, the radical of tr(y o x) on M, J(End M).  Deciding
"division ring" beyond dimension 1 is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .homext import ExtSpace, _hom_layout, _intertwine_rows, hom_basis
from .linalg import Matrix, sparse_rank, unit_vectors, vstack
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
    endomorphism are its flattened entries at the free columns.  One product
    (the combination of the basis with those coordinates) checks that the
    endomorphism lies in the span; ``InvariantError`` if not.
    """
    free = _free_entries(basis)

    def coords_of(morphism: Morphism) -> list:
        coords = [morphism.blocks[v].entries[j] for v, j in free]
        if linear_combination(basis, coords).blocks != morphism.blocks:
            raise InvariantError("endomorphism does not lie in the End basis span")
        return coords

    return coords_of


def _free_entries(basis: list) -> list:
    """Each basis element's free column, its last nonzero flattened entry, as
    (vertex, index into that block)."""
    out = []
    for b in basis:
        v = next(v for v in reversed(b.source.quiver.vertices) if any(b.blocks[v].entries))
        out.append((v, max(j for j, x in enumerate(b.blocks[v].entries) if x)))
    return out


def end_algebra(m: Rep) -> AlgebraPresentation:
    """The endomorphism algebra of m with honestly computed structure constants.

    ``S_v``, the blocks ``b_k,v`` of the basis stacked, times ``b_i,v`` holds
    every composite ``compose(b_i, b_j)`` at v; row i of the table is read
    off these products at the free columns, as in ``end_coordinates``.  The
    span check is one product per (i, v): row i of the table times ``F_v``,
    the blocks ``b_k,v`` flattened into rows, must equal ``S_v * b_i,v``;
    ``InvariantError`` if not.
    """
    basis = hom_basis(m, m)
    if not basis:
        return AlgebraPresentation(m, [], [], [])
    f, d, vertices = m.field, len(basis), m.quiver.vertices
    free = _free_entries(basis)
    stacked = {v: vstack([b.blocks[v] for b in basis]) for v in vertices}
    flat = {v: Matrix(f, d, m.dims[v] ** 2, stacked[v].entries) for v in vertices}
    table = []
    for bi in basis:
        prods = {v: stacked[v].mul(bi.blocks[v]) for v in vertices}
        row = [[prods[v].entries[k * m.dims[v] ** 2 + j] for v, j in free] for k in range(d)]
        coeffs = Matrix(f, d, d, [x for coords in row for x in coords])
        if any(coeffs.mul(flat[v]).entries != prods[v].entries for v in vertices):
            raise InvariantError("a composite of End basis elements leaves their span")
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


def _end_is_scalars_by_rank(m: Rep) -> bool:
    """True exactly when dim End(m) = 1, read off one rank of the intertwining system.

    End(m) is the kernel of Phi, the intertwining system of (m, m), and the
    identity lies in it, so dim End = 1 exactly when rank Phi = cols - 1.
    Phi is never built densely: its rows come as their nonzero items
    straight from the arrow maps (``_intertwine_rows``, a few per row) and
    ``sparse_rank`` eliminates them exactly, over QQ as over GF(p).
    """
    return sparse_rank(_intertwine_rows(m, m), m.field.characteristic) == _hom_layout(m, m)[1] - 1


def is_brick(m: Rep) -> BrickReport:
    """Certify dim End = 1, or refute brickness with a checkable witness.

    dim End = 1 is first certified from one rank (``_end_is_scalars_by_rank``),
    without building End(m).  Otherwise the verdict is read off
    ``end_algebra(m)`` by ``_brick_report_of_end``.
    """
    if m.dim_total == 0:
        return BrickReport("not_brick", 0, None, None, None, None, "zero module")
    if _end_is_scalars_by_rank(m):
        return _SCALARS_ONLY
    return _brick_report_of_end(m)


def _brick_report_of_end(m: Rep) -> BrickReport:
    """The brick verdict of a nonzero m read off its endomorphism algebra.

    A witness is a nontrivial idempotent or an endomorphism that is neither
    an automorphism nor nilpotent.  Otherwise the verdict is
    ``local_not_certified``, and over characteristic 0 the report carries the
    radical of the trace form tr(y o x) on M over End(m), from one product
    (``trace_pairing_rank``): a nil ideal containing J(End m) (Newton's
    identities), so its dimension is dim J.  It is computed first: when
    dim End/J = 1, End/J = k and End is local, so every element is a unit or
    nilpotent, 0 and 1 are the only idempotents, and no candidate is searched.
    """
    alg = end_algebra(m)
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
