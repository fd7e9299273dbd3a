"""Universal short exact sequences and truncated Pruefer towers.

The universal sequence starting at Y stacks one extension class per basis
element of Ext(X, Y) for each member X, with the quotient a matching direct
sum of members; it is characterized by the connecting map Hom(X, quot) ->
Ext(X, Y) being a square invertible matrix for every member.  Iterating the
construction yields the tower Y(1) = Y, Y(2), ..., whose endomorphism rings
restrict onto each other surjectively.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

from .bricks import AlgebraPresentation, SemiBrickCert, end_algebra, end_coordinates, is_brick
from .errors import BudgetError, InapplicableError, InvariantError
from .filtration import _require_cert, decompose_semisimple
from .homext import (
    ExtCocycle,
    ExtSpace,
    ShortExactSequence,
    connecting_map,
    extension_middle,
    hom_basis,
)
from .linalg import (
    Matrix,
    hstack,
    is_invertible,
    mat_from_cols,
    nullspace_basis,
    rank,
    rref,
    solve,
)
from .reps import Morphism, Rep, cokernel, compose, direct_sum, image

DEFAULT_DIMENSION_BUDGET = 512


def dimension_budget() -> int:
    """The tower dimension budget; overridable via SEMIBRICK_BUDGET."""
    raw = os.environ.get("SEMIBRICK_BUDGET")
    if raw is None:
        return DEFAULT_DIMENSION_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InvariantError(f"SEMIBRICK_BUDGET must be an integer, got {raw!r}")
    if value <= 0:
        raise InvariantError("SEMIBRICK_BUDGET must be positive")
    return value


def end_basis_of_ext(
    x: Rep, y: Rep, allow_uncertified: bool = False
) -> list[ExtCocycle]:
    """Greedy End(X)-orbit basis of Ext(X, Y).

    With the certified-brick policy End(X) = k and the result is a plain
    k-basis; the orbit bookkeeping still runs so an assume-brick caller gets
    an End-orbit-greedy generating set with correspondingly weaker claims.
    """
    report = is_brick(x)
    if report.status != "certified_brick" and not allow_uncertified:
        raise InvariantError(
            f"Ext basis requires a certified brick (got {report.status})"
        )
    return _end_orbit_basis(x, y)


def _end_orbit_basis(x: Rep, y: Rep) -> list[ExtCocycle]:
    """The basis cocycles whose classes raise the rank of the End(X)-orbit
    of those kept before them; the orbit is kept as the nonzero rref rows
    of the classes pulled back along End(X)."""
    space = ExtSpace(x, y)
    endos = hom_basis(x, x)
    f, d = x.field, space.dim
    orbit, selected = [], []
    for cand in space.basis():
        if rank(_stack(f, d, orbit + [space.reduce(cand)])) == len(orbit):
            continue
        selected.append(cand)
        pulled = [space.reduce(cand.pulled_back(phi)) for phi in endos]
        red, pivots = rref(_stack(f, d, orbit + pulled))
        orbit = red.to_rows()[: len(pivots)]
    return selected


def _stack(f, d: int, vectors: list) -> Matrix:
    """The vectors, lists of d scalars, as the rows of a matrix."""
    return Matrix(f, len(vectors), d, [x for vec in vectors for x in vec])


def _universal_data(y: Rep, sb: SemiBrickCert):
    """Ext basis cocycles of every member, each with the member it starts at.

    Brick status is read from the semi-brick's reports.
    """
    if not sb.assumed and any(r.status != "certified_brick" for r in sb.brick_reports):
        raise InvariantError("Ext basis requires a certified brick")
    parts = []
    cocycles = []
    for member in sb.members:
        chosen = _end_orbit_basis(member, y)
        parts.extend([member] * len(chosen))
        cocycles.extend(chosen)
    return parts, cocycles


def _assemble_universal(y: Rep, sb: SemiBrickCert, parts, cocycles) -> ShortExactSequence:
    if not parts:
        quot = Rep.zero(y.quiver, y.field)
        return extension_middle(quot, y, ExtCocycle.zero(quot, y))
    quot, _, _ = direct_sum(parts)
    comps = {}
    for aid, s, t in y.quiver.arrows:
        blocks = [c.components[aid] for c in cocycles]
        comps[aid] = hstack(blocks)
    stacked = ExtCocycle(quot, y, comps)
    return extension_middle(quot, y, stacked)


def universal_sequence(y: Rep, sb: SemiBrickCert) -> ShortExactSequence:
    """The universal short exact sequence starting at y over the semi-brick.

    If every Ext(member, y) vanishes the result is the split sequence with
    zero quotient: y is already relatively injective.  The result is always
    checked with ``is_universal``.
    """
    _require_cert(sb)
    if y.quiver != sb.quiver or y.field != sb.field:
        raise InvariantError("base and semi-brick disagree on quiver or field")
    parts, cocycles = _universal_data(y, sb)
    ses = _assemble_universal(y, sb, parts, cocycles)
    if not is_universal(ses, sb).ok:
        raise InvariantError("constructed sequence failed the universality check")
    return ses


@dataclass(frozen=True)
class UniversalityReport:
    ok: bool
    per_member: list  # dicts: hom_dim, ext_dim, square, invertible


def is_universal(ses: ShortExactSequence, sb: SemiBrickCert) -> UniversalityReport:
    """Check the connecting-map characterization of universality.

    Requires the quotient to decompose over the semi-brick; the sequence is
    universal iff every member's connecting matrix is square and invertible.
    """
    _require_cert(sb)
    dec = decompose_semisimple(ses.quot, sb)
    if not dec.ok:
        raise InvariantError("quotient does not decompose over the semi-brick")
    per_member = []
    ok = True
    for x in sb.members:
        delta = connecting_map(ses, x)
        square = delta.rows == delta.cols
        invertible = square and is_invertible(delta)
        per_member.append(
            {
                "hom_dim": delta.cols,
                "ext_dim": delta.rows,
                "square": square,
                "invertible": invertible,
            }
        )
        ok = ok and invertible
    return UniversalityReport(ok, per_member)


@dataclass(frozen=True)
class Tower:
    base: Rep
    semibrick: SemiBrickCert
    levels: tuple  # Rep: Y(1) ... Y(r)
    sequences: tuple  # ShortExactSequence: level i joins Y(i) to Y(i+1)

    def __post_init__(self):
        # Stored as tuples, so the chain checked here cannot be changed later.
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if not self.levels or self.levels[0] != self.base:
            raise InvariantError("tower levels must start at the base")
        if len(self.sequences) != len(self.levels) - 1:
            raise InvariantError(
                f"{len(self.levels)} tower levels need {len(self.levels) - 1} "
                f"sequences, got {len(self.sequences)}"
            )
        for i, seq in enumerate(self.sequences):
            if seq.sub != self.levels[i] or seq.middle != self.levels[i + 1]:
                raise InvariantError(
                    f"sequence {i + 1} does not join level {i + 1} to level {i + 2}"
                )

    @property
    def height(self) -> int:
        return len(self.levels)

    def inclusion(self, i: int, j: int) -> Morphism:
        """The composite inclusion Y(i) -> Y(j), 1-based levels, i <= j."""
        if not 1 <= i <= j <= self.height:
            raise InvariantError("inclusion levels out of range")
        return next(islice(self._inclusions_from(i), j - i, None))

    def _inclusions_from(self, i: int):
        """``inclusion(i, j)`` for j = i, ..., height, one compose per step."""
        out = Morphism.identity(self.levels[i - 1])
        yield out
        for seq in self.sequences[i - 1 :]:
            out = compose(out, seq.incl)
            yield out


def tower(y: Rep, sb: SemiBrickCert, r: int, budget: int | None = None) -> Tower:
    """Iterate universal sequences r-1 times starting from Y(1) = y.

    Refuses with ``BudgetError`` before building any level whose total
    dimension would exceed the budget (default taken from SEMIBRICK_BUDGET
    or 512); wild members grow geometrically, so unbounded towers are a
    footgun rather than a feature.
    """
    _require_cert(sb)
    if r < 1:
        raise InvariantError("tower needs at least one level")
    if budget is None:
        budget = dimension_budget()
    if y.dim_total > budget:
        raise BudgetError(
            f"base dimension {y.dim_total} already exceeds the budget {budget}"
        )
    levels = [y]
    sequences = []
    current = y
    while len(levels) < r:
        parts, cocycles = _universal_data(current, sb)
        grown = current.dim_total + sum(p.dim_total for p in parts)
        if grown > budget:
            raise BudgetError(
                f"level {len(levels) + 1} would have total dimension {grown}, "
                f"budget is {budget}"
            )
        ses = _assemble_universal(current, sb, parts, cocycles)
        report = is_universal(ses, sb)
        if not report.ok:
            raise InvariantError("tower level failed the universality check")
        sequences.append(ses)
        current = ses.middle
        levels.append(current)
    return Tower(y, sb, levels, sequences)


@dataclass(frozen=True)
class EndTower:
    tower: Tower
    algebras: list  # AlgebraPresentation per level
    psi_maps: list  # Matrix: coordinates of End(Y(i+1)) -> End(Y(i))
    ideal_bases: list  # per level: list of coordinate vectors spanning {f : f|_base = 0}
    level_reports: list  # dicts with surjectivity/nilpotency/residue evidence
    ok: bool

    @property
    def end_dims(self) -> tuple:
        return tuple(alg.dimension for alg in self.algebras)


def _restriction_coords(coords_of, incl: Morphism, endos: list) -> list:
    """Coordinates in End(sub) of the restrictions of ``endos`` along incl.

    ``coords_of`` is the ``end_coordinates`` function of End(sub).  Each
    vertex takes one solve, ``incl_v * X = [e_1,v * incl_v | ...]``, checked
    exactly.
    """
    sub = incl.source
    blocks = [{} for _ in endos]
    for v in sub.quiver.vertices:
        iv = incl.blocks[v]
        rhs = hstack([e.blocks[v].mul(iv) for e in endos])
        sol = solve(iv, rhs)
        if sol is None or iv.mul(sol) != rhs:
            raise InvariantError(
                "endomorphism does not preserve the subobject; restriction undefined"
            )
        w = iv.cols
        for k, b in enumerate(blocks):
            b[v] = sol.cols_at(range(k * w, (k + 1) * w))
    return [coords_of(Morphism(sub, sub, b)) for b in blocks]


def _ideal_basis(alg: AlgebraPresentation, incl_from_base: Morphism) -> list:
    """Coordinate basis of {f in End : f restricted to the base is zero}."""
    f = alg.field
    d = alg.dimension
    rows = []
    for v in incl_from_base.source.quiver.vertices:
        comp_blocks = [
            b.blocks[v].mul(incl_from_base.blocks[v]) for b in alg.basis
        ]
        height = comp_blocks[0].rows * comp_blocks[0].cols if comp_blocks else 0
        for idx in range(height):
            rows.append([cb.entries[idx] for cb in comp_blocks])
    return [vec.col(0) for vec in nullspace_basis(_stack(f, d, rows))]


def _ideal_checks(alg: AlgebraPresentation, ideal: list) -> tuple[int, bool, int | None]:
    """The dimension of the span of ``ideal``, whether it is two-sided, and
    its nilpotency index.

    The index is the first power n <= d + 1 at which the products of n
    ideal vectors span zero, else None.  Every product is read off matrix
    products with the multiplication table T: with I stacking the ideal
    vectors as rows, row b of ``I * [T[i][j][l]]_(j, (i, l))`` is the d x d
    matrix ``M_b`` whose row i is ``e_i * b``, and row b of
    ``I * [T[i][j][l]]_(i, (j, l))`` holds ``b * e_j`` for every j.  The
    products of the rows of a matrix A with every ideal vector are the rows
    of ``A * [M_1 | ... | M_n]`` cut into d-vectors.  The ideal is
    two-sided iff stacking every product under I keeps its rank; each
    power is spanned by the nonzero rows of the rref of its products.
    """
    f = alg.field
    d = alg.dimension
    n = len(ideal)
    table = alg.multiplication_table
    stacked = _stack(f, d, ideal)
    times_left = stacked.mul(
        Matrix(f, d, d * d, [table[i][j][l] for j in range(d) for i in range(d) for l in range(d)])
    )
    times_right = stacked.mul(
        Matrix(f, d, d * d, [x for plane in table for c in plane for x in c])
    )
    dim = rank(stacked)
    everything = stacked.entries + times_left.entries + times_right.entries
    two_sided = rank(Matrix(f, n + 2 * n * d, d, everything)) == dim
    # [M_1 | ... | M_n]: entry (i, (b, l)) is entry (b, (i, l)) of times_left
    e = times_left.entries
    ops = Matrix(f, d, n * d, [e[(b * d + i) * d + l] for i in range(d) for b in range(n) for l in range(d)])
    current = stacked
    for power in range(1, d + 2):
        if current.is_zero():
            return dim, two_sided, power
        red, pivots = rref(Matrix(f, current.rows * n, d, current.mul(ops).entries))
        current = red.rows_at(range(len(pivots)))
    return dim, two_sided, None


def end_ring_tower(t: Tower) -> EndTower:
    """End algebras of every level with restriction maps and locality evidence.

    Each restriction map is re-derived from scratch (solve the intertwining
    of the inclusion, then re-coordinate), checked to be a surjective unital
    algebra map; the ideal of endomorphisms killing the base is checked
    two-sided and nilpotent, with the residue dimension reported.
    """
    base_is_member = any(t.base == m for m in t.semibrick.members)
    if not base_is_member:
        raise InvariantError("end-ring towers need the base to be a member")
    f = t.base.field
    algebras = [end_algebra(level) for level in t.levels]
    psi_maps = []
    level_reports = []
    ideal_bases = []
    ok = True
    for i, incl_base in enumerate(t._inclusions_from(1)):
        alg = algebras[i]
        ideal = _ideal_basis(alg, incl_base)
        ideal_bases.append(ideal)
        d = alg.dimension
        ideal_rank, two_sided, nilpotency_index = _ideal_checks(alg, ideal)
        residue_dim = d - ideal_rank
        report = {
            "level": i + 1,
            "end_dim": d,
            "ideal_dim": ideal_rank,
            "ideal_two_sided": two_sided,
            "ideal_nilpotent": nilpotency_index is not None,
            "nilpotency_index": nilpotency_index,
            "residue_dim": residue_dim,
            "local_evidence": nilpotency_index is not None and residue_dim == 1,
        }
        ok = ok and two_sided and nilpotency_index is not None
        if i + 1 < t.height:
            big = algebras[i + 1]
            incl = t.sequences[i].incl
            cols = _restriction_coords(end_coordinates(alg.basis), incl, big.basis)
            psi = mat_from_cols(f, d, cols)
            psi_maps.append(psi)
            surjective = rank(psi) == d
            unital = (
                psi.mul(Matrix(f, big.dimension, 1, list(big.unit_coordinates)))
                == Matrix(f, d, 1, list(alg.unit_coordinates))
            )
            # psi(e_a e_b) = psi(e_a) psi(e_b), all pairs read off one product
            n = big.dimension
            images = psi.mul(
                mat_from_cols(f, n, [c for row in big.multiplication_table for c in row])
            )
            psi_cols = [psi.col(a) for a in range(n)]
            multiplicative = all(
                images.col(a * n + b) == alg.multiply(psi_cols[a], psi_cols[b])
                for a in range(n)
                for b in range(n)
            )
            report["psi_surjective"] = surjective
            report["psi_unital"] = unital
            report["psi_multiplicative"] = multiplicative
            ok = ok and surjective and unital and multiplicative
        level_reports.append(report)
    # kernel of the composite restriction onto End(Y(1)) matches the top ideal
    if t.height > 1:
        composite = psi_maps[0]
        for psi in psi_maps[1:]:
            composite = composite.mul(psi)
        kernel = [v.col(0) for v in nullspace_basis(composite)]
        top_ideal, d = ideal_bases[-1], composite.cols
        same = len(kernel) == rank(_stack(f, d, top_ideal)) == rank(_stack(f, d, kernel + top_ideal))
        level_reports[-1]["composite_kernel_matches_ideal"] = same
        ok = ok and same
    return EndTower(t, algebras, psi_maps, ideal_bases, level_reports, ok)


def uniserial_check(t: Tower) -> bool:
    """Socle-level uniseriality of every quotient Y(i)/Y(j) of the tower.

    Applicable only when the semi-brick's ext table is concentrated on the
    base: dim Ext(base, base) = 1 and Ext(member, base) = 0 for the other
    members; otherwise ``InapplicableError``.  True iff for every member X
    and every 0 <= j < i <= height, dim Hom(X, Y(i)/Y(j)) <= 1 and every
    nonzero morphism X -> Y(i)/Y(j) has image exactly the distinguished
    bottom layer Y(j+1)/Y(j) (Y(0) = 0).

    Only the top quotient Q_j = Y(height)/Y(j) is built for each j: every
    Y(i)/Y(j) embeds in Q_j, so by left exactness Hom(X, Y(i)/Y(j)) embeds
    in Hom(X, Q_j), and the bottom layer lies in Y(i)/Y(j).  Both conditions
    therefore hold at every i exactly when they hold at i = height.
    """
    sb = t.semibrick
    base_idx = None
    for i, m in enumerate(sb.members):
        if m == t.base:
            base_idx = i
            break
    if base_idx is None:
        raise InapplicableError("tower base is not a member of its semi-brick")
    if sb.ext_table[base_idx][base_idx] != 1:
        raise InapplicableError(
            "uniseriality needs dim Ext(base, base) = 1, got "
            f"{sb.ext_table[base_idx][base_idx]}"
        )
    for i in range(len(sb.members)):
        if i != base_idx and sb.ext_table[i][base_idx] != 0:
            raise InapplicableError(
                "uniseriality needs Ext(member, base) = 0 for other members"
            )
    lower = None
    for j in range(t.height):
        # Q_j = Y(h)/Y(j), and Y(j+1)/Y(j) inside it; j = 0 means Y(h) itself
        upper = t.inclusion(j + 1, t.height)
        if j == 0:
            quot, bottom = t.levels[-1], image(upper)
        else:
            quot, proj = cokernel(lower)
            bottom = image(compose(upper, proj))
        for member in sb.members:
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
