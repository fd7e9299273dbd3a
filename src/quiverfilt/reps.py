"""Quiver representations, morphisms, and the surrounding abelian-category toolkit.

Conventions used throughout the package:

* An arrow ``a: s -> t`` carries a matrix of shape ``dims[t] x dims[s]``
  acting on column vectors, so ``M_a`` maps the space at the source into the
  space at the target.
* A morphism ``f: M -> N`` stores one block per vertex, ``f_v`` of shape
  ``N.dims[v] x M.dims[v]``, subject to ``f_t * M_a == N_a * f_s`` for every
  arrow ``a: s -> t``.
* ``compose(f, g)`` means "apply f, then g"; on blocks this is the matrix
  product ``g_v * f_v``.

Public constructors, parsing and the certificate checkers validate their
data eagerly and raise ``InvariantError`` on malformed input, so downstream
code can assume well-formed objects.  One function decides the commuting
squares f_t * M_a == N_a * f_s: ``_first_broken_square``, on the integer
forms of the blocks and the arrow maps, with the verdict of a comparison of
``Fraction`` products.  ``Morphism(...)`` calls it on its blocks,
``homext.hom_basis`` on its kernel vectors, and ``subrep_from_spans`` and
``cokernel`` on the inclusion or projection whose arrow maps they have just
read off, once per arrow; those two then build it through
``Morphism._trusted``.  Morphism arithmetic on morphisms that are already
valid (``compose``, ``add``, ``sub``, ``scale``, ``inverse``,
``linear_combination``, ``zero``, ``identity``) yields morphisms by
linearity or by construction; with exact arithmetic nothing can drift, so
those results are built through ``Morphism._trusted`` without re-checking
the intertwining squares.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InvariantError, UndecidedError
from .linalg import (
    Field,
    Matrix,
    _pattern_of,
    _product,
    column_space_pivots,
    combination,
    hstack,
    inverse,
    is_invertible,
    nullspace_basis,
    quotient_map_free,
    rank,
    solve,
    vstack,
)
from .quivers import Quiver

_SEARCH_CAP = 200_000


class Rep:
    """Finite-dimensional representation of a quiver over an exact field.

    A rep is never written after ``__init__``: nothing sets its quiver,
    field, dims or arrow maps later, and its ``Matrix`` arrow maps are never
    written either.  ``_text`` relies on this: ``formats`` keeps there the
    text of the rep's payload once it has been written.  Equality and the
    hash ignore it.
    """

    __slots__ = ("quiver", "field", "dims", "arrow_maps", "_text")

    def __init__(self, quiver: Quiver, field: Field, dims: dict, arrow_maps: dict):
        if set(dims) != set(quiver.vertices):
            raise InvariantError("dims must assign every vertex exactly once")
        for v, n in dims.items():
            if not isinstance(n, int) or n < 0:
                raise InvariantError(f"bad dimension {n!r} at vertex {v!r}")
        if set(arrow_maps) != {a[0] for a in quiver.arrows}:
            raise InvariantError("arrow_maps must assign every arrow exactly once")
        for aid, s, t in quiver.arrows:
            m = arrow_maps[aid]
            if not isinstance(m, Matrix) or m.field != field:
                raise InvariantError(f"arrow {aid!r}: matrix over the wrong field")
            if m.shape != (dims[t], dims[s]):
                raise InvariantError(
                    f"arrow {aid!r}: shape {m.shape}, expected {(dims[t], dims[s])}"
                )
        self.quiver = quiver
        self.field = field
        self.dims = dict(dims)
        self.arrow_maps = dict(arrow_maps)
        self._text = None

    @classmethod
    def zero(cls, quiver: Quiver, field: Field) -> "Rep":
        dims = {v: 0 for v in quiver.vertices}
        maps = {a[0]: Matrix.zeros(field, 0, 0) for a in quiver.arrows}
        return cls(quiver, field, dims, maps)

    @property
    def dim_total(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> dict:
        return dict(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Rep)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and self.arrow_maps == other.arrow_maps
        )

    def __hash__(self):
        return hash(
            (
                self.quiver,
                self.field,
                tuple(sorted((str(v), n) for v, n in self.dims.items())),
            )
        )

    def __repr__(self):
        dims = ", ".join(f"{v}:{self.dims[v]}" for v in self.quiver.vertices)
        return f"Rep({self.quiver!r}, {self.field!r}, dims=({dims}))"


class Morphism:
    """Vertex-wise linear maps intertwining the arrow actions."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Rep, target: Rep, blocks: dict):
        if source.quiver != target.quiver:
            raise InvariantError("morphism endpoints live on different quivers")
        if source.field != target.field:
            raise InvariantError("morphism endpoints live over different fields")
        if set(blocks) != set(source.quiver.vertices):
            raise InvariantError("blocks must assign every vertex exactly once")
        for v in source.quiver.vertices:
            b = blocks[v]
            if not isinstance(b, Matrix) or b.field != source.field:
                raise InvariantError(f"block at {v!r} over the wrong field")
            if b.shape != (target.dims[v], source.dims[v]):
                raise InvariantError(
                    f"block at {v!r}: shape {b.shape}, expected "
                    f"{(target.dims[v], source.dims[v])}"
                )
        aid = _first_broken_square(source, target, _forms(blocks))
        if aid is not None:
            raise InvariantError(f"blocks do not intertwine arrow {aid!r}")
        self.source = source
        self.target = target
        self.blocks = dict(blocks)

    @classmethod
    def _trusted(cls, source: Rep, target: Rep, blocks: dict) -> "Morphism":
        """A morphism whose blocks are known to intertwine; validates nothing.

        Only for results of arithmetic on valid morphisms, with a fresh
        ``blocks`` dict that the caller does not keep, for blocks that
        ``_first_broken_square`` has just passed, or for blocks handed
        straight to a check that proves them a morphism, as
        ``towers._restriction_coords`` hands them to ``end_coordinates``.
        """
        out = object.__new__(cls)
        out.source = source
        out.target = target
        out.blocks = blocks
        return out

    @classmethod
    def zero(cls, source: Rep, target: Rep) -> "Morphism":
        if source.quiver != target.quiver or source.field != target.field:
            raise InvariantError("zero morphism needs a common quiver and field")
        blocks = {
            v: Matrix.zeros(source.field, target.dims[v], source.dims[v])
            for v in source.quiver.vertices
        }
        return cls._trusted(source, target, blocks)

    @classmethod
    def identity(cls, rep: Rep) -> "Morphism":
        blocks = {v: Matrix.identity(rep.field, rep.dims[v]) for v in rep.quiver.vertices}
        return cls._trusted(rep, rep, blocks)

    def block(self, v) -> Matrix:
        return self.blocks[v]

    def add(self, other: "Morphism") -> "Morphism":
        _require_endpoints(self, other, "morphism sum needs equal endpoints")
        blocks = {v: self.blocks[v].add(other.blocks[v]) for v in self.blocks}
        return Morphism._trusted(self.source, self.target, blocks)

    def sub(self, other: "Morphism") -> "Morphism":
        _require_endpoints(self, other, "morphism difference needs equal endpoints")
        blocks = {v: self.blocks[v].sub(other.blocks[v]) for v in self.blocks}
        return Morphism._trusted(self.source, self.target, blocks)

    def scale(self, c) -> "Morphism":
        blocks = {v: self.blocks[v].scale(c) for v in self.blocks}
        return Morphism._trusted(self.source, self.target, blocks)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    def is_injective(self) -> bool:
        return all(rank(b) == b.cols for b in self.blocks.values())

    def is_surjective(self) -> bool:
        return all(rank(b) == b.rows for b in self.blocks.values())

    def is_isomorphism(self) -> bool:
        return all(is_invertible(b) for b in self.blocks.values())

    def inverse(self) -> "Morphism":
        inv_blocks = {}
        for v, b in self.blocks.items():
            ib = inverse(b)
            if ib is None:
                raise InvariantError("morphism is not invertible")
            inv_blocks[v] = ib
        return Morphism._trusted(self.target, self.source, inv_blocks)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def _forms(blocks: dict) -> dict:
    """Each block's integer form as ``_first_broken_square`` reads it: the
    cached ``_integer_form()`` over QQ, the residues over 1 over GF(p)."""
    return {v: (b.entries, 1) if b.field.characteristic else b._integer_form()
            for v, b in blocks.items()}


def _first_broken_square(source: Rep, target: Rep, forms: dict):
    """The first arrow a: s -> t at which F_t M_a != N_a F_s, or None.

    M and N are the arrow maps of ``source`` and ``target``; ``forms[v]`` is
    the block F_v of shape ``target.dims[v] x source.dims[v]`` as a flat
    integer form ``(ints, d)`` with F_v = ints / d: residues with d = 1 over
    GF(p).  No field element is built.  The arrow maps are read in their
    own integer forms (the entries over GF(p)), with M_a = Mi / dM and
    N_a = Ni / dN, and the square holds iff Ft Mi dN ds == Ni Fs dM dt, the
    two unreduced integer products cross-multiplied by the other side's
    denominators; over GF(p) both products are compared modulo p.  This is
    the package's one check of a commuting square.
    """
    p = source.field.characteristic
    patterns = {}
    for aid, s, t in source.quiver.arrows:
        ma, na = source.arrow_maps[aid], target.arrow_maps[aid]
        (ft, dt), (fs, ds) = forms[t], forms[s]
        if s not in patterns:
            patterns[s] = _pattern_of(fs, target.dims[s], source.dims[s])
        rows, cols = target.dims[t], source.dims[s]
        left = _product(ft, ma._pattern(), rows, cols, 0)
        if p:
            right = _product(na.entries, patterns[s], rows, cols, 0)
            if any((x - y) % p for x, y in zip(left, right)):
                return aid
        else:
            ni, dn = na._integer_form()
            right = _product(ni, patterns[s], rows, cols, 0)
            u, w = dn * ds, dt * ma._integer_form()[1]
            if any(x * u != y * w for x, y in zip(left, right)):
                return aid
    return None


def _same_rep(a: Rep, b: Rep) -> bool:
    return a is b or a == b


def _require_endpoints(f: Morphism, g: Morphism, message: str) -> None:
    if not (_same_rep(f.source, g.source) and _same_rep(f.target, g.target)):
        raise InvariantError(message)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f followed by g; blocks multiply as g_v * f_v."""
    if not _same_rep(f.target, g.source):
        raise InvariantError("compose needs f.target == g.source")
    blocks = {v: g.blocks[v].mul(f.blocks[v]) for v in f.blocks}
    return Morphism._trusted(f.source, g.target, blocks)


def linear_combination(basis: list[Morphism], coeffs) -> Morphism:
    """The sum of ``c * b`` over coefficients and basis morphisms.

    Every basis element must share one source and one target.  Each block is
    ``linalg.combination`` of the coefficients and the basis blocks at that
    vertex, accumulated on integer forms.
    """
    if not basis:
        raise InvariantError("empty basis in linear_combination")
    if len(coeffs) != len(basis):
        raise InvariantError("coefficient count mismatch")
    first = basis[0]
    for b in basis:
        _require_endpoints(first, b, "linear_combination needs a common source and target")
    coeffs = [first.source.field.of(c) for c in coeffs]
    blocks = {v: combination(coeffs, [b.blocks[v] for b in basis]) for v in first.blocks}
    return Morphism._trusted(first.source, first.target, blocks)


def trace_pairing_rank(xs: list[Morphism], ys: list[Morphism]) -> int:
    """The rank of ``[tr(compose(x_i, y_j))]`` for ``x_i : M -> N``, ``y_j : N -> M``.

    tr(compose(x, y)) sums tr(y_v x_v) over the vertices: the dot product of
    x_v and the transpose of y_v, both flattened.  So the matrix is one
    product, the flattened x_i as rows times the flattened transposed y_j as
    columns, and no composite is formed.
    """
    if not xs or not ys:
        return 0
    m, n = xs[0].source, xs[0].target
    if not all(_same_rep(x.source, m) and _same_rep(x.target, n) for x in xs) or not all(
        _same_rep(y.source, n) and _same_rep(y.target, m) for y in ys
    ):
        raise InvariantError("trace_pairing_rank needs x_i : M -> N and y_j : N -> M")
    vertices, f = m.quiver.vertices, m.field
    width = sum(m.dims[v] * n.dims[v] for v in vertices)
    left = [e for x in xs for v in vertices for e in x.blocks[v].entries]
    right = [e for y in ys for v in vertices for e in y.blocks[v].transpose().entries]
    cols = Matrix(f, len(ys), width, right).transpose()
    return rank(Matrix(f, len(xs), width, left).mul(cols))


@dataclass(frozen=True)
class SubrepInclusion:
    """A subrepresentation together with its inclusion into the ambient one."""

    sub: Rep
    ambient: Rep
    inclusion: Morphism

    def __post_init__(self):
        if self.inclusion.source != self.sub or self.inclusion.target != self.ambient:
            raise InvariantError("inclusion endpoints do not match")
        if not self.inclusion.is_injective():
            raise InvariantError("inclusion is not injective")

    @property
    def dims(self) -> dict:
        return self.sub.dim_vector()


def subrep_from_spans(ambient: Rep, spans: dict) -> SubrepInclusion:
    """Subrepresentation generated coordinatewise by given column spans.

    ``spans`` maps each vertex to a matrix whose columns lie in the ambient
    space at that vertex.  The spans must already be arrow-stable; otherwise
    this raises.  Bases are canonicalized so the result depends only on the
    spans.
    """
    bases = {}
    pivots = {}
    for v in ambient.quiver.vertices:
        m = spans[v]
        if m.rows != ambient.dims[v]:
            raise InvariantError(f"span at {v!r} has wrong height")
        bases[v], pivots[v] = column_space_pivots(m)
    return _subrep_on_basis(ambient, bases, pivots)


def _subrep_on_basis(ambient: Rep, bases: dict, rows: dict) -> SubrepInclusion:
    """The subrepresentation with the given basis columns at each vertex.

    ``bases[v]`` carries an identity at the rows ``rows[v]``, so the arrow
    map of a: s -> t is the rows ``rows[t]`` of M_a times ``bases[s]``.  The
    spans are stable iff the inclusion's squares ``basis_t * map == M_a *
    basis_s`` all hold, checked once by ``_first_broken_square``.
    """
    sub_maps = {aid: ambient.arrow_maps[aid].rows_at(rows[t]).mul(bases[s])
                for aid, s, t in ambient.quiver.arrows}
    sub_dims = {v: bases[v].cols for v in bases}
    sub = Rep(ambient.quiver, ambient.field, sub_dims, sub_maps)
    aid = _first_broken_square(sub, ambient, _forms(bases))
    if aid is not None:
        raise InvariantError(f"spans are not stable under arrow {aid!r}")
    return SubrepInclusion(sub, ambient, Morphism._trusted(sub, ambient, bases))


def kernel(f: Morphism) -> SubrepInclusion:
    return _kernel_of_blocks(f.source, f.blocks)


def _kernel_of_blocks(source: Rep, blocks: dict) -> SubrepInclusion:
    """The subrep of ``source`` spanned by the kernels of ``blocks``, one
    matrix per vertex with ``source.dims[v]`` columns; raises unless they
    are arrow-stable, as the kernel of a morphism is."""
    spans = {}
    for v in blocks:
        vecs = nullspace_basis(blocks[v])
        if vecs:
            spans[v] = hstack(vecs)
        else:
            spans[v] = Matrix.zeros(source.field, source.dims[v], 0)
    return subrep_from_spans(source, spans)


def image(f: Morphism) -> SubrepInclusion:
    spans = {v: f.blocks[v] for v in f.blocks}
    return subrep_from_spans(f.target, spans)


def cokernel(f: Morphism) -> tuple[Rep, Morphism]:
    """The quotient target/im(f) with its projection, in canonical coordinates.

    The projection ``q_s`` carries an identity at its free columns, so the
    arrow map X of a: s -> t is ``q_t * M_a`` at the columns ``free[s]``.
    It is well defined iff the projection's squares ``q_t * M_a == X * q_s``
    all hold, checked once by ``_first_broken_square``.
    """
    projections = {}
    free = {}
    for v in f.blocks:
        projections[v], free[v] = quotient_map_free(f.blocks[v])
    dims = {v: projections[v].rows for v in projections}
    maps = {aid: projections[t].mul(f.target.arrow_maps[aid]).cols_at(free[s])
            for aid, s, t in f.target.quiver.arrows}
    quot = Rep(f.target.quiver, f.target.field, dims, maps)
    if _first_broken_square(f.target, quot, _forms(projections)) is not None:
        raise InvariantError("cokernel arrow map is not well defined")
    return quot, Morphism._trusted(f.target, quot, projections)


def factor_through_inclusion(f: Morphism, si: SubrepInclusion) -> Morphism:
    """The corestriction of f through si, assuming im(f) lies in the subrep."""
    if f.target != si.ambient:
        raise InvariantError("corestriction target mismatch")
    blocks = {}
    for v in f.blocks:
        sol = solve(si.inclusion.blocks[v], f.blocks[v])
        if sol is None or si.inclusion.blocks[v].mul(sol) != f.blocks[v]:
            raise InvariantError(f"image escapes the subrepresentation at {v!r}")
        blocks[v] = sol
    return Morphism(f.source, si.sub, blocks)


def direct_sum(parts: list[Rep]) -> tuple[Rep, list[Morphism], list[Morphism]]:
    """Coordinatewise direct sum with its canonical injections and projections."""
    if not parts:
        raise InvariantError("direct sum of nothing; pass Rep.zero explicitly")
    quiver, field = parts[0].quiver, parts[0].field
    for p in parts:
        if p.quiver != quiver or p.field != field:
            raise InvariantError("direct sum parts disagree on quiver or field")
    dims = {v: sum(p.dims[v] for p in parts) for v in quiver.vertices}
    offsets = []
    running = {v: 0 for v in quiver.vertices}
    for p in parts:
        offsets.append(dict(running))
        for v in quiver.vertices:
            running[v] += p.dims[v]
    maps = {}
    for aid, s, t in quiver.arrows:
        flat = [field.zero] * (dims[t] * dims[s])
        for p, off in zip(parts, offsets):
            block = p.arrow_maps[aid]
            for i in range(block.rows):
                for j in range(block.cols):
                    flat[(off[t] + i) * dims[s] + off[s] + j] = block.at(i, j)
        maps[aid] = Matrix(field, dims[t], dims[s], flat)
    total = Rep(quiver, field, dims, maps)
    injections = []
    projections = []
    for p, off in zip(parts, offsets):
        inj_blocks = {}
        proj_blocks = {}
        for v in quiver.vertices:
            inj = [field.zero] * (dims[v] * p.dims[v])
            proj = [field.zero] * (p.dims[v] * dims[v])
            for i in range(p.dims[v]):
                inj[(off[v] + i) * p.dims[v] + i] = field.one
                proj[i * dims[v] + off[v] + i] = field.one
            inj_blocks[v] = Matrix(field, dims[v], p.dims[v], inj)
            proj_blocks[v] = Matrix(field, p.dims[v], dims[v], proj)
        injections.append(Morphism(p, total, inj_blocks))
        projections.append(Morphism(total, p, proj_blocks))
    return total, injections, projections


def standard_module(quiver: Quiver, field: Field, kind: str, v) -> Rep:
    """Simple, projective, or injective module attached to a vertex.

    The projective at v has the paths out of v as its basis, with arrows
    acting by path extension; the injective at v is the dual construction on
    paths into v; the simple is one-dimensional at v.
    """
    if v not in quiver.vertices:
        raise InvariantError(f"unknown vertex {v!r}")
    if kind == "simple":
        dims = {w: (1 if w == v else 0) for w in quiver.vertices}
        maps = {
            a[0]: Matrix.zeros(field, dims[a[2]], dims[a[1]]) for a in quiver.arrows
        }
        return Rep(quiver, field, dims, maps)
    if kind == "projective":
        paths = quiver.paths_from(v)
        index = {w: {p: i for i, p in enumerate(paths[w])} for w in quiver.vertices}
        dims = {w: len(paths[w]) for w in quiver.vertices}
        maps = {}
        for aid, s, t in quiver.arrows:
            m = Matrix.zeros(field, dims[t], dims[s]).to_rows()
            for p, j in index[s].items():
                m[index[t][p + (aid,)]][j] = field.one
            maps[aid] = Matrix.from_rows(field, m) if dims[t] else Matrix.zeros(field, 0, dims[s])
        return Rep(quiver, field, dims, maps)
    if kind == "injective":
        into = {w: sorted(p for p in quiver.paths_from(w)[v]) for w in quiver.vertices}
        index = {w: {p: i for i, p in enumerate(into[w])} for w in quiver.vertices}
        dims = {w: len(into[w]) for w in quiver.vertices}
        maps = {}
        for aid, s, t in quiver.arrows:
            # dual of "precompose with a", which sends a path t -> v to a.path
            m = Matrix.zeros(field, dims[t], dims[s]).to_rows()
            for p, i in index[t].items():
                m[i][index[s][(aid,) + p]] = field.one
            maps[aid] = Matrix.from_rows(field, m) if dims[t] else Matrix.zeros(field, 0, dims[s])
        return Rep(quiver, field, dims, maps)
    raise InvariantError(f"unknown standard module kind {kind!r}")


# -- isomorphism testing ---------------------------------------------------


def _coefficient_search(field: Field, nfree: int, radius: int):
    """Deterministic stream of coefficient vectors, then an exhaustive grid.

    Yields ``(coeffs, certified)`` pairs; ``certified`` is True only on the
    final sentinel, emitted after a full grid sweep proved the search space
    exhausted.  Over GF(p) the grid is the whole coefficient space.
    """
    zero, one = field.zero, field.one
    if nfree == 0:
        yield (), False
        yield None, True
        return
    yield tuple([zero] * nfree), False
    for i in range(nfree):
        vec = [zero] * nfree
        vec[i] = one
        yield tuple(vec), False
        vec[i] = field.of(-1)
        yield tuple(vec), False
    rng = random.Random(20240601 + nfree)
    if field.characteristic == 0:
        draw = lambda: field.of(rng.randint(-3, 3))
    else:
        draw = lambda: field.of(rng.randrange(field.characteristic))
    for _ in range(400):
        yield tuple(draw() for _ in range(nfree)), False
    if field.characteristic == 0:
        grid = range(radius + 1)
    else:
        grid = range(field.characteristic)
    if len(grid) ** nfree <= _SEARCH_CAP:
        for coeffs in itertools.product(grid, repeat=nfree):
            yield tuple(field.of(c) for c in coeffs), False
        yield None, True
    else:
        yield None, False


def search_invertible_combination(field: Field, nfree: int, build, radius: int):
    """Find coefficients whose built morphism is a vertexwise isomorphism.

    ``build(coeffs)`` produces the candidate.  Returns ``(morphism, True)``
    on success, ``(None, True)`` when exhaustion certifies there is none,
    and ``(None, False)`` when the bounded search gave up inconclusively.
    Over the rationals the grid radius must dominate the determinant degree
    for the exhaustion certificate to be sound.
    """
    seen: set = set()
    for coeffs, certified in _coefficient_search(field, nfree, radius):
        if coeffs is None:
            return None, certified
        if coeffs in seen:
            continue
        seen.add(coeffs)
        candidate = build(coeffs)
        if candidate is not None and candidate.is_isomorphism():
            return candidate, True
    return None, False


def is_isomorphic(m: Rep, n: Rep) -> tuple[bool, Morphism | None]:
    """Decide isomorphism, returning a witness when one exists.

    Negative answers are certified: either the dimension vectors differ, the
    hom space is too small to contain an isomorphism (at some vertex v the
    blocks of the whole hom basis span less than N_v, or their kernels meet
    in a nonzero vector of M_v), or an exhaustive coefficient sweep (grid of
    size dim+1 per coordinate over the rationals, the full space over GF(p))
    found none.  If the sweep would be too large this raises
    ``UndecidedError`` instead of guessing.
    """
    from .homext import hom_basis

    if m.quiver != n.quiver or m.field != n.field:
        raise InvariantError("isomorphism testing needs a common quiver and field")
    if m.dim_vector() != n.dim_vector():
        return False, None
    if m.dim_total == 0:
        return True, Morphism.zero(m, n)
    basis = hom_basis(m, n)
    if not basis:
        return False, None
    # An isomorphism is a combination of the basis, so at each vertex the
    # blocks must jointly be onto N_v and share no kernel vector in M_v.
    for v in m.quiver.vertices:
        blocks = [b.blocks[v] for b in basis]
        if rank(hstack(blocks)) < n.dims[v] or rank(vstack(blocks)) < m.dims[v]:
            return False, None

    def build(coeffs):
        return linear_combination(basis, coeffs)

    found, certified = search_invertible_combination(
        m.field, len(basis), build, radius=m.dim_total
    )
    if found is not None:
        return True, found
    if certified:
        return False, None
    raise UndecidedError(
        f"isomorphism search space too large: {len(basis)} hom dimensions "
        f"over {m.field!r}"
    )
