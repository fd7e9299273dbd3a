"""Hom spaces, first extension groups, and short exact sequence calculus.

For representations M, N the intertwining operator

    Phi : sum_v Hom_k(M_v, N_v) -> sum_a Hom_k(M_{s(a)}, N_{t(a)})
    Phi(F)_a = F_{t(a)} * M_a - N_a * F_{s(a)}

has kernel Hom(M, N); because path algebras of acyclic quivers are
hereditary its cokernel is Ext^1(M, N) and there are no higher cocycle
conditions.  ``hom_basis`` proves its kernel vectors are morphisms once
per basis (``_check_intertwines``), through the package's one square check
``reps._first_broken_square`` on integers from the arrow maps, and returns
them without a per-element ``Morphism(...)`` check.  Extension
classes are always compared through ``ExtSpace`` reduction against the
coboundary space, never by raw component equality;
``is_split`` is the zero test of a sequence's class.  Linear conditions on
morphisms (the ladder of ``ses_equivalence_witness``) are solved for
coordinates in ``hom_basis``, so no other system is built entry by entry.
The pullback along f is the kernel of (proj, -f) and the pushout along g
the cokernel of (incl, -g), both on ``direct_sum([middle, W])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm

from .errors import InvariantError, UndecidedError
from .linalg import (
    Matrix,
    _blocks_of_form,
    _integer_multiple,
    _kernel_at_free,
    _kernel_vectors,
    _row_forward_echelon,
    _row_kernel_forms,
    _solve_at_free,
    _sparse_echelon,
    combination,
    hstack,
    mat_from_cols,
    nullspace_basis,
    solve,
    unit_vectors,
    vstack,
)
from .reps import (
    Morphism,
    Rep,
    _first_broken_square,
    _subrep_on_basis,
    cokernel,
    compose,
    direct_sum,
    factor_through_inclusion,
    linear_combination,
    search_invertible_combination,
)


def _hom_layout(m: Rep, n: Rep):
    """Flat coordinates for sum_v Hom_k(M_v, N_v), row-major inside each block."""
    col_off = {}
    total = 0
    for v in m.quiver.vertices:
        col_off[v] = total
        total += n.dims[v] * m.dims[v]
    return col_off, total


def _arrow_pairs(m: Rep, n: Rep) -> list:
    """``(M_a, N_a)`` for each arrow a in turn."""
    if m.quiver != n.quiver or m.field != n.field:
        raise InvariantError("hom/ext needs a common quiver and field")
    return [(m.arrow_maps[aid], n.arrow_maps[aid]) for aid, _, _ in m.quiver.arrows]


def _phi_blocks(m: Rep, n: Rep) -> list:
    """The flat ``(M_a, -N_a)`` of each arrow as Phi's rows hold them.

    Over GF(p) these are residues.  Over QQ they are integers: M_a's entries
    times ``den // d_M`` and -N_a's times ``den // d_N``, where ``den`` is the
    lcm of the denominators d of the arrow maps whose entries appear in Phi,
    which is the lcm of the denominators of Phi's entries: M_a's appear when
    N_{t(a)} is nonzero, N_a's when M_{s(a)} is.
    """
    maps = _arrow_pairs(m, n)
    p = m.field.characteristic
    if p:
        return [(a.entries, [-x % p for x in b.entries]) for a, b in maps]
    forms = [(a._integer_form(), b._integer_form()) for a, b in maps]
    den = 1
    for (_, s, t), ((_, dm), (_, dn)) in zip(m.quiver.arrows, forms):
        den = lcm(den, dm if n.dims[t] else 1, dn if m.dims[s] else 1)
    return [([x * (den // dm) for x in mi], [-x * (den // dn) for x in ni])
            for (mi, dm), (ni, dn) in forms]


def _intertwine_segments(m: Rep, n: Rep, blocks: list):
    """Each row of Phi in turn as its two segments ``(t_first, t_vals,
    s_first, s_vals, stride)``, from the flat ``(M_a, -N_a)`` of each arrow.

    Row (i, j) of arrow a: s -> t is entry (i, j) of F_t M_a - N_a F_s.
    F_t[i, l] contributes M_a[l, j], so column j of M_a fills the columns
    from ``t_first`` on; F_s[l, j] contributes -N_a[i, l], so row i of -N_a
    fills every ``stride``-th column from ``s_first``.  The quiver is
    acyclic, so s != t and the two segments are disjoint.
    """
    col_off, _ = _hom_layout(m, n)
    for (_, s, t), (ma, na) in zip(m.quiver.arrows, blocks):
        ms, ns = m.dims[s], n.dims[s]
        for i in range(n.dims[t]):
            na_row = na[i * ns : (i + 1) * ns]
            t_first = col_off[t] + i * m.dims[t]
            for j in range(ms):
                yield t_first, ma[j::ms], col_off[s] + j, na_row, ms


def _phi_rows(m: Rep, n: Rep) -> list[list]:
    """Phi for Hom(M, N) as the raw rows the ``linalg`` row kernels take:
    one slice assignment per segment of ``_intertwine_segments`` into
    ``[0] * ncols``, from the blocks of ``_phi_blocks``.  Over QQ row r is
    row r of Phi times ``den``; elimination divides it by its content."""
    _, ncols = _hom_layout(m, n)
    rows = []
    for t_first, t_vals, s_first, s_vals, stride in _intertwine_segments(
        m, n, _phi_blocks(m, n)
    ):
        row = [0] * ncols
        row[t_first : t_first + len(t_vals)] = t_vals
        row[s_first : s_first + len(s_vals) * stride : stride] = s_vals
        rows.append(row)
    return rows


def _intertwine_rows(m: Rep, n: Rep) -> list[list]:
    """Phi's rows as their nonzero ``(column, value)`` items, for
    ``_sparse_echelon``, read off the segments ``_phi_rows`` is written from:
    residues over GF(p), over QQ the integers of ``_phi_blocks``.

    The dense rows are not filled from these items: over the 668 fills of one
    ``sweep-qq`` benchmark pass, building and writing them took 0.025-0.036 s
    against 0.009-0.016 s for the slice assignments (2 vCPUs, Python 3.11.7).
    """
    rows = []
    for t_first, t_vals, s_first, s_vals, stride in _intertwine_segments(
        m, n, _phi_blocks(m, n)
    ):
        items = [(t_first + k, x) for k, x in enumerate(t_vals) if x]
        rows.append(items + [(s_first + k * stride, x) for k, x in enumerate(s_vals) if x])
    return rows


def _flatten(blocks: dict, keys) -> list:
    """The entries of ``blocks[k]`` for each key in turn.  Hom blocks in
    vertex order are coordinates on Phi's columns, cocycle components in
    arrow order coordinates on its rows.  ``linalg._blocks_of_form`` cuts
    blocks back out of a vector."""
    return [x for k in keys for x in blocks[k].entries]


# hom_basis eliminates Phi as sparse rows when its columns number at least this
# many times its longest possible row; below that, dense rows are faster.
_SPARSE_RATIO = 8


def hom_basis(m: Rep, n: Rep) -> list[Morphism]:
    """Canonical basis of the space of morphisms M -> N: the kernel of Phi.

    Phi is eliminated from its nonzero items (``_sparse_echelon``) when its
    shape says it is sparse, ``ncols >= _SPARSE_RATIO * w`` with w = max
    over arrows a: s -> t of m_t + n_s, its longest possible row; else as
    dense rows (``_row_forward_echelon``).  Both return the one echelon
    format, which ``_hom_basis_of_echelon`` solves at the free columns
    (``_kernel_at_free``), so the basis is the same; ``bricks.is_brick``
    hands it the echelon of its rank test.  ``_row_kernel_forms`` reads
    each vector's integer form off the solved rows; the whole basis is
    checked once on their numerators by ``_check_intertwines``, through
    ``reps._first_broken_square``, and each element is built from its form
    through ``Morphism._trusted``, its blocks born with their own
    (``_blocks_of_form``).
    """
    width = max([ma.rows + na.cols for ma, na in _arrow_pairs(m, n)], default=0)
    _, ncols = _hom_layout(m, n)
    p = m.field.characteristic
    if ncols >= _SPARSE_RATIO * width:
        echelon = _sparse_echelon(_intertwine_rows(m, n), p)
    else:
        echelon = _row_forward_echelon(_phi_rows(m, n), ncols, p)
    return _hom_basis_of_echelon(m, n, echelon)


def _hom_basis_of_echelon(m: Rep, n: Rep, echelon: dict) -> list[Morphism]:
    """``hom_basis(m, n)`` from an echelon of Phi built by either elimination."""
    shapes = [(v, n.dims[v], m.dims[v]) for v in m.quiver.vertices]
    ncols = sum(r * c for _, r, c in shapes)
    p = m.field.characteristic
    solved, _, free = _kernel_at_free(echelon, ncols, p)
    forms = _row_kernel_forms(solved, free, ncols, p)
    _check_intertwines(m, n, [ints for ints, _ in forms])
    return [Morphism._trusted(m, n, _blocks_of_form(m.field, ints, den, shapes))
            for ints, den in forms]


def _check_intertwines(m: Rep, n: Rep, vecs: list[list]) -> None:
    """Raise ``InvariantError`` unless each vector of ``vecs`` on Phi's columns
    is a morphism M -> N: F_t M_a = N_a F_s for every arrow a: s -> t.

    The vectors are integer: residues over GF(p), over QQ the numerators of
    kernel vectors, whose denominators cancel in these homogeneous squares.
    Each vector is cut into blocks and handed to ``reps._first_broken_square``
    as forms over 1, so the squares are read off the arrow maps, not off
    Phi, and a fault in building Phi is caught as ``Morphism(...)`` catches
    it.  Over GF(p) every vector is checked.  Over QQ, with M_a = Mi/dM and
    N_a = Ni/dN, a square's residual F_t Mi dN - Ni F_s dM has entries at
    most ``bound = kmax * (m_t max|Mi| dN + n_s max|Ni| dM)``, kmax the
    largest |entry| of the vectors.  With B = 2 bound + 1 the residual of
    P = sum_i B^i v_i has the residuals of the v_i as its balanced base-B
    digits, which are unique, so the one vector P decides the whole basis.
    """
    if not vecs:
        return
    col_off, _ = _hom_layout(m, n)
    if not m.field.characteristic:
        kmax = max(max(map(abs, v)) for v in vecs)
        bound = 0
        for aid, s, t in m.quiver.arrows:
            mi, dm = m.arrow_maps[aid]._integer_form()
            ni, dn = n.arrow_maps[aid]._integer_form()
            bound = max(bound, kmax * (m.dims[t] * max(map(abs, mi), default=0) * dn
                                       + n.dims[s] * max(map(abs, ni), default=0) * dm))
        base = 2 * bound + 1
        packed = vecs[-1]
        for v in reversed(vecs[:-1]):
            packed = [x * base + y for x, y in zip(packed, v)]
        vecs = [packed]
    sizes = {v: n.dims[v] * m.dims[v] for v in m.quiver.vertices}
    for vec in vecs:
        forms = {v: (vec[col_off[v] : col_off[v] + sizes[v]], 1) for v in sizes}
        aid = _first_broken_square(m, n, forms)
        if aid is not None:
            raise InvariantError(f"hom basis does not intertwine arrow {aid!r}")


class ExtCocycle:
    """One matrix per arrow, recording how an extension twists the arrows.

    For an extension of ``from_rep`` (the quotient side) by ``to_rep`` (the
    sub side), the component at an arrow ``a: s -> t`` has shape
    ``to_rep.dims[t] x from_rep.dims[s]``.
    """

    __slots__ = ("from_rep", "to_rep", "components")

    def __init__(self, from_rep: Rep, to_rep: Rep, components: dict):
        if from_rep.quiver != to_rep.quiver or from_rep.field != to_rep.field:
            raise InvariantError("cocycle endpoints disagree on quiver or field")
        if set(components) != {a[0] for a in from_rep.quiver.arrows}:
            raise InvariantError("cocycle must assign every arrow exactly once")
        for aid, s, t in from_rep.quiver.arrows:
            comp = components[aid]
            if not isinstance(comp, Matrix) or comp.field != from_rep.field:
                raise InvariantError(f"cocycle component at {aid!r} over wrong field")
            if comp.shape != (to_rep.dims[t], from_rep.dims[s]):
                raise InvariantError(
                    f"cocycle component at {aid!r}: shape {comp.shape}, expected "
                    f"{(to_rep.dims[t], from_rep.dims[s])}"
                )
        self.from_rep = from_rep
        self.to_rep = to_rep
        self.components = dict(components)

    @classmethod
    def zero(cls, from_rep: Rep, to_rep: Rep) -> "ExtCocycle":
        comps = {
            a[0]: Matrix.zeros(from_rep.field, to_rep.dims[a[2]], from_rep.dims[a[1]])
            for a in from_rep.quiver.arrows
        }
        return cls(from_rep, to_rep, comps)

    def add(self, other: "ExtCocycle") -> "ExtCocycle":
        if self.from_rep != other.from_rep or self.to_rep != other.to_rep:
            raise InvariantError("cocycle sum needs equal endpoints")
        comps = {a: self.components[a].add(other.components[a]) for a in self.components}
        return ExtCocycle(self.from_rep, self.to_rep, comps)

    def scale(self, c) -> "ExtCocycle":
        comps = {a: self.components[a].scale(c) for a in self.components}
        return ExtCocycle(self.from_rep, self.to_rep, comps)

    def pulled_back(self, f: Morphism) -> "ExtCocycle":
        """Precompose with f : W -> from_rep, giving a cocycle over W."""
        if f.target != self.from_rep:
            raise InvariantError("pullback morphism must land in the quotient side")
        comps = {}
        for aid, s, t in self.from_rep.quiver.arrows:
            comps[aid] = self.components[aid].mul(f.blocks[s])
        return ExtCocycle(f.source, self.to_rep, comps)

    def pushed_forward(self, g: Morphism) -> "ExtCocycle":
        """Postcompose with g : to_rep -> W, giving a cocycle into W."""
        if g.source != self.to_rep:
            raise InvariantError("pushforward morphism must start at the sub side")
        comps = {}
        for aid, s, t in self.from_rep.quiver.arrows:
            comps[aid] = g.blocks[t].mul(self.components[aid])
        return ExtCocycle(self.from_rep, g.target, comps)


class ExtSpace:
    """Ext^1(from_rep, to_rep) presented as the cokernel of Phi.

    Class arithmetic goes through ``reduce``: a cocycle's coordinates in the
    canonical cokernel basis (free coordinates of the column space of Phi in
    echelon form).  Two cocycles represent the same class iff their reduced
    coordinates agree.  One forward elimination of Phi^T
    (``_row_forward_echelon``) gives its pivot rows, keyed by the pivots of
    its rref, hence ``dim``, ``coboundary_rank`` and the free coordinates.
    The first ``reduce`` solves the rref rows R_k of Phi^T at the free
    coordinates (``_solve_at_free``); a cocycle c has class coordinates the
    free entries of ``c - sum_k c[pc_k] * R_k``, the unique vector of
    c + coboundaries that is zero at every pivot.
    """

    def __init__(self, from_rep: Rep, to_rep: Rep):
        self.from_rep = from_rep
        self.to_rep = to_rep
        rows = _phi_rows(from_rep, to_rep)
        self._nrows = len(rows)
        self._shapes = [
            (aid, to_rep.dims[t], from_rep.dims[s]) for aid, s, t in from_rep.quiver.arrows
        ]
        # Phi's columns as strided slices of its flat entries.  Not zip(*rows):
        # its tuple per column stays on the interpreter's free lists, which
        # raises the tracemalloc peak of a preproj-gf101 pass by 0.045 MiB.
        flat, ncols = list(chain.from_iterable(rows)), _hom_layout(from_rep, to_rep)[1]
        self._echelon = _row_forward_echelon(
            [flat[j::ncols] for j in range(ncols)], self._nrows, from_rep.field.characteristic
        )
        self._free = [c for c in range(self._nrows) if c not in self._echelon]
        self.dim = len(self._free)
        self.coboundary_rank = len(self._echelon)

    @cached_property
    def _solved(self) -> dict:
        """The rref rows of Phi^T at the free coordinates, ``{pc_k: (vals, den)}``."""
        p = self.from_rep.field.characteristic
        return _solve_at_free(self._echelon, self._free, p)

    def reduce(self, c: ExtCocycle) -> list:
        """Coordinates of the class of c in the canonical cokernel basis."""
        if c.from_rep != self.from_rep or c.to_rep != self.to_rep:
            raise InvariantError("cocycle belongs to a different ext space")
        vec = _flatten(c.components, [k for k, _, _ in self._shapes])
        p = self.from_rep.field.characteristic
        coords = [vec[fc] for fc in self._free]
        for pc, (vals, den) in self._solved.items():
            x = vec[pc]
            if x:
                if p:
                    coords = [(y - x * v) % p for y, v in zip(coords, vals)]
                else:
                    x /= den
                    coords = [y - x * v if v else y for y, v in zip(coords, vals)]
        return coords

    def is_zero_class(self, c: ExtCocycle) -> bool:
        z = self.from_rep.field.zero
        return all(x == z for x in self.reduce(c))

    def same_class(self, c1: ExtCocycle, c2: ExtCocycle) -> bool:
        return self.reduce(c1) == self.reduce(c2)

    def basis(self) -> list[ExtCocycle]:
        """Cocycles whose classes form the canonical basis of Ext^1."""
        return [self.from_coords(e) for e in unit_vectors(self.from_rep.field, self.dim)]

    def from_coords(self, coords: list) -> ExtCocycle:
        """Canonical representative cocycle with the given class coordinates."""
        f = self.from_rep.field
        if len(coords) != self.dim:
            raise InvariantError("coordinate count mismatch")
        vec = [f.zero] * self._nrows
        for fc, c in zip(self._free, coords):
            vec[fc] = f.of(c)
        ints, den = (vec, 1) if f.characteristic else _integer_multiple(vec)
        return ExtCocycle(self.from_rep, self.to_rep, _blocks_of_form(f, ints, den, self._shapes))


def ext_basis(m: Rep, n: Rep) -> tuple[list[ExtCocycle], int]:
    """Basis cocycles for Ext^1(M, N) plus the rank of the coboundary space."""
    space = ExtSpace(m, n)
    return space.basis(), space.coboundary_rank


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> sub -> middle -> quot -> 0 with explicit inclusion and projection."""

    sub: Rep
    middle: Rep
    quot: Rep
    incl: Morphism
    proj: Morphism

    def __post_init__(self):
        if self.incl.source != self.sub or self.incl.target != self.middle:
            raise InvariantError("inclusion endpoints do not match")
        if self.proj.source != self.middle or self.proj.target != self.quot:
            raise InvariantError("projection endpoints do not match")
        if not self.incl.is_injective():
            raise InvariantError("inclusion is not injective")
        if not self.proj.is_surjective():
            raise InvariantError("projection is not surjective")
        if not compose(self.incl, self.proj).is_zero():
            raise InvariantError("composite sub -> quot is nonzero")
        for v in self.middle.quiver.vertices:
            if self.sub.dims[v] + self.quot.dims[v] != self.middle.dims[v]:
                raise InvariantError(f"dimension count fails exactness at {v!r}")
        # with the composite zero and the dimensions adding up, im(incl) = ker(proj)


def extension_middle(quot: Rep, sub: Rep, cocycle: ExtCocycle) -> ShortExactSequence:
    """Realize a cocycle as an extension with block middle [sub | quot].

    Arrow maps take the block form [[sub_a, e_a], [0, quot_a]].
    """
    if cocycle.from_rep != quot or cocycle.to_rep != sub:
        raise InvariantError("cocycle endpoints do not match the requested extension")
    f = quot.field
    quiver = quot.quiver
    dims = {v: sub.dims[v] + quot.dims[v] for v in quiver.vertices}
    maps = {}
    for aid, s, t in quiver.arrows:
        top = hstack([sub.arrow_maps[aid], cocycle.components[aid]])
        bottom = hstack(
            [Matrix.zeros(f, quot.dims[t], sub.dims[s]), quot.arrow_maps[aid]]
        )
        maps[aid] = vstack([top, bottom])
    middle = Rep(quiver, f, dims, maps)
    incl_blocks = {}
    proj_blocks = {}
    for v in quiver.vertices:
        incl_blocks[v] = vstack(
            [Matrix.identity(f, sub.dims[v]), Matrix.zeros(f, quot.dims[v], sub.dims[v])]
        )
        proj_blocks[v] = hstack(
            [Matrix.zeros(f, quot.dims[v], sub.dims[v]), Matrix.identity(f, quot.dims[v])]
        )
    incl = Morphism(sub, middle, incl_blocks)
    proj = Morphism(middle, quot, proj_blocks)
    return ShortExactSequence(sub, middle, quot, incl, proj)


def cocycle_of(ses: ShortExactSequence) -> ExtCocycle:
    """A cocycle representing the class of a short exact sequence.

    Built from vertexwise splittings of the projection; the representative
    depends on the splitting but its ``ExtSpace`` class does not.
    """
    f = ses.middle.field
    quiver = ses.middle.quiver
    sections = {}
    for v in quiver.vertices:
        s = solve(ses.proj.blocks[v], Matrix.identity(f, ses.quot.dims[v]))
        if s is None:
            raise InvariantError("projection has no vertexwise section")
        sections[v] = s
    comps = {}
    for aid, s, t in quiver.arrows:
        drift = ses.middle.arrow_maps[aid].mul(sections[s]).sub(
            sections[t].mul(ses.quot.arrow_maps[aid])
        )
        e = solve(ses.incl.blocks[t], drift)
        if e is None or ses.incl.blocks[t].mul(e) != drift:
            raise InvariantError("splitting drift escapes the subobject")
        comps[aid] = e
    return ExtCocycle(ses.quot, ses.sub, comps)


def pullback_with_map(
    ses: ShortExactSequence, f: Morphism
) -> tuple[ShortExactSequence, Morphism]:
    """Base change along f : W -> quot; also returns the map to the old middle.

    The new middle is the kernel of (proj, -f) : middle + W -> quot, with the
    canonical kernel basis of each vertex's block as its basis; that basis
    carries an identity at the block's free columns.
    """
    if f.target != ses.quot:
        raise InvariantError("pullback needs a morphism into the quotient")
    total, (inj_mid, _), (to_mid, to_w) = direct_sum([ses.middle, f.source])
    glue = compose(to_mid, ses.proj).sub(compose(to_w, f))
    bases = {}
    free = {}
    for v, block in glue.blocks.items():
        vecs, free[v] = _kernel_vectors(block)
        bases[v] = mat_from_cols(total.field, block.cols, vecs)
    pb = _subrep_on_basis(total, bases, free)
    incl = factor_through_inclusion(compose(ses.incl, inj_mid), pb)
    proj = compose(pb.inclusion, to_w)
    nat = compose(pb.inclusion, to_mid)
    return ShortExactSequence(ses.sub, pb.sub, f.source, incl, proj), nat


def pullback(ses: ShortExactSequence, f: Morphism) -> ShortExactSequence:
    return pullback_with_map(ses, f)[0]


def pushout_with_map(
    ses: ShortExactSequence, g: Morphism
) -> tuple[ShortExactSequence, Morphism]:
    """Cobase change along g : sub -> W; also returns the map from the old middle.

    The new middle is the cokernel of (incl, -g) : sub -> middle + W.
    """
    if g.source != ses.sub:
        raise InvariantError("pushout needs a morphism out of the subobject")
    _, (inj_mid, inj_w), (to_mid, _) = direct_sum([ses.middle, g.target])
    po, q = cokernel(compose(ses.incl, inj_mid).sub(compose(g, inj_w)))
    down = compose(to_mid, ses.proj)
    proj_blocks = {}
    for v, block in q.blocks.items():
        sol = solve(block.transpose(), down.blocks[v].transpose())
        if sol is None:
            raise InvariantError("quotient map does not factor through the pushout")
        proj_blocks[v] = sol.transpose()
    proj = Morphism(po, ses.quot, proj_blocks)
    incl = compose(inj_w, q)
    nat = compose(inj_mid, q)
    return ShortExactSequence(g.target, po, ses.quot, incl, proj), nat


def pushout(ses: ShortExactSequence, g: Morphism) -> ShortExactSequence:
    return pushout_with_map(ses, g)[0]


def connecting_map(ses: ShortExactSequence, x: Rep) -> Matrix:
    """Matrix of delta : Hom(X, quot) -> Ext^1(X, sub) in the canonical bases.

    Columns are indexed by ``hom_basis(X, quot)``, rows by the canonical
    basis of ``ExtSpace(X, sub)``; delta sends f to the class of the
    pulled-back extension.
    """
    space = ExtSpace(x, ses.sub)
    e = cocycle_of(ses)
    cols = [space.reduce(e.pulled_back(f)) for f in hom_basis(x, ses.quot)]
    return mat_from_cols(x.field, space.dim, cols)


def is_split(ses: ShortExactSequence) -> bool:
    """Whether the sequence splits, that is, its class in Ext^1(quot, sub) is zero."""
    return ExtSpace(ses.quot, ses.sub).is_zero_class(cocycle_of(ses))


def ses_equivalence_witness(
    top: ShortExactSequence, bottom: ShortExactSequence
) -> tuple[Morphism, Morphism] | None:
    """Equivalence data (f, g) between two sequences with identical ends.

    Searches for an automorphism g of the common quotient with
    [cocycle(bottom) . g] = [cocycle(top)], then solves the ladder

        compose(top.incl, f) == bottom.incl
        compose(f, bottom.proj) == compose(top.proj, g)

    for f : top.middle -> bottom.middle, which the five lemma forces to be
    an isomorphism.  Returns None when no equivalence exists: either no
    endomorphism g matches the classes, or the invertibility sweep over the
    matching ones was exhaustive.  Raises ``UndecidedError`` when the sweep
    would be too large to be exhaustive and found no automorphism.
    """
    if top.sub != bottom.sub or top.quot != bottom.quot:
        raise InvariantError(
            "sequence comparison needs structurally equal sub and quot; "
            "transport along pushout/pullback first"
        )
    fld = top.middle.field
    quot, sub = top.quot, top.sub
    space = ExtSpace(quot, sub)
    c_top = space.reduce(cocycle_of(top))
    c_bot_cocycle = cocycle_of(bottom)
    g_found = None
    if space.dim == 0:
        g_found = Morphism.identity(quot)
    else:
        gens = hom_basis(quot, quot)
        cols = [space.reduce(c_bot_cocycle.pulled_back(h)) for h in gens]
        lmat = mat_from_cols(fld, space.dim, cols)
        target = Matrix(fld, space.dim, 1, list(c_top))
        particular = solve(lmat, target)
        if particular is None:
            return None
        nulls = nullspace_basis(lmat)

        def build(coeffs):
            t = combination([fld.one, *coeffs], [particular, *nulls]).entries
            return linear_combination(gens, t)

        g_found, certified = search_invertible_combination(
            fld, len(nulls), build, radius=quot.dim_total
        )
        if g_found is None:
            if certified:
                return None
            raise UndecidedError(
                f"automorphism search too large: {len(nulls)} free coordinates "
                f"over {fld!r}"
            )
    # ladder, solved for f's coordinates in hom_basis(top.middle, bottom.middle).
    # They are f's entries at the free columns of Phi, so the solution with
    # free coordinates zero depends only on the solution set: f is canonical.
    basis = hom_basis(top.middle, bottom.middle)
    vs = quot.quiver.vertices
    cols = [
        _flatten(compose(top.incl, b).blocks, vs) + _flatten(compose(b, bottom.proj).blocks, vs)
        for b in basis
    ]
    rhs = _flatten(bottom.incl.blocks, vs) + _flatten(compose(top.proj, g_found).blocks, vs)
    coords = solve(mat_from_cols(fld, len(rhs), cols), Matrix(fld, len(rhs), 1, rhs))
    if coords is None:
        raise InvariantError("ladder system inconsistent despite matching classes")
    if not basis:  # both middles are zero
        return Morphism.zero(top.middle, bottom.middle), g_found
    f_mid = linear_combination(basis, coords.col(0))
    if not f_mid.is_isomorphism():
        raise InvariantError("ladder produced a non-invertible middle map")
    return f_mid, g_found


def ses_equivalent(e1: ShortExactSequence, e2: ShortExactSequence) -> bool:
    """Whether two sequences with the same sub and quot are equivalent.

    Equivalence allows an automorphism of the quotient, so this captures
    "the same extension up to relabeling the copies", not just equality of
    cocycle classes.  Raises ``UndecidedError`` when the answer could not be
    certified (see ``ses_equivalence_witness``).
    """
    return ses_equivalence_witness(e1, e2) is not None
