"""Hom spaces, first extension groups, and short exact sequence calculus.

For representations M, N the intertwining operator

    Phi : sum_v Hom_k(M_v, N_v) -> sum_a Hom_k(M_{s(a)}, N_{t(a)})
    Phi(F)_a = F_{t(a)} * M_a - N_a * F_{s(a)}

has kernel Hom(M, N); because path algebras of acyclic quivers are
hereditary its cokernel is Ext^1(M, N) and there are no higher cocycle
conditions.  Extension classes are always compared through ``ExtSpace``
reduction against the coboundary space, never by raw component equality;
``is_split`` is the zero test of a sequence's class.  Linear conditions on
morphisms (the ladder of ``ses_equivalence_witness``) are solved for
coordinates in ``hom_basis``, so no other system is built entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, UndecidedError
from .linalg import (
    Matrix,
    RowSpace,
    hstack,
    mat_from_cols,
    rref,
    solve,
    unit_vectors,
    vstack,
)
from .reps import (
    Morphism,
    Rep,
    compose,
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


def _intertwine_matrix(m: Rep, n: Rep) -> Matrix:
    if m.quiver != n.quiver or m.field != n.field:
        raise InvariantError("hom/ext needs a common quiver and field")
    f = m.field
    col_off, ncols = _hom_layout(m, n)
    row_off = {}
    nrows = 0
    for aid, s, t in m.quiver.arrows:
        row_off[aid] = nrows
        nrows += n.dims[t] * m.dims[s]
    p = f.characteristic
    flat = [f.zero] * (nrows * ncols)
    # The quiver is acyclic, so s != t and each entry is written at most once.
    for aid, s, t in m.quiver.arrows:
        ma = m.arrow_maps[aid].entries
        na = n.arrow_maps[aid].entries
        ms, mt, ns = m.dims[s], m.dims[t], n.dims[s]
        for i in range(n.dims[t]):
            for j in range(ms):
                base = (row_off[aid] + i * ms + j) * ncols
                # F_t[i, l] contributes M_a[l, j]
                first = base + col_off[t] + i * mt
                for l in range(mt):
                    x = ma[l * ms + j]
                    if x:
                        flat[first + l] = x
                # F_s[l, j] contributes -N_a[i, l]
                first = base + col_off[s] + j
                for l in range(ns):
                    x = na[i * ns + l]
                    if x:
                        flat[first + l * ms] = (-x) % p if p else -x
    return Matrix(f, nrows, ncols, flat)


def _flatten_hom(f: Morphism) -> list:
    """The blocks of f in the coordinates of ``_hom_layout``."""
    return [x for v in f.source.quiver.vertices for x in f.blocks[v].entries]


def _unflatten_hom(m: Rep, n: Rep, vec: list) -> dict:
    col_off, _ = _hom_layout(m, n)
    blocks = {}
    for v in m.quiver.vertices:
        r, c = n.dims[v], m.dims[v]
        start = col_off[v]
        blocks[v] = Matrix(m.field, r, c, list(vec[start : start + r * c]))
    return blocks


def hom_basis(m: Rep, n: Rep) -> list[Morphism]:
    """Canonical basis of the space of morphisms M -> N."""
    from .linalg import nullspace_basis

    a = _intertwine_matrix(m, n)
    basis = []
    for vec in nullspace_basis(a):
        blocks = _unflatten_hom(m, n, vec.col(0))
        basis.append(Morphism(m, n, blocks))
    return basis


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
    coordinates agree.
    """

    def __init__(self, from_rep: Rep, to_rep: Rep):
        self.from_rep = from_rep
        self.to_rep = to_rep
        phi = _intertwine_matrix(from_rep, to_rep)
        self._nrows = phi.rows
        self._row_off = {}
        off = 0
        for aid, s, t in from_rep.quiver.arrows:
            self._row_off[aid] = off
            off += to_rep.dims[t] * from_rep.dims[s]
        reduced, pivots = rref(phi.transpose())
        self._coboundaries = RowSpace(
            from_rep.field, (reduced.row(i) for i in range(len(pivots)))
        )
        self._pivots = pivots
        pivot_set = set(pivots)
        self._free = [c for c in range(self._nrows) if c not in pivot_set]
        self.dim = len(self._free)
        self.coboundary_rank = len(pivots)

    def _flatten(self, c: ExtCocycle) -> list:
        if c.from_rep != self.from_rep or c.to_rep != self.to_rep:
            raise InvariantError("cocycle belongs to a different ext space")
        vec = [self.from_rep.field.zero] * self._nrows
        for aid, s, t in self.from_rep.quiver.arrows:
            comp = c.components[aid]
            off = self._row_off[aid]
            for idx, val in enumerate(comp.entries):
                vec[off + idx] = val
        return vec

    def _unflatten(self, vec: list) -> ExtCocycle:
        comps = {}
        for aid, s, t in self.from_rep.quiver.arrows:
            r, c = self.to_rep.dims[t], self.from_rep.dims[s]
            off = self._row_off[aid]
            comps[aid] = Matrix(self.from_rep.field, r, c, list(vec[off : off + r * c]))
        return ExtCocycle(self.from_rep, self.to_rep, comps)

    def reduce(self, c: ExtCocycle) -> list:
        """Coordinates of the class of c in the canonical cokernel basis."""
        vec = self._coboundaries.reduce(self._flatten(c))
        if any(vec[pivot] for pivot in self._pivots):
            raise InvariantError("cocycle reduction failed to clear pivots")
        return [vec[c_idx] for c_idx in self._free]

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
        return self._unflatten(vec)


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
    """Base change along f : W -> quot; also returns the map to the old middle."""
    if f.target != ses.quot:
        raise InvariantError("pullback needs a morphism into the quotient")
    from .linalg import nullspace_basis

    fld = ses.middle.field
    quiver = ses.middle.quiver
    w = f.source
    bases = {}
    for v in quiver.vertices:
        glue = hstack([ses.proj.blocks[v], f.blocks[v].neg()])
        vecs = nullspace_basis(glue)
        if vecs:
            bases[v] = hstack(vecs)
        else:
            bases[v] = Matrix.zeros(fld, glue.cols, 0)
    dims = {v: bases[v].cols for v in quiver.vertices}
    maps = {}
    for aid, s, t in quiver.arrows:
        mids = ses.middle.dims
        big_top = hstack(
            [ses.middle.arrow_maps[aid], Matrix.zeros(fld, mids[t], w.dims[s])]
        )
        big_bot = hstack(
            [Matrix.zeros(fld, w.dims[t], mids[s]), w.arrow_maps[aid]]
        )
        pushed = vstack([big_top, big_bot]).mul(bases[s])
        sol = solve(bases[t], pushed)
        if sol is None or bases[t].mul(sol) != pushed:
            raise InvariantError("fiber product is not arrow stable")
        maps[aid] = sol
    pb = Rep(quiver, fld, dims, maps)
    incl_blocks = {}
    proj_blocks = {}
    nat_blocks = {}
    for v in quiver.vertices:
        lifted = vstack(
            [ses.incl.blocks[v], Matrix.zeros(fld, w.dims[v], ses.sub.dims[v])]
        )
        sol = solve(bases[v], lifted)
        if sol is None or bases[v].mul(sol) != lifted:
            raise InvariantError("subobject does not lift into the fiber product")
        incl_blocks[v] = sol
        mid_rows = ses.middle.dims[v]
        nat_blocks[v] = bases[v].rows_at(range(mid_rows))
        proj_blocks[v] = bases[v].rows_at(range(mid_rows, bases[v].rows))
    incl = Morphism(ses.sub, pb, incl_blocks)
    proj = Morphism(pb, w, proj_blocks)
    nat = Morphism(pb, ses.middle, nat_blocks)
    return ShortExactSequence(ses.sub, pb, w, incl, proj), nat


def pullback(ses: ShortExactSequence, f: Morphism) -> ShortExactSequence:
    return pullback_with_map(ses, f)[0]


def pushout_with_map(
    ses: ShortExactSequence, g: Morphism
) -> tuple[ShortExactSequence, Morphism]:
    """Cobase change along g : sub -> W; also returns the map from the old middle."""
    if g.source != ses.sub:
        raise InvariantError("pushout needs a morphism out of the subobject")
    from .linalg import quotient_map

    fld = ses.middle.field
    quiver = ses.middle.quiver
    w = g.target
    projs = {}
    for v in quiver.vertices:
        glue = vstack([ses.incl.blocks[v], g.blocks[v].neg()])
        projs[v] = quotient_map(glue)
    dims = {v: projs[v].rows for v in quiver.vertices}
    maps = {}
    for aid, s, t in quiver.arrows:
        mids = ses.middle.dims
        big_top = hstack(
            [ses.middle.arrow_maps[aid], Matrix.zeros(fld, mids[t], w.dims[s])]
        )
        big_bot = hstack([Matrix.zeros(fld, w.dims[t], mids[s]), w.arrow_maps[aid]])
        rhs = projs[t].mul(vstack([big_top, big_bot])).transpose()
        sol = solve(projs[s].transpose(), rhs)
        if sol is None:
            raise InvariantError("pushout arrow map is not well defined")
        maps[aid] = sol.transpose()
    po = Rep(quiver, fld, dims, maps)
    incl_blocks = {}
    proj_blocks = {}
    nat_blocks = {}
    for v in quiver.vertices:
        mid_n = ses.middle.dims[v]
        w_n = w.dims[v]
        incl_blocks[v] = projs[v].mul(
            vstack([Matrix.zeros(fld, mid_n, w_n), Matrix.identity(fld, w_n)])
        )
        nat_blocks[v] = projs[v].mul(
            vstack([Matrix.identity(fld, mid_n), Matrix.zeros(fld, w_n, mid_n)])
        )
        rhs = hstack(
            [ses.proj.blocks[v], Matrix.zeros(fld, ses.quot.dims[v], w_n)]
        ).transpose()
        sol = solve(projs[v].transpose(), rhs)
        if sol is None:
            raise InvariantError("quotient map does not factor through the pushout")
        proj_blocks[v] = sol.transpose()
    incl = Morphism(w, po, incl_blocks)
    proj = Morphism(po, ses.quot, proj_blocks)
    nat = Morphism(ses.middle, po, nat_blocks)
    return ShortExactSequence(w, po, ses.quot, incl, proj), nat


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
        from .linalg import nullspace_basis

        nulls = nullspace_basis(lmat)
        t0 = particular.col(0)

        def build(coeffs):
            t = list(t0)
            for c, nv in zip(coeffs, nulls):
                for i in range(len(t)):
                    t[i] = fld.add(t[i], fld.mul(c, nv.at(i, 0)))
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
    cols = [
        _flatten_hom(compose(top.incl, b)) + _flatten_hom(compose(b, bottom.proj))
        for b in basis
    ]
    rhs = _flatten_hom(bottom.incl) + _flatten_hom(compose(top.proj, g_found))
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
