"""Finite acyclic quivers, the Euler form, and numerical type diagnostics.

A quiver is given by an ordered vertex tuple and an ordered arrow tuple;
both orders are part of the data and fix the row/column layouts used by the
linear-algebra routines elsewhere, as well as serialization order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantError
from .linalg import Matrix, QQ, _integer_multiple, _primitive, nullspace_basis

DimVector = dict  # vertex id -> nonnegative int


class Quiver:
    """Immutable finite quiver with no directed cycles.

    Arrows are triples ``(arrow_id, source, target)``.  Vertex and arrow
    identifiers must be distinct strings or ints; identifier sets may not
    overlap between loops of use but arrow ids and vertex ids live in
    separate namespaces.
    """

    __slots__ = ("name", "vertices", "arrows", "_arrow_index", "_vertex_index")

    def __init__(self, vertices, arrows, name: str = ""):
        vertices = tuple(vertices)
        arrows = tuple((a[0], a[1], a[2]) for a in arrows)
        if len(set(vertices)) != len(vertices):
            raise InvariantError("duplicate vertex ids")
        arrow_ids = [a[0] for a in arrows]
        if len(set(arrow_ids)) != len(arrow_ids):
            raise InvariantError("duplicate arrow ids")
        vset = set(vertices)
        for aid, s, t in arrows:
            if s not in vset or t not in vset:
                raise InvariantError(f"arrow {aid!r} has undeclared endpoint")
        self.name = name
        self.vertices = vertices
        self.arrows = arrows
        self._vertex_index = {v: i for i, v in enumerate(vertices)}
        self._arrow_index = {a[0]: a for a in arrows}
        self._check_acyclic()

    def _check_acyclic(self):
        # Kahn's algorithm; leftovers mean a directed cycle.
        indeg = {v: 0 for v in self.vertices}
        for _, _, t in self.arrows:
            indeg[t] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for _, s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
        if seen != len(self.vertices):
            raise InvariantError("quiver has a directed cycle")

    # -- structure ---------------------------------------------------------

    def arrow(self, arrow_id):
        try:
            return self._arrow_index[arrow_id]
        except KeyError:
            raise InvariantError(f"unknown arrow id {arrow_id!r}") from None

    def source(self, arrow_id):
        return self.arrow(arrow_id)[1]

    def target(self, arrow_id):
        return self.arrow(arrow_id)[2]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for _, s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        stack = [self.vertices[0]]
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return len(seen) == len(self.vertices)

    def paths_from(self, v) -> dict:
        """All directed paths out of v, keyed by endpoint.

        A path is a tuple of arrow ids, read left to right; the empty tuple
        is the lazy path at v.  Finite because the quiver is acyclic.
        """
        if v not in self._vertex_index:
            raise InvariantError(f"unknown vertex {v!r}")
        out: dict = {w: [] for w in self.vertices}
        stack = [(v, ())]
        while stack:
            w, path = stack.pop()
            out[w].append(path)
            for aid, s, t in self.arrows:
                if s == w:
                    stack.append((t, path + (aid,)))
        for w in out:
            out[w].sort()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        label = self.name or f"{len(self.vertices)} vertices, {len(self.arrows)} arrows"
        return f"Quiver({label})"


def linear_quiver(n: int) -> Quiver:
    """The linear quiver on vertices 1..n with arrows i+1 -> i (sink at 1)."""
    if not isinstance(n, int) or n < 1:
        raise InvariantError("linear quiver needs at least one vertex")
    arrows = [(f"a{i}", i + 1, i) for i in range(1, n)]
    return Quiver(tuple(range(1, n + 1)), arrows, name=f"A_{n}")


def check_dim_vector(q: Quiver, x: DimVector):
    if set(x) != set(q.vertices):
        raise InvariantError("dimension vector does not match vertex set")
    for v, n in x.items():
        if not isinstance(n, int) or n < 0:
            raise InvariantError(f"dimension at vertex {v!r} must be a nonnegative int")


def euler_form(q: Quiver, x: DimVector, y: DimVector) -> int:
    """<x, y> = sum_v x_v y_v - sum_a x_{source(a)} y_{target(a)}."""
    check_dim_vector(q, x)
    check_dim_vector(q, y)
    total = sum(x[v] * y[v] for v in q.vertices)
    for _, s, t in q.arrows:
        total -= x[s] * y[t]
    return total


def symmetrized_euler_matrix(q: Quiver) -> Matrix:
    """Matrix of (x, y) = <x, y> + <y, x> in the vertex order, over QQ."""
    n = len(q.vertices)
    idx = {v: i for i, v in enumerate(q.vertices)}
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for _, s, t in q.arrows:
        rows[idx[s]][idx[t]] -= 1
        rows[idx[t]][idx[s]] -= 1
    return Matrix.from_rows(QQ, rows)


def _form_signature(b: Matrix) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of a symmetric rational matrix.

    Congruence diagonalization: clear each nonzero diagonal entry against its
    row and column; when the whole diagonal is zero but some off-diagonal
    entry b_ij is not, add row/column j into i to expose a nonzero diagonal
    entry (valid in characteristic 0).
    """
    n = b.rows
    work = [list(b.row(i)) for i in range(n)]
    pos = neg = zero = 0
    remaining = list(range(n))
    while remaining:
        k = None
        for i in remaining:
            if work[i][i] != 0:
                k = i
                break
        if k is None:
            ij = None
            for i in remaining:
                for j in remaining:
                    if i != j and work[i][j] != 0:
                        ij = (i, j)
                        break
                if ij:
                    break
            if ij is None:
                zero += len(remaining)
                break
            i, j = ij
            for c in range(n):
                work[i][c] += work[j][c]
            for r in range(n):
                work[r][i] += work[r][j]
            k = i
        d = work[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        remaining.remove(k)
        for i in remaining:
            factor = Fraction(work[i][k], d)
            if factor:
                for c in range(n):
                    work[i][c] -= factor * work[k][c]
                for r in range(n):
                    work[r][i] -= factor * work[r][k]
    return pos, neg, zero


def representation_type(q: Quiver) -> str:
    """Trichotomy by the symmetrized Euler form: finite, tame, or wild.

    Positive definite gives finite type, positive semidefinite with a
    nontrivial radical gives tame, anything with a negative direction is
    wild.  Requires a connected quiver; the trichotomy reads componentwise
    otherwise and a mixed answer would be misleading.
    """
    if not q.is_connected():
        raise InvariantError("representation type requires a connected quiver")
    pos, negs, zeros = _form_signature(symmetrized_euler_matrix(q))
    if negs > 0:
        return "wild"
    if zeros == 0:
        return "finite"
    return "tame"


def radical_vector(q: Quiver) -> DimVector | None:
    """Primitive positive generator of the radical of the symmetrized form.

    Returns None unless the form is positive semidefinite with a
    one-dimensional radical spanned by a strictly positive vector.
    """
    b = symmetrized_euler_matrix(q)
    pos, negs, zeros = _form_signature(b)
    if negs > 0 or zeros != 1:
        return None
    kernel = nullspace_basis(b)
    if len(kernel) != 1:
        return None
    ints = _primitive(_integer_multiple(kernel[0].col(0))[0])
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        return None
    return {v: ints[i] for i, v in enumerate(q.vertices)}


def defect(q: Quiver, x: DimVector) -> int:
    """Normalized defect <x, h> up to sign and scale, for tame quivers.

    h is the primitive radical vector.  The raw pairing <dim P(v), h> equals
    the value of h at v for every vertex, so dividing by the gcd of those
    values and negating makes every projective defect negative and puts -1
    in the image.  Integrality of the result is asserted.
    """
    check_dim_vector(q, x)
    h = radical_vector(q)
    if h is None:
        raise InvariantError("defect needs a tame quiver with one-dimensional radical")
    proj_pairings = []
    for v in q.vertices:
        paths = q.paths_from(v)
        dim_p = {w: len(paths[w]) for w in q.vertices}
        proj_pairings.append(euler_form(q, dim_p, h))
    g = 0
    for val in proj_pairings:
        g = gcd(g, abs(val))
    if g == 0:
        raise InvariantError("degenerate radical pairing")
    if any(val > 0 for val in proj_pairings) and any(val < 0 for val in proj_pairings):
        raise InvariantError("radical pairing changes sign on projectives")
    sign = 1 if all(val >= 0 for val in proj_pairings) else -1
    raw = euler_form(q, x, h)
    num = -sign * raw
    if num % g != 0:
        raise InvariantError("defect normalization failed to produce an integer")
    return num // g
