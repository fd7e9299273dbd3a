"""Socles relative to a semi-brick, socle filtrations, and membership testing.

The membership test is a socle-tower test: repeatedly quotient by the
relative socle and pull the chain back.  Acceptance always carries a
filtration witness whose inclusions and layer isomorphisms can be re-checked
without rerunning the construction logic; stalls (a nonzero quotient with
zero socle) are refusals, reported with per-member Hom dimensions into the
offending quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bricks import SemiBrickCert
from .errors import InvariantError
from .homext import hom_basis
from .linalg import Matrix, hstack, quotient_map_free, rank
from .reps import (
    Morphism,
    Rep,
    SubrepInclusion,
    _kernel_of_blocks,
    cokernel,
    compose,
    direct_sum,
    factor_through_inclusion,
    image,
    subrep_from_spans,
)


def _require_cert(sb):
    if not isinstance(sb, SemiBrickCert):
        raise InvariantError("a certified semi-brick is required")


def x_socle(m: Rep, sb: SemiBrickCert) -> SubrepInclusion:
    """Sum of the images of every morphism from a member into m."""
    _require_cert(sb)
    if m.quiver != sb.quiver or m.field != sb.field:
        raise InvariantError("module and semi-brick disagree on quiver or field")
    spans = {}
    blocks_per_vertex = {v: [] for v in m.quiver.vertices}
    for member in sb.members:
        for f in hom_basis(member, m):
            for v in m.quiver.vertices:
                blocks_per_vertex[v].append(f.blocks[v])
    for v in m.quiver.vertices:
        cols = [b for b in blocks_per_vertex[v] if b.cols > 0]
        if cols:
            spans[v] = hstack(cols)
        else:
            spans[v] = Matrix.zeros(m.field, m.dims[v], 0)
    return subrep_from_spans(m, spans)


@dataclass(frozen=True)
class SemisimpleDecomposition:
    ok: bool
    multiplicities: list
    witness: Morphism | None
    sum_rep: Rep | None
    diagnostics: dict | None


def decompose_semisimple(l: Rep, sb: SemiBrickCert) -> SemisimpleDecomposition:
    """Try to present l as a direct sum of members via assembled Hom bases.

    The candidate multiplicity of each member is dim Hom(member, l); the
    assembled map stacks all those basis morphisms.  Success means the
    assembled map is an isomorphism, and the witness is that isomorphism.
    """
    _require_cert(sb)
    bases = [hom_basis(member, l) for member in sb.members]
    mults = [len(b) for b in bases]
    if sum(mults) == 0:
        if l.dim_total == 0:
            zero = Rep.zero(l.quiver, l.field)
            return SemisimpleDecomposition(
                True, mults, Morphism.zero(zero, l), zero, None
            )
        return SemisimpleDecomposition(
            False,
            mults,
            None,
            None,
            {"reason": "no morphisms from any member", "target_dims": l.dim_vector()},
        )
    parts = []
    morphs = []
    for member, basis in zip(sb.members, bases):
        for f in basis:
            parts.append(member)
            morphs.append(f)
    total, _, _ = direct_sum(parts)
    blocks = {}
    for v in l.quiver.vertices:
        cols = [f.blocks[v] for f in morphs]
        blocks[v] = hstack(cols) if cols else Matrix.zeros(l.field, l.dims[v], 0)
    witness = Morphism(total, l, blocks)
    if witness.is_isomorphism():
        return SemisimpleDecomposition(True, mults, witness, total, None)
    diagnostics = {
        "reason": "assembled map is not an isomorphism",
        "source_dims": total.dim_vector(),
        "target_dims": l.dim_vector(),
        "vertex_ranks": {v: rank(witness.blocks[v]) for v in l.quiver.vertices},
    }
    return SemisimpleDecomposition(False, mults, None, None, diagnostics)


@dataclass(frozen=True)
class Filtration:
    ambient: Rep
    chain: list  # SubrepInclusion, strictly increasing, chain[0] = 0, last = ambient
    layers: list  # SemisimpleDecomposition per step
    layer_reps: list  # the subquotient representation each layer decomposes


@dataclass(frozen=True)
class FiltrationResult:
    ok: bool
    filtration: Filtration | None
    steps_completed: int
    diagnostics: dict | None


def _zero_inclusion(m: Rep) -> SubrepInclusion:
    zero = Rep.zero(m.quiver, m.field)
    return SubrepInclusion(zero, m, Morphism.zero(zero, m))


def x_socle_filtration(m: Rep, sb: SemiBrickCert) -> FiltrationResult:
    """Iterate socle-of-quotient pullbacks until the chain reaches m or stalls."""
    _require_cert(sb)
    chain = [_zero_inclusion(m)]
    layers = []
    layer_reps = []
    for _ in range(m.dim_total + 1):
        current = chain[-1]
        quot, proj = cokernel(current.inclusion)
        if quot.dim_total == 0:
            filt = Filtration(m, chain, layers, layer_reps)
            return FiltrationResult(True, filt, len(layers), None)
        soc = x_socle(quot, sb)
        if soc.sub.dim_total == 0:
            return FiltrationResult(
                False,
                None,
                len(layers),
                {
                    "reason": "socle of quotient is zero but quotient is nonzero",
                    "quotient_dims": quot.dim_vector(),
                    "hom_dims_into_quotient": [
                        len(hom_basis(member, quot)) for member in sb.members
                    ],
                },
            )
        dec = decompose_semisimple(soc.sub, sb)
        if not dec.ok:
            return FiltrationResult(
                False,
                None,
                len(layers),
                {
                    "reason": "socle layer does not decompose over the members",
                    "layer_dims": soc.sub.dim_vector(),
                    "layer_diagnostics": dec.diagnostics,
                },
            )
        # Y(k+1) is the kernel of m -> m/Y(k) -> (m/Y(k))/socle: only the
        # second projection's blocks are needed, not that quotient's rep.
        qs = {v: quotient_map_free(b)[0] for v, b in soc.inclusion.blocks.items()}
        chain.append(_kernel_of_blocks(m, {v: qs[v].mul(proj.blocks[v]) for v in qs}))
        layers.append(dec)
        layer_reps.append(soc.sub)
    raise InvariantError("socle filtration failed to terminate")


def verify_filtration(filt: Filtration, sb: SemiBrickCert) -> bool:
    """Re-check a filtration witness without rerunning the search.

    Verifies: every chain step is a subobject of the ambient object, the
    chain starts at zero and ends at the ambient object, each inclusion
    factors through the next with strictly growing dimension, each recorded
    layer equals the image of the next chain step in the quotient by the
    current one, and each layer witness is an isomorphism onto the layer from
    the direct sum of the members at the stated multiplicities.
    """
    try:
        chain = filt.chain
        if any(step.ambient != filt.ambient for step in chain):
            return False
        if chain[0].sub.dim_total != 0:
            return False
        last = chain[-1]
        if last.sub != filt.ambient and not last.inclusion.is_isomorphism():
            return False
        if len(filt.layers) != len(chain) - 1:
            return False
        for i in range(len(chain) - 1):
            lower, upper = chain[i], chain[i + 1]
            if lower.sub.dim_total >= upper.sub.dim_total:
                return False
            factor_through_inclusion(lower.inclusion, upper)
            quot, proj = cokernel(lower.inclusion)
            img = image(compose(upper.inclusion, proj))
            if img.sub != filt.layer_reps[i]:
                return False
            dec = filt.layers[i]
            if not dec.ok or dec.witness is None:
                return False
            if dec.witness.target != filt.layer_reps[i]:
                return False
            if not dec.witness.is_isomorphism():
                return False
            expected_mults = [
                len(hom_basis(member, filt.layer_reps[i])) for member in sb.members
            ]
            if dec.multiplicities != expected_mults:
                return False
            parts = [
                member
                for member, mult in zip(sb.members, expected_mults)
                for _ in range(mult)
            ]
            source = direct_sum(parts)[0] if parts else Rep.zero(sb.quiver, sb.field)
            if dec.witness.source != source:
                return False
        return True
    except InvariantError:
        return False


def filt_membership(m: Rep, sb: SemiBrickCert) -> FiltrationResult:
    """Decide filtered-module membership by the socle-tower test.

    A positive answer re-verifies its own witness before returning, so the
    result does not depend on trusting the construction path.
    """
    result = x_socle_filtration(m, sb)
    if result.ok:
        if not verify_filtration(result.filtration, sb):
            raise InvariantError("constructed filtration failed its own recheck")
    return result
