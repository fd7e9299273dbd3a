"""Byte-for-byte golden outputs: CLI ``--json`` reports, three witnesses, and
the pullbacks and pushouts of six short exact sequences.

The first 8 CLI reports and the isomorphism witness were recorded before
the trusted morphism-arithmetic path was introduced; the two
``ses_witness_*`` files (the middle map f and the quotient automorphism g
of ``ses_equivalence_witness``) before the ladder became a solve on
hom-basis coordinates; the reports of ``euler``, ``defect``, ``socle``,
``filtration``, ``membership``, ``universal`` and ``demo-kronecker`` before
the CLI became one command table; ``pullback_pushout.json`` before the
pullback and pushout were rebuilt on the direct sum.  Every subcommand has
a report here.  ``preproj-qq-10.json``, ``preproj-qq-13.json``,
``endtower-qq-20.json`` and ``uniserial-qq-30.json``, the largest QQ
reports, are not read here: CI compares the 10- and 13-level QQ
``preproj``, 20-level QQ ``endtower`` and 30-level QQ ``uniserial`` reports
with them, byte for byte.  ``preproj-qq-10.json`` and
``endtower-qq-20.json`` were recorded before ``rref`` became forward
elimination plus back-substitution, ``uniserial-qq-30.json`` before
``uniserial_check`` tested only the top quotient Y(h)/Y(j) for each j, and
``preproj-qq-13.json`` before ``is_brick``'s rank certificate eliminated
sparse rows of Phi.  The ``brick-y3`` and ``brick-twisted`` reports here
and ``brick-y12.json`` (CI compares the brick report on Y(12) of the R_0
tower with it) were recorded before the trace-form radical became one
pairing product.  ``hom-a3-twisted`` here (dim Hom 10, denominators up to
15) and ``hom-y12.json`` (CI compares the report of ``hom`` from Y(12) of
the R_0 tower to itself, dim Hom 12 on 288 unknowns, with it) were
recorded before Hom kernels were solved at the free columns only, and
``hom-y12-gf101.json`` (the same report over GF(101), compared in CI)
before ``hom_basis`` checked each basis once on integers.  The
``tower-k3`` and ``endtower-k3`` reports here, over QQ and GF(101), and
``endtower-k3-qq-6.json`` (CI compares the 6-level K3 QQ ``endtower``
report with it; Phi of Y(6) is 11,907 x 7,938) were recorded before QQ
forward elimination pivoted on the entry of least absolute value, and
``endtower-k3-qq-7.json`` (the 7-level report, compared in CI, dim End
127 at the top) before ``end_algebra`` built only the nonzero items of
its composites.  ``membership-k3-y7-qq.json`` (CI compares the
``membership`` report of Y(7) of that K3 tower, 254-dim, with it) was
recorded before one function decided every commuting square.  A
refactor or speed-up must reproduce them exactly; a
deliberate output change re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says so in the change log.
"""

import json
import os
import random
import sys

import pytest

from quiverfilt import (
    GF,
    QQ,
    Matrix,
    Morphism,
    Rep,
    check_semibrick,
    cocycle_of,
    compose,
    direct_sum,
    ext_basis,
    extension_middle,
    hom_basis,
    is_isomorphic,
    kronecker,
    linear_quiver,
    quasi_simple,
    serialize,
    ses_equivalence_witness,
    standard_module,
    tower,
    universal_sequence,
)
from quiverfilt.cli import main
from quiverfilt.homext import pullback_with_map, pushout_with_map
from quiverfilt.linalg import inverse
from quiverfilt.reps import linear_combination
from quiverfilt.towers import _assemble_universal, _universal_data

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# R_0 + R_1 on the Kronecker quiver over QQ: End has dimension 2, and the
# brick report carries an idempotent witness.
BRICK_INPUT = os.path.join(GOLDEN, "inputs", "r0_plus_r1.json")
# Level 3 of the tower over R_0 with X = {R_0} over QQ, dims (3, 3); End has
# dimension 3 and no witness, so its brick report carries the trace-form radical.
Y3_INPUT = os.path.join(GOLDEN, "inputs", "y3_r0.json")
# R_0 + R_inf + R_inf over QQ in a seeded unimodular change of basis, dims (3, 3):
# End has dimension 5, and the brick report carries a non-invertible
# non-nilpotent witness.
TWISTED_INPUT = os.path.join(GOLDEN, "inputs", "r0_rinf_rinf_twisted.json")
# The A3 rep of ``_twisted_a3_pair`` with dims (3, 2, 3) and its change of
# basis over QQ: Hom from the twisted rep to the original has dimension 10,
# with denominators up to 15 in its basis.
A3_INPUT = os.path.join(GOLDEN, "inputs", "a3_original.json")
A3_TWISTED_INPUT = os.path.join(GOLDEN, "inputs", "a3_twisted.json")

# The K3 tower over X = x11:1,0,0 to 5 levels, dims (31, 31) at the top: its
# End kernels solve Phi of up to 2,883 rows with dim End up to 31.
K3_TOWER = ["--base", "x11:1,0,0", "--semibrick", "x11:1,0,0", "--levels", "5"]

CLI_CASES = {
    "hom": ["hom", "--quiver", "k3", "--field", "f5", "--left", "p1", "--right", "p2"],
    "hom-a3-twisted": ["hom", "--left", A3_TWISTED_INPUT, "--right", A3_INPUT],
    "ext": ["ext", "--quiver", "k3", "--left", "x11:1,0,0", "--right", "x11:0,1,0"],
    "brick": ["brick", "--module", BRICK_INPUT],
    "brick-y3": ["brick", "--module", Y3_INPUT],
    "brick-twisted": ["brick", "--module", TWISTED_INPUT],
    # 2^31 - 1 divides a denominator: dim End = 1 from the exact rank over QQ
    "brick-x11-denominator": ["brick", "--quiver", "k2", "--module", "x11:1,1/2147483647"],
    "semibrick": ["semibrick", "--members", "r0", "r1", "rinf"],
    "tower": ["tower", "--base", "r1", "--semibrick", "r1", "--levels", "4"],
    "endtower": ["endtower", "--base", "r0", "--semibrick", "r0", "--levels", "4"],
    "tower-k3": ["tower", "--quiver", "k3", *K3_TOWER],
    "tower-k3-gf101": ["tower", "--quiver", "k3", "--field", "f101", *K3_TOWER],
    "tower-k3-p2-gf5": [
        "tower", "--quiver", "k3", "--field", "f5", "--base", "x11:1,0,0",
        "--semibrick", "x11:1,0,0", "x11:0,1,0", "x11:0,0,1", "--levels", "4",
    ],
    "endtower-k3": ["endtower", "--quiver", "k3", *K3_TOWER],
    "endtower-k3-gf101": ["endtower", "--quiver", "k3", "--field", "f101", *K3_TOWER],
    "uniserial": ["uniserial", "--base", "r2", "--semibrick", "r2", "--levels", "3"],
    "preproj": [
        "preproj", "--quiver", "k2", "--field", "f101", "--base", "p1",
        "--semibrick", "r0", "r1", "rinf", "--levels", "3",
    ],
    "euler": ["euler", "--quiver", "k3", "--x", "1,2", "--y", "2,1"],
    "defect": ["defect", "--quiver", "k2", "--x", "2,1"],
    "socle": ["socle", "--module", Y3_INPUT, "--semibrick", "r0", "r1"],
    "filtration": ["filtration", "--module", Y3_INPUT, "--semibrick", "r0"],
    "membership": [
        "membership", "--quiver", "k2", "--module", "s1", "--semibrick", "r0",
    ],
    "universal": [
        "universal", "--quiver", "k2", "--field", "f101", "--base", "p1",
        "--semibrick", "r0", "r1", "rinf",
    ],
    "demo-kronecker": ["demo-kronecker"],
}


def _cli_report(name, path):
    assert main(CLI_CASES[name] + ["--json", str(path)]) == 0
    with open(path, "rb") as fh:
        return fh.read()


def _twisted_a3_pair():
    """A rep on A3 with dims (3, 2, 3), dim End = 10, and a change of basis of it."""
    q = linear_quiver(3)
    maps = {
        "a1": Matrix.from_rows(QQ, [[0, -1], [1, -2], [-2, 2]]),
        "a2": Matrix.from_rows(QQ, [[-2, 0, 2], [-2, 2, -1]]),
    }
    dims = {1: 3, 2: 2, 3: 3}
    m = Rep(q, QQ, dims, maps)
    g = {
        1: Matrix.from_rows(QQ, [[1, 1, 0], [0, 1, -1], [1, 1, 1]]),
        2: Matrix.from_rows(QQ, [[2, 1], [1, 1]]),
        3: Matrix.from_rows(QQ, [[1, 0, 2], [1, 1, 0], [0, 0, 1]]),
    }
    twisted = {aid: g[t].mul(maps[aid]).mul(inverse(g[s])) for aid, s, t in q.arrows}
    return m, Rep(q, QQ, dims, twisted)


def _unimodular(rng, n):
    """An n x n integer matrix of determinant 1: 2n random elementary row operations."""
    g = Matrix.identity(QQ, n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        e = Matrix.identity(QQ, n).to_rows()
        e[i][j] = QQ.of(rng.choice([-2, -1, 1, 2]))
        g = Matrix.from_rows(QQ, e).mul(g)
    return g


def _twisted_r0_rinf_rinf():
    """R_0 + R_inf + R_inf with each vertex's basis changed by a seeded unimodular g_v."""
    r0, rinf = quasi_simple(QQ, QQ.of(0)), quasi_simple(QQ, "inf")
    m = direct_sum([r0, rinf, rinf])[0]
    rng = random.Random(2)
    g = {v: _unimodular(rng, 3) for v in m.quiver.vertices}
    maps = {aid: g[t].mul(m.arrow_maps[aid]).mul(inverse(g[s])) for aid, s, t in m.quiver.arrows}
    return Rep(m.quiver, QQ, m.dims, maps)


def _witness_text():
    iso, witness = is_isomorphic(*_twisted_a3_pair())
    assert iso
    return serialize(witness).encode()


def _rescaled_universal_pair():
    """The universal sequence over R_0 and the one realising 7 times its class."""
    r0 = quasi_simple(QQ, QQ.of(0))
    top = universal_sequence(r0, check_semibrick([r0]))
    return top, extension_middle(top.quot, r0, cocycle_of(top).scale(QQ.of(7)))


def _k3_recombined_level_pair():
    """Level Y(2) -> Y(3) of the K_3 tower over X = x11(1, 0, 0), twice.

    One copy stacks the canonical Ext basis; the other recombines each
    level's basis by a fixed invertible matrix and is transported onto the
    first along the running middle map, as in acceptance criterion 04.
    Returns the transported sequence and the canonical one.
    """
    q = kronecker(3)
    maps = {aid: Matrix.from_rows(QQ, [[c]]) for (aid, _, _), c in zip(q.arrows, (1, 0, 0))}
    x = Rep(q, QQ, {1: 1, 2: 1}, maps)
    sb = check_semibrick([x])
    phi = Morphism.identity(x)
    canonical = other = x
    for level in range(2):
        parts, cocycles = _universal_data(canonical, sb)
        ref = _assemble_universal(canonical, sb, parts, cocycles)
        parts, cocycles = _universal_data(other, sb)
        k = len(cocycles)
        mixed = [
            cocycles[i].add(cocycles[(i + 1) % k].scale(QQ.of(i + 2))) for i in range(k)
        ]
        seq = _assemble_universal(other, sb, parts, mixed)
        pushed, nat = pushout_with_map(seq, phi)
        if level == 1:
            return pushed, ref
        f, _ = ses_equivalence_witness(pushed, ref)
        phi = compose(nat, f)
        canonical, other = ref.middle, seq.middle


SES_CASES = {
    "ses_witness_rescaled_r0": _rescaled_universal_pair,
    "ses_witness_k3_level2": _k3_recombined_level_pair,
}


def _ses_witness_text(name):
    f, g = ses_equivalence_witness(*SES_CASES[name]())
    return (serialize(f) + serialize(g)).encode()


def _combo(basis):
    """The hom-basis combination with coefficients 1, 2, 3, ... (never empty here)."""
    assert basis
    field = basis[0].source.field
    return linear_combination(basis, [field.of(i + 1) for i in range(len(basis))])


def _pullback_pushout_cases():
    """Per case (ses, f, g): f : W -> quot for the pullback, g : sub -> W for the pushout."""
    r0 = quasi_simple(QQ, QQ.of(0))
    r1 = quasi_simple(QQ, QQ.of(1))
    universal = universal_sequence(r0, check_semibrick([r0]))
    q = kronecker(3)
    maps = {aid: Matrix.from_rows(QQ, [[c]]) for (aid, _, _), c in zip(q.arrows, (1, 0, 0))}
    x = Rep(q, QQ, {1: 1, 2: 1}, maps)
    level = tower(x, check_semibrick([x]), 3).sequences[1]  # Y(2) -> Y(3)
    cases = {
        "k2_r0_universal_qq": (
            universal,
            _combo(hom_basis(universal.middle, universal.quot)),
            _combo(hom_basis(universal.sub, universal.middle)),
        ),
        "k3_x11_level2_qq": (
            level,
            _combo(hom_basis(x, level.quot)),
            _combo(hom_basis(level.sub, level.sub)),
        ),
        "k2_r0_zero_maps_qq": (
            universal,
            Morphism.zero(r1, universal.quot),
            Morphism.zero(universal.sub, r1),
        ),
    }
    w_pull = direct_sum([r0, r1])[0]
    w_push = direct_sum([r0, universal.middle])[0]
    cases["k2_r0_direct_sum_w_qq"] = (
        universal,
        _combo(hom_basis(w_pull, universal.quot)),
        _combo(hom_basis(universal.sub, w_push)),
    )
    a3 = linear_quiver(3)
    for field in (GF(2), GF(101)):
        i2 = standard_module(a3, field, "injective", 2)
        p2 = standard_module(a3, field, "projective", 2)
        ses = extension_middle(i2, p2, ext_basis(i2, p2)[0][0])
        cases[f"a3_i2_by_p2_gf{field.characteristic}"] = (
            ses,
            _combo(hom_basis(standard_module(a3, field, "projective", 3), i2)),
            _combo(hom_basis(p2, standard_module(a3, field, "injective", 1))),
        )
    return cases


def _pullback_pushout_text():
    """Middle, incl, proj and comparison map of every pullback and pushout."""
    out = {}
    for name, (ses, f, g) in _pullback_pushout_cases().items():
        out[name] = {}
        for kind, (seq, nat) in (
            ("pullback", pullback_with_map(ses, f)),
            ("pushout", pushout_with_map(ses, g)),
        ):
            parts = {"middle": seq.middle, "incl": seq.incl, "proj": seq.proj, "map": nat}
            out[name][kind] = {key: json.loads(serialize(x)) for key, x in parts.items()}
    return (json.dumps(out, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_json_report_matches_golden(name, tmp_path, capsys):
    got = _cli_report(name, tmp_path / f"{name}.json")
    capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert got == fh.read()


def test_is_isomorphic_witness_matches_golden():
    with open(os.path.join(GOLDEN, "is_isomorphic_a3_witness.json"), "rb") as fh:
        assert _witness_text() == fh.read()


@pytest.mark.parametrize("name", sorted(SES_CASES))
def test_ses_equivalence_witness_matches_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert _ses_witness_text(name) == fh.read()


def test_pullback_pushout_match_golden():
    with open(os.path.join(GOLDEN, "pullback_pushout.json"), "rb") as fh:
        assert _pullback_pushout_text() == fh.read()


def _record():
    from quiverfilt import save

    os.makedirs(os.path.dirname(BRICK_INPUT), exist_ok=True)
    save(direct_sum([quasi_simple(QQ, QQ.of(0)), quasi_simple(QQ, QQ.of(1))])[0], BRICK_INPUT)
    r0 = quasi_simple(QQ, QQ.of(0))
    save(tower(r0, check_semibrick([r0]), 3).levels[-1], Y3_INPUT)
    save(_twisted_r0_rinf_rinf(), TWISTED_INPUT)
    for rep, path in zip(_twisted_a3_pair(), (A3_INPUT, A3_TWISTED_INPUT)):
        save(rep, path)
    for name in CLI_CASES:
        _cli_report(name, os.path.join(GOLDEN, f"{name}.json"))
    with open(os.path.join(GOLDEN, "is_isomorphic_a3_witness.json"), "wb") as fh:
        fh.write(_witness_text())
    for name in SES_CASES:
        with open(os.path.join(GOLDEN, f"{name}.json"), "wb") as fh:
            fh.write(_ses_witness_text(name))
    with open(os.path.join(GOLDEN, "pullback_pushout.json"), "wb") as fh:
        fh.write(_pullback_pushout_text())


if __name__ == "__main__":
    sys.exit(_record())
