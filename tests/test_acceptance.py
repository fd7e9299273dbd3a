"""End-to-end acceptance gate.

Twelve numbered criteria, one per test, run in order; each prints a single
``criterion NN [PASS|FAIL]`` line (visible with ``pytest -s``).  Arithmetic
is exact, so every comparison below is an equality with zero tolerance.
Randomized sweeps use fixed seeds so reruns are reproducible.
"""

import contextlib
import io
import json
import random

from quiverfilt import (
    GF,
    QQ,
    Morphism,
    Rep,
    check_semibrick,
    end_algebra,
    end_ring_tower,
    ext_basis,
    filt_membership,
    hom_basis,
    is_brick,
    is_universal,
    kronecker,
    preprojective_tower_report,
    quasi_simple,
    standard_module,
    tower,
    universal_sequence,
    x_socle_filtration,
)
from quiverfilt.cli import main as cli_main
from quiverfilt.homext import (
    ExtCocycle,
    ExtSpace,
    extension_middle,
    is_split,
    pushout,
    pushout_with_map,
    ses_equivalence_witness,
)
from quiverfilt.linalg import Matrix, hstack, is_invertible
from quiverfilt.quivers import euler_form, linear_quiver
from quiverfilt.reps import (
    SubrepInclusion,
    cokernel,
    compose,
    direct_sum,
    factor_through_inclusion,
    image,
    kernel,
    linear_combination,
)
from quiverfilt.towers import Tower, _assemble_universal, _universal_data

from conftest import columns_contained

K2 = kronecker(2)
K3 = kronecker(3)
K4 = kronecker(4)
A3 = linear_quiver(3)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _x11(quiver, field, scalars):
    maps = {
        arrow[0]: Matrix.from_rows(field, [[field.of(c)]])
        for arrow, c in zip(quiver.arrows, scalars)
    }
    return Rep(quiver, field, {1: 1, 2: 1}, maps)


def _wild_x():
    return _x11(K3, QQ, [1, 0, 0])


def _random_rep(rng, quiver, field, maxdim=6):
    dims = {v: rng.randint(0, maxdim) for v in quiver.vertices}
    maps = {}
    for aid, s, t in quiver.arrows:
        entries = [field.of(rng.randint(-4, 4)) for _ in range(dims[t] * dims[s])]
        maps[aid] = Matrix(field, dims[t], dims[s], entries)
    return Rep(quiver, field, dims, maps)


# ---------------------------------------------------------------------------


def test_criterion_01_euler_identity():
    rng = random.Random(20260825)
    pairs = 0
    for quiver in (K2, K3, A3):
        for field in (QQ, GF(5)):
            for _ in range(36):
                m = _random_rep(rng, quiver, field)
                n = _random_rep(rng, quiver, field)
                lhs = len(hom_basis(m, n)) - len(ext_basis(m, n)[0])
                rhs = euler_form(quiver, m.dim_vector(), n.dim_vector())
                assert lhs == rhs, (quiver.name, field, m.dims, n.dims)
                pairs += 1
    _verdict(
        1,
        pairs >= 200,
        f"dim Hom - dim Ext = <x, y> on {pairs} random pairs "
        "over K_2, K_3, A_3, both fields",
    )


def test_criterion_02_kr_brick_family():
    ok = True
    for quiver, r in ((K3, 3), (K4, 4)):
        family = [
            _x11(quiver, QQ, [lam**j for j in range(r)]) for lam in range(5)
        ]
        ok = ok and all(is_brick(m).status == "certified_brick" for m in family)
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                e = len(ext_basis(a, b)[0])
                ok = ok and e == (r - 1 if i == j else r - 2)
                if i != j:
                    ok = ok and len(hom_basis(a, b)) == 0
    _verdict(
        2,
        ok,
        "K_3/K_4 scalar families (1, lam, ...): certified bricks, "
        "Ext(X,X) = r-1, Ext(X,Y) = r-2, Hom(X,Y) = 0",
    )


def test_criterion_03_universal_sequence_law():
    r0 = quasi_simple(QQ, QQ.of(0))
    r1 = quasi_simple(QQ, QQ.of(1))
    rinf = quasi_simple(QQ, "inf")
    x = _wild_x()
    cases = [
        (r0, check_semibrick([r0])),
        (r0, check_semibrick([r0, r1, rinf])),
        (x, check_semibrick([x])),
    ]
    ok = True
    for base, sb in cases:
        ses = universal_sequence(base, sb)
        report = is_universal(ses, sb)
        ok = ok and report.ok
        ok = ok and all(e["square"] and e["invertible"] for e in report.per_member)
        split = extension_middle(ses.quot, base, ExtCocycle.zero(ses.quot, base))
        if any(e["ext_dim"] > 0 for e in report.per_member):
            ok = ok and not is_universal(split, sb).ok
    _verdict(
        3,
        ok,
        "is_universal: square invertible connecting maps on all three "
        "universal sequences, false on split with Ext != 0",
    )


def _random_invertible(field, n, rng):
    if n == 0:
        return Matrix.identity(field, 0)
    while True:
        m = Matrix(field, n, n, [field.of(rng.randint(-3, 3)) for _ in range(n * n)])
        if is_invertible(m):
            return m


def _randomized_tower(base, sb, r, rng):
    """Tower whose Ext-basis at each level is a random invertible recombination."""
    levels = [base]
    sequences = []
    current = base
    while len(levels) < r:
        parts, cocycles = _universal_data(current, sb)
        mults = [sum(p is member for p in parts) for member in sb.members]
        recombined = []
        idx = 0
        for member, k in zip(sb.members, mults):
            block = cocycles[idx : idx + k]
            idx += k
            change = _random_invertible(current.field, k, rng)
            for i in range(k):
                combo = ExtCocycle.zero(member, current)
                for j in range(k):
                    combo = combo.add(block[j].scale(change.at(i, j)))
                recombined.append(combo)
        ses = _assemble_universal(current, sb, parts, recombined)
        assert is_universal(ses, sb).ok
        sequences.append(ses)
        current = ses.middle
        levels.append(current)
    return Tower(base, sb, levels, sequences)


def _towers_equivalent(t1, t2):
    """Transport t2 level by level onto t1 and compare the sequences.

    The running map phi : t2.Y(i) -> t1.Y(i) starts as the identity on the
    shared base; pushing t2's level sequence out along phi gives a sequence
    with the same ends as t1's, and the equivalence witness extends phi to
    the next level.
    """
    phi = Morphism.identity(t1.levels[0])
    for e1, e2 in zip(t1.sequences, t2.sequences):
        pushed, nat = pushout_with_map(e2, phi)
        assert pushed.quot == e1.quot
        witness = ses_equivalence_witness(pushed, e1)
        if witness is None:
            return False
        phi = compose(nat, witness[0])
        assert phi.is_isomorphism()
    return True


def test_criterion_04_tower_uniqueness():
    rng = random.Random(4096)
    ok = True
    for base, sb, r in (
        (quasi_simple(QQ, QQ.of(0)), None, 4),
        (_wild_x(), None, 3),
    ):
        sb = check_semibrick([base])
        ta = _randomized_tower(base, sb, r, rng)
        tb = _randomized_tower(base, sb, r, rng)
        reference = tower(base, sb, r)
        ok = ok and _towers_equivalent(ta, tb)
        ok = ok and _towers_equivalent(reference, ta)
    _verdict(
        4,
        ok,
        "independently randomized Ext-basis towers are ses_equivalent at "
        "every level (K_2 r=4, K_3 r=3)",
    )


def _chains_match(tw):
    """Socle filtration of the top level equals the tower chain as subspaces."""
    filt = x_socle_filtration(tw.levels[-1], tw.semibrick)
    if not filt.ok or len(filt.filtration.chain) != tw.height + 1:
        return False
    for i in range(1, tw.height + 1):
        incl = tw.inclusion(i, tw.height)
        chain_incl = filt.filtration.chain[i].inclusion
        for v in tw.base.quiver.vertices:
            a, b = incl.blocks[v], chain_incl.blocks[v]
            if not (columns_contained(a, b) and columns_contained(b, a)):
                return False
    return True


def test_criterion_05_socle_tower_is_pruefer_tower():
    r0 = quasi_simple(QQ, QQ.of(0))
    sb2 = check_semibrick([r0])
    t2 = tower(r0, sb2, 4)
    x = _wild_x()
    sb3 = check_semibrick([x])
    t3 = tower(x, sb3, 3)

    def dims(tw):
        return [tuple(l.dims[v] for v in tw.base.quiver.vertices) for l in tw.levels]

    ok = _chains_match(t2) and dims(t2) == [(1, 1), (2, 2), (3, 3), (4, 4)]
    # over K_3 the level recursion is dim Y(i+1) = dim Y(i) + dim Ext(X, Y(i)),
    # and the Ext dimension doubles (2 then 4): (1,1), (3,3), (7,7)
    ok = ok and _chains_match(t3) and dims(t3) == [(1, 1), (3, 3), (7, 7)]
    _verdict(
        5,
        ok,
        "x_socle_filtration(Y(r)) = tower chain; K_2 dims (1,1)..(4,4), "
        "K_3 dims (1,1),(3,3),(7,7)",
    )


def _standard_towers():
    r0 = quasi_simple(QQ, QQ.of(0))
    r1 = quasi_simple(QQ, QQ.of(1))
    rinf = quasi_simple(QQ, "inf")
    x = _wild_x()
    return [
        tower(r0, check_semibrick([r0]), 4),
        tower(r0, check_semibrick([r0, r1, rinf]), 3),
        tower(x, check_semibrick([x]), 3),
    ]


def test_criterion_06_hom_property():
    checked = 0
    ok = True
    for tw in _standard_towers():
        si = SubrepInclusion(tw.levels[0], tw.levels[-1], tw.inclusion(1, tw.height))
        for member in tw.semibrick.members:
            for f in hom_basis(member, tw.levels[-1]):
                g = factor_through_inclusion(f, si)
                ok = ok and compose(g, si.inclusion) == f
                checked += 1
    _verdict(
        6,
        ok and checked > 0,
        f"all {checked} hom_basis(X, Y(r)) elements land inside Y(1), "
        "all three towers",
    )


def test_criterion_07_end_ring_tower():
    r0 = quasi_simple(QQ, QQ.of(0))
    t2 = tower(r0, check_semibrick([r0]), 4)
    et2 = end_ring_tower(t2)
    ok = et2.ok and et2.end_dims == (1, 2, 3, 4)
    for report in et2.level_reports:
        ok = ok and report["ideal_nilpotent"] and report["ideal_two_sided"]
        ok = ok and report["residue_dim"] == 1
    for report in et2.level_reports[:-1]:
        ok = ok and report["psi_surjective"] and report["psi_unital"]
    x = _wild_x()
    t3 = tower(x, check_semibrick([x]), 2)
    et3 = end_ring_tower(t3)
    top = et3.level_reports[-1]
    ok = ok and et3.ok and top["local_evidence"] and top["residue_dim"] == 1
    _verdict(
        7,
        ok,
        "K_2 r=4 End dims (1,2,3,4), Psi surjective unital, nilpotent ideal "
        "with 1-dim residue; K_3 r=2 End local",
    )


def _random_filt_module(rng, sb, steps):
    members = sb.members
    field = members[0].field
    m = members[rng.randrange(len(members))]
    for _ in range(steps):
        x = members[rng.randrange(len(members))]
        classes, _ = ext_basis(x, m)
        if classes and rng.random() < 0.8:
            c = ExtCocycle.zero(x, m)
            for e in classes:
                c = c.add(e.scale(field.of(rng.randint(-2, 2))))
            m = extension_middle(x, m, c).middle
        else:
            m = direct_sum([m, x])[0]
    return m


def test_criterion_08_wide_closure():
    rng = random.Random(424242)
    r0 = quasi_simple(QQ, QQ.of(0))
    r1 = quasi_simple(QQ, QQ.of(1))
    settings = [check_semibrick([r0, r1]), check_semibrick([_wild_x()])]
    morphisms = 0
    for sb in settings:
        for _ in range(50):
            src = _random_filt_module(rng, sb, rng.randint(1, 3))
            tgt = _random_filt_module(rng, sb, rng.randint(1, 3))
            basis = hom_basis(src, tgt)
            if basis:
                coeffs = [QQ.of(rng.randint(-3, 3)) for _ in basis]
                f = linear_combination(basis, coeffs)
            else:
                f = Morphism.zero(src, tgt)
            assert filt_membership(kernel(f).sub, sb).ok
            assert filt_membership(image(f).sub, sb).ok
            assert filt_membership(cokernel(f)[0], sb).ok
            morphisms += 1
    _verdict(
        8,
        morphisms >= 100,
        f"kernel, image, cokernel of {morphisms} random morphisms all "
        "certified inside the filtration closure",
    )


def test_criterion_09_ext_classes_die_one_level_up():
    checked = 0
    ok = True
    for tw in _standard_towers():
        for i, seq in enumerate(tw.sequences):
            for member in tw.semibrick.members:
                for c in ExtSpace(member, tw.levels[i]).basis():
                    ses = extension_middle(member, tw.levels[i], c)
                    ok = ok and is_split(pushout(ses, seq.incl))
                    checked += 1
    _verdict(
        9,
        ok and checked > 0,
        f"all {checked} Ext(X, Y(i)) basis classes split after pushout "
        "into Y(i+1)",
    )


def test_criterion_10_defect_tower():
    p1 = standard_module(K2, QQ, "projective", 1)
    r0 = quasi_simple(QQ, QQ.of(0))
    r1 = quasi_simple(QQ, QQ.of(1))
    rinf = quasi_simple(QQ, "inf")
    ok = True
    for members in ([r0], [r0, r1], [r0, r1, rinf]):
        report = preprojective_tower_report(p1, check_semibrick(members), 4)
        ok = ok and report.ok and report.levels == 4
        ok = ok and all(d == -1 for d in report.level_defects)
        ok = ok and all(report.level_socle_zero)
        ok = ok and all(s == "certified_brick" for s in report.level_brick_status)
        ok = ok and all(
            end_algebra(level).dimension == 1 for level in report.tower.levels
        )
    _verdict(
        10,
        ok,
        "P(1) towers over {R_0}, {R_0,R_1}, {R_0,R_1,R_inf}, r=4: every "
        "level has defect -1, zero socle, dim End = 1",
    )


def test_criterion_11_steinitz_exchange():
    rng = random.Random(777)
    r0 = quasi_simple(QQ, QQ.of(0))
    ambient, injections, _ = direct_sum([r0, r0, r0])
    trials = 0
    ok = True
    for _ in range(20):
        a = QQ.of(rng.randint(-3, 3))
        b = QQ.of(rng.randint(-3, 3))
        c = QQ.of(rng.choice([n for n in range(-3, 4) if n]))
        col = Matrix(QQ, 3, 1, [a, b, c])
        si = image(Morphism(r0, ambient, {1: col, 2: col}))
        ok = ok and si.sub.dim_vector() == r0.dim_vector()
        blocks = {
            v: hstack(
                [
                    injections[0].blocks[v],
                    injections[1].blocks[v],
                    si.inclusion.blocks[v],
                ]
            )
            for v in K2.vertices
        }
        exchanged = Morphism(direct_sum([r0, r0, si.sub])[0], ambient, blocks)
        ok = ok and exchanged.is_isomorphism()
        trials += 1
    _verdict(
        11,
        ok and trials == 20,
        "exchanging the last summand of R_0^3 for each of 20 random "
        "member-isomorphic subreps gives an isomorphism",
    )


def test_criterion_12_cli_determinism(tmp_path):
    commands = {
        "brick_family": [
            "semibrick",
            "--quiver",
            "k4",
            "--members",
            "x11:1,0,0,0",
            "x11:1,1,1,1",
            "x11:1,2,4,8",
            "x11:1,3,9,27",
            "x11:1,4,16,64",
        ],
        "socle_tower": [
            "tower",
            "--quiver",
            "k2",
            "--base",
            "r0",
            "--semibrick",
            "r0",
            "--levels",
            "4",
        ],
        "defect_tower": [
            "preproj",
            "--quiver",
            "k2",
            "--base",
            "p1",
            "--semibrick",
            "r0",
            "r1",
            "rinf",
            "--levels",
            "4",
        ],
    }
    ok = True
    for name, argv in commands.items():
        outputs = []
        for run in (0, 1):
            path = tmp_path / f"{name}_{run}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv + ["--json", str(path)])
            ok = ok and code == 0
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    # the reports carry the criterion values they were run for
    family = json.loads((tmp_path / "brick_family_0.json").read_bytes())
    ok = ok and family["payload"]["certificate"]["ext_table"][0][1] == 2
    socle = json.loads((tmp_path / "socle_tower_0.json").read_bytes())
    ok = ok and socle["payload"]["socle_chain_dims"][-1] == [4, 4]
    ok = ok and socle["payload"]["socle_filtration_accepted"] is True
    defect = json.loads((tmp_path / "defect_tower_0.json").read_bytes())
    ok = ok and defect["payload"]["level_defects"] == [-1, -1, -1, -1]
    _verdict(
        12,
        ok,
        "repeated CLI runs (brick family, socle tower, defect tower) "
        "produce byte-identical JSON reports",
    )
