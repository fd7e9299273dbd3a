"""Command line front end.

Every subcommand prints a short human summary to stdout and, with
``--json PATH``, writes a canonical JSON report (``-`` for stdout).
Running the same command twice produces byte-identical JSON.

Exit codes: 0 the computation ran (a *false* verdict is still data),
1 usage error, 2 input invariant violation, 3 dimension budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import formats
from .bricks import SemiBrickCert, check_semibrick, end_algebra, is_brick
from .errors import (
    BudgetError,
    FormatError,
    InapplicableError,
    InvariantError,
    UndecidedError,
)
from .filtration import (
    decompose_semisimple,
    filt_membership,
    x_socle,
    x_socle_filtration,
)
from .homext import ext_basis, hom_basis
from .linalg import GF, QQ, Field, Matrix
from .quivers import Quiver, defect, euler_form, linear_quiver, radical_vector
from .reps import Rep, standard_module
from .tame import kronecker, preprojective_tower_report, quasi_simple
from .towers import (
    end_ring_tower,
    is_universal,
    tower,
    uniserial_check,
    universal_sequence,
)


class UsageError(Exception):
    """Bad command line input that never reached the math layer."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for invariant violations, so reroute through UsageError instead.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# token resolution


def _resolve_field(token: str) -> Field:
    token = token.strip().lower()
    if token in ("qq", "q", "rational", "rationals"):
        return QQ
    if token.startswith("f") and token[1:].isdigit():
        return GF(int(token[1:]))
    raise UsageError(f"unknown field token {token!r} (use qq or f<p>)")


def _resolve_quiver(token: str) -> Quiver:
    low = token.strip().lower()
    if low.startswith("k") and low[1:].isdigit():
        return kronecker(int(low[1:]))
    if low.startswith("a") and low[1:].isdigit():
        return linear_quiver(int(low[1:]))
    if os.path.exists(token):
        obj = formats.load(token)
        if not isinstance(obj, Quiver):
            raise UsageError(f"{token} does not contain a quiver document")
        return obj
    raise UsageError(f"unknown quiver token {token!r} (use k<r>, a<n>, or a file path)")


def _parse_point(text: str):
    if text in ("inf", "infty", "oo"):
        return "inf"
    return text


def _resolve_rep(token: str, quiver: Quiver | None, field: Field) -> Rep:
    """Turn a module token into a representation.

    File paths win; otherwise builtin tokens: ``r0``/``r1``/``rinf``/``r<c>``
    (Kronecker quasi-simples), ``p<v>``/``s<v>``/``i<v>`` (projective, simple,
    injective at a vertex), and ``x11:c1,c2,...`` for a (1,1)-dimensional
    module with the given arrow scalars.
    """
    if os.path.exists(token) or token.endswith(".json"):
        if not os.path.exists(token):
            raise UsageError(f"module file {token} not found")
        obj = formats.load(token)
        if not isinstance(obj, Rep):
            raise UsageError(f"{token} does not contain a rep document")
        if quiver is not None and obj.quiver != quiver:
            raise InvariantError(f"module in {token} lives on a different quiver")
        return obj
    low = token.strip().lower()
    if low.startswith("r") and len(low) > 1:
        q = quiver if quiver is not None else kronecker(2)
        point = _parse_point(low[1:])
        if point != "inf":
            point = field.parse(point)
        return quasi_simple(field, point, quiver=q)
    if low[:1] in ("p", "s", "i") and len(low) > 1:
        if quiver is None:
            raise UsageError(f"token {token!r} needs --quiver to pick the vertex")
        raw = token[1:]
        vertex: object = int(raw) if raw.isdigit() else raw
        if vertex not in quiver.vertices:
            raise UsageError(f"vertex {raw!r} not in quiver {quiver.name}")
        kind = {"p": "projective", "s": "simple", "i": "injective"}[low[0]]
        return standard_module(quiver, field, kind, vertex)
    if low.startswith("x11:"):
        if quiver is None:
            raise UsageError("token x11:... needs --quiver")
        scalars = [field.parse(part) for part in token[4:].split(",")]
        if len(scalars) != len(quiver.arrows):
            raise UsageError(
                f"x11 token needs {len(quiver.arrows)} scalars for {quiver.name}"
            )
        if len(quiver.vertices) != 2:
            raise UsageError("x11 tokens only make sense on two-vertex quivers")
        src, tgt = quiver.vertices[1], quiver.vertices[0]
        dims = {tgt: 1, src: 1}
        maps = {}
        for (name, s, t), c in zip(quiver.arrows, scalars):
            if (s, t) != (src, tgt):
                raise UsageError("x11 tokens need all arrows parallel 2 -> 1")
            maps[name] = Matrix.from_rows(field, [[c]])
        return Rep(quiver, field, dims, maps)
    raise UsageError(
        f"unknown module token {token!r} "
        "(use r<c>, p<v>, s<v>, i<v>, x11:c1,..., or a file path)"
    )


def _load_semibrick(tokens, quiver, field, assume_bricks):
    """A stored certificate, or the verdict of ``check_semibrick`` on the members.

    One existing file holds a semibrick or a single rep; otherwise each
    token is a module token.  The verdict may be a ``SemiBrickRefusal``.
    """
    if len(tokens) == 1 and os.path.exists(tokens[0]):
        obj = formats.load(tokens[0])
        if isinstance(obj, SemiBrickCert):
            return obj
        if not isinstance(obj, Rep):
            raise UsageError(f"{tokens[0]} is neither a semibrick nor a rep document")
        members = [obj]
    else:
        members = [_resolve_rep(t, quiver, field) for t in tokens]
    return check_semibrick(members, assume_bricks=assume_bricks)


def _resolve_semibrick(tokens, quiver, field, assume_bricks):
    result = _load_semibrick(tokens, quiver, field, assume_bricks)
    if not result.ok:
        raise InvariantError(f"semibrick check refused: {result.reason}")
    return result


def _resolve_dim_vector(text: str, quiver: Quiver) -> dict:
    parts = text.split(",")
    if len(parts) != len(quiver.vertices):
        raise UsageError(
            f"dimension vector needs {len(quiver.vertices)} entries for {quiver.name}"
        )
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad dimension vector {text!r}") from exc
    return {v: n for v, n in zip(quiver.vertices, values)}


# ---------------------------------------------------------------------------
# shared helpers


def _common_context(args):
    field = _resolve_field(getattr(args, "field", "qq") or "qq")
    quiver = None
    if getattr(args, "quiver", None):
        quiver = _resolve_quiver(args.quiver)
    return quiver, field


def _dimvec_list(rep: Rep) -> list:
    return [rep.dims[v] for v in rep.quiver.vertices]


def _emit(args, lines, payload) -> None:
    for line in lines:
        print(line)
    if getattr(args, "json", None):
        text = formats.serialize(payload)
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_hom(args):
    quiver, field = _common_context(args)
    left = _resolve_rep(args.left, quiver, field)
    right = _resolve_rep(args.right, quiver, field)
    basis = hom_basis(left, right)
    payload = {
        "op": "hom",
        "quiver": formats.quiver_payload(left.quiver),
        "field": formats.field_payload(left.field),
        "left_dims": _dimvec_list(left),
        "right_dims": _dimvec_list(right),
        "dim_hom": len(basis),
        "basis": [
            [formats.matrix_payload(f.blocks[v]) for v in left.quiver.vertices]
            for f in basis
        ],
    }
    _emit(args, [f"dim Hom = {len(basis)}"], payload)


def _cmd_ext(args):
    quiver, field = _common_context(args)
    left = _resolve_rep(args.left, quiver, field)
    right = _resolve_rep(args.right, quiver, field)
    classes, cob_rank = ext_basis(left, right)
    payload = {
        "op": "ext",
        "quiver": formats.quiver_payload(left.quiver),
        "field": formats.field_payload(left.field),
        "left_dims": _dimvec_list(left),
        "right_dims": _dimvec_list(right),
        "dim_ext": len(classes),
        "coboundary_rank": cob_rank,
    }
    _emit(args, [f"dim Ext^1 = {len(classes)}"], payload)


def _cmd_euler(args):
    quiver, _ = _common_context(args)
    if quiver is None:
        raise UsageError("euler needs --quiver")
    x = _resolve_dim_vector(args.x, quiver)
    y = _resolve_dim_vector(args.y, quiver)
    value = euler_form(quiver, x, y)
    payload = {
        "op": "euler",
        "quiver": formats.quiver_payload(quiver),
        "x": [x[v] for v in quiver.vertices],
        "y": [y[v] for v in quiver.vertices],
        "value": value,
    }
    _emit(args, [f"<x, y> = {value}"], payload)


def _cmd_defect(args):
    quiver, _ = _common_context(args)
    if quiver is None:
        raise UsageError("defect needs --quiver")
    x = _resolve_dim_vector(args.x, quiver)
    value = defect(quiver, x)
    h = radical_vector(quiver)
    payload = {
        "op": "defect",
        "quiver": formats.quiver_payload(quiver),
        "x": [x[v] for v in quiver.vertices],
        "defect": value,
        "radical_generator": [h[v] for v in quiver.vertices],
    }
    _emit(args, [f"defect(x) = {value}"], payload)


def _cmd_brick(args):
    quiver, field = _common_context(args)
    module = _resolve_rep(args.module, quiver, field)
    report = is_brick(module)
    payload = {
        "op": "brick",
        "quiver": formats.quiver_payload(module.quiver),
        "field": formats.field_payload(module.field),
        "dims": _dimvec_list(module),
        "status": report.status,
        "end_dim": report.end_dim,
        "radical_dim": report.radical_dim,
        "residue_dim": report.residue_dim,
        "witness_kind": report.witness_kind,
        "witness": (
            None
            if report.witness is None
            else [
                formats.matrix_payload(report.witness.blocks[v])
                for v in module.quiver.vertices
            ]
        ),
        "notes": report.notes,
    }
    _emit(args, [f"status = {report.status} (dim End = {report.end_dim})"], payload)


def _cmd_semibrick(args):
    quiver, field = _common_context(args)
    result = _load_semibrick(args.members, quiver, field, args.assume_bricks)
    if result.ok:
        payload = {
            "op": "semibrick",
            "ok": True,
            "certificate": formats.semibrick_payload(result),
        }
        lines = [f"semibrick certified: {len(result.members)} member(s)"]
    else:
        payload = {
            "op": "semibrick",
            "ok": False,
            "reason": result.reason,
            "indices": list(result.indices),
        }
        lines = [f"refused: {result.reason}"]
    _emit(args, lines, payload)


def _cmd_socle(args):
    quiver, field = _common_context(args)
    module = _resolve_rep(args.module, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    incl = x_socle(module, sb)
    dec = decompose_semisimple(incl.sub, sb)
    payload = {
        "op": "socle",
        "quiver": formats.quiver_payload(module.quiver),
        "field": formats.field_payload(module.field),
        "module_dims": _dimvec_list(module),
        "socle_dims": _dimvec_list(incl.sub),
        "multiplicities": list(dec.multiplicities),
        "inclusion_blocks": [
            formats.matrix_payload(incl.inclusion.blocks[v])
            for v in module.quiver.vertices
        ],
    }
    _emit(
        args,
        [f"socle dims = {tuple(_dimvec_list(incl.sub))}"],
        payload,
    )


def _filtration_payload(op, module, result):
    chain_dims = []
    layer_mults = []
    if result.filtration is not None:
        chain_dims = [
            [incl.sub.dims[v] for v in module.quiver.vertices]
            for incl in result.filtration.chain
        ]
        layer_mults = [list(layer.multiplicities) for layer in result.filtration.layers]
    return {
        "op": op,
        "quiver": formats.quiver_payload(module.quiver),
        "field": formats.field_payload(module.field),
        "module_dims": [module.dims[v] for v in module.quiver.vertices],
        "accepted": result.ok,
        "steps_completed": result.steps_completed,
        "chain_dims": chain_dims,
        "layer_multiplicities": layer_mults,
        "diagnostics": result.diagnostics,
    }


def _cmd_filtration(args):
    quiver, field = _common_context(args)
    module = _resolve_rep(args.module, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    result = x_socle_filtration(module, sb)
    payload = _filtration_payload("filtration", module, result)
    verdict = "accepted" if result.ok else "refused"
    _emit(args, [f"filtration {verdict} ({result.steps_completed} step(s))"], payload)


def _cmd_membership(args):
    quiver, field = _common_context(args)
    module = _resolve_rep(args.module, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    result = filt_membership(module, sb)
    payload = _filtration_payload("membership", module, result)
    verdict = "member" if result.ok else "not certified"
    _emit(args, [f"filtration closure: {verdict}"], payload)


def _cmd_universal(args):
    quiver, field = _common_context(args)
    base = _resolve_rep(args.base, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    ses = universal_sequence(base, sb)
    report = is_universal(ses, sb)
    dec = decompose_semisimple(ses.quot, sb)
    payload = {
        "op": "universal",
        "quiver": formats.quiver_payload(base.quiver),
        "field": formats.field_payload(base.field),
        "base_dims": _dimvec_list(base),
        "middle_dims": _dimvec_list(ses.middle),
        "quot_multiplicities": list(dec.multiplicities),
        "universal": report.ok,
        "per_member": [
            dict(entry, member_dims=[m.dims[v] for v in base.quiver.vertices])
            for m, entry in zip(sb.members, report.per_member)
        ],
    }
    _emit(
        args,
        [
            f"middle dims = {tuple(_dimvec_list(ses.middle))}",
            f"universal = {report.ok}",
        ],
        payload,
    )


def _tower_payload(op, tw, sb, extra=None):
    quiver = tw.base.quiver
    payload = {
        "op": op,
        "quiver": formats.quiver_payload(quiver),
        "field": formats.field_payload(tw.base.field),
        "base_dims": [tw.base.dims[v] for v in quiver.vertices],
        "levels": tw.height,
        "level_dims": [
            [rep.dims[v] for v in quiver.vertices] for rep in tw.levels
        ],
        "level_multiplicities": [
            list(decompose_semisimple(seq.quot, sb).multiplicities)
            for seq in tw.sequences
        ],
    }
    if extra:
        payload.update(extra)
    return payload


def _cmd_tower(args):
    quiver, field = _common_context(args)
    base = _resolve_rep(args.base, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    tw = tower(base, sb, args.levels, budget=args.budget)
    filt = x_socle_filtration(tw.levels[-1], sb)
    extra = {
        "socle_filtration_accepted": filt.ok,
        "socle_chain_dims": (
            []
            if filt.filtration is None
            else [
                [incl.sub.dims[v] for v in tw.base.quiver.vertices]
                for incl in filt.filtration.chain
            ]
        ),
    }
    payload = _tower_payload("tower", tw, sb, extra)
    lines = ["level dims: " + ", ".join(str(tuple(d)) for d in payload["level_dims"])]
    lines.append(f"socle filtration of top level accepted = {filt.ok}")
    _emit(args, lines, payload)


def _cmd_endtower(args):
    quiver, field = _common_context(args)
    base = _resolve_rep(args.base, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    tw = tower(base, sb, args.levels, budget=args.budget)
    et = end_ring_tower(tw)
    extra = {
        "end_dims": list(et.end_dims),
        "levels_report": et.level_reports,
        "ok": et.ok,
    }
    payload = _tower_payload("endtower", tw, sb, extra)
    lines = [f"End dims by level: {tuple(et.end_dims)}", f"ok = {et.ok}"]
    _emit(args, lines, payload)


def _cmd_uniserial(args):
    quiver, field = _common_context(args)
    base = _resolve_rep(args.base, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    tw = tower(base, sb, args.levels, budget=args.budget)
    verdict = uniserial_check(tw)
    payload = _tower_payload("uniserial", tw, sb, {"uniserial": verdict})
    _emit(args, [f"uniserial = {verdict}"], payload)


def _cmd_preproj(args):
    quiver, field = _common_context(args)
    base = _resolve_rep(args.base, quiver, field)
    sb = _resolve_semibrick(args.semibrick, quiver, field, args.assume_bricks)
    report = preprojective_tower_report(base, sb, args.levels, budget=args.budget)
    payload = {
        "op": "preproj",
        "quiver": formats.quiver_payload(base.quiver),
        "field": formats.field_payload(base.field),
        "base_dims": _dimvec_list(base),
        "levels": report.levels,
        "base_defect": report.base_defect,
        "level_dims": [list(d) for d in report.level_dims],
        "level_defects": list(report.level_defects),
        "level_brick_status": list(report.level_brick_status),
        "level_socle_zero": list(report.level_socle_zero),
        "quotient_membership": report.quotient_membership,
        "ok": report.ok,
    }
    lines = [
        f"base defect = {report.base_defect}",
        "level dims: " + ", ".join(str(tuple(d)) for d in report.level_dims),
        f"ok = {report.ok}",
    ]
    _emit(args, lines, payload)


def _cmd_demo(args):
    field = QQ
    q = kronecker(2)
    r0 = quasi_simple(field, field.of(0))
    sb = check_semibrick([r0])
    assert sb.ok
    tw = tower(r0, sb, 3)
    et = end_ring_tower(tw)
    alg = end_algebra(tw.levels[-1])
    payload = _tower_payload(
        "demo-kronecker",
        tw,
        sb,
        {
            "end_dims": list(et.end_dims),
            "endtower_ok": et.ok,
            "top_end_dim": alg.dimension,
        },
    )
    lines = [
        f"Kronecker demo on {q.name}: tower over the regular simple at 0",
        "level dims: " + ", ".join(str(tuple(d)) for d in payload["level_dims"]),
        f"End ring dims: {tuple(et.end_dims)}",
    ]
    _emit(args, lines, payload)


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, quiver=True, field=True):
    if quiver:
        sub.add_argument("--quiver", help="k<r>, a<n>, or a quiver JSON file")
    if field:
        sub.add_argument("--field", default="qq", help="qq (default) or f<p>")
    sub.add_argument("--json", help="write a canonical JSON report (- for stdout)")


def _add_semibrick(sub):
    sub.add_argument(
        "--semibrick",
        nargs="+",
        required=True,
        metavar="TOKEN",
        help="member tokens, or one semibrick JSON file",
    )
    sub.add_argument(
        "--assume-bricks",
        action="store_true",
        help="skip per-member brick certification (recorded in the certificate)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quiverfilt", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("hom", help="dimension and basis of Hom(left, right)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_hom)

    p = subs.add_parser("ext", help="dimension of Ext^1(left, right)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_ext)

    p = subs.add_parser("euler", help="Euler form of two dimension vectors")
    p.add_argument("--x", required=True, help="comma separated, in vertex order")
    p.add_argument("--y", required=True)
    _add_common(p, field=False)
    p.set_defaults(func=_cmd_euler)

    p = subs.add_parser("defect", help="normalized defect of a dimension vector")
    p.add_argument("--x", required=True, help="comma separated, in vertex order")
    _add_common(p, field=False)
    p.set_defaults(func=_cmd_defect)

    p = subs.add_parser("brick", help="brick certification of one module")
    p.add_argument("--module", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_brick)

    p = subs.add_parser("semibrick", help="pairwise semibrick certification")
    p.add_argument("--members", nargs="+", required=True, metavar="TOKEN")
    p.add_argument("--assume-bricks", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_semibrick)

    p = subs.add_parser("socle", help="relative socle of a module")
    p.add_argument("--module", required=True)
    _add_semibrick(p)
    _add_common(p)
    p.set_defaults(func=_cmd_socle)

    p = subs.add_parser("filtration", help="relative socle filtration")
    p.add_argument("--module", required=True)
    _add_semibrick(p)
    _add_common(p)
    p.set_defaults(func=_cmd_filtration)

    p = subs.add_parser("membership", help="filtration closure membership")
    p.add_argument("--module", required=True)
    _add_semibrick(p)
    _add_common(p)
    p.set_defaults(func=_cmd_membership)

    p = subs.add_parser("universal", help="universal extension of a base module")
    p.add_argument("--base", required=True)
    _add_semibrick(p)
    _add_common(p)
    p.set_defaults(func=_cmd_universal)

    for name, helptext, func, budget in (
        ("tower", "iterated universal extensions", _cmd_tower, True),
        ("endtower", "endomorphism rings along a tower", _cmd_endtower, True),
        ("uniserial", "relative uniseriality of a tower", _cmd_uniserial, True),
    ):
        p = subs.add_parser(name, help=helptext)
        p.add_argument("--base", required=True)
        _add_semibrick(p)
        p.add_argument("--levels", type=int, required=True)
        if budget:
            p.add_argument("--budget", type=int, default=None)
        _add_common(p)
        p.set_defaults(func=func)

    p = subs.add_parser("preproj", help="preprojective diagnostics along a tower")
    p.add_argument("--base", required=True)
    _add_semibrick(p)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_preproj)

    p = subs.add_parser("demo-kronecker", help="small worked Kronecker example")
    p.add_argument("--json", help="write a canonical JSON report (- for stdout)")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (FormatError, InvariantError, InapplicableError, UndecidedError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
