"""Command line front end.

Every subcommand prints a short human summary to stdout and, with
``--json PATH``, writes a canonical JSON report (``-`` for stdout).
Running the same command twice produces byte-identical JSON.

Exit codes: 0 the computation ran (a *false* verdict is still data),
1 usage error, 2 input invariant violation, 3 dimension budget exceeded.

Adding a subcommand takes one row of ``COMMANDS`` and one body.  The row
names the subcommand, its help text and its options, keys of ``_OPTIONS``
in help order.  ``_run`` resolves each option once (``left`` to a ``Rep``,
``semibrick`` to a certified ``SemiBrickCert``, ``tower`` to a built
``Tower``, ...), calls the body on the namespace, prints the summary lines
it returns and, with ``--json``, writes its report fields under ``op``.
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
    Tower,
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
# options: one resolver per kind, then the table of their flags


def _resolve_field(token: str | None, _) -> Field | None:
    if not token:
        return None
    token = token.strip().lower()
    if token in ("qq", "q", "rational", "rationals"):
        return QQ
    if token.startswith("f") and token[1:].isdigit():
        return GF(int(token[1:]))
    raise UsageError(f"unknown field token {token!r} (use qq or f<p>)")


def _resolve_quiver(token: str | None, _) -> Quiver | None:
    if not token:
        return None
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


def _on_context(obj, token: str, args):
    """Refuse ``obj``, read from ``token``, if it is off the given quiver or field."""
    what = "module" if isinstance(obj, Rep) else "semibrick"
    for kind in ("quiver", "field"):
        given = getattr(args, kind)
        if given is not None and getattr(obj, kind) != given:
            raise InvariantError(f"{what} in {token} lives on a different {kind}")
    return obj


def _resolve_rep(token: str, args) -> Rep:
    """Turn a module token into a representation.

    File paths win; otherwise builtin tokens: ``r0``/``r1``/``rinf``/``r<c>``
    (Kronecker quasi-simples), ``p<v>``/``s<v>``/``i<v>`` (projective, simple,
    injective at a vertex), and ``x11:c1,c2,...`` for a (1,1)-dimensional
    module with the given arrow scalars.  Tokens resolve over ``--field``,
    QQ when it is not given.
    """
    if os.path.exists(token) or token.endswith(".json"):
        if not os.path.exists(token):
            raise UsageError(f"module file {token} not found")
        obj = formats.load(token)
        if not isinstance(obj, Rep):
            raise UsageError(f"{token} does not contain a rep document")
        return _on_context(obj, token, args)
    quiver, field = args.quiver, args.field or QQ
    low = token.strip().lower()
    if low.startswith("r") and len(low) > 1:
        point = "inf" if low[1:] in ("inf", "infty", "oo") else field.parse(low[1:])
        return quasi_simple(field, point, quiver=quiver or kronecker(2))
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
        if any((s, t) != (src, tgt) for _, s, t in quiver.arrows):
            raise UsageError("x11 tokens need all arrows parallel 2 -> 1")
        ones = [Matrix.from_rows(field, [[c]]) for c in scalars]
        maps = {aid: m for (aid, _, _), m in zip(quiver.arrows, ones)}
        return Rep(quiver, field, {tgt: 1, src: 1}, maps)
    raise UsageError(
        f"unknown module token {token!r} "
        "(use r<c>, p<v>, s<v>, i<v>, x11:c1,..., or a file path)"
    )


def _resolve_dims(text: str, args) -> dict:
    quiver = args.quiver
    if quiver is None:
        raise UsageError(f"{args.command} needs --quiver")
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


def _load_semibrick(tokens: list, args):
    """A stored certificate, or the verdict of ``check_semibrick`` on the members.

    One existing file holds a semibrick or a single rep; otherwise each
    token is a module token.  The verdict may be a ``SemiBrickRefusal``.
    """
    if len(tokens) == 1 and os.path.exists(tokens[0]):
        obj = formats.load(tokens[0])
        if not isinstance(obj, (SemiBrickCert, Rep)):
            raise UsageError(f"{tokens[0]} is neither a semibrick nor a rep document")
        _on_context(obj, tokens[0], args)
        if isinstance(obj, SemiBrickCert):
            return obj
        members = [obj]
    else:
        members = [_resolve_rep(t, args) for t in tokens]
    return check_semibrick(members, assume_bricks=args.assume_bricks)


def _certified_semibrick(tokens: list, args) -> SemiBrickCert:
    result = _load_semibrick(tokens, args)
    if not result.ok:
        raise InvariantError(f"semibrick check refused: {result.reason}")
    return result


def _build_tower(_, args) -> Tower:
    base = _resolve_rep(args.base, args)
    sb = _certified_semibrick(args.semibrick, args)
    return tower(base, sb, args.levels, budget=args.budget)


_REQUIRED = {"required": True}
_TOKENS = {"nargs": "+", "required": True, "metavar": "TOKEN"}
_DIMS_HELP = "comma separated, in vertex order"
_SEMIBRICK_HELP = "member tokens, or one semibrick JSON file"
_ASSUME_HELP = "skip per-member brick certification (recorded in the certificate)"
_QUIVER_HELP = "k<r>, a<n>, or a quiver JSON file"
# option -> its resolver (None keeps the parsed value) and its flags, each
# with its ``add_argument`` keywords
_OPTIONS = {
    "left": (_resolve_rep, [("--left", _REQUIRED)]),
    "right": (_resolve_rep, [("--right", _REQUIRED)]),
    "module": (_resolve_rep, [("--module", _REQUIRED)]),
    "base": (_resolve_rep, [("--base", _REQUIRED)]),
    "x": (_resolve_dims, [("--x", dict(_REQUIRED, help=_DIMS_HELP))]),
    "y": (_resolve_dims, [("--y", _REQUIRED)]),
    "members": (
        _load_semibrick,
        [("--members", _TOKENS), ("--assume-bricks", {"action": "store_true"})],
    ),
    "semibrick": (
        _certified_semibrick,
        [
            ("--semibrick", dict(_TOKENS, help=_SEMIBRICK_HELP)),
            ("--assume-bricks", {"action": "store_true", "help": _ASSUME_HELP}),
        ],
    ),
    "levels": (None, [("--levels", {"type": int, "required": True})]),
    "budget": (None, [("--budget", {"type": int, "default": None})]),
    "quiver": (_resolve_quiver, [("--quiver", {"help": _QUIVER_HELP})]),
    "field": (_resolve_field, [("--field", {"help": "qq (default) or f<p>"})]),
}
_TOWER_PARTS = ("base", "semibrick", "levels", "budget")
_OPTIONS["tower"] = (_build_tower, [f for k in _TOWER_PARTS for f in _OPTIONS[k][1]])


# ---------------------------------------------------------------------------
# report helpers


def _dims(rep: Rep) -> list:
    return [rep.dims[v] for v in rep.quiver.vertices]


def _blocks(f) -> list:
    return [formats.matrix_payload(f.blocks[v]) for v in f.source.quiver.vertices]


def _chain_dims(result) -> list:
    chain = [] if result.filtration is None else result.filtration.chain
    return [_dims(incl.sub) for incl in chain]


def _level_line(level_dims) -> str:
    return "level dims: " + ", ".join(str(tuple(d)) for d in level_dims)


def _report(rep: Rep, **fields) -> dict:
    """Report fields after the header naming ``rep``'s quiver and field."""
    return dict(
        quiver=formats.quiver_payload(rep.quiver),
        field=formats.field_payload(rep.field),
        **fields,
    )


def _filtration_report(module: Rep, result) -> dict:
    layers = [] if result.filtration is None else result.filtration.layers
    return _report(
        module,
        module_dims=_dims(module),
        accepted=result.ok,
        steps_completed=result.steps_completed,
        chain_dims=_chain_dims(result),
        layer_multiplicities=[list(layer.multiplicities) for layer in layers],
        diagnostics=result.diagnostics,
    )


def _tower_report(tw: Tower, **fields) -> dict:
    return _report(
        tw.base,
        base_dims=_dims(tw.base),
        levels=tw.height,
        level_dims=[_dims(rep) for rep in tw.levels],
        level_multiplicities=[
            list(decompose_semisimple(seq.quot, tw.semibrick).multiplicities)
            for seq in tw.sequences
        ],
        **fields,
    )


# ---------------------------------------------------------------------------
# subcommand bodies: each reads its resolved options off ``a`` and returns
# its summary lines and its report fields


def _hom(a):
    basis = hom_basis(a.left, a.right)
    return [f"dim Hom = {len(basis)}"], _report(
        a.left,
        left_dims=_dims(a.left),
        right_dims=_dims(a.right),
        dim_hom=len(basis),
        basis=[_blocks(f) for f in basis],
    )


def _ext(a):
    classes, cob_rank = ext_basis(a.left, a.right)
    return [f"dim Ext^1 = {len(classes)}"], _report(
        a.left,
        left_dims=_dims(a.left),
        right_dims=_dims(a.right),
        dim_ext=len(classes),
        coboundary_rank=cob_rank,
    )


def _euler(a):
    value = euler_form(a.quiver, a.x, a.y)
    fields = {"x": list(a.x.values()), "y": list(a.y.values()), "value": value}
    return [f"<x, y> = {value}"], dict(fields, quiver=formats.quiver_payload(a.quiver))


def _defect(a):
    value = defect(a.quiver, a.x)
    h = radical_vector(a.quiver)
    return [f"defect(x) = {value}"], {
        "quiver": formats.quiver_payload(a.quiver),
        "x": list(a.x.values()),
        "defect": value,
        "radical_generator": [h[v] for v in a.quiver.vertices],
    }


def _brick(a):
    report = is_brick(a.module)
    return [f"status = {report.status} (dim End = {report.end_dim})"], _report(
        a.module,
        dims=_dims(a.module),
        status=report.status,
        end_dim=report.end_dim,
        radical_dim=report.radical_dim,
        residue_dim=report.residue_dim,
        witness_kind=report.witness_kind,
        witness=None if report.witness is None else _blocks(report.witness),
        notes=report.notes,
    )


def _semibrick(a):
    result = a.members
    if result.ok:
        lines = [f"semibrick certified: {len(result.members)} member(s)"]
        return lines, {"ok": True, "certificate": formats.semibrick_payload(result)}
    fields = {"ok": False, "reason": result.reason, "indices": list(result.indices)}
    return [f"refused: {result.reason}"], fields


def _socle(a):
    incl = x_socle(a.module, a.semibrick)
    dec = decompose_semisimple(incl.sub, a.semibrick)
    return [f"socle dims = {tuple(_dims(incl.sub))}"], _report(
        a.module,
        module_dims=_dims(a.module),
        socle_dims=_dims(incl.sub),
        multiplicities=list(dec.multiplicities),
        inclusion_blocks=_blocks(incl.inclusion),
    )


def _filtration(a):
    result = x_socle_filtration(a.module, a.semibrick)
    verdict = "accepted" if result.ok else "refused"
    lines = [f"filtration {verdict} ({result.steps_completed} step(s))"]
    return lines, _filtration_report(a.module, result)


def _membership(a):
    result = filt_membership(a.module, a.semibrick)
    verdict = "member" if result.ok else "not certified"
    return [f"filtration closure: {verdict}"], _filtration_report(a.module, result)


def _universal(a):
    ses = universal_sequence(a.base, a.semibrick)
    report = is_universal(ses, a.semibrick)
    dec = decompose_semisimple(ses.quot, a.semibrick)
    lines = [f"middle dims = {tuple(_dims(ses.middle))}", f"universal = {report.ok}"]
    return lines, _report(
        a.base,
        base_dims=_dims(a.base),
        middle_dims=_dims(ses.middle),
        quot_multiplicities=list(dec.multiplicities),
        universal=report.ok,
        per_member=[
            dict(entry, member_dims=_dims(m))
            for m, entry in zip(a.semibrick.members, report.per_member)
        ],
    )


def _tower(a):
    filt = x_socle_filtration(a.tower.levels[-1], a.tower.semibrick)
    lines = [_level_line(_dims(rep) for rep in a.tower.levels)]
    lines.append(f"socle filtration of top level accepted = {filt.ok}")
    return lines, _tower_report(
        a.tower,
        socle_filtration_accepted=filt.ok,
        socle_chain_dims=_chain_dims(filt),
    )


def _endtower(a):
    et = end_ring_tower(a.tower)
    lines = [f"End dims by level: {tuple(et.end_dims)}", f"ok = {et.ok}"]
    return lines, _tower_report(
        a.tower,
        end_dims=list(et.end_dims),
        levels_report=et.level_reports,
        ok=et.ok,
    )


def _uniserial(a):
    verdict = uniserial_check(a.tower)
    return [f"uniserial = {verdict}"], _tower_report(a.tower, uniserial=verdict)


def _preproj(a):
    report = preprojective_tower_report(a.base, a.semibrick, a.levels, budget=a.budget)
    lines = [f"base defect = {report.base_defect}", _level_line(report.level_dims)]
    lines.append(f"ok = {report.ok}")
    return lines, _report(
        a.base,
        base_dims=_dims(a.base),
        levels=report.levels,
        base_defect=report.base_defect,
        level_dims=[list(d) for d in report.level_dims],
        level_defects=list(report.level_defects),
        level_brick_status=list(report.level_brick_status),
        level_socle_zero=list(report.level_socle_zero),
        quotient_membership=report.quotient_membership,
        ok=report.ok,
    )


def _demo(a):
    r0 = quasi_simple(QQ, QQ.of(0))
    tw = tower(r0, check_semibrick([r0]), 3)
    et = end_ring_tower(tw)
    lines = [f"Kronecker demo on {r0.quiver.name}: tower over the regular simple at 0"]
    lines.append(_level_line(_dims(rep) for rep in tw.levels))
    lines.append(f"End ring dims: {tuple(et.end_dims)}")
    return lines, _tower_report(
        tw,
        end_dims=list(et.end_dims),
        endtower_ok=et.ok,
        top_end_dim=end_algebra(tw.levels[-1]).dimension,
    )


# name, help, options (keys of _OPTIONS, in help order), body
COMMANDS = (
    (
        "hom",
        "dimension and basis of Hom(left, right)",
        "left right quiver field",
        _hom,
    ),
    ("ext", "dimension of Ext^1(left, right)", "left right quiver field", _ext),
    ("euler", "Euler form of two dimension vectors", "x y quiver", _euler),
    ("defect", "normalized defect of a dimension vector", "x quiver", _defect),
    ("brick", "brick certification of one module", "module quiver field", _brick),
    (
        "semibrick",
        "pairwise semibrick certification",
        "members quiver field",
        _semibrick,
    ),
    ("socle", "relative socle of a module", "module semibrick quiver field", _socle),
    (
        "filtration",
        "relative socle filtration",
        "module semibrick quiver field",
        _filtration,
    ),
    (
        "membership",
        "filtration closure membership",
        "module semibrick quiver field",
        _membership,
    ),
    (
        "universal",
        "universal extension of a base module",
        "base semibrick quiver field",
        _universal,
    ),
    ("tower", "iterated universal extensions", "tower quiver field", _tower),
    ("endtower", "endomorphism rings along a tower", "tower quiver field", _endtower),
    ("uniserial", "relative uniseriality of a tower", "tower quiver field", _uniserial),
    (
        "preproj",
        "preprojective diagnostics along a tower",
        "base semibrick levels budget quiver field",
        _preproj,
    ),
    ("demo-kronecker", "small worked Kronecker example", "", _demo),
)


def build_parser() -> argparse.ArgumentParser:
    # --help shows the module docstring up to its notes on adding a subcommand
    parser = _Parser(prog="quiverfilt", description=__doc__.split("\n\nAdding")[0])
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for row in COMMANDS:
        sub = subs.add_parser(row[0], help=row[1])
        for option in row[2].split():
            for flag, kwargs in _OPTIONS[option][1]:
                sub.add_argument(flag, **kwargs)
        sub.add_argument("--json", help="write a canonical JSON report (- for stdout)")
        sub.set_defaults(run=row)
    return parser


def _run(args) -> None:
    """Resolve each option of the row once, run its body, print and write."""
    _, _, options, body = args.run
    # field and quiver first: the other resolvers read them, None if not given
    for name in dict.fromkeys(["field", "quiver"] + options.split()):
        resolve = _OPTIONS[name][0]
        if resolve is not None:
            setattr(args, name, resolve(getattr(args, name, None), args))
    lines, fields = body(args)
    for line in lines:
        print(line)
    if args.json:
        text = formats.serialize(dict(op=args.command, **fields))
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)


# exception class -> exit code and stderr prefix; the nearest base class wins
_REFUSALS = {
    UsageError: (1, "usage error"),
    OSError: (1, "usage error"),
    BudgetError: (3, "budget exceeded"),
    FormatError: (2, "invalid input"),
    InvariantError: (2, "invalid input"),
    InapplicableError: (2, "inapplicable"),
    UndecidedError: (2, "undecided"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "run", None) is None:
            parser.print_help()
            return 1
        _run(args)
    except tuple(_REFUSALS) as exc:
        code, prefix = next(_REFUSALS[c] for c in type(exc).__mro__ if c in _REFUSALS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
