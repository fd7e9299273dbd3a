"""Deterministic JSON documents for quivers, reps, morphisms, and reports.

Every document is an envelope {"kind", "version", "payload"}; payload
collections are stored as lists aligned with the quiver's vertex and arrow
order, so serialization is a pure function of the value.  Scalars are
strings: lowest-term "p/q" (or "n") over the rationals, decimal residues in
[0, p) over prime fields.  The text is what
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)`` writes,
produced by a small writer of its own (``indent`` sends ``json`` to its
pure-Python encoder).  A rep's text is written once: ``serialize`` keeps
the text of ``rep_payload`` on the rep and re-indents it into every rep or
morphism document that holds the rep.  ``parse`` distinguishes malformed syntax
(``FormatError``) from well-formed documents that violate structural
invariants (``InvariantError``), and re-checks everything it returns.
"""

from __future__ import annotations

import json

from .bricks import SemiBrickCert, SemiBrickRefusal, check_semibrick
from .errors import FormatError, InvariantError
from .linalg import Field, Matrix, field_from_spec
from .quivers import Quiver
from .reps import Morphism, Rep

FORMAT_VERSION = 1

_KINDS = ("quiver", "rep", "morphism", "semibrick", "report")


# -- building payloads -----------------------------------------------------


def field_payload(f: Field) -> dict:
    return {"kind": f.kind, "characteristic": f.characteristic}


def matrix_payload(m: Matrix) -> list:
    fmt = m.field.format
    return [[fmt(x) for x in m.row(i)] for i in range(m.rows)]


def quiver_payload(q: Quiver) -> dict:
    return {
        "name": q.name,
        "vertices": list(q.vertices),
        "arrows": [[aid, s, t] for aid, s, t in q.arrows],
    }


def rep_payload(r: Rep) -> dict:
    return {
        "quiver": quiver_payload(r.quiver),
        "field": field_payload(r.field),
        "dims": [r.dims[v] for v in r.quiver.vertices],
        "arrow_maps": [matrix_payload(r.arrow_maps[a[0]]) for a in r.quiver.arrows],
    }


def morphism_payload(m: Morphism) -> dict:
    return {
        "source": rep_payload(m.source),
        "target": rep_payload(m.target),
        "blocks": [matrix_payload(m.blocks[v]) for v in m.source.quiver.vertices],
    }


def semibrick_payload(cert: SemiBrickCert) -> dict:
    return {
        "members": [rep_payload(m) for m in cert.members],
        "hom_table": cert.hom_table,
        "ext_table": cert.ext_table,
        "brick_flags": [r.status for r in cert.brick_reports],
        "assumed": cert.assumed,
    }


def serialize(x) -> str:
    """Canonical text document for a supported value; dicts become reports."""
    if isinstance(x, Quiver):
        kind, payload = "quiver", quiver_payload(x)
    elif isinstance(x, Rep):
        kind, payload = "rep", _rep_text(x)
    elif isinstance(x, Morphism):
        # morphism_payload, with each endpoint written from its kept text
        blocks = [matrix_payload(x.blocks[v]) for v in x.source.quiver.vertices]
        kind = "morphism"
        payload = {"source": _rep_text(x.source), "target": _rep_text(x.target), "blocks": blocks}
    elif isinstance(x, SemiBrickCert):
        kind, payload = "semibrick", semibrick_payload(x)
    elif isinstance(x, dict):
        kind, payload = "report", x
    else:
        raise InvariantError(f"cannot serialize values of type {type(x).__name__}")
    doc = {"kind": kind, "version": FORMAT_VERSION, "payload": payload}
    return _json_text(doc, "") + "\n"


class _Written:
    """Text that ``_json_text`` wrote at indentation "", to be placed at another.

    JSON string escaping leaves no raw newline inside a string, so every
    newline of the text starts a line, and indenting after each newline
    gives the text ``_json_text`` writes at the new indentation.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _rep_text(r: Rep) -> _Written:
    """The text of ``rep_payload(r)``, written on the first call and kept in ``r._text``.

    Sound because a rep and its arrow maps are never written after they are
    built (see ``Rep``).
    """
    if r._text is None:
        r._text = _json_text(rep_payload(r), "")
    return _Written(r._text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(x, pad: str) -> str:
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2, ensure_ascii=True)``
    writes it at indentation ``pad``.

    Supports dict, list, tuple, str, int, bool and None, and the ``_Written``
    text of a rep.  Dict keys are all strings or all ints; int keys sort by
    value and print as strings.
    """
    if isinstance(x, str):
        return _encode_str(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        try:  # all strings (matrix rows): one join
            body = sep.join(map(_encode_str, x))
        except TypeError:
            body = sep.join([_json_text(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        try:
            keys = sorted(x)
            names = [_encode_str(k) for k in keys]
        except TypeError:
            if not all(isinstance(k, int) and not isinstance(k, bool) for k in x):
                raise InvariantError("dict keys must be all strings or all ints") from None
            names = [_encode_str(int.__repr__(k)) for k in keys]
        body = (",\n" + inner).join(
            [n + ": " + _json_text(x[k], inner) for n, k in zip(names, keys)]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, _Written):
        return x.text.replace("\n", "\n" + pad)
    raise InvariantError(f"cannot serialize values of type {type(x).__name__}")


# -- parsing ---------------------------------------------------------------


def _need(payload: dict, key: str, where: str):
    if not isinstance(payload, dict) or key not in payload:
        raise FormatError(f"missing key {key!r} in {where}")
    return payload[key]


def _parse_vertex_id(v, where: str):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise FormatError(f"vertex id {v!r} in {where} must be an integer or string")
    return v


def _parse_quiver(payload: dict) -> Quiver:
    name = _need(payload, "name", "quiver")
    if not isinstance(name, str):
        raise FormatError("quiver name must be a string")
    raw_vertices = _need(payload, "vertices", "quiver")
    raw_arrows = _need(payload, "arrows", "quiver")
    if not isinstance(raw_vertices, list) or not isinstance(raw_arrows, list):
        raise FormatError("quiver vertices/arrows must be lists")
    vertices = [_parse_vertex_id(v, "quiver vertices") for v in raw_vertices]
    arrows = []
    for entry in raw_arrows:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError("each arrow must be a [id, source, target] triple")
        aid = entry[0]
        if isinstance(aid, bool) or not isinstance(aid, (int, str)):
            raise FormatError(f"arrow id {aid!r} must be an integer or string")
        arrows.append(
            (
                aid,
                _parse_vertex_id(entry[1], "arrow source"),
                _parse_vertex_id(entry[2], "arrow target"),
            )
        )
    return Quiver(vertices, arrows, name=name)


def _parse_field(payload: dict) -> Field:
    kind = _need(payload, "kind", "field")
    char = _need(payload, "characteristic", "field")
    if not isinstance(kind, str) or isinstance(char, bool) or not isinstance(char, int):
        raise FormatError("field spec needs a string kind and integer characteristic")
    try:
        return field_from_spec(kind, char)
    except InvariantError as exc:
        raise FormatError(str(exc)) from exc


def _parse_scalar(field: Field, text, where: str):
    if not isinstance(text, str):
        raise FormatError(f"scalar in {where} must be a string, got {text!r}")
    value = field.parse(text)
    if field.format(value) != text:
        raise FormatError(f"non-canonical scalar literal {text!r} in {where}")
    return value


def _parse_matrix(field: Field, raw, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != rows:
        raise InvariantError(
            f"matrix in {where} has {len(raw) if isinstance(raw, list) else '?'} rows, "
            f"expected {rows}"
        )
    flat = []
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise InvariantError(f"matrix row in {where} does not have {cols} entries")
        for x in row:
            flat.append(_parse_scalar(field, x, where))
    return Matrix(field, rows, cols, flat)


def _parse_rep(payload: dict) -> Rep:
    quiver = _parse_quiver(_need(payload, "quiver", "rep"))
    field = _parse_field(_need(payload, "field", "rep"))
    raw_dims = _need(payload, "dims", "rep")
    if not isinstance(raw_dims, list) or len(raw_dims) != len(quiver.vertices):
        raise FormatError("rep dims must be a list matching the vertex order")
    for n in raw_dims:
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise FormatError(f"rep dimension {n!r} must be a nonnegative integer")
    dims = {v: n for v, n in zip(quiver.vertices, raw_dims)}
    raw_maps = _need(payload, "arrow_maps", "rep")
    if not isinstance(raw_maps, list) or len(raw_maps) != len(quiver.arrows):
        raise FormatError("rep arrow_maps must be a list matching the arrow order")
    maps = {}
    for (aid, s, t), raw in zip(quiver.arrows, raw_maps):
        maps[aid] = _parse_matrix(
            field, raw, dims[t], dims[s], f"arrow {aid!r}"
        )
    return Rep(quiver, field, dims, maps)


def _parse_morphism(payload: dict) -> Morphism:
    source = _parse_rep(_need(payload, "source", "morphism"))
    target = _parse_rep(_need(payload, "target", "morphism"))
    raw_blocks = _need(payload, "blocks", "morphism")
    if not isinstance(raw_blocks, list) or len(raw_blocks) != len(source.quiver.vertices):
        raise FormatError("morphism blocks must be a list matching the vertex order")
    blocks = {}
    for v, raw in zip(source.quiver.vertices, raw_blocks):
        blocks[v] = _parse_matrix(
            source.field, raw, target.dims[v], source.dims[v], f"vertex {v!r}"
        )
    return Morphism(source, target, blocks)


def _parse_semibrick(payload: dict) -> SemiBrickCert:
    raw_members = _need(payload, "members", "semibrick")
    if not isinstance(raw_members, list) or not raw_members:
        raise FormatError("semibrick members must be a nonempty list")
    members = [_parse_rep(p) for p in raw_members]
    assumed = _need(payload, "assumed", "semibrick")
    if not isinstance(assumed, bool):
        raise FormatError("semibrick assumed flag must be a boolean")
    result = check_semibrick(members, assume_bricks=assumed)
    if isinstance(result, SemiBrickRefusal):
        raise InvariantError(f"semibrick document fails certification: {result.reason}")
    if result.hom_table != _need(payload, "hom_table", "semibrick"):
        raise InvariantError("semibrick hom_table does not match the members")
    if result.ext_table != _need(payload, "ext_table", "semibrick"):
        raise InvariantError("semibrick ext_table does not match the members")
    flags = [r.status for r in result.brick_reports]
    if flags != _need(payload, "brick_flags", "semibrick"):
        raise InvariantError("semibrick brick_flags do not match the members")
    return result


def parse(text: str):
    """Parse a document, validating envelope, syntax, and value invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    kind = _need(doc, "kind", "document")
    version = _need(doc, "version", "document")
    payload = _need(doc, "payload", "document")
    if kind not in _KINDS:
        raise FormatError(f"unknown document kind {kind!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version!r}")
    if kind == "quiver":
        return _parse_quiver(payload)
    if kind == "rep":
        return _parse_rep(payload)
    if kind == "morphism":
        return _parse_morphism(payload)
    if kind == "semibrick":
        return _parse_semibrick(payload)
    if not isinstance(payload, dict):
        raise FormatError("report payload must be a JSON object")
    return payload


def save(x, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(x))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
