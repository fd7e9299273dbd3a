"""Round trips, determinism, and strictness of the JSON document layer."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverfilt import (
    FORMAT_VERSION,
    GF,
    QQ,
    Morphism,
    Rep,
    check_semibrick,
    hom_basis,
    kronecker,
    linear_quiver,
    load,
    parse,
    quasi_simple,
    save,
    serialize,
    standard_module,
)
from quiverfilt.errors import FormatError, InvariantError
from quiverfilt.formats import morphism_payload, rep_payload
from quiverfilt.reps import linear_combination

from conftest import draw_rep, field_scalar, make_x11


def _doc(text):
    return json.loads(text)


# ---------------------------------------------------------------------------
# envelope and determinism


def test_envelope_shape(k2):
    doc = _doc(serialize(k2))
    assert sorted(doc) == ["kind", "payload", "version"]
    assert doc["kind"] == "quiver"
    assert doc["version"] == FORMAT_VERSION


def test_serialize_is_deterministic(k2, r0):
    assert serialize(k2) == serialize(k2)
    assert serialize(r0) == serialize(r0)
    # trailing newline, ascii only, sorted keys
    text = serialize(r0)
    assert text.endswith("\n")
    assert text == json.dumps(_doc(text), sort_keys=True, indent=2) + "\n"


def test_serialize_rejects_unsupported_values():
    with pytest.raises(InvariantError):
        serialize(42)
    with pytest.raises(InvariantError):
        serialize([1, 2, 3])


_awkward_char = st.one_of(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()
)
_awkward_text = st.text(_awkward_char, max_size=8)
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(), _awkward_text)
_json_tree = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_awkward_text, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(_json_tree, st.dictionaries(_awkward_text, _json_tree, max_size=3))
def test_report_writer_matches_json_dumps(tree, extra):
    # the envelope and [[{...}]] put the random tree at depth 6 or more
    report = dict(extra, nested=[[{"tree": tree}]], empty=[[], {}, ()])
    doc = {"kind": "report", "version": FORMAT_VERSION, "payload": report}
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert serialize(report) == expected


@pytest.mark.parametrize(
    "bad",
    [
        {"x": 1.5},
        {"x": Fraction(1, 2)},
        {"x": {1, 2}},
        {1: "a", "b": "c"},
        {True: "t"},
        {1.5: "f"},
        {"x": quasi_simple(QQ, QQ.of(0))},
    ],
)
def test_report_writer_refuses_what_json_would_not_print_alike(bad):
    with pytest.raises(InvariantError):
        serialize(bad)


def test_serialize_matches_json_dumps_on_every_kind(k2, r0, r1):
    cases = [k2, r0, hom_basis(r0, r0)[0], check_semibrick([r0, r1]), {7: ["a"], 10: [], -1: None}]
    for value in cases:
        text = serialize(value)
        doc = json.loads(text)
        if isinstance(value, dict):  # int keys print as strings
            doc["payload"] = value
        assert text == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _unwritten(r):
    """A new rep equal to r, whose text has not been written yet."""
    return Rep(r.quiver, r.field, r.dims, r.arrow_maps)


def _json_dumps_document(kind, payload):
    doc = {"kind": kind, "version": FORMAT_VERSION, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([kronecker(2), kronecker(3), linear_quiver(3)]),
    st.sampled_from([QQ, GF(2), GF(101)]),
    st.data(),
)
def test_morphism_text_from_kept_rep_text_matches_json_dumps(quiver, field, data):
    """A morphism's endpoints are written from the text kept on each rep; the
    document is the same whether that text is written by this call, was kept
    by an earlier morphism, or by serializing the rep on its own."""
    m = draw_rep(data, quiver, field, max_dim=3)
    n = draw_rep(data, quiver, field, max_dim=3)
    basis = hom_basis(m, n)
    coeffs = data.draw(st.lists(field_scalar(field), min_size=len(basis), max_size=len(basis)))
    f = linear_combination(basis, coeffs) if basis else Morphism.zero(m, n)
    expected = _json_dumps_document("morphism", morphism_payload(f))

    source, target = _unwritten(m), _unwritten(n)
    assert source._text is None and target._text is None
    assert serialize(Morphism(source, target, f.blocks)) == expected
    assert source._text is not None and target._text is not None
    assert serialize(Morphism(source, target, f.blocks)) == expected
    for b in basis:
        kept = Morphism(source, target, b.blocks)
        assert serialize(kept) == _json_dumps_document("morphism", morphism_payload(b))

    source, target = _unwritten(m), _unwritten(n)
    assert serialize(source) == _json_dumps_document("rep", rep_payload(m))
    assert serialize(Morphism(source, target, f.blocks)) == expected
    endo = Morphism.identity(_unwritten(n))
    assert serialize(endo) == _json_dumps_document("morphism", morphism_payload(endo))


def test_rep_equality_and_hash_ignore_the_kept_text(r0):
    kept, bare = _unwritten(r0), _unwritten(r0)
    serialize(kept)
    assert kept._text is not None and bare._text is None
    assert kept == bare and hash(kept) == hash(bare)
    bare._text = "{}"
    assert kept == bare and hash(kept) == hash(bare)


def test_dicts_become_reports():
    text = serialize({"answer": 1, "notes": ["a"]})
    assert _doc(text)["kind"] == "report"
    assert parse(text) == {"answer": 1, "notes": ["a"]}


# ---------------------------------------------------------------------------
# frozen payload shapes


def test_quiver_payload_frozen(k2):
    payload = _doc(serialize(k2))["payload"]
    assert payload == {
        "name": "K_2",
        "vertices": [1, 2],
        "arrows": [["a1", 2, 1], ["a2", 2, 1]],
    }


def test_rep_payload_frozen(r0):
    payload = _doc(serialize(r0))["payload"]
    assert payload["dims"] == [1, 1]
    assert payload["arrow_maps"] == [[["1"]], [["0"]]]
    assert payload["field"] == {"kind": "rationals", "characteristic": 0}


def test_scalar_literals_are_canonical():
    q = kronecker(2)
    hodge = make_x11(q, QQ, [QQ.parse("1/2"), QQ.parse("-3")])
    maps = _doc(serialize(hodge))["payload"]["arrow_maps"]
    assert maps == [[["1/2"]], [["-3"]]]
    fp = make_x11(q, GF(5), [GF(5).of(3), GF(5).of(4)])
    maps5 = _doc(serialize(fp))["payload"]["arrow_maps"]
    assert maps5 == [[["3"]], [["4"]]]


# ---------------------------------------------------------------------------
# round trips


def test_quiver_round_trip(k3, a3):
    for q in (k3, a3):
        assert parse(serialize(q)) == q


def test_rep_round_trip(k2):
    for field in (QQ, GF(5)):
        m = make_x11(kronecker(3), field, [field.of(1), field.of(2), field.of(0)])
        back = parse(serialize(m))
        assert back == m
    p1 = standard_module(k2, QQ, "projective", 1)
    assert parse(serialize(p1)) == p1


def test_morphism_round_trip(k2, r0):
    p1 = standard_module(k2, QQ, "projective", 1)
    (f,) = hom_basis(p1, r0)
    back = parse(serialize(f))
    assert isinstance(back, Morphism)
    assert back == f


def test_semibrick_round_trip(r0, r1):
    cert = check_semibrick([r0, r1])
    back = parse(serialize(cert))
    assert back.hom_table == cert.hom_table
    assert back.ext_table == cert.ext_table
    assert [m.dims for m in back.members] == [m.dims for m in cert.members]
    assert back.assumed is False


def test_save_load_round_trip(tmp_path, k2, r0):
    path = tmp_path / "r0.json"
    save(r0, path)
    assert load(path) == r0
    qpath = tmp_path / "k2.json"
    save(k2, qpath)
    assert load(qpath) == k2


# ---------------------------------------------------------------------------
# syntax errors vs invariant errors


def test_malformed_json_is_a_format_error():
    with pytest.raises(FormatError):
        parse("{not json")
    with pytest.raises(FormatError):
        parse('"just a string"')


def test_missing_envelope_keys(r0):
    doc = _doc(serialize(r0))
    del doc["payload"]
    with pytest.raises(FormatError):
        parse(json.dumps(doc))


def test_unknown_kind_and_bad_version(r0):
    doc = _doc(serialize(r0))
    doc["kind"] = "representation"
    with pytest.raises(FormatError):
        parse(json.dumps(doc))
    doc["kind"] = "rep"
    doc["version"] = 2
    with pytest.raises(FormatError):
        parse(json.dumps(doc))


def test_non_canonical_rational_rejected(r0):
    doc = _doc(serialize(r0))
    doc["payload"]["arrow_maps"][0][0][0] = "2/2"
    with pytest.raises(FormatError, match="non-canonical"):
        parse(json.dumps(doc))


def test_out_of_range_residue_rejected():
    m = make_x11(kronecker(2), GF(5), [GF(5).of(1), GF(5).of(0)])
    doc = _doc(serialize(m))
    doc["payload"]["arrow_maps"][0][0][0] = "7"
    with pytest.raises(FormatError):
        parse(json.dumps(doc))


def test_wrong_matrix_shape_names_the_arrow(r0):
    doc = _doc(serialize(r0))
    doc["payload"]["arrow_maps"][1] = [["0"], ["0"]]
    with pytest.raises(InvariantError, match="a2"):
        parse(json.dumps(doc))


def test_broken_intertwining_is_an_invariant_error(r0):
    (f,) = hom_basis(r0, r0)
    doc = _doc(serialize(f))
    # identity endomorphism has equal nonzero blocks; zeroing one keeps
    # every shape intact but breaks the commuting square over a1
    doc["payload"]["blocks"][1] = [["0"]]
    with pytest.raises(InvariantError, match="a1"):
        parse(json.dumps(doc))


def test_rep_arrow_count_mismatch(r0):
    doc = _doc(serialize(r0))
    doc["payload"]["arrow_maps"].append([["0"]])
    with pytest.raises(FormatError):
        parse(json.dumps(doc))


# ---------------------------------------------------------------------------
# semibrick documents re-run certification on parse


def test_tampered_ext_table_rejected(r0, r1):
    doc = _doc(serialize(check_semibrick([r0, r1])))
    doc["payload"]["ext_table"][0][0] = 7
    with pytest.raises(InvariantError, match="ext_table"):
        parse(json.dumps(doc))


def test_tampered_hom_table_rejected(r0):
    doc = _doc(serialize(check_semibrick([r0])))
    doc["payload"]["hom_table"] = [[2]]
    with pytest.raises(InvariantError, match="hom_table"):
        parse(json.dumps(doc))


def test_non_semibrick_members_rejected_on_parse(k2, r0):
    cert = check_semibrick([r0])
    doc = _doc(serialize(cert))
    # replace the single member with a decomposable module: R_0 + R_0
    double = _doc(serialize(r0))["payload"]
    double["dims"] = [2, 2]
    double["arrow_maps"] = [
        [["1", "0"], ["0", "1"]],
        [["0", "0"], ["0", "0"]],
    ]
    doc["payload"]["members"] = [double]
    with pytest.raises(InvariantError, match="certification"):
        parse(json.dumps(doc))
