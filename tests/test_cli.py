"""Exit codes, token resolution, and deterministic JSON output of the CLI."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quiverfilt import QQ, check_semibrick, kronecker, quasi_simple, save, universal_sequence
from quiverfilt import bricks
from quiverfilt.cli import build_parser, main
from quiverfilt.errors import UndecidedError


def _json_tail(text):
    """The JSON document printed after the human summary lines."""
    return json.loads(text[text.index("{") :])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_hom_prints_dimension(capsys):
    code, out, _ = run(capsys, "hom", "--left", "r0", "--right", "r0")
    assert code == 0
    assert "dim Hom = 1" in out


def test_ext_json_to_stdout(capsys):
    code, out, _ = run(capsys, "ext", "--left", "r0", "--right", "r0", "--json", "-")
    assert code == 0
    doc = _json_tail(out)
    assert doc["kind"] == "report"
    assert doc["payload"]["dim_ext"] == 1
    assert doc["payload"]["left_dims"] == [1, 1]


def test_euler_value(capsys):
    code, out, _ = run(
        capsys, "euler", "--quiver", "k2", "--x", "1,0", "--y", "1,1", "--json", "-"
    )
    assert code == 0
    assert _json_tail(out)["payload"]["value"] == 1
    code, out, _ = run(
        capsys, "euler", "--quiver", "k2", "--x", "1,1", "--y", "1,0", "--json", "-"
    )
    assert _json_tail(out)["payload"]["value"] == -1


def test_defect_value(capsys):
    code, out, _ = run(capsys, "defect", "--quiver", "k2", "--x", "1,0", "--json", "-")
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["defect"] == -1
    assert payload["radical_generator"] == [1, 1]


def test_brick_with_x11_token(capsys):
    code, out, _ = run(
        capsys, "brick", "--quiver", "k3", "--module", "x11:1,2,0", "--json", "-"
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["status"] == "certified_brick"
    assert payload["end_dim"] == 1


def test_semibrick_certifies(capsys):
    code, out, _ = run(
        capsys, "semibrick", "--members", "r0", "r1", "rinf", "--json", "-"
    )
    assert code == 0
    cert = _json_tail(out)["payload"]["certificate"]
    assert cert["brick_flags"] == ["certified_brick"] * 3
    assert cert["ext_table"][0][1] == 0


def test_semibrick_refusal_is_still_exit_zero(capsys):
    code, out, _ = run(capsys, "semibrick", "--members", "r0", "r0", "--json", "-")
    assert code == 0
    doc = _json_tail(out)
    assert doc["payload"]["ok"] is False
    assert "refused" in out


def test_socle_of_universal_middle(tmp_path, capsys):
    r0 = __import__("quiverfilt").quasi_simple(QQ, QQ.of(0))
    sb = check_semibrick([r0])
    y2 = universal_sequence(r0, sb).middle
    path = tmp_path / "y2.json"
    save(y2, path)
    code, out, _ = run(
        capsys, "socle", "--module", str(path), "--semibrick", "r0", "--json", "-"
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["socle_dims"] == [1, 1]
    assert payload["multiplicities"] == [1]


def test_filtration_and_membership_from_file(tmp_path, capsys):
    r0 = __import__("quiverfilt").quasi_simple(QQ, QQ.of(0))
    sb = check_semibrick([r0])
    y2 = universal_sequence(r0, sb).middle
    path = tmp_path / "y2.json"
    save(y2, path)
    code, out, _ = run(
        capsys, "filtration", "--module", str(path), "--semibrick", "r0", "--json", "-"
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["accepted"] is True
    assert payload["chain_dims"] == [[0, 0], [1, 1], [2, 2]]
    code, out, _ = run(
        capsys, "membership", "--module", str(path), "--semibrick", "r0"
    )
    assert code == 0
    assert "member" in out


def test_membership_refusal_is_data_not_error(capsys):
    code, out, _ = run(
        capsys,
        "membership",
        "--quiver",
        "k2",
        "--module",
        "s1",
        "--semibrick",
        "r0",
        "--json",
        "-",
    )
    assert code == 0
    assert _json_tail(out)["payload"]["accepted"] is False
    assert "not certified" in out


def test_universal_command(capsys):
    code, out, _ = run(
        capsys, "universal", "--base", "r0", "--semibrick", "r0", "--json", "-"
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["middle_dims"] == [2, 2]
    assert payload["universal"] is True
    assert payload["per_member"][0]["invertible"] is True


def test_tower_reports_socle_chain(capsys):
    code, out, _ = run(
        capsys,
        "tower",
        "--base",
        "r0",
        "--semibrick",
        "r0",
        "--levels",
        "3",
        "--json",
        "-",
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["level_dims"] == [[1, 1], [2, 2], [3, 3]]
    assert payload["socle_filtration_accepted"] is True
    assert payload["socle_chain_dims"] == [[0, 0], [1, 1], [2, 2], [3, 3]]


def test_tower_multiplicities_count_every_member(capsys):
    code, out, _ = run(
        capsys,
        "tower",
        "--base",
        "r0",
        "--semibrick",
        "r0",
        "r1",
        "--levels",
        "3",
        "--json",
        "-",
    )
    assert code == 0
    assert _json_tail(out)["payload"]["level_multiplicities"] == [[1, 0], [1, 0]]


def test_endtower_command(capsys):
    code, out, _ = run(
        capsys,
        "endtower",
        "--base",
        "r0",
        "--semibrick",
        "r0",
        "--levels",
        "3",
        "--json",
        "-",
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["end_dims"] == [1, 2, 3]
    assert payload["ok"] is True
    assert payload["levels_report"][-1]["residue_dim"] == 1


def test_uniserial_command(capsys):
    code, out, _ = run(
        capsys, "uniserial", "--base", "r0", "--semibrick", "r0", "--levels", "3"
    )
    assert code == 0
    assert "uniserial = True" in out


def test_preproj_command(capsys):
    code, out, _ = run(
        capsys,
        "preproj",
        "--quiver",
        "k2",
        "--base",
        "p1",
        "--semibrick",
        "r0",
        "--levels",
        "2",
        "--json",
        "-",
    )
    assert code == 0
    payload = _json_tail(out)["payload"]
    assert payload["level_dims"] == [[1, 0], [2, 1]]
    assert payload["level_defects"] == [-1, -1]
    assert payload["ok"] is True


def test_demo_smoke(capsys):
    code, out, _ = run(capsys, "demo-kronecker")
    assert code == 0
    assert "Kronecker demo" in out


def test_quiver_and_rep_files(tmp_path, capsys):
    q = kronecker(3)
    qpath = tmp_path / "k3.json"
    save(q, qpath)
    code, out, _ = run(
        capsys,
        "ext",
        "--quiver",
        str(qpath),
        "--left",
        "x11:1,0,0",
        "--right",
        "x11:1,0,0",
    )
    assert code == 0
    assert "dim Ext^1 = 2" in out


def test_json_written_to_file_and_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(
            [
                "tower",
                "--base",
                "r0",
                "--semibrick",
                "r0",
                "--levels",
                "4",
                "--json",
                str(p),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["payload"]["level_dims"][-1] == [4, 4]


# ---------------------------------------------------------------------------
# exit codes on bad input


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 1
    assert "COMMAND" in out


def test_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_bad_module_token(capsys):
    code, _, err = run(capsys, "hom", "--left", "zz9", "--right", "r0")
    assert code == 1
    assert "module token" in err


def test_missing_module_file(capsys):
    code, _, err = run(capsys, "hom", "--left", "no_such.json", "--right", "r0")
    assert code == 1


def test_vertex_token_requires_quiver(capsys):
    code, _, err = run(capsys, "hom", "--left", "p1", "--right", "r0")
    assert code == 1
    assert "--quiver" in err


def test_x11_scalar_count_checked(capsys):
    code, _, err = run(
        capsys, "brick", "--quiver", "k3", "--module", "x11:1,2"
    )
    assert code == 1
    assert "3 scalars" in err


def test_x11_token_needs_arrows_from_the_second_vertex(tmp_path, capsys):
    from quiverfilt import Quiver

    path = tmp_path / "up.json"
    save(Quiver([1, 2], [("a", 1, 2)], name="up"), path)
    code, _, err = run(
        capsys, "hom", "--quiver", str(path), "--left", "x11:1", "--right", "x11:1"
    )
    assert code == 1
    assert "parallel 2 -> 1" in err


def test_bad_dimension_vector(capsys):
    code, _, err = run(capsys, "euler", "--quiver", "k2", "--x", "1", "--y", "1,1")
    assert code == 1


def test_refused_semibrick_argument_is_exit_two(capsys):
    code, _, err = run(
        capsys, "socle", "--quiver", "k2", "--module", "r0", "--semibrick", "r0", "r0"
    )
    assert code == 2
    assert "refused" in err


def test_rep_file_loads_as_semibrick_in_both_commands(tmp_path, capsys):
    path = tmp_path / "r0.json"
    save(quasi_simple(QQ, QQ.of(0)), path)
    code, out, _ = run(capsys, "semibrick", "--members", str(path), "--json", "-")
    assert code == 0
    assert _json_tail(out)["payload"]["ok"] is True
    code, out, _ = run(capsys, "socle", "--module", "r0", "--semibrick", str(path))
    assert code == 0
    assert "socle dims = (1, 1)" in out


def test_quiver_file_as_semibrick_is_exit_one_in_both_commands(tmp_path, capsys):
    path = tmp_path / "k2.json"
    save(kronecker(2), path)
    errors = []
    for argv in (
        ["semibrick", "--members", str(path)],
        ["socle", "--module", "r0", "--semibrick", str(path)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert "neither a semibrick nor a rep document" in errors[0]


def test_rep_file_on_wrong_quiver_is_exit_two(tmp_path, capsys):
    from conftest import make_x11

    m = make_x11(kronecker(3), QQ, [QQ.of(1), QQ.of(0), QQ.of(0)])
    path = tmp_path / "m.json"
    save(m, path)
    code, _, err = run(
        capsys, "hom", "--quiver", "k2", "--left", str(path), "--right", "r0"
    )
    assert code == 2
    assert "different quiver" in err


def test_nonprime_field_is_exit_two(capsys):
    code, _, err = run(capsys, "hom", "--left", "r0", "--right", "r0", "--field", "f6")
    assert code == 2
    # a strong pseudoprime to the Miller-Rabin bases 2..37
    code, _, err = run(
        capsys, "hom", "--left", "r0", "--right", "r0", "--field", "f318665857834031151167461"
    )
    assert code == 2
    assert "318665857834031151167461 is not prime" in err


def test_field_beyond_the_exact_primality_bound_is_refused_at_once():
    """``--field f<2^89 - 1>`` exits 2 naming the bound, without a trial
    division up to sqrt(p) (about 2.5e13); in a subprocess with a timeout,
    so that a hang fails the test."""
    p = 2**89 - 1
    proc = subprocess.run(
        [sys.executable, "-m", "quiverfilt", "hom", "--left", "r0", "--right", "r0", "--field", f"f{p}"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert f"invalid input: characteristic {p} is not below" in proc.stderr


def test_budget_exhaustion_is_exit_three(capsys):
    code, _, err = run(
        capsys,
        "tower",
        "--base",
        "r0",
        "--semibrick",
        "r0",
        "--levels",
        "9",
        "--budget",
        "4",
    )
    assert code == 3
    assert "budget" in err


def test_uniserial_inapplicable_is_exit_two(capsys):
    # wild three-arrow towers fall outside the uniseriality test's scope
    code, _, err = run(
        capsys,
        "uniserial",
        "--quiver",
        "k3",
        "--base",
        "x11:1,0,0",
        "--semibrick",
        "x11:1,0,0",
        "--levels",
        "2",
    )
    assert code == 2


def test_inapplicable_check_has_its_own_prefix(capsys):
    code, _, err = run(
        capsys,
        "uniserial",
        "--quiver",
        "k3",
        "--base",
        "x11:1,0,0",
        "--semibrick",
        "x11:1,0,0",
        "--levels",
        "2",
    )
    assert code == 2
    assert err == "inapplicable: uniseriality needs dim Ext(base, base) = 1, got 2\n"


def test_undecided_search_has_its_own_prefix(monkeypatch, capsys):
    # check_semibrick asks is_isomorphic about every pair of members: the one
    # CLI path to UndecidedError.  No small input is known to exhaust that
    # search, so here the search gives up at once.
    def give_up(m, n):
        raise UndecidedError("isomorphism search space too large")

    monkeypatch.setattr(bricks, "is_isomorphic", give_up)
    code, out, err = run(capsys, "semibrick", "--members", "r0", "r1")
    assert code == 2
    assert out == ""
    assert err == "undecided: isomorphism search space too large\n"


def _saved_r0_documents(tmp_path):
    """R_0 over QQ saved as a rep and as a semibrick certificate."""
    r0 = quasi_simple(QQ, QQ.of(0))
    rep_path, sb_path = str(tmp_path / "r0.json"), str(tmp_path / "sb.json")
    save(r0, rep_path)
    save(check_semibrick([r0]), sb_path)
    return rep_path, sb_path


def test_field_disagreeing_with_a_file_is_exit_two(tmp_path, capsys):
    rep_path, sb_path = _saved_r0_documents(tmp_path)
    module, semibrick = f"module in {rep_path}", f"semibrick in {sb_path}"
    for argv, source in (
        (["brick", "--module", rep_path], module),
        (["hom", "--left", "r0", "--right", rep_path], module),
        (["semibrick", "--members", rep_path], module),
        (["semibrick", "--members", sb_path], semibrick),
        (["socle", "--module", "r0", "--semibrick", sb_path], semibrick),
    ):
        code, out, err = run(capsys, *argv, "--field", "f5")
        assert code == 2
        assert out == ""
        assert err == f"invalid input: {source} lives on a different field\n"
        assert run(capsys, *argv, "--field", "qq")[0] == 0
        assert run(capsys, *argv)[0] == 0


def test_quiver_disagreeing_with_a_semibrick_file_is_exit_two(tmp_path, capsys):
    rep_path, sb_path = _saved_r0_documents(tmp_path)
    for path, source in ((rep_path, "module"), (sb_path, "semibrick")):
        argv = ["semibrick", "--members", path]
        code, out, err = run(capsys, *argv, "--quiver", "k3")
        assert code == 2
        assert out == ""
        assert err == f"invalid input: {source} in {path} lives on a different quiver\n"
        assert run(capsys, *argv, "--quiver", "k2")[0] == 0


# ---------------------------------------------------------------------------
# the command table and its documentation


def test_readme_command_list_matches_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line") :]
    start = section.index("Commands:")
    listed = section[start : section.index(".\n", start)]
    actions = build_parser()._actions
    subs = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    assert re.findall(r"`([^`]+)`", listed) == list(subs.choices)


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quiverfilt", "hom", "--left", "r0", "--right", "rinf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dim Hom = 0" in proc.stdout
