"""Byte-for-byte golden outputs: CLI ``--json`` reports and one isomorphism witness.

The files under ``tests/golden/`` were recorded before the trusted
morphism-arithmetic path was introduced.  A refactor or speed-up must
reproduce them exactly; a deliberate output change re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says so in the change log.
"""

import os
import sys

import pytest

from quiverfilt import QQ, Matrix, Rep, is_isomorphic, linear_quiver, serialize
from quiverfilt.cli import main
from quiverfilt.linalg import inverse

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# R_0 + R_1 on the Kronecker quiver over QQ: End has dimension 2, and the
# brick report carries an idempotent witness.
BRICK_INPUT = os.path.join(GOLDEN, "inputs", "r0_plus_r1.json")

CLI_CASES = {
    "hom": ["hom", "--quiver", "k3", "--field", "f5", "--left", "p1", "--right", "p2"],
    "ext": ["ext", "--quiver", "k3", "--left", "x11:1,0,0", "--right", "x11:0,1,0"],
    "brick": ["brick", "--module", BRICK_INPUT],
    "semibrick": ["semibrick", "--members", "r0", "r1", "rinf"],
    "tower": ["tower", "--base", "r1", "--semibrick", "r1", "--levels", "4"],
    "endtower": ["endtower", "--base", "r0", "--semibrick", "r0", "--levels", "4"],
    "uniserial": ["uniserial", "--base", "r2", "--semibrick", "r2", "--levels", "3"],
    "preproj": [
        "preproj", "--quiver", "k2", "--field", "f101", "--base", "p1",
        "--semibrick", "r0", "r1", "rinf", "--levels", "3",
    ],
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


def _witness_text():
    iso, witness = is_isomorphic(*_twisted_a3_pair())
    assert iso
    return serialize(witness).encode()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_json_report_matches_golden(name, tmp_path, capsys):
    got = _cli_report(name, tmp_path / f"{name}.json")
    capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert got == fh.read()


def test_is_isomorphic_witness_matches_golden():
    with open(os.path.join(GOLDEN, "is_isomorphic_a3_witness.json"), "rb") as fh:
        assert _witness_text() == fh.read()


def _record():
    from quiverfilt import direct_sum, quasi_simple, save

    os.makedirs(os.path.dirname(BRICK_INPUT), exist_ok=True)
    save(direct_sum([quasi_simple(QQ, QQ.of(0)), quasi_simple(QQ, QQ.of(1))])[0], BRICK_INPUT)
    for name in CLI_CASES:
        _cli_report(name, os.path.join(GOLDEN, f"{name}.json"))
    with open(os.path.join(GOLDEN, "is_isomorphic_a3_witness.json"), "wb") as fh:
        fh.write(_witness_text())


if __name__ == "__main__":
    sys.exit(_record())
