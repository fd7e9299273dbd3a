"""wildbench: timings, memory peaks and output digests on the wild towers.

Run from the repository root:

    python3 wildbench/run.py                         # every operation, best of 3
    python3 wildbench/run.py --repeat 5 --out wildbench/out/change.json
    python3 wildbench/run.py --only endtower-k3-qq-6 --repeat 7
    python3 wildbench/run.py --quick                 # one untimed pass, digests only
    python3 wildbench/run.py --compare wildbench/out/parent.json wildbench/out/change.json
    python3 -m unittest discover -s wildbench -p "test_*.py"   # self-test

The inputs are fixed: the towers of X = x11:1,0,0 on K3 and of
x11:1,0,0,0 on K4, over QQ and GF(101), and the P^2(GF(5)) semi-brick
{x11:1,0,0, x11:0,1,0, x11:0,0,1} on K3 with its tower over the first
member.  Each tower is built once, untimed, up to the height that the
default dimension budget of 512 allows: 7 levels on K3, 5 on K4 and 4 on
P^2.  The operations are the tower itself, ``hom_basis(Y(n), Y(n))``,
``end_algebra(Y(n))`` and ``end_ring_tower`` on a prefix of the tower; see
``OPERATIONS``.

Each operation is run ``--repeat`` times in this one process and reports
its best time, then once more under ``tracemalloc`` for its peak of traced
allocations, and the digest of its output: the first 16 hex digits of the
SHA-256 of the output's canonical strings.  ``reference.json`` holds the
recorded digests; every run compares against it and exits with status 1 on
a mismatch.  ``--quick`` runs each operation once, with no memory pass.
``--out`` writes the results as JSON, which ``--compare A B`` reads back,
printing the per-operation ratios B/A.  The harness uses only the standard
library and imports quiverfilt from ``src/`` of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")


def _import_program():
    """Import quiverfilt from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "quiverfilt", "__init__.py")):
        print(f"wildbench: no quiverfilt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import quiverfilt

    return quiverfilt


qf = _import_program()
from quiverfilt.towers import Tower  # noqa: E402

# input name -> (quiver arity, field, the x11 scalars of each member, height)
INPUTS = {
    "k3-qq": (3, "qq", [(1, 0, 0)], 7),
    "k3-gf101": (3, 101, [(1, 0, 0)], 7),
    "k4-qq": (4, "qq", [(1, 0, 0, 0)], 5),
    "k4-gf101": (4, 101, [(1, 0, 0, 0)], 5),
    "p2-gf5": (3, 5, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 4),
}

# operation name -> (kind, input name, level or height)
OPERATIONS = {}
for _name in INPUTS:
    OPERATIONS[f"tower-{_name}-{INPUTS[_name][3]}"] = ("tower", _name, INPUTS[_name][3])
for _name in ("k3-qq", "k3-gf101"):
    for _n in (5, 6, 7):
        OPERATIONS[f"hom-{_name}-y{_n}"] = ("hom", _name, _n)
for _name in ("k4-qq", "k4-gf101"):
    OPERATIONS[f"hom-{_name}-y4"] = ("hom", _name, 4)
for _name in ("k3-qq", "k3-gf101"):
    for _n in (6, 7):
        OPERATIONS[f"end_algebra-{_name}-y{_n}"] = ("end_algebra", _name, _n)
for _name, _h in (("k3-qq", 6), ("k3-gf101", 6), ("k4-qq", 4), ("k4-gf101", 4), ("p2-gf5", 4)):
    OPERATIONS[f"endtower-{_name}-{_h}"] = ("endtower", _name, _h)


def digest_of(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def _x11(quiver, field, scalars):
    src, tgt = quiver.vertices[1], quiver.vertices[0]
    maps = {aid: qf.Matrix.from_rows(field, [[field.of(c)]]) for (aid, _, _), c in zip(quiver.arrows, scalars)}
    return qf.Rep(quiver, field, {tgt: 1, src: 1}, maps)


_BUILT: dict = {}


def _input(name: str):
    """``(base, semi-brick, tower)`` of an input, built once and untimed."""
    if name not in _BUILT:
        arity, field, members, height = INPUTS[name]
        f = qf.QQ if field == "qq" else qf.GF(field)
        quiver = qf.kronecker(arity)
        reps = [_x11(quiver, f, c) for c in members]
        sb = qf.check_semibrick(reps)
        _BUILT[name] = (reps[0], sb, qf.tower(reps[0], sb, height))
    return _BUILT[name]


def _fmt(field, values) -> str:
    return ",".join(field.format(x) for x in values)


def _tower_parts(t):
    parts = [qf.serialize(level) for level in t.levels]
    for ses in t.sequences:
        parts += [qf.serialize(ses.incl), qf.serialize(ses.proj)]
    return parts


def _morphism_parts(f, morphisms):
    return [_fmt(f, g.blocks[v].entries) for g in morphisms for v in g.source.quiver.vertices]


def _algebra_parts(alg):
    f = alg.field
    return [_fmt(f, alg.unit_coordinates)] + [_fmt(f, c) for row in alg.multiplication_table for c in row]


def _endtower_parts(et):
    f = et.tower.base.field
    parts = [json.dumps(et.level_reports, sort_keys=True), str(et.ok)]
    for alg in et.algebras:
        parts += _algebra_parts(alg)
    parts += [_fmt(f, psi.entries) for psi in et.psi_maps]
    parts += [_fmt(f, vec) for basis in et.ideal_bases for vec in basis]
    return parts


def _call(kind: str, name: str, n: int):
    """The timed call of an operation: a thunk on its prepared input, and the
    function that turns its result into the digest's strings (untimed)."""
    base, sb, t = _input(name)
    f = base.field
    if kind == "tower":
        return (lambda: qf.tower(base, sb, n)), _tower_parts
    if kind == "hom":
        y = t.levels[n - 1]
        return (lambda: qf.hom_basis(y, y)), lambda basis: _morphism_parts(f, basis)
    if kind == "end_algebra":
        y = t.levels[n - 1]
        return (lambda: qf.end_algebra(y)), _algebra_parts
    prefix = Tower(t.base, t.semibrick, t.levels[:n], t.sequences[: n - 1])
    return (lambda: qf.end_ring_tower(prefix)), _endtower_parts


def run_operation(name: str, repeat: int, memory: bool) -> dict:
    kind, inp, n = OPERATIONS[name]
    thunk, parts_of = _call(kind, inp, n)
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = thunk()
        runs.append(time.perf_counter() - start)
        del out
    peak = None
    if memory:
        tracemalloc.start()
        out = thunk()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        out = thunk()
    return {
        "best_s": round(min(runs), 6) if runs else None,
        "runs_s": [round(x, 6) for x in runs],
        "tracemalloc_peak_kib": None if peak is None else round(peak / 1024, 1),
        "digest": digest_of(parts_of(out)),
    }


def run(names, repeat: int, memory: bool, reference: dict, log=sys.stdout) -> dict:
    results, mismatches = {}, []
    for name in names:
        res = run_operation(name, repeat, memory)
        want = reference.get(name)
        res["recorded"] = want
        if want is not None and want != res["digest"]:
            mismatches.append(name)
        results[name] = res
        best = "-" if res["best_s"] is None else f"{res['best_s']:.4f} s"
        peak = "-" if res["tracemalloc_peak_kib"] is None else f"{res['tracemalloc_peak_kib']:.0f} KiB"
        mark = "ok" if want == res["digest"] else ("unrecorded" if want is None else "DIFFERS")
        print(f"{name:28s} best {best:>10s}  peak {peak:>11s}  digest {res['digest']} {mark}", file=log)
    return {
        "python": platform.python_version(),
        "repeat": repeat,
        "operations": results,
        "mismatches": mismatches,
    }


def compare(path_a: str, path_b: str, log=sys.stdout) -> list:
    """Per-operation ratios B/A of the best times and of the peaks, for the
    operations in both files; returns the rows printed."""
    with open(path_a) as fh:
        a = json.load(fh)["operations"]
    with open(path_b) as fh:
        b = json.load(fh)["operations"]
    rows = []
    print(f"{'operation':28s} {'A best_s':>10s} {'B best_s':>10s} {'B/A':>7s} {'peak B/A':>9s}  digests", file=log)
    for name in a:
        if name not in b:
            continue
        ra, rb = a[name], b[name]
        time_ratio = rb["best_s"] / ra["best_s"] if ra["best_s"] and rb["best_s"] is not None else None
        pa, pb = ra["tracemalloc_peak_kib"], rb["tracemalloc_peak_kib"]
        peak_ratio = pb / pa if pa and pb is not None else None
        same = ra["digest"] == rb["digest"]
        rows.append((name, time_ratio, peak_ratio, same))

        def show(x, spec):
            return "-" if x is None else format(x, spec)

        print(
            f"{name:28s} {show(ra['best_s'], '10.4f')} {show(rb['best_s'], '10.4f')} "
            f"{show(time_ratio, '7.3f')} {show(peak_ratio, '9.3f')}  {'equal' if same else 'DIFFER'}",
            file=log,
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per operation (best is reported)")
    parser.add_argument("--quick", action="store_true", help="one untimed run per operation, digests only")
    parser.add_argument("--only", nargs="+", default=None, help="operation names to run")
    parser.add_argument("--out", default=None, help="write the results as JSON to this path")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print the ratios B/A of two result files")
    parser.add_argument("--record", action="store_true", help="write the digests into reference.json")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    names = args.only or list(OPERATIONS)
    for name in names:
        if name not in OPERATIONS:
            parser.error(f"unknown operation {name!r}")
    with open(REFERENCE) as fh:
        reference = json.load(fh)["digests"]
    result = run(names, 0 if args.quick else args.repeat, not args.quick, {} if args.record else reference)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.record:
        reference.update({name: res["digest"] for name, res in result["operations"].items()})
        with open(REFERENCE, "w") as fh:
            json.dump({"digests": dict(sorted(reference.items()))}, fh, indent=2)
            fh.write("\n")
        return 0
    if result["mismatches"]:
        print(f"wildbench: digests differ from reference.json: {', '.join(result['mismatches'])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
