"""Run a workload's timed phase, check its answers and compute the metrics.

The load is a closed loop with one client: one process, one thread, and
each operation starts only after the previous one returned.  A *pass* runs
every operation of the workload once; a run repeats passes until the next
one would end after ``--seconds``.  An operation counts as an error when it
gives a wrong verdict, raises an unexpected exception, or its output digest
differs from the recorded one or from the first pass of the run; as a
refusal when it raises ``UndecidedError`` or ``BudgetError``.  A failed
operation does not stop the pass, so both ratios keep the operations
attempted as their base.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import quiverfilt as qf

from clock import Clock, Sample
from spans import Tracer
from workloads import WrongAnswer

REFUSALS = (qf.UndecidedError, qf.BudgetError)


def digest_of(parts: list[str]) -> str:
    return hashlib.sha256("\x1e".join(parts).encode()).hexdigest()[:16]


@dataclass
class PassResult:
    labels: list[str] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    op_digests: list[str] = field(default_factory=list)  # or "refused"/"error"
    problems: dict[int, str] = field(default_factory=dict)  # op index -> why

    @property
    def wall(self) -> Sample:
        """The pass as one sample: the sum of its operations' latencies."""
        return Sample(self.samples[0].start, self.samples[-1].end,
                      sum(s.raw_s for s in self.samples),
                      sum(s.scaled_s for s in self.samples))

    @property
    def digest(self) -> str:
        return digest_of(self.op_digests)


def _attempt(fn, state):
    try:
        return "ok", digest_of(fn(state))
    except REFUSALS as exc:
        return "refused", f"{type(exc).__name__}: {exc}"
    except WrongAnswer as exc:
        return "error", f"wrong answer: {exc}"
    except Exception:  # any other exception is an error of the operation
        return "error", traceback.format_exc(limit=3)


def run_pass(clock: Clock, ops, expected: list[str] | None = None,
             tracer: Tracer | None = None) -> PassResult:
    """One pass over ``ops``; ``expected`` holds the recorded op digests."""
    if expected is not None and len(expected) != len(ops):
        raise ValueError(f"{len(ops)} operations but {len(expected)} recorded digests")
    result = PassResult()
    state: dict = {}
    for i, (label, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        (status, detail), sample = clock.measure(_attempt, fn, state)
        result.labels.append(label)
        result.samples.append(sample)
        if status != "ok":
            result.op_digests.append(status)
            result.problems[i] = f"{label}: {detail}"
            continue
        result.op_digests.append(detail)
        if expected is not None and expected[i] != detail:
            result.op_digests[i] = "error"
            result.problems[i] = f"{label}: digest {detail}, recorded {expected[i]}"
    return result


@dataclass
class RunResult:
    passes: list[PassResult]  # untraced passes
    traced: list[tuple[PassResult, Tracer]] = field(default_factory=list)

    def all_passes(self) -> list[PassResult]:
        return self.passes + [p for p, _ in self.traced]

    @property
    def attempted(self) -> int:
        return sum(len(p.samples) for p in self.all_passes())

    def problems(self, kind: str) -> list[str]:
        """Messages for every operation whose outcome is ``kind``.

        An operation whose digest differs from the same operation in the
        run's first pass is an error too: outputs must not depend on the
        pass, nor on tracing.
        """
        out = []
        first = self.passes[0].op_digests
        for n, p in enumerate(self.all_passes()):
            for i, d in enumerate(p.op_digests):
                if d == kind:
                    out.append(f"pass {n} op {i} {p.problems[i]}")
                elif kind == "error" and d not in ("refused", "error") \
                        and first[i] not in ("refused", "error") and d != first[i]:
                    out.append(f"pass {n} op {i} ({p.labels[i]}): digest {d}, "
                               f"first pass {first[i]}")
        return out

    @property
    def digest(self) -> str:
        return self.passes[0].digest


def run(clock: Clock, ops, seconds: float, expected=None, trace: bool = False) -> RunResult:
    """Repeat passes (untraced, or untraced then traced) for about ``seconds``.

    A new round starts only if it is expected to end before the deadline, so
    a run measures whole passes; the first round always runs.
    """
    deadline = time.perf_counter() + seconds
    result = RunResult([])
    while True:
        t0 = time.perf_counter()
        result.passes.append(run_pass(clock, ops, expected))
        if trace:
            tracer = Tracer(clock.work_time)
            tracer.install()
            try:
                result.traced.append((run_pass(clock, ops, expected, tracer), tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            clock.scale([s for p in result.all_passes() for s in p.samples])
            return result


# -- metrics -------------------------------------------------------------------


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile_band(values: list[float], lo: float, hi: float) -> float:
    """Mean of the sorted samples from quantile ``lo`` to quantile ``hi``.

    A single latency sample scatters by about 20% between runs on a shared
    core, and one order statistic inherits that.  The mean over a band of
    ranks centred on the quantile keeps its location and damps the scatter.
    """
    ranked = sorted(values)
    last = len(ranked) - 1
    return statistics.fmean(ranked[math.floor(lo * last) : math.ceil(hi * last) + 1])


def end_to_end(result: RunResult, setup: list[Sample], chained: bool) -> dict:
    """Metric name -> (value, unit, sample count, raw value or None).

    A query is one operation, or the whole pass when the workload's
    operations are ``chained`` (each needs the result of the one before).
    """
    passes = result.passes
    latencies = [p.wall for p in passes] if chained else [s for p in passes for s in p.samples]
    per_pass = 1 if chained else len(passes[0].samples)
    scaled = [s.scaled_s * 1000 for s in latencies]
    raw = [s.raw_s * 1000 for s in latencies]
    return {
        "setup_s": (statistics.median(s.scaled_s for s in setup), "s", len(setup),
                    statistics.median(s.raw_s for s in setup)),
        "wall_s": (statistics.median(p.wall.scaled_s for p in passes), "s", len(passes),
                   statistics.median(p.wall.raw_s for p in passes)),
        "queries_per_s": (statistics.median(per_pass / p.wall.scaled_s for p in passes),
                          "1/s", len(passes),
                          statistics.median(per_pass / p.wall.raw_s for p in passes)),
        "query_p50_ms": (quantile_band(scaled, 0.4, 0.6), "ms", len(scaled),
                         quantile_band(raw, 0.4, 0.6)),
        "query_p90_ms": (quantile_band(scaled, 0.85, 0.95), "ms", len(scaled),
                         quantile_band(raw, 0.85, 0.95)),
        "peak_rss_mib": (peak_rss_mib(), "MiB", 1, None),
    }


def _ratio(num, den, empty):
    return num / den if den else empty


# Layer metrics of the traced run, in the order they are reported.
_CALLED = ["linalg.rref", "linalg.solve", "linalg.nullspace_basis", "linalg.Matrix.mul",
           "reps.Morphism.init", "reps.compose", "reps.is_isomorphic", "homext.hom_basis",
           "homext.ExtSpace", "homext.ExtSpace.reduce", "bricks.end_algebra", "bricks.is_brick"]
_SELF_ONLY = ["reps.cokernel", "reps.subrep_from_spans", "homext.connecting_map",
              "homext.cocycle_of", "homext.extension_middle", "bricks.check_semibrick",
              "filtration.x_socle", "filtration.decompose_semisimple",
              "filtration.x_socle_filtration", "filtration.verify_filtration",
              "towers.tower", "towers.end_basis_of_ext", "towers.is_universal",
              "towers.end_ring_tower", "towers.uniserial_check",
              "tame.preprojective_tower_report", "formats.serialize"]
SEARCH = "reps.search_invertible_combination"
PER_LAYER = (
    [f"{n}.{k}" for n in _CALLED for k in ("calls", "self_s")]
    + [f"{n}.self_s" for n in _SELF_ONLY]
    + ["linalg.rref.cells", "linalg.rref.nnz_frac", "linalg.rref.max_bits",
       f"{SEARCH}.candidates", f"{SEARCH}.hit_ratio",
       "homext.hom_basis.distinct_ratio", "homext.ExtSpace.distinct_ratio",
       "bricks.is_brick.distinct_ratio", "bricks.end_algebra.table_entries",
       "formats.serialize.bytes", "trace.overhead_frac", "error_ratio", "refusal_ratio"]
)


def _pass_layers(p: PassResult, tracer: Tracer) -> dict:
    factor = p.wall.scaled_s / p.wall.raw_s if p.wall.raw_s else 1.0
    c = tracer.counts
    m = {}
    for name in _CALLED + _SELF_ONLY:
        m[f"{name}.calls"] = tracer.calls[name]
        m[f"{name}.self_s"] = tracer.self_s[name] * factor
    m["linalg.rref.cells"] = c["linalg.rref.cells"]
    m["linalg.rref.nnz_frac"] = _ratio(c["linalg.rref.nonzero"], c["linalg.rref.cells"], 0.0)
    m["linalg.rref.max_bits"] = tracer.maxima["linalg.rref.max_bits"]
    m[f"{SEARCH}.candidates"] = c[f"{SEARCH}.candidates"]
    m[f"{SEARCH}.hit_ratio"] = _ratio(c[f"{SEARCH}.hits"], c[f"{SEARCH}.candidates"], 0.0)
    for name in ("homext.hom_basis", "homext.ExtSpace", "bricks.is_brick"):
        # 1.0 when there are no calls: nothing is repeated.
        m[f"{name}.distinct_ratio"] = _ratio(len(tracer.distinct[name]), tracer.calls[name], 1.0)
    m["bricks.end_algebra.table_entries"] = c["bricks.end_algebra.table_entries"]
    m["formats.serialize.bytes"] = c["formats.serialize.bytes"]
    return m


def per_layer(result: RunResult) -> dict:
    """Layer metrics per pass: medians over the traced passes of the run."""
    per_pass = [_pass_layers(p, tracer) for p, tracer in result.traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced = statistics.median(p.wall.scaled_s for p in result.passes)
    traced = statistics.median(p.wall.scaled_s for p, _ in result.traced)
    out["trace.overhead_frac"] = traced / untraced - 1
    out["error_ratio"] = len(result.problems("error")) / result.attempted
    out["refusal_ratio"] = len(result.problems("refused")) / result.attempted
    return {k: out[k] for k in PER_LAYER}
