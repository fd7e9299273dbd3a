"""Layer tracing from outside the program: wrap public functions, record spans.

Each traced name is one public function or method of a ``quiverfilt``
module.  ``Tracer.install`` replaces the function wherever the package binds
it: the defining module, every module that imported it by name, and the
package namespace; methods are replaced on their class.  ``uninstall``
restores the originals, so untraced passes run the unmodified program.

Spans (name, start, end, parent span, operation id) are kept in compact
arrays and written out once, at the end of the run.  Self time is a span's
duration minus the time its child spans cover.  Counters that need to look
at arguments or results (cells, nonzeros, bit sizes, distinct arguments)
run outside the span and their cost is taken off every enclosing span, so
self times describe the program, not the tracer; ``trace.overhead_frac``
reports what the tracer costs in total.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict

# (module, function) pairs traced wherever the package binds them.
FUNCTIONS = {
    "linalg": ["rref", "solve", "nullspace_basis"],
    "reps": ["compose", "is_isomorphic", "search_invertible_combination",
             "cokernel", "subrep_from_spans"],
    "homext": ["hom_basis", "connecting_map", "cocycle_of", "extension_middle"],
    "bricks": ["end_algebra", "is_brick", "check_semibrick"],
    "filtration": ["x_socle", "decompose_semisimple", "x_socle_filtration",
                   "verify_filtration"],
    "towers": ["tower", "end_basis_of_ext", "is_universal", "end_ring_tower",
               "uniserial_check"],
    "tame": ["preprojective_tower_report"],
    "formats": ["serialize"],
}
# (module, class, attribute, span name).
METHODS = [
    ("linalg", "Matrix", "mul", "linalg.Matrix.mul"),
    ("reps", "Morphism", "__init__", "reps.Morphism.init"),
    ("homext", "ExtSpace", "__init__", "homext.ExtSpace"),
    ("homext", "ExtSpace", "reduce", "homext.ExtSpace.reduce"),
]


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counters for the wrapped layer functions."""

    def __init__(self, work_time):
        self._work_time = work_time  # clock without calibration probes
        self._tracer_s = 0.0  # counter bookkeeping, taken off every span
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, child seconds]
        self.op_id = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # "name.counter" -> value
        self.maxima = defaultdict(int)
        self.distinct = defaultdict(set)
        self._patches: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["quiverfilt"]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "quiverfilt" or n.startswith("quiverfilt."))]
        for mod_name, fn_names in FUNCTIONS.items():
            module = getattr(package, mod_name)
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapped)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ---------------------------------------------------------------

    def _now(self) -> float:
        return self._work_time() - self._tracer_s

    def _wrap(self, name: str, fn):
        index = len(self.names)  # each name is wrapped once per tracer
        self.names.append(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                t0 = tracer._work_time()
                args = before(tracer, name, args)
                tracer._tracer_s += tracer._work_time() - t0
            span_id = len(tracer.span_start)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer.span_name.append(index)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op_id)
            start = tracer._now()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._now()
                tracer._stack.pop()
                tracer.span_end[span_id] = end
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if after is not None:
                t0 = tracer._work_time()
                after(tracer, name, args, result)
                tracer._tracer_s += tracer._work_time() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    COLUMNS = ["pass", "name", "start", "end", "parent", "op"]

    def write(self, out, pass_index: int) -> None:
        """Write every span to the text file ``out``, one JSON array per line."""
        for i in range(len(self.span_start)):
            out.write(json.dumps([pass_index, self.names[self.span_name[i]],
                                  self.span_start[i], self.span_end[i],
                                  self.span_parent[i], self.span_op[i]]) + "\n")


# -- counters -----------------------------------------------------------------


def _rref_input(tracer, name, args):
    m = args[0]
    zero = m.field.zero
    tracer.counts[name + ".cells"] += m.rows * m.cols
    tracer.counts[name + ".nonzero"] += sum(1 for x in m.entries if x != zero)
    return args


def _rref_output(tracer, name, args, result):
    reduced, _ = result
    if reduced.entries:
        bits = max(_bits(x) for x in reduced.entries)
        tracer.maxima[name + ".max_bits"] = max(tracer.maxima[name + ".max_bits"], bits)


def _distinct(tracer, name, args):
    tracer.distinct[name].add(args)
    return args


def _search_input(tracer, name, args):
    build = args[2]  # (field, nfree, build[, radius])

    def counted(coeffs):
        tracer.counts[name + ".candidates"] += 1
        return build(coeffs)

    return args[:2] + (counted,) + args[3:]


def _search_output(tracer, name, args, result):
    if result[0] is not None:
        tracer.counts[name + ".hits"] += 1


def _end_algebra_output(tracer, name, args, result):
    tracer.counts[name + ".table_entries"] += result.dimension ** 2


def _serialize_output(tracer, name, args, result):
    tracer.counts[name + ".bytes"] += len(result)


def _ext_space_input(tracer, name, args):
    tracer.distinct[name].add(args[1:])  # args[0] is the new ExtSpace itself
    return args


_BEFORE = {
    "linalg.rref": _rref_input,
    "homext.hom_basis": _distinct,
    "homext.ExtSpace": _ext_space_input,
    "bricks.is_brick": _distinct,
    "reps.search_invertible_combination": _search_input,
}
_AFTER = {
    "linalg.rref": _rref_output,
    "reps.search_invertible_combination": _search_output,
    "bricks.end_algebra": _end_algebra_output,
    "formats.serialize": _serialize_output,
}
