"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces each public layer function listed in `SPANS`
with a timing wrapper, at every module binding under `decomplab` that holds
it (`from .solver import exact_decompose` makes a second binding), and puts
every original back on exit.  A wrapper records its call's self time: its
duration minus the time spent in wrapped callees.  Each job in a traced pass
is a root span owned by the benchmark, so the self times of all layers plus
the benchmark's own self time add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MARK = "__perfbench_span__"


def _count_parsed(counts, args, kwargs, result, exc, seconds, top):
    if result is not None:
        counts["graphio.parsed_edges"] += result.e


def _count_copies(counts, args, kwargs, result, exc, seconds, top):
    if result is not None:
        counts["embeddings.copies"] += len(result)


def _count_pinned(counts, args, kwargs, result, exc, seconds, top):
    counts["embeddings.pinned_calls"] += 1
    counts["embeddings.pinned_hits"] += result is not None


def _count_search(counts, args, kwargs, result, exc, seconds, top):
    if result is None:
        return
    if result.status == "indeterminate":
        counts["solver.budget_nodes"] += result.nodes
        counts["solver.budget_s"] += seconds
    else:
        counts["solver.search_nodes"] += result.nodes


def _count_verified(counts, args, kwargs, result, exc, seconds, top):
    counts["solver.verify_copies"] += len(args[0].copies)


def _count_greedy(counts, args, kwargs, result, exc, seconds, top):
    # only the jobs' own greedy runs; cover_down's bulk pass is its own layer
    if result is not None and top:
        counts["solver.greedy_leftover_edges"] += result.leftover.e


def _count_cells(counts, args, kwargs, result, exc, seconds, top):
    rows = args[0]
    counts["lp.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_refused(counts, args, kwargs, result, exc, seconds, top):
    counts["lp.refused"] += type(exc).__name__ == "SizeGuardError"


def _count_absorber(counts, args, kwargs, result, exc, seconds, top):
    if result is not None:
        counts["gadgets.vertices"] += result.a.n


def _count_residue(counts, args, kwargs, result, exc, seconds, top):
    if result is not None:
        vortex = args[2] if len(args) > 2 else kwargs["vortex"]
        inner = set(vortex.sets[-1])
        counts["pipeline.outside_residue"] += sum(
            1 for u, v in result.leftover.edges
            if u not in inner or v not in inner)


# (module, attribute or Class.attribute, layer span, counter hook)
SPANS = [
    ("decomplab.graphs", "Graph.__init__", "graphs.build", None),
    ("decomplab.graphs", "complete_graph", "graphs.build", None),
    ("decomplab.graphio", "parse_edge_list", "graphio.parse_edge_list",
     _count_parsed),
    ("decomplab.graphio", "parse_certificate", "graphio.parse_certificate",
     None),
    ("decomplab.graphio", "serialize_edge_list", "graphio.serialize", None),
    ("decomplab.graphio", "serialize_certificate", "graphio.serialize", None),
    ("decomplab.embeddings", "enumerate_embeddings", "embeddings.enumerate",
     _count_copies),
    ("decomplab.embeddings", "find_embedding", "embeddings.pinned",
     _count_pinned),
    ("decomplab.solver", "candidate_copies", "solver.candidates", None),
    ("decomplab.solver", "exact_decompose", "solver.search", _count_search),
    ("decomplab.solver", "verify_decomposition", "solver.verify",
     _count_verified),
    ("decomplab.solver", "greedy_decompose", "solver.greedy", _count_greedy),
    ("decomplab.solver", "fractional_decompose", "solver.fractional_build",
     _count_refused),
    ("decomplab.lp", "solve_equalities_nonneg", "lp.rational", _count_cells),
    ("decomplab.lp", "solve_equalities_box_float", "lp.float", _count_cells),
    ("decomplab.divisibility", "check_divisibility", "divisibility.check",
     None),
    ("decomplab.extremal", "generate_extremal", "extremal.generate", None),
    ("decomplab.extremal", "obstruction_check", "extremal.check", None),
    ("decomplab.gadgets.absorbers", "build_absorber", "gadgets.build",
     _count_absorber),
    ("decomplab.gadgets.types", "verify_absorber", "gadgets.verify", None),
    ("decomplab.pipeline", "find_vortex", "pipeline.vortex", None),
    ("decomplab.pipeline", "verify_vortex", "pipeline.vortex", None),
    ("decomplab.pipeline", "cover_down", "pipeline.cover_down",
     _count_residue),
]


def program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "decomplab"
                                  or name.startswith("decomplab."))]


def _owner_and_name(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def wrapped_bindings() -> list:
    """Every (module, name) under decomplab that holds a span wrapper."""
    found = []
    for m in program_modules():
        for name, value in vars(m).items():
            if getattr(value, MARK, False):
                found.append((m.__name__, name))
    for module, attr in {(m, a) for m, a, _, _ in SPANS if "." in a}:
        owner, name = _owner_and_name(module, attr)
        if getattr(vars(owner)[name], MARK, False):
            found.append((f"{module}.{owner.__name__}", name))
    return found


class Tracer:
    """Self time and calls per span, plus the hooks' counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.bench_self_s = 0.0
        self._children = []       # child time accumulated per open span
        self._saved = []          # (owner, name, original) to restore

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.bench_self_s = 0.0

    def _wrap(self, fn, span, hook):
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = len(children) == 1
            children.append(0.0)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                seconds = time.perf_counter() - t0
                self.self_s[span] += seconds - children.pop()
                self.calls[span] += 1
                if children:
                    children[-1] += seconds
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc, seconds, top)

        setattr(wrapper, MARK, True)
        return wrapper

    @contextmanager
    def installed(self):
        modules = program_modules()
        try:
            for module, attr, span, hook in SPANS:
                owner, name = _owner_and_name(module, attr)
                original = vars(owner)[name]
                wrapper = self._wrap(original, span, hook)
                if owner is not sys.modules[module]:     # a class attribute
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapper)
                    continue
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, binding, original))
                            setattr(m, binding, wrapper)
            yield self
        finally:
            while self._saved:
                owner, name, original = self._saved.pop()
                setattr(owner, name, original)

    def begin_job(self):
        """Open the root span of one job; its self time is the benchmark's."""
        self._children.append(0.0)

    def end_job(self, seconds: float):
        """Close the root span with the job's measured duration."""
        self.bench_self_s += seconds - self._children.pop()
