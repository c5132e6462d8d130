"""Span tracing from outside the library.

`Tracer.install` replaces every public function of the reglinked modules
with a wrapper, at every module attribute it can be called through (the
library imports by name, e.g. `from .qalgebra import bipoly_gcd` in
`murraymiller`, so one function may sit under several modules), plus the
methods in `METHODS`.  Each call records a span (name, start, end,
parent) in one flat array; `uninstall` puts the original objects back.

A call interrupted by a missed deadline is dropped with its spans and
counts, leaving one `bench.deadline` span for the time it took; that
span belongs to no layer, as it is time spent waiting for the deadline.

Per-layer self time: a span's self time is its duration minus the
durations of its direct children.  Each span belongs to the layer of the
nearest span on its call path, itself included, whose function is listed
in `LAYER_OF`; spans outside every listed call path belong to `bench`,
the benchmark's own code.  So `qalgebra.gcd_s` is the time inside
`bipoly_gcd` wherever it is called from, and `murraymiller.triangularize_s`
is the rest of `triangularize`, including unlisted helpers it calls.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

ROOT_LAYER = "bench"
DEADLINE_SPAN = "bench.deadline"

# function (module.qualname) -> the per-layer time metric it starts
LAYER_OF = {
    "partitions.count_all_class_series": "partitions.sweep_s",
    "partitions.count_class_series": "partitions.sweep_s",
    "partitions.partitions_of": "partitions.enumerate_s",
    "partitions.satisfies_nandi": "partitions.predicate_s",
    "partitions.satisfies_nandi_mult": "partitions.predicate_s",
    "partitions.in_class": "partitions.predicate_s",
    "automata.dfa_from_regex": "automata.dfa_build_s",
    "linked.state_for_class": "linked.state_id_s",
    "linked.derive_system": "linked.derive_system_s",
    "linked.series_from_system": "linked.transfer_series_s",
    "linked.member": "linked.member_s",
    "murraymiller.triangularize": "murraymiller.triangularize_s",
    "murraymiller.eliminate": "murraymiller.eliminate_s",
    "murraymiller.normalize_equation": "murraymiller.normalize_s",
    "qalgebra.bipoly_gcd": "qalgebra.gcd_s",
    "qalgebra.QSeries.invert": "qalgebra.series_invert_s",
    "qseries.solve_equation": "qseries.solve_s",
    "qseries.nandi_product": "qseries.product_s",
    "qseries.double_sum": "qseries.double_sum_s",
    "qseries.slater_check": "qseries.identity_checks_s",
    "qseries.euler_check": "qseries.identity_checks_s",
    "qseries.remark_single_sum_check": "qseries.identity_checks_s",
    "qseries.transform_chain": "qseries.transform_chain_s",
    "qseries.closed_form_i": "qseries.transform_chain_s",
    "qseries.class_equation": "qseries.class_equation_s",
    "qseries.equation_residual": "qseries.residual_s",
    "cli.main": "cli.self_s",
}

# class methods wrapped besides the module-level functions
METHODS = (("qalgebra", "QSeries", "invert"),)


def _equation_sizes(eq):
    polys = [c.num for c in eq.coeffs]
    return {
        "murraymiller.eq_order": eq.order,
        "murraymiller.eq_terms": sum(len(p.terms) for p in polys),
        "murraymiller.eq_max_deg_x": max(p.degree_x() for p in polys),
        "murraymiller.eq_max_deg_q": max(p.degree_q() for p in polys),
    }


# function -> counts taken from its result; summed over a run, except the
# `_max_` counts, which keep the largest value seen
COUNTS_OF = {
    "partitions.count_all_class_series":
        lambda r: {"partitions.class_members": sum(sum(c) for c in r.values())},
    "partitions.count_class_series":
        lambda r: {"partitions.class_members": sum(r)},
    "partitions.in_class": lambda r: {"partitions.class_members": int(r)},
    "automata.dfa_from_regex": lambda r: {"automata.dfa_states": r.num_states},
    "linked.derive_system": lambda r: {"linked.system_dim": len(r.labels)},
    "linked.member": lambda r: {"linked.member_calls": 1},
    "murraymiller.triangularize": lambda r: {"murraymiller.l_prime": r[0]},
    "murraymiller.normalize_equation": _equation_sizes,
    "qalgebra.bipoly_gcd": lambda r: {"qalgebra.gcd_calls": 1},
    "qalgebra.QSeries.invert": lambda r: {"qalgebra.series_invert_calls": 1},
}

TIME_METRICS = sorted(set(LAYER_OF.values()) | {ROOT_LAYER + ".self_s"})
COUNT_METRICS = sorted({
    "partitions.class_members", "automata.dfa_states", "linked.system_dim",
    "linked.member_calls", "murraymiller.l_prime", "murraymiller.eq_order",
    "murraymiller.eq_terms", "murraymiller.eq_max_deg_x",
    "murraymiller.eq_max_deg_q", "qalgebra.gcd_calls",
    "qalgebra.series_invert_calls",
})

WRAPPED = "__perfbench_original__"


def _home_name(fn):
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__}"


def _is_public_function(obj):
    """A plain or lru-cached function defined in reglinked, not private."""
    return ((inspect.isfunction(obj) or hasattr(obj, "cache_clear"))
            and (getattr(obj, "__module__", None) or "").startswith("reglinked.")
            and not obj.__name__.startswith("_"))


def installed_wrappers(modules):
    """Attribute paths of the given modules that hold a tracing wrapper."""
    found = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if hasattr(obj, WRAPPED):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{m}"
                          for m, v in vars(obj).items() if hasattr(v, WRAPPED)]
    return found


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._saved = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counts (the wrappers stay installed)."""
        # span i is spans[4i:4i+4] = (name id, parent index, start, end);
        # one flat array, so that recording a span is a single extend and a
        # deadline signal cannot leave the fields of a span misaligned
        self.spans = array("d")
        self.stack = [-1]
        self.counts = {}

    # -- recording --------------------------------------------------------

    def name_id(self, name):
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def open(self, sid):
        idx = len(self.spans) >> 2
        self.spans.extend((sid, self.stack[-1], time.perf_counter(), 0.0))
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[4 * idx + 3] = time.perf_counter()
        self.stack.pop()

    def mark(self):
        """State to go back to if the call that follows is interrupted."""
        return (len(self.stack), len(self.spans) >> 2, dict(self.counts),
                time.perf_counter())

    def discard(self, mark):
        """Drop the spans and counts recorded since `mark`, wherever in the
        wrappers the interrupting exception struck, and record the time
        since `mark` as one `bench.deadline` span."""
        depth, first, counts, start = mark
        del self.stack[depth:]
        del self.spans[4 * first:]
        self.counts = counts
        self.spans.extend((self.name_id(DEADLINE_SPAN), self.stack[-1], start,
                           time.perf_counter()))

    def count(self, values):
        c = self.counts
        for k, v in values.items():
            if "_max_" in k:
                c[k] = max(c.get(k, v), v)
            else:
                c[k] = c.get(k, 0) + v

    def wrap(self, name, fn):
        sid = self.name_id(name)
        counter = COUNTS_OF.get(name)
        open_, close = self.open, self.close

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the work of producing each item
            # lands where the consumer asked for it
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(sid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if counter is not None:
                    self.count(counter(result))
                return result

        setattr(wrapper, WRAPPED, fn)
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, lib):
        """Wrap every public function of `lib.modules` at each module
        attribute that holds it, and the methods in METHODS."""
        wrappers = {}
        for mod in lib.modules:
            for attr, obj in list(vars(mod).items()):
                if not _is_public_function(obj):
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = self.wrap(_home_name(obj), obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, w)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(getattr(lib, mod_name), cls_name)
            fn = vars(cls)[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", fn))

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self):
        """Self time per layer and the counts, for the spans recorded since
        the last reset.  Spans must be closed."""
        out = {m: 0.0 for m in TIME_METRICS}
        out.update(layer_self_times(self.names, self.spans))
        for m in COUNT_METRICS:
            out[m] = self.counts.get(m, 0)
        return out

    def function_table(self):
        """Per function: calls and self time (duration minus children)."""
        sp = self.spans
        child = _child_time(sp)
        table = {}
        for i in range(len(sp) >> 2):
            row = table.setdefault(self.names[int(sp[4 * i])], [0, 0.0])
            row[0] += 1
            row[1] += sp[4 * i + 3] - sp[4 * i + 2] - child[i]
        return {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(table.items())}


def _child_time(sp):
    child = [0.0] * (len(sp) >> 2)
    for i in range(len(child)):
        p = int(sp[4 * i + 1])
        if p >= 0:
            child[p] += sp[4 * i + 3] - sp[4 * i + 2]
    return child


def layer_self_times(names, sp):
    """{layer metric: self time} over the flat span array `sp`, layers
    assigned as in the module docstring.  Parents precede their children."""
    child = _child_time(sp)
    layer = [None] * len(child)
    out = {}
    for i in range(len(child)):
        name = names[int(sp[4 * i])]
        if name == DEADLINE_SPAN:
            continue
        own = LAYER_OF.get(name)
        p = int(sp[4 * i + 1])
        if own is None:
            own = layer[p] if p >= 0 else ROOT_LAYER + ".self_s"
        layer[i] = own
        out[own] = out.get(own, 0.0) + (sp[4 * i + 3] - sp[4 * i + 2] - child[i])
    return out
