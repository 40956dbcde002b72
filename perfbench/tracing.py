"""Per-layer call tracing, installed from outside the program.

The layers are sparselab's modules.  Every public function a layer module
defines, plus ``DiscreteSpace.ball`` and ``DiscreteSpace.ball_mass``, is
replaced by a wrapper in every ``sparselab`` module that holds a reference
to it (``sparselab.cli.cz_construct``, ``sparselab.verify.luxemburg_norm``,
``sparselab.domination.truncated_grand_maximal_local``, ...), so calls
between modules and inside one module both pass through the wrapper.

A timed wrapper records one span per call: name, start, end, parent span
and item.  Spans stay in memory and are written out once, when the run
ends.  A layer's self time is the duration of its spans minus the part
covered by their child spans.  The hottest leaves are only counted, not
timed (``COUNT_ONLY``): a span around each of their ~10^5 to 10^6 calls
per pass would distort the spans around them, and their time shows in the
self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = ("space", "dyadic", "weights", "operators", "domination", "verify",
          "cli")
ROOT = "cli.main"
COUNT_ONLY = ("weights.avg", "space.DiscreteSpace.ball",
              "space.DiscreteSpace.ball_mass")
METHODS = (("space", "DiscreteSpace", "ball"),
           ("space", "DiscreteSpace", "ball_mass"))
SPARSE_FORMS = ("operators.sparse_operator", "operators.sparse_first_order",
                "operators.sparse_higher_order", "operators.sparse_endpoint")

# Wrapped names each workload must call at least once per traced pass;
# a traced run in which one of them records no call fails, because the
# wrapper did not take hold where the program calls it.
EXPECTED_CALLS = {
    "dominate-wide": (
        "operators.truncated_grand_maximal_local",
        "operators.fractional_integral", "operators.ball_mass_kernel",
        "dyadic.build_shifted_adjacent", "dyadic.adjacent_cover",
        "space.build_grid_space", "space.DiscreteSpace.ball",
        "space.DiscreteSpace.ball_mass", "domination.cz_construct",
        "domination.certificate_lhs", "domination.certificate_rhs",
        "domination.coverage_audit", "weights.avg"),
    "dominate-tight": (
        "operators.truncated_grand_maximal_local",
        "operators.fractional_integral", "operators.ball_mass_kernel",
        "dyadic.build_shifted_adjacent", "dyadic.adjacent_cover",
        "space.build_grid_space", "domination.cz_construct",
        "domination.certificate_lhs", "domination.certificate_rhs",
        "domination.coverage_audit"),
    "verify-scale": (
        "weights.luxemburg_norm", "weights.avg", "weights.bmo_norm",
        "weights.muckenhoupt_ap", "operators.sparse_operator",
        "operators.fractional_integral", "operators.dyadic_maximal",
        "dyadic.select_witnesses", "dyadic.build_standard_lattice",
        "dyadic.build_shifted_adjacent", "space.build_grid_space",
        "space.doubling_constant", "verify.run_check"),
}


def _registry_ids():
    from sparselab.verify import registry_ids
    return registry_ids()


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    s, count, ratio = "s", "count", "ratio"
    spec = [
        ("operators.truncated_grand_maximal_local.total_s", s, "lower"),
        ("operators.truncated_grand_maximal_local.calls", count, "lower"),
        ("operators.truncated_grand_maximal_local.nonzero_ratio", ratio,
         "higher"),
        ("operators.fractional_integral.calls", count, "lower"),
        ("operators.fractional_integral.total_s", s, "lower"),
        ("operators.fractional_integral.computed_ops", "ops", "lower"),
        ("operators.ball_mass_kernel.calls", count, "lower"),
        ("operators.ball_mass_kernel.computed_bytes", "bytes", "lower"),
        ("operators.sparse_forms.calls", count, "lower"),
        ("operators.sparse_forms.total_s", s, "lower"),
        ("operators.dyadic_maximal.total_s", s, "lower"),
        ("operators.self_s", s, "lower"),
        ("weights.luxemburg_norm.calls", count, "lower"),
        ("weights.luxemburg_norm.total_s", s, "lower"),
        ("weights.avg.calls", count, "lower"),
        ("weights.bmo_norm.total_s", s, "lower"),
        ("weights.muckenhoupt_ap.total_s", s, "lower"),
        ("weights.self_s", s, "lower"),
        ("dyadic.build_shifted_adjacent.total_s", s, "lower"),
        ("dyadic.adjacent_cover.calls", count, "lower"),
        ("dyadic.adjacent_cover.total_s", s, "lower"),
        ("dyadic.select_witnesses.calls", count, "lower"),
        ("dyadic.select_witnesses.success_ratio", ratio, "higher"),
        ("dyadic.build_standard_lattice.total_s", s, "lower"),
        ("dyadic.self_s", s, "lower"),
        ("space.build_grid_space.total_s", s, "lower"),
        ("space.doubling_constant.total_s", s, "lower"),
        ("space.DiscreteSpace.ball.calls", count, "lower"),
        ("space.DiscreteSpace.ball_mass.calls", count, "lower"),
        ("space.self_s", s, "lower"),
        ("domination.certificate_lhs.calls", count, "lower"),
        ("domination.certificate_lhs.total_s", s, "lower"),
        ("domination.certificate_rhs.calls", count, "lower"),
        ("domination.cz_construct.self_s", s, "lower"),
        ("domination.coverage_audit.total_s", s, "lower"),
        ("domination.self_s", s, "lower"),
    ]
    spec += [(f"verify.run_check.{cid}.total_s", s, "lower")
             for cid in _registry_ids()]
    spec += [("verify.self_s", s, "lower"),
             ("cli.self_s", s, "lower"),
             ("trace.overhead_ratio", ratio, "lower")]
    return spec


class _Counter:
    __slots__ = ("calls", "nonzero", "errors", "computed")

    def __init__(self):
        self.calls = 0
        self.nonzero = 0
        self.errors = 0
        self.computed = 0

    def snapshot(self):
        return (self.calls, self.nonzero, self.errors, self.computed)


def _nonzero(counter, args, result):
    counter.nonzero += bool(np.any(result))


def _frac_ops(counter, args, result):
    space, fs = args[0], args[1]
    counter.computed += space.n ** (len(fs) + 1)


def _kernel_bytes(counter, args, result):
    counter.computed += 8 * args[0].n ** 2


def _check_label(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"verify.run_check.{spec.check_id}"


OBSERVERS = {
    "operators.truncated_grand_maximal_local": _nonzero,
    "operators.fractional_integral": _frac_ops,
    "operators.ball_mass_kernel": _kernel_bytes,
}
LABELS = {"verify.run_check": _check_label}


class Tracer:
    """Installs the wrappers, records spans and counts, and reduces one
    traced pass to the per-layer metrics."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent index, item id)
        self.counters = {}
        self.item = None
        self._stack = []  # indices of the open spans
        self._patches = []
        self._pass_start = None
        from sparselab.dyadic import WitnessSelectionError
        self._witness_error = WitnessSelectionError

    # -- installation ------------------------------------------------------

    def _targets(self):
        for layer in LAYERS[:-1]:
            module = importlib.import_module(f"sparselab.{layer}")
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    yield f"{layer}.{attr}", obj, None
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"sparselab.{layer}"),
                          cls_name)
            yield f"{layer}.{cls_name}.{attr}", getattr(cls, attr), cls

    def install(self):
        """Replace each target wherever a sparselab module refers to it."""
        self.counters[ROOT] = _Counter()
        self._root = self._wrap(ROOT, lambda fn, *args: fn(*args))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sparselab" or name.startswith("sparselab.")]
        for name, fn, owner in self._targets():
            self.counters[name] = _Counter()
            wrapper = self._wrap(name, fn)
            holders = [owner] if owner is not None else modules
            for holder in holders:
                for attr, obj in list(vars(holder).items()):
                    if obj is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def _wrap(self, name, fn):
        counter = self.counters[name]
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counter.calls += 1
                return fn(*args, **kwargs)
            return counted

        observe = OBSERVERS.get(name)
        label = LABELS.get(name)
        witness_error = self._witness_error
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            counter.calls += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except witness_error:
                counter.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, tracer.item)
            if observe is not None:
                observe(counter, args, result)
            return result
        return timed

    def root(self, item_id, fn, *args):
        """Run one item under the root span ``cli.main``."""
        self.item = item_id
        return self._root(fn, *args)

    # -- reduction ---------------------------------------------------------

    def begin_pass(self):
        self._pass_start = (len(self.spans),
                            {k: c.snapshot()
                             for k, c in self.counters.items()})

    def end_pass(self) -> dict:
        """Per-layer metrics of the spans and counts since begin_pass."""
        first, before = self._pass_start
        spans = self.spans[first:]
        delta = {}
        for key, counter in self.counters.items():
            old = before.get(key, (0, 0, 0, 0))
            delta[key] = [a - b for a, b in zip(counter.snapshot(), old)]

        names = [s[0] for s in spans]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        self_by_name, self_by_layer = {}, dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            own = s[2] - s[1] - child[i]
            self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + own
            self_by_layer[s[0].split(".", 1)[0]] += own

        by_name = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)

        def total(group) -> float:
            # outermost spans of the group only, so nesting is not counted
            # twice
            out = 0.0
            for name in group:
                for i in by_name.get(name, ()):
                    p = spans[i][3]
                    while p >= first and names[p - first] not in group:
                        p = spans[p - first][3]
                    if p < first:
                        out += spans[i][2] - spans[i][1]
            return out

        def calls(key):
            return delta[key][0]

        def ratio(num, den):
            return num / den if den else 0.0

        tgml = "operators.truncated_grand_maximal_local"
        sel = "dyadic.select_witnesses"
        m = {
            f"{tgml}.total_s": total({tgml}),
            f"{tgml}.calls": calls(tgml),
            f"{tgml}.nonzero_ratio": ratio(delta[tgml][1], calls(tgml)),
            f"{sel}.calls": calls(sel),
            f"{sel}.success_ratio": ratio(calls(sel) - delta[sel][2],
                                          calls(sel)),
            "operators.fractional_integral.computed_ops":
                delta["operators.fractional_integral"][3],
            "operators.ball_mass_kernel.computed_bytes":
                delta["operators.ball_mass_kernel"][3],
            "operators.sparse_forms.calls": sum(calls(k)
                                                for k in SPARSE_FORMS),
            "operators.sparse_forms.total_s": total(set(SPARSE_FORMS)),
            "domination.cz_construct.self_s":
                self_by_name.get("domination.cz_construct", 0.0),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        for key in delta:
            m.setdefault(f"{key}.calls", calls(key))
            m.setdefault(f"{key}.total_s", total({key}))
        for cid in _registry_ids():
            name = f"verify.run_check.{cid}"
            m[f"{name}.total_s"] = total({name})
        return m

    def missing_calls(self, workload: str, per_pass: dict) -> list:
        return [name for name in EXPECTED_CALLS[workload]
                if per_pass.get(f"{name}.calls", 0) == 0]

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,item\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{item}\n")


def median_metrics(passes: list) -> dict:
    """Metric-wise median over the traced passes of a run."""
    return {key: statistics.median(p[key] for p in passes)
            for key in passes[0]}
