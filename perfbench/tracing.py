"""Span tracing of segact from outside the program.

``Tracer.install`` replaces every public module-level function of every
``segact`` module, in each module that imports it by name, with a
wrapper that records a span (name, tag, start, end, parent) in memory.
Public methods of the package's classes are wrapped too; the methods of
``Loss`` and ``Activation`` subclasses are recorded under one shared name
(``losses.value``, ``activations.derivative``, ...) and tagged with the
instance's ``name``, so the private training loss counts as ``dice``.

Worker processes forked by the grid's process pool inherit the wrappers.
Each worker starts an empty span list and writes it to a spool file when
it exits; ``collect`` reads those files back.  Workers started by
``spawn`` import segact afresh and record nothing; their metrics then
read 0.

A span's self time is its duration minus the durations of its direct
children in the same process.  Functions are traced from one thread.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

from workloads import ACTIVATIONS, LOSSES

# Parameters whose value tags a span, so that per-activation and
# per-strategy figures can be told apart.
TAG_PARAMETERS = ("activation", "strategy")

# Span name, tag, start, end, parent index (-1 for a root).
NAME, TAG, START, END, PARENT = range(5)


def _tag_from_value(value):
    name = getattr(value, "name", value)
    return name if isinstance(name, str) else None


def _function_tagger(fn):
    """Return a callable that extracts the tag of one call, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for index, param in enumerate(params):
        if param.name in TAG_PARAMETERS:
            default = None if param.default is inspect.Parameter.empty \
                else param.default

            def tag(args, kwargs, index=index, key=param.name,
                    default=default):
                if len(args) > index:
                    return _tag_from_value(args[index])
                return _tag_from_value(kwargs.get(key, default))
            return tag
    return None


def _method_tag(args, kwargs):
    return _tag_from_value(args[0]) if args else None


def _all_subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


class Tracer:
    """Records spans around the public functions of segact."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.spans: list = []
        self.stack: list = []
        self.wrapped: set = set()
        self._patches: list = []
        self._installed = False

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, tagger):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            span = [name, tagger(args, kwargs) if tagger else None,
                    perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        self.wrapped.add(name)
        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap segact's public functions and methods."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("segact")
        modules = [package] + [
            importlib.import_module(f"segact.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]

        losses = importlib.import_module("segact.losses")
        activations = importlib.import_module("segact.activations")
        grouped = {cls: "losses" for cls in
                   [losses.Loss, *_all_subclasses(losses.Loss)]}
        grouped.update({cls: "activations" for cls in
                        [activations.Activation,
                         *_all_subclasses(activations.Activation)]})

        replacements = {}  # id(original function) -> wrapper
        classes = set(grouped)
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ \
                        or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(
                        f"{short}.{attr}", obj, _function_tagger(obj))
                elif inspect.isclass(obj):
                    classes.add(obj)

        for cls in sorted(classes, key=lambda c: (c.__module__,
                                                  c.__qualname__)):
            short = cls.__module__.rpartition(".")[2]
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj):
                    continue
                if attr.startswith("_") and attr != "__call__":
                    continue
                if cls in grouped:
                    method = "value" if attr == "__call__" else attr
                    name = f"{grouped[cls]}.{method}"
                else:
                    name = f"{short}.{cls.__name__}.{attr}"
                self._patch(cls, attr, self._wrap(name, obj, _method_tag))

        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(module, attr, wrapper)

        mp_util.register_after_fork(self, Tracer._start_in_child)
        self._installed = True

    def uninstall(self):
        """Put every original function back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    # -- worker processes -------------------------------------------------

    def _start_in_child(self):
        if not self._installed:
            return
        self.spans = []
        self.stack = []
        mp_util.Finalize(None, self._spool, exitpriority=10)

    def _spool(self):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def collect(self):
        """Spans of this process and of every worker that has exited,
        as a list of per-process span lists.  Spool files are removed."""
        groups = [self.spans]
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("spans-*.json")):
                with open(path, encoding="utf-8") as fh:
                    groups.append(json.load(fh))
                path.unlink()
        return groups


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.

def _matches(pattern, name):
    """A pattern ending in '.' names every span under that prefix."""
    return name.startswith(pattern) if pattern.endswith(".") \
        else name == pattern


class SpanTable:
    """Durations, self times and ancestor names of recorded spans."""

    def __init__(self, groups):
        self.by_name = {}  # name -> [(tag, duration, self time, ancestors)]
        for spans in groups:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    child_time[span[PARENT]] += span[END] - span[START]
            ancestors = []
            for i, span in enumerate(spans):
                parent = span[PARENT]
                names = frozenset() if parent < 0 else \
                    ancestors[parent] | {spans[parent][NAME]}
                ancestors.append(names)
                duration = span[END] - span[START]
                self.by_name.setdefault(span[NAME], []).append(
                    (span[TAG], duration, duration - child_time[i], names))

    def select(self, pattern, tag=None, inside=None):
        for name, rows in self.by_name.items():
            if _matches(pattern, name):
                for row in rows:
                    if (tag is None or row[0] == tag) and \
                            (inside is None or inside in row[3]):
                        yield row

    def total(self, pattern, **kw):
        return sum(row[1] for row in self.select(pattern, **kw))

    def self_total(self, pattern, **kw):
        return sum(row[2] for row in self.select(pattern, **kw))

    def count(self, pattern, **kw):
        return sum(1 for _ in self.select(pattern, **kw))

    def mean_ms(self, pattern, **kw):
        durations = [row[1] for row in self.select(pattern, **kw)]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0


TRAIN = "network.train_network"
BACKWARD = "network.backward"
CHECK = "validation.check_prediction_target"


def layer_metric_specs():
    """(metric, unit, span names it needs, function of the span table).

    Totals and counts are per traced round; ``_ms`` figures are means
    per call.
    """
    specs = [
        ("datagen.generate_s", "s", ["datagen.generate"],
         lambda t: t.total("datagen.generate")),
        ("network.backward_ms", "ms", [BACKWARD],
         lambda t: t.mean_ms(BACKWARD)),
    ]
    for act in ACTIVATIONS:
        specs.append((f"network.backward_ms.{act}", "ms", [BACKWARD],
                      lambda t, a=act: t.mean_ms(BACKWARD, tag=a)))
    specs += [
        ("network.forward_ms", "ms", ["network.forward"],
         lambda t: t.mean_ms("network.forward")),
        ("network.forward_calls", "count", ["network.forward"],
         lambda t: t.count("network.forward")),
        ("network.adam_step_ms", "ms", ["network.adam_step"],
         lambda t: t.mean_ms("network.adam_step")),
        ("network.train_network_self_s", "s", [TRAIN],
         lambda t: t.self_total(TRAIN)),
        ("estimator.predict_proba_ms", "ms",
         ["estimator.PixelClassifier.predict_proba"],
         lambda t: t.mean_ms("estimator.PixelClassifier.predict_proba")),
    ]
    for method in ("value", "grad"):
        for loss in LOSSES:
            specs.append((
                f"losses.{method}_ms.{loss}", "ms",
                [f"losses.{method}", TRAIN],
                lambda t, m=method, l=loss: t.mean_ms(
                    f"losses.{m}", tag=l, inside=TRAIN)))

    def activation_ms(t, act):
        durations = [row[1] for name in ("activations.value",
                                         "activations.derivative")
                     for row in t.select(name, tag=act, inside=TRAIN)]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    for act in ACTIVATIONS:
        specs.append((f"activations.ms.{act}", "ms",
                      ["activations.value", "activations.derivative", TRAIN],
                      lambda t, a=act: activation_ms(t, a)))

    def checks_per_step(t):
        steps = t.count(BACKWARD)
        return t.count(CHECK, inside=BACKWARD) / steps if steps else 0.0

    specs += [
        ("validation.checks_per_step", "checks/step", [CHECK, BACKWARD],
         checks_per_step),
        ("validation.check_s", "s", [CHECK],
         lambda t: t.total(CHECK)),
        ("metrics.kde_s", "s", ["metrics.kde_conditional"],
         lambda t: t.total("metrics.kde_conditional")),
        ("metrics.dice_sweep_s", "s", ["metrics.best_threshold_dice"],
         lambda t: t.total("metrics.best_threshold_dice")),
        ("metrics.reliability_even_s", "s", ["metrics.reliability"],
         lambda t: t.total("metrics.reliability", tag="evenly-spaced")),
        ("metrics.reliability_adaptive_s", "s", ["metrics.reliability"],
         lambda t: t.total("metrics.reliability", tag="adaptive")),
        ("metrics.nll_s", "s", ["metrics.nll"],
         lambda t: t.total("metrics.nll")),
        ("metrics.dice_at_threshold_calls", "count",
         ["metrics.dice_at_threshold"],
         lambda t: t.count("metrics.dice_at_threshold")),
        ("harness.run_experiment_self_s", "s", ["harness.run_experiment"],
         lambda t: t.self_total("harness.run_experiment")),
        ("harness.summarize_ms", "ms", ["harness.summarize"],
         lambda t: t.mean_ms("harness.summarize")),
        ("harness.emit_report_self_s", "s", ["harness.emit_report"],
         lambda t: t.self_total("harness.emit_report")),
        ("plots.self_s", "s", ["plots."],
         lambda t: t.self_total("plots.")),
        ("svg.write_ms", "ms", ["svg.write"],
         lambda t: t.mean_ms("svg.write")),
        ("storage.write_records_ms", "ms", ["storage.write_records"],
         lambda t: t.mean_ms("storage.write_records")),
        ("cli.metrics_self_s", "s", ["cli.cmd_metrics"],
         lambda t: t.self_total("cli.cmd_metrics")),
    ]
    return specs


def layer_metrics(groups, wrapped):
    """Per-layer metrics, plus the metrics whose functions are absent
    from the program and those whose functions did not run."""
    table = SpanTable(groups)
    metrics, absent, idle = {}, [], []
    for name, unit, needs, measure in layer_metric_specs():
        missing = [n for n in needs
                   if not any(_matches(n, w) for w in wrapped)]
        if missing:
            absent.append({"metric": name, "missing": missing})
            value = 0.0
        else:
            value = float(measure(table))
            if not any(_matches(needs[0], s) for s in table.by_name):
                idle.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent, idle
