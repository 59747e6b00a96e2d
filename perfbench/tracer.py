"""Spans around the public calls into each tightgroupoid layer, recorded
from outside the package.

While a `Recorder` is installed, each function in `TRACED` is replaced, in
every `tightgroupoid` module that holds it (or on its class, for methods),
by a wrapper that appends a span: name `<module>.<qualname>`, the id of
the instance being analyzed, the span that was open when it was called,
start, end, and whether it raised.  Calls made inside the package go
through module globals, so they are caught too: `analyze` calling
`tight_spectrum` records a spectrum span whose parent is the analyze
span.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import import_module

# (module, qualname) of every traced call; everything else a traced call
# does counts as its own (self) time.
TRACED = (
    ("dsl", "parse_spec"),
    ("semigroup", "from_partial_maps"),
    ("semigroup", "from_table"),
    ("spectrum", "tight_spectrum"),
    ("action", "standard_action"),
    ("action", "validate_action"),
    ("action", "is_topologically_free"),
    ("action", "is_irreducible"),
    ("action", "is_locally_contracting_action"),
    ("germs", "build_germ_groupoid"),
    ("germs", "GermGroupoid.is_hausdorff"),
    ("germs", "GermGroupoid.is_essentially_principal"),
    ("germs", "GermGroupoid.is_minimal"),
    ("germs", "GermGroupoid.locally_contracting_verdict"),
    ("criteria", "hausdorff_criterion"),
    ("criteria", "top_free_criterion"),
    ("criteria", "minimal_criterion"),
    ("criteria", "locally_contracting_criterion"),
    ("criteria", "analyze"),
    ("criteria", "verify_instance"),
    ("report", "build_document"),
    ("report", "emit_report"),
    ("report", "emit_dot"),
)

LAYERS = ("dsl", "semigroup", "spectrum", "action", "germs", "criteria", "report")

# Per-layer time metric -> the spans whose self time it sums.
LAYER_TIMES = {
    "dsl.parse_spec_s": ("dsl.parse_spec",),
    "semigroup.build_s": ("semigroup.from_partial_maps",),
    "semigroup.from_table_s": ("semigroup.from_table",),
    "spectrum.tight_spectrum_s": ("spectrum.tight_spectrum",),
    "action.standard_action_s": ("action.standard_action",),
    "action.validate_s": ("action.validate_action",),
    "action.direct_s": ("action.is_topologically_free", "action.is_irreducible",
                        "action.is_locally_contracting_action"),
    "germs.build_germ_groupoid_s": ("germs.build_germ_groupoid",),
    "germs.direct_s": ("germs.GermGroupoid.is_hausdorff",
                       "germs.GermGroupoid.is_essentially_principal",
                       "germs.GermGroupoid.is_minimal",
                       "germs.GermGroupoid.locally_contracting_verdict"),
    "criteria.hausdorff_s": ("criteria.hausdorff_criterion",),
    "criteria.top_free_s": ("criteria.top_free_criterion",),
    "criteria.minimal_s": ("criteria.minimal_criterion",),
    "criteria.loccontr_s": ("criteria.locally_contracting_criterion",),
    "criteria.analyze_unattributed_s": ("criteria.analyze",),
    "criteria.harness_s": ("criteria.verify_instance",),
    "report.build_document_s": ("report.build_document",),
    "report.emit_report_s": ("report.emit_report",),
    "report.emit_dot_s": ("report.emit_dot",),
}


@dataclass
class Span:
    name: str
    trace: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False


class Recorder:
    """Collects the spans of one round while installed; see the module
    docstring.  A span's parent is its index in `spans`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.trace = ""
        self._open: list[int] = []

    def mark(self, trace: str) -> None:
        """Tag the spans that follow with the id of one instance."""
        self.trace = trace

    def _wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.trace, open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                open_.pop()
        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "tightgroupoid" or key.startswith("tightgroupoid.")]
        undo = []
        try:
            for module_name, qualname in TRACED:
                owner = import_module(f"tightgroupoid.{module_name}")
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{module_name}.{qualname}", original)
                holders = [owner] if outer else \
                    [m for m in modules if vars(m).get(attr) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def dump(spans: list[Span], origin: float) -> list[dict]:
    """Spans as plain dicts, times in seconds since `origin`."""
    out = []
    for span in spans:
        row = asdict(span)
        row["start"] -= origin
        row["end"] -= origin
        out.append(row)
    return out


def self_times(spans: list[Span]) -> Counter:
    """Per span name, total duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    totals = Counter()
    for s, t in zip(spans, own):
        totals[s.name] += t
    return totals


def layer_metrics(spans: list[Span]) -> dict:
    """The per-layer time and error metrics of a set of spans."""
    own = self_times(spans)
    out = {metric: sum((own[name] for name in names), 0.0)
           for metric, names in LAYER_TIMES.items()}
    errors = Counter(s.name.split(".", 1)[0] for s in spans if s.error)
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
