"""Spans and counts around twistknot's public functions, for the traced run.

``Tracer.installed()`` rebinds each public function listed in ``TARGETS``, in
every loaded ``twistknot`` module that refers to it, to a wrapper defined
here.  Calls the library makes internally therefore pass through the wrappers
too, so a caller's self time is its span minus the spans of the public
functions it called, measured on the same inputs in the same call.  The
library's files are not changed, and the bindings are restored on exit.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _runs_out(counts, result, _dur) -> None:
    counts["words.substitute.runs_out"] += len(result.runs)


def _shapes_found(counts, result, _dur) -> None:
    counts["criterion.match_it_shape.shapes_found"] += len(result)


def _cosets(counts, result, dur) -> None:
    counts["coset_enum.cosets_defined"] += result.cosets_defined
    counts[f"coset_enum.{result.outcome}.cosets"] += result.cosets_defined
    counts[f"coset_enum.{result.outcome}.ns"] += dur


#: (module, attribute, count hook) of every traced public function; a dotted
#: attribute is a method.  Span names are ``<module>.<function>``.
TARGETS = (
    ("words", "Word.substitute", _runs_out),
    ("words", "Word.cyclic_reduce", None),
    ("words", "is_conjugate", None),
    ("presentations", "tietze_eliminate", None),
    ("presentations", "class_in_h1", None),
    ("presentations", "homology", None),
    ("presentations", "alexander_polynomial", None),
    ("wirtinger", "builtin_link_L", None),
    ("wirtinger", "wirtinger_presentation", None),
    ("wirtinger", "peripheral_system", None),
    ("wirtinger", "add_twist_relations", None),
    ("twisted_torus", "closed_form", None),
    ("twisted_torus", "derive_from_diagram", None),
    ("twisted_torus", "verify_proof", None),
    ("criterion", "match_it_shape", _shapes_found),
    ("criterion", "decide", None),
    ("criterion", "check_family_slope", None),
    ("criterion", "minimal_integer_bound", None),
    ("coset_enum", "surgered_presentation", None),
    ("coset_enum", "todd_coxeter", _cosets),
)

class Tracer:
    """In-memory spans ``(id, parent, op, name, start_ns, end_ns)`` and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, hook=None):
        """Record one span; ``hook(counts, result, duration_ns)`` sees the result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        box: list = []
        start = perf_counter_ns()
        try:
            yield box
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op, name, start, end))
            self.counts[f"{name}.calls"] += 1
            if hook is not None and box:
                hook(self.counts, box[0], end - start)

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            with self.span(name, hook) as box:
                box.append(fn(*args, **kwargs))
            return box[0]

        return traced

    @contextmanager
    def installed(self):
        """Route every call of a traced function through a span while active."""
        swaps = []  # (namespace object, attribute, original)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "twistknot" or n.startswith("twistknot.")]
        for mod, attr, hook in TARGETS:
            home = sys.modules[f"twistknot.{mod}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = getattr(owner, fn_name)
                sites = [(owner, fn_name)]
            else:
                original = getattr(home, fn_name)
                sites = [(m, key) for m in modules for key, value in vars(m).items()
                         if value is original]
            wrapper = self._wrap(f"{mod}.{fn_name}", original, hook)
            for target, key in sites:
                swaps.append((target, key, original))
                setattr(target, key, wrapper)
        try:
            yield self
        finally:
            for target, key, original in reversed(swaps):
                setattr(target, key, original)

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name: each span minus its direct children."""
        child: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for span_id, _, _, name, start, end in self.spans:
            out[name] += end - start - child[span_id]
        return out
