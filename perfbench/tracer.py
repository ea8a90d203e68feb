"""Spans around the calls between polarlink's layers, recorded from outside.

install() rebinds the names that polarlink's modules import from the
layer below (and the few public functions a layer calls on itself) to
timing wrappers, so no file of the program changes.  Spans are kept in
memory with name, start, end, parent and request id; counters are kept at
the same boundaries.  Layers are the package's modules: parse, polar,
ideals, oracle, link and report.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module whose namespace is rebound, name, span name).
_BINDINGS = (
    ("report", "parse_polynomial", "parse.parse_polynomial"),
    ("report", "gamma_profile", "polar.gamma_profile"),
    ("report", "jacobian_ideal", "polar.jacobian_ideal"),
    ("report", "polar_ideal", "polar.polar_ideal"),
    ("report", "dimension", "ideals.dimension"),
    ("report", "local_colength", "ideals.local_colength"),
    ("report", "mora_standard_basis", "ideals.mora_standard_basis"),
    ("report", "lambda_from_gamma", "link.lambda_from_gamma"),
    ("report", "chain_complex", "link.chain_complex"),
    ("report", "telescope_table", "link.telescope_table"),
    ("report", "morse_bounds", "link.morse_bounds"),
    ("report", "n1_exact_sequence", "link.n1_exact_sequence"),
    ("report", "betti_feasibility", "link.betti_feasibility"),
    ("report", "allowed_degrees", "link.allowed_degrees"),
    ("report", "default_cap", "oracle.default_cap"),
    ("report", "gamma_identity_audit", "oracle.gamma_identity_audit"),
    ("report", "stable_colength", "oracle.stable_colength"),
    ("report", "teissier_check", "oracle.teissier_check"),
    ("report", "verdict", "oracle.verdict"),
    ("polar", "polar_ideal", "polar.polar_ideal"),
    ("polar", "dimension", "ideals.dimension"),
    ("polar", "local_colength", "ideals.local_colength"),
    ("polar", "mora_standard_basis", "ideals.mora_standard_basis"),
    ("polar", "saturate", "ideals.saturate"),
    ("oracle", "local_colength", "ideals.local_colength"),
    ("oracle", "milnor_number", "polar.milnor_number"),
    ("oracle", "polar_ideal", "polar.polar_ideal"),
    ("ideals", "mora_standard_basis", "ideals.mora_standard_basis"),
    ("ideals", "local_colength", "ideals.local_colength"),
)

def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, request id].
        self.spans = []
        self.stack = []
        self.request = -1
        self.counters = Counter()
        self.deadline_spans = Counter()
        self.deadline_innermost = Counter()
        self._seen_ideals = set()
        self._polar_keys = set()
        self._wrapped = {}
        self.entry_points = None

    # --- recording -----------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.request])
            try:
                stack.append(index)
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                # A deadline can fire before the push; pop only our own entry.
                if stack and stack[-1] == index:
                    stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def start_request(self, request_id):
        self.request = request_id
        self.stack.clear()
        self._polar_keys = set()

    def deadline_fired(self):
        """Called from the deadline handler: charge every open span, and
        name the innermost one as the span the deadline interrupted."""
        for index in self.stack:
            self.deadline_spans[self.spans[index][0]] += 1
        if self.stack:
            self.deadline_innermost[self.spans[self.stack[-1]][0]] += 1

    # --- counters at the boundaries -------------------------------------

    def _on_saturate(self, args, result):
        self.counters["ideals.saturate.rounds"] += result[1] + 1

    def _on_mora(self, args, result):
        ideal = args[0]
        if ideal in self._seen_ideals:
            self.counters["ideals.mora_standard_basis.repeats"] += 1
        else:
            self._seen_ideals.add(ideal)

    def _on_polar_ideal(self, args, result):
        f, frame, k = args[:3]
        key = (f, frame.matrix, k)
        if key not in self._polar_keys:
            self._polar_keys.add(key)
            self.counters["polar.polar_ideal.distinct"] += 1

    def _on_stable_colength(self, args, result):
        self.counters["oracle.stable_colength.max_cap"] = max(
            self.counters["oracle.stable_colength.max_cap"], result.cap
        )

    # --- installation ----------------------------------------------------

    def install(self, modules):
        """Rebind the layer boundaries in `modules` (name -> module), and
        keep traced run_compute and canonical_json in `entry_points` for the
        request loop."""
        hooks = {
            "ideals.saturate": self._on_saturate,
            "ideals.mora_standard_basis": self._on_mora,
            "polar.polar_ideal": self._on_polar_ideal,
            "oracle.stable_colength": self._on_stable_colength,
        }
        for module_name, attr, span in _BINDINGS:
            module = modules[module_name]
            original = getattr(module, attr)
            wrapper = self._wrapped.get(span)
            if wrapper is None:
                wrapper = self.wrap(span, original, hooks.get(span))
                self._wrapped[span] = wrapper
            setattr(module, attr, wrapper)
        report = modules["report"]
        self.entry_points = (
            self.wrap("report.run_compute", report.run_compute),
            self.wrap("report.canonical_json", report.canonical_json),
        )

    # --- aggregation ---------------------------------------------------

    def summary(self):
        """Per span name: calls, busy time (outermost spans of that name
        only, so recursion is not counted twice) and self time; per layer:
        self time, which sums over layers to the time of the root spans."""
        # A span whose wrapper was interrupted before its try block never
        # closed (end is None); it timed nothing and is left out.
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        calls = Counter()
        busy = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        layer_busy = defaultdict(float)
        roots = 0.0
        for index, (name, start, end, parent, _) in enumerate(spans):
            if end is None:
                continue
            duration = end - start
            calls[name] += 1
            own = duration - child_time[index]
            self_s[name] += own
            layer_self[layer_of(name)] += own
            if parent < 0:
                roots += duration
            if not self._has_ancestor(index, lambda n: n == name):
                busy[name] += duration
            layer = layer_of(name)
            if not self._has_ancestor(index, lambda n: layer_of(n) == layer):
                layer_busy[layer] += duration
        return {
            "calls": calls,
            "busy": busy,
            "self": self_s,
            "layer_self": layer_self,
            "layer_busy": layer_busy,
            "roots_s": roots,
        }

    def _has_ancestor(self, index, match):
        parent = self.spans[index][3]
        while parent >= 0:
            if match(self.spans[parent][0]):
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )
