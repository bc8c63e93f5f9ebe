"""Spans around calls into groupsym's modules, installed from outside the package.

A module-level function is wrapped at every module binding that holds it
(``groupsym.applications.convolve`` as well as ``groupsym.lifted.convolve``),
because callers resolve the name in their own module's globals.  Methods are
wrapped on the class that defines them and on each subclass that overrides
them.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once the sample ends.
Very hot calls (``LinearAction.apply``, ``ConvexWeights.__init__``) are only
counted, so the trace stays small.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

# layer span name -> (module, attribute) of the functions it covers
FUNCTION_SPANS = {
    "config.parse": [("groupsym.config", "parse_config")],
    "groups.build": [
        ("groupsym.groups", "symmetric_group"),
        ("groupsym.groups", "cyclic_group"),
        ("groupsym.groups", "group_from_json"),
    ],
    "groups.same_group": [("groupsym.groups", "same_group")],
    "lifted.convolve": [("groupsym.lifted", "convolve")],
    "lifted.certificate": [("groupsym.lifted", "find_mixing_certificate")],
    "lifted.diagnostics": [
        ("groupsym.lifted", "lyapunov_norm"),
        ("groupsym.lifted", "relative_entropy"),
    ],
    "lifted.csv_write": [("groupsym.lifted", "write_trajectory_csv")],
    "lifted.csv_read": [("groupsym.lifted", "read_trajectory_csv")],
    "actions.residual": [("groupsym.actions", "fixed_point_residual")],
    "actions.step": [("groupsym.actions", "step")],
    "actions.orbit": [("groupsym.actions", "symmetrizer")],
    "actions.build": [
        ("groupsym.actions", "permutation_action"),
        ("groupsym.actions", "regular_action"),
        ("groupsym.actions", "dft_action"),
        ("groupsym.actions", "conjugation_action"),
        ("groupsym.actions", "axis_permutation_action"),
        ("groupsym.actions", "subsystem_permutation_unitaries"),
    ],
    "actions.encode": [("groupsym.actions", "encode_state")],
    "harness.result_doc": [("groupsym.harness", "result_to_dict")],
    "harness.execute": [("groupsym.harness", "execute")],
    "harness.run_from_config": [("groupsym.harness", "run_from_config")],
    "harness.verify": [("groupsym.harness", "verify")],
    "applications.engine": [("groupsym.applications", "run_symmetrization")],
    "applications.sampling": [("groupsym.applications", "run_random_state_generation")],
}

# layer span name -> (module, class, method); the method is wrapped on the
# class and on every subclass that overrides it, as each schedule kind does.
METHOD_SPANS = {
    "actions.orbit": [("groupsym.actions", "LinearAction", "orbit")],
    "schedules.realize": [("groupsym.schedules", "Schedule", "realize")],
}

METHOD_COUNTS = {
    "actions.apply_calls": ("groupsym.actions", "LinearAction", "apply"),
    "lifted.weights_objects": ("groupsym.lifted", "ConvexWeights", "__init__"),
}


class Tracer:
    """Records spans and counts for one sample; install() patches, uninstall() restores."""

    def __init__(self, sample_id: int):
        self.sample_id = sample_id
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.table_bytes = 0
        self.steps_realized = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {"groups.build": self._after_build, "schedules.realize": self._after_realize}.get(name)
        before = self._wrap_monitors if name == "applications.engine" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_build(self, group) -> None:
        self.table_bytes += group.table.nbytes

    def _after_realize(self, signal) -> None:
        self.steps_realized += len(signal)

    def _wrap_monitors(self, kwargs: dict) -> dict:
        monitors = kwargs.get("monitors")
        if monitors:
            kwargs = dict(kwargs)
            kwargs["monitors"] = {
                key: self._wrap("applications.monitor", fn) for key, fn in monitors.items()
            }
        return kwargs

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the traced functions across the loaded groupsym modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "groupsym"]
        for name, targets in FUNCTION_SPANS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, binding, wrapped)
        for name, targets in METHOD_SPANS.items():
            for module_name, cls_name, attr in targets:
                for cls in _overriding(getattr(sys.modules[module_name], cls_name), attr):
                    self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for name, (module_name, cls_name, attr) in METHOD_COUNTS.items():
            for cls in _overriding(getattr(sys.modules[module_name], cls_name), attr):
                self._set(cls, attr, self._count(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "a") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "sample": self.sample_id,
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

    def layers(self) -> Dict[str, float]:
        """Per-layer totals: outermost-span time per layer, self times, and counts."""
        spans = self.spans
        names = [s[0] for s in spans]
        duration = [s[2] - s[1] for s in spans]
        child_time = defaultdict(float)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += duration[i]

        def ancestors(i):
            parent = spans[i][3]
            while parent >= 0:
                yield names[parent]
                parent = spans[parent][3]

        total = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        certificate_convolves = 0
        for i, name in enumerate(names):
            calls[name] += 1
            self_time[name] += duration[i] - child_time[i]
            up = set(ancestors(i))
            if name not in up:
                total[name] += duration[i]
            if name == "lifted.convolve" and "lifted.certificate" in up:
                certificate_convolves += 1

        return {
            "config.parse_s": total["config.parse"],
            "groups.build_s": total["groups.build"],
            "groups.builds": calls["groups.build"],
            "groups.table_mb": self.table_bytes / 2**20,
            "groups.same_group_s": total["groups.same_group"],
            "schedules.realize_s": total["schedules.realize"],
            "schedules.steps_realized": self.steps_realized,
            "lifted.convolve_s": total["lifted.convolve"],
            "lifted.convolve_calls": calls["lifted.convolve"],
            "lifted.weights_objects": self.counts["lifted.weights_objects"],
            "lifted.certificate_s": total["lifted.certificate"],
            "lifted.certificate_convolves": certificate_convolves,
            "lifted.diagnostics_s": total["lifted.diagnostics"],
            "lifted.csv_write_s": total["lifted.csv_write"],
            "lifted.csv_read_s": total["lifted.csv_read"],
            "actions.residual_s": total["actions.residual"],
            "actions.apply_calls": self.counts["actions.apply_calls"],
            "actions.step_s": total["actions.step"],
            "actions.orbit_s": total["actions.orbit"],
            "actions.build_s": total["actions.build"],
            "actions.encode_s": total["actions.encode"],
            "harness.result_doc_s": total["harness.result_doc"],
            "harness.write_s": total["harness.execute"] - total["harness.run_from_config"],
            "applications.engine_self_s": self_time["applications.engine"],
            "applications.monitors_s": total["applications.monitor"],
            "applications.sampling_self_s": self_time["applications.sampling"],
            "harness.verify_self_s": self_time["harness.verify"],
        }


def _overriding(cls: type, attr: str) -> list:
    """cls and its subclasses, at any depth, that define attr themselves."""
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if attr in current.__dict__:
            found.append(current)
        pending.extend(current.__subclasses__())
    return found
