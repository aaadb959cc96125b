"""Span tracing of the hhcert layers, installed from outside the package.

Every public function of each hhcert module is wrapped at every module
attribute that refers to it, so calls made through an imported name (for
example ``bounds.check_hypothesis`` or ``quadrature.integrate_1d`` inside
``integrate_2d``) are recorded as well.  Each call becomes one span (name,
start, end, parent) kept in compact in-memory arrays; self time is a span's
duration minus the duration of its direct children.  A few wrapped calls also
record the counters their arguments or results carry.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("catalog", "quadrature", "bounds", "kernel", "means", "sampling", "cli")

# Bound-certification entry points: integrations below them count per case.
_CERTIFY = ("bounds.midpoint_gap", "bounds.hh_sandwich", "bounds.bound_theorem2",
            "bounds.bound_theorem3", "bounds.bound_kirmaci_ozdemir")
_CASE_ARGS = ("bounds.bound_theorem2", "bounds.bound_theorem3",
              "bounds.bound_kirmaci_ozdemir", "bounds.hh_sandwich")


class Tracer:
    """Records spans for wrapped hhcert functions; install once per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_op = array("i")
        self.stack = [-1]
        self.op = -1
        # Per-span notes taken from arguments or results of selected calls.
        self.quad_results: dict[int, tuple[int, bool]] = {}
        self.scan_keys: dict[int, tuple] = {}
        self.scan_samples = 0
        self.case_keys: set[tuple] = set()

    def install(self) -> None:
        modules = {name: sys.modules[f"hhcert.{name}"] for name in LAYERS}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for other_name, other in sys.modules.items():
                    if other_name != "hhcert" and not other_name.startswith("hhcert."):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapped)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        note = self._note_hook(name)
        stack = self.stack
        s_name, s_parent, s_start, s_end, s_op = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.span_op)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(idx)
            s_parent.append(stack[-1])
            s_op.append(self.op)
            s_end.append(0.0)
            stack.append(sid)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[sid] = clock()
                stack.pop()
            if note is not None:
                note(sid, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _note_hook(self, name: str):
        if name in ("quadrature.integrate_1d", "quadrature.integrate_2d"):
            def note(sid, args, kwargs, result):
                self.quad_results[sid] = (result.subdivisions, result.converged)
            return note
        if name == "catalog.check_hypothesis":
            def note(sid, args, kwargs, result):
                fd, iv, q = args[:3]
                grid = kwargs.get("grid_points", args[3] if len(args) > 3 else 257)
                self.scan_keys[sid] = ("hypothesis", fd.label, iv.a, iv.b, q, grid)
            return note
        if name == "catalog.check_convexity":
            def note(sid, args, kwargs, result):
                g, iv = args[:2]
                grid = kwargs.get("grid_points", args[2] if len(args) > 2 else 257)
                # A direct scan is keyed by its callable; one under
                # check_hypothesis takes the hypothesis key instead.
                self.scan_keys[sid] = ("direct", id(g), iv.a, iv.b, grid)
                self.scan_samples += result.samples
            return note
        if name in _CASE_ARGS:
            def note(sid, args, kwargs, result):
                fd, iv = args[:2]
                self.case_keys.add((self.op, fd.label, iv.a, iv.b))
            return note
        return None

    # ------------------------------------------------------------ analysis

    def metrics(self, bytes_out: int, op_kinds: list[str]):
        """Per-layer metrics from the recorded spans, and a breakdown by op kind.

        ``op_kinds[i]`` is the kind of the op traced while ``self.op == i``.
        """
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        parent = self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]

        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        under_2d = [False] * n
        under_cert = [False] * n
        for i in range(n):
            name = names[i]
            calls[name] += 1
            own = dur[i] - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            p = parent[i]
            if p >= 0:
                under_2d[i] = under_2d[p] or names[p] == "quadrature.integrate_2d"
                under_cert[i] = under_cert[p] or names[p] in _CERTIFY

        top_1d = inner_1d = 0
        top_1d_self = 0.0
        subdivisions = nonconv_1d = nonconv_2d = 0
        # Per op: integrations under certification spans, cases, scans and
        # the distinct scan keys, for the breakdown by op kind.
        cert_1d: dict[int, int] = defaultdict(int)
        for sid, (sub, conv) in self.quad_results.items():
            if names[sid] == "quadrature.integrate_2d":
                nonconv_2d += not conv
            elif under_2d[sid]:
                inner_1d += 1
            else:
                top_1d += 1
                top_1d_self += dur[sid] - child[sid]
                subdivisions += sub
                nonconv_1d += not conv
                if under_cert[sid]:
                    cert_1d[self.span_op[sid]] += 1
        cases: dict[int, int] = defaultdict(int)
        for op, *_ in self.case_keys:
            cases[op] += 1
        # A scan under check_hypothesis takes its parent's key.  Uniqueness
        # is counted per op: a scan repeated across ops is not shared work.
        scans: dict[int, int] = defaultdict(int)
        keys: dict[int, set] = defaultdict(set)
        for sid in range(n):
            if names[sid] != "catalog.check_convexity":
                continue
            p = parent[sid]
            if p >= 0 and names[p] == "catalog.check_hypothesis":
                key = self.scan_keys.get(p, p)
            else:
                key = self.scan_keys.get(sid, sid)
            op = self.span_op[sid]
            scans[op] += 1
            keys[op].add(key)

        by_kind: dict[str, dict[str, float]] = {}
        for kind in sorted(set(op_kinds)):
            ops = [i for i, k in enumerate(op_kinds) if k == kind]
            k_cases = sum(cases[i] for i in ops)
            k_scans = sum(scans[i] for i in ops)
            by_kind[kind] = {
                "bounds.integrations_per_case":
                    sum(cert_1d[i] for i in ops) / k_cases if k_cases else 0.0,
                "catalog.scan_unique_ratio":
                    sum(len(keys[i]) for i in ops) / k_scans if k_scans else 0.0,
            }
        total_cases = sum(cases.values())
        total_scans = sum(scans.values())
        metrics = {
            "catalog.check_convexity.self_s": self_s["catalog.check_convexity"],
            "catalog.check_convexity.calls": calls["catalog.check_convexity"],
            "catalog.check_hypothesis.calls": calls["catalog.check_hypothesis"],
            "catalog.scan_samples": self.scan_samples,
            "catalog.scan_unique_ratio":
                sum(len(k) for k in keys.values()) / total_scans if total_scans else 0.0,
            "quadrature.integrate_1d.calls": top_1d,
            "quadrature.integrate_1d.self_s": top_1d_self,
            "quadrature.integrate_1d.subdivisions": subdivisions,
            "quadrature.integrate_1d.nonconverged": nonconv_1d,
            "bounds.self_s": layer_self["bounds"],
            "bounds.midpoint_gap.calls": calls["bounds.midpoint_gap"],
            "bounds.hh_sandwich.calls": calls["bounds.hh_sandwich"],
            "bounds.integrations_per_case":
                sum(cert_1d.values()) / total_cases if total_cases else 0.0,
            "quadrature.integrate_2d.calls": calls["quadrature.integrate_2d"],
            "quadrature.integrate_2d.self_s": self_s["quadrature.integrate_2d"],
            "quadrature.integrate_2d.total_s":
                sum(dur[i] for i in range(n) if names[i] == "quadrature.integrate_2d"),
            "quadrature.integrate_2d.inner_calls": inner_1d,
            "quadrature.integrate_2d.nonconverged": nonconv_2d,
            "kernel.kernel_m.calls": calls["kernel.kernel_m"],
            "kernel.kernel_m.self_s": self_s["kernel.kernel_m"],
            "means.check_proposition.calls": calls["means.check_proposition"],
            "means.self_s": layer_self["means"],
            "sampling.draw_interval.calls": calls["sampling.draw_interval"],
            "sampling.draw_interval.self_s": self_s["sampling.draw_interval"],
            "cli.self_s": layer_self["cli"],
            "cli.bytes_out": bytes_out,
        }
        return metrics, by_kind
