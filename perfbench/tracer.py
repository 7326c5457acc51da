"""Per-layer spans for the traced run; untraced runs never import this.

The tracer wraps public functions of `pathprophet` where they are looked
up: in the defining module, in every `pathprophet` module that imported
them by name, and on the class for `Oracle` methods.  Nothing under
`src/` changes, and `uninstall` restores every original.

A span's self time is its duration minus the durations of its child
spans.  An oracle query (`expected_opt`, `edge_probabilities`,
`path_distribution`, `conditional_choice_distribution`) that answers
from the oracle's cache opens no child span; it is a lookup, so it stays
in its caller's self time instead of counting as annotation.  Spans are
folded into per-kind totals as they close and handed out per job by
`take`; there is no concurrency, so no span waits on another.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute or Class.method, span kind)
TARGETS = (
    ("model", "enumerate_realizations", "model.enumerate"),
    ("model", "sample_realization", "model.sample"),
    ("model", "load_instance", "model.parse"),
    ("model", "validate_instance", "model.validate"),
    ("oracle", "Oracle.expected_opt", "oracle.query"),
    ("oracle", "Oracle.edge_probabilities", "oracle.query"),
    ("oracle", "Oracle.path_distribution", "oracle.query"),
    ("oracle", "Oracle.conditional_choice_distribution", "oracle.query"),
    ("oracle", "Oracle.opt_path", "oracle.opt_path"),
    ("oracle", "Oracle.optimal_online_value", "oracle.online"),
    ("cover", "min_path_cover", "cover.min_path_cover"),
    ("policies", "alpha_schedule", "policies.prepare"),
    ("policies", "feasibility_probabilities", "policies.prepare"),
    ("policies", "prepare_general_cover", "policies.prepare"),
    ("policies", "build_disjoint_plan", "policies.prepare"),
    ("policies", "evaluate_focal_policy", "policies.engine"),
    ("policies", "run_modified_width1", "policies.walk"),
    ("policies", "run_width1_unlabeled", "policies.walk"),
    ("policies", "run_width1_labeled", "policies.walk"),
    ("policies", "run_general_cover_policy", "policies.walk"),
    ("policies", "run_disjoint_paths_policy", "policies.walk"),
    ("simulate", "monte_carlo_estimate", "simulate.mc"),
    ("simulate", "competitive_report", "simulate.report"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self, modules: dict[str, Any]):
        self._modules = modules
        self._stack: list[list[Any]] = []  # [kind, child seconds, child spans]
        self._patched: list[tuple[Any, str, Any]] = []
        self._totals: defaultdict[str, float] = defaultdict(float)

    def take(self) -> dict[str, float]:
        """Totals since the last call: `<kind>.self_s`, `<kind>.total_s`,
        `<kind>.calls`, plus `model.realizations` and
        `policies.cond_law_calls` (cached law lookups made by walkers)."""
        out = dict(self._totals)
        self._totals.clear()
        return out

    def _wrap(self, kind: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack, totals, clock = self._stack, self._totals, time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [kind, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
            parent = stack[-1] if stack else None
            name = kind
            if kind == "oracle.query":
                if frame[2] == 0:  # cache hit: a lookup, left in the caller's self time
                    if parent is not None and parent[0] == "policies.walk":
                        totals["policies.cond_law_calls"] += 1
                    return out
                name = "oracle.annotate"
            elif kind == "model.enumerate":
                totals["model.realizations"] += len(out)
            totals[name + ".self_s"] += dt - frame[1]
            totals[name + ".total_s"] += dt
            totals[name + ".calls"] += 1
            if parent is not None:
                parent[1] += dt
                parent[2] += 1
            return out

        return span

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name == "pathprophet" or name.startswith("pathprophet.")]
        for modname, attr, kind in TARGETS:
            home = self._modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(kind, orig))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(kind, orig)
            for mod in package:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)
