"""Span tracing of dynnets' public names, installed from outside the package.

Each traced name is replaced by a wrapper in every ``dynnets.*`` namespace
that holds it (for classes, the constructor or method is wrapped on the
class). A wrapper records one span (name, start, end, parent span, job) in
memory; spans are written out when the run ends. Only public names are
traced, because private kernels may be deleted or renamed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import operator
import sys
import time
from collections import defaultdict

import numpy as np

# Public names traced in each dynnets module. A name containing a dot is a
# method of a class; a class name stands for its constructor.
TRACED = {
    "linalg": ["operator_norm", "matrix_exp", "check_exp_lipschitz",
               "principal_log", "random_skew_in_ball", "UnitaryMatrix",
               "SkewHermitian"],
    "unitary_nets": ["build_unitary_net", "empirical_covering_check",
                     "empirical_packing_lower_bound", "UnitaryNet.nearest",
                     "ImplicitGridNet.round"],
    "grassmann": ["projector_distance", "kato_unitary", "Projector",
                  "empirical_grassmann_packing", "product_covering_check",
                  "quotient_covering_check"],
    "metric": ["brute_force_covering_number", "brute_force_packing_number",
               "greedy_maximal_packing", "FiniteMetricSpace"],
    "circuits": ["circuit_unitary", "conjugate_observable", "discretize_circuit"],
    "trotter": ["exact_propagator", "trotter_propagator", "certify_trotter",
                "hamiltonian_from_json"],
    "reports": ["crossover_analysis", "emit_report"],
    "cli": ["main"],
}

GT64 = "linalg.operator_norm.gt64"

# Names whose argument feeds a ratio metric.
_RATIO_ARGS = {
    "unitary_nets.empirical_covering_check": "samples",
    "unitary_nets.empirical_packing_lower_bound": "trials",
    "grassmann.empirical_grassmann_packing": "trials",
}
# Of those, the names whose result is an integer count (accepted trials).
_COUNT_RESULTS = {"unitary_nets.empirical_packing_lower_bound",
                  "grassmann.empirical_grassmann_packing"}


class Tracer:
    """In-memory span recorder; ``active`` is False outside timed jobs."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list = []
        self._stack: list[int] = []
        self.names: list[str] = []
        self.absent: list[str] = []
        # name -> [sum of the ratio argument, sum of the counted results]
        self.ratio_sums = defaultdict(lambda: [0, 0])

    def _wrap(self, name: str, fn, ratio_arg: str | None = None):
        name_id = len(self.names)
        self.names.append(name)
        gt64_id = None
        if name == "linalg.operator_norm":
            gt64_id = len(self.names)
            self.names.append(GT64)
        signature = inspect.signature(fn) if ratio_arg else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = name_id
            if gt64_id is not None and max(np.shape(args[0]), default=0) > 64:
                sid = gt64_id
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (sid, start, end, parent, self.job)
            if signature is not None:
                sums = self.ratio_sums[name]
                sums[0] += int(signature.bind(*args, **kwargs).arguments[ratio_arg])
                if name in _COUNT_RESULTS:
                    # Any integer type counts; a non-integer count raises.
                    sums[1] += operator.index(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name; names missing from the package are absent."""
        modules = [m for key, m in sys.modules.items()
                   if key == "dynnets" or key.startswith("dynnets.")]
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"dynnets.{mod_name}")
            for name in names:
                full = f"{mod_name}.{name}"
                owner_name, _, method = name.partition(".")
                original = getattr(module, owner_name, None)
                if original is None or (method and not hasattr(original, method)):
                    self.absent.append(full)
                    continue
                if method:
                    setattr(original, method,
                            self._wrap(full, getattr(original, method)))
                elif inspect.isclass(original):
                    original.__init__ = self._wrap(full, original.__init__)
                else:
                    wrapped = self._wrap(full, original, _RATIO_ARGS.get(full))
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls, busy time and self time (busy minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for sid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, (sid, start, end, _, _) in enumerate(self.spans):
            entry = out[self.names[sid]]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for sid, start, end, parent, job in self.spans:
                fh.write(f"{self.names[sid]},{start:.9f},{end:.9f},{parent},{job}\n")
