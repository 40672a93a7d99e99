"""Per-layer tracing of qortho from outside the program.

``Tracer.install`` wraps the public functions of each layer and rebinds
every module-level binding of each one inside the ``qortho`` package,
including names imported with ``from .qcore import ...`` and the values of
module-level dicts such as the checker table the CLI dispatches through.
Each call records a span (operation id, span id, parent span id, name, start,
end) in memory; a few wrappers also count the work they were handed.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

CHECKS = ("THM_1_1", "THM_1_2", "THM_1_3", "PROP_3_1", "ROGERS_6W5", "ULTRA_ORTHO")

# module -> public functions timed as that layer.  Those that only identities
# no workload runs reach (see gen.WORKLOADS) are left out: qcore.min_factor_abs,
# qfun.phi_eval, qfun.big_c_eval, qfun.growth_root, quad.jackson_integral,
# quad.phi_qintegral_repr and hyper.qbinomial_product_ratio.
TARGETS = {
    "qcore": ("qpoch_infinite", "qpoch_finite", "tail_start"),
    "hyper": ("phi_series", "very_well_poised", "rogers_6w5_rhs"),
    "qfun": ("expansion_weights", "big_c_coeffs", "cq_ultraspherical_many",
             "weight_min_denominator", "weight_omega_many", "h_norm", "diag_rhs_thm11",
             "connection_coeffs"),
    "kernels": ("poch_product_many", "laurent_eval"),
    "quad": ("periodic_integral",),
    "verify": tuple(f"check_{c.lower()}" for c in CHECKS),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _replace_arg(args, kwargs, index, name, value):
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1:], kwargs
    return args, kwargs | {name: value}


def _count_poch(tracer, args, kwargs):
    coefs = _arg(args, kwargs, 0, "coefs")
    kmax = _arg(args, kwargs, 3, "kmax")
    thetas = _arg(args, kwargs, 4, "thetas")
    tracer.counts["kernels.poch_product_many.factor_evals"] += len(thetas) * len(coefs) * kmax
    return args, kwargs, None


def _count_laurent(tracer, args, kwargs):
    coefs = _arg(args, kwargs, 0, "coefs")
    thetas = _arg(args, kwargs, 2, "thetas")
    tracer.counts["kernels.laurent_eval.terms"] += len(thetas) * len(coefs)
    return args, kwargs, None


def _count_periodic(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    counts = tracer.counts

    def counted(thetas):
        counts["quad.periodic_integral.integrand_points"] += len(thetas)
        return f(thetas)

    def after(result):
        counts["quad.periodic_integral.nodes"] += result.nodes
        counts["quad.periodic_integral.unconverged"] += not result.converged

    return (*_replace_arg(args, kwargs, 0, "f", counted), after)


HOOKS = {
    "kernels.poch_product_many": _count_poch,
    "kernels.laurent_eval": _count_laurent,
    "quad.periodic_integral": _count_periodic,
}

COUNTERS = (
    "kernels.poch_product_many.factor_evals",
    "kernels.laurent_eval.terms",
    "quad.periodic_integral.nodes",
    "quad.periodic_integral.integrand_points",
    "quad.periodic_integral.unconverged",
)


class Tracer:
    """In-memory span recorder.  Spans are tuples
    (op_id, span_id, parent_id, name, start_s, end_s) on ``time.perf_counter``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._replaced: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, span_id, parent, name, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((self.op_id, span_id, parent, name, start, end))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, parent, name, start)

    def adopt(self, name, start, end, child_spans, child_counts) -> None:
        """Record a span for work done in a child process, with the child's
        own spans (same clock) beneath it under fresh ids."""
        self._next_id += 1
        root = self._next_id
        base = self._next_id
        for _, span_id, parent, child_name, s, e in child_spans:
            parent = root if parent is None else base + parent
            self.spans.append((self.op_id, base + span_id, parent, child_name, s, e))
            self._next_id = max(self._next_id, base + span_id)
        self.spans.append((self.op_id, root, None, name, start, end))
        self.counts.update(child_counts)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> dict:
        """Wrap every target and rebind all its bindings in the loaded qortho
        modules, module-level dict values included.  Returns the number of
        bindings replaced per span name and the targets the program no longer
        defines; raises if a defined target had no binding replaced."""
        originals, absent = {}, []
        for module, names in TARGETS.items():
            mod = sys.modules.get(f"qortho.{module}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    absent.append(f"{module}.{fname}")
                    continue
                originals[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn), f"{module}.{fname}")
        replaced = Counter()

        def swap(container, key, value, setter):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setter(container, key, entry[1])
                self._replaced.append((container, key, value, setter))
                replaced[entry[2]] += 1

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "qortho":
                continue
            for key, value in list(vars(mod).items()):
                swap(mod, key, value, setattr)
                if isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        swap(value, dkey, dvalue, dict.__setitem__)
        missed = sorted(span for _, _, span in originals.values() if not replaced[span])
        if missed:
            self.uninstall()
            raise RuntimeError(f"no binding replaced for {missed}")
        return {"replaced": dict(replaced), "absent": absent}

    def uninstall(self) -> None:
        for container, key, value, setter in reversed(self._replaced):
            setter(container, key, value)
        self._replaced.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.
    Children of one span never overlap (one thread), so their durations sum
    to the part of the parent's interval they cover."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None and s[2] in own:
            own[s[2]] -= s[5] - s[4]
    return own


def aggregate(spans) -> dict[str, dict]:
    """Name -> {"calls", "incl_s", "self_s"} summed over all spans."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        entry = out[s[3]]
        entry["calls"] += 1
        entry["incl_s"] += s[5] - s[4]
        entry["self_s"] += own[s[1]]
    return dict(out)
