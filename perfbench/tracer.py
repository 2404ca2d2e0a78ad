"""Layer tracing from outside the package.

Every public function of the traced modules is replaced by a wrapper, and
the wrapper is bound under every name that any ``effcap`` module holds for
the original, because the modules import each other by name (for example
``policies.chf_x`` and ``combiner.chf_rp``).  Each wrapper opens a span
with its parent span on a stack; a span's self time is its duration minus
the time of its child spans, summed per layer.  Spans are aggregated as
they close, so memory stays bounded however many calls a point makes.

Glue code of a layer that is not itself a wrapped function (an integrand
closure defined in ``policies`` and called by ``quadrature``) is counted
in the self time of the layer that called it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "effcap.quadrature": "quadrature",
    "effcap.specfun": "specfun",
    "effcap.fading": "fading",
    "effcap.combiner": "combiner",
    "effcap.policies": "policies",
    "effcap.cli": "cli",
}

class _Span:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.policy_call = None  # outermost policies function running
        self.self_s = defaultdict(float)
        self.entries = defaultdict(int)   # calls into a layer from outside it
        self.failed = defaultdict(int)    # entries that raised
        self.calls = defaultdict(int)     # every call, by function name
        self.incl_s = defaultdict(float)  # inclusive time, by function name
        self.counts = defaultdict(float)  # samples, evaluations, panels

    def install(self):
        """Wrap the public functions of every traced module, everywhere."""
        originals = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname) or __import__(
                modname, fromlist=["_"])
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__",
                                                None) != modname:
                    continue
                originals[id(obj)] = self._wrap(obj, f"{layer}.{name}",
                                                layer)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("effcap") or mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap(self, fn, qualname, layer):
        tracer = self
        short = qualname.split(".", 1)[1]

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            entry = parent is None or parent.layer != layer
            outer_policy = False
            if layer == "policies" and tracer.policy_call is None:
                tracer.policy_call = short
                outer_policy = True
            span = _Span(layer)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if entry:
                    tracer.failed[layer] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += dt - span.child_s
                tracer.incl_s[qualname] += dt
                tracer.calls[qualname] += 1
                if entry:
                    tracer.entries[layer] += 1
                if parent is not None:
                    parent.child_s += dt
                if outer_policy:
                    tracer.policy_call = None
            tracer._count(qualname, args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", short)
        return traced

    def _count(self, qualname, args, kwargs, result, dt):
        c = self.counts
        if qualname in ("fading.mgf_rp", "fading.chf_rp"):
            kind = "mgf" if qualname == "fading.mgf_rp" else "chf"
            arg = args[2] if len(args) > 2 else kwargs.get(
                "u" if kind == "mgf" else "omega")
            c[f"fading.{kind}.samples"] += int(np.size(arg))
            c[f"fading.{kind}.s"] += dt
        elif qualname in ("combiner.chf_x", "combiner.joint_mgf_x"):
            arg = args[1] if len(args) > 1 else kwargs.get(
                "omega" if qualname == "combiner.chf_x" else "u")
            c[f"{qualname}.samples"] += int(np.size(arg))
        elif qualname == "quadrature.integrate_interval":
            c["quadrature.evals"] += result.evaluations
        elif qualname == "quadrature.gk15_panels":
            c["quadrature.evals"] += result[2]
        elif qualname == "quadrature.integrate_alternating":
            c["quadrature.panels"] += result[1]
        elif qualname == "combiner.cdf_x_gil_pelaez" \
                and self.policy_call == "ec_tifr":
            c["policies.tifr.rate_evals"] += 1  # one per rate() evaluation
        elif qualname == "policies.ec_tifr":
            c["policies.tifr.points"] += 1
        elif qualname in ("policies.ec_opra_chf", "policies.ec_opra_mgf"):
            c["policies.opra.points"] += 1
            c["policies.opra.cutoff_iters"] += result.diagnostics.get(
                "cutoff_iterations", 0)

    def snapshot(self) -> dict:
        """Plain-data totals, summable across processes."""
        return {
            "self_s": dict(self.self_s),
            "entries": dict(self.entries),
            "failed": dict(self.failed),
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }

