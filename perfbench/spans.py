"""Spans around calls into the package's public functions.

``Tracer.install`` replaces each traced function by a wrapper in every
``layered_bpsk`` module namespace that holds it, so both the CLI's calls
(``layered_bpsk.cli.exact_mi_1d``) and calls inside a module
(``layered_bpsk.rates.bpsk_rate`` from ``rate_z``) are recorded.  A name a
later version no longer has is skipped, and its metrics are then absent.

A span is (name, start ns, end ns, id, parent id), kept in memory.  The
parent is the innermost open span of the calling thread.  A span's self time
is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

# Layer (module) -> traced public functions.  core and modem are absent on
# purpose: no workload spends measurable time in them.
TRACED = {
    "cli": ("main",),
    "rates": ("bpsk_rate", "exact_mi_1d", "rate_z", "rate_x", "ebn0_1d",
              "bpsk_rate_at_snr", "qpsk_rate_at_snr", "layered_pdf", "mixture_pdf"),
    "quadrature": ("integrate", "plogp"),
    "montecarlo": ("simulate_1d",),
    "channel": ("awgn_real",),
}
# Names whose distinct argument tuples are counted, for cache-reuse ratios.
DISTINCT = ("rates.bpsk_rate",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.evals = 0  # integrand points evaluated inside quadrature.integrate
        self.traced: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        keys = self.keys.get(name)

        def span(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, clock(), sid, parent))
                stack.pop()

        span.__wrapped__ = fn
        return span

    def _wrap_integrate(self, name: str, fn):
        def counted(f, *args, **kwargs):
            def integrand(x):
                self.evals += getattr(x, "size", 1)
                return f(x)
            return fn(integrand, *args, **kwargs)
        return self._wrap(name, counted)

    def install(self, package: str = "layered_bpsk") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                name = f"{layer}.{fname}"
                make = self._wrap_integrate if name == "quadrature.integrate" else self._wrap
                wrapper = make(name, original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                self.traced.add(name)

    def summary(self) -> dict:
        """Calls and self seconds per traced name, distinct argument tuples
        for the DISTINCT names, integrand points for quadrature.integrate."""
        children = defaultdict(list)
        for _, start, end, _, parent in self.spans:
            children[parent].append((start, end))
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for name, start, end, sid, _ in self.spans:
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls[name] += 1
            self_ns[name] += (end - start) - covered
        out = {name: {"calls": calls[name], "self_s": self_ns[name] * 1e-9}
               for name in sorted(self.traced)}
        for name, keys in self.keys.items():
            if name in out:
                out[name]["distinct"] = len(keys)
        if "quadrature.integrate" in out:
            out["quadrature.integrate"]["evals"] = self.evals
        return out
