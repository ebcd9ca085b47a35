"""Per-layer tracing by wrapping gapspec's public entry points.

`Tracer.install()` replaces each entry point below with a timing wrapper in
every gapspec module that bound it, so calls made through `gapspec.X`,
`gapspec.verify.X` or `gapspec.cli.X` are all seen. Self time is a span
minus the spans of the wrapped calls made inside it. Spans are aggregated
per layer as they close (count and total), nothing is kept per call, so the
overhead stays at two clock reads per call. Entry points that do not exist
are skipped; their time then falls into the calling layer's self time.
"""

import inspect
import sys
import time

# prefix of the stderr line on which a traced CLI process reports
TRACE_MARK = "PERFBENCH_TRACE "

# layer -> (module, attribute) entry points. "*" stands for every public
# function the module defines.
LAYERS = {
    "specfun": (
        ("gapspec.specfun", "airy_ai"),
        ("gapspec.specfun", "airy_ai_prime"),
        ("gapspec.kernels", "bessel_j_pair"),
    ),
    "kernels": (
        ("gapspec.kernels", "kernel_eval"),
        ("gapspec.kernels", "kernel_diag"),
        ("gapspec.kernels", "airy_convolution"),
    ),
    "operator.gauss_legendre": (("gapspec.operator", "gauss_legendre"),),
    "operator.build_discretization": (("gapspec.operator", "build_discretization"),),
    "operator.compute_spectrum": (
        ("gapspec.operator", "compute_spectrum"),
        ("gapspec.operator", "compute_spectrum_with_vectors"),
    ),
    "operator.det": (
        ("gapspec.operator", "log_fredholm_det"),
        ("gapspec.operator", "fredholm_det"),
    ),
    "operator.counting": (
        ("gapspec.operator", "counting_prob"),
        ("gapspec.operator", "counting_ratio"),
    ),
    "asymptotics": (("gapspec.asymptotics", "*"),),
    "verify": (("gapspec.verify", "*"),),
    "cli": (("gapspec.cli", "main"),),
}

# Modules that hold the special-function implementations themselves. Their
# internal calls are below the specfun layer boundary and stay unwrapped.
_IMPLEMENTATION_MODULES = ("gapspec._specfun_py", "gapspec._core")


def _n_of(result):
    if isinstance(result, tuple):
        result = result[0]
    return result.n


# extra counters: layer metric suffix -> f(result)
_COUNTERS = {
    "operator.build_discretization": (("entries", lambda r: _n_of(r) ** 2),),
    "operator.compute_spectrum": (
        ("gflops_computed", lambda r: 4.0 / 3.0 * _n_of(r) ** 3 / 1e9),
    ),
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name


class Tracer:
    """Aggregated spans for one traced run; `install` then `uninstall`."""

    def __init__(self):
        self.calls = {}  # layer -> count
        self.self_s = {}  # layer -> seconds
        self.fn_calls = {}  # "layer.function" -> count
        self.counters = {}  # "layer.counter" -> total
        self.missing = []  # entry points that were not found
        self._stack = [0.0]  # child seconds accumulated per open span
        self._patched = []  # (module, attribute, original)
        self._wrappers = set()

    def _wrap(self, layer, fn):
        calls, self_s, fn_calls, stack = self.calls, self.self_s, self.fn_calls, self._stack
        counters = [(f"{layer}.{suffix}", f) for suffix, f in _COUNTERS.get(layer, ())]
        key = f"{layer}.{fn.__name__}"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                stack[-1] += span
                self_s[layer] += span - child
                calls[layer] += 1
                fn_calls[key] += 1
            for name, count in counters:
                self.counters[name] = self.counters.get(name, 0) + count(result)
            return result

        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        self.fn_calls.setdefault(key, 0)
        return traced

    def install(self):
        """Wrap every entry point in LAYERS in every gapspec module."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None
            and (name == "gapspec" or name.startswith("gapspec."))
            and name not in _IMPLEMENTATION_MODULES
        ]
        for layer, entries in LAYERS.items():
            self.calls.setdefault(layer, 0)
            self.self_s.setdefault(layer, 0.0)
            for mod_name, attr in entries:
                home = sys.modules.get(mod_name)
                if home is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                names = list(_public_functions(home)) if attr == "*" else [attr]
                for name in names:
                    original = getattr(home, name, None)
                    if original is None:
                        self.missing.append(f"{mod_name}.{name}")
                        continue
                    if original in self._wrappers:
                        continue
                    wrapper = self._wrap(layer, original)
                    self._wrappers.add(wrapper)
                    for module in modules:
                        for bound, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, bound, wrapper)
                                self._patched.append((module, bound, original))

    def uninstall(self):
        for module, bound, original in reversed(self._patched):
            setattr(module, bound, original)
        self._patched.clear()

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "fn_calls": dict(self.fn_calls),
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }
