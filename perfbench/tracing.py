"""In-process tracer for the traced benchmark run.

Spans wrap the public functions of each package module, from outside the
package: every module global that is bound to a wrapped function is
rebound, so names taken in by ``from ... import`` (``cli`` and ``floquet``
do this) and the subcommand table ``cli._COMMANDS`` go through the span
too.  Hot inner functions get counters only.  Counters are attributed to
the module (and the span) that is innermost on the calling thread's stack.

Spans are kept in memory and written as JSON by ``Tracer.dump``.
"""

import functools
import importlib
import inspect
import json
import threading
import time

LAYERS = ("cli", "operator_core", "reservoir", "lindblad", "evolution", "floquet")

# Hot inner functions: no span.  A name mapped to a counter is counted.
HOT = {
    "operator_core": {"vec": None, "unvec": None, "hs_inner": None},
    "reservoir": {
        "glued_g_continued": "integrand_evals",
        "glued_g": None,
        "glued_g_sharp": None,
        "spectral_density": None,
        "rate_coefficient": None,
    },
}

# Private cli helpers that carry the subcommand work and artifact writing.
CLI_PRIVATE = ("_do_check", "_do_evolve", "_do_floquet", "_do_oracle", "_write_json")


def _flops_eig(n, vectors):
    # dense nonsymmetric eigensolver, complex arithmetic (4 real flops per
    # complex multiply-add): ~10 n^3 without and ~25 n^3 with eigenvectors
    return 4.0 * (25.0 if vectors else 10.0) * n**3


def _flops_solve(n, k):
    return 4.0 * (2.0 / 3.0 * n**3 + 2.0 * n * n * k)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index, thread id]
        self._thread_counters = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counters(self):
        # one dict per thread, merged by `counters`, so counting takes no lock
        try:
            return self._local.counters
        except AttributeError:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
            return counters

    @property
    def counters(self):
        total = {}
        for counters in self._thread_counters:
            for key, n in counters.items():
                total[key] = total.get(key, 0) + n
        return total

    def count(self, key, n=1, layer=None):
        stack = self._stack()
        span = self.spans[stack[-1]][0] if stack else None
        if layer is None:
            layer = span.split(".", 1)[0] if span else "unattributed"
        counters = self._counters()
        counters[f"{layer}.{key}"] = counters.get(f"{layer}.{key}", 0) + n
        if span:
            counters[f"{span}.{key}"] = counters.get(f"{span}.{key}", 0) + n

    def span(self, name, fn):
        stack_of = self._stack
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            with lock:
                spans.append(rec)
                idx = len(spans) - 1
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def counted(self, key, fn, layer):
        """Count calls of a hot function under `layer.key`, with no span."""
        key = f"{layer}.{key}"
        counters_of = self._counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters = counters_of()
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the package's modules in place."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        replace = {}   # id(original) -> wrapper
        for layer, mod in modules.items():
            hot = HOT.get(layer, {})
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr in hot:
                    if hot[attr]:
                        replace[id(obj)] = self.counted(hot[attr], obj, layer=layer)
                elif not attr.startswith("_") or (layer == "cli" and attr in CLI_PRIVATE):
                    replace[id(obj)] = self.span(f"{layer}.{attr}", obj)
        build = modules["floquet"].build_howland
        replace[id(build)] = self._count_rows(replace[id(build)])
        # rebind at every binding site, including `from ... import` names
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        commands = modules["cli"]._COMMANDS
        for key, fn in list(commands.items()):
            commands[key] = replace.get(id(fn), fn)
        self._install_class_hooks(modules)
        self._install_library_counters(modules)

    def _count_rows(self, build):
        count = self.count

        @functools.wraps(build)
        def counted_build(*args, **kwargs):
            f_op = build(*args, **kwargs)
            count("howland_rows", f_op.matrix.shape[0], layer="floquet")
            return f_op

        return counted_build

    def _install_class_hooks(self, modules):
        core = modules["operator_core"]
        post_init = core.Superoperator.__post_init__
        count = self.count

        def counted_post_init(obj):
            count("superop_constructions", layer="operator_core")
            post_init(obj)

        core.Superoperator.__post_init__ = counted_post_init

        cli = modules["cli"]
        cli.RunSetup.__init__ = self.span("cli.RunSetup", cli.RunSetup.__init__)

    def _install_library_counters(self, modules):
        import numpy
        import scipy.integrate

        count = self.count
        eig, eigvals, solve = numpy.linalg.eig, numpy.linalg.eigvals, numpy.linalg.solve

        def timed(key, fn, flops):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(a, *args, **kwargs)
                dt = time.perf_counter() - t0
                count(key)
                count("linalg_s", dt)
                count("flops_computed", flops(a, *args))
                return out
            return wrapper

        def solve_flops(a, b):
            n = numpy.shape(a)[-1]
            k = 1 if numpy.ndim(b) == 1 else numpy.shape(b)[-1]
            count("solve_rhs_cols", k)
            return _flops_solve(n, k)

        numpy.linalg.eig = timed("eig_calls", eig,
                                 lambda a: _flops_eig(numpy.shape(a)[-1], True))
        numpy.linalg.eigvals = timed("eig_calls", eigvals,
                                     lambda a: _flops_eig(numpy.shape(a)[-1], False))
        numpy.linalg.solve = timed("solve_calls", solve, solve_flops)

        quad = scipy.integrate.quad

        @functools.wraps(quad)
        def counted_quad(func, *args, **kwargs):
            n = [0]

            def integrand(*a):
                n[0] += 1
                return func(*a)

            try:
                return quad(integrand, *args, **kwargs)
            finally:
                count("quad_evals", n[0])

        scipy.integrate.quad = counted_quad

        evo = modules["evolution"]
        solve_ivp = evo.solve_ivp

        @functools.wraps(solve_ivp)
        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            count("rhs_evals", int(sol.nfev))
            return sol

        evo.solve_ivp = counted_solve_ivp

    # -- output --------------------------------------------------------------

    def dump(self, path):
        payload = {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
