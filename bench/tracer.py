"""Spans around the engine's public layer functions, patched in from outside.

``install`` replaces every binding of a traced function in every loaded
``svlie`` module (``from .algebra import bracket`` copies the binding, so
patching ``svlie.algebra`` alone would miss the calls from ``autgroup``,
``derivations`` and ``verify``) and wraps the arithmetic methods of
``Scalar``.  Spans are aggregated in memory per name as call count, total
time and self time (total minus the time of child spans); ``uninstall``
puts every original back.
"""

from __future__ import annotations

import sys
import time

from svlie import scalar as scalar_module

# span name -> (module, public functions whose calls it covers)
SPANS = {
    "scalar.nullspace": ("scalar", ("nullspace",)),
    "scalar.codec": ("scalar", ("format_scalar", "parse_scalar", "scan_scalar", "scan_simple_scalar")),
    "algebra.bracket": ("algebra", ("bracket",)),
    "algebra.exp_ad": ("algebra", ("exp_ad",)),
    "algebra.jacobi_residual": ("algebra", ("jacobi_residual",)),
    "algebra.centralizer_window": ("algebra", ("centralizer_window",)),
    "algebra.format_element": ("algebra", ("format_element",)),
    "derivations.apply_classified": ("derivations", ("apply_classified",)),
    "derivations.leibniz_check": ("derivations", ("leibniz_check",)),
    "derivations.decompose": ("derivations", ("decompose",)),
    "derivations.outer_independence_kernel": ("derivations", ("outer_independence_kernel",)),
    "derivations.equivariant_hom_nullity": ("derivations", ("equivariant_hom_nullity",)),
    "autgroup.apply": ("autgroup", ("apply",)),
    "autgroup.compose": ("autgroup", ("compose",)),
    "autgroup.invert": ("autgroup", ("invert",)),
    "autgroup.factorize": ("autgroup", ("factorize",)),
    "autgroup.compose_oracle": ("autgroup", ("compose_oracle",)),
    "expr.parse_element": ("expr", ("parse_element",)),
    "verify.run_suite": ("verify", ("run_suite",)),
    "cli.main": ("cli", ("main",)),
}
SCALAR_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.nullspace = [0, 0, 0]  # rows, cols, rank summed over calls
        self._children: list[float] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in (*SPANS, "scalar.arith")}
        self.nullspace = [0, 0, 0]

    def _wrap(self, name: str, fn):
        children = self._children
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stat = tracer.stats[name]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if children:
                    children[-1] += elapsed

        return span

    def _wrap_nullspace(self, fn):
        def nullspace(m):
            kernel = fn(m)
            self.nullspace[0] += m.rows
            self.nullspace[1] += m.cols
            self.nullspace[2] += m.cols - len(kernel)
            return kernel

        return nullspace

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = [m for key, m in sys.modules.items() if key == "svlie" or key.startswith("svlie.")]
        for name, (module, functions) in SPANS.items():
            home = sys.modules[f"svlie.{module}"]
            for function in functions:
                original = getattr(home, function)
                inner = self._wrap_nullspace(original) if function == "nullspace" else original
                wrapper = self._wrap(name, inner)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = scalar_module.Scalar
        for method in SCALAR_ARITH:
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap("scalar.arith", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
