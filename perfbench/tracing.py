"""Per-layer timing of curvemap from outside: wrappers rebound at every import site.

Each traced function is replaced, in every curvemap module that holds it
(``from .fiber import fiber`` binds it in cli, reparam and elsewhere), by a
wrapper that records calls, total time and self time (total minus the time
of traced calls made inside it).  Nothing under src/ changes, and the
originals are put back when the pass ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# Modules whose public functions are all traced.  In cli only main and
# parse_instance are, so argparse and JSON output land in cli.main.self_ms.
FULL_MODULES = ("fiber", "syzygy", "linalg", "forms", "reparam", "ideals", "monomial")
CLI_FUNCTIONS = ("main", "parse_instance")
METHODS = (("linalg", "Echelon", "add_rows"), ("forms", "BinaryForm", "mul"))
# called far too often to time without distorting everything else
COUNT_ONLY = ("forms.form",)
# public linalg entry points and where their field argument sits
LINALG_FIELD_ARG = {
    "linalg.rref": 1,
    "linalg.rank": 1,
    "linalg.kernel_basis": 2,
    "linalg.solve": 2,
    "linalg.Echelon.add_rows": None,  # self.field
}

# (metric name, traced function, stat) in the order they are reported
PER_LAYER = [
    ("fiber.hilbert_table_a.calls", "fiber.hilbert_table_a", "calls"),
    ("fiber.hilbert_table_a.self_ms", "fiber.hilbert_table_a", "self_ms"),
    ("fiber.hilbert_table_a.degrees", "fiber.hilbert_table_a", "degrees"),
    ("fiber.map_degree.calls", "fiber.map_degree", "calls"),
    ("fiber.map_degree.self_ms", "fiber.map_degree", "self_ms"),
    ("fiber.fiber.calls", "fiber.fiber", "calls"),
    ("fiber.fiber.ms", "fiber.fiber", "ms"),
    ("fiber.fiber.zero_rows", "fiber.fiber", "zero_rows"),
    ("syzygy.hilbert_burch.calls", "syzygy.hilbert_burch", "calls"),
    ("syzygy.hilbert_burch.self_ms", "syzygy.hilbert_burch", "self_ms"),
    ("syzygy.syzygies_in_degree.ms", "syzygy.syzygies_in_degree", "ms"),
    ("linalg.Echelon.add_rows.calls", "linalg.Echelon.add_rows", "calls"),
    ("linalg.Echelon.add_rows.ms", "linalg.Echelon.add_rows", "ms"),
    ("linalg.np_rref.calls", "linalg.np_rref", "calls"),
    ("linalg.np_rref.ms", "linalg.np_rref", "ms"),
    ("linalg.np_rref.cells", "linalg.np_rref", "cells"),
    ("linalg.np_shift_mul.ms", "linalg.np_shift_mul", "ms"),
    ("linalg.rank.calls", "linalg.rank", "calls"),
    ("linalg.rank.ms", "linalg.rank", "ms"),
    ("linalg.rational.calls", "linalg.rational", "calls"),
    ("linalg.rational.ms", "linalg.rational", "ms"),
    ("forms.form.calls", "forms.form", "calls"),
    ("forms.gcd_forms.calls", "forms.gcd_forms", "calls"),
    ("forms.gcd_forms.ms", "forms.gcd_forms", "ms"),
    ("forms.BinaryForm.mul.calls", "forms.BinaryForm.mul", "calls"),
    ("forms.BinaryForm.mul.ms", "forms.BinaryForm.mul", "ms"),
    ("reparam.extract_reparam_basis.calls", "reparam.extract_reparam_basis", "calls"),
    ("reparam.extract_reparam_basis.ms", "reparam.extract_reparam_basis", "ms"),
    ("reparam.extract_reparam_basis.points", "reparam.extract_reparam_basis", "points"),
    ("reparam.express_in_subring.calls", "reparam.express_in_subring", "calls"),
    ("reparam.express_in_subring.ms", "reparam.express_in_subring", "ms"),
    ("reparam.reparameterize.self_ms", "reparam.reparameterize", "self_ms"),
    ("reparam.core_ideal.self_ms", "reparam.core_ideal", "self_ms"),
    ("reparam.route_recomputed", "reparam.reparameterize", "route_recomputed"),
    ("ideals.ideal_equals.calls", "ideals.ideal_equals", "calls"),
    ("ideals.ideal_equals.ms", "ideals.ideal_equals", "ms"),
    ("ideals.power.ms", "ideals.power", "ms"),
    ("monomial.newton_closure.calls", "monomial.newton_closure", "calls"),
    ("monomial.newton_closure.ms", "monomial.newton_closure", "ms"),
    ("cli.parse_instance.ms", "cli.parse_instance", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
]


def metric_unit(stat: str) -> str:
    return "ms" if stat.endswith("ms") else "count"


class Tracer:
    """Aggregated spans: per traced function, calls, ms, self_ms and extra counts."""

    def __init__(self):
        self.stats: dict = defaultdict(lambda: defaultdict(float))
        # open spans, innermost last: [name, time spent in traced children]
        self._stack: list = []

    def metrics(self) -> dict:
        out = {}
        for metric, name, stat in PER_LAYER:
            unit = metric_unit(stat)
            value = self.stats[name][stat]
            out[metric] = {"value": value if unit == "ms" else int(value), "unit": unit}
        return out

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        stats = self.stats[name]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        extra = self._extra(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                ms = (perf_counter() - t0) * 1e3
                stack.pop()
                if stack:
                    stack[-1][1] += ms
                stats["calls"] += 1
                stats["ms"] += ms
                stats["self_ms"] += ms - frame[1]
                if extra is not None:
                    extra(args, result, error, ms)

        return wrapper

    def _extra(self, name):
        """Counts beyond calls and time, recorded where the work happens."""
        stats = self.stats[name]
        if name == "fiber.hilbert_table_a":
            def extra(args, result, error, ms):
                if result is not None:
                    stats["degrees"] += len(result[1])
        elif name == "fiber.fiber":
            def extra(args, result, error, ms):
                stats["zero_rows"] += type(error).__name__ == "ZeroRow"
        elif name == "linalg.np_rref":
            def extra(args, result, error, ms):
                stats["cells"] += args[0].shape[0] * args[0].shape[1]
        elif name == "fiber.apply_map":
            basis = self.stats["reparam.extract_reparam_basis"]

            def extra(args, result, error, ms):
                if self._stack and self._stack[-1][0] == "reparam.extract_reparam_basis":
                    basis["points"] += 1
        elif name == "reparam.reparameterize":
            def extra(args, result, error, ms):
                stats["route_recomputed"] += result is not None and result.route == "recomputed"
        elif name in LINALG_FIELD_ARG:
            where = LINALG_FIELD_ARG[name]
            rational = self.stats["linalg.rational"]

            def extra(args, result, error, ms):
                field = args[0].field if where is None else args[where]
                if not field.modular:
                    rational["calls"] += 1
                    rational["ms"] += ms
        else:
            extra = None
        return extra

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(traced name, function) for every function to wrap."""
        out = []
        for short in FULL_MODULES:
            mod = sys.modules[f"curvemap.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    out.append((f"{short}.{attr}", obj))
        cli = sys.modules["curvemap.cli"]
        out += [(f"cli.{attr}", getattr(cli, attr)) for attr in CLI_FUNCTIONS]
        return out

    @contextmanager
    def installed(self):
        """Trace curvemap (already imported) for the duration of the block."""
        wrappers = {}
        for name, fn in self._targets():
            make = self._counted if name in COUNT_ONLY else self._timed
            wrappers[id(fn)] = (fn, make(name, fn))
        rebound = []
        modules = [m for k, m in sys.modules.items() if k == "curvemap" or k.startswith("curvemap.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    rebound.append((mod, attr, obj))
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"curvemap.{short}"], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._timed(f"{short}.{cls_name}.{meth}", original))
            rebound.append((cls, meth, original))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(rebound):
                setattr(owner, attr, obj)
