"""Call tracing for the traced run, installed from outside the program.

Each traced function is replaced by a wrapper in every ``fibercurve``
module that holds a reference to it (``search`` does
``from .arith import is_sth_power``, so ``fibercurve.search.is_sth_power``
is patched as well as ``fibercurve.arith.is_sth_power``).  Methods of
``CyclotomicElement`` and ``ProjPoint.__init__`` are patched on the class.

Every wrapper keeps aggregate counters: calls, total time and self time
(total minus the time of traced calls made inside it).  Layer-boundary
functions also record one span each, kept in memory and written out when
the run ends; per-candidate and per-coordinate leaves keep counters only.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute, metric name, records spans)
FUNCTIONS = (
    ("arith", "parse_rational", "arith.parse_rational", False),
    ("arith", "format_rational", "arith.format_rational", False),
    ("arith", "is_sth_power", "arith.is_sth_power", False),
    ("arith", "integer_nth_root", "arith.integer_nth_root", False),
    ("config", "validate", "config.validate", True),
    ("config", "violations", "config.violations", True),
    ("fiber", "build_fiber", "fiber.build_fiber", True),
    ("fiber", "on_fiber", "fiber.on_fiber", True),
    ("fiber", "smooth_at", "fiber.smooth_at", True),
    ("fiber", "trivial_points", "fiber.trivial_points", True),
    ("linalg", "matrix_rank", "linalg.matrix_rank", True),
    ("linalg", "clear_denominators", "linalg.clear_denominators", False),
    ("family", "contains", "family.contains", False),
    ("birat", "to_fiber_point", "birat.to_fiber_point", True),
    ("birat", "from_fiber_point", "birat.from_fiber_point", True),
    ("birat", "solve_ab", "birat.solve_ab", True),
    ("conic", "enumerate_curves", "conic.enumerate_curves", True),
    ("conic", "find_base_point", "conic.find_base_point", True),
    ("conic", "parametrize", "conic.parametrize", False),
    ("search", "search_ab", "search.search_ab", True),
    ("fixtures", "load", "fixtures.load", True),
    ("fixtures", "verify", "fixtures.verify", True),
    ("cli", "main", "cli.main", True),
)


class Tracer:
    """Counters per metric name plus spans, all in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.op = -1  # index of the benchmark op being run
        self._stack: list[list] = []  # [child time, nearest span id] per open call

    def wrap(self, name: str, fn, span: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None  # nearest open span
            if span:
                ident = len(spans)
                spans.append(None)  # reserve the id; filled in on return
            else:
                ident = parent
            frame = [0.0, ident]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[ident] = (ident, parent, self.op, name, start, end)

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_s(self, prefix: str) -> float:
        """Self time summed over every metric name equal to or under prefix."""
        return sum(
            v[2]
            for k, v in self.stats.items()
            if k == prefix or k.startswith(prefix + ".")
        )


def _targets():
    from fibercurve import arith, fiber, jsonio

    for mod, attr, metric, span in FUNCTIONS:
        yield getattr(sys.modules[f"fibercurve.{mod}"], attr), metric, span
    for attr, fn in vars(jsonio).items():
        if callable(fn) and attr.endswith(("_to_obj", "_from_obj")):
            yield fn, f"jsonio.{attr}", False
    yield fiber.ProjPoint.__init__, "fiber.ProjPoint", False
    for attr, member in vars(arith.CyclotomicElement).items():
        fn = member.__func__ if isinstance(member, classmethod) else member
        if callable(fn) and attr != "__setattr__":
            yield fn, f"arith.cyclotomic.{fn.__name__}", False


@contextmanager
def installed(tracer: Tracer):
    """Patch every reference to the traced functions; undo on exit."""
    import fibercurve.cli  # noqa: F401  (loads every fibercurve module)
    from fibercurve import arith, fiber

    wrappers = {}
    for fn, metric, span in _targets():
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(metric, fn, span)
    holders = [m for k, m in sys.modules.items() if k.split(".")[0] == "fibercurve"]
    holders += [fiber.ProjPoint, arith.CyclotomicElement]
    undo = []
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            fn = value.__func__ if isinstance(value, classmethod) else value
            try:
                wrapper = wrappers.get(fn)
            except TypeError:  # unhashable attribute value
                continue
            if wrapper is None:
                continue
            new = classmethod(wrapper) if isinstance(value, classmethod) else wrapper
            setattr(holder, attr, new)
            undo.append((holder, attr, value))
    try:
        yield tracer
    finally:
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)
