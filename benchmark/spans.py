"""Spans and counters recorded around the public functions of primroots.

The wrappers are installed from outside: ``install`` replaces each traced
function in every primroots module that holds it, so calls between sibling
modules (``orders.factorize`` calling into ``modarith``) are seen too.  The
oracle is left alone because it only runs while answers are checked.  Hot
leaf functions get a call counter instead of a span.

A span is ``(name, start, end, parent, busy)``: ``parent`` is the index of
the enclosing span or -1, and ``busy`` is the time spent inside the call.
For a generator ``busy`` adds up the time spent inside each resumption only,
so the consumer's work between items is not charged to it.  A span's self
time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

import arith

MODULES = ("cli", "construct", "orders", "modarith", "hensel")

# Functions that get a span each call, by module.
SPANNED = {
    "cli": ("run",),
    "construct": (
        "primitive_roots",
        "iter_primitive_roots",
        "from_generator",
        "smallest_primitive_root",
        "exceptional_t",
        "check_root_count",
    ),
    "orders": ("classify_modulus", "is_primitive_root", "order", "count_primitive_roots"),
    "modarith": ("factorize", "is_prime", "euler_phi"),
    "hensel": ("solve_prime_power", "lift_solution"),
}
GENERATORS = {"construct.iter_primitive_roots"}
# Hot leaves: a span per call would cost more than the call itself.
COUNTED = {"modarith": ("pow_mod", "gcd", "mod_inverse"), "hensel": ("eval_mod",)}


class Tracer:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.factorized: set[int] = set()
        self._stack: list[int] = []
        self._names: list[str] = []

    def _open(self, name: str) -> int:
        self.spans.append(None)
        self._names.append(name)
        return len(self.spans) - 1

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def spanned(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            idx = self._open(name)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, end - start)
            if on_return:
                on_return(args, result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            idx = self._open(name)
            start = perf_counter()
            busy = 0.0
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except Exception:
                        self.counts[name + ".errors"] += 1
                        raise
                    finally:
                        busy += perf_counter() - t0
                        self._stack.pop()
                    yield item
            finally:
                inner.close()
                self.spans[idx] = (name, start, perf_counter(), parent, busy)

        return wrapper

    def counted(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def level_one_counted(self, name: str, fn):
        """eval_mod's counter; calls straight from solve_prime_power are the level-one scan."""
        counts, key, stack, names = self.counts, name + ".calls", self._stack, self._names

        @functools.wraps(fn)
        def wrapper(f, x, m):
            counts[key] += 1
            value = fn(f, x, m)
            if stack and names[stack[-1]] == "hensel.solve_prime_power":
                counts["hensel.level1.scanned"] += 1
                if value == 0:
                    counts["hensel.level1.hits"] += 1
            return value

        return wrapper

    # What the benchmark records at the boundaries, beyond calls and time.
    def _factorize_arg(self, args, result) -> None:
        self.factorized.add(args[0])

    def _from_generator_result(self, args, result) -> None:
        self.counts["construct.from_generator.kept"] += len(result.roots)
        self.counts["construct.from_generator.walked"] += arith.phi(arith.trial_factor(args[1]))

    def _lift_result(self, args, result) -> None:
        kind = {"UniqueLift": "unique", "MultipleLift": "multiple", "NoLift": "none"}
        self.counts["hensel.lift_solution." + kind[type(result).__name__]] += 1

    def wrappers(self, modules: dict) -> dict[str, object]:
        hooks = {
            "modarith.factorize": self._factorize_arg,
            "construct.from_generator": self._from_generator_result,
            "hensel.lift_solution": self._lift_result,
        }
        out = {}
        for mod, names in SPANNED.items():
            for fname in names:
                name = f"{mod}.{fname}"
                fn = getattr(modules[mod], fname)
                if name in GENERATORS:
                    out[name] = self.generator(name, fn)
                else:
                    out[name] = self.spanned(name, fn, hooks.get(name))
        for mod, names in COUNTED.items():
            for fname in names:
                name = f"{mod}.{fname}"
                fn = getattr(modules[mod], fname)
                out[name] = self.level_one_counted(name, fn) if name == "hensel.eval_mod" else self.counted(name, fn)
        return out

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "factorized": [str(n) for n in self.factorized],
        }

    def absorb(self, doc: dict) -> None:
        """Merge what a traced child process exported."""
        offset = len(self.spans)
        for name, start, end, parent, busy in doc["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, busy))
        self.counts.update(doc["counts"])
        self.factorized.update(int(n) for n in doc["factorized"])


def load_modules() -> dict:
    return {m: importlib.import_module("primroots." + m) for m in MODULES}


@contextlib.contextmanager
def install(tracer: Tracer):
    """Replace every traced function in the primroots modules for the duration."""
    modules = load_modules()
    originals = {}
    for name, wrapper in tracer.wrappers(modules).items():
        fn = getattr(modules[name.split(".")[0]], name.split(".")[1])
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    originals[(mod, attr)] = value
                    setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for (mod, attr), value in originals.items():
            setattr(mod, attr, value)


def self_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Calls and self time per span name."""
    child_busy = [0.0] * len(spans)
    for _, _, _, parent, busy in spans:
        if parent >= 0:
            child_busy[parent] += busy
    out: dict[str, dict[str, float]] = {}
    for i, (name, _, _, _, busy) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += busy - child_busy[i]
    return out
