"""Per-layer tracing from outside the program.

``Tracer`` replaces each traced shadowlab function with a timing wrapper in
every namespace that binds it: the defining module, each module that did
``from .x import f``, and the ``shadowlab`` package itself.  Calls reached
through any of those names are then recorded, whoever the caller is.  Leaving
the ``with`` block puts every original object back.

Spans are kept in memory as aggregates: per function the call count, the
inclusive time and the self time (inclusive time minus the time covered by
traced children), plus the count of each parent -> child edge.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs, one per layer boundary the benchmark reports
TRACED = (
    ("config", "parse_config"),
    ("cli", "run"),
    ("systems", "evaluate"),
    ("systems", "orbit_segment"),
    ("systems", "estimate_norm_bound"),
    ("_intmat", "smith_normal_form"),
    ("_intmat", "det"),
    ("hyperbolicity", "enumerate_periodic_points_exact"),
    ("hyperbolicity", "enumerate_periodic_points_toral"),
    ("hyperbolicity", "analyze_periodic_orbit"),
    ("hyperbolicity", "subspace_angle"),
    ("hyperbolicity", "expansion_certificate"),
    ("hyperbolicity", "verify_growth_bound"),
    ("hyperbolicity", "extract_uniform_constants"),
    ("pseudo", "defect"),
    ("pseudo", "make_pseudotrajectory"),
    ("pseudo", "perturb_orbit"),
    ("pseudo", "witness_jordan"),
    ("pseudo", "witness_orbit_pullback"),
    ("pseudo", "splice_cycle"),
    ("pseudo", "save_pseudotrajectory"),
    ("shadow", "toral_orbit_with_period"),
    ("shadow", "lipschitz_scan"),
    ("shadow", "find_periodic_shadow"),
    ("shadow", "closed_form_linear_shadow"),
    ("shadow", "theoretical_linear_lipschitz_bound"),
    ("shadow", "direct_shadow_lower_bound"),
    ("shadow", "write_scan_csv"),
)

# composites whose inclusive time is reported as well as their self time
COMPOSITES = (
    "cli.run",
    "shadow.lipschitz_scan",
    "shadow.toral_orbit_with_period",
    "pseudo.witness_orbit_pullback",
    "hyperbolicity.enumerate_periodic_points_toral",
)

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _shadow_counters(stats: FunctionStats, args, result) -> None:
    xi = args[1]
    stats.add("unknowns", int(xi.points.shape[0] * xi.points.shape[1]))
    if result is not None:
        stats.add("iterations", int(result.iterations))
        stats.add("converged", int(bool(result.converged)))


def _enumeration_counters(stats: FunctionStats, args, result) -> None:
    stats.add("points", len(result))


def _witness_counters(stats: FunctionStats, args, result) -> None:
    stats.add("points", int(result[0].period))


# counters read from return values (result is None when the call raised)
RESULT_COUNTERS = {
    "shadow.find_periodic_shadow": _shadow_counters,
    "hyperbolicity.enumerate_periodic_points_exact": _enumeration_counters,
    "pseudo.witness_jordan": _witness_counters,
}


def _shadowlab_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "shadowlab" or name.startswith("shadowlab."))
    ]


class Tracer:
    """Context manager that wraps ``TRACED`` in every shadowlab namespace."""

    def __init__(self):
        self.stats = {name: FunctionStats() for name in TRACED_NAMES}
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # [name, child_time] per open span
        self.replaced: list[tuple[object, str, object]] = []  # (module, attr, original)

    def __enter__(self) -> "Tracer":
        from shadowlab.errors import SingularJacobianError

        self._singular = SingularJacobianError

        originals = {
            name: getattr(sys.modules[f"shadowlab.{mod}"], fn)
            for name, (mod, fn) in zip(TRACED_NAMES, TRACED)
        }
        wrappers = {id(obj): self._wrap(name, obj) for name, obj in originals.items()}
        try:
            for module in _shadowlab_modules():
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self.replaced.append((module, attr, value))
                        setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every replaced binding holds its original object again."""
        return all(getattr(module, attr) is original for module, attr, original in self.replaced)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        on_result = RESULT_COUNTERS.get(name)
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "<bench>"
            edges[(parent, name)] = edges.get((parent, name), 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except self._singular:
                stats.add("singular", 1)
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                stats.total_s += elapsed
                if on_result is not None:
                    on_result(stats, args, result)

        return traced
