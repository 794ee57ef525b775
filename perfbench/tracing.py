"""Spans around otocsim's layer boundaries, recorded from outside the package.

``install`` replaces each target function, in the namespace of the module
that calls it, by a wrapper that records a span (name, group, start, end,
parent).  Wrapping a name in its caller's namespace is what makes the
counts layer-crossing calls: ``embed_pauli`` is wrapped where ``otoc`` and
``protocol`` import it, not inside ``hilbert``, so the embeddings that
``projector`` builds internally count as part of the projector.

A target that a later version deletes, renames or stops importing is
reported as missing and simply yields no spans; nothing here assumes the
package layout beyond the names in ``TARGETS``.  Spans stay in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``attr`` may be ``"name"`` or ``"Class.method"``."""

    module: str
    attr: str
    group: str
    size_param: str | None = None  # integer argument recorded as the span's size

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


DENSE_OPS = "hilbert.dense_ops"

TARGETS: tuple[Target, ...] = (
    Target("otocsim.cli", "parse_config", "config.parse"),
    Target("otocsim.cli", "build_xy_chain", "dynamics.build"),
    Target("otocsim.dynamics", "Propagator.from_hamiltonian", "dynamics.eigh"),
    Target("otocsim.cli", "all_up_state", "hilbert.state"),
    Target("otocsim.cli", "maximally_mixed_state", "hilbert.state"),
    Target("otocsim.dynamics", "Propagator.unitary", "dynamics.unitary"),
    Target("otocsim.otoc", "embed_pauli", DENSE_OPS, "n_sites"),
    Target("otocsim.protocol", "embed_pauli", DENSE_OPS, "n_sites"),
    Target("otocsim.protocol", "projector", DENSE_OPS, "n_sites"),
    Target("otocsim.protocol", "rotation_operator", DENSE_OPS, "n_sites"),
    Target("otocsim.cli", "otoc_direct", "otoc.direct"),
    Target("otocsim.verification", "otoc_direct", "otoc.direct"),
    Target("otocsim.cli", "re_otoc_via_protocol", "protocol.tree"),
    Target("otocsim.cli", "outcome_probabilities", "protocol.tree"),
    Target("otocsim.protocol", "outcome_probabilities", "protocol.tree"),
    Target("otocsim.verification", "re_otoc_via_protocol", "protocol.tree"),
    Target("otocsim.cli", "im_otoc_via_protocol", "protocol.rotation"),
    Target("otocsim.verification", "im_otoc_via_protocol", "protocol.rotation"),
    Target("otocsim.protocol", "rotated_expectation", "protocol.rotation"),
    Target("otocsim.sampling", "rotated_expectation", "protocol.rotation"),
    Target("otocsim.cli", "sample_sequences", "sampling.draw"),
    Target("otocsim.cli", "estimate_re_otoc", "sampling.draw"),
    Target("otocsim.cli", "sample_rotation_protocol", "sampling.rotation_draw"),
    Target("otocsim.cli", "scan_curve", "dressing.scan", "n_points"),
    Target("otocsim.cli", "run_verification_suite", "verification.suite"),
    Target("otocsim.verification", "random_density", "verification.suite"),
)


@dataclass
class Span:
    name: str
    group: str
    start: float
    end: float
    parent: int | None
    size: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def open(self, name: str, group: str, size: int | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, group, time.perf_counter(), float("nan"), parent, size))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.remove(index)

    def wrap(self, fn, name: str, group: str, sizer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, group, sizer(args, kwargs) if sizer else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _sizer(fn, param: str | None):
    """Reads integer argument ``param`` of a call to ``fn``; None if it cannot."""
    if param is None:
        return None
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if param not in signature.parameters:
        return None

    def size(args, kwargs):
        try:
            value = signature.bind(*args, **kwargs).arguments.get(param)
        except TypeError:
            return None
        return value if isinstance(value, int) else None

    return size


def install(tracer: Tracer, targets=TARGETS) -> tuple[list[str], list[str]]:
    """Wrap every target that exists; return the names wrapped and those missing."""
    installed, missing = [], []
    for target in targets:
        *path, leaf = target.attr.split(".")
        try:
            owner = importlib.import_module(target.module)
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(target.name)
            continue
        rebind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if rebind else raw
        if not inspect.isfunction(fn):
            missing.append(target.name)
            continue
        wrapper = tracer.wrap(fn, target.name, target.group, _sizer(fn, target.size_param))
        setattr(owner, leaf, rebind(wrapper) if rebind else wrapper)
        installed.append(target.name)
    return installed, missing


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def roots(spans: list[Span]) -> list[int]:
    """Index of the outermost ancestor of each span (parents precede children)."""
    result: list[int] = []
    for index, span in enumerate(spans):
        result.append(index if span.parent is None else result[span.parent])
    return result
