"""Parameter sweeps over template parameters (deliverable-d harness).

The OSSS selling point exercised here is that **templates make design-space
exploration one-liners**: a sweep re-specializes the same source with
different template arguments and pushes each specialization through the
full flow.  Used by ``bench_sweep_params.py`` and ad-hoc exploration;
the design-space exploration engine (:mod:`repro.dse`) has its own
point evaluator.

A sweep is resilient: a specialization that fails in the flow
(:class:`~repro.synth.SynthesisError` and friends) is *recorded* as a
failed :class:`SweepPoint` and the sweep continues — one broken corner
of a parameter grid must not abort the other points.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.eval.flows import FlowResult, run_osss_flow

#: The flow summary columns a sweep row carries.
_ROW_FIELDS = ("area_ge", "cells", "flops", "fmax_mhz")


def _flow_errors() -> tuple[type[Exception], ...]:
    """The exception types a sweep records instead of propagating."""
    from repro.analyze import AnalysisError
    from repro.netlist import NetlistError
    from repro.synth import SynthesisError

    return (SynthesisError, NetlistError, AnalysisError)


class SweepPoint:
    """One synthesized design point — or one recorded failure."""

    def __init__(self, params: Mapping[str, Any],
                 result: FlowResult | None,
                 error: Exception | None = None) -> None:
        self.params = dict(params)
        self.result = result
        self.error = error

    @property
    def ok(self) -> bool:
        """True when the point's flow completed."""
        return self.error is None

    def row(self) -> dict[str, Any]:
        """Flat record for tables: the parameters plus four columns of
        the flow's stored summary row."""
        record: dict[str, Any] = dict(self.params)
        if self.result is None:
            record.update({
                "error": f"{type(self.error).__name__}: {self.error}",
            })
            return record
        summary = self.result.summary()
        record.update({field: summary[field] for field in _ROW_FIELDS})
        return record

    def __repr__(self) -> str:
        if self.result is None:
            return f"SweepPoint({self.params}, error={self.error!r})"
        return f"SweepPoint({self.params}, area={self.result.area:.0f})"


def sweep(
    factory: Callable[..., Any],
    points: Iterable[Mapping[str, Any]],
    store=None,
) -> list[SweepPoint]:
    """Synthesize ``factory(**params)`` for every parameter point.

    *factory* returns a fresh kernel-level module for the given
    parameters, and each runs through
    :func:`repro.eval.flows.run_osss_flow`.  With a *store*
    (:class:`~repro.store.ArtifactStore`), every point runs memoized
    through the design library, so re-sweeping (or overlapping a sweep
    with ``repro build``) replays warm entries per specialization
    instead of re-synthesizing them.

    A point whose specialization fails in the flow is recorded as a
    failed :class:`SweepPoint` (``.ok`` false, ``.error`` set) and the
    sweep continues.  An empty *points* iterable yields an empty sweep.
    """
    results = []
    for params in points:
        try:
            result = run_osss_flow(factory(**params), store=store)
        except _flow_errors() as exc:
            results.append(SweepPoint(params, None, error=exc))
        else:
            results.append(SweepPoint(params, result))
    return results


def grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as parameter dictionaries.

    An axis with an empty value list makes the product empty; no axes
    at all yield the single empty point (a zero-dimensional space).
    """
    names = list(axes)
    points: list[dict[str, Any]] = [{}]
    for name in names:
        points = [dict(p, **{name: value})
                  for p in points for value in axes[name]]
    return points


def monotonic(rows: Sequence[Mapping[str, Any]], x: str, y: str,
              strict: bool = False) -> bool:
    """True if *y* is (weakly) increasing along increasing *x*."""
    ordered = sorted(rows, key=lambda r: r[x])
    values = [r[y] for r in ordered]
    if strict:
        return all(a < b for a, b in zip(values, values[1:]))
    return all(a <= b for a, b in zip(values, values[1:]))
