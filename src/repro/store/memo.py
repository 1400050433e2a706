"""Memoized flow stages: the glue between flows, store and profiler.

:class:`StageRunner` wraps one stage invocation: compute the stage key
from its input fingerprints, probe the store, and either replay the
cached artifact or run the real compute and persist its result.  Every
path runs inside an :mod:`repro.obs` span carrying ``cache="hit"`` /
``"miss"`` / ``"off"`` metadata, so traces show exactly which stages
were skipped.

Every hit is **lazy**: :meth:`StageOutcome.value` loads and
deserializes the artifact only when somebody asks for it, while
:attr:`StageOutcome.digest` is available at once from the pointer.
This is what makes warm runs fast — downstream keys chain on digests,
so a warm build that reports only its stored summary rows never loads
a netlist, timing report or placement at all.

Corruption discovered at materialization time (bad bytes, a document
the deserializer rejects) falls back to the retained compute thunk:
the artifact is recomputed in a ``cache="corrupt"`` span of the stage's
name, re-stored, and the stage's ``corrupt`` counter ticks.  A cache
problem can cost time, never correctness.  An artifact nothing loads
is never checked on the way; ``ArtifactStore.verify`` rehashes them all.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs import NULL_TRACER
from repro.store.cas import ArtifactStore
from repro.store.common import StoreError
from repro.store.fingerprint import stage_key


class StageOutcome:
    """Result handle of one (possibly cached) stage run."""

    __slots__ = ("stage", "hit", "digest", "_value", "_loaded",
                 "_materialize")

    def __init__(self, stage: str, hit: bool, digest: str | None,
                 value: Any = None, loaded: bool = False,
                 materialize: Callable[["StageOutcome"], Any] | None = None,
                 ) -> None:
        self.stage = stage
        self.hit = hit
        self.digest = digest
        self._value = value
        self._loaded = loaded
        self._materialize = materialize

    def value(self) -> Any:
        """The stage's artifact, deserializing (or recomputing) lazily."""
        if not self._loaded:
            self._value = self._materialize(self)
            self._loaded = True
            self._materialize = None
        return self._value


class StageRunner:
    """Runs flow stages through the design library.

    Parameters
    ----------
    store:
        The :class:`ArtifactStore`, or ``None`` to disable caching —
        every stage then computes inline (identical spans, ``cache="off"``).
    tracer:
        An :mod:`repro.obs` tracer; stage spans open on it.
    guard:
        Optional callable invoked with the stage name before any stage
        work (fingerprinting, probe or compute), and again before a
        corrupt hit is recomputed on load.  Cancellation hook for
        long-lived callers — ``repro serve`` passes a guard that raises
        when the job owning this runner has been cancelled or has
        overrun its deadline, so a flow stops at the next stage
        boundary instead of running to the end.
    """

    def __init__(self, store: ArtifactStore | None,
                 tracer=NULL_TRACER,
                 guard: Callable[[str], None] | None = None) -> None:
        self.store = store
        self.tracer = tracer
        self.guard = guard

    def run(
        self,
        stage: str,
        parts: "tuple[str, ...] | Callable[[], tuple[str, ...]]",
        compute: Callable[[], Any],
        dump: Callable[[Any], Any],
        load: Callable[[Any], Any],
    ) -> StageOutcome:
        """Run *stage* memoized.

        Parameters
        ----------
        stage:
            Stage name (also the span name and counter key).
        parts:
            Input fingerprints; combined with the stage code version
            into the cache key.  May be a zero-argument callable when
            computing the fingerprints is itself stage work (it then
            runs inside the stage span, and not at all with no store).
        compute:
            Produces the live artifact (runs only on a miss, or when a
            hit later turns out corrupt).
        dump / load:
            Serialize the live artifact to a JSON document / rebuild it.
            ``load`` raising :class:`StoreError` triggers recompute.

        A hit returns at once with the digest; the artifact loads on
        the first ``.value()``.  A miss computes and stores inline, and
        with no store every stage computes inline in call order.

        The stage span covers everything attributable to the stage:
        key fingerprinting, the store probe, compute *and* the
        serialize-and-store of the result, so profiler traces explain
        cold-run caching overhead stage by stage.
        """
        if self.guard is not None:
            self.guard(stage)
        if self.store is None:
            with self.tracer.span(stage) as span:
                value = compute()
                span.annotate(cache="off")
            return StageOutcome(stage, hit=False, digest=None,
                                value=value, loaded=True)

        with self.tracer.span(stage) as span:
            if callable(parts):
                parts = parts()
            key = stage_key(stage, *parts)
            digest = self.store.probe(stage, key)
            if digest is not None:
                self.store._count("hit", stage)
                span.annotate(cache="hit")
                return StageOutcome(
                    stage, hit=True, digest=digest,
                    materialize=lambda o: self._materialize(o, key, compute,
                                                            dump, load),
                )

            self.store._count("miss", stage)
            value = compute()
            span.annotate(cache="miss")
            stored = self.store.store(stage, key, dump(value))
        return StageOutcome(stage, hit=False, digest=stored,
                            value=value, loaded=True)

    def _materialize(self, outcome: StageOutcome, key: str,
                     compute: Callable[[], Any],
                     dump: Callable[[Any], Any],
                     load: Callable[[Any], Any]) -> Any:
        doc = self.store.get_object(outcome.digest)
        if doc is not None:
            try:
                return load(doc)
            except StoreError:
                self.store._discard(
                    self.store._object_path(outcome.digest))
        # Corrupt or vanished: graceful recompute, then heal the store.
        # The load may come long after the stage ran, so the recompute
        # opens a span of its own and is a cancellation point again.
        self.store._count("corrupt", outcome.stage)
        if self.guard is not None:
            self.guard(outcome.stage)
        with self.tracer.span(outcome.stage) as span:
            value = compute()
            span.annotate(cache="corrupt")
            outcome.digest = self.store.store(outcome.stage, key,
                                              dump(value))
        outcome.hit = False
        return value
