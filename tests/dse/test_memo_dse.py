"""Warm-store behaviour: a second exploration re-simulates nothing.

The satellite guarantee of the DSE engine: every previously evaluated
point replays from the CAS — per-stage hit counters show a hit for every
point's ``dse_point`` entry and zero misses anywhere, and the emitted
report is byte-identical to the cold one.
"""

import pytest

from repro.dse import EvolutionaryConfig, PointEvaluator, explore
from repro.store import ArtifactStore


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "library")


class TestWarmExploration:
    def test_second_run_hits_every_point(self, space, spec, store_dir):
        cold_store = ArtifactStore(store_dir)
        cold = explore(space, spec, store=cold_store)
        n_points = space.size()
        assert cold_store.counters["miss"]["dse_point"] == n_points

        warm_store = ArtifactStore(store_dir)
        warm = explore(space, spec, store=warm_store)
        # Every evaluated point replays from the CAS...
        assert warm_store.counters["hit"]["dse_point"] == n_points
        # ...nothing is recomputed anywhere in the pipeline...
        assert dict(warm_store.counters["miss"]) == {}
        assert dict(warm_store.counters["store"]) == {}
        # ...and the flow prefix stages were warm for every point too.
        for stage in ("synthesize", "opt"):
            assert warm_store.counters["hit"][stage] == n_points
        # The report replays byte-identically.
        assert warm.to_json() == cold.to_json()

    def test_hardened_netlists_never_leave_disk_when_warm(
            self, space, spec, store_dir):
        explore(space, spec, store=ArtifactStore(store_dir))
        warm_store = ArtifactStore(store_dir)
        evaluator = PointEvaluator(space, spec, store=warm_store)
        for assignment in (
            {"count_bits": 6, "hardening": "parity"},
            {"count_bits": 8, "hardening": "parity"},
        ):
            result = evaluator.evaluate(assignment)
            assert result.ok
        # harden entries hit lazily: digest-only, no deserialization.
        assert warm_store.counters["hit"]["harden"] == 2
        assert dict(warm_store.counters["miss"]) == {}

    def test_evolutionary_rides_the_factorial_cache(
            self, space, spec, store_dir):
        factorial = explore(space, spec, store=ArtifactStore(store_dir))
        warm_store = ArtifactStore(store_dir)
        evolved = explore(
            space, spec, strategy="evolutionary", store=warm_store,
            evolution=EvolutionaryConfig(population=4, generations=4,
                                         seed=9),
        )
        # The search revisits only cached points: zero misses, and once
        # it has seen every point its report sections match factorial's.
        assert dict(warm_store.counters["miss"]) == {}
        if len(evolved.points) == space.size():
            assert evolved.doc["points"] == factorial.doc["points"]
            assert evolved.pareto_ids == factorial.pareto_ids

    def test_campaign_spec_changes_miss(self, space, spec, store_dir):
        explore(space, spec, store=ArtifactStore(store_dir))
        other = type(spec)(
            stimulus=spec.stimulus,
            config=spec.config,
            n_faults=spec.n_faults + 1,
            seed=spec.seed,
            backend=spec.backend,
        )
        store = ArtifactStore(store_dir)
        explore(space, other, store=store)
        # Flow prefix stays warm; every point's campaign re-runs.
        assert store.counters["miss"]["dse_point"] == space.size()
        assert store.counters["hit"]["synthesize"] == space.size()

    def test_backend_is_cache_transparent(self, space, spec, store_dir):
        cold = explore(space, spec, store=ArtifactStore(store_dir))
        other = type(spec)(
            stimulus=spec.stimulus,
            config=spec.config,
            n_faults=spec.n_faults,
            seed=spec.seed,
            backend="event",
        )
        store = ArtifactStore(store_dir)
        warm = explore(space, other, store=store)
        # Backends produce byte-identical campaigns, so the spec
        # fingerprint excludes them: the event-backend run replays the
        # bit-parallel run's entries.
        assert dict(store.counters["miss"]) == {}
        assert warm.to_json() == cold.to_json()
