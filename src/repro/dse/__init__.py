"""Design-space exploration over the OSSS flow (ROADMAP item 1).

The payoff of the object-oriented methodology: because every design
variant is just another template specialization (plus a scheduler policy
and an optional hardening pass), a *design space* is declarative data —
axes over a factory — and exploring it is a matter of driving the
memoized flow stack point by point:

:mod:`repro.dse.space`
    :class:`DesignSpace` / :class:`Axis`, factorial enumerations.
:mod:`repro.dse.evaluate`
    :class:`PointEvaluator` — synthesize → opt → harden →
    STA/area/fault-campaign, every step memoized through the design
    library so re-exploration replays warm.
:mod:`repro.dse.search`
    Full/fractional factorial and the seeded evolutionary loop.
:mod:`repro.dse.pareto`
    Exact Pareto front + weighted-sum MCDM ranking.
:mod:`repro.dse.report`
    The canonical ``repro-dse/v1`` report (:func:`explore` end-to-end).
:mod:`repro.dse.scenarios`
    The bundled ExpoCU spaces behind ``repro dse``.
"""

from repro.dse.evaluate import (
    POINT_ERRORS,
    CampaignSpec,
    PointEvaluator,
    PointResult,
)
from repro.dse.pareto import (
    DEFAULT_OBJECTIVES,
    DseError,
    Objective,
    dominates,
    mcdm_ranking,
    pareto_front,
)
from repro.dse.report import DseResult, build_report, explore
from repro.dse.scenarios import expocu_campaign_spec, expocu_space
from repro.dse.search import (
    EvolutionaryConfig,
    SearchOutcome,
    evolutionary_search,
    factorial_search,
)
from repro.dse.space import (
    Axis,
    DesignSpace,
    fractional_factorial,
    full_factorial,
    neighbors,
)

__all__ = [
    "Axis",
    "CampaignSpec",
    "DEFAULT_OBJECTIVES",
    "DesignSpace",
    "DseError",
    "DseResult",
    "EvolutionaryConfig",
    "Objective",
    "POINT_ERRORS",
    "PointEvaluator",
    "PointResult",
    "SearchOutcome",
    "build_report",
    "dominates",
    "evolutionary_search",
    "expocu_campaign_spec",
    "expocu_space",
    "explore",
    "factorial_search",
    "fractional_factorial",
    "full_factorial",
    "mcdm_ranking",
    "neighbors",
    "pareto_front",
]
