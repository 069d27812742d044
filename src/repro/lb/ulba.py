"""The ULBA workload policy (Section III-C, Algorithms 1-2).

At a load-balancing step every PE decides, from the replicated WIR database,
whether *it* is overloading (z-score of its WIR above the threshold).
Overloading PEs request to keep only ``(1 - alpha)`` of the perfectly
balanced workload; the surplus is divided evenly among the other PEs.  Two
guards from the paper are applied:

* if **no** PE is overloading the decision is the even split (there is no
  imbalance growth to anticipate);
* if **at least 50 %** of the PEs request underloading, the policy downgrades
  to the standard even split ("it is counter-productive to unload a majority
  of PEs").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.lb.base import LBContext, LBDecision, WorkloadPolicy
from repro.lb.wir import LazyWIRViews, OverloadDetector
from repro.partitioning.weighted import target_shares_from_alphas
from repro.utils.validation import check_fraction

__all__ = ["ULBAPolicy"]


class ULBAPolicy(WorkloadPolicy):
    """Underloading workload policy.

    Parameters
    ----------
    alpha:
        Underloading fraction a PE applies to itself when it detects it is
        overloading (user-defined constant in the paper; 0.4 in the Figure 4
        experiments).
    detector:
        Overload detector; defaults to the paper's z-score >= 3.0 rule.
    majority_guard:
        Fraction of PEs above which underloading is disabled for the step
        (0.5 in the paper).
    """

    name = "ulba"

    def __init__(
        self,
        alpha: float = 0.4,
        *,
        detector: Optional[OverloadDetector] = None,
        majority_guard: float = 0.5,
    ) -> None:
        check_fraction(alpha, "alpha")
        check_fraction(majority_guard, "majority_guard")
        self.alpha = alpha
        self.detector = detector or OverloadDetector()
        self.majority_guard = majority_guard

    # ------------------------------------------------------------------
    def decide(self, context: LBContext) -> LBDecision:
        """Apply the per-PE z-score rule and build the ULBA target shares.

        Each rank evaluates the rule against *its own* WIR view (they may be
        slightly stale and differ across ranks in gossip mode), exactly as in
        the distributed Algorithm 1; the root then aggregates the per-rank
        ``alpha`` requests (Algorithm 2).
        """
        flags = _stacked_flags([self.detector], [context])
        if flags is not None:
            return self._decision(flags[0])
        # Views that are not one complete matrix: the rule rank by rank,
        # over per-rank compacted arrays (lazily materialized views) or plain
        # per-rank dicts (sequences handed in by tests).
        views = context.wir_views
        fast = isinstance(views, LazyWIRViews)
        flags = np.zeros(context.num_pes, dtype=bool)
        for rank in range(context.num_pes):
            if fast:
                own = views.own_rate(rank)
                if own is None:
                    continue
                rates = views.known_values(rank)
            else:
                view = context.wir_view_of(rank)
                own = view.get(rank)
                if own is None:
                    continue
                rates = list(view.values())
            flags[rank] = self.detector.is_overloading(own, rates)
        return self._decision(flags)

    @classmethod
    def decide_many(
        cls,
        policies: Sequence[WorkloadPolicy],
        contexts: Sequence[LBContext],
    ) -> List[LBDecision]:
        """Decisions of several ULBA policies from one stacked z-score pass.

        Applies when every policy is a plain :class:`ULBAPolicy` whose
        identically parameterized :class:`OverloadDetector` sees complete
        views; anything else decides policy by policy.
        """
        flags = None
        if all(type(policy) is ULBAPolicy for policy in policies):
            flags = _stacked_flags([policy.detector for policy in policies], contexts)
        if flags is None:
            return super().decide_many(policies, contexts)
        return [policy._decision(row) for policy, row in zip(policies, flags)]

    def _decision(self, flags: np.ndarray) -> LBDecision:
        """The LB decision for per-rank overload ``flags`` (guards applied)."""
        num_pes = flags.size
        overloading = np.flatnonzero(flags).tolist()
        # Majority guard: unloading most of the machine cannot help.
        downgraded = bool(overloading) and len(overloading) >= self.majority_guard * num_pes
        if not overloading or downgraded:
            share = 1.0 / num_pes
            return LBDecision(
                target_shares=tuple(share for _ in range(num_pes)),
                alphas=tuple(0.0 for _ in range(num_pes)),
                overloading_ranks=tuple(overloading),
                downgraded_to_standard=downgraded,
                policy=self.name,
            )
        requested = np.where(flags, self.alpha, 0.0)
        shares = target_shares_from_alphas(requested)
        return LBDecision(
            target_shares=tuple(shares.tolist()),
            alphas=tuple(requested.tolist()),
            overloading_ranks=tuple(overloading),
            downgraded_to_standard=False,
            policy=self.name,
        )


def _stacked_flags(
    detectors: Sequence[OverloadDetector], contexts: Sequence[LBContext]
) -> Optional[np.ndarray]:
    """Every rank's overload flag at ``k`` LB steps, as ``(k, P)``.

    ``detectors[i]`` judges the views of ``contexts[i]``.  One vectorized
    pass over the ``(k, P, P)`` stack of the view matrices; its row-wise
    reductions are bitwise identical to per-rank ones.  ``None`` when some
    detector is not a plain :class:`OverloadDetector` parameterized like the
    first, or some context's views are not one complete matrix.
    """
    detector = detectors[0]
    if not all(
        type(d) is OverloadDetector
        and d.threshold == detector.threshold
        and d.min_population == detector.min_population
        for d in detectors
    ) or not all(isinstance(c.wir_views, LazyWIRViews) for c in contexts):
        return None
    matrices = [context.wir_views.complete_matrix() for context in contexts]
    if any(m is None for m in matrices):
        return None
    if all(m.strides[0] == 0 for m in matrices):
        # Instant dissemination: one view per replica, shared by its
        # ranks -- stack the rows, broadcast them back to (k, P, P).
        rows = np.stack([m[0] for m in matrices])
        stacked = np.broadcast_to(rows[:, None, :], (len(rows),) + matrices[0].shape)
    elif len(matrices) == 1:
        stacked = matrices[0][None]  # a view: no copy of a (P, P) matrix
    else:
        stacked = np.stack(matrices)
    return detector.overloading_mask_from_views(stacked)
