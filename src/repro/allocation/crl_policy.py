"""CRL-based allocator: the general process F1 as a standalone policy.

Wraps :class:`repro.rl.crl.CRLModel`: environment definition via kNN over
the sensing vector, allocation via the per-cluster DQN's greedy rollout,
and a score-ordered execution plan. Its weakness — the reason the paper
adds the local process — is that the kNN-defined environment can be stale
or unrepresentative, so the estimated importance (and hence selection) can
be off.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.allocation.base import Allocator, EpochContext, place_by_scores
from repro.edgesim.node import EdgeNode
from repro.edgesim.simulator import ExecutionPlan
from repro.edgesim.workload import SimTask
from repro.errors import ConfigurationError, DataError
from repro.rl.crl import CRLModel


class CRLAllocator(Allocator):
    """Score-ordered placement using CRL-estimated importance.

    Parameters
    ----------
    model:
        A fitted :class:`CRLModel` whose geometry matches the epoch
        workloads (same task/processor counts).
    use_rl_selection:
        If True (default), only tasks the DQN rollout selected receive
        their estimated-importance score; the rest score zero and join the
        fallback tail. If False, the policy ranks purely by the estimated
        importance (the "environment definition only" ablation).
    """

    name = "CRL"

    def __init__(self, model: CRLModel, *, use_rl_selection: bool = True) -> None:
        self.model = model
        self.use_rl_selection = bool(use_rl_selection)

    def plan(
        self,
        tasks: Sequence[SimTask],
        nodes: Sequence[EdgeNode],
        context: EpochContext | None = None,
    ) -> ExecutionPlan:
        if context is None or context.sensing is None:
            raise ConfigurationError(f"{self.name} requires context.sensing (the Z vector)")
        if len(tasks) != self.model.geometry.n_tasks:
            raise DataError(
                f"workload has {len(tasks)} tasks but CRL geometry expects "
                f"{self.model.geometry.n_tasks}"
            )
        started = time.perf_counter()
        if self.use_rl_selection:
            scores = self.model.selection_scores(context.sensing)
            estimates = self.model.estimate_importance(context.sensing)
            # Tie-break the zero-scored tail by estimated importance so the
            # fallback still runs plausibly useful tasks first.
            scores = scores + 1e-6 * estimates / (float(estimates.max()) or 1.0)
        else:
            scores = self.model.estimate_importance(context.sensing)
        allocation_time = time.perf_counter() - started
        return place_by_scores(
            tasks,
            nodes,
            np.asarray(scores, dtype=float),
            time_limit_s=self.model.geometry.time_limit,
            allocation_time=allocation_time,
            label=self.name,
        )
