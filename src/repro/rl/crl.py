"""Clustered Reinforcement Learning (CRL) — the paper's Algorithm 1.

CRL deals with the *environment-dynamic knapsack*: the item values (task
importance) drift with context, so a single fixed-environment RL agent
mis-prices tasks. CRL instead

1. maintains a **historical environment store** of (sensing vector Z,
   importance vector I) pairs — the paper's E = [e_1 … e_N'];
2. performs **environment definition**: given the current Z, retrieve the
   most similar historical environment, either *online* via kNN over Z
   (paper's deployed mode) or *offline* via k-means clusters (the
   Section VII alternative);
3. trains one **DQN** per environment (offline: per cluster; online: per
   distinct retrieved neighbourhood, cached) on the TATIM instance with
   that environment's importance; and
4. answers allocation queries with a fast greedy rollout — the cheap
   inference phase that gives the data-driven approach its speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.ml.kmeans import KMeans
from repro.ml.knn import nearest_indices
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.env import AllocationEnv
from repro.rl.replay import Transition
from repro.rl.stacked import LockstepTrainer
from repro.tatim.cache import get_allocation_cache
from repro.tatim.greedy import density_greedy
from repro.tatim.problem import TATIMProblem
from repro.tatim.solution import Allocation
from repro.telemetry import get_registry, span
from repro.utils.rng import as_rng, derive_seeds


class EnvironmentStore:
    """Historical environments: (sensing Z, per-task importance I) pairs.

    The stacked matrices consumed by every kNN query are cached and
    rebuilt only when the store mutates; ``version`` advances on each
    :meth:`add` and mutation listeners (e.g. an
    :class:`~repro.tatim.cache.AllocationCache` watching the store) are
    notified so environment-keyed memos can invalidate.
    """

    def __init__(self) -> None:
        self._sensing: list[np.ndarray] = []
        self._importance: list[np.ndarray] = []
        self._sensing_stack: np.ndarray | None = None
        self._importance_stack: np.ndarray | None = None
        self._listeners: list = []
        self.version = 0

    def __len__(self) -> int:
        return len(self._sensing)

    def subscribe(self, callback) -> None:
        """Call ``callback()`` after every mutation (idempotent per callback)."""
        if callback not in self._listeners:
            self._listeners.append(callback)

    def add(self, sensing: np.ndarray, importance: np.ndarray) -> None:
        sensing = np.asarray(sensing, dtype=float).ravel()
        importance = np.asarray(importance, dtype=float).ravel()
        if self._sensing:
            if sensing.size != self._sensing[0].size:
                raise DataError(
                    f"sensing dim {sensing.size} != stored dim {self._sensing[0].size}"
                )
            if importance.size != self._importance[0].size:
                raise DataError(
                    f"importance dim {importance.size} != stored dim {self._importance[0].size}"
                )
        self._sensing.append(sensing)
        self._importance.append(importance)
        self._sensing_stack = None
        self._importance_stack = None
        self.version += 1
        for callback in self._listeners:
            callback()

    @property
    def sensing_matrix(self) -> np.ndarray:
        if not self._sensing:
            raise DataError("environment store is empty")
        if self._sensing_stack is None:
            self._sensing_stack = np.vstack(self._sensing)
        return self._sensing_stack

    @property
    def importance_matrix(self) -> np.ndarray:
        if not self._importance:
            raise DataError("environment store is empty")
        if self._importance_stack is None:
            self._importance_stack = np.vstack(self._importance)
        return self._importance_stack

    def knn_importance(self, sensing: np.ndarray, k: int = 5) -> np.ndarray:
        """Environment definition e = kNN(E, Z): mean importance of the k
        historically most similar days."""
        references = self.sensing_matrix
        query = np.asarray(sensing, dtype=float).reshape(1, -1)
        index = nearest_indices(query, references, min(k, len(self)))[0]
        return self.importance_matrix[index].mean(axis=0)


@dataclass(frozen=True)
class AgentTrainTask:
    """Self-contained, picklable spec for training one per-environment DQN.

    Everything training needs — geometry, the environment's importance
    vector, hyper-parameters, and the pre-derived seed — so training is a
    pure function of the task, and per-agent and stacked training are
    byte-identical.
    """

    geometry: TATIMProblem
    importance: np.ndarray
    dqn_config: DQNConfig
    episodes: int
    seed: int
    seed_demonstrations: bool = True
    mode: str = "offline"


def train_allocation_agent(task: AgentTrainTask) -> DQNAgent:
    """Train one per-environment DQN from a spec."""
    with span("rl.crl.train_agent", mode=task.mode):
        problem = task.geometry.scaled(importance=task.importance)
        env = AllocationEnv(problem)
        agent = DQNAgent(env.state_dim, env.n_actions, task.dqn_config, seed=task.seed)
        if task.seed_demonstrations:
            push_demonstration(agent, env, problem)
        agent.train(env, task.episodes)
    get_registry().counter(
        "repro_rl_crl_agents_trained_total",
        help="Per-environment DQN agents trained by CRL",
        mode=task.mode,
    ).inc()
    return agent


def train_allocation_agents_stacked(tasks: list[AgentTrainTask]) -> list[DQNAgent]:
    """Train many per-environment DQNs in one lockstep pass (see rl/stacked).

    The stacked counterpart of mapping :func:`train_allocation_agent`
    over ``tasks`` serially: agent construction, demonstration seeding
    and every RNG stream are per-task exactly as in the serial path, and
    the lockstep trainer's fused kernels are bitwise identical to the
    per-agent ones — so the returned agents are **byte-identical** to
    serially trained ones, just faster.
    """
    with span("rl.crl.train_agents_stacked", agents=len(tasks)):
        agents: list[DQNAgent] = []
        problems: list[TATIMProblem] = []
        for task in tasks:
            problem = task.geometry.scaled(importance=task.importance)
            env = AllocationEnv(problem)
            agent = DQNAgent(env.state_dim, env.n_actions, task.dqn_config, seed=task.seed)
            if task.seed_demonstrations:
                push_demonstration(agent, env, problem)
            agents.append(agent)
            problems.append(problem)
        LockstepTrainer(
            agents, problems, episodes=[task.episodes for task in tasks]
        ).train()
    registry = get_registry()
    for task in tasks:
        registry.counter(
            "repro_rl_crl_agents_trained_total",
            help="Per-environment DQN agents trained by CRL",
            mode=task.mode,
        ).inc()
    return agents


def push_demonstration(agent: DQNAgent, env: AllocationEnv, problem: TATIMProblem) -> None:
    """Replay the density-greedy allocation into the agent's buffer.

    The episode assigns each greedy-selected task on its greedy
    processor (in per-processor passes), then closes processors in
    order, producing a full trajectory that ends in the terminal
    reward. Transitions mirror exactly what on-policy collection would
    have stored.
    """
    demo = density_greedy(problem)
    assignment = demo.as_assignment()
    state = env.reset()
    plan: list[int] = []
    for processor in range(problem.n_processors):
        plan.extend(task for task, host in sorted(assignment.items()) if host == processor)
        plan.append(env.close_action)
    # Map each planned task assignment to the step where its processor
    # is current; the plan above already interleaves closes correctly.
    for action in plan:
        next_state, reward, done, _ = env.step(action)
        next_feasible = env.feasible_actions() if not done else np.array([], dtype=int)
        agent.buffer.push(
            Transition(
                state=state,
                action=action,
                reward=reward,
                next_state=next_state,
                done=done,
                next_feasible=next_feasible,
            )
        )
        state = next_state
    env.reset()


class CRLModel:
    """Clustered RL allocator over a fixed TATIM geometry.

    Parameters
    ----------
    geometry:
        A :class:`TATIMProblem` providing the fixed task sizes and
        processor budgets; its importance vector is a placeholder that gets
        substituted per environment.
    mode:
        ``"offline"`` — k-means clusters over sensing vectors, one agent
        per cluster (fast inference, the default); ``"online"`` — kNN
        environment definition per query with per-neighbourhood agent
        caching (the Section VII online mode).
    n_clusters, knn_k:
        Clustering / neighbourhood sizes.
    episodes:
        DQN training episodes per environment.
    seed_demonstrations:
        If True (default), each per-environment agent's replay buffer is
        pre-seeded with episodes replaying the density-greedy allocation,
        so the terminal reward signal is present from the first gradient
        step (a standard learning-from-demonstration warm start). Disable
        to measure pure exploration (ablation bench).

    Multi-agent rounds (offline fits and :meth:`warm_online_agents`)
    train their independent agents in-process in one lockstep pass
    (:func:`train_allocation_agents_stacked`), with seeds derived up front
    in a fixed order. The controller runs on an edge node, so training
    never fans out to worker processes: each worker would hold its own
    copy of the interpreter and numpy.
    """

    def __init__(
        self,
        geometry: TATIMProblem,
        *,
        mode: str = "offline",
        n_clusters: int = 4,
        knn_k: int = 5,
        episodes: int = 120,
        dqn_config: DQNConfig | None = None,
        seed_demonstrations: bool = True,
        seed=None,
    ) -> None:
        if mode not in ("offline", "online"):
            raise ConfigurationError(f"mode must be 'offline' or 'online', got {mode!r}")
        if n_clusters < 1 or knn_k < 1 or episodes < 1:
            raise ConfigurationError("n_clusters, knn_k and episodes must be >= 1")
        self.geometry = geometry
        self.mode = mode
        self.n_clusters = int(n_clusters)
        self.knn_k = int(knn_k)
        self.episodes = int(episodes)
        self.seed_demonstrations = bool(seed_demonstrations)
        self.dqn_config = dqn_config if dqn_config is not None else DQNConfig()
        self._rng = as_rng(seed)
        self.store: EnvironmentStore | None = None
        self._kmeans: KMeans | None = None
        self._cluster_agents: dict[int, DQNAgent] = {}
        self._online_agents: dict[tuple[int, ...], DQNAgent] = {}
        # Pre-register this model's metric families so /metrics scrapes
        # show them at zero before the first event instead of omitting
        # them (the inc/observe call sites re-fetch the same children).
        registry = get_registry()
        registry.counter(
            "repro_rl_crl_agents_trained_total",
            help="Per-environment DQN agents trained by CRL",
            mode=self.mode,
        )
        registry.counter(
            "repro_rl_crl_rollouts_total",
            help="DQN greedy rollouts actually executed (cache misses)",
            mode=self.mode,
        )
        registry.counter(
            "repro_rl_crl_allocations_total",
            help="CRL allocation queries answered",
            mode=self.mode,
        )
        registry.counter(
            "repro_rl_crl_knn_lookups_total",
            help="kNN environment-definition lookups (Algorithm 1's e = kNN(E, Z))",
        )
        registry.histogram(
            "repro_rl_crl_knn_lookup_seconds",
            help="kNN environment-definition latency",
        )

    # ------------------------------------------------------------------
    def _train_task(self, importance: np.ndarray, seed: int) -> AgentTrainTask:
        return AgentTrainTask(
            geometry=self.geometry,
            importance=np.asarray(importance, dtype=float),
            dqn_config=self.dqn_config,
            episodes=self.episodes,
            seed=int(seed),
            seed_demonstrations=self.seed_demonstrations,
            mode=self.mode,
        )

    def _train_agents(self, importances: list, seeds: list) -> list[DQNAgent]:
        """One agent per (importance, seed), in order, in one lockstep pass."""
        tasks = [
            self._train_task(importance, seed) for importance, seed in zip(importances, seeds)
        ]
        if len(tasks) == 1:
            return [train_allocation_agent(tasks[0])]
        return train_allocation_agents_stacked(tasks)

    def _train_agent(self, importance: np.ndarray) -> DQNAgent:
        """Train one agent in-process (online mode's lazy path).

        Draws its seed from the model RNG exactly as
        :meth:`warm_online_agents` does per missing key, so lazily trained
        and bulk-warmed agents are byte-identical.
        """
        seed = int(self._rng.integers(0, 2**31 - 1))
        return train_allocation_agent(self._train_task(importance, seed))

    def warm_online_agents(self, sensing_rows) -> int:
        """Pre-train the online-mode agents a batch of queries will need.

        The lazy path trains each missing neighbourhood agent at first
        lookup. When the sensing vectors are known up front (an
        evaluation sweep, a day of forecast queries), this collects the
        *distinct missing* neighbourhood keys in first-occurrence order,
        draws each agent's seed from the model RNG in that same order —
        exactly the draws the lazy path would have made — and trains the
        independent agents together in one lockstep pass. Subsequent :meth:`allocate`
        calls then hit the agent cache, and the warmed agents are
        byte-identical to lazily trained ones. Returns the number of
        agents trained.
        """
        if self.mode != "online":
            raise ConfigurationError(
                f"warm_online_agents requires mode='online', got {self.mode!r}"
            )
        self._require_fitted()
        missing: dict[tuple, np.ndarray] = {}
        for row in sensing_rows:
            key = self._environment_key(row)
            if key in self._online_agents or key in missing:
                continue
            missing[key] = self.estimate_importance(row)
        if not missing:
            return 0
        with span("rl.crl.online_warm", agents=len(missing)):
            # Seeds are drawn per missing key in first-occurrence order:
            # the exact RNG stream serial lazy training would consume.
            seeds = [int(self._rng.integers(0, 2**31 - 1)) for _ in missing]
            trained = self._train_agents(list(missing.values()), seeds)
            for key, agent in zip(missing, trained):
                self._online_agents[key] = agent
        return len(trained)

    def fit(self, store: EnvironmentStore) -> "CRLModel":
        """Training phase of Algorithm 1 over the historical store.

        Offline mode trains one DQN per k-means cluster; the clusters are
        independent, so they train together in one in-process lockstep
        pass.
        """
        if len(store) == 0:
            raise DataError("cannot fit CRL on an empty environment store")
        self.store = store
        cache = get_allocation_cache()
        if cache is not None:
            cache.watch(store)
        with span("rl.crl.fit", mode=self.mode, environments=len(store)):
            if self.mode == "offline":
                k = min(self.n_clusters, len(store))
                self._kmeans = KMeans(n_clusters=k, seed=self._rng)
                labels = self._kmeans.fit_predict(store.sensing_matrix)
                importance = store.importance_matrix
                clusters = [int(c) for c in np.unique(labels)]
                seeds = derive_seeds(self._rng, len(clusters))
                trained = self._train_agents(
                    [importance[labels == cluster].mean(axis=0) for cluster in clusters],
                    seeds,
                )
                for cluster, agent in zip(clusters, trained):
                    self._cluster_agents[cluster] = agent
        return self

    def _require_fitted(self) -> None:
        if self.store is None:
            raise NotFittedError("CRLModel is not fitted; call fit(store) first")

    # ------------------------------------------------------------------
    def estimate_importance(self, sensing: np.ndarray) -> np.ndarray:
        """The environment definition step: estimated I for the current Z."""
        self._require_fitted()
        started = time.perf_counter()
        with span("rl.crl.knn_lookup", k=self.knn_k):
            importance = self.store.knn_importance(sensing, self.knn_k)
        registry = get_registry()
        registry.counter(
            "repro_rl_crl_knn_lookups_total",
            help="kNN environment-definition lookups (Algorithm 1's e = kNN(E, Z))",
        ).inc()
        registry.histogram(
            "repro_rl_crl_knn_lookup_seconds",
            help="kNN environment-definition latency",
        ).observe(time.perf_counter() - started)
        return importance

    def _environment_key(self, sensing: np.ndarray):
        """Stable id of the environment a query maps to (cluster / kNN set)."""
        if self.mode == "offline":
            return int(
                self._kmeans.predict(np.asarray(sensing, dtype=float).reshape(1, -1))[0]
            )
        references = self.store.sensing_matrix
        query = np.asarray(sensing, dtype=float).reshape(1, -1)
        return tuple(
            sorted(
                int(i)
                for i in nearest_indices(
                    query, references, min(self.knn_k, len(self.store))
                )[0]
            )
        )

    def _agent_for_key(self, environment_key, importance: np.ndarray) -> DQNAgent:
        if self.mode == "offline":
            return self._cluster_agents[environment_key]
        # Online: cache one agent per distinct kNN neighbourhood.
        agent = self._online_agents.get(environment_key)
        if agent is None:
            agent = self._train_agent(importance)
            self._online_agents[environment_key] = agent
        return agent

    def allocate(self, sensing: np.ndarray) -> Allocation:
        """Prediction phase of Algorithm 1: u = F1((e, s0); θ*).

        With an ambient :class:`~repro.tatim.cache.AllocationCache`
        installed, the greedy rollout is memoized per (environment id,
        quantized importance, geometry, store version): repeat queries
        that quantize to the same environment return the cached
        allocation without a rollout. Store mutations bump the version
        (and clear watched caches), so stale environments can never hit.
        """
        self._require_fitted()
        registry = get_registry()
        with span("rl.crl.allocate", mode=self.mode):
            importance = self.estimate_importance(sensing)
            environment_key = self._environment_key(sensing)
            cache = get_allocation_cache()
            key = None
            allocation = None
            if cache is not None:
                # Idempotent: covers caches installed after fit() ran.
                cache.watch(self.store)
                key = (
                    "crl.allocate",
                    self.mode,
                    self.store.version,
                    environment_key,
                    cache.array_signature(importance),
                    cache.problem_signature(self.geometry),
                )
                allocation = cache.get(key)
            if allocation is None:
                agent = self._agent_for_key(environment_key, importance)
                env = AllocationEnv(self.geometry.scaled(importance=importance))
                allocation = agent.solve(env)
                registry.counter(
                    "repro_rl_crl_rollouts_total",
                    help="DQN greedy rollouts actually executed (cache misses)",
                    mode=self.mode,
                ).inc()
                if key is not None:
                    cache.put(key, allocation)
        registry.counter(
            "repro_rl_crl_allocations_total",
            help="CRL allocation queries answered",
            mode=self.mode,
        ).inc()
        return allocation

    def allocate_batch(self, sensing_rows) -> list[Allocation]:
        """Answer many allocation queries with batched greedy rollouts.

        Queries are grouped by the environment they map to (in
        first-occurrence order, so online-mode lazy training consumes
        the model RNG exactly as the serial loop would) and each group's
        rollouts run through :meth:`DQNAgent.solve_greedy_batch` — one
        batched kernel instead of one rollout loop per query. With an
        ambient :class:`~repro.tatim.cache.AllocationCache`, hits skip
        the rollout and duplicate keys within the batch solve once, just
        as repeat queries would against a warming cache. The returned
        allocations are byte-identical to
        ``[self.allocate(z) for z in sensing_rows]``.
        """
        self._require_fitted()
        rows = [np.asarray(row, dtype=float) for row in sensing_rows]
        if not rows:
            return []
        registry = get_registry()
        results: list[Allocation | None] = [None] * len(rows)
        cache = get_allocation_cache()
        if cache is not None:
            cache.watch(self.store)
        with span("rl.crl.allocate_batch", mode=self.mode, queries=len(rows)):
            # Group cache misses per environment, deduping by cache key
            # (first occurrence solves; later duplicates reuse it, which
            # is what the serial loop's warming cache would do).
            groups: dict = {}
            for i, sensing in enumerate(rows):
                importance = self.estimate_importance(sensing)
                environment_key = self._environment_key(sensing)
                key = None
                if cache is not None:
                    key = (
                        "crl.allocate",
                        self.mode,
                        self.store.version,
                        environment_key,
                        cache.array_signature(importance),
                        cache.problem_signature(self.geometry),
                    )
                    allocation = cache.get(key)
                    if allocation is not None:
                        results[i] = allocation
                        continue
                group = groups.setdefault(environment_key, {})
                dedup_key = key if key is not None else ("query", i)
                entry = group.get(dedup_key)
                if entry is None:
                    group[dedup_key] = (importance, [i])
                else:
                    entry[1].append(i)
            rollout_counter = registry.counter(
                "repro_rl_crl_rollouts_total",
                help="DQN greedy rollouts actually executed (cache misses)",
                mode=self.mode,
            )
            for environment_key, group in groups.items():
                entries = list(group.items())
                first_importance = entries[0][1][0]
                agent = self._agent_for_key(environment_key, first_importance)
                envs = [
                    AllocationEnv(self.geometry.scaled(importance=importance))
                    for _, (importance, _) in entries
                ]
                if len(envs) > 1:
                    allocations = agent.solve_greedy_batch(envs)
                else:
                    allocations = [agent.solve(envs[0])]
                for (dedup_key, (_, indices)), allocation in zip(entries, allocations):
                    rollout_counter.inc()
                    if cache is not None and not (
                        isinstance(dedup_key, tuple) and dedup_key[0] == "query"
                    ):
                        cache.put(dedup_key, allocation)
                    for i in indices:
                        results[i] = allocation
        allocation_counter = registry.counter(
            "repro_rl_crl_allocations_total",
            help="CRL allocation queries answered",
            mode=self.mode,
        )
        for _ in rows:
            allocation_counter.inc()
        return results

    def selection_scores(self, sensing: np.ndarray) -> np.ndarray:
        """Per-task scores in [0, 1] for cooperative combination (Eq. 6).

        Allocated tasks score their (normalized) estimated importance;
        unallocated tasks score 0. This is the general process F1's soft
        output consumed by the DCTA combiner.
        """
        importance = self.estimate_importance(sensing)
        allocation = self.allocate(sensing)
        scale = float(importance.max()) or 1.0
        selected = allocation.matrix.sum(axis=1).astype(float)
        return selected * importance / scale

    def selection_scores_batch(self, sensing_rows) -> np.ndarray:
        """Stacked :meth:`selection_scores` for many queries at once.

        One :meth:`allocate_batch` call answers every query's rollout;
        the per-row score arithmetic is unchanged, so row ``i`` equals
        ``selection_scores(sensing_rows[i])`` bit for bit.
        """
        rows = [np.asarray(row, dtype=float) for row in sensing_rows]
        if not rows:
            return np.zeros((0, self.geometry.n_tasks))
        allocations = self.allocate_batch(rows)
        scores = np.empty((len(rows), self.geometry.n_tasks))
        for i, (sensing, allocation) in enumerate(zip(rows, allocations)):
            importance = self.estimate_importance(sensing)
            scale = float(importance.max()) or 1.0
            selected = allocation.matrix.sum(axis=1).astype(float)
            scores[i] = selected * importance / scale
        return scores
