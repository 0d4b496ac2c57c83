"""Typed job model for the simulation job server.

A *job* is one client submission: an experiment name plus a parameter
grid and seed list, expanded into the same ``(params, seed)`` trial pairs
a sweep would run.  Jobs are content-addressed — :meth:`JobSpec.fingerprint`
hashes the fully-resolved trial keys, so two submissions of the same work
share an identity and the second is served from cache without a worker.

State machine (enforced by :meth:`JobRecord.transition`)::

    queued -> running -> done
           \\         \\-> failed
            \\-> cancelled (from queued or running)

plus ``queued -> done`` for the cache-hit fast path: a submission whose
trials are all cached never enters the queue at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..serialization import stable_hash
from ..experiments.sweep import expand_grid, trial_key
from ..experiments.topology import Calibration


class JobState:
    """Job lifecycle states (plain strings so they serialize untouched)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)

    #: Legal transitions; cache-hit submissions jump queued -> done.
    _EDGES = {
        QUEUED: (RUNNING, DONE, CANCELLED),
        RUNNING: (DONE, FAILED, CANCELLED),
    }

    @classmethod
    def can_transition(cls, current: str, target: str) -> bool:
        return target in cls._EDGES.get(current, ())


@dataclass(frozen=True)
class JobSpec:
    """What a client asked for: one experiment, a grid, and seeds.

    ``params`` are base parameters applied to every trial; ``grid`` axes
    expand cartesian like a sweep's (so one submission can carry a whole
    campaign-style study); ``seeds`` multiply every combination.
    """

    experiment: str = "scenario"
    params: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    priority: int = 1
    client: str = "anonymous"

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")

    def trials(self) -> List[Tuple[Dict[str, Any], int]]:
        """The job's ``(params, seed)`` pairs, in deterministic order."""
        pairs: List[Tuple[Dict[str, Any], int]] = []
        for combo in expand_grid(self.grid, self.params):
            for seed in self.seeds:
                pairs.append((combo, int(seed)))
        return pairs

    def trial_keys(self, calibration: Optional[Calibration] = None) -> List[str]:
        """Content addresses of every trial (the sweep cache's keys)."""
        return [
            trial_key(self.experiment, params, seed, calibration)
            for params, seed in self.trials()
        ]

    def fingerprint(self, calibration: Optional[Calibration] = None) -> str:
        """Content address of the whole job: hash of its trial keys.

        Two submissions asking for the same fully-resolved work — however
        they spelled their grids — collide here, which is what lets the
        server treat a duplicate submission as a pure cache lookup.
        """
        return stable_hash({
            "experiment": self.experiment,
            "keys": self.trial_keys(calibration),
        })

    def to_wire(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "grid": {name: list(values) for name, values in self.grid.items()},
            "seeds": [int(s) for s in self.seeds],
            "priority": int(self.priority),
            "client": self.client,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "JobSpec":
        return cls(
            experiment=str(payload.get("experiment", "scenario")),
            params=dict(payload.get("params", {})),
            grid={
                str(name): tuple(values)
                for name, values in dict(payload.get("grid", {})).items()
            },
            seeds=tuple(int(s) for s in payload.get("seeds", (0,))),
            priority=int(payload.get("priority", 1)),
            client=str(payload.get("client", "anonymous")),
        )


@dataclass
class JobRecord:
    """One job's full server-side state (what ``status`` returns)."""

    job_id: str
    spec: JobSpec
    fingerprint: str
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    total_trials: int = 0
    done_trials: int = 0
    cached_hits: int = 0
    error: str = ""
    #: True when the whole job was served from cache at submit time.
    from_cache: bool = False

    def transition(self, target: str) -> None:
        if not JobState.can_transition(self.state, target):
            raise ValueError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {target!r}"
            )
        self.state = target
        now = time.time()
        if target == JobState.RUNNING:
            self.started_at = now
        elif target in JobState.TERMINAL:
            self.finished_at = now

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def to_wire(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_wire(),
            "fingerprint": self.fingerprint,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "total_trials": self.total_trials,
            "done_trials": self.done_trials,
            "cached_hits": self.cached_hits,
            "error": self.error,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "JobRecord":
        return cls(
            job_id=str(payload["job_id"]),
            spec=JobSpec.from_wire(payload.get("spec", {})),
            fingerprint=str(payload.get("fingerprint", "")),
            state=str(payload.get("state", JobState.QUEUED)),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            total_trials=int(payload.get("total_trials", 0)),
            done_trials=int(payload.get("done_trials", 0)),
            cached_hits=int(payload.get("cached_hits", 0)),
            error=str(payload.get("error", "")),
            from_cache=bool(payload.get("from_cache", False)),
        )
