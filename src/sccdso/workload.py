"""Applications, data blocks, and map tasks.

An application's input is split into fixed-size blocks (64 MB by default,
last block possibly smaller), and each block spawns exactly one map task.
Task compute work scales with block size times a per-app compute intensity
(Gcycles per MB), so data volume and CPU demand stay coupled.

Synthetic workloads are a pure function of (seed, profile); the same pair
always yields the same apps, blocks, and tasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BLOCK_MB = 64.0


@dataclass(frozen=True)
class Application:
    id: str
    input_mb: float
    block_size_mb: float = DEFAULT_BLOCK_MB
    replication_factor: int = 1
    gcycles_per_mb: float = 0.08
    demand: float = 0.5  # normalized CPU demand of this app's tasks

    def validate(self) -> None:
        if self.input_mb <= 0:
            raise ValueError(f"app {self.id}: input_mb must be > 0")
        if self.block_size_mb <= 0:
            raise ValueError(f"app {self.id}: block_size_mb must be > 0")
        if not 1 <= self.replication_factor <= 4:
            raise ValueError(f"app {self.id}: replication_factor must be in 1..4")
        if not 0 < self.demand <= 1:
            raise ValueError(f"app {self.id}: demand must be in (0, 1]")
        if self.gcycles_per_mb <= 0:
            raise ValueError(f"app {self.id}: gcycles_per_mb must be > 0")


@dataclass(frozen=True)
class DataBlock:
    id: str
    app_id: str
    size_mb: float


@dataclass(frozen=True)
class TaskSpec:
    id: str
    block_id: str
    block_mb: float
    resource_demand: float
    compute_gcycles: float

    def validate(self) -> None:
        if not 0 < self.resource_demand <= 1:
            raise ValueError(f"task {self.id}: resource_demand must be in (0, 1]")
        if self.compute_gcycles <= 0:
            raise ValueError(f"task {self.id}: compute_gcycles must be > 0")


def partition(app: Application) -> list[DataBlock]:
    """Split the app input into ceil(input/block_size) blocks.

    All blocks have the configured size except the last, which carries the
    remainder. Block sizes always sum to input_mb exactly.
    """
    app.validate()
    count = math.ceil(app.input_mb / app.block_size_mb)
    blocks = []
    remaining = app.input_mb
    for k in range(count):
        size = min(app.block_size_mb, remaining)
        blocks.append(DataBlock(id=f"{app.id}/b{k}", app_id=app.id, size_mb=size))
        remaining -= size
    return blocks


def tasks_for(app: Application, blocks: list[DataBlock]) -> list[TaskSpec]:
    """One map task per block; work proportional to block size."""
    tasks = []
    for k, block in enumerate(blocks):
        task = TaskSpec(
            id=f"{app.id}/t{k}",
            block_id=block.id,
            block_mb=block.size_mb,
            resource_demand=app.demand,
            compute_gcycles=block.size_mb * app.gcycles_per_mb,
        )
        task.validate()
        tasks.append(task)
    return tasks


@dataclass(frozen=True)
class AppProfile:
    """Distribution spec for one group of synthetic apps.

    Each distribution field is either a number (fixed) or a mapping:
    {"uniform": [lo, hi]} or {"choice": [v1, v2, ...]}.
    """

    count: int = 1
    input_mb: object = 100.0
    block_size_mb: float = DEFAULT_BLOCK_MB
    replication_factor: int = 1
    demand: object = 0.5
    gcycles_per_mb: object = 0.08


@dataclass(frozen=True)
class WorkloadProfile:
    apps: tuple[AppProfile, ...]
    arrival_rate_per_s: float = 0.0  # 0 -> all tasks available at t=0
    network_load: float = 0.0  # fraction of link bandwidth consumed by background flows

    def validate(self) -> None:
        if not self.apps:
            raise ValueError("workload profile lists no apps")
        if not 0.0 <= self.network_load < 1.0:
            raise ValueError("network_load must be in [0, 1)")
        if self.arrival_rate_per_s < 0:
            raise ValueError("arrival_rate_per_s must be >= 0")


@dataclass(frozen=True)
class Workload:
    apps: tuple[Application, ...]
    blocks: tuple[DataBlock, ...]
    tasks: tuple[TaskSpec, ...]
    arrivals: dict[str, float] = field(default_factory=dict)  # task id -> arrival time
    network_load: float = 0.0


def parse_spec(spec: object) -> tuple[str, list[float]]:
    """A distribution spec as (kind, values): ("fixed", [v]), ("uniform",
    [lo, hi]) or ("choice", [v1, v2, ...]). The values bound every value
    the spec can yield."""
    if isinstance(spec, (int, float)):
        return "fixed", [float(spec)]
    if isinstance(spec, dict):
        if "fixed" in spec:
            return "fixed", [float(spec["fixed"])]
        if "uniform" in spec:
            lo, hi = spec["uniform"]
            return "uniform", [float(lo), float(hi)]
        if "choice" in spec:
            values = [float(v) for v in spec["choice"]]
            if not values:
                raise ValueError("choice lists no values")
            return "choice", values
    raise ValueError(f"unrecognized distribution spec: {spec!r}")


def _sample(rng: np.random.Generator, spec: object) -> float:
    kind, values = parse_spec(spec)
    if kind == "uniform":
        return float(rng.uniform(*values))
    if kind == "choice":
        return float(rng.choice(values))
    return values[0]


def generate_workload(seed: int, profile: WorkloadProfile) -> Workload:
    """Materialize a seeded synthetic workload from a profile."""
    profile.validate()
    rng = np.random.default_rng(seed)
    apps: list[Application] = []
    idx = 0
    for group in profile.apps:
        for _ in range(group.count):
            app = Application(
                id=f"app{idx}",
                input_mb=_sample(rng, group.input_mb),
                block_size_mb=float(group.block_size_mb),
                replication_factor=int(group.replication_factor),
                gcycles_per_mb=_sample(rng, group.gcycles_per_mb),
                demand=_sample(rng, group.demand),
            )
            app.validate()
            apps.append(app)
            idx += 1

    blocks: list[DataBlock] = []
    tasks: list[TaskSpec] = []
    for app in apps:
        app_blocks = partition(app)
        blocks.extend(app_blocks)
        tasks.extend(tasks_for(app, app_blocks))

    arrivals: dict[str, float] = {}
    if profile.arrival_rate_per_s > 0:
        t = 0.0
        for task in tasks:
            t += rng.exponential(1.0 / profile.arrival_rate_per_s)
            arrivals[task.id] = t
    else:
        arrivals = {task.id: 0.0 for task in tasks}

    return Workload(
        apps=tuple(apps),
        blocks=tuple(blocks),
        tasks=tuple(tasks),
        arrivals=arrivals,
        network_load=profile.network_load,
    )


def profile_from_dict(data: dict) -> WorkloadProfile:
    groups = tuple(
        AppProfile(
            count=int(g.get("count", 1)),
            input_mb=g.get("input_mb", 100.0),
            block_size_mb=float(g.get("block_size_mb", DEFAULT_BLOCK_MB)),
            replication_factor=int(g.get("replication_factor", 1)),
            demand=g.get("demand", 0.5),
            gcycles_per_mb=g.get("gcycles_per_mb", 0.08),
        )
        for g in data.get("apps", [])
    )
    profile = WorkloadProfile(
        apps=groups,
        arrival_rate_per_s=float(data.get("arrival_rate_per_s", 0.0)),
        network_load=float(data.get("network_load", 0.0)),
    )
    profile.validate()
    return profile


def load_workload_profile(path: str) -> WorkloadProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))


def load_job_profiles(path: str) -> list[Application]:
    """Ingest JSON job profiles: one object per app with input_mb,
    block_size_mb, replication, and demand fields."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    jobs = data["jobs"] if isinstance(data, dict) else data
    apps = []
    for i, job in enumerate(jobs):
        app = Application(
            id=str(job.get("id", f"job{i}")),
            input_mb=float(job["input_mb"]),
            block_size_mb=float(job.get("block_size_mb", DEFAULT_BLOCK_MB)),
            replication_factor=int(job.get("replication", 1)),
            demand=float(job.get("demand", 0.5)),
            gcycles_per_mb=float(job.get("gcycles_per_mb", 0.08)),
        )
        app.validate()
        apps.append(app)
    if not apps:
        raise ValueError(f"no job profiles found in {path}")
    return apps


def workload_from_apps(apps: list[Application], network_load: float = 0.0) -> Workload:
    blocks: list[DataBlock] = []
    tasks: list[TaskSpec] = []
    for app in apps:
        app_blocks = partition(app)
        blocks.extend(app_blocks)
        tasks.extend(tasks_for(app, app_blocks))
    return Workload(
        apps=tuple(apps),
        blocks=tuple(blocks),
        tasks=tuple(tasks),
        arrivals={t.id: 0.0 for t in tasks},
        network_load=network_load,
    )
