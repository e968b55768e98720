"""Block replica placement.

Two strategies place replicas:

* rack-aware — the classic tiering: first replica on the client's node,
  second on a different node in the same rack, third in a different rack,
  extras wherever load is lowest. Blind to node capability.

* heterogeneous — primary replicas go, one block at a time, to the node
  where that block would finish first: the node whose predicted total
  (quota + 1) x per-block time is least, ties to the lower node id. A node
  stops taking primaries at its primary cap, its capacity over the mean
  block size (at least 1). For identical blocks on nodes of different
  speeds this takes the b least finish times, so the largest predicted
  total is the exact min-max (Dessouky, Lageweg, Lenstra & van de Velde,
  "Scheduling identical jobs on uniform parallel machines", 1990).
  Secondary replicas fall back to rack-aware tiers relative to the
  primary, at each block's own app's replication factor.

Both strategies pick each tier's node as the least (replica count, node
id) of its candidates, counting the replicas placed so far, the block's
own only after the block. No pick scans the candidates: one placement
keeps a heap of (count, node id) per rack (`_RackLoads`), and every
chosen replica, the primary included, pushes its new count. An entry
whose count is no longer its node's is stale and dropped when it
surfaces. The same-rack pick is the least entry of the primary's rack
that is not already chosen, and the other-rack and remaining picks the
least over the racks' tops. Counts only grow, so each pick is the one
the scan over the candidates would make.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterGraph
from .predictor import predict_table
from .workload import DataBlock, TaskSpec


@dataclass(frozen=True)
class PlacementPlan:
    block_to_nodes: dict[str, tuple[str, ...]]
    strategy: str

    def replicas(self, block_id: str) -> tuple[str, ...]:
        try:
            return self.block_to_nodes[block_id]
        except KeyError:
            raise KeyError(f"block {block_id} is not placed") from None

    def primary(self, block_id: str) -> str:
        return self.replicas(block_id)[0]


def _validate_placement(
    g: ClusterGraph, blocks: list[DataBlock], *rfs: int
) -> None:
    for rf in rfs:
        if rf < 1:
            raise ValueError("replication factor must be >= 1")
        if rf > len(g.nodes):
            raise ValueError(f"replication factor {rf} exceeds node count {len(g.nodes)}")
    if not blocks:
        raise ValueError("no blocks to place")


def place_rack_aware(
    g: ClusterGraph, blocks: list[DataBlock], client_node: str, rf: int
) -> PlacementPlan:
    """HDFS-style tiered placement anchored at the client's node."""
    _validate_placement(g, blocks, rf)
    client = g.node(client_node)
    if rf >= 3 and len(g.racks) < 2:
        raise ValueError("replication factor 3 needs at least 2 racks")

    loads = _RackLoads(g)
    mapping = {block.id: _rack_aware_tiers(g, client.id, rf, loads) for block in blocks}
    return PlacementPlan(block_to_nodes=mapping, strategy="rack-aware")


def place_random(
    g: ClusterGraph, blocks: list[DataBlock], rf: int, seed: int
) -> PlacementPlan:
    """Uniform random distinct-node placement; comparison baseline."""
    _validate_placement(g, blocks, rf)
    rng = np.random.default_rng(seed)
    ids = sorted(g.nodes)
    mapping = {}
    for block in blocks:
        picks = rng.choice(len(ids), size=rf, replace=False)
        mapping[block.id] = tuple(ids[i] for i in picks)
    return PlacementPlan(block_to_nodes=mapping, strategy="random")


class _RackLoads:
    """Replica counts per node over one placement, with one heap of
    (count, node id) per rack. A count only grows, and each change pushes
    a new entry, so an entry whose count is not its node's is stale; it is
    dropped when it surfaces."""

    def __init__(self, g: ClusterGraph):
        self.count = {n: 0 for n in g.nodes}
        self.rack = {n: node.rack for n, node in g.nodes.items()}
        self.heaps = {r: sorted((0, n) for n in nodes) for r, nodes in g.racks.items()}

    def least(self, racks, chosen: list[str]) -> tuple[int, str] | None:
        """The least (count, node id) over the nodes of `racks` not in
        `chosen`, or None when there is none. Entries of `chosen` are
        dropped too: the block's `add` counts those nodes, which makes
        their entries stale."""
        best = None
        for r in racks:
            heap = self.heaps[r]
            while heap and (heap[0][0] != self.count[heap[0][1]] or heap[0][1] in chosen):
                heapq.heappop(heap)
            if heap and (best is None or heap[0] < best):
                best = heap[0]
        return best

    def add(self, nodes) -> None:
        for n in nodes:
            self.count[n] += 1
            heapq.heappush(self.heaps[self.rack[n]], (self.count[n], n))


def _rack_aware_tiers(
    g: ClusterGraph, primary: str, rf: int, loads: _RackLoads
) -> tuple[str, ...]:
    """`primary`, then a node in its rack, then one in another rack, then
    the least loaded of the rest, up to `rf` replicas, each pick the least
    (count, node id) of its candidates; counts each chosen node in
    `loads`. A rack with the primary alone falls back to all nodes."""
    chosen = [primary]
    home = g.rack_of(primary)
    if rf >= 2:
        pick = loads.least([home], chosen) or loads.least(g.racks, chosen)
        chosen.append(pick[1])
    if rf >= 3:
        pick = loads.least([r for r in g.racks if r != home], chosen)
        if pick is None:
            raise ValueError("replication factor 3 needs at least 2 racks")
        chosen.append(pick[1])
    while len(chosen) < rf:
        chosen.append(loads.least(g.racks, chosen)[1])
    loads.add(chosen)
    return tuple(chosen)


def place_heterogeneous(
    g: ClusterGraph, blocks: list[DataBlock], predictor, rf: Mapping[str, int]
) -> PlacementPlan:
    """Earliest-finish primary ownership: each block goes to the node where
    it would finish first (least predicted total with one more block), ties
    to the lower node id, skipping nodes at their primary cap. The largest
    predicted total T_i * f(i) is the exact min-max over all quotas within
    the caps. Primaries are handed out contiguously in block order; `rf`
    maps each app id to its replication factor, so a block gets
    `rf[block.app_id]` replicas."""
    rfs = [rf[block.app_id] for block in blocks]
    _validate_placement(g, blocks, *set(rfs))

    node_ids = sorted(g.nodes)
    ref_mb = float(np.mean([b.size_mb for b in blocks]))
    ref_task = TaskSpec(
        id="__ref__",
        block_id="__ref__",
        block_mb=ref_mb,
        resource_demand=0.5,
        compute_gcycles=max(ref_mb * 0.08, 1e-6),
    )
    times = predict_table(g, [ref_task], predictor)[:, 0].tolist()
    # capacity in primaries: a node cannot own more data than it can accept
    caps = [
        max(1, int(g.node(nid).capacity_mb // max(ref_mb, 1e-9))) for nid in node_ids
    ]
    quotas = _earliest_finish_quotas(times, caps, len(blocks))

    loads = _RackLoads(g)
    owner_seq: list[str] = []
    for nid, q in zip(node_ids, quotas):
        owner_seq.extend([nid] * q)
    mapping = {
        block.id: _rack_aware_tiers(g, primary, block_rf, loads)
        for block, primary, block_rf in zip(blocks, owner_seq, rfs)
    }
    return PlacementPlan(block_to_nodes=mapping, strategy="heterogeneous")


def _earliest_finish_quotas(
    per_block_s: list[float], caps: list[int], total: int
) -> list[int]:
    """Pop the least next finish time (quota + 1) * per_block_s[i], ties to
    the lower index, `total` times; a node leaves the heap at its cap. The
    pops are the `total` least of all k * per_block_s[i] (k <= caps[i]),
    so no split within the caps has a lower peak."""
    if sum(caps) < total:
        raise ValueError("cluster capacity cannot hold all primaries")
    quotas = [0] * len(per_block_s)
    heap = [(t, i) for i, t in enumerate(per_block_s)]
    heapq.heapify(heap)
    for _ in range(total):
        _, i = heapq.heappop(heap)
        quotas[i] += 1
        if quotas[i] < caps[i]:
            heapq.heappush(heap, ((quotas[i] + 1) * per_block_s[i], i))
    return quotas
