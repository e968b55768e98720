"""Block replica placement.

Two strategies place replicas:

* rack-aware — the classic tiering: first replica on the client's node,
  second on a different node in the same rack, third in a different rack,
  extras wherever load is lowest. Blind to node capability.

* heterogeneous — primary replicas are apportioned so that each node's
  predicted total work is equalized: a node twice as fast owns twice the
  blocks. Largest-remainder apportionment over predicted per-block rates,
  then a bounded local-move refinement. Secondary replicas fall back to
  rack-aware tiers relative to the primary. Nodes whose efficiency is
  below 10% of the cluster best are prefiltered out.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from collections import defaultdict

import numpy as np

from .cluster import ClusterGraph
from .workload import DataBlock, TaskSpec

EFFICIENCY_PREFILTER = 0.1  # relative to the cluster-max efficiency


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

    def is_local(self, node_id: str, block_id: str) -> bool:
        return node_id in self.replicas(block_id)

    def f_primary(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for nodes in self.block_to_nodes.values():
            counts[nodes[0]] += 1
        return dict(counts)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            rf = max(len(v) for v in self.block_to_nodes.values())
            writer.writerow(["block_id"] + [f"replica{i + 1}" for i in range(rf)])
            for block_id in sorted(self.block_to_nodes):
                writer.writerow([block_id, *self.block_to_nodes[block_id]])


def _validate_placement(
    g: ClusterGraph, blocks: list[DataBlock], rf: int
) -> None:
    if rf < 1:
        raise ValueError("replication factor must be >= 1")
    if rf > len(g.nodes):
        raise ValueError(f"replication factor {rf} exceeds node count {len(g.nodes)}")
    if not blocks:
        raise ValueError("no blocks to place")


def _pick_lowest_load(
    candidates: list[str], load: dict[str, int]
) -> str:
    return min(candidates, key=lambda n: (load[n], n))


def place_rack_aware(
    g: ClusterGraph, blocks: list[DataBlock], client_node: str, rf: int
) -> PlacementPlan:
    """HDFS-style tiered placement anchored at the client's node."""
    _validate_placement(g, blocks, rf)
    client = g.node(client_node)
    if rf >= 3 and len(g.racks) < 2:
        raise ValueError("replication factor 3 needs at least 2 racks")

    load: dict[str, int] = {n: 0 for n in g.nodes}
    mapping = {block.id: _rack_aware_tiers(g, client.id, rf, load) for block in blocks}
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


def _rack_aware_tiers(
    g: ClusterGraph, primary: str, rf: int, load: dict[str, int]
) -> tuple[str, ...]:
    """`primary`, then a node in its rack, then one in another rack, then
    the least loaded of the rest, up to `rf` replicas; counts each chosen
    node in `load`."""
    chosen = [primary]
    if rf >= 2:
        same_rack = [n for n in g.racks[g.rack_of(primary)] if n not in chosen]
        if not same_rack:
            same_rack = [n for n in g.nodes if n not in chosen]
        chosen.append(_pick_lowest_load(same_rack, load))
    if rf >= 3:
        other_rack = [
            n for n in g.nodes if g.rack_of(n) != g.rack_of(primary) and n not in chosen
        ]
        if not other_rack:
            raise ValueError("replication factor 3 needs at least 2 racks")
        chosen.append(_pick_lowest_load(other_rack, load))
    while len(chosen) < rf:
        rest = [n for n in g.nodes if n not in chosen]
        chosen.append(_pick_lowest_load(rest, load))
    for n in chosen:
        load[n] += 1
    return tuple(chosen)


def place_heterogeneous(
    g: ClusterGraph, blocks: list[DataBlock], predictor, rf: int
) -> PlacementPlan:
    """Equalized primary ownership: node i receives primaries in proportion
    to its predicted per-block rate, so predicted totals T_i * f(i) match
    within rounding. Blocks are handed out contiguously in block order."""
    _validate_placement(g, blocks, rf)

    node_ids = sorted(g.nodes)
    ref_mb = float(np.mean([b.size_mb for b in blocks]))
    ref_task = TaskSpec(
        id="__ref__",
        block_id="__ref__",
        block_mb=ref_mb,
        resource_demand=0.5,
        compute_gcycles=max(ref_mb * 0.08, 1e-6),
    )
    times = {}
    for nid in node_ids:
        t = predictor.predict(g.node(nid), ref_task)
        if not np.isfinite(t) or t <= 0:
            raise ValueError(f"predictor returned invalid time for node {nid}")
        times[nid] = t
    eff = {nid: ref_mb / times[nid] for nid in node_ids}
    best = max(eff.values())
    eligible = [nid for nid in node_ids if eff[nid] / best >= EFFICIENCY_PREFILTER]
    if not eligible:
        raise ValueError("all nodes prefiltered by the efficiency threshold")
    if rf > len(eligible):
        # keep enough nodes around to host every replica tier
        extras = sorted(
            (n for n in node_ids if n not in eligible),
            key=lambda n: (-eff[n], n),
        )
        eligible = sorted(eligible + extras[: rf - len(eligible)])

    rates = np.array([1.0 / times[nid] for nid in eligible])
    b_total = len(blocks)
    quotas = _largest_remainder(rates, b_total)

    # capacity in primaries: a node cannot own more data than it can accept
    cap = {
        nid: max(1, int(g.node(nid).capacity_mb // max(ref_mb, 1e-9)))
        for nid in eligible
    }
    quotas = _cap_quotas(quotas, [cap[n] for n in eligible], b_total)

    quotas = _refine_quotas(quotas, np.array([times[n] for n in eligible]),
                            [cap[n] for n in eligible])

    load: dict[str, int] = {n: 0 for n in g.nodes}
    owner_seq: list[str] = []
    for nid, q in zip(eligible, quotas):
        owner_seq.extend([nid] * int(q))
    mapping = {
        block.id: _rack_aware_tiers(g, primary, rf, load)
        for block, primary in zip(blocks, owner_seq)
    }
    return PlacementPlan(block_to_nodes=mapping, strategy="heterogeneous")


def _largest_remainder(rates: np.ndarray, total: int) -> np.ndarray:
    shares = rates / rates.sum() * total
    floors = np.floor(shares).astype(int)
    short = total - int(floors.sum())
    # hand leftovers to the largest fractional parts; index breaks ties
    order = sorted(range(len(rates)), key=lambda i: (-(shares[i] - floors[i]), i))
    for i in order[:short]:
        floors[i] += 1
    return floors


def _cap_quotas(quotas: np.ndarray, caps: list[int], total: int) -> np.ndarray:
    quotas = quotas.copy()
    for _ in range(total):
        over = [i for i in range(len(quotas)) if quotas[i] > caps[i]]
        if not over:
            break
        i = over[0]
        spare = [j for j in range(len(quotas)) if quotas[j] < caps[j]]
        if not spare:
            raise ValueError("cluster capacity cannot hold all primaries")
        j = min(spare, key=lambda k: quotas[k] / max(caps[k], 1))
        quotas[i] -= 1
        quotas[j] += 1
    return quotas


def _refine_quotas(
    quotas: np.ndarray, per_block_s: np.ndarray, caps: list[int]
) -> np.ndarray:
    """Bounded local moves: shift one block from the slowest-finishing node
    to another while that strictly lowers the maximum predicted total."""
    quotas = quotas.astype(float)
    for _ in range(int(quotas.sum())):
        totals = quotas * per_block_s
        src = int(np.argmax(totals))
        if quotas[src] == 0:
            break
        best_dst, best_peak = -1, totals[src]
        for dst in range(len(quotas)):
            if dst == src or quotas[dst] + 1 > caps[dst]:
                continue
            moved = totals.copy()
            moved[src] -= per_block_s[src]
            moved[dst] += per_block_s[dst]
            peak = moved.max()
            if peak < best_peak - 1e-12:
                best_peak, best_dst = peak, dst
        if best_dst < 0:
            break
        quotas[src] -= 1
        quotas[best_dst] += 1
    return quotas.astype(int)
