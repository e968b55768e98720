"""Heterogeneous cluster model: racks, nodes, and bandwidth-limited links.

The cluster is a two-tier tree: every node hangs off its rack switch, and
every rack switch hangs off a single core switch. This keeps path queries
O(1): the route between two nodes is fully determined by whether they share
a node, a rack, or nothing. Arbitrary graphs are deliberately unsupported.

Bandwidth fields are in MB/s throughout (config files may specify Gbps and
get converted: 1 Gbps == 125 MB/s). Latency tiers are local / intra-rack /
inter-rack, defaulting to 0 ms / 5 ms / 15 ms and overridable per config.

A route's price is defined once, in `PathTable` (`ClusterGraph.paths`):
fetching `mb` from node src to node dst takes `mb / bandwidth + extras_s`
seconds, the route's bottleneck plus its link queue delays and tier
latency, and costs `mb * cost_per_mb`. The colony, the steal rule and the
simulator all read it, the first two through its cheapest-replica rule
(`cheapest_fetch`); the simulator adds only per-link fair sharing, over
the links of each node's `NodeRoute`, which the table builds from the same
link specs.

A built ClusterGraph is immutable; derive modified views (e.g. slowed-down
nodes) by rebuilding rather than mutating. A view that changes links
(`scale_bandwidth`) builds its own table and routes; one that changes only
node speeds (`sim.inject_stragglers`) keeps its parent's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

DEFAULT_INTRA_RACK_LATENCY_S = 0.005
DEFAULT_INTER_RACK_LATENCY_S = 0.015
GBPS_TO_MBPS = 125.0  # 1 Gbps = 1000/8 MB/s
# what every capacity check lets a node's summed MB exceed capacity_mb by,
# so that float rounding in the sum never rejects a plan that fits
CAPACITY_SLACK_MB = 1e-9


@dataclass(frozen=True)
class NodeSpec:
    """A compute node. Capacity is two-sided: `slots` bounds concurrent
    tasks, `capacity_mb` bounds the total task data the node may accept
    in one scheduling round (defaults to its memory)."""

    id: str
    cpu_ghz: float
    mem_gb: float
    io_mbps: float
    rack: str
    slots: int = 2
    loss_prob: float = 0.0
    cost_per_cycle: float = 1e-10
    capacity_mb: float = 0.0  # 0 -> defaulted to mem_gb * 1024 at build time

    def validate(self) -> None:
        if self.cpu_ghz <= 0:
            raise ValueError(f"node {self.id}: cpu_ghz must be > 0")
        if self.io_mbps <= 0:
            raise ValueError(f"node {self.id}: io_mbps must be > 0")
        if self.mem_gb <= 0:
            raise ValueError(f"node {self.id}: mem_gb must be > 0")
        if self.slots < 1:
            raise ValueError(f"node {self.id}: slots must be >= 1")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"node {self.id}: loss_prob must be in [0, 1]")
        if self.capacity_mb <= 0:
            raise ValueError(f"node {self.id}: capacity_mb must be > 0")


@dataclass(frozen=True)
class LinkSpec:
    """A directed-capacity-free link. `endpoints` names the two attachment
    points (node id and rack id, or rack id and 'core')."""

    endpoints: tuple[str, str]
    bandwidth_mbps: float
    base_queue_delay_s: float = 0.0
    cost_per_mb: float = 0.0

    def validate(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError(f"link {self.endpoints}: bandwidth must be > 0")
        if self.base_queue_delay_s < 0:
            raise ValueError(f"link {self.endpoints}: queue delay must be >= 0")


@dataclass(frozen=True)
class ClusterGraph:
    nodes: dict[str, NodeSpec]
    racks: dict[str, tuple[str, ...]]
    uplinks: dict[str, LinkSpec]  # node id -> link to its rack switch
    core_links: dict[str, LinkSpec]  # rack id -> link to the core switch
    intra_rack_latency_s: float = DEFAULT_INTRA_RACK_LATENCY_S
    inter_rack_latency_s: float = DEFAULT_INTER_RACK_LATENCY_S

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id: {node_id}") from None

    def rack_of(self, node_id: str) -> str:
        return self.node(node_id).rack

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def tier(self, a: str, b: str) -> str:
        """'local', 'intra', or 'inter' for the a->b route."""
        if a == b:
            self.node(a)
            return "local"
        return "intra" if self.rack_of(a) == self.rack_of(b) else "inter"

    def path_links(self, a: str, b: str) -> list[LinkSpec]:
        """Links on the unique tiered route a -> b (empty when a == b)."""
        tier = self.tier(a, b)
        if tier == "local":
            return []
        if tier == "intra":
            return [self.uplinks[a], self.uplinks[b]]
        return [
            self.uplinks[a],
            self.core_links[self.rack_of(a)],
            self.core_links[self.rack_of(b)],
            self.uplinks[b],
        ]

    @cached_property
    def paths(self) -> PathTable:
        """The fetch price of every node pair, built on first use."""
        return PathTable.build(self)


class NodeRoute(NamedTuple):
    """One node's end of every route it is on: its rack's index, and its
    uplink and its rack's core link, each as (link id, MB/s, queue delay
    seconds). Link ids number the uplinks 0..n-1 in node order and the core
    links n.. in rack order. An intra-rack route is the two uplinks; an
    inter-rack route adds both core links."""

    rack: int
    up: int
    up_mbps: float
    up_delay_s: float
    core: int
    core_mbps: float
    core_delay_s: float


@dataclass(frozen=True, eq=False)
class PathTable:
    """Fetch prices over (dst, src) node-index pairs, nodes in sorted-id
    order. A fetch of `mb` MB takes `mb / bandwidth + extras_s` seconds and
    costs `mb * cost_per_mb`; on the diagonal (a local read) both are 0.
    A replicated block is fetched from its cheapest replica, one rule
    (`cheapest_fetch`) over the rows `replica_index` builds. A route sum
    adds the two uplinks' terms and, on an inter-rack route, the two core
    links' terms, each pair on its own, so (a, b) and (b, a) give the same
    float: `extras_s` is `(up_dst + up_src) + intra` within a rack and
    `((core_dst + core_src) + (up_dst + up_src)) + inter` across racks,
    over the links' queue delays. The (n, n) arrays are built in place: a
    large cluster keeps its table for the graph's life, and few transients
    keep the build's peak memory down. `routes` holds each node's
    `NodeRoute`, from the same link specs, for the simulator's per-link
    fair sharing."""

    node_ids: tuple[str, ...]
    index: dict[str, int]
    bandwidth: np.ndarray  # (n, n) bottleneck MB/s of the route, inf on the diagonal
    extras_s: np.ndarray  # (n, n) link queue delays plus tier latency
    cost_per_mb: np.ndarray  # (n, n) summed link cost per MB
    routes: dict[str, NodeRoute]  # node id -> its route data
    link_count: int  # uplinks plus core links: the number of link ids
    latency_s: tuple[float, float]  # (intra-rack, inter-rack) tier latency

    @classmethod
    def build(cls, g: ClusterGraph) -> PathTable:
        node_ids = tuple(g.node_ids())
        n = len(node_ids)
        rack_ix = {r: k for k, r in enumerate(g.racks)}
        routes = {}
        for i, nid in enumerate(node_ids):
            r = g.nodes[nid].rack
            up, core = g.uplinks[nid], g.core_links[r]
            routes[nid] = NodeRoute._make((rack_ix[r], i, up.bandwidth_mbps, up.base_queue_delay_s,
                                           n + rack_ix[r], core.bandwidth_mbps, core.base_queue_delay_s))
        rack = np.array([routes[nid].rack for nid in node_ids])
        same = rack[:, None] == rack[None, :]

        def hops(attr):
            # a link attribute at both ends of every route: (dst uplink, src
            # uplink, dst rack's core link, src rack's core link)
            up = np.array([getattr(g.uplinks[nid], attr) for nid in node_ids], dtype=float)
            core = np.array(
                [getattr(g.core_links[g.nodes[nid].rack], attr) for nid in node_ids], dtype=float
            )
            return up[:, None], up[None, :], core[:, None], core[None, :]

        def route_sum(attr):
            # the core links count on inter-rack routes only
            up_a, up_b, core_a, core_b = hops(attr)
            total = core_a + core_b
            total[same] = 0.0
            total += up_a + up_b
            return total

        up_a, up_b, core_a, core_b = hops("bandwidth_mbps")
        bandwidth = np.minimum(core_a, core_b)
        bandwidth[same] = np.inf
        np.minimum(bandwidth, np.minimum(up_a, up_b), out=bandwidth)
        extras = route_sum("base_queue_delay_s")
        extras += np.where(same, g.intra_rack_latency_s, g.inter_rack_latency_s)
        cost = route_sum("cost_per_mb")
        np.fill_diagonal(bandwidth, np.inf)
        np.fill_diagonal(extras, 0.0)
        np.fill_diagonal(cost, 0.0)
        for table in (bandwidth, extras, cost):
            table.flags.writeable = False  # shared by every reader of the graph
        return cls(
            node_ids, {nid: i for i, nid in enumerate(node_ids)}, bandwidth, extras, cost,
            routes, n + len(g.racks), (g.intra_rack_latency_s, g.inter_rack_latency_s),
        )

    def replica_index(self, replicas) -> np.ndarray:
        """(len(replicas), RF) indices of each entry's replica node ids,
        ascending, RF the longest entry's count; a shorter entry repeats its
        first (least) index, a duplicate that changes no minimum."""
        index = self.index.__getitem__
        rows = [sorted(map(index, reps)) for reps in replicas]
        rf = max(map(len, rows), default=1)
        return np.array([r + r[:1] * (rf - len(r)) for r in rows], dtype=int).reshape(len(rows), rf)

    def cheapest_fetch(
        self, dst: np.ndarray, replicas: np.ndarray, mb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one cheapest-replica rule. `dst` holds destination indices,
        `replicas` a (..., RF) array of `replica_index` rows and `mb` each
        row's block MB, broadcast together with `replicas[..., 0]`. Returns
        the least fetch seconds `mb / bandwidth + extras_s` over the
        replicas and the replica that gives it, the first least, so the
        lowest node index on a tie. A replica on the destination costs 0,
        and every other replica more (as `mb` > 0), so it is the route."""
        n = len(self.node_ids)
        base = dst * n
        # flat (dst, src) routes; a strict `<` keeps the first least price
        route = base + replicas[..., 0]
        least = mb / self.bandwidth.take(route) + self.extras_s.take(route)
        for r in range(1, replicas.shape[-1]):
            alt = base + replicas[..., r]
            price = mb / self.bandwidth.take(alt) + self.extras_s.take(alt)
            route = np.where(price < least, alt, route)
            least = np.minimum(least, price)
        return least, route - base

    def fair_share_fetch(
        self, dst: str, replicas: tuple[str, ...], mb: float, flows: list[int]
    ) -> tuple[float, str, tuple[int, ...]]:
        """(seconds, src, route link ids) of the cheapest fetch of `mb` MB
        to node `dst` from one of `replicas`, none of them on dst, while
        `flows[k]` other fetches use link id k. A replica's rate is the
        least over its route's links of the link's bandwidth shared by its
        flows and this one, and its seconds are `mb` over that rate plus
        the route's extras, summed as `build` sums `extras_s`, so with no
        other flow they are the table's price. The least (seconds, replica
        id) wins. One loop over the replicas, on Python floats."""
        routes = self.routes
        intra_s, inter_s = self.latency_s
        rack_d, up_d, up_bw, up_q, core_d, core_bw, core_q = routes[dst]
        up_rate = up_bw / (flows[up_d] + 1)
        core_rate = core_bw / (flows[core_d] + 1)
        best = best_src = best_links = None
        for src in replicas:
            rack_s, up_s, bw, q, core_s, cbw, cq = routes[src]
            rate = bw / (flows[up_s] + 1)
            if up_rate < rate:
                rate = up_rate
            if rack_s == rack_d:
                seconds = mb / rate + ((up_q + q) + intra_s)
                links = (up_d, up_s)
            else:
                if core_rate < rate:
                    rate = core_rate
                share = cbw / (flows[core_s] + 1)
                if share < rate:
                    rate = share
                seconds = mb / rate + (((core_q + cq) + (up_q + q)) + inter_s)
                links = (up_d, core_d, core_s, up_s)
            if best is None or seconds < best or (seconds == best and src < best_src):
                best, best_src, best_links = seconds, src, links
        return best, best_src, best_links

    def seconds(self, dst: str, src: str, mb: float) -> float:
        """Uncontended seconds to fetch `mb` MB from `src` to `dst`."""
        i, j = self.index[dst], self.index[src]
        return float(mb / self.bandwidth[i, j] + self.extras_s[i, j])


def build_cluster(config: dict) -> ClusterGraph:
    """Build and validate a ClusterGraph from a parsed config mapping.

    Expected keys: `racks` (list of rack ids), `nodes` (list of node
    mappings with cpu_ghz, mem_gb, io_mbps, slots, loss_prob, rack and
    optional capacity_mb / uplink overrides), plus cluster-wide
    `link_bandwidth_mbps` (or `link_bandwidth_gbps`) and the two rack
    latency knobs in milliseconds.
    """
    if not isinstance(config, dict):
        raise ValueError("cluster config must be a mapping")
    rack_ids = list(config.get("racks", []))
    node_cfgs = list(config.get("nodes", []))
    if not rack_ids:
        raise ValueError("cluster config needs at least one rack")
    if len(set(rack_ids)) != len(rack_ids):
        raise ValueError("duplicate rack ids in config")
    if not node_cfgs:
        raise ValueError("cluster config needs at least one node")

    default_bw = config.get("link_bandwidth_mbps")
    if default_bw is None:
        gbps = config.get("link_bandwidth_gbps", 1.0)
        default_bw = float(gbps) * GBPS_TO_MBPS
    default_bw = float(default_bw)
    if default_bw <= 0:
        raise ValueError("link bandwidth must be > 0")

    intra_s = float(config.get("intra_rack_latency_ms", DEFAULT_INTRA_RACK_LATENCY_S * 1e3)) / 1e3
    inter_s = float(config.get("inter_rack_latency_ms", DEFAULT_INTER_RACK_LATENCY_S * 1e3)) / 1e3
    if intra_s < 0 or inter_s < 0:
        raise ValueError("rack latencies must be >= 0")
    link_cost = float(config.get("link_cost_per_mb", 0.0))
    link_queue = float(config.get("link_queue_delay_ms", 0.0)) / 1e3

    nodes: dict[str, NodeSpec] = {}
    racks: dict[str, list[str]] = {r: [] for r in rack_ids}
    uplinks: dict[str, LinkSpec] = {}
    for cfg in node_cfgs:
        node = NodeSpec(
            id=str(cfg["id"]),
            cpu_ghz=float(cfg["cpu_ghz"]),
            mem_gb=float(cfg["mem_gb"]),
            io_mbps=float(cfg["io_mbps"]),
            rack=str(cfg["rack"]),
            slots=int(cfg.get("slots", 2)),
            loss_prob=float(cfg.get("loss_prob", 0.0)),
            cost_per_cycle=float(cfg.get("cost_per_cycle", 1e-10)),
            capacity_mb=float(cfg.get("capacity_mb", 0.0)),
        )
        if node.capacity_mb <= 0:
            node = replace(node, capacity_mb=node.mem_gb * 1024.0)
        node.validate()
        if node.id in nodes:
            raise ValueError(f"duplicate node id: {node.id}")
        if node.rack not in racks:
            raise ValueError(f"node {node.id} references unknown rack {node.rack}")
        nodes[node.id] = node
        racks[node.rack].append(node.id)
        uplink = LinkSpec(
            endpoints=(node.id, node.rack),
            bandwidth_mbps=float(cfg.get("uplink_mbps", default_bw)),
            base_queue_delay_s=link_queue,
            cost_per_mb=link_cost,
        )
        uplink.validate()
        uplinks[node.id] = uplink

    empty = [r for r, members in racks.items() if not members]
    if empty:
        raise ValueError(f"racks without nodes: {empty}")

    core_links = {}
    rack_overrides = config.get("rack_core_mbps", {})
    for r in rack_ids:
        link = LinkSpec(
            endpoints=(r, "core"),
            bandwidth_mbps=float(rack_overrides.get(r, default_bw)),
            base_queue_delay_s=link_queue,
            cost_per_mb=link_cost,
        )
        link.validate()
        core_links[r] = link

    return ClusterGraph(
        nodes=nodes,
        racks={r: tuple(members) for r, members in racks.items()},
        uplinks=uplinks,
        core_links=core_links,
        intra_rack_latency_s=intra_s,
        inter_rack_latency_s=inter_s,
    )


def load_cluster_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scale_bandwidth(g: ClusterGraph, factor: float) -> ClusterGraph:
    """Return a view with every link bandwidth multiplied by `factor`.

    Used to model a configured background network load: a load fraction x
    leaves (1 - x) of each link for the scheduled traffic.
    """
    if factor <= 0:
        raise ValueError("bandwidth factor must be > 0")
    if factor == 1.0:
        return g
    uplinks = {
        nid: replace(l, bandwidth_mbps=l.bandwidth_mbps * factor)
        for nid, l in g.uplinks.items()
    }
    core = {
        r: replace(l, bandwidth_mbps=l.bandwidth_mbps * factor)
        for r, l in g.core_links.items()
    }
    return replace(g, uplinks=uplinks, core_links=core)


# Hardware mix used by the synthetic profiles: (cpu_ghz, mem_gb, io_mbps, slots).
_COMPUTE_TIERS = [
    (3.2, 32.0, 400.0, 4),
    (2.8, 16.0, 300.0, 4),
    (2.4, 8.0, 220.0, 2),
]
_EDGE_TIER = (1.4, 4.0, 110.0, 1)


def synthetic_cluster_config(
    n_nodes: int,
    rack_size: int = 10,
    edge_fraction: float = 0.2,
    link_bandwidth_mbps: float = GBPS_TO_MBPS,
) -> dict:
    """Deterministic heterogeneous profile: mixed compute tiers plus a
    fraction of low-power edge devices, packed into racks of `rack_size`."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    n_edge = int(round(n_nodes * edge_fraction))
    n_racks = max(1, math.ceil(n_nodes / rack_size))
    racks = [f"rack{r}" for r in range(n_racks)]
    nodes = []
    for i in range(n_nodes):
        if i < n_nodes - n_edge:
            cpu, mem, io, slots = _COMPUTE_TIERS[i % len(_COMPUTE_TIERS)]
            loss = 0.001
        else:
            cpu, mem, io, slots = _EDGE_TIER
            loss = 0.01
        nodes.append(
            {
                "id": f"n{i:03d}",
                "cpu_ghz": cpu,
                "mem_gb": mem,
                "io_mbps": io,
                "slots": slots,
                "loss_prob": loss,
                "rack": racks[i % n_racks],
            }
        )
    return {
        "racks": racks,
        "nodes": nodes,
        "link_bandwidth_mbps": link_bandwidth_mbps,
        "intra_rack_latency_ms": 5.0,
        "inter_rack_latency_ms": 15.0,
    }
