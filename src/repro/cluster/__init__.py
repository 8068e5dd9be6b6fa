"""Cluster runtime: nodes, object managers, factories, placement.

The RTS layout of the paper's Fig. 3: "the application entry code creates
one instance of the OM on each processing node"; each node also registers
an object factory in its boot code (§3.2: "object factories can be
automatically registered in the boot code of each node").

Two execution modes share all code above the channel:

* ``loopback`` — nodes are in-process endpoints over the loopback channel
  (deterministic, fast; what tests and simulated benches use);
* ``tcp`` — nodes listen on real TCP sockets (what the examples use to
  demonstrate actual cross-endpoint traffic).
"""

from repro.cluster.placement import (
    LeastLoadedPlacement,
    LocalityAwarePlacement,
    PlacementPolicy,
    RandomPlacement,
    RoundRobinPlacement,
    coerce_policy,
    make_placement,
)
from repro.cluster.node import Node, NodeFactory, ObjectManager
from repro.cluster.cluster import Cluster
from repro.sched import ClusterView, NodeView, SchedulerConfig

__all__ = [
    "Cluster",
    "ClusterView",
    "LeastLoadedPlacement",
    "LocalityAwarePlacement",
    "Node",
    "NodeFactory",
    "NodeView",
    "ObjectManager",
    "PlacementPolicy",
    "RandomPlacement",
    "RoundRobinPlacement",
    "SchedulerConfig",
    "coerce_policy",
    "make_placement",
]
