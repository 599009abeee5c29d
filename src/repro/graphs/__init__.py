"""Graph substrate: topology type, generators, properties, MIS oracles, I/O."""

from .graph import Graph
from .mutable import MutableTopology, TopologyDelta, TopologyError, TopologyView, diff_graphs
from . import generators
from .generators import by_name as graph_by_name, FAMILY_NAMES
from .properties import (
    average_degree,
    bfs_distances,
    clustering_coefficient,
    connected_components,
    deg2,
    deg2_all,
    degree_histogram,
    diameter,
    is_connected,
    triangle_count,
)
from .mis import (
    MISViolation,
    check_mis,
    greedy_mis,
    is_dominating_set,
    is_independent_set,
    is_maximal_independent_set,
    maximum_independent_set_size,
    mis_size_bounds,
    random_priority_mis,
)
from .linegraph import LineGraph, line_graph
from .io import (
    from_edge_list_text,
    from_networkx,
    load_edge_list,
    save_edge_list,
    to_adjacency_dict,
    to_edge_list_text,
    to_networkx,
    to_sparse_adjacency,
)

__all__ = [
    "Graph",
    "MutableTopology",
    "TopologyDelta",
    "TopologyError",
    "TopologyView",
    "diff_graphs",
    "generators",
    "graph_by_name",
    "FAMILY_NAMES",
    # properties
    "average_degree",
    "bfs_distances",
    "clustering_coefficient",
    "connected_components",
    "deg2",
    "deg2_all",
    "degree_histogram",
    "diameter",
    "is_connected",
    "triangle_count",
    # MIS oracles
    "MISViolation",
    "check_mis",
    "greedy_mis",
    "is_dominating_set",
    "is_independent_set",
    "is_maximal_independent_set",
    "maximum_independent_set_size",
    "mis_size_bounds",
    "random_priority_mis",
    # line graph
    "LineGraph",
    "line_graph",
    # io
    "from_edge_list_text",
    "from_networkx",
    "load_edge_list",
    "save_edge_list",
    "to_adjacency_dict",
    "to_edge_list_text",
    "to_networkx",
    "to_sparse_adjacency",
]
