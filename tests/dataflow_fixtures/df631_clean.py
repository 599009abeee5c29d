"""RPR631 (clean): adjacency fetched through the shared structure cache."""

from repro.core.kernels import structure_for


def local_adjacency(graph):
    return structure_for(graph).csr


def edge_list(graph):
    return structure_for(graph).edge_array
