"""RPR702 (flag): in-place writes reach an attached view, two hops deep."""
from repro.core.kernels.shm import attach_structure


def saturate(block):
    # Hop 2: the in-place mutation, far from the attach call.
    block += 1
    return block


def rescale(block):
    return saturate(block)


def scrub(manifest):
    levels = attach_structure(manifest).edge_array
    levels[0] = 0  # direct subscript store into the shared mapping.
    return levels


def run(manifest):
    structure = attach_structure(manifest)
    return rescale(structure.csr)
