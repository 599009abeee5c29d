"""RPR702 (clean): copy the attached form before writing."""
from repro.core.kernels.shm import attach_structure


def saturate(block):
    block += 1
    return block


def run(manifest):
    private = attach_structure(manifest).edge_array.copy()
    return saturate(private)
