import numpy as np
import pytest
from hypothesis import settings

from gradedproj.mesh import kuhn_initial_mesh

# property tests without their own settings: same examples on every run, no
# per-example time limit (the suite shares slow hosts)
settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("deterministic")


def randomly_refined(dim, rounds, alpha=1, seed=0, fraction=0.3, cells=1):
    """Kuhn mesh after `rounds` of random fractional marking with BiSecLG(alpha)."""
    mesh = kuhn_initial_mesh(dim, cells)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        ids = mesh.active_ids()
        marked = [s for s in ids if rng.random() < fraction] or ids[:1]
        mesh.refine_lg(marked, alpha)
    return mesh


def distance_matrix(dist):
    """Dense N x N element distance matrix, one breadth-first search per row
    (a test oracle: O(N^2) memory)."""
    return np.vstack([dist.from_source(s) for s in dist.ids])


def neighbor_lists(dist):
    """The CSR element graph as one ascending neighbor list per row."""
    ptr = dist.indptr.tolist()
    return [dist.indices[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


@pytest.fixture(scope="session")
def mesh2d():
    return randomly_refined(2, 6, alpha=1, seed=11)


@pytest.fixture(scope="session")
def mesh3d():
    return randomly_refined(3, 3, alpha=2, seed=7, fraction=0.2)
