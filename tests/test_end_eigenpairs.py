"""Differential tests of the certificate's two end eigenpairs of (B, M)
against the dense eigensolve of all n eigenvectors that they replaced
(oracles.dense_certificate): lambda_min and lambda_max within 1e-13
relative and a residual of at most 1e-12, on uniform Kuhn meshes where
lambda_min is multiple, the d=2 Crouzeix-Raviart space whose every
eigenvalue is 1, spaces of one and two dofs, and meshes grown as the
certify workload grows them; test_certificate_bound_on_meshes holds it to
the same oracle on graded meshes.  The workload meshes on which bisection
(stebz) failed to converge pin the MRRR driver (stemr)."""

import numpy as np
import pytest
import scipy.linalg

from gradedproj.analytic import ProjectionError
from gradedproj.mesh import kuhn_initial_mesh
from gradedproj.polyspace import CRSpace, LagrangeSpace
from gradedproj.projection import Operators, _end_eigenpairs
from oracles import dense_certificate, reference_simplex_mesh

# the certify workload's cases (name, d, degree, alpha, target elements, zero trace)
CERTIFY_CASES = [
    ("d2-P1-a1", 2, 1, 1, 280, False),
    ("d2-P2-a2", 2, 2, 2, 110, False),
    ("d2-P3-a1", 2, 3, 1, 55, False),
    ("d3-P1-a1", 3, 1, 1, 220, False),
    ("d3-P2-a2", 3, 2, 2, 70, False),
    ("d3-P3-a1", 3, 3, 1, 18, False),
    ("d2-CR-a1", 2, "CR", 1, 250, False),
    ("d2-P2-zero-trace", 2, 2, 1, 110, True),
]


def certify_case(seed: int, index: int) -> Operators:
    """The operators of the certify workload's case at the seed, on the mesh
    its run grows: BiSecLG(alpha) from the Kuhn cube, a random fifth of the
    elements marked per round, fewer near the target."""
    _, dim, degree, alpha, target, zero_trace = CERTIFY_CASES[index]
    rng = np.random.default_rng(int(np.random.SeedSequence((seed, index)).generate_state(1)[0]))
    mesh = kuhn_initial_mesh(dim, 1)
    while mesh.n_active < target:
        ids = mesh.active_ids()
        take = max(1, min(len(ids) // 5, (target - len(ids)) // 6))
        mesh.refine_lg(sorted(int(x) for x in rng.choice(ids, size=take, replace=False)), alpha)
    return Operators(CRSpace(mesh) if degree == "CR" else LagrangeSpace(mesh, degree, zero_trace))


def assert_matches_dense(ops: Operators):
    cert = ops.certify()
    lam_min, lam_max, _ = dense_certificate(ops)
    assert abs(cert.lambda_min - lam_min) <= 1e-13 * lam_min
    assert abs(cert.lambda_max - lam_max) <= 1e-13 * lam_max
    assert cert.residual <= 1e-12
    return cert


@pytest.mark.parametrize("dim, cells, multiplicity", [(2, 2, 3), (2, 4, 3), (3, 1, 6), (3, 2, 6)])
def test_multiple_lowest_eigenvalue_on_uniform_kuhn_meshes(dim, cells, multiplicity):
    # P2 on a uniform Kuhn mesh attains lambda_min = K/(2K+d), multiple
    ops = Operators(LagrangeSpace(kuhn_initial_mesh(dim, cells), 2))
    cert = assert_matches_dense(ops)
    w = scipy.linalg.eigh(ops.form_matrix.toarray(), ops.mass.toarray(), eigvals_only=True)
    assert np.count_nonzero(np.abs(w - 2 / (4 + dim)) < 1e-10) == multiplicity
    assert abs(cert.lambda_min - 2 / (4 + dim)) < 1e-13


@pytest.mark.parametrize("cells", [1, 3])
def test_crouzeix_raviart_in_two_dimensions_is_the_identity(cells):
    mesh = kuhn_initial_mesh(2, cells)
    mesh.refine_lg(mesh.active_ids()[:2], 1)
    cert = assert_matches_dense(Operators(CRSpace(mesh)))
    assert abs(cert.lambda_min - 1) < 1e-14 and abs(cert.lambda_max - 1) < 1e-14


@pytest.mark.parametrize(
    "space, n",
    [
        (lambda: LagrangeSpace(kuhn_initial_mesh(2, 1), 2, zero_trace=True), 1),
        (lambda: LagrangeSpace(reference_simplex_mesh(1), 1), 2),
    ],
)
def test_spaces_of_one_and_two_dofs(space, n):
    ops = Operators(space())
    assert ops.space.n_dofs == n
    assert_matches_dense(ops)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("index", range(len(CERTIFY_CASES)))
def test_certify_workload_meshes(seed, index):
    assert_matches_dense(certify_case(seed, index))


@pytest.mark.parametrize(
    "seed, index, n_dofs", [(2, 1, 239), (2, 7, 218), (3, 5, 133), (4, 1, 246), (7, 2, 307), (8, 7, 200), (9, 2, 277)]
)
def test_meshes_on_which_bisection_does_not_converge(seed, index, n_dofs):
    # stebz, the default driver of eigh_tridiagonal for a selected index,
    # stops with LAPACK info=2 ("not all eigenvalues IL:IU found") on the
    # tridiagonal forms of these workload meshes; stemr does not.  Which
    # meshes fail rests on the last bits of T: the five others fail with the
    # reduction certify runs, (4, 1) with the unblocked one (lwork = n), and
    # (2, 7) failed with a variant that rounded T otherwise
    ops = certify_case(seed, index)
    assert ops.space.n_dofs == n_dofs
    assert_matches_dense(ops)


def test_two_eigenpairs_from_one_blocked_reduction(mesh2d, monkeypatch):
    # certify reads one eigenpair of T at each end by stemr, after a sytrd
    # with the queried blocked workspace, and never the full eigh
    lapack = scipy.linalg.lapack
    calls, lworks = [], []
    eigh_tridiagonal, dsytrd = scipy.linalg.eigh_tridiagonal, lapack.dsytrd

    def tridiagonal(*args, **kwargs):
        calls.append((kwargs["select"], kwargs["select_range"], kwargs["lapack_driver"]))
        return eigh_tridiagonal(*args, **kwargs)

    def sytrd(a, **kwargs):
        lworks.append((len(a), kwargs["lwork"]))
        return dsytrd(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", tridiagonal)
    monkeypatch.setattr(lapack, "dsytrd", sytrd)
    monkeypatch.setattr(scipy.linalg, "eigh", None)
    ops = Operators(LagrangeSpace(mesh2d, 2))
    ops.certify()
    n = ops.space.n_dofs
    assert calls == [("i", (0, 0), "stemr"), ("i", (n - 1, n - 1), "stemr")]
    assert lworks == [(n, int(lapack.dsytrd_lwork(n, lower=1)[0]))] and lworks[0][1] > n


def test_indefinite_mass_raises_projection_error():
    # no mesh gives a mass matrix that is not positive definite
    with pytest.raises(ProjectionError, match="not positive definite"):
        _end_eigenpairs(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_failed_tridiagonal_eigensolve_raises_projection_error(mesh2d, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("stemr (eigh_tridiagonal) exited with info=2")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    with pytest.raises(ProjectionError, match="tridiagonal eigensolve failed"):
        Operators(LagrangeSpace(mesh2d, 1)).certify()
