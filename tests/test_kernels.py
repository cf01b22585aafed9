"""Identities of the grid kernels: composition, adjointness, diagonal, telescoping."""

import numpy as np

from splitvar import _kernels as K


def test_hessvec_is_weighted_scatter_of_gradient():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((9, 6))
    w1 = rng.standard_normal((8, 5)) ** 2
    w2 = rng.standard_normal((8, 5)) ** 2
    g1, g2 = K._numpy_cell_gradient(v, 0.25, 0.4)
    composed = K._numpy_scatter_adjoint(w1 * g1, w2 * g2, 0.25, 0.4)
    assert np.array_equal(K._numpy_hessvec(v, w1, w2, 0.25, 0.4), composed)


def test_kernel_level_adjoint_identity():
    # <scatter(t), v> = h1 h2 (<t1, g1(v)> + <t2, g2(v)>), anisotropic spacing
    rng = np.random.default_rng(13)
    h1, h2 = 0.2, 0.7
    v = rng.standard_normal((10, 7))
    t1 = rng.standard_normal((9, 6))
    t2 = rng.standard_normal((9, 6))
    lhs = float(np.vdot(K._numpy_scatter_adjoint(t1, t2, h1, h2), v))
    g1, g2 = K._numpy_cell_gradient(v, h1, h2)
    rhs = h1 * h2 * (float(np.sum(t1 * g1)) + float(np.sum(t2 * g2)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_scatter_diag_matches_unit_vector_probe():
    rng = np.random.default_rng(17)
    w1 = rng.standard_normal((3, 3)) ** 2
    w2 = rng.standard_normal((3, 3)) ** 2
    h1, h2 = 0.5, 0.25
    diag = K._numpy_scatter_diag(w1, w2, h1, h2)
    probe = np.zeros_like(diag)
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4))
            e[i, j] = 1.0
            probe[i, j] = K._numpy_hessvec(e, w1, w2, h1, h2)[i, j]
    assert np.allclose(diag, probe, rtol=1e-13, atol=1e-15)


def test_constant_fields_scatter_to_interior_zero():
    t1 = np.full((12, 9), 0.7310585786300049)
    t2 = np.full((12, 9), -0.1234567890123456)
    out = K._numpy_scatter_adjoint(t1, t2, 1.0 / 12.0, 1.0 / 9.0)
    # per-component accumulation telescopes exactly away from the boundary
    assert np.array_equal(out[1:-1, 1:-1], np.zeros((11, 8)))
    assert np.any(out[0, :] != 0.0)
