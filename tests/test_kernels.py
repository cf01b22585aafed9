"""Identities of the grid kernels: composition, adjointness, diagonal, telescoping."""

import numpy as np
import pytest

from splitvar import _kernels as K


def _curvature_weights(w1, w2, h1, h2):
    # hessvec's per-step weights k1 = w1 h2 / (4 h1), k2 = w2 h1 / (4 h2)
    return (0.25 * h2 / h1) * w1, (0.25 * h1 / h2) * w2


def test_hessvec_is_weighted_scatter_of_gradient():
    # the fused kernel is the interior of scatter_adjoint(w * grad v), up to
    # rounding, for any v (the ring included) and anisotropic spacing
    rng = np.random.default_rng(11)
    h1, h2 = 0.25, 0.4
    for shape in [(9, 6), (3, 3), (17, 40)]:
        v = rng.standard_normal(shape)
        w1 = rng.standard_normal((shape[0] - 1, shape[1] - 1)) ** 2
        w2 = rng.standard_normal((shape[0] - 1, shape[1] - 1)) ** 2
        g1, g2 = K.cell_gradient(v, h1, h2)
        composed = K.scatter_adjoint(w1 * g1, w2 * g2, h1, h2)[1:-1, 1:-1]
        fused = K.hessvec(v, *_curvature_weights(w1, w2, h1, h2))
        assert fused.shape == composed.shape
        assert np.max(np.abs(fused - composed)) <= 1e-14 * np.max(np.abs(composed))


def test_kernel_level_adjoint_identity():
    # <scatter(t), v> = h1 h2 (<t1, g1(v)> + <t2, g2(v)>), anisotropic spacing
    rng = np.random.default_rng(13)
    h1, h2 = 0.2, 0.7
    v = rng.standard_normal((10, 7))
    t1 = rng.standard_normal((9, 6))
    t2 = rng.standard_normal((9, 6))
    lhs = float(np.vdot(K.scatter_adjoint(t1, t2, h1, h2), v))
    g1, g2 = K.cell_gradient(v, h1, h2)
    rhs = h1 * h2 * (float(np.sum(t1 * g1)) + float(np.sum(t2 * g2)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_scatter_diag_matches_unit_vector_probe():
    rng = np.random.default_rng(17)
    w1 = rng.standard_normal((3, 3)) ** 2
    w2 = rng.standard_normal((3, 3)) ** 2
    h1, h2 = 0.5, 0.25
    k1, k2 = _curvature_weights(w1, w2, h1, h2)
    diag = K.scatter_diag(k1, k2)
    probe = np.zeros_like(diag)
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4))
            e[i, j] = 1.0
            # every node, the ring included, through the composed product
            g1, g2 = K.cell_gradient(e, h1, h2)
            probe[i, j] = K.scatter_adjoint(w1 * g1, w2 * g2, h1, h2)[i, j]
            if 0 < i < 3 and 0 < j < 3:
                # the interior nodes also through the fused kernel
                fused = K.hessvec(e, k1, k2)[i - 1, j - 1]
                assert fused == pytest.approx(diag[i, j], rel=1e-13, abs=1e-15)
    assert np.allclose(diag, probe, rtol=1e-13, atol=1e-15)


def test_constant_fields_scatter_to_interior_zero():
    t1 = np.full((12, 9), 0.7310585786300049)
    t2 = np.full((12, 9), -0.1234567890123456)
    out = K.scatter_adjoint(t1, t2, 1.0 / 12.0, 1.0 / 9.0)
    # per-component accumulation telescopes exactly away from the boundary
    assert np.array_equal(out[1:-1, 1:-1], np.zeros((11, 8)))
    assert np.any(out[0, :] != 0.0)
