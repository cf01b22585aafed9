import csv

import numpy as np
import pytest

from splitvar import (
    CellField2,
    Grid,
    GridFunction,
    divergence_residual,
    gradient,
    load_csv,
    load_vsgf,
    save_csv,
    save_vsgf,
)
from splitvar.grid import write_csv


def loop_gradient(u):
    """Reference stencil, written out cell by cell."""
    g = u.grid
    c1 = np.empty((g.n1, g.n2))
    c2 = np.empty((g.n1, g.n2))
    v = u.values
    for i in range(g.n1):
        for j in range(g.n2):
            c1[i, j] = 0.5 * ((v[i + 1, j] - v[i, j]) + (v[i + 1, j + 1] - v[i, j + 1])) / g.h1
            c2[i, j] = 0.5 * ((v[i, j + 1] - v[i, j]) + (v[i + 1, j + 1] - v[i + 1, j])) / g.h2
    return c1, c2


def test_grid_geometry():
    g = Grid(4, 8)
    assert g.h1 == 0.5 and g.h2 == 0.25
    assert g.cell_area == 0.125
    x1, x2 = g.node_coords()
    assert x1[0] == -1.0 and x1[-1] == 1.0 and len(x1) == 5
    xc, yc = g.cell_centers()
    assert xc[0] == pytest.approx(-0.75) and len(yc) == 8


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        Grid(1, 4)
    with pytest.raises(ValueError):
        Grid(4, 0)


def test_gradient_hand_stencil_2x2():
    g = Grid(2, 2)
    u = GridFunction.from_callable(g, lambda x1, x2: x1 * x2)
    field = gradient(u)
    # d/dx1 of x1*x2 averaged over each cell is the center x2 coordinate
    assert np.array_equal(field.comp1, [[-0.5, 0.5], [-0.5, 0.5]])
    assert np.array_equal(field.comp2, [[-0.5, -0.5], [0.5, 0.5]])


def test_gradient_exact_for_affine():
    g = Grid(5, 7)
    u = GridFunction.from_callable(g, lambda x1, x2: 3.0 * x1 - 2.0 * x2 + 0.25)
    field = gradient(u)
    assert np.allclose(field.comp1, 3.0, atol=1e-13)
    assert np.allclose(field.comp2, -2.0, atol=1e-13)


def test_gradient_matches_loop_oracle():
    g = Grid(6, 4)
    rng = np.random.default_rng(11)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    field = gradient(u)
    ref1, ref2 = loop_gradient(u)
    assert np.allclose(field.comp1, ref1, atol=1e-14)
    assert np.allclose(field.comp2, ref2, atol=1e-14)


def test_gradient_linearity():
    g = Grid(8, 8)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    v = GridFunction(g, rng.standard_normal(g.node_shape))
    w = GridFunction(g, 2.0 * u.values - 3.0 * v.values)
    gu, gv, gw = gradient(u), gradient(v), gradient(w)
    assert np.allclose(gw.comp1, 2.0 * gu.comp1 - 3.0 * gv.comp1, atol=1e-13)
    assert np.allclose(gw.comp2, 2.0 * gu.comp2 - 3.0 * gv.comp2, atol=1e-13)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_divergence_is_scaled_gradient_adjoint(n):
    # <gradient(phi), tau> * h1*h2 == <phi, residual(tau)> for interior phi
    g = Grid(n, n)
    rng = np.random.default_rng(n)
    phi_vals = np.zeros(g.node_shape)
    phi_vals[1:-1, 1:-1] = rng.standard_normal((n - 1, n - 1))
    phi = GridFunction(g, phi_vals)
    tau = CellField2(g, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    grad_phi = gradient(phi)
    lhs = float(
        np.sum(grad_phi.comp1 * tau.comp1 + grad_phi.comp2 * tau.comp2)
    ) * g.cell_area
    rhs = float(np.sum(phi.values * divergence_residual(tau)))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_divergence_residual_zero_for_constants():
    g = Grid(6, 5)
    tau = CellField2(g, np.full((6, 5), 0.7), np.full((6, 5), -1.3))
    res = divergence_residual(tau)
    assert np.array_equal(res, np.zeros(g.node_shape))


def test_divergence_residual_boundary_ring_masked():
    g = Grid(4, 4)
    rng = np.random.default_rng(0)
    tau = CellField2(g, rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    res = divergence_residual(tau)
    assert np.all(res[0, :] == 0.0) and np.all(res[-1, :] == 0.0)
    assert np.all(res[:, 0] == 0.0) and np.all(res[:, -1] == 0.0)


def test_cellfield_shape_validation():
    g = Grid(4, 4)
    with pytest.raises(ValueError):
        CellField2(g, np.zeros((5, 4)), np.zeros((4, 4)))


def test_gridfunction_shape_validation():
    g = Grid(4, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((4, 4)))


def test_from_callable_broadcasts_constant():
    g = Grid(3, 3)
    u = GridFunction.from_callable(g, lambda x1, x2: 2.5)
    assert np.array_equal(u.values, np.full(g.node_shape, 2.5))


def test_csv_round_trip_bitwise(tmp_path):
    g = Grid(5, 3)
    rng = np.random.default_rng(21)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    path = tmp_path / "u.csv"
    save_csv(u, str(path))
    back = load_csv(str(path))
    assert back.grid == g
    assert np.array_equal(back.values, u.values)


def row_by_row_csv(u, path):
    """Reference writer: one writerow per node, each float through numpy."""
    x1, x2 = u.grid.node_coords()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        for i in range(u.grid.n1 + 1):
            for j in range(u.grid.n2 + 1):
                v = u.values[i, j]
                writer.writerow([repr(float(x1[i])), repr(float(x2[j])), repr(float(v))])


def test_csv_bytes_match_row_by_row_writer(tmp_path):
    g = Grid(7, 3)
    values = np.random.default_rng(5).standard_normal(g.node_shape)
    special = [-0.0, 0.0, 1e300, -2.5e-310, 1.2345678901234567e-100, 1e22, 1e16, -1e-5]
    values.flat[: len(special)] = special
    u = GridFunction(g, values)
    save_csv(u, str(tmp_path / "fast.csv"))
    row_by_row_csv(u, str(tmp_path / "ref.csv"))
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n" in fast and b",-0.0\r\n" in fast and b"e-310" in fast


def test_write_csv_numpy_scalars_print_as_plain_floats(tmp_path):
    xs = [0.1, -0.0, 1e-310, 1e22, 2.0 / 3.0]
    plain, tagged = tmp_path / "plain.csv", tmp_path / "tagged.csv"
    write_csv(str(plain), ["x", "kind", "n"], [(x, "label", 3) for x in xs])
    write_csv(str(tagged), ["x", "kind", "n"], [(np.float64(x), "label", 3) for x in xs])
    assert tagged.read_bytes() == plain.read_bytes()
    assert plain.read_bytes().splitlines()[1] == b"0.1,label,3"


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1\n")
    with pytest.raises(ValueError):
        load_csv(str(path))


def test_csv_rejects_incomplete_grid(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x1,x2,value\n-1.0,-1.0,0.0\n-1.0,1.0,0.0\n1.0,-1.0,0.0\n")
    with pytest.raises(ValueError):
        load_csv(str(path))


def test_vsgf_round_trip_bitwise(tmp_path):
    g = Grid(7, 4)
    rng = np.random.default_rng(13)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    path = tmp_path / "u.vsgf"
    save_vsgf(u, str(path))
    back = load_vsgf(str(path))
    assert back.grid == g
    assert np.array_equal(back.values, u.values)
    # reserializing produces identical bytes
    path2 = tmp_path / "u2.vsgf"
    save_vsgf(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_vsgf_header_layout(tmp_path):
    g = Grid(3, 2)
    u = GridFunction(g, np.zeros(g.node_shape))
    path = tmp_path / "u.vsgf"
    save_vsgf(u, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"VSGF"
    assert raw[4:8] == (3).to_bytes(4, "little")
    assert raw[8:12] == (2).to_bytes(4, "little")
    assert len(raw) == 12 + 4 * 3 * 8


def test_vsgf_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.vsgf"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError):
        load_vsgf(str(path))


def test_vsgf_rejects_truncated_payload(tmp_path):
    g = Grid(3, 3)
    u = GridFunction(g, np.ones(g.node_shape))
    path = tmp_path / "u.vsgf"
    save_vsgf(u, str(path))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_vsgf(str(path))
