import copy
import csv
import dataclasses
import io
import pickle
import struct

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
import splitvar.grid as grid_module
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
    # a float or a bool would build and fail later inside numpy
    for n1 in (8.5, 8.0, True, "8"):
        with pytest.raises(ValueError, match="grid sizes must be integers"):
            Grid(n1, 8)
    assert Grid(np.int64(8), np.int32(4)).node_shape == (9, 5)


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


def test_nodal_field_takes_its_array_and_freezes_it(tmp_path):
    # the finite check holds for the field's life only if no write follows
    # it: an owned float64 array is kept and frozen, any other input copied
    g = Grid(3, 2)
    owned = np.zeros(g.node_shape)
    u = GridFunction(g, owned)
    assert u.values is owned and not owned.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        owned[1, 1] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.values = np.ones(g.node_shape)
    assert GridFunction(g, u.values).values is owned
    base = np.zeros((5, 3))
    for given in (base[:4], owned.tolist(), owned.astype(np.float32), np.asfortranarray(owned)[:]):
        v = GridFunction(g, given)
        assert v.values is not given and v.values.flags.owndata
        assert v.values.flags.c_contiguous and not v.values.flags.writeable
    base[0, 0] = 1.0
    assert GridFunction(g, base[:4]).values[0, 0] == 1.0
    # a deep copy or an unpickled field is built, and frozen, the same way
    for twin in (copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert twin.grid == g and np.array_equal(twin.values, owned)
        assert not twin.values.flags.writeable
    save_vsgf(u, str(tmp_path / "u.vsgf"))
    back = load_vsgf(str(tmp_path / "u.vsgf"))
    assert back.values.flags.owndata and not back.values.flags.writeable


def test_cell_field_is_frozen_but_its_arrays_are_scratch():
    g = Grid(2, 2)
    tau = CellField2(g, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tau.comp1 = np.ones((2, 2))
    tau.comp1[0, 0] = 1.0
    assert tau.comp1[0, 0] == 1.0


def test_from_callable_broadcasts_constant():
    g = Grid(3, 3)
    u = GridFunction.from_callable(g, lambda x1, x2: 2.5)
    assert np.array_equal(u.values, np.full(g.node_shape, 2.5))
    # a field of x2 alone is stored row-major, as every other field is
    v = GridFunction.from_callable(g, lambda x1, x2: x2)
    assert v.values.flags.c_contiguous
    assert np.array_equal(v.values, np.broadcast_to(g.node_coords()[1], g.node_shape))


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


def test_csv_bytes_match_row_by_row_writer_non_square(tmp_path, monkeypatch):
    g = Grid(64, 33)
    values = np.random.default_rng(8).standard_normal(g.node_shape)
    special = [-0.0, 5e-324, 1e300, 1e22, 1e-100, -1e-300, 2.0 / 3.0]
    values.flat[: len(special)] = special
    values[-1, -len(special):] = special
    u = GridFunction(g, values)
    row_by_row_csv(u, str(tmp_path / "ref.csv"))
    ref = (tmp_path / "ref.csv").read_bytes()
    save_csv(u, str(tmp_path / "fast.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == ref
    # blocks that split the rows unevenly write the same bytes
    monkeypatch.setattr(grid_module, "_CSV_BLOCK_ROWS", 7)
    save_csv(u, str(tmp_path / "blocked.csv"))
    assert (tmp_path / "blocked.csv").read_bytes() == ref
    assert b",5e-324\r\n" in ref and b",1e+22\r\n" in ref


def test_write_csv_numpy_scalars_print_as_plain_floats(tmp_path):
    xs = [0.1, -0.0, 1e-310, 1e22, 2.0 / 3.0]
    labels, counts = ["label"] * len(xs), [3] * len(xs)
    plain, tagged = tmp_path / "plain.csv", tmp_path / "tagged.csv"
    write_csv(str(plain), ["x", "kind", "n"], [xs, labels, counts])
    write_csv(str(tagged), ["x", "kind", "n"], [[np.float64(x) for x in xs], labels, counts])
    assert tagged.read_bytes() == plain.read_bytes()
    assert plain.read_bytes().splitlines()[1] == b"0.1,label,3"
    # a float ndarray column, formatted in one pass, prints the same cells
    array = tmp_path / "array.csv"
    write_csv(str(array), ["x", "kind", "n"], [np.array(xs), labels, counts])
    assert array.read_bytes() == plain.read_bytes()
    # other float dtypes keep the per-cell rule
    wide = tmp_path / "wide.csv"
    write_csv(str(wide), ["x", "kind", "n"], [np.array(xs, dtype=np.longdouble), labels, counts])
    assert wide.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "cr\r", "lf\n", "\r\n"])
def test_write_csv_rejects_cells_the_csv_module_would_quote(tmp_path, cell):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["x", "kind"], [[1.0, 2.0], ["ok", cell]])
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["x", cell], [[1.0], ["ok"]])
    # one column: a line break in a cell must not pass as a row separator
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["kind"], [["ok", cell]])


def test_write_csv_bytes_match_csv_writer(tmp_path):
    # floats, numpy scalars, counts, labels, empty and preformatted cells
    columns = [
        np.array([0.1, -0.0, 1e-310, 1e22]),
        [np.float32(0.1), 3, True, 2.0 / 3.0],
        ["", "label", " spaced ", "1.5"],
    ]
    write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], columns)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c"])
        for row in zip(*columns):
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )
    assert (tmp_path / "t.csv").read_bytes() == ref.read_bytes()


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1.0, 2.0], [1.0]])


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


def dict_loop_load_csv(path):
    """Reference reader: the per-row csv.reader and dict placement that
    load_csv replaced.  It fills a repeated node's missing partner with
    uninitialized memory and accepts off-grid coordinates."""
    xs1, xs2, vals = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip() for c in header] != ["x1", "x2", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            xs1.append(float(row[0]))
            xs2.append(float(row[1]))
            vals.append(float(row[2]))
    u1 = sorted(set(xs1))
    u2 = sorted(set(xs2))
    n1, n2 = len(u1) - 1, len(u2) - 1
    if (n1 + 1) * (n2 + 1) != len(vals):
        raise ValueError("CSV rows do not form a complete tensor grid")
    grid = Grid(n1, n2)
    values = np.empty(grid.node_shape)
    idx1 = {x: i for i, x in enumerate(u1)}
    idx2 = {x: j for j, x in enumerate(u2)}
    for a, b, v in zip(xs1, xs2, vals):
        values[idx1[a], idx2[b]] = v
    return GridFunction(grid, values)


def table_rows(u):
    """save_csv's rows as cell strings, without the header."""
    x1, x2 = u.grid.node_coords()
    return [
        [repr(float(a)), repr(float(b)), repr(float(v))]
        for a, row in zip(x1, u.values) for b, v in zip(x2, row)
    ]


def write_table(path, rows, header="x1,x2,value", end="\n"):
    path.write_bytes((end.join([header] + [",".join(r) for r in rows]) + end).encode())


def small_table():
    g = Grid(4, 3)
    values = np.random.default_rng(3).standard_normal(g.node_shape)
    values.flat[:3] = [-0.0, 5e-324, 1e300]
    return GridFunction(g, values)


ACCEPTED = {
    "lf": lambda rows: (rows, {}),
    "crlf": lambda rows: (rows, {"end": "\r\n"}),
    "spaces": lambda rows: ([[f" {c} " for c in r] for r in rows], {"header": " x1 , x2,value "}),
    "quoted": lambda rows: ([[f'"{c}"' for c in r] for r in rows], {}),
    "extra_columns": lambda rows: ([r + ["note", "7"] for r in rows], {}),
    "shuffled": lambda rows: ([rows[k] for k in np.random.default_rng(4).permutation(len(rows))], {}),
    "rounded_coords": lambda rows: ([[f"{float(r[0]):.12g}", f"{float(r[1]):.12g}", r[2]] for r in rows], {}),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_load_csv_accepts_what_the_dict_loop_reader_accepted(tmp_path, case):
    u = small_table()
    rows, fmt = ACCEPTED[case](table_rows(u))
    path = tmp_path / "t.csv"
    write_table(path, rows, **fmt)
    back, ref = load_csv(str(path)), dict_loop_load_csv(str(path))
    assert back.grid == ref.grid == u.grid
    assert back.values.tobytes() == ref.values.tobytes() == u.values.tobytes()


def test_load_csv_accepts_a_trailing_blank_line(tmp_path):
    # the dict-loop reader crashed on it with an IndexError
    u = small_table()
    path, plain = tmp_path / "blank.csv", tmp_path / "plain.csv"
    write_table(plain, table_rows(u))
    path.write_bytes(plain.read_bytes() + b"\n")
    with pytest.raises(IndexError):
        dict_loop_load_csv(str(path))
    back = load_csv(str(path))
    assert back.grid == u.grid
    assert back.values.tobytes() == dict_loop_load_csv(str(plain)).values.tobytes()


def test_load_csv_round_trip_matches_dict_loop_reader(tmp_path):
    g = Grid(64, 33)
    u = GridFunction(g, np.random.default_rng(9).standard_normal(g.node_shape))
    path = tmp_path / "u.csv"
    save_csv(u, str(path))
    back = load_csv(str(path))
    assert back.values.tobytes() == dict_loop_load_csv(str(path)).values.tobytes()
    assert back.values.tobytes() == u.values.tobytes()


def test_load_csv_rejects_a_repeated_node(tmp_path):
    g = Grid(2, 2)
    u = GridFunction(g, np.arange(9.0).reshape(g.node_shape))
    rows = table_rows(u)
    rows[1][:2] = rows[0][:2]  # node (0, 1) overwritten by node (0, 0)
    path = tmp_path / "dup.csv"
    write_table(path, rows)
    dict_loop_load_csv(str(path))  # passed the row-count check
    with pytest.raises(ValueError, match="repeats a node"):
        load_csv(str(path))


def test_load_csv_rejects_off_grid_coordinates(tmp_path):
    rows = [[a, b, "0.0"] for a in ("0", "3", "7") for b in ("-1", "0", "1")]
    path = tmp_path / "off.csv"
    write_table(path, rows)
    assert dict_loop_load_csv(str(path)).grid == Grid(2, 2)
    with pytest.raises(ValueError, match="x1 coordinates"):
        load_csv(str(path))


def test_load_csv_rejects_coordinates_beyond_a_quarter_spacing(tmp_path):
    g = Grid(4, 4)
    rows = table_rows(GridFunction(g, np.zeros(g.node_shape)))
    inside, outside = tmp_path / "inside.csv", tmp_path / "outside.csv"
    for path, shift in ((inside, 0.24), (outside, 0.26)):
        moved = [[r[0], repr(float(r[1]) + shift * g.h2) if float(r[1]) == 0.0 else r[1], r[2]]
                 for r in rows]
        write_table(path, moved)
    assert load_csv(str(inside)).grid == g
    with pytest.raises(ValueError, match="x2 coordinates"):
        load_csv(str(outside))


@pytest.mark.parametrize(
    "body",
    ["-1,-1,0\n-1,0\n", "", "-1,-1,zero\n"],
    ids=["short_row", "header_only", "not_a_float"],
)
def test_load_csv_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,value\n" + body)
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


@pytest.mark.parametrize("size", [4, 7, 11])
def test_vsgf_rejects_short_header(tmp_path, size):
    # the magic alone, or the magic with part of the n1, n2 header
    path = tmp_path / "short.vsgf"
    path.write_bytes((b"VSGF" + (3).to_bytes(4, "little") + (3).to_bytes(4, "little"))[:size])
    with pytest.raises(ValueError, match="header"):
        load_vsgf(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nodal_fields_reject_non_finite_values(tmp_path, bad):
    # a nodal field is finite by type, however it is built or read; the
    # files are written without a GridFunction, which could not hold one
    g = Grid(2, 3)
    values = np.zeros(g.node_shape)
    values[1, 2] = bad
    message = "holds a non-finite value$"
    with pytest.raises(ValueError, match=message):
        GridFunction(g, values)
    with pytest.raises(ValueError, match=message):
        GridFunction.from_callable(g, lambda x1, x2: np.where(x1 + x2 == 0.0, bad, x1))
    x1, x2 = g.node_coords()
    columns = [np.repeat(x1, len(x2)), np.tile(x2, len(x1)), values.ravel()]
    write_csv(str(tmp_path / "u.csv"), ["x1", "x2", "value"], columns)
    with pytest.raises(ValueError, match=message):
        load_csv(str(tmp_path / "u.csv"))
    payload = struct.pack("<II", g.n1, g.n2) + values.astype("<f8").tobytes()
    (tmp_path / "u.vsgf").write_bytes(b"VSGF" + payload)
    with pytest.raises(ValueError, match=message):
        load_vsgf(str(tmp_path / "u.vsgf"))


def test_write_csv_to_a_stream_writes_the_file_bytes(tmp_path):
    columns = [np.array([0.1, -0.0, 1e22]), [np.float32(0.1), 3, "label"]]
    write_csv(str(tmp_path / "t.csv"), ["a", "b"], columns)
    stream = io.StringIO()
    write_csv(stream, ["a", "b"], columns)
    # the caller's stream stays open, and gets the same CRLF text
    assert not stream.closed
    assert stream.getvalue().encode() == (tmp_path / "t.csv").read_bytes()
