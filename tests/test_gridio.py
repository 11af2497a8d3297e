"""File I/O tests: lossless round-trips of the text formats, parse
errors carrying line numbers, and the measure renormalization warning."""
import numpy as np
import pytest

from deltagrid import gridio
from deltagrid import (DyadicMeasure1, GridSet1, GridSet2, PreconditionError,
                       Scale, gen_cantor, gen_random_frostman, make_interval,
                       read_gridset, read_measure, uniform_on, write_csv,
                       write_gridset, write_measure)


def test_roundtrip_generators(tmp_path):
    cases = [
        make_interval(Scale(5), 0, 1),
        gen_cantor(Scale(8), 4, (0, 3), 4),
        gen_cantor(Scale(9), 3, (0, 2), 5),
        GridSet1.from_indices(Scale(4), [0, 7, 9]),
        gen_random_frostman(Scale(10), 0.6, seed=3),
    ]
    for i, S in enumerate(cases):
        p = tmp_path / f"s{i}.gs1"
        write_gridset(S, p)
        back = read_gridset(p)
        assert back == S
        # rewrite is byte-identical (canonical form)
        q = tmp_path / f"t{i}.gs1"
        write_gridset(back, q)
        assert p.read_bytes() == q.read_bytes()


def test_roundtrip_2d(tmp_path):
    E = GridSet2.from_indices(Scale(6), [(0, 0), (5, 2), (6, 2), (7, 2), (63, 63)])
    p = tmp_path / "e.gs2"
    write_gridset(E, p)
    assert read_gridset(p) == E


def test_unit_square_rows(tmp_path):
    from deltagrid import cartesian_product
    I = make_interval(Scale(2), 0, 1)
    E = cartesian_product(I, I)
    p = tmp_path / "sq.gs2"
    write_gridset(E, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "GS2 v1"
    assert lines[1] == "n=2"
    assert lines[2] == "offset=0,0"
    assert lines[3] == "rows=4"
    assert lines[4:] == [f"row={j}:0-3" for j in range(4)]


def test_gs2_file_skips_empty_rows(tmp_path):
    E = GridSet2.from_indices(Scale(5), [(3, -2), (4, -2), (6, -2), (5, 1),
                                         (-1, 2), (0, 2), (1, 2)])
    p = tmp_path / "gaps.gs2"
    write_gridset(E, p)
    assert p.read_text() == ("GS2 v1\nn=5\noffset=-1,-2\nrows=5\n"
                             "row=-2:3-4\nrow=-2:6-6\nrow=1:5-5\nrow=2:-1-1\n")
    assert read_gridset(p) == E
    write_gridset(GridSet2.empty(Scale(5)), p)
    assert p.read_text() == "GS2 v1\nn=5\noffset=0,0\nrows=0\n"
    assert read_gridset(p).is_empty


def test_empty_set_file(tmp_path):
    S = GridSet1.empty(Scale(7))
    p = tmp_path / "empty.gs1"
    write_gridset(S, p)
    back = read_gridset(p)
    assert back.is_empty and back.scale.n == 7


def test_negative_offsets(tmp_path):
    S = GridSet1.from_indices(Scale(4), [-9, -3, 0, 2])
    p = tmp_path / "neg.gs1"
    write_gridset(S, p)
    assert read_gridset(p) == S


def test_run_lines_inclusive(tmp_path):
    S = GridSet1.from_indices(Scale(3), [1, 2, 3, 6])
    p = tmp_path / "runs.gs1"
    write_gridset(S, p)
    body = p.read_text().splitlines()[3:]
    assert body == ["1-3", "6-6"]


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.gs1"
    p.write_text("GS1 v1\nn=4\noffset=0\n3-1\n")
    with pytest.raises(PreconditionError) as ei:
        read_gridset(p)
    assert ":4:" in str(ei.value)
    p.write_text("GS1 v2\nn=4\noffset=0\n")
    with pytest.raises(PreconditionError) as ei:
        read_gridset(p)
    assert ":1:" in str(ei.value)
    p.write_text("GS1 v1\nn=oops\noffset=0\n")
    with pytest.raises(PreconditionError) as ei:
        read_gridset(p)
    assert ":2:" in str(ei.value)
    p.write_text("GS1 v1\nn=4\noffset=5\n0-1\n")
    with pytest.raises(PreconditionError) as ei:
        read_gridset(p)  # offset must equal the smallest index
    assert ":3:" in str(ei.value)


def test_measure_roundtrip(tmp_path):
    mu = uniform_on(gen_cantor(Scale(8), 4, (0, 3), 4))
    p = tmp_path / "m.dm1"
    write_measure(mu, p)
    back = read_measure(p)
    assert back.scale == mu.scale
    assert back.offset == mu.offset
    assert np.allclose(back.weights, mu.weights, atol=1e-15)


def test_measure_drift_warning(tmp_path):
    p = tmp_path / "drift.dm1"
    p.write_text("DM1 v1\nn=2\noffset=0\n0 0.5\n1 0.6\n")
    with pytest.warns(UserWarning):
        mu = read_measure(p)
    assert mu.weights.sum() == pytest.approx(1.0)
    assert mu.weights[0] == pytest.approx(0.5 / 1.1)
    # tiny drift loads silently
    p.write_text("DM1 v1\nn=2\noffset=0\n0 0.5\n1 0.4999999999996\n")
    mu = read_measure(p)
    assert mu.weights.sum() == pytest.approx(1.0)


def test_measure_parse_errors(tmp_path):
    p = tmp_path / "bad.dm1"
    p.write_text("DM1 v1\nn=2\noffset=0\n0 0.5\n0 0.5\n")
    with pytest.raises(PreconditionError) as ei:
        read_measure(p)  # duplicate index
    assert ":5:" in str(ei.value)
    p.write_text("DM1 v1\nn=2\noffset=0\n0 -1.0\n")
    with pytest.raises(PreconditionError):
        read_measure(p)
    p.write_text("DM1 v1\nn=2\noffset=0\n")
    with pytest.raises(PreconditionError):
        read_measure(p)  # zero total mass


def test_csv_header_and_determinism(tmp_path):
    rows = [[0, 1.5], [1, 0.1]]
    cfg = {"seed": 7, "n": 12}
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["case", "value"], rows, cfg)
    write_csv(b, ["case", "value"], rows, cfg)
    assert a.read_bytes() == b.read_bytes()
    first = a.read_text().splitlines()[0]
    assert first.startswith("# {")
    assert '"seed": 7' in first
    assert "deltagrid 0.1.0" in first


def _read_error(p, text):
    p.write_text(text)
    with pytest.raises(PreconditionError) as ei:
        read_gridset(p)
    return str(ei.value)


_GS2_HEAD = "GS2 v1\nn=4\noffset=0,0\n"


@pytest.mark.parametrize("body, where, msg", [
    ("rows=1\nrow=0:0-x\n", 5, "expected 'row=<j>:a-b', got 'row=0:0-x'"),
    ("rows=2\nrow=0:0-1\nrow 1:0-1\n", 6, "expected 'row=<j>:a-b', got 'row 1:0-1'"),
    ("rows=2\nrow=0:0-1\n\n", 6, "expected 'row=<j>:a-b', got ''"),
    ("rows=1\nrow=0:3-1\n", 5, "descending run 3-1"),
    ("rows=1\nrow=0:0-67108864\n", 5, "more than 67108864 cells"),
    ("rows=2\nrow=0:0-9\nrow=1:0-67108854\n", 6, "more than 67108864 cells"),
    ("rows=10001\nrow=0:0-0\nrow=10000:10000-10000\n", 5,
     "bounding box 10001x10001 exceeds 67108864 cells"),
    ("rows=2\nrow=0:0-0\nrow=1:3-1\nrow=1:x\n", 6, "descending run 3-1"),
    ("rows=2\nrow=0:0-1\nrow=1:0-1\n".replace("rows=2", "rows=3"), 4,
     "rows=3 but occupied rows span 2"),
    ("rows=3\n", 4, "rows=3 but no row lines follow"),
    ("rows=x\nrow=0:0-1\n", 4, "bad integer in 'rows=x'"),
])
def test_gs2_parse_errors_name_line_and_fault(tmp_path, body, where, msg):
    p = tmp_path / "bad.gs2"
    assert _read_error(p, _GS2_HEAD + body) == f"{p}:{where}: {msg}"


def test_gs2_header_errors(tmp_path):
    p = tmp_path / "bad.gs2"
    assert _read_error(p, "GS2 v1\nn=4\noffset=1,0\nrows=1\nrow=0:0-1\n") == \
        f"{p}:3: offset=1,0 but occupied corner is 0,0"
    assert _read_error(p, "GS2 v1\nn=4\noffset=0\nrows=1\nrow=0:0-1\n") == \
        f"{p}:3: expected 'offset=<int>,<int>', got 'offset=0'"
    assert _read_error(p, "GS2 v1\nn=4\n") == \
        f"{p}:3: expected 'offset=<int>,<int>', got ''"
    assert _read_error(p, "GS2 v1\nn=4\noffset=0,0\n") == f"{p}:4: missing 'rows=' header line"


def test_gs2_first_fault_in_file_order(tmp_path):
    # line 5 is descending, line 6 malformed: line 5 is reported
    p = tmp_path / "bad.gs2"
    text = _GS2_HEAD + "rows=2\nrow=0:4-2\nrow=1:zz\n"
    assert _read_error(p, text) == f"{p}:5: descending run 4-2"
    # a malformed line before a descending one is reported in its turn
    text = _GS2_HEAD + "rows=2\nrow=0:zz\nrow=1:4-2\n"
    assert _read_error(p, text) == f"{p}:5: expected 'row=<j>:a-b', got 'row=0:zz'"
    # a body fault outranks the whole-set checks (offset, rows, bounding box)
    text = "GS2 v1\nn=4\noffset=7,7\nrows=9\nrow=0:0-0\nrow=9999:9999-9999\nrow=1:2-1\n"
    assert _read_error(p, text) == f"{p}:7: descending run 2-1"


def test_gs1_parse_errors_name_line_and_fault(tmp_path):
    p = tmp_path / "bad.gs1"
    head = "GS1 v1\nn=4\noffset=0\n"
    assert _read_error(p, head + "0-1\n1-x\n") == f"{p}:5: expected run 'a-b', got '1-x'"
    assert _read_error(p, head + "0-1\n5-2\n1-x\n") == f"{p}:5: descending run 5-2"
    assert _read_error(p, head + "0-9\n0-67108854\n") == f"{p}:5: more than 67108864 cells"
    assert _read_error(p, head + "3-4\n") == f"{p}:3: offset=0 but first occupied cell is 3"


def test_out_of_range_integers_name_their_line(tmp_path):
    big = "99999999999999999999"
    p = tmp_path / "big.gs2"
    msg = _read_error(p, f"GS2 v1\nn=4\noffset=0,{big}\nrows=1\nrow={big}:0-1\n")
    assert msg.startswith(f"{p}:5: ")
    assert _read_error(p, f"{_GS2_HEAD}rows=1\nrow=0:0-{big}\n") == \
        f"{p}:5: more than 67108864 cells"
    assert _read_error(p, f"{_GS2_HEAD}rows=1\nrow=0:-{big}-0\n") == \
        f"{p}:5: more than 67108864 cells"
    # inside int64 but outside the guarded range
    edge = 1 << 62
    msg = _read_error(p, f"GS2 v1\nn=4\noffset=0,{edge}\nrows=1\nrow={edge}:0-1\n")
    assert msg.startswith(f"{p}:5: ")
    q = tmp_path / "big.gs1"
    msg = _read_error(q, f"GS1 v1\nn=4\noffset={big}\n{big}-{big}\n")
    assert msg.startswith(f"{q}:4: ")
    msg = _read_error(q, f"GS1 v1\nn=4\noffset=-{big}\n0-1\n-{big}--{big}\n")
    assert msg.startswith(f"{q}:5: ")
    assert _read_error(q, f"GS1 v1\nn=4\noffset=0\n0-{big}\n") == \
        f"{q}:4: more than 67108864 cells"
    # the largest guarded index still reads back
    top = edge - 1
    q.write_text(f"GS1 v1\nn=4\noffset={top}\n{top}-{top}\n")
    assert read_gridset(q).indices.tolist() == [top]


def test_noncanonical_bodies_match_set_oracle(tmp_path):
    """Accepted non-canonical bodies (duplicate and overlapping runs,
    unsorted rows) read back as the union of their runs."""
    rng = np.random.default_rng(20240611)
    for case in range(40):
        runs = int(rng.integers(1, 25))
        base = int(rng.integers(-1000, 1000))
        lo = base + rng.integers(0, 40, size=runs)
        hi = lo + rng.integers(0, 6, size=runs)
        rows = base + rng.integers(0, 12, size=runs)
        order = rng.permutation(runs)
        if case % 3 == 0:  # an exact duplicate line
            order = np.concatenate((order, order[:1]))
        cells1 = {i for a, b in zip(lo, hi) for i in range(int(a), int(b) + 1)}
        p = tmp_path / f"c{case}.gs1"
        p.write_text(f"GS1 v1\nn=12\noffset={min(cells1)}\n"
                     + "".join(f"{lo[k]}-{hi[k]}\n" for k in order))
        S = read_gridset(p)
        assert S.indices.tolist() == sorted(cells1)
        assert S == GridSet1.from_indices(Scale(12), sorted(cells1))
        cells2 = {(i, int(j)) for a, b, j in zip(lo, hi, rows)
                  for i in range(int(a), int(b) + 1)}
        ox = min(i for i, _ in cells2)
        oy = min(j for _, j in cells2)
        h = max(j for _, j in cells2) - oy + 1
        q = tmp_path / f"c{case}.gs2"
        q.write_text(f"GS2 v1\nn=12\noffset={ox},{oy}\nrows={h}\n"
                     + "".join(f"row={rows[k]}:{lo[k]}-{hi[k]}\n" for k in order))
        E = read_gridset(q)
        assert sorted(map(tuple, E.indices.tolist())) == sorted(cells2)
        # the line-by-line scan that names faulty lines parses alike
        lines = q.read_text().splitlines()
        fast = gridio._read_body(q, lines, 5, gridio._ROW_RE, gridio._GS2_BODY_RE, "")
        assert fast.tolist() == [list(t) for t in gridio._scan_body(q, lines, 5, gridio._ROW_RE, "")]
        assert E.count == len(cells2)
        write_gridset(E, tmp_path / "canon.gs2")
        assert read_gridset(tmp_path / "canon.gs2") == E
