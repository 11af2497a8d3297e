"""File I/O tests: lossless round-trips of the text formats, parse
errors carrying line numbers, and the measure renormalization warning."""
import warnings

import numpy as np
import pytest

from deltagrid import gridio
from deltagrid.grid import MAX_INDEX
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


@pytest.mark.parametrize("text, where, msg", [
    ("DM2 v1\nn=2\noffset=0\n0 1.0\n", 1, "expected 'DM1 v1'"),
    ("DM1 v1\nn=2\noffset=0\n0\n", 4, "expected '<index> <weight>', got '0'"),
    ("DM1 v1\nn=2\noffset=0\n0 abc\n", 4, "bad number in '0 abc'"),
    ("DM1 v1\nn=2\noffset=1\n0 1.0\n", 3, "offset=1 but first index is 0"),
    (f"DM1 v1\nn=2\noffset=0\n0 0.5\n{1 << 26} 0.5\n", 4,
     f"cell span {(1 << 26) + 1} exceeds {1 << 26}"),
    ("DM1 v1\nn=2\noffset=0\n0 0.0\n1 0.0\n", 4, "weights sum to zero"),
])
def test_measure_errors_name_their_line(tmp_path, text, where, msg):
    p = tmp_path / "bad.dm1"
    p.write_text(text)
    with pytest.raises(PreconditionError) as ei:
        read_measure(p)
    assert str(ei.value) == f"{p}:{where}: {msg}"


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
        head, fast = gridio._parse_fast(q.read_bytes(), 5, gridio._GS2_SEPS)
        assert head == lines[:4]
        assert fast.tolist() == gridio._scan_body(q, lines, 5, gridio._ROW_RE, "").tolist()
        assert E.count == len(cells2)
        write_gridset(E, tmp_path / "canon.gs2")
        assert read_gridset(tmp_path / "canon.gs2") == E


def test_measure_rejects_huge_index_and_infinite_mass(tmp_path):
    p = tmp_path / "bad.dm1"
    big = 2 ** 70
    p.write_text(f"DM1 v1\nn=2\noffset={big}\n{big} 0.5\n{big + 1} 0.5\n")
    with pytest.raises(PreconditionError) as ei:
        read_measure(p)
    assert str(ei.value) == (f"{p}:4: index {big} outside the guarded range "
                             f"(-{MAX_INDEX}, {MAX_INDEX})")
    p.write_text("DM1 v1\nn=2\noffset=0\n0 1e308\n1 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the renormalizing warning
        with pytest.raises(PreconditionError) as ei:
            read_measure(p)
    assert str(ei.value) == f"{p}:4: weights sum to a non-finite value"


def _outcome(read, p):
    """What reading `p` gives: the set's type, scale, offset and bits, or
    the error's type and message."""
    try:
        S = read(p)
    except (PreconditionError, UnicodeDecodeError) as e:
        return type(e).__name__, str(e)
    return type(S).__name__, S.scale, S.offset, S.bits.shape, S.bits.tobytes()


_FORMATS = ((b"GS1 v1\n", 4, gridio._GS1_SEPS, gridio._RUN_RE),
            (b"GS2 v1\n", 5, gridio._GS2_SEPS, gridio._ROW_RE))


def _check_against_text_path(p, monkeypatch):
    """read_gridset(p) gives what the text path gives, and wherever the
    bytes parse takes the file, its header lines and numbers are those of
    _scan_body on the decoded lines.  True when the bytes parse took it."""
    got = _outcome(read_gridset, p)
    with monkeypatch.context() as m:
        m.setattr(gridio, "_parse_fast", lambda *args: None)
        want = _outcome(read_gridset, p)
    assert got == want
    raw = p.read_bytes()
    for fmt, first, seps, line_re in _FORMATS:
        fast = gridio._parse_fast(raw, first, seps) if raw.startswith(fmt) else None
        if fast is not None:
            lines = raw.decode("utf-8").splitlines()
            assert fast[0] == lines[:first - 1]
            assert fast[1].tolist() == gridio._scan_body(p, lines, first, line_re, "").tolist()
            return True
    return False


def _mutate(rng, raw: bytes) -> bytes:
    """One or two random byte insertions, deletions or substitutions."""
    alphabet = b"0123456789-\n:=,row \r\x0c"
    buf = bytearray(raw)
    for _ in range(int(rng.integers(1, 3))):
        at = int(rng.integers(0, len(buf) + 1))
        byte = (int(rng.integers(0, 256)) if rng.random() < 0.1
                else alphabet[int(rng.integers(0, len(alphabet)))])
        kind = int(rng.integers(0, 3))
        if kind == 0 or at == len(buf):
            buf.insert(at, byte)
        elif kind == 1:
            del buf[at]
        else:
            buf[at] = byte
    return bytes(buf)


def test_bytes_parse_matches_text_path(tmp_path, monkeypatch):
    """Seeded canonical and non-canonical GS1/GS2 files, each also with
    one or two random byte edits, read alike through the bytes parse and
    the text path: the same set, or the same error and line."""
    rng = np.random.default_rng(20261018)
    taken = 0
    for case in range(60):
        base = int(rng.integers(-10 ** 4, 10 ** 4))
        m = int(rng.integers(1, 40))
        xs = base + rng.integers(0, 60, size=m)
        ys = base + rng.integers(0, 9, size=m)
        canonical = [GridSet1.from_indices(Scale(12), xs),
                     GridSet2.from_indices(Scale(12), np.stack([xs, ys], axis=1))]
        texts = []
        for S, ext in zip(canonical, ("gs1", "gs2")):
            q = tmp_path / f"canon.{ext}"
            write_gridset(S, q)
            texts.append(q.read_bytes())
        lo = xs[:5]
        hi = lo + rng.integers(0, 4, size=lo.size)
        body1 = "".join(f"{a}-{b}\n" for a, b in zip(lo, hi))
        body2 = "".join(f"row={j}:{a}-{b}\n" for a, b, j in zip(lo, hi, ys))
        texts.append(f"GS1 v1\nn=12\noffset={lo.min()}\n{body1}".encode())
        texts.append(f"GS2 v1\nn=12\noffset={lo.min()},{ys[:5].min()}\n"
                     f"rows={ys[:5].max() - ys[:5].min() + 1}\n{body2}".encode())
        for i, raw in enumerate(texts):
            for edited in (raw, _mutate(rng, raw), _mutate(rng, raw)):
                p = tmp_path / f"c{case}_{i}.gs"
                p.write_bytes(edited)
                taken += _check_against_text_path(p, monkeypatch)
    assert taken > 240  # every unedited file, at least, takes the bytes parse


@pytest.mark.parametrize("raw, fast", [
    (b"GS1 v1\r\nn=4\r\noffset=0\r\n0-1\r\n", False),  # CRLF
    (b"GS1 v1\rn=4\roffset=0\r0-1\r", False),  # lone CR
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0-1\r2-3\n", False),
    (b"GS1 v1\nn=4\noffset=0\n0-1\n3-4", False),  # no final newline
    (b"GS2 v1\r\nn=4\r\noffset=0,0\r\nrows=1\r\nrow=0:0-1", False),
    (b"GS1 v1\nn=4\noffset=0\r\n", False),
    (b"GS1 v1\nn=4\x0c\noffset=0\n0-1\n", False),  # form feed in a header line
    (b"GS2 v1\nn=4\noffset=0,0\x1e\nrows=1\nrow=0:0-1\n", False),
    (b"\xef\xbb\xbfGS1 v1\nn=4\noffset=0\n0-1\n", False),  # UTF-8 BOM
    (b"GS1 v1\nn=4\noffset=0\n0-\xff\n", False),  # not UTF-8
    (b"GS1 v1\nn=\xff4\noffset=0\n0-1\n", False),
    ("GS1 v1\nn=4\noffset=0\n0-٣\n".encode(), False),  # an Arabic-Indic digit
    ("GS1 v1\nn=٤\noffset=0\n0-1\n".encode(), False),
    (b"GS1 v1\nn=4\noffset=0\n-0-007\n", True),  # leading zeros, -0
    (b"GS2 v1\nn=4\noffset=-3,0\nrows=1\nrow=-00:-03--0\n", True),
    (b"GS1 v1\nn=4\noffset=-999999999999999999\n"
     b"-999999999999999999--999999999999999990\n999999999999999990-999999999999999999\n",
     True),  # 18 digits
    (b"GS1 v1\nn=4\noffset=1000000000000000000\n1000000000000000000-1000000000000000001\n",
     False),  # 19 digits
    (f"GS1 v1\nn=4\noffset={2 ** 62 - 1}\n{2 ** 62 - 1}-{2 ** 62 - 1}\n".encode(), False),
    (f"GS1 v1\nn=4\noffset={1 - 2 ** 62}\n{1 - 2 ** 62}-{1 - 2 ** 62}\n".encode(), False),
    (f"GS1 v1\nn=4\noffset=0\n0-{2 ** 62}\n".encode(), False),
    (f"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow={2 ** 64}:0-1\n".encode(), False),  # beyond int64
    (b"GS2 v1\nn=4\noffset=0,0\nrows=0\n", True),  # empty body
    (b"GS1 v1\nn=4\noffset=0\n", True),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=0", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=x\nrow=0:0-1\n", True),  # header fault, body fine
    (b"GS1 v1\nn=4\noffset=0\n0-1\n\n", False),
    (b"", False),
    # separators and signs
    (b"GS1 v1\nn=4\noffset=-3\n-3--1\n", True),
    (b"GS1 v1\nn=4\noffset=0\n0---1\n", False),  # two signs
    (b"GS1 v1\nn=4\noffset=0\n--1-0\n", False),
    (b"GS1 v1\nn=4\noffset=0\n0-1-2\n", False),  # three numbers on a line
    (b"GS1 v1\nn=4\noffset=0\n0:1\n", False),
    (b"GS1 v1\nn=4\noffset=0\n0-1\n2\n", False),
    (b"GS1 v1\nn=4\noffset=0\n0-1\n\n2-3\n", False),  # an empty line inside
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow:0:0-1\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrw=0:0-1\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0-0-1\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0::0-1\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0--1\n", False),  # descending: scanned
    (b"GS2 v1\nn=4\noffset=-1,0\nrows=1\nrow=0:-1--0\n", True),
    (b"GS2 v1\nn=4\noffset=-1,-1\nrows=1\nrow=--1:0-1\n", False),
    (b"GS2 v1\nn=4\noffset=-1,-1\nrows=1\nrow=-1:-1--1\n", True),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\n-row=0:0-1\n", False),  # '-' before row
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:+0-1\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow= 0:0-1\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0\n", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0-1", False),  # no final newline
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0-1\n\n", False),  # two
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0-1\nrow=", False),
    (b"GS2 v1\nn=4\noffset=0,0\nrows=1\nrow=0:0-1row=0:2-3\n", False),
])
def test_bytes_parse_edge_files(tmp_path, monkeypatch, raw, fast):
    p = tmp_path / "edge.gs"
    p.write_bytes(raw)
    assert _check_against_text_path(p, monkeypatch) == fast


def test_separator_edits_match_text_path(tmp_path, monkeypatch):
    """Seeded edits that replace, drop or double one separator or sign of
    a canonical file read alike through the bytes parse and the text path."""
    rng = np.random.default_rng(20261019)
    tokens = (b"", b"-", b"--", b"\n", b"\n\n", b":", b"row=", b"-row=", b"\nrow=", b"=")
    taken = refused = 0
    for case in range(80):
        xs = int(rng.integers(-50, 50)) + rng.integers(0, 30, size=int(rng.integers(1, 12)))
        ys = int(rng.integers(-5, 5)) + rng.integers(0, 4, size=xs.size)
        S = (GridSet1.from_indices(Scale(8), xs) if case % 2 else
             GridSet2.from_indices(Scale(8), np.stack([xs, ys], axis=1)))
        write_gridset(S, tmp_path / "canon.gs")
        raw = (tmp_path / "canon.gs").read_bytes()
        body = raw.index(b"\n", raw.index(b"\noffset=") + 1) + 1
        if isinstance(S, GridSet2):
            body = raw.index(b"\n", body) + 1  # past rows=
        spots = [m for m in range(body, len(raw)) if raw[m:m + 1] in b"-:\n"
                 or raw.startswith(b"row=", m)]
        at = spots[int(rng.integers(0, len(spots)))]
        cut = 4 if raw.startswith(b"row=", at) else 1
        edited = raw[:at] + tokens[int(rng.integers(0, len(tokens)))] + raw[at + cut:]
        p = tmp_path / f"e{case}.gs"
        p.write_bytes(edited)
        fast = _check_against_text_path(p, monkeypatch)
        taken += fast
        refused += not fast
    assert taken > 5 and refused > 40


def test_gs2_read_seeds_runs_without_nonzero(tmp_path, monkeypatch):
    """A GS2 read hands its runs to the set; the cells, the runs and a
    projection then never read a 2D occupancy box through np.nonzero."""
    from deltagrid import adversarial_count, cartesian_product, project_set
    C = gen_cantor(Scale(9), 3, (0, 2), 5)
    E = cartesian_product(C, C)
    write_gridset(E, tmp_path / "sq.gs2")
    want_runs, want_cells = E.runs.tolist(), E.indices.tolist()
    nonzero = np.nonzero

    def flat_only(a):
        assert np.ndim(a) < 2, "np.nonzero over a 2D box"
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", flat_only)
    F = read_gridset(tmp_path / "sq.gs2")
    assert "_runs" in F.__dict__ and F.runs.tolist() == want_runs
    assert F.indices.tolist() == want_cells and F == E
    assert project_set(F, 0.7).count == project_set(E, 0.7).count
    assert adversarial_count(F, 0.7, 0.66) == adversarial_count(E, 0.7, 0.66)


def test_unicode_digits_read_as_today(tmp_path):
    # str \d matches every Unicode decimal digit, so the text path takes them
    p = tmp_path / "u.gs1"
    p.write_bytes("GS1 v1\nn=4\noffset=0\n0-٣\n".encode())
    assert read_gridset(p).indices.tolist() == [0, 1, 2, 3]


def test_canonical_files_take_the_bytes_parse(tmp_path, monkeypatch):
    """Files write_gridset writes never reach the line-by-line text scan."""
    from deltagrid import cartesian_product

    def no_scan(*args):
        raise AssertionError("canonical file sent to the text scan")

    C = gen_cantor(Scale(10), 3, (0, 2), 6)
    A = gen_random_frostman(Scale(10), 0.7, seed=5)
    B = gen_random_frostman(Scale(10), 0.7, seed=6)
    sets = [cartesian_product(C, C), cartesian_product(A, B),
            gen_random_frostman(Scale(12), 0.5, seed=7)]
    for i, S in enumerate(sets):
        write_gridset(S, tmp_path / f"s{i}.gs")
    monkeypatch.setattr(gridio, "_scan_body", no_scan)
    for i, S in enumerate(sets):
        assert read_gridset(tmp_path / f"s{i}.gs") == S


def _write_oracle(S, path):
    """The writer as it was: every line in one list, GS2 rows each split
    into runs by `grid._runs` on the row's trimmed slice."""
    from deltagrid.grid import _box, _runs
    if isinstance(S, GridSet1):
        lines = ["GS1 v1", f"n={S.scale.n}", f"offset={S.offset}"]
        lines += [f"{a}-{b}" for a, b in zip(*S.runs.tolist())]
    else:
        ox, oy = S.offset
        lines = ["GS2 v1", f"n={S.scale.n}", f"offset={ox},{oy}", f"rows={S.bits.shape[0]}"]
        for jr, row in enumerate(S.bits):
            box = _box(row)
            if box:
                starts, ends = (_runs(row[box]) + (ox + box[0].start)).tolist()
                lines += [f"row={oy + jr}:{a}-{b}" for a, b in zip(starts, ends)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def test_writer_matches_line_list_oracle(tmp_path):
    """GS1 and GS2 files are byte for byte the old writer's: sparse and
    dense sets, empty interior rows, boxes one row or one column wide, row
    lengths w + 1 that do not divide the scan block, rows of at least
    2**16 cells, offsets up to +-2**61, and the empty sets."""
    rng = np.random.default_rng(83)
    shapes = [(1, 1), (1, 500), (500, 1), (3, 65535), (2, 65536), (2, 70000), (9, 1000),
              (200, 300)] + [tuple(rng.integers(1, 50, size=2)) for _ in range(12)]
    sets = [GridSet1.empty(Scale(4)), GridSet2.empty(Scale(4))]
    for h, w in shapes:
        for density in (0.01, 0.5, 0.99):
            bits = rng.random((h, w)) < density
            if h > 2:
                bits[rng.integers(1, h - 1, size=max(1, h // 3))] = False
            offset = tuple(int(v) for v in rng.integers(-2**61, 2**61, size=2))
            E = GridSet2.from_bits(Scale(30), offset, bits)
            sets += [E, GridSet1.from_bits(Scale(30), offset[0], bits[0])]
            if not E.is_empty:
                sets.append(GridSet2.from_runs(Scale(30), E.runs.copy()))
    for S in sets:
        write_gridset(S, tmp_path / "new")
        _write_oracle(S, tmp_path / "old")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def test_box_scans_trace_little_memory(tmp_path):
    """Writing a fresh 131,044-cell square streams its lines a block at a
    time, and its `runs` are scanned a block at a time: neither holds a
    whole-file list or a padded copy of the 16 MiB box."""
    import tracemalloc
    from deltagrid import cartesian_product

    C = gen_cantor(Scale(12), 3, (0, 2), 7)
    E = cartesian_product(C, C)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_gridset(E, tmp_path / "sq.gs2")
        written = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        runs = E.runs
        scanned = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert E.count == 131044 and "_runs" in E.__dict__
    assert written < 1 << 20
    assert scanned < 3 * runs.nbytes
