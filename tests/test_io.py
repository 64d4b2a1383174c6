import math
import random
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fexray import io_text
from fexray.io_text import (
    FloatGrid,
    ParseError,
    RenderConfig,
    ValidationError,
    parse_config,
    parse_field,
    parse_mesh,
    read_float_grid,
    write_field,
    write_float_grid,
    write_graymap,
    write_mesh,
)
from fexray.mesh import MeshError, NodalField
from tests.conftest import golden_scene, single_tet_mesh
from tests.helpers import serialize_config

MINIMAL_CONFIG = """
mesh = ball.mesh
field = ball.field
face = +z
rays_per_cm2 = 4000
"""


class TestMeshRoundTrip:
    def test_round_trip(self, ball_mesh_field):
        mesh, _ = ball_mesh_field
        text = write_mesh(mesh)
        back = parse_mesh(text)
        np.testing.assert_array_equal(mesh.nodes, back.nodes)
        np.testing.assert_array_equal(mesh.elements, back.elements)

    def test_comments_and_blanks_ignored(self):
        mesh = single_tet_mesh()
        lines = write_mesh(mesh).splitlines()
        text = "# header comment\n\n" + "\n\n".join(lines) + "\n# trailing\n"
        back = parse_mesh(text)
        assert back.n_elements == 1

    def test_malformed_node_line(self):
        mesh = single_tet_mesh()
        lines = write_mesh(mesh).splitlines()
        lines[1] = "0 1.0 2.0"  # missing z
        with pytest.raises(ParseError, match="line 2"):
            parse_mesh("\n".join(lines))

    def test_wrong_id_order(self):
        mesh = single_tet_mesh()
        lines = write_mesh(mesh).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(ParseError, match="expected node id"):
            parse_mesh("\n".join(lines))

    def test_truncated_file(self):
        mesh = single_tet_mesh()
        lines = write_mesh(mesh).splitlines()
        with pytest.raises(ParseError, match="unexpected end"):
            parse_mesh("\n".join(lines[:-1]))

    def test_header_count_beyond_lines(self):
        # a count that no line backs is never allocated: the first missing
        # or faulty line is reported, as for a small count
        with pytest.raises(ParseError, match="^unexpected end of file: expected node line 1$"):
            parse_mesh("100000000000 1 4\n0 0 0 0\n")
        with pytest.raises(ParseError, match="^line 3: expected node id 1, got 2$"):
            parse_mesh("100000000000 1 4\n0 0 0 0\n2 0 0 0\n")
        nodes = "".join(f"{i} {i} 0 0\n" for i in range(4))
        with pytest.raises(ParseError, match="^unexpected end of file: expected element line 1$"):
            parse_mesh(f"4 100000000000 4\n{nodes}0 0 1 2 3\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_mesh("1 2\n")
        with pytest.raises(ParseError):
            parse_mesh("4 1 7\n")


class TestFieldRoundTrip:
    def test_round_trip(self, ball_mesh_field):
        _, field = ball_mesh_field
        back = parse_field(write_field(field))
        np.testing.assert_array_equal(field.values, back.values)

    def test_malformed_value(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_field("2\n0 abc\n1 2.0\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_field("1\n0 1.0\n1 2.0\n")

    def test_header_count_beyond_lines(self):
        with pytest.raises(ParseError, match="^unexpected end of file: expected value line 1$"):
            parse_field("1000000000000\n0 1.0\n")
        with pytest.raises(ParseError, match="^line 3: malformed value line$"):
            parse_field("1000000000000\n0 1.0\n1 abc\n")


# a valid two-element mesh and its field; the faults below replace row 1 of
# one table, at line 3 (node, value) or line 8 (element)
MESH_LINES = ["5 2 4", "0 0 0 0", "1 1 0 0", "2 0 1 0", "3 0 0 1", "4 1 1 1", "0 0 1 2 3", "1 1 2 3 4"]
FIELD_LINES = ["5", "0 1.5", "1 2.5", "2 0.5", "3 1.0", "4 2.0"]
ROW1_LINE = {"node": 3, "element": 8, "value": 3}


def _faulty(table, rows):
    """Text and parser of the mesh (node, element) or field (value) file
    whose line k reads rows[k]; a None row ends the file before it."""
    lines = FIELD_LINES if table == "value" else MESH_LINES
    out = []
    for lineno, line in enumerate(lines, start=1):
        line = rows.get(lineno, line)
        if line is None:
            break
        out.append(line)
    return "\n".join(out) + "\n", parse_field if table == "value" else parse_mesh


class TestFirstFaultyLine:
    @pytest.mark.parametrize(
        "table, row1, message",
        [
            ("node", None, "unexpected end of file: expected node line 1"),
            ("node", "1 1 0", "line 3: expected '<id> <x> <y> <z>'"),
            ("node", "1 1 x 0", "line 3: malformed node line"),
            ("node", "7 1 0 0", "line 3: expected node id 1, got 7"),
            ("element", None, "unexpected end of file: expected element line 1"),
            ("element", "1 1 2 3", "line 8: expected '<id>' plus 4 node ids"),
            ("element", "1 1 2 3.0 4", "line 8: malformed element line"),
            ("element", "7 1 2 3 4", "line 8: expected element id 1, got 7"),
            ("element", "1 1 2 3 5", "line 8: node id out of range"),
            ("element", "1 -1 2 3 4", "line 8: node id out of range"),
            ("element", "1 1 2 3 99999999999999999999", "line 8: node id out of range"),
            ("value", None, "unexpected end of file: expected value line 1"),
            ("value", "1 2.5 3", "line 3: expected '<id> <value>'"),
            ("value", "1 abc", "line 3: malformed value line"),
            ("value", "7 2.5", "line 3: expected node id 1, got 7"),
        ],
    )
    def test_each_table_and_fault(self, table, row1, message):
        text, parse = _faulty(table, {})
        parse(text)  # the unchanged file is valid
        text, parse = _faulty(table, {ROW1_LINE[table]: row1})
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)

    @pytest.mark.parametrize(
        "table, rows, message",
        [
            # two faults on one line: token count, tokens, id, node ids
            ("node", {3: "7 1 0"}, "line 3: expected '<id> <x> <y> <z>'"),
            ("node", {3: "7 x 0 0"}, "line 3: malformed node line"),
            ("element", {8: "7 1 2 3 5"}, "line 8: expected element id 1, got 7"),
            # faults on two lines, in one table or in two
            ("node", {3: "1 1 x 0", 8: "1 1 2 3 5"}, "line 3: malformed node line"),
            ("element", {7: "5 0 1 2 3", 8: None}, "line 7: expected element id 0, got 5"),
            ("value", {3: "7 2.5", 4: "2 abc"}, "line 3: expected node id 1, got 7"),
            ("value", {2: "0 1.5 0", 5: None}, "line 2: expected '<id> <value>'"),
        ],
    )
    def test_earlier_fault_wins(self, table, rows, message):
        text, parse = _faulty(table, rows)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)

    @pytest.mark.parametrize(
        "text, parse, message",
        [
            ("3\n0 1.0\n1\n2 2 0.5\n", parse_field, "line 3: expected '<id> <value>'"),
            (
                _faulty("element", {7: "0 0 1 2", 8: "3 1 1 2 3 4"})[0],
                parse_mesh,
                "line 7: expected '<id>' plus 4 node ids",
            ),
        ],
        ids=["value", "element"],
    )
    def test_compensating_token_counts(self, text, parse, message):
        # a line a token short and a later one a token long: joined, their
        # tokens read as sound rows, so counts are checked line by line
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)


def _decorate(text, seed):
    """``text`` with comment and blank lines between its lines, inline
    comments, extra whitespace and LF, CRLF or CR line ends, drawn at
    random from ``seed``."""
    rnd = random.Random(seed)
    out = []
    for line in text.splitlines():
        if rnd.random() < 0.2:
            out.append(rnd.choice(["", "   ", "# comment", "\t# 1 2 3"]))
        line = rnd.choice([" ", "  ", "\t"]).join(line.split())
        if rnd.random() < 0.2:
            line = rnd.choice([" ", "\t"]) + line + rnd.choice(["", " # note", "#", "\t# 4 5"])
        out.append(line)
    return "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in out)


finite = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)


class TestReaderRoundTrip:
    @given(seeds)
    def test_mesh_bits_survive_decoration(self, seed):
        mesh = golden_scene("cylinder100")[0]
        back = parse_mesh(_decorate(write_mesh(mesh), seed))
        assert back.nodes.tobytes() == mesh.nodes.tobytes()
        assert back.elements.tobytes() == mesh.elements.tobytes()

    def test_blocks_join_seamlessly(self, monkeypatch):
        mesh, field = golden_scene("cylinder100")
        for block_tokens in (1, 7, 40):
            monkeypatch.setattr(io_text, "BLOCK_TOKENS", block_tokens)
            back = parse_mesh(write_mesh(mesh))
            assert back.nodes.tobytes() == mesh.nodes.tobytes()
            assert back.elements.tobytes() == mesh.elements.tobytes()
            assert parse_field(write_field(field)).values.tobytes() == field.values.tobytes()

    @given(st.lists(finite, min_size=1, max_size=50), seeds)
    def test_field_bits_survive_decoration(self, values, seed):
        field = NodalField(np.array(values))
        back = parse_field(_decorate(write_field(field), seed))
        assert back.values.tobytes() == field.values.tobytes()


# a 2 000-row table whose row 1234 is replaced by a faulty line (None ends
# the file there); comment, blank and CRLF lines sit between the rows
DEEP_ROWS, DEEP_ROW = 2000, 1234


def _deep_table(table, fault):
    """Text, parser and line number of the faulty row of a 2 000-row value
    table, or of an element table over 4 nodes."""
    if table == "value":
        lines, rows = [f"{DEEP_ROWS}"], [f"{i} {0.5 * i}" for i in range(DEEP_ROWS)]
    else:
        lines = [f"4 {DEEP_ROWS} 4", "0 0 0 0", "1 1 0 0", "2 0 1 0", "3 0 0 1"]
        rows = [f"{i} 0 1 2 3" for i in range(DEEP_ROWS)]
    lineno = None
    for i, row in enumerate(rows):
        if i % 7 == 0:
            lines.append("# rows from here on")
        if i % 11 == 0:
            lines.append("")
        if i == DEEP_ROW:
            if fault is None:
                break
            row, lineno = fault, len(lines) + 1
        lines.append(row + (" # inline" if i % 5 == 0 else ""))
    text = "".join(line + ("\r\n" if k % 3 else "\n") for k, line in enumerate(lines))
    return text, parse_field if table == "value" else parse_mesh, lineno


class TestDeepFault:
    @pytest.mark.parametrize(
        "table, fault, message",
        [
            ("value", "1234 2.5 3", "expected '<id> <value>'"),
            ("value", "1234 2.5e", "malformed value line"),
            ("value", "1243 2.5", "expected node id 1234, got 1243"),
            ("element", "1234 0 1 2 4", "node id out of range"),
            ("value", None, "unexpected end of file: expected value line 1234"),
        ],
        ids=["token count", "malformed token", "row id", "node id", "end of file"],
    )
    # one block per table, and blocks of 3 to 10 rows
    @pytest.mark.parametrize("block_tokens", [io_text.BLOCK_TOKENS, 33])
    def test_fault_deep_in_table(self, table, fault, message, block_tokens, monkeypatch):
        monkeypatch.setattr(io_text, "BLOCK_TOKENS", block_tokens)
        sound = {"value": f"{DEEP_ROW} {0.5 * DEEP_ROW}", "element": f"{DEEP_ROW} 0 1 2 3"}
        text, parse, _ = _deep_table(table, sound[table])
        with pytest.raises(ParseError, match="trailing content"):
            parse(text + "0 0\n")  # the table itself is sound
        text, parse, lineno = _deep_table(table, fault)
        expected = message if lineno is None else f"line {lineno}: {message}"
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            parse(text)


# tokens Python's int and float each accept or reject
EDGE_TOKENS = [
    "1_0", "+3", "\u0663", "nan", "inf", "1e400", "1e0", "1.0", "0x1p3", "99999999999999999999",
    "-99999999999999999999", "+2", "\u0662", "\uff12", "0_2", "1e-400", "-0", "infinity", "1__0",
    "_1", "+1", "\u0660\u0661",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # ParseError, MeshError and non-finite fields
        return type(exc), str(exc)


class TestTokenRules:
    """A token reads as Python's int (ids) or float (values) reads it."""

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_value_token(self, token):
        got = _outcome(parse_field, f"2\n0 1.5\n1 {token}\n")
        try:
            value = float(token)
        except ValueError:
            assert got == (ParseError, "line 3: malformed value line")
            return
        if not math.isfinite(value):
            assert got == (ValueError, "field contains non-finite values")
        else:
            assert got.values[1:].tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_row_id_token(self, token):
        got = _outcome(parse_field, f"2\n0 1.5\n{token} 2.5\n")
        try:
            rid = int(token)
        except ValueError:
            assert got == (ParseError, "line 3: malformed value line")
            return
        if rid != 1:
            assert got == (ParseError, f"line 3: expected node id 1, got {rid}")
        else:
            assert got.values.tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_node_id_token(self, token):
        got = _outcome(parse_mesh, f"4 1 4\n0 0 0 0\n1 1 0 0\n2 0 1 0\n3 0 0 1\n0 0 1 {token} 3\n")
        try:
            node = int(token)
        except ValueError:
            assert got == (ParseError, "line 6: malformed element line")
            return
        if not 0 <= node < 4:
            assert got == (ParseError, "line 6: node id out of range")
        elif node != 2:  # a repeated corner
            assert got[0] is MeshError
        else:
            assert got.elements.tolist() == [[0, 1, 2, 3]]


class TestFloatGrid:
    def test_round_trip_bit_exact(self, rng):
        values = rng.normal(size=(7, 5))
        values[0, 0] = np.pi
        grid = FloatGrid(5, 7, 0.015625, values)
        back = read_float_grid(write_float_grid(grid))
        assert back.nu == 5 and back.nv == 7 and back.pitch == 0.015625
        np.testing.assert_array_equal(back.values, values)
        assert back.values.tobytes() == values.tobytes()

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            read_float_grid(b"NOPE" + b"\x00" * 40)

    def test_truncated_payload(self):
        grid = FloatGrid(2, 2, 1.0, np.zeros((2, 2)))
        data = write_float_grid(grid)
        with pytest.raises(ParseError, match="payload"):
            read_float_grid(data[:-8])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            FloatGrid(3, 2, 1.0, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "nu, nv, pitch, field",
        [(0, 0, 1.0, "nu and nv"), (2, 2, float("nan"), "pitch"), (2, 2, -0.5, "pitch")],
        ids=["empty", "nan-pitch", "negative-pitch"],
    )
    def test_empty_grid_or_bad_pitch_rejected(self, nu, nv, pitch, field):
        data = b"FGRD" + struct.pack("<IIId", 1, nu, nv, pitch) + bytes(8 * nu * nv)
        with pytest.raises(ValidationError, match=f"float grid {field} must"):
            read_float_grid(data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.ones((2, 3))
        values[0, 1] = values[1, 2] = bad
        data = b"FGRD" + struct.pack("<IIId", 1, 3, 2, 0.5) + values.astype("<f8").tobytes()
        with pytest.raises(ValidationError, match="float grid has 2 of 6 values non-finite"):
            read_float_grid(data)
        with pytest.raises(ValidationError, match="non-finite"):
            FloatGrid(3, 2, 0.5, values)


class TestGraymap:
    def test_window_extremes_8bit(self):
        data = write_graymap(np.array([[1.0]]), 8, (0.0, 1.0))
        assert data.endswith(bytes([255]))
        data = write_graymap(np.array([[0.0]]), 8, (0.0, 1.0))
        assert data.endswith(bytes([0]))

    def test_midpoint_rounds_half_to_even(self):
        # 0.5 * 255 = 127.5 -> 128 under round-half-to-even
        data = write_graymap(np.array([[0.5]]), 8, (0.0, 1.0))
        assert data.endswith(bytes([128]))

    def test_clamping(self):
        data = write_graymap(np.array([[-1.0, 2.0]]), 8, (0.0, 1.0))
        assert data.endswith(bytes([0, 255]))

    def test_16bit_big_endian(self):
        data = write_graymap(np.array([[1.0]]), 16, (0.0, 1.0))
        assert data.startswith(b"P5\n1 1\n65535\n")
        assert data.endswith(b"\xff\xff")

    def test_byte_identical_across_runs(self, rng):
        values = rng.random((16, 16))
        a = write_graymap(values, 8)
        b = write_graymap(values.copy(), 8)
        assert a == b

    def test_header_dimensions(self):
        data = write_graymap(np.zeros((3, 7)), 8, (0.0, 1.0))
        assert data.startswith(b"P5\n7 3\n255\n")

    def test_invalid_window(self):
        with pytest.raises(ValidationError):
            write_graymap(np.zeros((2, 2)), 8, (1.0, 1.0))

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 2.0), (0.0, math.nan)])
    def test_non_finite_window(self, window):
        with pytest.raises(ValidationError, match="finite"):
            write_graymap(np.ones((2, 2)), 8, window)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("window", [None, (0.0, 1.0)], ids=["max-window", "fixed-window"])
    def test_non_finite_input_rejected(self, bad, window):
        values = np.ones((2, 2))
        values[1, 0] = bad
        with pytest.raises(ValidationError, match="graymap input must be finite"):
            write_graymap(values, 8, window)


class TestConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL_CONFIG)
        assert cfg.mesh == "ball.mesh"
        assert cfg.step == 0.01
        assert cfg.eps_tol == 1e-10
        assert cfg.geom_tol == 1e-8
        assert cfg.max_leaf_elements == 32

    def test_zero_step_names_key(self):
        with pytest.raises(ValidationError, match="step"):
            parse_config(MINIMAL_CONFIG + "step = 0\n")

    def test_all_violations_listed(self):
        bad = MINIMAL_CONFIG + "step = 0\nworkers = 0\npgm_bits = 7\n"
        with pytest.raises(ValidationError) as exc:
            parse_config(bad)
        msg = str(exc.value)
        assert "step" in msg and "workers" in msg and "pgm_bits" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_config(MINIMAL_CONFIG + "speling = 1\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("attenuation", "identity"),
            ("kappa", "2.251"),
            ("table", "0:0, 1:0.716"),
            ("i_in", "1.0"),
            ("out_error", "e.fgrid"),
            ("oracle", "ball"),
            ("oracle_radius", "1.0"),
            ("oracle_density", "1.0"),
            ("oracle_height", "0.1"),
        ],
    )
    def test_removed_key_is_unknown(self, key, value):
        # render writes projected density only; error grids come from error-map
        with pytest.raises(ParseError, match=f"unknown key '{key}'"):
            parse_config(MINIMAL_CONFIG + f"{key} = {value}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(MINIMAL_CONFIG + "face = -z\n")

    def test_round_trip(self):
        text = MINIMAL_CONFIG + (
            "step = 0.005\nwindow_max = 2.5\nout_density = out.fgrid\nworkers = 2\n"
        )
        cfg = parse_config(text)
        canon = serialize_config(cfg)
        cfg2 = parse_config(canon)
        assert cfg == cfg2
        assert serialize_config(cfg2) == canon

    def test_explicit_grid_mode(self):
        text = "mesh = a\nfield = b\nface = -y\npitch = 0.1\nnu = 32\nnv = 16\n"
        cfg = parse_config(text)
        assert cfg.rays_per_cm2 is None
        assert (cfg.nu, cfg.nv, cfg.pitch) == (32, 16, 0.1)

    @pytest.mark.parametrize(
        "grid",
        ["pitch = 0.5\n", "nu = 4\nnv = 4\n", "pitch = 0.5\nnu = 4\nnv = 4\n"],
        ids=["pitch", "nu-nv", "pitch-nu-nv"],
    )
    def test_rays_per_cm2_excludes_explicit_grid(self, grid):
        # the pitch follows from rays_per_cm2, so a second pitch or pixel
        # count would be dropped
        with pytest.raises(ValidationError, match="rays_per_cm2: cannot be combined"):
            parse_config(MINIMAL_CONFIG + grid)

    def test_missing_detector_spec(self):
        with pytest.raises(ValidationError, match="rays_per_cm2"):
            parse_config("mesh = a\nfield = b\nface = +z\n")

    @given(
        step=st.floats(1e-4, 1.0),
        leaf=st.integers(1, 64),
        window_min=st.floats(0, 10),
    )
    def test_round_trip_property(self, step, leaf, window_min):
        cfg = RenderConfig(
            mesh="m",
            field="f",
            face="+x",
            rays_per_cm2=100.0,
            step=step,
            max_leaf_elements=leaf,
            window_min=window_min,
        )
        assert parse_config(serialize_config(cfg)) == cfg


FLOAT_KEYS = [f.name for f in fields(RenderConfig) if f.type.startswith("float")]


class TestConfigFinite:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_key(self, key, value):
        # every float-typed key, those added later too
        keys = {"mesh": "a", "field": "b", "face": "+z", "rays_per_cm2": "4000", key: value}
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(ValidationError, match=f"{key}: non-finite value"):
            parse_config(text)

    def test_float_keys_found(self):
        assert {"step", "eps_tol", "geom_tol", "window_max", "rays_per_cm2"} <= set(FLOAT_KEYS)


README = Path(__file__).parents[1] / "README.md"


class TestReadmeConfig:
    def test_documented_keys_are_the_accepted_keys(self):
        # the ini block under "Render configuration", commented keys included
        section = README.read_text().split("### Render configuration", 1)[1]
        block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        keys = [line.lstrip("# ").partition("=")[0].strip() for line in block.splitlines()]
        assert sorted(keys) == sorted(f.name for f in fields(RenderConfig))
        parse_config(block)

    def test_heredoc_configs_parse(self):
        configs = re.findall(r"<<EOF\n(.*?)^EOF$", README.read_text(), re.S | re.M)
        assert len(configs) == 2
        for text in configs:
            parse_config(text)


class TestConfigTotality:
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=40,
            ),
            max_size=8,
        )
    )
    def test_parse_is_total(self, lines):
        # every input yields a valid config or a diagnostic, never anything else
        try:
            cfg = parse_config("\n".join(lines))
        except (ParseError, ValidationError):
            return
        assert isinstance(cfg, RenderConfig)
        assert cfg.mesh and cfg.field  # validated configs are complete
