import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from tests.conftest import single_tet_mesh
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


class TestConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL_CONFIG)
        assert cfg.mesh == "ball.mesh"
        assert cfg.step == 0.01
        assert cfg.eps_tol == 1e-10
        assert cfg.geom_tol == 1e-8
        assert cfg.max_leaf_elements == 10
        assert cfg.attenuation == "identity"

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

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(MINIMAL_CONFIG + "face = -z\n")

    def test_round_trip(self):
        text = MINIMAL_CONFIG + (
            "step = 0.005\nattenuation = table\ntable = 0:0, 1:2.251, 2:4.5\n"
            "out_density = out.fgrid\nworkers = 2\n"
        )
        cfg = parse_config(text)
        canon = serialize_config(cfg)
        cfg2 = parse_config(canon)
        assert cfg == cfg2
        assert serialize_config(cfg2) == canon

    def test_table_validation(self):
        with pytest.raises(ValidationError, match="table"):
            parse_config(MINIMAL_CONFIG + "attenuation = table\ntable = 1:0\n")
        with pytest.raises(ValidationError, match="increase"):
            parse_config(
                MINIMAL_CONFIG + "attenuation = table\ntable = 1:0, 0.5:1\n"
            )

    def test_explicit_grid_mode(self):
        text = "mesh = a\nfield = b\nface = -y\npitch = 0.1\nnu = 32\nnv = 16\n"
        cfg = parse_config(text)
        assert cfg.rays_per_cm2 is None
        assert (cfg.nu, cfg.nv, cfg.pitch) == (32, 16, 0.1)

    def test_missing_detector_spec(self):
        with pytest.raises(ValidationError, match="rays_per_cm2"):
            parse_config("mesh = a\nfield = b\nface = +z\n")

    @given(
        step=st.floats(1e-4, 1.0),
        leaf=st.integers(1, 64),
        kappa=st.floats(0, 10),
    )
    def test_round_trip_property(self, step, leaf, kappa):
        cfg = RenderConfig(
            mesh="m",
            field="f",
            face="+x",
            rays_per_cm2=100.0,
            step=step,
            max_leaf_elements=leaf,
            attenuation="linear",
            kappa=kappa,
        )
        assert parse_config(serialize_config(cfg)) == cfg


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
