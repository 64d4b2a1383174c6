import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from fexray.bench import (
    BallSpec,
    CylinderSpec,
    generate_ball,
    generate_cylinder,
    projection_oracle,
)
from fexray.cli import main
from fexray.io_text import (
    FloatGrid,
    read_float_grid,
    write_field,
    write_float_grid,
    write_graymap,
    write_mesh,
)
from fexray.mesh import NodalField
from tests.conftest import folded_quadratic_nodes


@pytest.fixture()
def ball_files(tmp_path):
    mesh = tmp_path / "ball.mesh"
    field = tmp_path / "ball.field"
    rc = main(
        [
            "generate-ball",
            "--out-mesh", str(mesh),
            "--out-field", str(field),
            "--target-elements", "8",
        ]
    )
    assert rc == 0
    return mesh, field


def write_config(tmp_path, mesh, field, **extra):
    keys = {"mesh": mesh, "field": field, "face": "+z", "rays_per_cm2": 25, "step": 0.05}
    lines = [f"{k} = {v}" for k, v in {**keys, **extra}.items()]
    cfg = tmp_path / "render.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestGenerate:
    def test_ball_files_valid(self, ball_files, capsys):
        mesh, field = ball_files
        assert mesh.is_file() and field.is_file()

    def test_cylinder(self, tmp_path, capsys):
        rc = main(
            [
                "generate-cylinder",
                "--out-mesh", str(tmp_path / "c.mesh"),
                "--out-field", str(tmp_path / "c.field"),
                "--target-elements", "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "elements" in out

    @pytest.mark.parametrize(
        "shape, spec, generate",
        [("ball", BallSpec, generate_ball), ("cylinder", CylinderSpec, generate_cylinder)],
    )
    def test_defaults_are_the_spec_defaults(self, tmp_path, capsys, shape, spec, generate):
        mesh, field = tmp_path / "m.mesh", tmp_path / "m.field"
        assert main([f"generate-{shape}", "--out-mesh", str(mesh), "--out-field", str(field)]) == 0
        want_mesh, want_field = generate(spec())
        assert mesh.read_text() == write_mesh(want_mesh)
        assert field.read_text() == write_field(want_field)
        assert capsys.readouterr().out == (
            f"{shape} mesh: {want_mesh.n_nodes} nodes, {want_mesh.n_elements} elements\n"
        )

    @pytest.mark.parametrize(
        "command, specs",
        [
            ("generate-ball", {"ball": BallSpec}),
            ("generate-cylinder", {"cylinder": CylinderSpec}),
            ("error-map", {"ball": BallSpec, "cylinder": CylinderSpec}),
        ],
        ids=["generate-ball", "generate-cylinder", "error-map"],
    )
    def test_help_shows_spec_defaults(self, capsys, command, specs):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        names = {f.name for spec in specs.values() for f in fields(spec)}
        if command == "error-map":
            names.discard("target_elements")  # the oracle has no mesh
        for name in names:
            defaults = ", ".join(
                f"{getattr(spec(), name)} ({shape})"
                for shape, spec in specs.items()
                if name in {f.name for f in fields(spec)}
            )
            option = f"--{name.replace('_', '-')} {name.upper()}"
            assert f"{option} default {defaults}" in text
        assert ("--target-elements" in text) == (command != "error-map")


class TestOverflow:
    def test_generate_ball_rejects_overflowing_radius(self, tmp_path, capsys):
        mesh, field = tmp_path / "big.mesh", tmp_path / "big.field"
        argv = ["generate-ball", "--out-mesh", str(mesh), "--out-field", str(field)]
        assert main([*argv, "--radius", "1e300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fexray: element ") and err.endswith(": corner volume overflows\n")
        assert not mesh.exists() and not field.exists()

    def test_info_rejects_overflowing_mesh_file(self, tmp_path, ball_files, capsys):
        mesh, _ = ball_files
        lines = mesh.read_text().splitlines()
        n_nodes = int(lines[0].split()[0])
        for i in range(1, n_nodes + 1):
            row = lines[i].split()
            lines[i] = " ".join([row[0], *(f"{1e300 * float(x):.17g}" for x in row[1:])])
        big = tmp_path / "big.mesh"
        big.write_text("\n".join(lines) + "\n")
        assert main(["info", "--mesh", str(big)]) == 2
        assert "overflows" in capsys.readouterr().err


class TestInfo:
    def test_field_count_mismatch(self, tmp_path, ball_files, capsys):
        mesh, _ = ball_files
        short = tmp_path / "short.field"
        short.write_text(write_field(NodalField(np.ones(3))))
        n_nodes = int(mesh.read_text().split()[0])
        assert main(["info", "--mesh", str(mesh), "--field", str(short)]) == 2
        assert capsys.readouterr().err == f"fexray: field has 3 values for {n_nodes} mesh nodes\n"

    def test_counts_match_header(self, ball_files, capsys):
        mesh, field = ball_files
        rc = main(["info", "--mesh", str(mesh), "--field", str(field)])
        assert rc == 0
        out = capsys.readouterr().out
        header = mesh.read_text().splitlines()[0].split()
        assert f"nodes = {header[0]}" in out
        assert f"elements = {header[1]}" in out

    def test_missing_mesh(self, tmp_path, capsys):
        rc = main(["info", "--mesh", str(tmp_path / "nope.mesh")])
        assert rc == 2
        assert "nope.mesh" in capsys.readouterr().err

    def test_header_count_beyond_lines(self, tmp_path, ball_files, capsys):
        # a header count that no line backs is a validation error, not an
        # allocation of the count
        mesh, _ = ball_files
        huge_mesh, huge_field = tmp_path / "huge.mesh", tmp_path / "huge.field"
        huge_mesh.write_text("100000000000 1 4\n0 0 0 0\n")
        huge_field.write_text("1000000000000\n0 1.0\n")
        for argv, message in (
            (["--mesh", str(huge_mesh)], "unexpected end of file: expected node line 1"),
            (["--mesh", str(mesh), "--field", str(huge_field)],
             "unexpected end of file: expected value line 1"),
        ):
            capsys.readouterr()
            assert main(["info", *argv]) == 2
            assert capsys.readouterr().err == f"fexray: {message}\n"


class TestRender:
    def test_end_to_end_pipeline(self, tmp_path, ball_files, capsys):
        mesh, field = ball_files
        out_grid = tmp_path / "ball.fgrid"
        out_pgm = tmp_path / "ball.pgm"
        out_stats = tmp_path / "stats.txt"
        cfg = write_config(
            tmp_path, mesh, field,
            out_density=out_grid, out_pgm=out_pgm, out_stats=out_stats,
        )
        rc = main(["render", "--config", str(cfg)])
        assert rc == 0
        grid = read_float_grid(out_grid.read_bytes())
        assert grid.values.max() > 1.0  # ball interior projects ~2 g/cm^2
        assert out_pgm.read_bytes().startswith(b"P5\n")
        stats = dict(
            line.split(" = ") for line in out_stats.read_text().splitlines()
        )
        assert int(stats["rays"]) > 0
        assert int(stats["pairs_tested"]) >= int(stats["pairs_inside"]) > 0

        rc = main(
            ["error-map", "--grid", str(out_grid), "--oracle", "ball",
             "--out-grid", str(tmp_path / "err.fgrid")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "max error" in out
        assert (tmp_path / "err.fgrid").is_file()

    def test_missing_mesh_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "absent.mesh", tmp_path / "absent.field")
        rc = main(["render", "--config", str(cfg)])
        assert rc == 2
        assert "absent.mesh" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mesh = a\nfield = b\nface = +z\nrays_per_cm2 = 25\nstep = 0\n")
        rc = main(["render", "--config", str(cfg)])
        assert rc == 2
        assert "step" in capsys.readouterr().err

    def test_step_past_the_model_rejected(self, tmp_path, ball_files, capsys):
        # no depth grid point (j + 1/2) * 5 lies inside the 2 cm ball
        mesh, field = ball_files
        out = tmp_path / "d.fgrid"
        cfg = write_config(tmp_path, mesh, field, step=5, out_density=out)
        assert main(["render", "--config", str(cfg)]) == 2
        assert "step" in capsys.readouterr().err
        assert not out.exists()

    def test_field_mesh_mismatch(self, tmp_path, ball_files, capsys):
        mesh, _ = ball_files
        bad_field = tmp_path / "bad.field"
        bad_field.write_text("2\n0 1.0\n1 1.0\n")
        cfg = write_config(tmp_path, mesh, bad_field)
        rc = main(["render", "--config", str(cfg)])
        assert rc == 2

    def test_folded_element_rejected(self, tmp_path, capsys):
        nodes = folded_quadratic_nodes()
        mesh = tmp_path / "folded.mesh"
        mesh.write_text(
            "10 1 10\n"
            + "".join(f"{i} {x:.17g} {y:.17g} {z:.17g}\n" for i, (x, y, z) in enumerate(nodes))
            + "0 " + " ".join(str(i) for i in range(10)) + "\n"
        )
        field = tmp_path / "folded.field"
        field.write_text("10\n" + "".join(f"{i} 1.0\n" for i in range(10)))
        cfg = write_config(tmp_path, mesh, field)
        assert main(["render", "--config", str(cfg)]) == 2
        assert "folded" in capsys.readouterr().err

    def test_brute_force_matches(self, tmp_path, ball_files):
        mesh, field = ball_files
        g1 = tmp_path / "a.fgrid"
        g2 = tmp_path / "b.fgrid"
        cfg1 = write_config(tmp_path, mesh, field, out_density=g1)
        assert main(["render", "--config", str(cfg1)]) == 0
        cfg2 = tmp_path / "render2.cfg"
        cfg2.write_text(cfg1.read_text().replace(str(g1), str(g2)))
        assert main(["render", "--config", str(cfg2), "--brute-force"]) == 0
        assert g1.read_bytes() == g2.read_bytes()

    @pytest.mark.parametrize("key, value", [("attenuation", "identity"), ("out_error", "e.fgrid")])
    def test_removed_key_rejected(self, tmp_path, ball_files, capsys, key, value):
        # render writes projected density only; an attenuation or error-grid
        # key is an unknown key, not a silently ignored one
        mesh, field = ball_files
        outputs = [tmp_path / n for n in ("d.fgrid", "d.pgm", "e.fgrid")]
        cfg = write_config(
            tmp_path, mesh, field, out_density=outputs[0], out_pgm=outputs[1], **{key: value}
        )
        assert main(["render", "--config", str(cfg)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not any(p.exists() for p in outputs)

    @pytest.mark.parametrize("key", ["step", "geom_tol", "eps_tol", "window_max"])
    def test_non_finite_number_rejected(self, tmp_path, ball_files, capsys, key):
        mesh, field = ball_files
        cfg = write_config(tmp_path, mesh, field, out_pgm=tmp_path / "d.pgm", **{key: "inf"})
        assert main(["render", "--config", str(cfg)]) == 2
        assert f"{key}: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "d.pgm").exists()

    @pytest.mark.parametrize(
        "grid",
        [{"pitch": 0.5}, {"nu": 4, "nv": 4}, {"pitch": 0.5, "nu": 4, "nv": 4}],
        ids=["pitch", "nu-nv", "pitch-nu-nv"],
    )
    def test_rays_per_cm2_with_explicit_grid_rejected(self, tmp_path, ball_files, capsys, grid):
        # the pitch follows from rays_per_cm2; a second pitch or pixel count
        # would be dropped, so the config is rejected and nothing written
        mesh, field = ball_files
        out = tmp_path / "d.fgrid"
        cfg = write_config(tmp_path, mesh, field, rays_per_cm2=100, out_density=out, **grid)
        assert main(["render", "--config", str(cfg)]) == 2
        assert "rays_per_cm2: cannot be combined with pitch/nu/nv" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["render"]) == 1
        assert main(["no-such-command"]) == 1


class TestGraymapDeterminism:
    def test_pgm_byte_identical_across_worker_counts(self, tmp_path, ball_files):
        mesh, field = ball_files
        pgms = []
        for w, name in ((1, "a.pgm"), (3, "b.pgm")):
            cfg = write_config(
                tmp_path, mesh, field,
                out_pgm=tmp_path / name, workers=w, window_max=2.0,
            )
            assert main(["render", "--config", str(cfg)]) == 0
            pgms.append((tmp_path / name).read_bytes())
        assert pgms[0] == pgms[1]

    def test_window_min_without_window_max(self, tmp_path, ball_files):
        # the window is [window_min, max pixel]
        mesh, field = ball_files
        grid, pgm = tmp_path / "d.fgrid", tmp_path / "d.pgm"
        for wmin in (0.0, 1.0):
            cfg = write_config(
                tmp_path, mesh, field, out_density=grid, out_pgm=pgm, window_min=wmin
            )
            assert main(["render", "--config", str(cfg)]) == 0
            density = read_float_grid(grid.read_bytes()).values
            assert pgm.read_bytes() == write_graymap(density, 8, (wmin, density.max()))
        assert (density < 1.0).any() and (density > 0.0).any()

    def test_window_min_not_below_max_pixel(self, tmp_path, ball_files, capsys):
        mesh, field = ball_files
        cfg = write_config(tmp_path, mesh, field, out_pgm=tmp_path / "d.pgm", window_min=5.0)
        assert main(["render", "--config", str(cfg)]) == 2
        assert "window_min 5 is not below the max pixel" in capsys.readouterr().err
        assert not (tmp_path / "d.pgm").exists()


class TestErrorMapConfig:
    def test_render_config_error_output(self, tmp_path, ball_files):
        # render writes the density grid, error-map the error grid
        mesh, field = ball_files
        density, out_err = tmp_path / "ball.fgrid", tmp_path / "ball_err.fgrid"
        cfg = write_config(tmp_path, mesh, field, out_density=density)
        assert main(["render", "--config", str(cfg)]) == 0
        rc = main(
            ["error-map", "--grid", str(density), "--oracle", "ball", "--out-grid", str(out_err)]
        )
        assert rc == 0
        err = read_float_grid(out_err.read_bytes())
        assert (err.values >= 0).all()
        # the coarse 8-element ball projects visibly thinner than the sphere
        assert err.values.max() > 0.05

    def test_cylinder_oracle_cli(self, tmp_path, capsys):
        rc = main(
            [
                "generate-cylinder",
                "--out-mesh", str(tmp_path / "c.mesh"),
                "--out-field", str(tmp_path / "c.field"),
                "--target-elements", "150",
            ]
        )
        assert rc == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"mesh = {tmp_path/'c.mesh'}\nfield = {tmp_path/'c.field'}\n"
            f"face = +z\nrays_per_cm2 = 400\nstep = 0.1\n"
            f"out_density = {tmp_path/'c.fgrid'}\n"
        )
        assert main(["render", "--config", str(cfg)]) == 0
        capsys.readouterr()
        rc = main(
            ["error-map", "--grid", str(tmp_path / "c.fgrid"), "--oracle", "cylinder"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "max error" in out

    @pytest.mark.parametrize(
        "nu, nv, pitch, field",
        [(0, 0, 1.0, "nu and nv"), (2, 2, float("nan"), "pitch"), (2, 2, -0.5, "pitch")],
        ids=["empty", "nan-pitch", "negative-pitch"],
    )
    def test_empty_grid_or_bad_pitch_rejected(self, tmp_path, capsys, nu, nv, pitch, field):
        grid = tmp_path / "bad.fgrid"
        grid.write_bytes(b"FGRD" + struct.pack("<IIId", 1, nu, nv, pitch) + bytes(8 * nu * nv))
        assert main(["error-map", "--grid", str(grid), "--oracle", "ball"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fexray: float grid {field} must")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, bad):
        values = np.ones((3, 3))
        values[1, 1] = bad
        grid = tmp_path / "bad.fgrid"
        grid.write_bytes(b"FGRD" + struct.pack("<IIId", 1, 3, 3, 0.5) + values.tobytes())
        outputs = [tmp_path / "e.fgrid", tmp_path / "e.pgm"]
        argv = ["error-map", "--grid", str(grid), "--oracle", "ball"]
        assert main([*argv, "--out-grid", str(outputs[0]), "--out-pgm", str(outputs[1])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fexray: float grid has 1 of 9 values non-finite\n"
        assert not any(p.exists() for p in outputs)

    def test_interior_error_on_cylinder_recipe(self, tmp_path, capsys):
        # the README cylinder recipe: the max error is a rim pixel, the
        # interior error (b <= radius - 2 pitches) stays within the bound
        mesh, field, grid = (tmp_path / n for n in ("c.mesh", "c.field", "c.fgrid"))
        assert main(["generate-cylinder", "--out-mesh", str(mesh), "--out-field", str(field)]) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"mesh = {mesh}\nfield = {field}\nface = +z\nrays_per_cm2 = 10000\n"
            f"step = 0.1\nout_density = {grid}\n"
        )
        assert main(["render", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["error-map", "--grid", str(grid), "--oracle", "cylinder"]) == 0
        out = capsys.readouterr().out
        pattern = r"^{}max error (\S+) g/cm\^2 at pixel \(\d+, \d+\), impact parameter (\S+) cm"
        err, b = map(float, re.search(pattern.format(""), out, re.M).groups())
        assert err > 0.05 and b > 0.99
        err, b = map(float, re.search(pattern.format("interior "), out, re.M).groups())
        assert err < 1.5e-4 and b <= 1.0 - 2 * 0.01
        assert "(b <= radius - 2 pitches)" in out

    def test_json_stats_equal_text_stats(self, tmp_path, capsys):
        # the README cylinder recipe with a .json out_stats path: the file
        # holds the values of the text form the render prints
        mesh, field, stats = (tmp_path / n for n in ("c.mesh", "c.field", "stats.json"))
        assert main(["generate-cylinder", "--out-mesh", str(mesh), "--out-field", str(field)]) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"mesh = {mesh}\nfield = {field}\nface = +z\nrays_per_cm2 = 10000\n"
            f"step = 0.1\nout_stats = {stats}\n"
        )
        capsys.readouterr()
        assert main(["render", "--config", str(cfg)]) == 0
        text = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line
        )
        record = json.loads(stats.read_text())
        assert list(record) == list(text)
        assert "samples_multi_claimed" in record
        for key, value in record.items():
            if key == "wall_time_s":
                assert isinstance(value, float) and f"{value:.3f}" == text[key]
            else:
                assert isinstance(value, int) and value == int(text[key])
        assert record["pairs_tested"] >= record["pairs_inside"] > 0

    @pytest.mark.parametrize(
        "oracle, option, value",
        [("ball", "density", 1.5), ("cylinder", "height", 0.12)],
    )
    def test_render_and_error_map_write_equal_grids(self, tmp_path, capsys, oracle, option, value):
        # the error grid is |density - projection_oracle| for the spec with
        # the same radius and density or height
        mesh, field = tmp_path / "m.mesh", tmp_path / "m.field"
        gen = ["--out-mesh", str(mesh), "--out-field", str(field), "--target-elements"]
        if oracle == "ball":
            assert main(["generate-ball", *gen, "8"]) == 0
        else:
            assert main(["generate-cylinder", *gen, "100"]) == 0
        density, mapped = tmp_path / "d.fgrid", tmp_path / "e.fgrid"
        cfg = write_config(tmp_path, mesh, field, out_density=density)
        assert main(["render", "--config", str(cfg)]) == 0
        capsys.readouterr()
        rc = main(
            ["error-map", "--grid", str(density), "--oracle", oracle, "--radius", "0.9",
             f"--{option}", str(value), "--out-grid", str(mapped)]
        )
        assert rc == 0
        grid = read_float_grid(density.read_bytes())
        spec_type = BallSpec if oracle == "ball" else CylinderSpec
        b, expected = projection_oracle(
            spec_type(radius=0.9, **{option: value}), grid.nu, grid.nv, grid.pitch
        )
        err = np.abs(grid.values - expected)
        assert mapped.read_bytes() == write_float_grid(
            FloatGrid(grid.nu, grid.nv, grid.pitch, err)
        )
        # the reported impact parameter is the oracle's, at the reported pixel
        jmax, imax = np.unravel_index(int(np.argmax(err)), err.shape)
        out = capsys.readouterr().out
        assert f"at pixel ({imax}, {jmax}), impact parameter {b[jmax, imax]:.6g} cm" in out
        assert err.max() > 0.0

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("error-map --oracle ball", "radius", "inf"),
            ("error-map --oracle cylinder", "height", "inf"),
            ("error-map --oracle ball", "density", "nan"),
            ("generate-ball", "density", "-1"),
        ],
    )
    def test_non_finite_or_negative_spec_rejected(self, tmp_path, capsys, command, option, value):
        # the grid and the outputs are valid paths, so only the value can fail
        grid = tmp_path / "d.fgrid"
        grid.write_bytes(write_float_grid(FloatGrid(3, 3, 0.5, np.ones((3, 3)))))
        outputs = [tmp_path / "b.mesh", tmp_path / "b.field"]
        paths = (
            ["--grid", str(grid)] if command.startswith("error-map")
            else ["--out-mesh", str(outputs[0]), "--out-field", str(outputs[1])]
        )
        assert main([*command.split(), *paths, f"--{option}", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} must be finite and positive" in captured.err
        assert not any(p.exists() for p in outputs)

    @pytest.mark.parametrize(
        "oracle, option", [("cylinder", "density"), ("ball", "height")]
    )
    def test_option_of_other_oracle_is_usage_error(self, tmp_path, capsys, oracle, option):
        # the grid does not exist: a usage error (1) must come before the
        # file check, which would exit 2
        rc = main(
            ["error-map", "--grid", str(tmp_path / "none.fgrid"), "--oracle", oracle,
             f"--{option}", "2.0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--{option} does not apply to --oracle {oracle}" in err
        assert "usage: fexray error-map" in err
