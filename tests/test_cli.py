import numpy as np
import pytest

from fexray.bench import BallSpec, CylinderSpec, projection_oracle
from fexray.cli import main
from fexray.io_text import read_float_grid
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
    lines = [
        f"mesh = {mesh}",
        f"field = {field}",
        "face = +z",
        "rays_per_cm2 = 25",
        "step = 0.05",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
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


class TestInfo:
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


class TestErrorMapConfig:
    def test_render_config_error_output(self, tmp_path, ball_files):
        mesh, field = ball_files
        out_err = tmp_path / "ball_err.fgrid"
        cfg = write_config(
            tmp_path, mesh, field,
            out_error=out_err, oracle="ball",
        )
        assert main(["render", "--config", str(cfg)]) == 0
        err = read_float_grid(out_err.read_bytes())
        assert (err.values >= 0).all()
        # the coarse 8-element ball projects visibly thinner than the sphere
        assert err.values.max() > 0.05

    def test_error_output_requires_oracle(self, tmp_path, ball_files, capsys):
        mesh, field = ball_files
        cfg = write_config(tmp_path, mesh, field, out_error=tmp_path / "e.fgrid")
        assert main(["render", "--config", str(cfg)]) == 2
        assert "oracle" in capsys.readouterr().err

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
        "oracle, option, value",
        [("ball", "density", 1.5), ("cylinder", "height", 0.12)],
    )
    def test_render_and_error_map_write_equal_grids(self, tmp_path, capsys, oracle, option, value):
        # both commands take the oracle from bench.projection_oracle, with
        # the same radius and density or height
        mesh, field = tmp_path / "m.mesh", tmp_path / "m.field"
        gen = ["--out-mesh", str(mesh), "--out-field", str(field), "--target-elements"]
        if oracle == "ball":
            assert main(["generate-ball", *gen, "8"]) == 0
        else:
            assert main(["generate-cylinder", *gen, "100"]) == 0
        density, rendered, mapped = (tmp_path / f"{n}.fgrid" for n in ("d", "e1", "e2"))
        cfg = write_config(
            tmp_path, mesh, field, out_density=density, out_error=rendered,
            oracle=oracle, oracle_radius=0.9, **{f"oracle_{option}": value},
        )
        assert main(["render", "--config", str(cfg)]) == 0
        capsys.readouterr()
        rc = main(
            ["error-map", "--grid", str(density), "--oracle", oracle, "--radius", "0.9",
             f"--{option}", str(value), "--out-grid", str(mapped)]
        )
        assert rc == 0
        assert rendered.read_bytes() == mapped.read_bytes()
        # the reported impact parameter is the oracle's, at the reported pixel
        grid = read_float_grid(density.read_bytes())
        spec_type = BallSpec if oracle == "ball" else CylinderSpec
        b, _ = projection_oracle(
            spec_type(radius=0.9, **{option: value}), grid.nu, grid.nv, grid.pitch
        )
        err = read_float_grid(mapped.read_bytes()).values
        jmax, imax = np.unravel_index(int(np.argmax(err)), err.shape)
        out = capsys.readouterr().out
        assert f"at pixel ({imax}, {jmax}), impact parameter {b[jmax, imax]:.6g} cm" in out
        assert err.max() > 0.0
