"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config, missing
or malformed files, inconsistent dimensions), 3 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, io_text, xray
from .mesh import MeshError
from .spatial import model_aabb

USAGE_EXIT = 1
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _input(path: str) -> Path:
    """An input file's path; a missing file is a validation error."""
    p = Path(path)
    if not p.is_file():
        raise io_text.ValidationError(f"file not found: {path}")
    return p


# error-map options that apply to one oracle only, with their defaults
_ORACLE_OPTIONS = {"ball": ("density", 1.0), "cylinder": ("height", 0.1)}


def _apply_oracle_options(args) -> None:
    """Reject the other oracle's option; fill in the chosen oracle's default."""
    for oracle, (option, default) in _ORACLE_OPTIONS.items():
        if oracle == args.oracle:
            if getattr(args, option) is None:
                setattr(args, option, default)
        elif getattr(args, option) is not None:
            args.usage_error(f"--{option} does not apply to --oracle {args.oracle}")


def _cmd_render(args) -> int:
    cfg = io_text.parse_config(_input(args.config).read_text())
    if args.workers is not None:
        cfg.workers = args.workers
    mesh = io_text.parse_mesh(_input(cfg.mesh).read_text())
    field = io_text.parse_field(_input(cfg.field).read_text())
    if len(field) != mesh.n_nodes:
        raise io_text.ValidationError(
            f"field has {len(field)} values for {mesh.n_nodes} mesh nodes"
        )
    box = model_aabb(mesh)
    detector = xray.make_detector(
        box, cfg.face, rays_per_cm2=cfg.rays_per_cm2, pitch=cfg.pitch, nu=cfg.nu, nv=cfg.nv
    )
    settings = xray.IntegrationSettings(
        step=cfg.step,
        max_leaf_elements=cfg.max_leaf_elements,
        newton=xray.NewtonSettings(eps_tol=cfg.eps_tol, max_iter=cfg.max_iter),
        geom_tol=cfg.geom_tol,
    )
    img = xray.render(
        mesh, field, detector, settings, workers=cfg.workers, brute_force=args.brute_force
    )
    # graymap window; window_max defaults to the max pixel, which the config
    # check cannot compare with window_min
    wmax = float(img.density.max()) if cfg.window_max is None else cfg.window_max
    if cfg.out_pgm and not cfg.window_min < wmax:
        raise io_text.ValidationError(
            f"window_min {cfg.window_min:g} is not below the max pixel {wmax:g}; set window_max"
        )
    if cfg.out_density:
        grid = io_text.FloatGrid(img.nu, img.nv, img.pitch, img.density)
        Path(cfg.out_density).write_bytes(io_text.write_float_grid(grid))
    if cfg.out_pgm:
        Path(cfg.out_pgm).write_bytes(
            io_text.write_graymap(img.density, cfg.pgm_bits, (cfg.window_min, wmax))
        )
    if cfg.out_stats:
        if cfg.out_stats.endswith(".json"):
            text = json.dumps(img.stats.to_dict(), indent=2) + "\n"
        else:
            text = img.stats.to_text()
        Path(cfg.out_stats).write_text(text)
    print(
        f"rendered {img.nu}x{img.nv} pixels, mass {xray.image_mass(img):.6g} g, "
        f"max density {img.density.max():.6g} g/cm^2"
    )
    print(img.stats.to_text(), end="")
    return 0


def _cmd_generate_ball(args) -> int:
    spec = bench.BallSpec(
        radius=args.radius, target_elements=args.target_elements, density=args.density
    )
    mesh, field = bench.generate_ball(spec)
    Path(args.out_mesh).write_text(io_text.write_mesh(mesh))
    Path(args.out_field).write_text(io_text.write_field(field))
    print(f"ball mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")
    return 0


def _cmd_generate_cylinder(args) -> int:
    spec = bench.CylinderSpec(
        radius=args.radius, height=args.height, target_elements=args.target_elements
    )
    mesh, field = bench.generate_cylinder(spec)
    Path(args.out_mesh).write_text(io_text.write_mesh(mesh))
    Path(args.out_field).write_text(io_text.write_field(field))
    print(f"cylinder mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")
    return 0


def _cmd_error_map(args) -> int:
    grid = io_text.read_float_grid(_input(args.grid).read_bytes())
    # assumes the benchmark setup: detector grid centered on the model axis
    if args.oracle == "ball":
        spec = bench.BallSpec(radius=args.radius, density=args.density)
    else:
        spec = bench.CylinderSpec(radius=args.radius, height=args.height)
    b, oracle = bench.projection_oracle(spec, grid.nu, grid.nv, grid.pitch)
    err = np.abs(grid.values - oracle)
    jmax, imax = np.unravel_index(int(np.argmax(err)), err.shape)
    print(
        f"max error {err.max():.6g} g/cm^2 at pixel ({imax}, {jmax}), "
        f"impact parameter {b[jmax, imax]:.6g} cm"
    )
    interior = b <= spec.radius - bench.INTERIOR_PITCHES * grid.pitch
    if interior.any():
        jin, iin = np.unravel_index(int(np.argmax(np.where(interior, err, -1.0))), err.shape)
        print(
            f"interior max error {err[jin, iin]:.6g} g/cm^2 at pixel ({iin}, {jin}), "
            f"impact parameter {b[jin, iin]:.6g} cm "
            f"(b <= radius - {bench.INTERIOR_PITCHES:g} pitches)"
        )
    print(f"mean error {err.mean():.6g} g/cm^2")
    if args.out_grid:
        Path(args.out_grid).write_bytes(
            io_text.write_float_grid(io_text.FloatGrid(grid.nu, grid.nv, grid.pitch, err))
        )
    if args.out_pgm:
        Path(args.out_pgm).write_bytes(io_text.write_graymap(err))
    return 0


def _cmd_info(args) -> int:
    mesh = io_text.parse_mesh(_input(args.mesh).read_text())
    print(f"nodes = {mesh.n_nodes}")
    print(f"elements = {mesh.n_elements}")
    print(f"nodes_per_element = {mesh.elements.shape[1]}")
    if args.field:
        field = io_text.parse_field(_input(args.field).read_text())
        print(f"field_values = {len(field)}")
        if len(field) != mesh.n_nodes:
            raise io_text.ValidationError(
                f"field has {len(field)} values for {mesh.n_nodes} mesh nodes"
            )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fexray", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a projection from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("generate-ball", help="write the ball benchmark mesh/field")
    p.add_argument("--out-mesh", required=True)
    p.add_argument("--out-field", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--target-elements", type=int, default=50)
    p.set_defaults(func=_cmd_generate_ball)

    p = sub.add_parser("generate-cylinder", help="write the cylinder benchmark mesh/field")
    p.add_argument("--out-mesh", required=True)
    p.add_argument("--out-field", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--height", type=float, default=0.1)
    p.add_argument("--target-elements", type=int, default=2143)
    p.set_defaults(func=_cmd_generate_cylinder)

    p = sub.add_parser("error-map", help="compare a rendered grid with an analytic oracle")
    p.add_argument("--grid", required=True)
    p.add_argument("--oracle", choices=("ball", "cylinder"), required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--density", type=float, default=None, help="ball only (default 1.0)")
    p.add_argument("--height", type=float, default=None, help="cylinder only (default 0.1)")
    p.add_argument("--out-grid", default="")
    p.add_argument("--out-pgm", default="")
    p.set_defaults(func=_cmd_error_map, usage_error=p.error)

    p = sub.add_parser("info", help="print mesh/field counts")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", default="")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "error-map":
            _apply_oracle_options(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (io_text.ParseError, io_text.ValidationError, MeshError, ValueError) as exc:
        print(f"fexray: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except OSError as exc:
        print(f"fexray: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except Exception as exc:  # pragma: no cover
        print(f"fexray: internal error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
