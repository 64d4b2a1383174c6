"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config, missing
or malformed files, inconsistent dimensions), 3 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench, io_text, xray
from .mesh import check_field
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


def _spec(args) -> bench.BallSpec | bench.CylinderSpec:
    """The chosen spec from the spec options given, its own defaults filling
    in the rest; an option that is not one of its fields is a usage error."""
    spec_type = args.specs[args.shape]
    given = {n: getattr(args, n) for n in args.spec_options if getattr(args, n) is not None}
    for name in sorted(given.keys() - {f.name for f in fields(spec_type)}):
        args.usage_error(f"--{name} does not apply to --oracle {args.shape}")
    return spec_type(**given)


def _cmd_render(args) -> int:
    cfg = io_text.parse_config(_input(args.config).read_text())
    if args.workers is not None:
        cfg.workers = args.workers
    mesh = io_text.parse_mesh(_input(cfg.mesh).read_text())
    field = io_text.parse_field(_input(cfg.field).read_text())
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


def _cmd_generate(args) -> int:
    mesh, field = getattr(bench, f"generate_{args.shape}")(_spec(args))
    Path(args.out_mesh).write_text(io_text.write_mesh(mesh))
    Path(args.out_field).write_text(io_text.write_field(field))
    print(f"{args.shape} mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")
    return 0


def _cmd_error_map(args) -> int:
    spec = _spec(args)  # a usage error comes before any file is read
    grid = io_text.read_float_grid(_input(args.grid).read_bytes())
    # assumes the benchmark setup: detector grid centered on the model axis
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
        check_field(mesh, field)
    return 0


def _add_spec_options(p, specs: dict, skip: str = "") -> None:
    """An option per spec field, None so that the spec's default holds; the
    help names that default."""
    defaults: dict[str, list] = {}
    for shape, spec_type in specs.items():
        for f in fields(spec_type):
            defaults.setdefault(f.name, []).append((shape, f.default))
    defaults.pop(skip, None)
    for name, owners in defaults.items():
        text = "default " + ", ".join(f"{value} ({shape})" for shape, value in owners)
        p.add_argument(f"--{name.replace('_', '-')}", type=type(owners[0][1]), help=text)
    p.set_defaults(specs=specs, spec_options=tuple(defaults), usage_error=p.error)


def build_parser() -> _Parser:
    parser = _Parser(prog="fexray", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a projection from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=_cmd_render)

    specs = {"ball": bench.BallSpec, "cylinder": bench.CylinderSpec}
    for shape, spec_type in specs.items():
        p = sub.add_parser(f"generate-{shape}", help=f"write the {shape} benchmark mesh/field")
        p.add_argument("--out-mesh", required=True)
        p.add_argument("--out-field", required=True)
        _add_spec_options(p, {shape: spec_type})
        p.set_defaults(func=_cmd_generate, shape=shape)

    p = sub.add_parser("error-map", help="compare a rendered grid with an analytic oracle")
    p.add_argument("--grid", required=True)
    p.add_argument("--oracle", dest="shape", choices=tuple(specs), required=True)
    _add_spec_options(p, specs, skip="target_elements")
    p.add_argument("--out-grid", default="")
    p.add_argument("--out-pgm", default="")
    p.set_defaults(func=_cmd_error_map)

    p = sub.add_parser("info", help="print mesh/field counts")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", default="")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # usage errors and --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"fexray: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except Exception as exc:  # pragma: no cover
        print(f"fexray: internal error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
