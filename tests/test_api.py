import os
import re
import subprocess
import sys
from pathlib import Path

import fexray

README = Path(__file__).resolve().parents[1] / "README.md"

# the README "Library use" names plus the types callers pass or receive
PUBLIC = [
    "AttenuationModel",
    "BallSpec",
    "CylinderSpec",
    "Detector",
    "IntegrationSettings",
    "Mesh",
    "MeshError",
    "NewtonSettings",
    "NodalField",
    "ObbTree",
    "ProjectionImage",
    "attenuate",
    "build_obb_tree",
    "error_map",
    "generate_ball",
    "generate_cylinder",
    "image_mass",
    "make_detector",
    "model_aabb",
    "projection_oracle",
    "render",
]


def library_use_snippet() -> str:
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_the_agreed_list():
    assert sorted(fexray.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fexray, name) is not None


def test_readme_library_use_runs_as_written(capsys):
    code = library_use_snippet()
    imported = re.search(r"from fexray import \((.*?)\)", code, re.S).group(1)
    assert {n.strip() for n in imported.split(",") if n.strip()} <= set(fexray.__all__)
    exec(compile(code, str(README), "exec"), {})
    mass, peak = (float(v) for v in capsys.readouterr().out.split())
    # near the analytic ball mass, peak at the 2 g/cm^2 central chord
    assert abs(mass - 4.18879) < 0.02 * 4.18879
    assert 1.95 <= peak <= 2.0 + 1e-12


def test_library_imports_no_scipy():
    # numpy is the library's one dependency.  The test helpers load scipy
    # into this process, so a fresh interpreter imports the library
    code = (
        "import sys, fexray, fexray.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(fexray.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
