"""Virtual X-ray images from quadratic tetrahedral finite-element results."""

from .bench import BallSpec, CylinderSpec, generate_ball, generate_cylinder, projection_oracle
from .locate import NewtonSettings
from .mesh import Mesh, MeshError, NodalField
from .spatial import ObbTree, build_obb_tree, model_aabb
from .xray import (
    AttenuationModel,
    Detector,
    IntegrationSettings,
    ProjectionImage,
    attenuate,
    error_map,
    image_mass,
    make_detector,
    render,
)

__all__ = [
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

__version__ = "0.1.0"
