"""radcal: 4D radar-camera extrinsic calibration and point auto-labeling.

Calibration: pair the checkerboard-center pixel with the radar corner
reflector across poses and minimize total reprojection error with a
multistart Levenberg-Marquardt solver.  Auto-labeling: project radar
points into ingested 2D instance masks, filter outliers on depth / RCS /
velocity consistency, and recover missed points by Gaussian affinity.
A built-in synthetic scene generator provides ground truth for both.

``import radcal`` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a command loads only what it runs.
"""

import sys as _sys

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "autolabel": (
        "InstanceMask",
        "LabelColumns",
        "LabelParams",
        "LabelRecord",
        "PointCloud",
        "Provenance",
        "autolabel_frame",
    ),
    "calibration": (
        "CalibrationResult",
        "Correspondence",
        "CorrespondenceSet",
        "SolverConfig",
        "build_correspondences",
        "solve_extrinsics",
    ),
    "checkerboard": ("CheckerboardSpec", "CornerSet", "checkerboard_center"),
    "geometry": ("CameraIntrinsics", "Extrinsics", "project", "sph2cart"),
    "metrics": ("label_report", "pooled_report"),
    "reflector": (
        "ClusterParams",
        "FilterParams",
        "RadarFrame",
        "dbscan",
        "extract_reflector",
        "filter_returns",
    ),
    "synth": ("LabelSceneConfig", "SceneConfig", "gen_calibration_scene", "gen_label_scene"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "fileio", *_EXPORTS)


def _submodule(name: str):
    # __import__ takes the interpreter's import path, which -X importtime
    # reports; importlib.import_module would not show up there
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:  # radcal.fileio works after a bare ``import radcal``
        return _submodule(name)
    if name in _MODULE_OF:
        return getattr(_submodule(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_MODULE_OF})
