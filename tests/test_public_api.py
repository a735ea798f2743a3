"""Every public name the package lists resolves, and README's library
example runs.

``perfbench/traced_child.py`` walks ``fileio.__all__`` with ``getattr``, so
a stale entry in any ``__all__`` would break every traced run, and
``radcal`` re-exports names from the modules, imported on first access.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import radcal

MODULES = sorted(info.name for info in pkgutil.iter_modules(radcal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"radcal.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    listed = {}
    for name in MODULES:
        module = importlib.import_module(f"radcal.{name}")
        listed.update({n: getattr(module, n) for n in getattr(module, "__all__", [])})
    exported = {
        n: v for n, v in vars(radcal).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert sorted(exported.keys() - listed.keys()) == []
    assert all(listed[n] is v for n, v in exported.items())


# the names ``radcal`` exports, by defining module
EXPORTS = {
    "autolabel": [
        "InstanceMask", "LabelColumns", "LabelParams", "LabelRecord", "PointCloud",
        "Provenance", "autolabel_frame",
    ],
    "calibration": [
        "CalibrationResult", "CorrespondenceSet", "SolverConfig",
        "build_correspondences", "solve_extrinsics",
    ],
    "checkerboard": ["CheckerboardSpec", "CornerSet", "checkerboard_center"],
    "geometry": ["CameraIntrinsics", "Extrinsics", "sph2cart"],
    "metrics": ["label_report", "pooled_report"],
    "reflector": [
        "ClusterParams", "FilterParams", "RadarFrame", "dbscan", "extract_reflector",
        "filter_returns",
    ],
    "synth": ["LabelSceneConfig", "SceneConfig", "gen_calibration_scene", "gen_label_scene"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in EXPORTS.items() for n in names]
)
def test_lazy_export_resolves_to_its_definition(module, name):
    defining = importlib.import_module(f"radcal.{module}")
    value = getattr(radcal, name)
    assert value is getattr(defining, name)
    assert name in defining.__all__
    assert value.__module__ == defining.__name__
    assert name in dir(radcal)


def test_lazy_exports_are_exactly_the_listed_names():
    public = {n for n in dir(radcal) if not n.startswith("_")}
    submodules = {n for n in public if inspect.ismodule(getattr(radcal, n))}
    assert public - submodules == {n for names in EXPORTS.values() for n in names}
    assert submodules == set(MODULES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        radcal.no_such_name  # noqa: B018
    assert not hasattr(radcal, "gen_scene")
    with pytest.raises(ImportError):
        exec("from radcal import no_such_name", {})


def test_readme_library_example_runs():
    # README's one python block calibrates a scene and labels a frame with
    # the solved extrinsics: the library's only composed calibrate -> label run
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    report = namespace["report"]
    assert report.pa_percent == 100.0
    assert report.miou_percent == 100.0
