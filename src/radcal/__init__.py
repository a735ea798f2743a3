"""radcal: 4D radar-camera extrinsic calibration and point auto-labeling.

Calibration: pair the checkerboard-center pixel with the radar corner
reflector across poses and minimize total reprojection error with a
multistart Levenberg-Marquardt solver.  Auto-labeling: project radar
points into ingested 2D instance masks, filter outliers on depth / RCS /
velocity consistency, and recover missed points by Gaussian affinity.
A built-in synthetic scene generator provides ground truth for both.
"""

from .autolabel import (
    InstanceMask,
    LabelColumns,
    LabelParams,
    LabelRecord,
    PointCloud,
    Provenance,
    autolabel_frame,
)
from .calibration import (
    CalibrationResult,
    Correspondence,
    CorrespondenceSet,
    SolverConfig,
    build_correspondences,
    solve_extrinsics,
)
from .checkerboard import CheckerboardSpec, CornerSet, checkerboard_center
from .geometry import CameraIntrinsics, Extrinsics, project, sph2cart
from .metrics import label_report, pooled_report
from .reflector import (
    ClusterParams,
    FilterParams,
    RadarFrame,
    dbscan,
    extract_reflector,
    filter_returns,
)
from .synth import (
    LabelSceneConfig,
    SceneConfig,
    gen_calibration_scene,
    gen_label_scene,
)

__version__ = "0.1.0"
