"""Geometric SLAM observers on the pose-plus-landmarks Lie group.

Two nonlinear estimators over simulated rigid-body scenarios: a
feature-only observer and an IMU-aided one (also available in a
quaternion build), plus the world simulator, error metrics and a CLI
harness that reproduces the reference scenarios.  Import from the
submodules, e.g. ``lieslam.harness`` or ``lieslam.filter_imu``.
"""

__version__ = "0.1.0"
