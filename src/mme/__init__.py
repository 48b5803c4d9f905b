"""Multiplane model estimation for noisy 3D point clouds.

Clusters a cloud into planar patches, maps the patches onto a model of
inter-plane angles via a backtracking assignment search, then fits all
planes simultaneously under the angle constraints (constraint-checked
RANSAC).  Includes a synthetic depth-scene generator, unconstrained
RANSAC baselines, and a benchmark harness.
"""

__version__ = "0.1.0"
