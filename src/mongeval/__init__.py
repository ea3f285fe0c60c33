"""Valuations on convex functions and convex bodies from Monge-Ampere-type
operators over the real, complex, quaternionic, and octonionic scalars."""

from .algebra import FIELDS, HermitianMatrix
from .convex import (
    PLConvexFunction,
    Polytope,
    SmoothProfileBody,
    ball_body,
    generate_union_convex_pair,
    halfspace_clip,
    make_two_ball_body,
)
from .hessian import fd_hessian_batch
from .valuation import (
    AtomicMeasure,
    BumpWeight,
    Grid,
    MatrixAtom,
    MatrixBump,
    ValuationSpec,
    body_valuation,
    eval_valuation,
    homogeneous_components,
    hull_volume,
    ma_measure_pl,
    pl_valuation,
)
from .verify import EXPERIMENTS, ExperimentReport, run_experiment

__version__ = "0.1.0"
