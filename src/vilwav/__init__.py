"""Orthogonal wavelet systems on p-adic Vilenkin groups generated by rooted trees."""

from .mask import MaskTable, check_row_condition, check_vanishing, mask_from_tree, mask_to_tree
from .refinable import (
    SpectrumTable,
    StepFunction,
    check_elementary,
    check_orthonormality_spectral,
    inverse_transform,
    phi_hat_from_tree,
)
from .transform import CoeffGrid, CoeffPyramid, analyze, analyze_level, project, synthesize, synthesize_level
from .tree import RootedTree, enumerate_trees
from .wavelet import WaveletSystem, build_system, solve_beta, verify_wavelet_system

__all__ = [
    "MaskTable",
    "SpectrumTable",
    "StepFunction",
    "CoeffGrid",
    "CoeffPyramid",
    "RootedTree",
    "WaveletSystem",
    "analyze",
    "analyze_level",
    "build_system",
    "check_elementary",
    "check_orthonormality_spectral",
    "check_row_condition",
    "check_vanishing",
    "enumerate_trees",
    "inverse_transform",
    "mask_from_tree",
    "mask_to_tree",
    "phi_hat_from_tree",
    "project",
    "solve_beta",
    "synthesize",
    "synthesize_level",
    "verify_wavelet_system",
]

__version__ = "0.1.0"
