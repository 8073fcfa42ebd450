"""Kernel functions for the SVM classifiers.

Linear: K(x, y) = x . y
Polynomial: K(x, y) = (1 + x . y / scale^2) ** degree

"Quadratic" and "cubic" SVMs are the polynomial kernel at degrees 2 and 3,
applied to standardized features. KernelSpec's own scale defaults to 1, but
ClassifierSpec resolves an unset scale to 4 * sqrt(n_features).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
POLYNOMIAL = "poly"


@dataclass(frozen=True)
class KernelSpec:
    kind: str = LINEAR
    degree: int = 2
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (LINEAR, POLYNOMIAL):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == POLYNOMIAL and self.degree < 2:
            raise ValueError("polynomial degree must be >= 2")
        if self.scale <= 0:
            raise ValueError("kernel scale must be positive")

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Kernel matrix K[i, j] = K(X[i], Y[j])."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
        dots = X @ Y.T
        if self.kind == LINEAR:
            return dots
        return (1.0 + dots / (self.scale * self.scale)) ** self.degree


def linear_kernel() -> KernelSpec:
    return KernelSpec(LINEAR)


def polynomial_kernel(degree: int, scale: float = 1.0) -> KernelSpec:
    return KernelSpec(POLYNOMIAL, degree, scale)
