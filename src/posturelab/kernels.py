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

from .errors import choose, integer, real

LINEAR = "linear"
POLYNOMIAL = "poly"


@dataclass(frozen=True)
class KernelSpec:
    kind: str = LINEAR
    degree: int = 2
    scale: float = 1.0

    def __post_init__(self):
        choose("kernel kind", self.kind, (LINEAR, POLYNOMIAL))
        if integer("kernel degree", self.degree) < 2 and self.kind == POLYNOMIAL:
            raise ValueError("polynomial degree must be >= 2")
        real("kernel scale", self.scale, positive=True)

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Kernel matrix K[i, j] = K(X[i], Y[j]) of 2-D float64 matrices."""
        dots = X @ Y.T
        if self.kind == LINEAR:
            return dots
        return (1.0 + dots / (self.scale * self.scale)) ** self.degree


def linear_kernel() -> KernelSpec:
    return KernelSpec(LINEAR)


def polynomial_kernel(degree: int, scale: float = 1.0) -> KernelSpec:
    return KernelSpec(POLYNOMIAL, degree, scale)
