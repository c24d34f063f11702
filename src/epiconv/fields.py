"""Analytic scalar fields used as fixtures by the inequality checkers.

A field bundles a vectorized evaluator with an optional analytic gradient and
a power-decay exponent for tail bounds. Grids cannot witness growth at
infinity, so the admissibility and quadrature machinery work from these
callables directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .extgrid import _central_gradient
from .transforms import NormSpec, power_cost_conjugate

__all__ = [
    "ScalarField",
    "power_cost_field",
    "shifted_field",
    "quadratic_field",
    "bump_field",
    "multiply_bump",
]


@dataclass
class ScalarField:
    """fn: (..., n) -> (...); grad falls back to central differences.

    conjugate is the Legendre transform of fn over all of R^n. The Hopf-Lax
    bracket of analytic pairs (``hopflax._pointwise_bracket``) needs it and
    the gradient of both fields.

    Quadrature passes fn point batches as (..., n) views with contiguous
    coordinate planes, and the pointwise bracket passes them on to fn, grad
    and conjugate. These must not write to their input, must give the same
    bytes whatever its memory layout, and copy it themselves if they need C
    order.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    decay: float | None = None
    name: str = "field"
    conjugate: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return _central_gradient(self, x)


def power_cost_field(C: float, q: float, norm: NormSpec) -> ScalarField:
    """W(x) = C ||x||^q / q with analytic gradient and conjugate."""
    if not (C > 0 and q > 1):
        raise ValueError("need C > 0 and q > 1")

    def fn(x):
        return C * norm(x) ** q / q

    def grad(x):
        x = np.asarray(x, dtype=float)
        r = norm(x)
        g = norm.grad(x)
        return C * r[..., None] ** (q - 1.0) * g

    def conj(y):
        return power_cost_conjugate(C, q, norm, y)

    name = f"powercost(C={C:g},q={q:g})"
    return ScalarField(fn, grad, decay=None, name=name, conjugate=conj)


def shifted_field(field: ScalarField, shift: np.ndarray) -> ScalarField:
    """x -> field(x + shift); the usual way to turn a cost on Omega_1 into a
    test function on Omega. Its conjugate is field*(p) - p . shift."""
    shift = np.asarray(shift, dtype=float)
    base_fn, base_grad, base_conj = field.fn, field.grad, field.conjugate
    out = replace(
        field,
        fn=lambda x: np.asarray(base_fn(np.asarray(x, dtype=float) + shift), dtype=float),
        grad=(
            None
            if base_grad is None
            else (lambda x: np.asarray(base_grad(np.asarray(x, dtype=float) + shift), dtype=float))
        ),
        conjugate=(
            None
            if base_conj is None
            # matmul rounds by memory layout, so p . shift reads C order
            else (
                lambda p: np.asarray(base_conj(p), dtype=float)
                - np.ascontiguousarray(p, dtype=float) @ shift
            )
        ),
        name=f"{field.name}(.+e)",
    )
    return out


def quadratic_field(offset: float = 1.0, curvature: float = 1.0) -> ScalarField:
    """offset + curvature * ||x||^2 / 2, everywhere finite and convex; it
    grows like ||x||^2, power-decay exponent -2."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return offset + 0.5 * curvature * np.sum(x**2, axis=-1)

    def grad(x):
        return curvature * np.asarray(x, dtype=float)

    def conj(y):
        y = np.asarray(y, dtype=float)
        return np.sum(y * y, axis=-1) / (2.0 * curvature) - offset

    return ScalarField(fn, grad, decay=-2.0, name="quadratic", conjugate=conj)


def bump_field(center, radius: float = 1.0, amplitude: float = 1.0) -> ScalarField:
    """Compactly supported C^2 bump amplitude * (1 - ||(x-c)/r||^2)^3 on its
    ball; the radius r must be finite and positive."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"bump radius must be finite and positive, got {radius!r}")
    c = np.asarray(center, dtype=float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        u = 1.0 - np.sum(((x - c) / radius) ** 2, axis=-1)
        return amplitude * np.clip(u, 0.0, None) ** 3

    def grad(x):
        x = np.asarray(x, dtype=float)
        u = 1.0 - np.sum(((x - c) / radius) ** 2, axis=-1)
        upos = np.clip(u, 0.0, None)
        return amplitude * 3.0 * upos[..., None] ** 2 * (-2.0 * (x - c) / radius**2)

    return ScalarField(fn, grad, decay=None, name="bump")


def multiply_bump(field: ScalarField, center, radius: float, amplitude: float) -> ScalarField:
    """field * (1 + bump); keeps positivity for amplitude > -1. The product
    has no closed-form conjugate, so it carries none."""
    b = bump_field(center, radius, amplitude)
    base_fn, base_grad = field.fn, field.grad

    def fn(x):
        return np.asarray(base_fn(x), dtype=float) * (1.0 + b(x))

    def grad(x):
        f = np.asarray(base_fn(x), dtype=float)
        gf = field.gradient(x) if base_grad is None else np.asarray(base_grad(x), dtype=float)
        return gf * (1.0 + b(x))[..., None] + f[..., None] * b.gradient(x)

    return replace(field, fn=fn, grad=grad, conjugate=None, name=f"{field.name}*(1+bump)")
