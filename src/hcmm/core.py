"""Euclidean norm, momentum clipping, and hyperparameter schedules.

Schedules implement the theorem-prescribed step-size/smoothing-factor choices
for the clipped (HCMM-1) and normalized (HCMM-2) Hessian-corrected momentum
methods. Every intermediate constant (kappa, L1, pi1, C, delta1) is kept on
the returned schedule so tests can inspect the derivation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

Vec = np.ndarray


class ConfigError(ValueError):
    """Raised when a schedule or experiment configuration is invalid."""


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

def norm2(v: Vec) -> float:
    """Euclidean norm of a 1-d vector; bit-equal to np.linalg.norm, which
    also computes sqrt(v . v), without its dispatch cost."""
    return math.sqrt(v @ v)


@dataclass(frozen=True)
class ProblemConstants:
    """User-supplied smoothness/noise constants feeding the schedules.

    nu is the strong-concavity modulus (first schedule); delta the PL
    constant (second schedule). Exactly the constants the owning schedule
    needs must be positive; the rest may stay at 0.
    """

    L_f: float = 0.0
    L_h: float = 0.0
    nu: float = 0.0
    delta: float = 0.0
    sigma_h: float = 0.0


@dataclass(frozen=True)
class HyperSchedule:
    mu_x: float
    mu_y: float
    beta_x: float
    beta_y: float
    clip_threshold: Optional[float] = None   # N: trigger for clipping
    clip_norm: Optional[float] = None        # N1: norm after rescale
    derived: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.beta_x <= 1.0 and 0.0 < self.beta_y <= 1.0):
            raise ConfigError(
                f"smoothing factors must lie in (0, 1]: "
                f"beta_x={self.beta_x}, beta_y={self.beta_y}")
        if self.mu_x <= 0 or self.mu_y <= 0:
            raise ConfigError(
                f"step sizes must be positive: mu_x={self.mu_x}, mu_y={self.mu_y}")
        N, N1 = self.clip_threshold, self.clip_norm
        if not all(c is None or c > 0 for c in (N, N1)):
            raise ConfigError(f"clipping constants must be positive: N={N}, N1={N1}")


def _require_positive(name: str, value: float) -> None:
    if not (value > 0):
        raise ConfigError(f"constant {name!r} must be strictly positive, got {value}")


def schedule_hcmm1(T: int, constants: ProblemConstants, N1: float,
                   N: Optional[float] = None) -> HyperSchedule:
    """Theorem-prescribed schedule for the clipped method.

    beta = min(T^{-2/3}, 1/2); mu_y and mu_x are the minima over the stated
    upper bounds. N defaults to N1 (clipping then never rescales upward).
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    _require_positive("L_f", constants.L_f)
    _require_positive("nu", constants.nu)
    _require_positive("L_h", constants.L_h)
    _require_positive("sigma_h", constants.sigma_h)
    _require_positive("N1", N1)
    if N is None:
        N = N1
    _require_positive("N", N)
    if N1 > N:
        warnings.warn(
            "clip_norm N1 exceeds clip_threshold N: momenta with norm in "
            "[N, N1) are rescaled UP to norm N1", stacklevel=2)

    L_f, nu, L_h, sigma_h = constants.L_f, constants.nu, constants.L_h, constants.sigma_h
    kappa = L_f / nu
    L1 = L_f + kappa * L_f
    pi1 = 1.0 / (2.0 * L_f + nu)
    C = min(5.0 * pi1 * L_f ** 2 / (8.0 * nu * sigma_h ** 2),
            4.0 * sigma_h ** 2 / (N1 ** 2 * L_h ** 2),
            1.0 / (128.0 * sigma_h ** 2))

    beta = min(T ** (-2.0 / 3.0), 0.5)
    mu_y = min(T ** (-1.0 / 3.0),
               sigma_h * np.sqrt(2.0 * beta) / (L_h * N1),
               np.sqrt(C * beta / 2.0),
               np.sqrt(C * beta / (30.0 * kappa ** 2)),
               2.0 / nu,
               pi1)
    mu_x = min(mu_y,
               np.sqrt(1.0 / (480.0 * kappa ** 4)) * mu_y,
               1.0 / (2.0 * L1))
    return HyperSchedule(
        mu_x=float(mu_x), mu_y=float(mu_y), beta_x=float(beta), beta_y=float(beta),
        clip_threshold=float(N), clip_norm=float(N1),
        derived={"kappa": kappa, "L1": L1, "pi1": pi1, "C": C})


def schedule_hcmm2(T: int, constants: ProblemConstants) -> HyperSchedule:
    """Theorem-prescribed schedule for the normalized method (PL setting).

    beta = min(1, T^{-2/3}); mu_y = T^{-2/3};
    mu_x = min(mu_y, delta1*mu_y/(2 L_f), T^{-2/3}) with delta1 = sqrt(delta/2).
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    _require_positive("L_f", constants.L_f)
    _require_positive("delta", constants.delta)

    beta = min(1.0, T ** (-2.0 / 3.0))
    mu_y = T ** (-2.0 / 3.0)
    delta1 = np.sqrt(constants.delta / 2.0)
    mu_x = min(mu_y, delta1 * mu_y / (2.0 * constants.L_f), T ** (-2.0 / 3.0))
    return HyperSchedule(
        mu_x=float(mu_x), mu_y=float(mu_y), beta_x=float(beta), beta_y=float(beta),
        derived={"delta1": float(delta1)})


def clip_momentum(m: Vec, N: float, N1: float,
                  norm: Optional[float] = None) -> Vec:
    """Rescale m to norm N1 when ||m|| >= N; otherwise return m itself.

    `norm` is ||m|| when the caller has it already. The trigger is
    inclusive. With N1 <= N this is idempotent; with N1 > N a vector of norm
    in [N, N1) is rescaled upward (the update is applied verbatim as
    specified; schedule construction warns about this regime).
    """
    if N <= 0 or N1 <= 0:
        raise ConfigError(f"clipping constants must be positive: N={N}, N1={N1}")
    nm = norm2(m) if norm is None else norm
    if nm >= N:
        return (N1 / nm) * m
    return m
