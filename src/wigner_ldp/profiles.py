"""Variance profiles: block-constant matrices sigma_{kl} with interval weights.

A profile is the pair (weights, sigma): `weights[k]` is the length of the
k-th interval of a partition of [0,1] and `sigma[k,l] >= 0` is the variance
of matrix entries whose row index falls in interval k and column index in
interval l.  Continuous profiles are carried as grid samples and reduced to
block form by cell averaging.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEIGHT_SUM_TOL = 1e-9


class UsageError(ValueError):
    """An argument the library rejects: raised where the argument enters."""


class ProfileConfigError(UsageError):
    """Raised when a profile config violates the schema."""


def _as_vector(v) -> np.ndarray:
    return np.asarray(getattr(v, "values", v), dtype=float)


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    weights: np.ndarray
    sigma: np.ndarray
    label: str = ""

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        s = np.asarray(self.sigma, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ProfileConfigError("weights must be a nonempty 1-d sequence")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(s))):
            raise ProfileConfigError("weights and sigma must be finite")
        if np.any(w <= 0):
            raise ProfileConfigError("all weights must be positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ProfileConfigError(
                f"weights sum to {w.sum():.12g}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        w /= w.sum()
        if s.shape != (w.size, w.size):
            raise ProfileConfigError("sigma must be p x p with p = len(weights)")
        if np.any(s < 0):
            raise ProfileConfigError("sigma entries must be nonnegative")
        if not np.allclose(s, s.T, rtol=0.0, atol=1e-12):
            raise ProfileConfigError("sigma must be symmetric")
        s = (s + s.T) / 2.0  # stored exactly symmetric
        if not np.any(s > 0):
            raise ProfileConfigError("sigma must not be identically zero")
        w.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "_key", (w.tobytes(), s.tobytes()))

    @property
    def p(self) -> int:
        return self.weights.size

    @property
    def max_sigma(self) -> float:
        """Largest variance A = max sigma_{kl}."""
        return float(self.sigma.max())

    @property
    def mean_sigma(self) -> float:
        """a = <w, sigma w>, the Lebesgue-averaged variance."""
        return float(self.weights @ self.sigma @ self.weights)

    @property
    def key(self) -> tuple:
        """Identity behind == and hash (so behind the solver memos): the bytes
        of weights and sigma; the label does not count."""
        return self._key

    def __eq__(self, other):
        return isinstance(other, VarianceProfile) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def row_blocks(self, n: int) -> np.ndarray:
        """Block index of each matrix row, midpoints t_i = (i - 1/2)/n."""
        t = (np.arange(n) + 0.5) / n
        return np.minimum(np.searchsorted(np.cumsum(self.weights), t, side="right"), self.p - 1)

    def to_config(self) -> dict:
        return {
            "kind": "piecewise_constant",
            "weights": self.weights.tolist(),
            "sigma": self.sigma.tolist(),
            "label": self.label,
        }


@dataclass(frozen=True)
class ContinuousProfileSpec:
    """Continuous profile held as samples on a uniform grid of [0,1]^2.

    Samples live at cell midpoints ((i+1/2)/n, (j+1/2)/n).
    """

    grid: np.ndarray
    label: str = ""

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float).copy()
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ProfileConfigError("grid must be a square matrix")
        if np.any(g < 0):
            raise ProfileConfigError("grid entries must be nonnegative")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-12):
            raise ProfileConfigError("grid must be symmetric")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    @property
    def resolution(self) -> int:
        return self.grid.shape[0]

    @classmethod
    def from_function(cls, f, resolution: int = 64, label: str = "") -> "ContinuousProfileSpec":
        t = (np.arange(resolution) + 0.5) / resolution
        s, u = np.meshgrid(t, t, indexing="ij")
        return cls(grid=f(s, u), label=label)


@dataclass(frozen=True)
class DiscretizationReport:
    p: int
    sup_error: float


def discretize(spec: ContinuousProfileSpec, p: int):
    """Reduce grid samples to a p-block profile by cell averaging.

    Block value = mean of the samples whose midpoint lands in I_k x I_l for
    the uniform partition of [0,1] into p equal intervals.  sup_error is the
    largest gap between a sample and its cell average.
    """
    if p < 1:
        raise UsageError("p must be >= 1")
    n = spec.resolution
    if p > n:
        raise UsageError(f"p={p} exceeds grid resolution {n}")
    t = (np.arange(n) + 0.5) / n
    blocks = np.minimum((t * p).astype(int), p - 1)
    sigma = np.zeros((p, p))
    counts = np.zeros((p, p))
    np.add.at(sigma, (blocks[:, None], blocks[None, :]), spec.grid)
    np.add.at(counts, (blocks[:, None], blocks[None, :]), 1.0)
    sigma /= counts
    sup_error = float(np.max(np.abs(spec.grid - sigma[blocks[:, None], blocks[None, :]])))
    prof = VarianceProfile(
        weights=np.full(p, 1.0 / p), sigma=sigma, label=spec.label or f"grid-p{p}"
    )
    return prof, DiscretizationReport(p=p, sup_error=sup_error)


def sigma_quadratic_form(profile: VarianceProfile, phi, psi) -> float:
    """<phi, S psi> = sum_{kl} sigma_{kl} phi_k psi_l."""
    a = _as_vector(phi)
    b = _as_vector(psi)
    if a.shape != (profile.p,) or b.shape != (profile.p,):
        raise UsageError("mass vectors must match the profile partition")
    return float(a @ profile.sigma @ b)


def _expand_wishart(alpha: float, label: str) -> VarianceProfile:
    if not alpha > 1:
        raise ProfileConfigError("wishart profile needs alpha > 1")
    w = np.array([1.0 / (1 + alpha), alpha / (1 + alpha)])
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    return VarianceProfile(weights=w, sigma=s, label=label or f"wishart(alpha={alpha:g})")


def _expand_block(alpha: float, part1, part2, label: str) -> VarianceProfile:
    if not 0 < alpha < 1:
        raise ProfileConfigError("block profile needs alpha in (0,1)")

    def as_profile(part) -> VarianceProfile:
        if isinstance(part, VarianceProfile):
            return part
        if isinstance(part, dict):
            return _from_config(part)
        return VarianceProfile(weights=np.array([1.0]), sigma=np.array([[float(part)]]))

    p1, p2 = as_profile(part1), as_profile(part2)
    w = np.concatenate([alpha * p1.weights, (1 - alpha) * p2.weights])
    s = np.zeros((w.size, w.size))
    s[: p1.p, : p1.p] = p1.sigma
    s[p1.p :, p1.p :] = p2.sigma
    return VarianceProfile(weights=w, sigma=s, label=label or f"block(alpha={alpha:g})")


def _from_config(cfg: dict, base_dir: Path | None = None):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ProfileConfigError("config must be a mapping with a 'kind' entry")
    kind = cfg["kind"]
    label = cfg.get("label", "")
    if kind == "constant":
        return VarianceProfile(
            weights=np.array([1.0]), sigma=np.array([[1.0]]), label=label or "constant"
        )
    if kind == "piecewise_constant":
        try:
            return VarianceProfile(
                weights=np.asarray(cfg["weights"], dtype=float),
                sigma=np.asarray(cfg["sigma"], dtype=float),
                label=label,
            )
        except KeyError as e:
            raise ProfileConfigError(f"piecewise_constant config missing {e}") from None
    if kind == "wishart":
        if "alpha" not in cfg:
            raise ProfileConfigError("wishart config requires alpha")
        return _expand_wishart(float(cfg["alpha"]), label)
    if kind == "block":
        for k in ("alpha", "sigma1", "sigma2"):
            if k not in cfg:
                raise ProfileConfigError(f"block config requires {k}")
        return _expand_block(float(cfg["alpha"]), cfg["sigma1"], cfg["sigma2"], label)
    if kind == "grid":
        if "file" not in cfg:
            raise ProfileConfigError("grid config requires a file path")
        path = Path(cfg["file"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ProfileConfigError(f"grid file not found: {path}")
        grid = np.loadtxt(path)
        spec = ContinuousProfileSpec(grid=grid, label=label)
        if "p" in cfg:
            prof, _ = discretize(spec, int(cfg["p"]))
            return prof
        return spec
    raise ProfileConfigError(f"unknown profile kind: {kind!r}")


def load_profile(config_text: str, base_dir: str | Path | None = None):
    """Parse one JSON profile document into a profile object.

    Returns a VarianceProfile for block-form kinds, or a
    ContinuousProfileSpec for kind="grid" without a block count.
    """
    try:
        cfg = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise ProfileConfigError(f"config is not valid JSON: {e}") from None
    return _from_config(cfg, base_dir=Path(base_dir) if base_dir else None)


def load_profile_file(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise ProfileConfigError(f"profile file not found: {path}")
    return load_profile(path.read_text(), base_dir=path.parent)


def constant_profile() -> VarianceProfile:
    return VarianceProfile(np.array([1.0]), np.array([[1.0]]), label="constant")


def wishart_profile(alpha: float) -> VarianceProfile:
    return _expand_wishart(alpha, "")


def block_profile(alpha: float, sigma1, sigma2) -> VarianceProfile:
    return _expand_block(alpha, sigma1, sigma2, "")
