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


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    weights: np.ndarray
    sigma: np.ndarray
    label: str = ""

    def __post_init__(self):
        try:
            w = np.array(self.weights, dtype=float)
            s = np.array(self.sigma, dtype=float)
        except (TypeError, ValueError):
            raise ProfileConfigError("weights and sigma must be arrays of numbers") from None
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
        return hash(self._key)

    def mass_vector(self, v) -> np.ndarray:
        """v as a block mass vector: `mass_rows` of the one row v."""
        return self.mass_rows([v])[0]

    def mass_rows(self, rows) -> np.ndarray:
        """The one reader of block mass vectors: each row as p floats, each at
        least -1e-12 (rounding negatives clip to 0), summing to 1 within 1e-9.
        The entries are read by `_finite`, so NaN, inf, strings (numeric ones
        too), booleans and ragged lists are refused."""
        a = _finite(rows, "mass vector")
        if a.ndim != 2 or a.shape[1] != self.p:
            raise UsageError(f"expected a mass vector of length {self.p}")
        if not ((a >= -1e-12).all() and (abs(a.sum(axis=1) - 1.0) <= 1e-9).all()):
            raise UsageError("mass vector must be nonnegative and sum to 1")
        return np.clip(a, 0.0, None)

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
        g = np.array(self.grid, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ProfileConfigError("grid must be a square matrix")
        if not np.all(np.isfinite(g) & (g >= 0)):
            raise ProfileConfigError("grid entries must be finite and nonnegative")
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
    p = _count(p, "p")
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


def _read(cfg: dict, key: str, read):
    """read(cfg[key]); a missing key or a value read rejects is a ProfileConfigError naming key."""
    if key not in cfg:
        raise ProfileConfigError(f"profile config needs {key!r}")
    try:
        return read(cfg[key])
    except (TypeError, ValueError, OverflowError, OSError) as e:
        raise ProfileConfigError(f"profile config {key!r}: {e}") from None


def _exactly(type_):
    """A reader that takes v only when it is a type_ or type_(v) == v: "2" is no
    int, nor are 2.7 and true (Python's or numpy's), and a NaN is a float (for
    the finiteness check)."""
    def read(v):
        if isinstance(v, (bool, np.bool_)) or not (isinstance(v, type_) or type_(v) == v):
            raise ValueError(f"{v!r} is not of type {type_.__name__}")
        return type_(v)
    return read


def _count(v, name: str, low: int = 1) -> int:
    """The one reader of a size or a count: v as an int of at least low, read by
    _exactly(int), so 4.0 and numpy's 4 read as 4; 2.5, NaN, inf, true and "3"
    are UsageErrors naming the argument."""
    try:
        n = _exactly(int)(v)
        if n >= low:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise UsageError(f"{name} must be an integer >= {low}")


def _holds_bool(v) -> bool:
    """Whether v is a boolean (Python's or numpy's), an array of them, or a list
    or tuple holding one at any depth: np.asarray reads [True, 0.0] as floats."""
    if isinstance(v, (list, tuple)):
        return any(map(_holds_bool, v))
    return isinstance(v, bool) or getattr(v, "dtype", None) == bool


def _finite(v, name: str, sign: str = ""):
    """The one reader of real arguments: v (a number or an array of them) as
    floats, a UsageError naming the argument unless every entry is a finite
    integer or float (so no string, boolean or complex number, also inside a
    list of floats) and, if sign is "positive" or "nonnegative", > 0 or >= 0."""
    try:
        t = np.asarray(v)
    except ValueError:  # a ragged list
        t = np.array(np.nan)
    t = np.asarray(t if t.dtype.kind in "iuf" and not _holds_bool(v) else np.nan, dtype=float)
    ok = {"": True, "positive": t > 0, "nonnegative": t >= 0}[sign]
    if not (np.isfinite(t) & ok).all():
        raise UsageError(f"{name} must be finite" + (f" and {sign}" if sign else ""))
    return t


def _numbers(v):
    """The one reader of numbers in a config: a number, or lists of them at any
    depth, each read by _exactly(float), so "2" and true are no numbers."""
    return [_numbers(e) for e in v] if isinstance(v, list) else _exactly(float)(v)


def _block_part(part, base_dir: Path | None = None) -> VarianceProfile:
    """One diagonal block of a block profile: a profile, a nested config or a variance."""
    if isinstance(part, dict):
        part = _from_config(part, base_dir)
    elif not isinstance(part, VarianceProfile):
        part = VarianceProfile(weights=np.array([1.0]), sigma=np.array([[_exactly(float)(part)]]))
    if not isinstance(part, VarianceProfile):
        raise ProfileConfigError("a block part must be in block form; give its grid a block count p")
    return part


def _from_config(cfg: dict, base_dir: Path | None = None):
    """The one reader of a profile config: every field goes through _read."""
    if not isinstance(cfg, dict):
        raise ProfileConfigError("config must be a mapping with a 'kind' entry")
    kind = _read(cfg, "kind", _exactly(str))
    label = _read(cfg, "label", _exactly(str)) if "label" in cfg else ""
    if kind == "constant":
        return VarianceProfile(np.array([1.0]), np.array([[1.0]]), label=label or "constant")
    if kind == "piecewise_constant":
        w, s = (_read(cfg, k, _numbers) for k in ("weights", "sigma"))
        return VarianceProfile(w, s, label)
    if kind == "wishart":
        alpha = _read(cfg, "alpha", _exactly(float))
        if not alpha > 1:
            raise ProfileConfigError("wishart profile needs alpha > 1")
        w = np.array([1.0 / (1 + alpha), alpha / (1 + alpha)])
        return VarianceProfile(w, np.array([[0.0, 1.0], [1.0, 0.0]]), label or f"wishart(alpha={alpha:g})")
    if kind == "block":
        alpha = _read(cfg, "alpha", _exactly(float))
        if not 0 < alpha < 1:
            raise ProfileConfigError("block profile needs alpha in (0,1)")
        p1, p2 = (_read(cfg, k, lambda part: _block_part(part, base_dir)) for k in ("sigma1", "sigma2"))
        w = np.concatenate([alpha * p1.weights, (1 - alpha) * p2.weights])
        s = np.zeros((w.size, w.size))
        s[: p1.p, : p1.p] = p1.sigma
        s[p1.p :, p1.p :] = p2.sigma
        return VarianceProfile(weights=w, sigma=s, label=label or f"block(alpha={alpha:g})")
    if kind == "grid":
        grid = _read(cfg, "file", lambda f: np.loadtxt(Path(base_dir or "") / f))  # an absolute f wins
        spec = ContinuousProfileSpec(grid=grid, label=label)
        return _read(cfg, "p", lambda p: discretize(spec, p)[0]) if "p" in cfg else spec
    raise ProfileConfigError(f"unknown profile kind: {kind!r}")


def load_profile(config_text: str, base_dir: str | Path | None = None):
    """Parse one JSON profile document into a profile object.

    Returns a VarianceProfile for block-form kinds, or a
    ContinuousProfileSpec for kind="grid" without a block count.
    """
    try:
        return _from_config(json.loads(config_text), base_dir=Path(base_dir) if base_dir else None)
    except json.JSONDecodeError as e:
        raise ProfileConfigError(f"config is not valid JSON: {e}") from None
    except RecursionError:  # from json.loads or from _from_config's descent into parts
        raise ProfileConfigError("config is nested too deeply") from None


def load_profile_file(path: str | Path):
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ProfileConfigError(f"cannot read profile file {path}: {e}") from None
    return load_profile(text, base_dir=path.parent)


def constant_profile() -> VarianceProfile:
    return _from_config({"kind": "constant"})


def wishart_profile(alpha: float) -> VarianceProfile:
    return _from_config({"kind": "wishart", "alpha": alpha})


def block_profile(alpha: float, sigma1, sigma2) -> VarianceProfile:
    return _from_config({"kind": "block", "alpha": alpha, "sigma1": sigma1, "sigma2": sigma2})
