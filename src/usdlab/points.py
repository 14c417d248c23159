"""Point sets on the torus [0, 2*pi)^d with recorded provenance."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import GridTooCoarseError

TWO_PI = 2.0 * np.pi
GRID_POINT_CAP = 1 << 24


def _integer_argument(name, value, least=None) -> int:
    """``value`` as an int; a bool, a non-integral value or one below
    ``least`` raises ``ValueError`` naming ``name``."""
    try:
        whole = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and whole < least:
        raise ValueError(f"{name} must be at least {least}, got {whole}")
    return whole


def _real_argument(name, value, least=None, strict=False) -> float:
    """``value`` as a float; a bool or anything but a real number raises
    ``ValueError`` naming ``name``, and so, when ``least`` is given, does
    a value that is not finite or lies below ``least`` (at it, if
    ``strict``)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    real = float(value)
    if least is not None and not (math.isfinite(real) and (real > least if strict
                                                           else real >= least)):
        bound = (("positive" if strict else "non-negative") if least == 0
                 else f"{'>' if strict else '>='} {least}")
        raise ValueError(f"{name} must be finite and {bound}, got {real}")
    return real


def tensor_grid_points(n: int, d: int) -> np.ndarray:
    """Equispaced tensor quadrature grid as an (n^d, d) array."""
    if n ** d > GRID_POINT_CAP:
        raise GridTooCoarseError(
            f"tensor grid {n}^{d} exceeds the point cap {GRID_POINT_CAP}; "
            "refusing to under-resolve")
    axis = np.arange(n) * (TWO_PI / n)
    if d == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


@dataclass
class PointSet:
    """An ordered list of m points in [0, 2*pi)^d.

    Coordinates are reduced mod 2*pi on construction.  ``provenance``
    records how the set was produced (explicit, seeded draw, equispaced)
    so runs can be reproduced from the serialized form.
    """

    points: np.ndarray
    provenance: dict = field(default_factory=lambda: {"kind": "explicit"})

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("a point set needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point coordinates must be finite")
        self.points = np.mod(arr, TWO_PI)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def explicit(cls, points):
        return cls(points)

    @classmethod
    def random_uniform(cls, m: int, d: int, seed: int, draw_index: int = 0):
        """m i.i.d. uniform points, reproducible from (seed, draw_index).

        Each argument must be an integer (a bool or a fractional value
        raises ``ValueError``), so a seed is never truncated; m and d must
        be at least 1, seed and draw_index at least 0.
        """
        m, d = _integer_argument("m", m, 1), _integer_argument("d", d, 1)
        seed = _integer_argument("seed", seed, 0)
        draw_index = _integer_argument("draw_index", draw_index, 0)
        rng = np.random.default_rng([seed, draw_index])
        pts = rng.uniform(0.0, TWO_PI, size=(m, d))
        return cls(pts, {"kind": "seeded", "seed": seed, "draw_index": draw_index})

    @classmethod
    def equispaced(cls, n: int, d: int = 1):
        """Tensor grid with n points per dimension, lexicographic order.

        Grids above ``GRID_POINT_CAP`` points raise ``GridTooCoarseError``.
        """
        n, d = _integer_argument("n", n, 1), _integer_argument("d", d, 1)
        return cls(tensor_grid_points(n, d), {"kind": "equispaced", "n_per_dim": n})

    def append(self, other: "PointSet") -> "PointSet":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch when appending point sets")
        pts = np.concatenate([self.points, other.points], axis=0)
        return PointSet(pts, {"kind": "union",
                              "parts": [self.provenance, other.provenance]})

    def to_json(self):
        return {
            "provenance": self.provenance,
            "points": self.points.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(np.asarray(obj["points"], dtype=float),
                   dict(obj.get("provenance", {"kind": "explicit"})))

    def save(self, path):
        jsonio.dump_path(self.to_json(), path)

    @classmethod
    def load(cls, path):
        return cls.from_json(jsonio.load_path(path))
