"""JSON (de)serialisation of model files.

Three document shapes are accepted, discriminated by "type":

  {"type": "levy", "dim": d, "b": [...], "c": [[...]],
   "truncation": ["unit_clip", ...],
   "jumps": [{"kind": "atoms", "atoms": [{"x": [...], "intensity": ...}]},
             {"kind": "gaussian_push", "lambda": ..., "mean": [...],
              "cov": [[...]]}]}

  {"type": "discrete", "support": [{"x": [...], "p": ...}]}

  {"type": "margrabe", "spot1": ..., "spot2": ..., "maturity": ...,
   "diffusion": {"sigma1_sq": ..., "sigma12": ..., "sigma2_sq": ...},
   "jump": {"lambda": ..., "mean": [m1, m2], "cov": [[...], [...]]},
   "defaults": [{"x": [x1, x2], "intensity": ...}]}

Complex numbers appear as "a+bi" strings; serialisation is full-precision so
round trips are exact.
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .models import (
    DiscreteModel,
    FiniteAtoms,
    GaussianPush,
    JumpMeasure,
    LevyTriplet,
    SumMeasure,
    TruncationSpec,
    sum_measure,
)
from .pricing import MargrabeModel

AnyModel = Union[LevyTriplet, DiscreteModel, MargrabeModel]


class ModelFormatError(ValueError):
    """The model document does not match the schema."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ModelFormatError(f"missing key {key!r} in {where}")
    return doc[key]


def _fields(doc, known: tuple, where: str):
    """doc, with any key of a JSON object outside ``known`` refused."""
    if isinstance(doc, dict):
        _reject_unknown_keys(doc, known, where)
    return doc


def _not_a_number(value) -> bool:
    """True if value is, or a list holds at any depth, a boolean or a string."""
    if isinstance(value, (list, tuple)):
        return any(map(_not_a_number, value))
    return isinstance(value, (bool, str))


def _number(value, where: str):
    """value, where the schema has a number or a list of numbers."""
    if _not_a_number(value):
        raise ModelFormatError(f"{where} must be a number or a list of numbers, got {value!r}")
    return value


def _field(doc: dict, key: str, where: str):
    """The number field ``key`` of doc, required."""
    return _number(_require(doc, key, where), f"{where} {key!r}")


def _dim(doc: dict) -> int:
    dim = _require(doc, "dim", "levy model")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ModelFormatError(f"levy model 'dim' must be an integer >= 1, got {dim!r}")
    return dim


def _parse_measure(entries, dim: int) -> JumpMeasure:
    parts = []
    for k, entry in enumerate(entries or []):
        where = f"jumps[{k}]"
        kind = _require(entry, "kind", where)
        if kind == "atoms":
            atoms = _require(_fields(entry, ("kind", "atoms"), where), "atoms", where)
            for i, a in enumerate(atoms):
                _fields(a, ("x", "intensity"), f"{where} atoms[{i}]")
            pts = np.array([_number(a["x"], f"{where} atoms[{i}] 'x'") for i, a in enumerate(atoms)],
                           dtype=float).reshape(-1, dim)
            lam = np.array([_number(a["intensity"], f"{where} atoms[{i}] 'intensity'")
                            for i, a in enumerate(atoms)], dtype=float)
            parts.append(FiniteAtoms(pts, lam))
        elif kind == "gaussian_push":
            _fields(entry, ("kind", "lambda", "mean", "cov"), where)
            parts.append(
                GaussianPush(
                    float(_field(entry, "lambda", where)),
                    np.asarray(_field(entry, "mean", where), dtype=float),
                    np.asarray(_field(entry, "cov", where), dtype=float),
                )
            )
        else:
            raise ModelFormatError(f"unknown jump measure kind {kind!r}")
    return sum_measure(parts, dim)


def parse_model(doc: dict) -> AnyModel:
    """Build a model object from a parsed JSON document.

    A key outside the schema, at any level, is refused, and so is a boolean
    or a string where the schema has a number."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    kind = _require(doc, "type", "model")
    try:
        if kind == "levy":
            _fields(doc, ("type", "dim", "b", "c", "truncation", "jumps"), "levy model")
            dim = _dim(doc)
            trunc = TruncationSpec.from_names(_require(doc, "truncation", "levy model"))
            return LevyTriplet(
                dim,
                np.asarray(_field(doc, "b", "levy model"), dtype=float),
                np.asarray(_field(doc, "c", "levy model"), dtype=float),
                _parse_measure(doc.get("jumps"), dim),
                trunc,
            )
        if kind == "discrete":
            where = "discrete model"
            support = _require(_fields(doc, ("type", "support"), where), "support", where)
            for i, s in enumerate(support):
                _fields(s, ("x", "p"), f"support[{i}]")
            return DiscreteModel([_number(s["x"], f"support[{i}] 'x'") for i, s in enumerate(support)],
                                 [_number(s["p"], f"support[{i}] 'p'") for i, s in enumerate(support)])
        if kind == "margrabe":
            where = "margrabe model"
            _fields(doc, ("type", "spot1", "spot2", "maturity", "diffusion", "jump", "defaults"), where)
            diff = _require(doc, "diffusion", where)
            _fields(diff, ("sigma1_sq", "sigma12", "sigma2_sq"), "diffusion")
            jump = _fields(doc.get("jump") or {}, ("lambda", "mean", "cov"), "jump")
            defaults = doc.get("defaults", [])
            for i, a in enumerate(defaults):
                _fields(a, ("x", "intensity"), f"defaults[{i}]")
            defaults = tuple((tuple(_number(a["x"], f"defaults[{i}] 'x'")),
                              float(_number(a["intensity"], f"defaults[{i}] 'intensity'")))
                             for i, a in enumerate(defaults))
            return MargrabeModel(
                spot1=float(_field(doc, "spot1", where)),
                spot2=float(_field(doc, "spot2", where)),
                maturity=float(_field(doc, "maturity", where)),
                sigma1_sq=float(_field(diff, "sigma1_sq", "diffusion")),
                sigma12=float(_field(diff, "sigma12", "diffusion")),
                sigma2_sq=float(_field(diff, "sigma2_sq", "diffusion")),
                jump_intensity=float(_number(jump.get("lambda", 0.0), "jump 'lambda'")),
                jump_mean=tuple(_number(jump.get("mean", (0.0, 0.0)), "jump 'mean'")),
                jump_cov=tuple(map(tuple, _number(jump.get("cov", ((0.0, 0.0), (0.0, 0.0))), "jump 'cov'"))),
                default_atoms=defaults,
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed {kind} model: {exc}") from exc
    raise ModelFormatError(f"unknown model type {kind!r}")


def _atom_list(atoms: FiniteAtoms, weight: str) -> list:
    """One {"x": point, weight: intensity} entry per atom, in atom order."""
    return [{"x": x.tolist(), weight: float(w)} for x, w in zip(atoms.points, atoms.intensities)]


def _serialise_measure(measure: JumpMeasure) -> list:
    if isinstance(measure, FiniteAtoms):
        atoms = _atom_list(measure, "intensity")
        return [{"kind": "atoms", "atoms": atoms}] if atoms else []
    if isinstance(measure, GaussianPush):
        return [
            {
                "kind": "gaussian_push",
                "lambda": measure.intensity,
                "mean": measure.mean.tolist(),
                "cov": measure.cov.tolist(),
            }
        ]
    if isinstance(measure, SumMeasure):
        out = []
        for p in measure.parts:
            out.extend(_serialise_measure(p))
        return out
    raise ModelFormatError(f"cannot serialise measure of type {type(measure).__name__}")


def serialize_model(model: AnyModel) -> dict:
    """Render a model object back to its JSON document."""
    if isinstance(model, LevyTriplet):
        return {
            "type": "levy",
            "dim": model.dim,
            "b": model.b.tolist(),
            "c": model.c.tolist(),
            "truncation": model.truncation.names(),
            "jumps": _serialise_measure(model.jumps),
        }
    if isinstance(model, DiscreteModel):
        return {"type": "discrete", "support": _atom_list(model, "p")}
    if isinstance(model, MargrabeModel):
        return {
            "type": "margrabe",
            "spot1": model.spot1,
            "spot2": model.spot2,
            "maturity": model.maturity,
            "diffusion": {
                "sigma1_sq": model.sigma1_sq,
                "sigma12": model.sigma12,
                "sigma2_sq": model.sigma2_sq,
            },
            "jump": {
                "lambda": model.jump_intensity,
                "mean": list(model.jump_mean),
                "cov": [list(row) for row in model.jump_cov],
            },
            "defaults": [
                {"x": list(x), "intensity": lam} for x, lam in model.default_atoms
            ],
        }
    raise ModelFormatError(f"cannot serialise model of type {type(model).__name__}")


def load_model(path: str) -> AnyModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ModelFormatError(f"model file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path} at line {exc.lineno}: {exc.msg}")
    return parse_model(doc)


#: most points a --v-grid may hold (re count times im count), checked
#: before anything is allocated
MAX_GRID_POINTS = 1_000_000


def _grid_number(value, where: str) -> float:
    """A finite JSON number that is not a boolean, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ModelFormatError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _reject_unknown_keys(doc: dict, known: tuple, where: str) -> None:
    for key in doc:
        if key not in known:
            allowed = ", ".join(repr(k) for k in known)
            raise ModelFormatError(f"{where} has unknown key {key!r}; allowed keys are {allowed}")


def parse_grid(doc: dict) -> np.ndarray:
    """Build a complex grid from {"re": {...}, "im": {...}} axis specs.

    Each axis is {"start": a, "stop": b, "count": n} or a bare number for a
    constant axis; the grid is the cross product, flattened row-major.
    Numbers must be finite and not booleans, counts integers >= 1, and the
    grid at most MAX_GRID_POINTS points.  Any other key, in the grid or in
    an axis, is rejected, so a misspelt axis does not become the constant 0.
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("grid must be a JSON object with 're' and/or 'im' axes")
    _reject_unknown_keys(doc, ("re", "im"), "grid")

    def axis(spec, name):
        """(start, stop, count) of one axis, validated."""
        if spec is None:
            return 0.0, 0.0, 1
        if isinstance(spec, dict):
            where = f"{name} axis"
            _reject_unknown_keys(spec, ("start", "stop", "count"), where)
            start = _grid_number(_require(spec, "start", where), f"{where} 'start'")
            stop = _grid_number(_require(spec, "stop", where), f"{where} 'stop'")
            count = _require(spec, "count", where)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ModelFormatError(f"{where} 'count' must be an integer >= 1, got {count!r}")
            if not math.isfinite(stop - start):
                raise ModelFormatError(f"{where} is wider than the float range ('stop' - 'start' overflows)")
            return start, stop, count
        value = _grid_number(spec, f"{name} axis")
        return value, value, 1

    re_axis, im_axis = axis(doc.get("re"), "re"), axis(doc.get("im"), "im")
    if re_axis[2] * im_axis[2] > MAX_GRID_POINTS:
        raise ModelFormatError(
            f"grid has {re_axis[2]} x {im_axis[2]} points; at most {MAX_GRID_POINTS} are allowed"
        )
    re, im = np.linspace(*re_axis), np.linspace(*im_axis)
    return (re[:, None] + 1j * im[None, :]).ravel()
