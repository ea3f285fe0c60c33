"""JSON round-trips for bodies, functions, matrices, and valuation specs.

Input documents:

    {"type": "polytope", "dim": n, "vertices": [[...], ...]}
    {"type": "pl", "pieces": [{"a": [...], "b": r}, ...]}
    {"type": "two_ball", "dim": n}
    {"type": "ball", "dim": n, "radius": r, "center": [...]}

Valuation specs:

    {"field": "R", "n": 3, "i": 1,
     "B": {"center": [...], "radius": r, "profile": "bump",
           "height": 1.0, "plateau": 0.0},
     "A": [{"atom": {"matrix": ..., "location": [...], "width": w}},
           {"bump_field": {"matrix": ..., "center": [...], "radius": r}}]}

Hermitian matrices serialize as {"field": tag, "data": nested lists}; the
complex case splits into {"re": ..., "im": ...}; quaternionic and
octonionic entries carry their scalar components on the innermost axis.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .algebra import HermitianMatrix
from .convex import PLConvexFunction, Polytope, ball_body, make_two_ball_body
from .valuation import BumpWeight, MatrixAtom, MatrixBump, ValuationSpec

__all__ = [
    "body_to_json",
    "body_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "spec_to_json",
    "spec_from_json",
    "write_json_atomic",
]


def body_to_json(body):
    if isinstance(body, Polytope):
        return {"type": "polytope", "dim": body.dim, "vertices": body.vertices.tolist()}
    if isinstance(body, PLConvexFunction):
        return {
            "type": "pl",
            "pieces": [
                {"a": a.tolist(), "b": float(b)}
                for a, b in zip(body.slopes, body.offsets)
            ],
        }
    raise TypeError(f"cannot serialize {type(body).__name__}")


def body_from_json(doc):
    kind = doc.get("type")
    if kind == "polytope":
        verts = np.asarray(doc["vertices"], dtype=float)
        if "dim" in doc and verts.shape[1] != int(doc["dim"]):
            raise ValueError("vertex dimension disagrees with 'dim'")
        return Polytope(verts)
    if kind == "pl":
        slopes = np.array([p["a"] for p in doc["pieces"]], dtype=float)
        offsets = np.array([p.get("b", 0.0) for p in doc["pieces"]], dtype=float)
        return PLConvexFunction(slopes, offsets)
    if kind == "two_ball":
        return make_two_ball_body(int(doc["dim"]))
    if kind == "ball":
        return ball_body(int(doc["dim"]), float(doc.get("radius", 1.0)), doc.get("center"))
    raise ValueError(f"unknown body type {kind!r}")


def matrix_to_json(m: HermitianMatrix):
    if m.field == "C":
        return {"field": "C", "re": m.data.real.tolist(), "im": m.data.imag.tolist()}
    return {"field": m.field, "data": m.data.tolist()}


def matrix_from_json(doc) -> HermitianMatrix:
    field = doc["field"]
    if field == "C":
        data = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    else:
        data = np.asarray(doc["data"], dtype=float)
    return HermitianMatrix(field, data)


def _bump_to_json(b: BumpWeight):
    return {
        "center": b.center.tolist(),
        "radius": b.radius,
        "profile": "bump",
        "height": b.height,
        "plateau": b.plateau,
    }


def _bump_from_json(doc) -> BumpWeight:
    if doc.get("profile", "bump") != "bump":
        raise ValueError(f"unknown scalar weight profile {doc.get('profile')!r}")
    return BumpWeight(
        np.asarray(doc["center"], dtype=float),
        float(doc["radius"]),
        float(doc.get("height", 1.0)),
        float(doc.get("plateau", 0.0)),
    )


def spec_to_json(spec: ValuationSpec):
    weights = []
    for w in spec.weights:
        if isinstance(w, MatrixAtom):
            weights.append(
                {"atom": {"matrix": matrix_to_json(w.matrix),
                          "location": w.location.tolist(), "width": w.width}}
            )
        else:
            weights.append(
                {"bump_field": {"matrix": matrix_to_json(w.matrix),
                                "center": w.center.tolist(), "radius": w.radius,
                                "plateau": w.plateau, "normalize": w.normalize}}
            )
    return {
        "field": spec.field,
        "n": spec.n,
        "i": spec.degree,
        "B": _bump_to_json(spec.scalar_weight),
        "A": weights,
    }


def spec_from_json(doc) -> ValuationSpec:
    weights = []
    for w in doc.get("A", []):
        if "atom" in w:
            a = w["atom"]
            weights.append(
                MatrixAtom(matrix_from_json(a["matrix"]),
                           np.asarray(a["location"], dtype=float),
                           float(a.get("width", 0.1)))
            )
        elif "bump_field" in w:
            b = w["bump_field"]
            weights.append(
                MatrixBump(matrix_from_json(b["matrix"]),
                           np.asarray(b["center"], dtype=float),
                           float(b["radius"]),
                           float(b.get("plateau", 0.0)),
                           bool(b.get("normalize", False)))
            )
        else:
            raise ValueError("matrix weight must be an 'atom' or a 'bump_field'")
    return ValuationSpec(doc["field"], int(doc["n"]), int(doc["i"]),
                         _bump_from_json(doc["B"]), tuple(weights))


def write_json_atomic(path: str, payload) -> None:
    """Serialize to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
