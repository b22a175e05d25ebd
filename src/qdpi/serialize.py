"""Stable JSON file formats for operators and maps.

The emitter is ``json.dumps`` and is canonical: fixed field order (insertion
order of the writer), ", " and ": " separators, ASCII output, and each float
written as its shortest round-trip repr (``0.1``, ``1.0``, ``-0.0``: a float
stays a float and zero keeps its sign). Reading a file back gives the same
doubles, so save -> load -> save is byte-identical, which is what makes
witness replay exact.

Infinities never appear as raw JSON numbers; fields that can be infinite are
encoded as the strings "+inf" / "-inf" by ``encode_extended``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    as_matrix,
    psd,
    require_hermitian,
    require_projector,
)
from . import channels
from .channels import SuperOperator, _is_number, from_choi, from_kraus, from_matrix

__all__ = [
    "FormatError",
    "SCHEMA_VERSION",
    "canonical_json",
    "save_json",
    "load_json",
    "encode_extended",
    "decode_extended",
    "matrix_to_dict",
    "matrix_from_dict",
    "channel_to_dict",
    "choi_to_dict",
    "channel_from_dict",
]

SCHEMA_VERSION = "1"

MATRIX_KINDS = ("general", "hermitian", "psd", "density", "projector")


class FormatError(ValueError):
    """A file or payload does not conform to the declared schema."""


def _checked_payload(d, what: str, fields=(), versioned: bool = True) -> None:
    """Raise a FormatError unless d is an object, of SCHEMA_VERSION when its format is versioned,
    holding every field of fields."""
    if not isinstance(d, dict):
        raise FormatError(f"{what} payload must be an object")
    if versioned and d.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {d.get('schema_version')!r}")
    for name in fields:
        if name not in d:
            raise FormatError(f"{what} payload is missing field {name!r}")


def _plain(obj):
    """The Python value of a NumPy scalar, for the encoder; anything else is not serializable."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    try:
        return json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise FormatError("non-finite floats must be encoded with encode_extended") from exc
    except TypeError as exc:
        raise FormatError(str(exc)) from exc


def save_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def _reject_constant(name: str):
    raise FormatError(f"raw {name} is not legal; infinities are encoded as \"+inf\"/\"-inf\"")


def load_json(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"not an ASCII file: {exc}") from exc


def encode_extended(x: float):
    """Extended real -> JSON value: finite number, or "+inf" / "-inf"."""
    x = float(x)
    if math.isnan(x):
        raise FormatError("NaN is not a legal extended-real value")
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return x


def decode_extended(v) -> float:
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if _is_number(v, (int, float)):
        x = float(v)
        if math.isnan(x) or math.isinf(x):
            raise FormatError("raw non-finite numbers are not legal; use \"+inf\"/\"-inf\"")
        return x
    raise FormatError(f"not an extended-real encoding: {v!r}")


def _real_rows(A: np.ndarray) -> list:
    return [[float(x) for x in row] for row in A]


def _matrix_payload(M: np.ndarray) -> dict:
    return {"re": _real_rows(M.real), "im": _real_rows(M.imag)}


def _matrix_from_payload(payload: dict, rows: int, cols: int, what: str) -> np.ndarray:
    try:
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: malformed re/im arrays") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise FormatError(
            f"{what}: expected {rows}x{cols} arrays, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise FormatError(f"{what}: entries must be finite")
    # set the parts, as re + 1j * im would turn a -0.0 into +0.0
    M = np.empty((rows, cols), dtype=np.complex128)
    M.real, M.imag = re, im
    return M


def _validate_kind(M, kind: str, cfg: ToleranceConfig):
    """Check M (an ndarray or a ValidatedPSD, which is not diagonalized again) against kind.

    Returns the validated value: a ValidatedPSD for the psd and density kinds, else M.
    """
    try:
        if kind == "general":
            pass
        elif kind == "hermitian":
            require_hermitian(M, cfg)
        elif kind in ("psd", "density"):
            M = psd(M, cfg)
            trace = float(np.trace(M.matrix).real)
            if kind == "density" and abs(trace - 1.0) > 1e-9:
                raise DomainError(f"trace is {trace:.12g}, not 1")
        elif kind == "projector":
            require_projector(M, cfg)
        else:
            raise FormatError(f"unknown matrix kind {kind!r}")
    except DomainError as exc:
        raise FormatError(f"matrix does not satisfy declared kind {kind!r}: {exc}") from exc
    return M


def matrix_to_dict(M, kind: str = "general", cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Payload of an ndarray or a ValidatedPSD, validated against ``kind``."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise FormatError(f"matrix files hold square matrices, got shape {A.shape}")
    _validate_kind(M, kind, cfg)
    return _checked_matrix_dict(A, kind)


def _checked_matrix_dict(A: np.ndarray, kind: str) -> dict:
    """``matrix_to_dict`` of a square ndarray its caller has already checked against ``kind``."""
    out = {"schema_version": SCHEMA_VERSION, "kind": kind, "dim": A.shape[0]}
    out.update(_matrix_payload(A))
    return out


def matrix_from_dict(d: dict, cfg: ToleranceConfig = DEFAULT_TOL):
    """Parse and re-validate a matrix payload: (the stored matrix unmodified, its validated value)."""
    _checked_payload(d, "matrix")
    kind = d.get("kind")
    if kind not in MATRIX_KINDS:
        raise FormatError(f"unknown matrix kind {kind!r}")
    dim = d.get("dim")
    if not _is_number(dim, int) or dim < 1:
        raise FormatError(f"dim must be a positive integer, got {dim!r}")
    M = _matrix_from_payload(d, dim, dim, "matrix file")
    return M, _validate_kind(M, kind, cfg)


def channel_to_dict(phi: SuperOperator) -> dict:
    """Serialize a map in the form it holds.

    Its family recipe when it has one, else its Kraus operators, else its
    representation matrix. The form determines the evaluation path on
    reload, matching the original map's path bit for bit.
    """
    out = {"schema_version": SCHEMA_VERSION, "dim_in": phi.dim_in, "dim_out": phi.dim_out}
    if phi.descriptor is not None:
        out["representation"] = "family"
        out["family"] = phi.descriptor["family"]
        out["params"] = phi.descriptor["params"]
        out["seed"] = phi.descriptor.get("seed")
    elif phi.kraus is not None:
        out["representation"] = "kraus"
        out["kraus"] = [_matrix_payload(K) for K in phi.kraus]
    else:
        out["representation"] = "superop_matrix"
        out.update(_matrix_payload(phi.matrix))
    return out


def choi_to_dict(phi: SuperOperator) -> dict:
    """Serialize a map as its Choi matrix, which reloads certified by the exact Choi test."""
    out = {"schema_version": SCHEMA_VERSION, "dim_in": phi.dim_in, "dim_out": phi.dim_out,
           "representation": "choi"}
    out.update(_matrix_payload(channels.choi(phi)))
    return out


def channel_from_dict(d: dict, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
    rep = d.get("representation") if isinstance(d, dict) else None
    _checked_payload(d, "channel", ("family",) if rep == "family" else ())
    dim_in, dim_out = d.get("dim_in"), d.get("dim_out")
    for name, value in (("dim_in", dim_in), ("dim_out", dim_out)):
        if not _is_number(value, int) or value < 1:
            raise FormatError(f"{name} must be a positive integer, got {value!r}")
    try:
        if rep == "family":
            phi = channels.construct(d["family"], d.get("params"), d.get("seed"))
        elif rep == "kraus":
            payloads = d.get("kraus")
            if not isinstance(payloads, list) or not payloads:
                raise FormatError("kraus payload must be a nonempty list")
            kraus = [
                _matrix_from_payload(p, dim_out, dim_in, f"kraus[{i}]")
                for i, p in enumerate(payloads)
            ]
            phi = from_kraus(kraus)
        elif rep == "superop_matrix":
            M = _matrix_from_payload(d, dim_out * dim_out, dim_in * dim_in, "superop matrix")
            phi = from_matrix(M)
        elif rep == "choi":
            C = _matrix_from_payload(d, dim_out * dim_in, dim_out * dim_in, "choi matrix")
            phi = from_choi(C, dim_in, cfg)
        else:
            raise FormatError(f"unknown channel representation {rep!r}")
    except DomainError as exc:
        raise FormatError(f"channel payload invalid: {exc}") from exc
    if phi.dim_in != dim_in or phi.dim_out != dim_out:
        raise FormatError(
            f"declared dims ({dim_in}, {dim_out}) do not match "
            f"constructed map ({phi.dim_in}, {phi.dim_out})"
        )
    return phi
