"""Tensor file parsing and stable report serialization.

The on-disk format is a single JSON object: fields ``m``, ``n``,
``encoding`` ("dense" or "form"), and ``entries``.  Dense entries form a
flat array of n^m values in C order; each value is a real number, a pair
[re, im], or a Gaussian-rational string like "2/3" or "1/2-3i" (strings
and integers are kept exactly and enable the exact-arithmetic routines).
Form entries are term records {"exponents": [...], "coeff": value} of a
degree-m polynomial, converted to the corresponding symmetric tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exact import GaussianRational
from .spectra import SpectralReport
from .tensor import PolyForm, Tensor, tensor_from_form

__all__ = [
    "LoadedTensor",
    "parse_tensor_json",
    "load_tensor",
    "report_to_json",
    "sig15",
    "complex_pair",
]


# n^m above this is refused before anything is allocated: 160 MB of
# complex entries, far above any tensor a total-degree solve can take
# (and numpy arrays have at most 64 axes, so m <= 64)
MAX_ENTRIES = 10**7


@dataclass(frozen=True)
class LoadedTensor:
    """A parsed tensor plus the source form when one was given."""

    tensor: Tensor
    form: PolyForm | None = None


def _parse_value(v) -> tuple:
    """One entry -> (complex value, exact GaussianRational or None)."""
    if isinstance(v, bool):
        raise ValueError("boolean is not a tensor entry")
    try:
        if isinstance(v, int):
            return complex(v), GaussianRational.coerce(v)
        if isinstance(v, float):
            return complex(v), None
        if isinstance(v, str):
            g = GaussianRational.from_string(v)
            return g.to_complex(), g
        if (isinstance(v, (list, tuple)) and len(v) == 2
                and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                        for c in v)):
            re, im = v
            exact = (GaussianRational(re, im)
                     if isinstance(re, int) and isinstance(im, int) else None)
            return complex(re, im), exact
    except OverflowError as e:
        raise ValueError("tensor entry beyond float range") from e
    raise ValueError(f"bad tensor entry {v!r}")


def parse_tensor_json(text: str) -> LoadedTensor:
    """Parse the JSON tensor format; raises ValueError on any defect."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed tensor file: {e}") from e
    if not isinstance(obj, dict):
        raise ValueError("tensor file must hold a JSON object")
    try:
        m, n = obj["m"], obj["n"]
        encoding = obj["encoding"]
        entries = obj["entries"]
    except KeyError as e:
        raise ValueError(f"tensor file is missing field {e}") from e
    if not isinstance(m, int) or not isinstance(n, int) \
            or isinstance(m, bool) or isinstance(n, bool):
        raise ValueError("m and n must be integers")
    if not (2 <= m <= 64 and n >= 1 and n**m <= MAX_ENTRIES):
        raise ValueError(f"need 2 <= m <= 64, n >= 1 and n^m <= {MAX_ENTRIES}, "
                         f"got m={m}, n={n}")

    if encoding == "dense":
        if not isinstance(entries, list) or len(entries) != n**m:
            raise ValueError(f"dense encoding needs {n**m} entries")
        values, exacts = [], []
        for v in entries:
            z, g = _parse_value(v)
            values.append(z)
            exacts.append(g)
        exact = tuple(exacts) if all(g is not None for g in exacts) else None
        return LoadedTensor(Tensor.from_flat(m, n, values, exact=exact))

    if encoding == "form":
        if not isinstance(entries, list):
            raise ValueError("form encoding needs a term list")
        terms: dict[tuple, complex] = {}
        for item in entries:
            if not isinstance(item, dict) or "exponents" not in item \
                    or "coeff" not in item:
                raise ValueError(f"bad form term {item!r}")
            expo = item["exponents"]
            if not isinstance(expo, list) or not all(
                    isinstance(e, int) and not isinstance(e, bool) and e >= 0
                    for e in expo):
                raise ValueError(f"form exponents must be a list of non-negative "
                                 f"integers, got {expo!r}")
            expo = tuple(expo)
            z, _ = _parse_value(item["coeff"])
            terms[expo] = terms.get(expo, 0j) + z
        form = PolyForm(m, n, terms)   # validates arity and degrees
        return LoadedTensor(tensor_from_form(form), form)

    raise ValueError(f"unknown encoding {encoding!r}")


def load_tensor(path) -> LoadedTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor_json(fh.read())


def sig15(x: float) -> float:
    """Round to 15 significant digits, the machine-output precision."""
    x = float(x)
    if x == 0.0:
        return 0.0
    return float(f"{x:.15g}")


def complex_pair(z) -> list:
    z = complex(z)
    return [sig15(z.real), sig15(z.imag)]


def report_to_json(report: SpectralReport) -> str:
    """Serialize a spectral report; byte-stable for fixed input and seed."""
    classes = []
    for c in report.classes:
        rep = c.representative
        classes.append({
            "lambda": complex_pair(rep.lam),
            "x": [complex_pair(z) for z in rep.x],
            "multiplicity": int(c.multiplicity),
            "isotropic": bool(c.isotropic),
            "normalized_lambdas": [complex_pair(v)
                                   for v in c.normalized_lambdas],
            "residual": sig15(rep.residual if rep.residual is not None
                              else 0.0),
        })
    obj = {
        "summary": {
            "m": report.m,
            "n": report.n,
            "expected_count": report.expected_count,
            "total_multiplicity": report.total_multiplicity,
            "positive_dimensional": report.positive_dimensional,
            "failed_paths": report.failed_paths,
        },
        "classes": classes,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
