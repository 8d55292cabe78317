"""Input documents, hypothesis validation, and report assembly.

The input document (JSON) names a dimension and a map of matrices whose
entries may be numbers, exact rational strings ``"p/q"``, or decimal
strings.  Reports are plain dict trees; the machine serializer prints
every float with 17 significant digits so that documents round-trip
losslessly and re-runs are byte-identical.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import __version__, numeric, spectral, structure
from .collection import MatrixCollection
from .exceptions import ParseError


@dataclass(frozen=True)
class ToleranceSettings:
    """The knobs every analysis threads through, echoed into reports."""

    tol: float = 1e-10          # iteration convergence / agreement
    modulus_tol: float = 1e-8   # eigenvalue clustering and "modulus one"
    rho_tol: float = 1e-8       # acceptance band for spectral radius one
    max_iter: int = 100_000
    bound: float = 1e12

    def as_dict(self):
        return {
            "tol": self.tol,
            "modulus_tol": self.modulus_tol,
            "rho_tol": self.rho_tol,
            "max_iter": self.max_iter,
            "bound": self.bound,
        }


def parse_collection_document(document):
    """CollectionSpec (parsed JSON) -> (MatrixCollection, options dict)."""
    if not isinstance(document, dict):
        raise ParseError("input document must be a JSON object")
    try:
        dimension = int(document["dimension"])
        matrices = document["matrices"]
    except KeyError as exc:
        raise ParseError(f"input document missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"'dimension' is not an integer: {exc}") from exc
    if not isinstance(matrices, dict) or not matrices:
        raise ParseError("'matrices' must be a nonempty object of named matrices")
    names = []
    mats = []
    for name, entries in matrices.items():
        M = numeric.as_square_matrix(entries, what=f"matrix {name!r}")
        if M.shape[0] != dimension:
            raise ParseError(
                f"matrix {name!r} is {M.shape[0]}x{M.shape[0]}, "
                f"declared dimension is {dimension}"
            )
        bad = numeric.first_negative_entry(M)
        if bad is not None:
            raise ParseError(
                f"matrix {name!r} entry {bad} = {M[bad]} is negative"
            )
        names.append(name)
        mats.append(M)
    collection = MatrixCollection(names=tuple(names), matrices=tuple(mats))
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("'options' must be an object")
    return collection, options


def load_collection(path_or_stream):
    if hasattr(path_or_stream, "read"):
        text = path_or_stream.read()
    else:
        with open(path_or_stream, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc
    return parse_collection_document(document)


def _option(merged, key, default, convert):
    value = merged.get(key, default)
    try:
        number = None if isinstance(value, bool) else convert(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not 0 < number < float("inf"):
        raise ParseError(f"option {key} = {value!r} is not a finite positive number")
    return number


def settings_from_options(options, overrides=None):
    """Document options merged with non-None overrides (CLI flags win).

    Every tolerance and ``bound`` must be a finite positive number and
    ``max_iter`` at least one; anything else is a :class:`ParseError`.
    """
    merged = dict(options or {})
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})
    base = ToleranceSettings()
    return ToleranceSettings(**{
        key: _option(merged, key, getattr(base, key),
                     int if key == "max_iter" else float)
        for key in base.as_dict()
    })


def validate(collection, settings=None):
    """Per-matrix checks and the structural hypothesis verdict.

    The collection qualifies when every spectral radius sits within
    ``rho_tol`` of one and, structurally: a single matrix always; a pair
    that partially commutes, quasi-commutes or has a rank-one commutator;
    three or more matrices only when quasi-commuting.  Products of every
    two-letter word are probed as a diagnostic: a product radius above
    one warns that word limits may diverge off the common eigenvectors.
    """
    settings = settings or ToleranceSettings()
    per_matrix = []
    for name, M in zip(collection.names, collection.matrices):
        rho = spectral.spectral_radius(M)
        per_matrix.append({
            "name": name,
            "nonnegative": numeric.is_nonnegative(M),
            "rho": rho,
            "rho_ok": abs(rho - 1.0) <= settings.rho_tol,
        })
    rho_ok = all(row["rho_ok"] for row in per_matrix)
    nonneg_ok = all(row["nonnegative"] for row in per_matrix)

    pairs = []
    for r in range(collection.N):
        for s in range(r + 1, collection.N):
            cls = structure.classify_pair(
                collection.matrices[r], collection.matrices[s]
            )
            pairs.append({
                "pair": [collection.names[r], collection.names[s]],
                "commuting": cls.commuting,
                "quasi_commuting": cls.quasi_commuting,
                "laffey": cls.laffey,
                "commutator_rank": cls.commutator_rank,
                "shemesh_dimension": cls.shemesh_dimension,
            })

    if collection.N == 1:
        classification = "single"
        structural_ok = True
    else:
        all_commuting = all(p["commuting"] for p in pairs)
        quasi = all(p["quasi_commuting"] for p in pairs)
        if all_commuting:
            classification = "commuting"
        elif quasi:
            classification = "quasi-commuting"
        elif collection.N == 2 and pairs[0]["laffey"]:
            classification = "laffey"
        elif collection.N == 2 and pairs[0]["shemesh_dimension"] >= 1:
            classification = "partially-commuting"
        else:
            classification = "none"
        if collection.N == 2:
            structural_ok = classification != "none"
        else:
            structural_ok = all_commuting or quasi

    warnings_list = []
    for r in range(collection.N):
        for s in range(collection.N):
            if r == s:
                continue
            product = numeric.mat_mul(collection.matrices[s], collection.matrices[r])
            rho = spectral.spectral_radius(product)
            if rho > 1.0 + settings.rho_tol:
                word = collection.names[r] + collection.names[s]
                warnings_list.append(
                    f"rho(A_w) = {rho:.12g} > 1 for the two-letter word {word}"
                )

    return {
        "per_matrix": per_matrix,
        "pair_classifications": pairs,
        "classification": classification,
        "nonnegative_ok": nonneg_ok,
        "rho_ok": rho_ok,
        "hypotheses_met": bool(structural_ok and rho_ok and nonneg_ok),
        "warnings": warnings_list,
    }


# ---------------------------------------------------------------------------
# serialization helpers


def complex_to_doc(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def vector_to_doc(v):
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return [complex_to_doc(z) for z in v]
    return [float(x) for x in v]


def matrix_to_doc(M):
    return [vector_to_doc(row) for row in np.asarray(M)]


def eigensystem_to_doc(system):
    return {
        "d": system.d,
        "kappa": system.kappa,
        "vectors": [vector_to_doc(v) for v in system.vectors],
        "lambda_table": matrix_to_doc(system.lambda_table),
        "s2_pairs": [list(p) for p in system.s2_pairs],
    }


def _format_float(x):
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def dumps_machine(document):
    """Serialize a report dict to JSON with 17-significant-digit floats.

    A small recursive writer instead of ``json.dumps`` because the float
    format must be pinned for byte-reproducible reports.
    """
    pieces = []

    def emit(obj):
        if obj is None:
            pieces.append("null")
        elif isinstance(obj, bool):
            pieces.append("true" if obj else "false")
        elif isinstance(obj, (int, np.integer)):
            pieces.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            pieces.append(_format_float(float(obj)))
        elif isinstance(obj, str):
            pieces.append(json.dumps(obj))
        elif isinstance(obj, (list, tuple)):
            pieces.append("[")
            for i, item in enumerate(obj):
                if i:
                    pieces.append(",")
                emit(item)
            pieces.append("]")
        elif isinstance(obj, dict):
            pieces.append("{")
            for i, (key, value) in enumerate(obj.items()):
                if i:
                    pieces.append(",")
                pieces.append(json.dumps(str(key)))
                pieces.append(":")
                emit(value)
            pieces.append("}")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    emit(document)
    return "".join(pieces)


def render_human(document, indent=0):
    """Plain indented table view of the same report tree."""
    lines = []
    pad = "  " * indent

    def fmt(value):
        if isinstance(value, float):
            return format(value, ".12g")
        return str(value)

    if isinstance(document, dict):
        if set(document.keys()) == {"re", "im"}:
            return [pad + f"{fmt(document['re'])} + {fmt(document['im'])}i"]
        for key, value in document.items():
            if isinstance(value, (dict, list)):
                lines.append(pad + f"{key}:")
                lines.extend(render_human(value, indent + 1))
            else:
                lines.append(pad + f"{key}: {fmt(value)}")
    elif isinstance(document, list):
        scalar = all(not isinstance(v, (dict, list)) for v in document)
        if scalar:
            lines.append(pad + "[" + ", ".join(fmt(v) for v in document) + "]")
        else:
            for value in document:
                sub = render_human(value, indent + 1)
                if sub:
                    first = sub[0].lstrip()
                    lines.append(pad + "- " + first)
                    lines.extend(sub[1:])
    else:
        lines.append(pad + fmt(document))
    return lines


def base_report(collection, settings, validation):
    return {
        "tool_version": __version__,
        "tolerances": settings.as_dict(),
        "collection": {
            "dimension": collection.n,
            "names": list(collection.names),
        },
        "validation": validation,
        "queries": [],
    }
