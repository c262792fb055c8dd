"""Model files: save and load mean-field models as JSON.

A real tool needs models as *data*, not code.  This module defines a
JSON document format for local models whose rates are
:mod:`repro.meanfield.expressions` trees::

    {
      "format": "repro-meanfield-model",
      "version": 1,
      "states": [
        {"name": "s1", "labels": ["not_infected"]},
        {"name": "s2", "labels": ["infected", "inactive"]},
        {"name": "s3", "labels": ["infected", "active"]}
      ],
      "transitions": [
        {"from": "s1", "to": "s2",
         "rate": {"op": "mul",
                  "left": {"op": "const", "value": 0.9},
                  "right": {"op": "guarded_div",
                            "left": {"op": "occupancy", "index": 2},
                            "right": {"op": "occupancy", "index": 0},
                            "floor": 1e-12}}},
        {"from": "s2", "to": "s1", "rate": {"op": "const", "value": 0.1}}
      ]
    }

Constant rates may be written as plain numbers (``"rate": 0.1``) for
brevity.  ``mfcsl --model-file model.json …`` consumes these documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.exceptions import (
    InvalidOccupancyError,
    InvalidRateError,
    InvalidStateError,
    ModelError,
)
from repro.meanfield.expressions import Expression, from_dict
from repro.meanfield.local_model import LocalModel
from repro.meanfield.overall_model import MeanFieldModel

FORMAT_NAME = "repro-meanfield-model"
FORMAT_VERSION = 1


def model_to_dict(model: MeanFieldModel) -> Dict[str, Any]:
    """Serialize a mean-field model whose rates are all expressions.

    Raises
    ------
    ModelError
        If any transition rate is an opaque Python callable (only
        :class:`~repro.meanfield.expressions.Expression` rates and plain
        constants are serializable).
    """
    local = model.local
    transitions = []
    for tr in local.transitions:
        rate = tr.rate
        if isinstance(rate, Expression):
            rate_doc: Any = rate.to_dict()
        elif tr.constant:
            # Constant rates were normalized into closures; evaluating at
            # any point recovers the constant.
            rate_doc = float(rate(np.zeros(local.num_states), 0.0))
        else:
            raise ModelError(
                f"transition {local.state_name(tr.source)!r} -> "
                f"{local.state_name(tr.target)!r} has an opaque callable "
                "rate; use repro.meanfield.expressions to make the model "
                "serializable"
            )
        transitions.append(
            {
                "from": local.state_name(tr.source),
                "to": local.state_name(tr.target),
                "rate": rate_doc,
            }
        )
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "states": [
            {"name": name, "labels": sorted(local.labels_of(name))}
            for name in local.states
        ],
        "transitions": transitions,
    }


def model_from_dict(data: Dict[str, Any]) -> MeanFieldModel:
    """Rebuild a mean-field model from its document form."""
    if not isinstance(data, dict):
        raise ModelError("model document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise ModelError(
            f"not a {FORMAT_NAME} document (format={data.get('format')!r})"
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported model format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    states_doc = data.get("states")
    if not isinstance(states_doc, list) or not states_doc:
        raise ModelError("model document needs a non-empty 'states' list")
    names = []
    labels = {}
    for entry in states_doc:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ModelError(f"malformed state entry: {entry!r}")
        name = str(entry["name"])
        names.append(name)
        labels[name] = [str(l) for l in entry.get("labels", [])]
    known = set(names)
    transitions = {}
    for entry in data.get("transitions", []):
        if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
            raise ModelError(f"malformed transition entry: {entry!r}")
        source, target = str(entry["from"]), str(entry["to"])
        # Validate at load time, naming the offending field, instead of
        # letting LocalModel fail later with a context-free message.
        if source not in known:
            raise InvalidStateError(
                f"transition field 'from' names unknown state {source!r} "
                f"(known states: {sorted(known)})"
            )
        if target not in known:
            raise InvalidStateError(
                f"transition field 'to' names unknown state {target!r} "
                f"(known states: {sorted(known)})"
            )
        rate_doc = entry.get("rate")
        if isinstance(rate_doc, bool):
            raise InvalidRateError(
                f"transition {source!r} -> {target!r}: field 'rate' must "
                f"be a number or expression dict, got {rate_doc!r}"
            )
        if isinstance(rate_doc, (int, float)):
            value = float(rate_doc)
            if not math.isfinite(value):
                raise InvalidRateError(
                    f"transition {source!r} -> {target!r}: field 'rate' "
                    f"is not finite ({value!r})"
                )
            if value < 0.0:
                raise InvalidRateError(
                    f"transition {source!r} -> {target!r}: field 'rate' "
                    f"is negative ({value!r})"
                )
            rate: Any = value
        elif isinstance(rate_doc, dict):
            if rate_doc.get("op") == "const":
                const = rate_doc.get("value")
                if not isinstance(const, (int, float)) or isinstance(
                    const, bool
                ) or not math.isfinite(float(const)):
                    raise InvalidRateError(
                        f"transition {source!r} -> {target!r}: constant "
                        f"rate expression has non-finite or non-numeric "
                        f"'value' ({const!r})"
                    )
                if float(const) < 0.0:
                    raise InvalidRateError(
                        f"transition {source!r} -> {target!r}: constant "
                        f"rate expression is negative ({const!r})"
                    )
            rate = from_dict(rate_doc)
        else:
            raise InvalidRateError(
                f"transition {source!r} -> {target!r}: field 'rate' must "
                f"be a number or expression dict, got {rate_doc!r}"
            )
        key = (source, target)
        if key in transitions:
            raise ModelError(f"duplicate transition {key} in model document")
        transitions[key] = rate
    _validate_initial_field(data.get("initial"), len(names))
    local = LocalModel(names, transitions, labels)
    return MeanFieldModel(local)


def _validate_initial_field(initial: Any, num_states: int) -> None:
    """Check the document's optional ``initial`` occupancy vector.

    The field is advisory (checking commands take the occupancy on the
    command line) but a malformed vector in the file is a bug worth
    catching where the file is read.
    """
    if initial is None:
        return
    if not isinstance(initial, list):
        raise InvalidOccupancyError(
            f"field 'initial' must be a list of {num_states} occupancy "
            f"fractions, got {initial!r}"
        )
    if len(initial) != num_states:
        raise InvalidOccupancyError(
            f"field 'initial' has {len(initial)} entries for "
            f"{num_states} states"
        )
    values = []
    for i, x in enumerate(initial):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or (
            not math.isfinite(float(x))
        ):
            raise InvalidOccupancyError(
                f"field 'initial' entry {i} is not a finite number: {x!r}"
            )
        if float(x) < 0.0:
            raise InvalidOccupancyError(
                f"field 'initial' entry {i} is negative: {x!r}"
            )
        values.append(float(x))
    total = sum(values)
    if abs(total - 1.0) > 1e-9:
        raise InvalidOccupancyError(
            f"field 'initial' must sum to 1, got {total!r}"
        )


def canonical_model_json(document: Dict[str, Any]) -> str:
    """The canonical JSON rendering of a model document.

    Sorted keys, no insignificant whitespace — byte-identical for
    structurally equal documents regardless of the key order or
    formatting they arrived with, which is what makes
    :func:`model_hash` stable across processes and restarts.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def model_hash(
    model: MeanFieldModel, *, fallback: Optional[str] = None
) -> str:
    """Content hash of a model — the cache-key half of the serving layer.

    Serializes the model to its canonical document
    (:func:`model_to_dict` then :func:`canonical_model_json`) and
    SHA-256 hashes the bytes, so two structurally identical models —
    loaded from differently-formatted files, or one built in code and
    one loaded from disk — hash equal, and the hash is stable across
    processes, so a response's ``model_hash`` names the same model
    whichever server instance answered it.

    Models with opaque callable rates cannot be serialized; for those,
    ``fallback`` (e.g. a registry name like ``"builtin:diurnal"``) is
    hashed instead — callers guarantee the fallback string denotes one
    fixed model.  Without a fallback the
    :class:`~repro.exceptions.ModelError` from serialization propagates.
    """
    try:
        payload = canonical_model_json(model_to_dict(model))
    except ModelError:
        if fallback is None:
            raise
        payload = f"opaque-model:{fallback}"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def save_model(model: MeanFieldModel, path: Union[str, Path]) -> None:
    """Write a model document to ``path`` (pretty-printed JSON)."""
    document = model_to_dict(model)
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def load_model(path: Union[str, Path]) -> MeanFieldModel:
    """Read a model document from ``path``."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in model file {path}: {exc}") from exc
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data)
