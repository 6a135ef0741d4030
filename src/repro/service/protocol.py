"""The ``repro-service/1`` request/response protocol.

One schema for every frontend: the CLI subcommands, the asyncio HTTP
server and the load-generator client all speak request/response payloads
defined here, so a spec decided over HTTP and the same spec decided by
``python -m repro decide`` produce **bit-identical** verdict JSON.

Requests
--------

A request is a JSON object::

    {"op": "decide" | "analyze" | "synthesize",
     "task": "<zoo name>" | {<tagged task JSON (repro.io)>},
     "params": {"max_rounds": 2, ...}}

Canonicalization resolves the task spec to a concrete
:class:`~repro.tasks.task.Task` and re-serializes it through
:func:`repro.io.task_to_json`, so the zoo name ``"majority"`` and its
saved JSON file hash to the same content key — the property the
content-addressed verdict cache depends on.

Responses
---------

A response envelope is ``{"schema": "repro-service/1", "key": …, "op":
…, "ok": bool, "cached": bool, …}`` with an op-specific payload:
``verdict`` (``repro-verdict/1``, deterministic — no wall-clock or
node-count noise), ``analysis``, or ``synthesis``; failures carry
``error: {kind, message}`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..io import task_from_json, task_to_json
from ..tasks.task import Task
from .keys import json_hash

#: envelope format identifier; bump the suffix on breaking changes
SCHEMA = "repro-service/1"

#: deterministic verdict payload identifier (shared with ``decide --json``)
VERDICT_SCHEMA = "repro-verdict/1"

#: operations the service understands, with their parameter defaults
OP_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "decide": {"max_rounds": 2},
    "analyze": {"max_rounds": 2},
    "synthesize": {
        "max_rounds": 2,
        "figure7": False,
        "runs": 10,
        "facets_only": False,
    },
}

#: parameter name -> required python type (bool checked before int:
#: ``isinstance(True, int)`` would otherwise let booleans through)
_PARAM_TYPES: Dict[str, type] = {
    "max_rounds": int,
    "figure7": bool,
    "runs": int,
    "facets_only": bool,
}


class ProtocolError(ValueError):
    """A malformed or unresolvable request (HTTP 400 / CLI usage error)."""


@dataclass
class ServiceRequest:
    """One parsed request: operation, task spec and merged parameters."""

    op: str
    task: Union[str, Dict[str, Any]]
    params: Dict[str, Any] = field(default_factory=dict)

    def merged_params(self) -> Dict[str, Any]:
        """Defaults for the op overlaid with the request's parameters."""
        merged = dict(OP_DEFAULTS[self.op])
        merged.update(self.params)
        return merged


def parse_request(payload: Any) -> ServiceRequest:
    """Validate a raw JSON payload into a :class:`ServiceRequest`."""
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OP_DEFAULTS:
        raise ProtocolError(
            f"op must be one of {sorted(OP_DEFAULTS)}, got {op!r}"
        )
    task = payload.get("task")
    if not (isinstance(task, str) and task) and not isinstance(task, dict):
        raise ProtocolError(
            "task must be a zoo name (non-empty string) or a task JSON object"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("params must be an object")
    defaults = OP_DEFAULTS[op]
    for name, value in params.items():
        if name not in defaults:
            raise ProtocolError(
                f"unknown parameter {name!r} for op {op!r}; "
                f"known: {sorted(defaults)}"
            )
        want = _PARAM_TYPES[name]
        ok = (
            isinstance(value, bool)
            if want is bool
            else isinstance(value, int) and not isinstance(value, bool)
        )
        if not ok:
            raise ProtocolError(
                f"parameter {name!r} must be {want.__name__}, got {value!r}"
            )
    if "max_rounds" in params and params["max_rounds"] < 0:
        raise ProtocolError("max_rounds must be non-negative")
    return ServiceRequest(op=op, task=task, params=dict(params))


def canonical_body(req: ServiceRequest, task: Task) -> Dict[str, Any]:
    """The canonical, JSON-safe body a request key hashes.

    ``task`` is the resolved Task re-serialized through the library's
    tagged-JSON encoding, so equal tasks canonicalize equally however
    they were spelled in the request.
    """
    return {
        "op": req.op,
        "params": req.merged_params(),
        "task": task_to_json(task),
    }


def request_key(req: ServiceRequest, task: Task) -> str:
    """Content-addressed cache key of a canonicalized request."""
    return json_hash(canonical_body(req, task))


def task_from_request(req: ServiceRequest) -> Task:
    """Decode an inline task JSON object from a request.

    Zoo-name (string) specs are resolved by the execution layer, which
    owns the registry; this helper covers only the inline-JSON form.
    """
    try:
        return task_from_json(req.task)  # type: ignore[arg-type]
    except Exception as exc:
        raise ProtocolError(f"invalid task JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Verdict JSON (repro-verdict/1) — deterministic, shared with the CLI
# ---------------------------------------------------------------------------


def verdict_to_json(verdict) -> Dict[str, Any]:
    """The deterministic JSON form of a :class:`SolvabilityVerdict`.

    Only replay-stable fields are included — status, certificate, split
    count — never wall-clock timings or host-dependent stats, so the CLI
    and the service emit byte-identical documents for the same spec.
    """
    from ..solvability import Status

    payload: Dict[str, Any] = {
        "schema": VERDICT_SCHEMA,
        "status": verdict.status.value,
        "solvable": verdict.solvable,
        "task": verdict.task.name or None,
        "n_processes": verdict.task.n_processes,
        "splits": verdict.transform.n_splits if verdict.transform else 0,
    }
    if verdict.status is Status.UNSOLVABLE and verdict.obstruction is not None:
        payload["certificate"] = {
            "kind": "obstruction",
            "obstruction": verdict.obstruction.kind,
            "detail": verdict.obstruction.detail,
        }
    elif verdict.status is Status.SOLVABLE:
        if verdict.witness_rounds is not None:
            payload["certificate"] = {
                "kind": "witness-map",
                "rounds": verdict.witness_rounds,
                "chromatic": bool(verdict.witness_chromatic),
            }
        else:
            # two-process tasks can be SOLVABLE by Proposition 5.4 with
            # no explicit witness inside the depth budget
            payload["certificate"] = {"kind": "proposition-5.4"}
    else:
        payload["certificate"] = {"kind": "none"}
    return payload


# ---------------------------------------------------------------------------
# Response envelopes
# ---------------------------------------------------------------------------


def make_response(
    key: str,
    op: str,
    *,
    cached: bool = False,
    verdict: Optional[Dict[str, Any]] = None,
    analysis: Optional[Dict[str, Any]] = None,
    synthesis: Optional[Dict[str, Any]] = None,
    error: Optional[Tuple[str, str]] = None,
) -> Dict[str, Any]:
    """Assemble one response envelope; ``error`` is ``(kind, message)``."""
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "key": key,
        "op": op,
        "ok": error is None,
        "cached": cached,
    }
    if verdict is not None:
        payload["verdict"] = verdict
    if analysis is not None:
        payload["analysis"] = analysis
    if synthesis is not None:
        payload["synthesis"] = synthesis
    if error is not None:
        kind, message = error
        payload["error"] = {"kind": kind, "message": message}
    return payload


def validate_response(payload: Any) -> List[str]:
    """Check one envelope against ``repro-service/1``; returns problems.

    Dependency-free and strict, in the style of
    :func:`repro.obs.export.validate_trace` — CI smoke jobs validate
    every served response so schema drift fails fast.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["response must be an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    if not (isinstance(payload.get("key"), str) and payload["key"]):
        errors.append("key must be a non-empty string")
    if payload.get("op") not in OP_DEFAULTS:
        errors.append(f"op must be one of {sorted(OP_DEFAULTS)}")
    for flag in ("ok", "cached"):
        if not isinstance(payload.get(flag), bool):
            errors.append(f"{flag} must be a boolean")
    if payload.get("ok"):
        if payload.get("op") == "decide" and "verdict" not in payload:
            errors.append("a successful decide response must carry a verdict")
        verdict = payload.get("verdict")
        if verdict is not None:
            if not isinstance(verdict, dict):
                errors.append("verdict must be an object")
            elif verdict.get("schema") != VERDICT_SCHEMA:
                errors.append(f"verdict.schema must be {VERDICT_SCHEMA!r}")
            elif verdict.get("status") not in (
                "solvable",
                "unsolvable",
                "unknown",
            ):
                errors.append("verdict.status must be a Status value")
    else:
        error = payload.get("error")
        if not isinstance(error, dict):
            errors.append("a failed response must carry an error object")
        else:
            for fld in ("kind", "message"):
                if not isinstance(error.get(fld), str):
                    errors.append(f"error.{fld} must be a string")
    return errors


__all__ = [
    "OP_DEFAULTS",
    "ProtocolError",
    "SCHEMA",
    "ServiceRequest",
    "VERDICT_SCHEMA",
    "canonical_body",
    "make_response",
    "parse_request",
    "request_key",
    "task_from_request",
    "validate_response",
    "verdict_to_json",
]
