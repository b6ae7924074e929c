"""JSONL trace export, schema validation, and round-trip parsing.

A trace file is newline-delimited JSON:

* line 1 -- the trace header::

      {"kind": "trace", "format_version": 1}

* every further line -- one span, in depth-first (pre-order) walk of the
  span forest, so a parent always precedes its children::

      {"kind": "span", "span_id": 1, "parent_id": null, "name": "detect",
       "start": ..., "end": ..., "duration": ..., "attrs": {...},
       "events": [...]}

``span_id`` is the 1-based position of the span line in the file and
``parent_id`` refers to an earlier span (``null`` for roots) -- both are
assigned at export time from the walk, so identical span forests always
serialize to identical bytes (keys are sorted, floats use ``repr``).
That determinism is load-bearing: the parallel-merge tests compare whole
trace files byte-for-byte across worker counts.

:func:`validate_trace_lines` is the schema check CI runs on trace
artifacts; :func:`parse_trace` rebuilds the span forest, and
``trace_lines(parse_trace(lines)) == lines`` round-trips exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.observability.tracer import Span

TRACE_FORMAT_VERSION = 1


def write_atomic(path, text: str, encoding: str = "utf-8") -> Path:
    """Crash-safe text write: unique tmp file in the target's directory,
    then an atomic ``os.replace``.

    A reader never observes a truncated file -- it sees either the old
    content or the new content, and a crash mid-write leaves the
    destination untouched.  The helper lives here (the bottom layer of the
    import DAG) so every artifact writer -- trace export below,
    ``repro.io.serialization`` (which re-exports it as the public home),
    and the bench and service layers -- can share one
    implementation without upward imports.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path

#: Required span-record keys and the types each must carry.
_SPAN_FIELD_TYPES: Dict[str, Union[type, Tuple[type, ...]]] = {
    "kind": str,
    "span_id": int,
    "parent_id": (int, type(None)),
    "name": str,
    "start": (int, float),
    "end": (int, float),
    "duration": (int, float),
    "attrs": dict,
    "events": list,
}


def _dump(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def trace_lines(roots: Sequence[Span]) -> List[str]:
    """Serialize a span forest to JSONL lines (header first, DFS order)."""
    lines = [_dump({"kind": "trace", "format_version": TRACE_FORMAT_VERSION})]
    next_id = 1
    stack = [(span, None) for span in reversed(list(roots))]
    while stack:
        span, parent_id = stack.pop()
        span_id = next_id
        next_id += 1
        end = span.end if span.end is not None else span.start
        lines.append(
            _dump(
                {
                    "kind": "span",
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": end,
                    "duration": end - span.start,
                    "attrs": span.attrs,
                    "events": span.events,
                }
            )
        )
        for child in reversed(span.children):
            stack.append((child, span_id))
    return lines


def write_trace(roots: Sequence[Span], path) -> Path:
    """Write a span forest as a JSONL trace file; returns the path.

    The write is atomic (:func:`write_atomic`): a crash mid-export never
    leaves a truncated trace for the schema gate to choke on.
    """
    return write_atomic(path, "\n".join(trace_lines(roots)) + "\n")


def validate_trace_lines(lines: Iterable[str]) -> List[str]:
    """Schema-check JSONL trace lines; returns findings (empty when valid)."""
    errors: List[str] = []
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            if lineno == 1:
                errors.append("line 1: empty line where the trace header should be")
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(doc, dict):
            errors.append(f"line {lineno}: expected a JSON object")
            continue
        records.append(doc)

    if errors:
        return errors
    if not records:
        return ["empty trace: missing header line"]

    header, spans = records[0], records[1:]
    if header.get("kind") != "trace":
        errors.append(f"line 1: header 'kind' must be 'trace', got {header.get('kind')!r}")
    if header.get("format_version") != TRACE_FORMAT_VERSION:
        errors.append(
            f"line 1: unsupported format_version {header.get('format_version')!r} "
            f"(expected {TRACE_FORMAT_VERSION})"
        )

    seen_ids = set()
    for offset, doc in enumerate(spans):
        lineno = offset + 2
        expected_id = offset + 1
        for key, types in _SPAN_FIELD_TYPES.items():
            if key not in doc:
                errors.append(f"line {lineno}: span missing required key {key!r}")
            elif not isinstance(doc[key], types) or isinstance(doc[key], bool):
                errors.append(
                    f"line {lineno}: span key {key!r} has wrong type "
                    f"{type(doc[key]).__name__}"
                )
        if errors and errors[-1].startswith(f"line {lineno}:"):
            continue
        if doc["kind"] != "span":
            errors.append(f"line {lineno}: 'kind' must be 'span', got {doc['kind']!r}")
        if doc["span_id"] != expected_id:
            errors.append(
                f"line {lineno}: span_id {doc['span_id']} out of sequence "
                f"(expected {expected_id})"
            )
        parent = doc["parent_id"]
        if parent is not None and parent not in seen_ids:
            errors.append(
                f"line {lineno}: parent_id {parent} does not refer to an "
                "earlier span"
            )
        if not doc["name"]:
            errors.append(f"line {lineno}: span name must be non-empty")
        if doc["end"] < doc["start"]:
            errors.append(
                f"line {lineno}: span ends ({doc['end']}) before it starts "
                f"({doc['start']})"
            )
        if abs(doc["duration"] - (doc["end"] - doc["start"])) > 1e-9:
            errors.append(f"line {lineno}: duration does not equal end - start")
        for event in doc["events"]:
            if not isinstance(event, dict) or "name" not in event:
                errors.append(
                    f"line {lineno}: events must be objects with a 'name' key"
                )
                break
        seen_ids.add(doc["span_id"])
    return errors


def parse_trace(lines: Iterable[str]) -> List[Span]:
    """Rebuild the span forest from JSONL lines (assumed schema-valid)."""
    roots: List[Span] = []
    by_id: Dict[int, Span] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc.get("kind") != "span":
            continue
        span = Span(doc["name"], doc["start"])
        span.end = doc["end"]
        span.attrs = dict(doc["attrs"])
        span.events = list(doc["events"])
        by_id[doc["span_id"]] = span
        parent = doc.get("parent_id")
        if parent is None:
            roots.append(span)
        elif parent in by_id:
            by_id[parent].children.append(span)
        else:
            raise ValueError(f"line {lineno}: unknown parent_id {parent}")
    return roots


def load_trace(path) -> List[Span]:
    """Read and parse a JSONL trace file after validating its schema."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    errors = validate_trace_lines(lines)
    if errors:
        raise ValueError(
            f"invalid trace file {path}: " + "; ".join(errors[:5])
            + (f" (+{len(errors) - 5} more)" if len(errors) > 5 else "")
        )
    return parse_trace(lines)


def _format_attrs(attrs: Dict[str, Any], limit: int = 4) -> str:
    shown = []
    for key in list(attrs)[:limit]:
        value = attrs[key]
        if isinstance(value, float):
            shown.append(f"{key}={value:.4g}")
        elif isinstance(value, (dict, list)):
            shown.append(f"{key}=...")
        else:
            shown.append(f"{key}={value}")
    if len(attrs) > limit:
        shown.append(f"(+{len(attrs) - limit})")
    return " ".join(shown)


def render_trace_tree(roots: Sequence[Span]) -> str:
    """ASCII rendering of a span forest (the ``trace`` subcommand's view)."""
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        attrs = _format_attrs(span.attrs)
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(f"{indent}{span.name}  {span.duration:.6f}s{suffix}")
        for event in span.events:
            lines.append(f"{indent}  ! {event.get('name', '?')}")
        for child in span.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
