"""Batch command-line interface.

Reads complexes from JSON ({"facets": [[...], ...]}) or plain text (one
facet per line, whitespace-separated labels, a lone "-" for the empty
facet, an empty file for the void complex), runs constructions and
checks, and emits human-readable text or canonical JSON reports.

Every command returns a :class:`_Report`; :func:`emit` alone wraps it in
the ``{command, input, result, certificates}`` envelope and prints it, and
the text lines are rendered from the same ``result``.  A ``--json`` report
is byte for byte what ``json.dumps(envelope, sort_keys=True, indent=2)``
prints.  It is written by a small encoder of its own, because Python 3.11
uses its C encoder only when ``indent`` is None; with an indent, ``json``
runs a pure-Python generator that writes each integer of a face list as a
separate chunk.

Exit status: 0 for success / true, 1 for false / not partitionable /
no extender / not shellable, 2 when no answer can be given.  Each failure
prints exactly one line on stderr: ``error: ...`` for bad input (missing,
undecodable, unparsable or out of domain, or a malformed command line),
``internal error: ...`` when a construction's self-check fails, which is a
bug in the library, not in the input.  Both exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .complexes import (
    SimplicialComplex,
    build_complex,
    f_triangle,
    f_vector,
    face_key,
    face_of,
    format_face,
    h_triangle,
    h_vector,
    pair_family,
)
from .construct import (
    extender_for_complex,
    nonpure_extender_for_complex,
    size_estimate,
    total_size_estimate,
)
from .errors import ExtendersError, InternalCheckError, SizeLimitExceeded
from .homology import (
    FieldSpec,
    NoExtender,
    cm_extender,
    depth,
    homology_report,
    is_cohen_macaulay,
    is_relative_cm,
    reduced_betti,
)
from .partitions import (
    DEFAULT_MAX_FACETS,
    DEFAULT_MAX_MEMBERS,
    IntervalPartition,
    check_shelling_order,
    find_partitioning,
    find_shelling,
    verify_partitioning,
)

OK, FALSE, INPUT_ERROR = 0, 1, 2

# Text-format tokens split as str.split() does; a label has ASCII digits only.
_TOKEN, _LABEL = re.compile(r"\S+"), re.compile(r"[+-]?[0-9]+")
_LONG_NUMBER = re.compile(r"[0-9]{41,}")

_INDENT = "  "
_quote = json.encoder.encode_basestring_ascii


class InputError(Exception):
    """Input problem: unreadable, unparsable, or out of domain, in a file
    or on the command line."""


def _usage_error(message: str):
    """Stands in for ``ArgumentParser.error``: a usage error is an input
    error, which :func:`main` reports in one line."""
    raise InputError(message)


@dataclass
class ComplexDocument:
    complex: SimplicialComplex
    name: str
    path: str


class _Report(NamedTuple):
    """What a command found; :func:`emit` adds the command name."""

    status: int
    input: dict
    result: dict
    lines: list
    certificates: Sequence = ()


def _parse_text_complex(text: str, path: str) -> list:
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "-":
            facets.append([])
            continue
        labels = []
        for token in _TOKEN.finditer(raw):
            where = f"{path}:{lineno}:{token.start() + 1}"
            if not _LABEL.fullmatch(token[0]):
                raise InputError(f"{where}: expected an integer label, got {token[0]!r}")
            if int(token[0]) < 0:
                raise InputError(f"{where}: labels must be nonnegative")
            labels.append(int(token[0]))
        facets.append(labels)
    return facets


def _read(path: str, text_ok: bool = True):
    """Read ``path`` once, as UTF-8 text, and return its JSON value; with
    ``text_ok``, text that does not open with ``{`` or ``[`` is returned
    as it is, for the plain-text face format."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    if text_ok and not text.lstrip().startswith(("{", "[")):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply")
    except ValueError as exc:  # an integer beyond the conversion limit
        raise InputError(f"{path}: invalid JSON: {exc}")


def _faces(raw, path: str) -> list:
    """Faces from a list of label lists: a complex, an order, or the
    ``facets`` and ``minus`` lists of a certificate."""
    try:
        return [face_of(f) for f in raw]
    except ExtendersError as exc:
        raise InputError(f"{path}: {exc}")
    except TypeError:
        raise InputError(f"{path}: faces must be arrays of integer labels")


def _intervals(records, path: str) -> IntervalPartition:
    try:
        return IntervalPartition.from_records(records)
    except (ExtendersError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad interval record: {exc}")


def load_complex_document(path: str) -> ComplexDocument:
    data = _read(path)
    name = _stem(path)
    if isinstance(data, str):
        raw_facets = _parse_text_complex(data, path)
    else:
        if isinstance(data, list):
            data = {"facets": data}
        if not isinstance(data, dict) or "facets" not in data:
            raise InputError(f"{path}: expected an object with a 'facets' key")
        raw_facets = data["facets"]
        name = data.get("name") or name
    return ComplexDocument(build_complex(_faces(raw_facets, path)), name, path)


def _stem(path: str) -> str:
    base = path.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def load_intervals(path: str) -> IntervalPartition:
    data = _read(path, text_ok=False)
    if isinstance(data, dict):
        data = data.get("intervals")
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a list of bottom/top records")
    return _intervals(data, path)


def load_face_order(path: str) -> list:
    data = _read(path)
    if isinstance(data, str):
        data = _parse_text_complex(data, path)
    elif isinstance(data, dict):
        data = data.get("facets")
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a list of faces")
    return _faces(data, path)


def _minus(args) -> Optional[SimplicialComplex]:
    return load_complex_document(args.minus).complex if args.minus else None


def _face_lists(faces) -> list:
    """Faces as sorted label lists, by size and then lexicographically."""
    return [sorted(f) for f in sorted(faces, key=face_key)]


def _triangle_json(triangle):
    return [list(row) for row in triangle]


def _triangle_text(triangle) -> str:
    return "; ".join(f"row {i}: {tuple(row)}" for i, row in enumerate(triangle))


def _complex_summary(doc: ComplexDocument) -> dict:
    c = doc.complex
    return {
        "name": doc.name,
        "path": doc.path,
        "facets": _face_lists(c.facets),
        "dimension": c.dim,
        "void": c.is_void,
        "pure": c.is_pure,
    }


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _encode(value, indent: str, out: list) -> None:
    """Append the text of ``value`` at indentation ``indent`` to ``out``,
    as ``json.dumps(value, sort_keys=True, indent=2)`` writes it.

    Takes the JSON types exactly: dicts with str keys, lists, tuples, str,
    int, float, bool and None.  Anything else raises ``TypeError``.  Each
    level of nesting is one call, as in ``json``'s own encoder, so any value
    that ``json.loads`` could read back is written."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float:
        out.append(_float_text(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is not list and kind is not tuple and kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = indent + _INDENT
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(value)):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if i:
                out.append(",\n" + inner)
            out.append(_quote(key) + ": ")
            _encode(value[key], inner, out)
        out.append("\n" + indent + "}")
    else:
        inner = indent + _INDENT
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == {int}:
            out.append(f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{indent}]")
        elif (kinds == {list} and all(value)
              and set(map(type, itertools.chain.from_iterable(value))) == {int}):
            # A face list: each row is a non-empty list of ints.
            deeper = inner + _INDENT
            row_sep, row_end = ",\n" + deeper, "\n" + inner + "]"
            rows = sep.join(["[\n" + deeper + row_sep.join(map(int.__repr__, row)) + row_end
                             for row in value])
            out.append(f"[\n{inner}{rows}\n{indent}]")
        else:
            out.append("[\n" + inner)
            for i, item in enumerate(value):
                if i:
                    out.append(sep)
                _encode(item, inner, out)
            out.append("\n" + indent + "]")


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte."""
    out = []
    _encode(value, "", out)
    return "".join(out)


def emit(args, report: _Report) -> None:
    """Print the report: its text lines, or with ``--json`` the envelope as
    the same bytes as ``json.dumps(envelope, sort_keys=True, indent=2)``.
    The C encoder cannot give them, because Python 3.11 uses it only when
    ``indent`` is None."""
    if args.json:
        envelope = {"command": args.subcommand, "input": report.input,
                    "result": report.result, "certificates": report.certificates}
        print(_dumps(envelope))
    else:
        for line in report.lines:
            print(line)


def _certificate(label: str, facets: list, minus: Optional[list], records: list) -> dict:
    """A certificate from face lists and interval records."""
    return {"label": label, "facets": facets, "minus": minus, "intervals": records}


def _interval_records(pairs) -> list:
    """Records of valid (bottom, top) pairs, in :class:`IntervalPartition`
    order: by sorted top, then by sorted bottom."""
    rows = sorted((sorted(t), sorted(b)) for b, t in pairs)
    return [{"bottom": b, "top": t} for t, b in rows]


def _format_intervals(records: list) -> list:
    return ["  [%s, %s]" % (format_face(r["bottom"]), format_face(r["top"]))
            for r in records]


def cmd_info(args) -> _Report:
    doc = load_complex_document(args.complex)
    c = doc.complex
    result = {
        "dimension": c.dim,
        "pure": c.is_pure,
        "void": c.is_void,
        "f_vector": list(f_vector(c)),
        "h_vector": list(h_vector(c)),
        "f_triangle": _triangle_json(f_triangle(c)),
        "h_triangle": _triangle_json(h_triangle(c)),
        "num_faces": len(c.faces),
    }
    lines = [
        f"name: {doc.name}",
        f"dimension: {result['dimension']}",
        f"pure: {'yes' if result['pure'] else 'no'}",
        f"void: {'yes' if result['void'] else 'no'}",
        f"faces: {result['num_faces']}",
        f"f-vector: {tuple(result['f_vector'])}",
        f"h-vector: {tuple(result['h_vector'])}",
        "f-triangle: " + _triangle_text(result["f_triangle"]),
        "h-triangle: " + _triangle_text(result["h_triangle"]),
    ]
    return _Report(OK, _complex_summary(doc), result, lines)


def cmd_partitionable(args) -> _Report:
    doc = load_complex_document(args.complex)
    minus = _minus(args)
    partition = find_partitioning(pair_family(doc.complex, minus),
                                  max_members=args.max_faces)
    found = partition is not None
    result = {"partitionable": found,
              "intervals": partition.to_records() if found else None}
    lines = [f"{doc.name}: " + ("partitionable" if found else "not partitionable")]
    summary = _complex_summary(doc)
    certificates = []
    if found:
        lines.extend(_format_intervals(result["intervals"]))
        certificates.append(_certificate(
            "partitioning", summary["facets"],
            None if minus is None else _face_lists(minus.facets), result["intervals"]))
    return _Report(OK if found else FALSE, summary, result, lines, certificates)


def cmd_verify_partition(args) -> _Report:
    if args.intervals is None:
        if args.minus is not None:
            raise InputError("--minus needs an intervals file; each certificate "
                             "of a report carries its own minus")
        return _verify_report_document(args.complex)
    doc = load_complex_document(args.complex)
    partition = load_intervals(args.intervals)
    outcome = verify_partitioning(pair_family(doc.complex, _minus(args)), partition)
    result = {
        "valid": outcome.valid,
        "violation": outcome.violation,
        "interval_stats": [
            {"top_size": i, "bottom_size": j, "count": n}
            for (i, j), n in outcome.interval_stats],
    }
    lines = ["valid" if result["valid"] else f"invalid: {result['violation']}"]
    return _Report(OK if outcome.valid else FALSE, _complex_summary(doc), result, lines)


def _verify_report_document(path: str) -> _Report:
    data = _read(path, text_ok=False)
    if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
        raise InputError(
            f"{path}: expected a report with a 'certificates' list "
            f"(or pass an intervals file as the second argument)")
    results = []
    for cert in data["certificates"]:
        try:
            facets, records, minus = cert["facets"], cert["intervals"], cert.get("minus")
        except (KeyError, TypeError) as exc:
            raise InputError(f"{path}: bad certificate: {exc}")
        big = build_complex(_faces(facets, path))
        partition = _intervals(records, path)
        small = None if minus is None else build_complex(_faces(minus, path))
        outcome = verify_partitioning(pair_family(big, small), partition)
        results.append({
            "label": cert.get("label"),
            "valid": outcome.valid,
            "violation": outcome.violation,
        })
    all_valid = all(r["valid"] for r in results)
    result = {"valid": all_valid, "certificates_checked": results}
    lines = [
        f"{r['label'] or 'certificate'}: "
        + ("valid" if r["valid"] else f"invalid: {r['violation']}")
        for r in results]
    lines.append("all valid" if all_valid else "invalid")
    return _Report(OK if all_valid else FALSE, {"path": path}, result, lines)


def cmd_build_extender(args) -> _Report:
    doc = load_complex_document(args.complex)
    build = nonpure_extender_for_complex if args.nonpure else extender_for_complex
    res = build(doc.complex)
    base, extender = res.base, res.extender
    summary = _complex_summary(doc)
    # The base is the input complex; each face list is built once and shared.
    base_facets, extender_facets = summary["facets"], _face_lists(extender.facets)
    names = ("base", "extender", "relative")
    log = [{
        "face": sorted(entry.face),
        "attachment_facet": sorted(entry.attachment_facet),
        "fresh_vertices": list(entry.fresh_vertices),
        # The log holds pairs in gadget order; only the report sorts them.
        "extender_intervals": _interval_records(entry.with_face_intervals),
        "relative_intervals": _interval_records(entry.without_face_intervals),
    } for entry in res.attachment_log]
    result = {
        "base_facets": base_facets,
        "extender_facets": extender_facets,
        "extender_partition": res.extender_partition.to_records(),
        "relative_partition": res.relative_partition.to_records(),
        "h": {name: list(h) for name, h in zip(names, res.h_vectors)},
        "h_triangle": {name: _triangle_json(tri)
                       for name, tri in zip(names, res.h_triangles)},
        "added_vertices": len(extender.vertices) - len(base.vertices),
        "added_faces": len(extender.faces) - len(base.faces),
        "estimated_added_faces": total_size_estimate(base),
        "attachment_log": log,
    }
    lines = [
        f"base: {doc.name}, dimension {doc.complex.dim}",
        f"extender facets: {len(result['extender_facets'])}",
        f"added vertices: {result['added_vertices']}",
        f"added faces: {result['added_faces']}",
        *(f"h({name}) = {tuple(h)}" for name, h in result["h"].items()),
        "extender partitioning:",
        *_format_intervals(result["extender_partition"]),
        "relative partitioning:",
        *_format_intervals(result["relative_partition"]),
    ]
    certificates = [
        _certificate("extender", extender_facets, None, result["extender_partition"]),
        _certificate("relative", extender_facets, base_facets,
                     result["relative_partition"]),
    ]
    return _Report(OK, summary, result, lines, certificates)


def cmd_depth(args) -> _Report:
    doc = load_complex_document(args.complex)
    field = FieldSpec(args.char)
    value = depth(doc.complex, field)
    result = {
        "depth": value,
        "homology": homology_report(reduced_betti(doc.complex, field), field),
    }
    return _Report(OK, _complex_summary(doc), result, [f"depth: {value}"])


def cmd_cm_check(args) -> _Report:
    doc = load_complex_document(args.complex)
    field = FieldSpec(args.char)
    verdict = is_cohen_macaulay(doc.complex, field)
    result = {
        "cohen_macaulay": verdict,
        "homology": homology_report(reduced_betti(doc.complex, field), field),
    }
    return _Report(OK if verdict else FALSE, _complex_summary(doc), result,
                   ["Cohen-Macaulay" if verdict else "not Cohen-Macaulay"])


def cmd_rel_cm_check(args) -> _Report:
    big_doc = load_complex_document(args.complex)
    small_doc = load_complex_document(args.subcomplex)
    verdict = is_relative_cm(big_doc.complex, small_doc.complex, FieldSpec(args.char))
    summary = {"pair": [_complex_summary(big_doc), _complex_summary(small_doc)]}
    result = {"relative_cohen_macaulay": verdict, "field_characteristic": args.char}
    return _Report(OK if verdict else FALSE, summary, result,
                   ["relative Cohen-Macaulay" if verdict else "not relative Cohen-Macaulay"])


def cmd_cm_extender(args) -> _Report:
    doc = load_complex_document(args.complex)
    outcome = cm_extender(doc.complex, FieldSpec(args.char))
    if isinstance(outcome, NoExtender):
        result = {
            "exists": False,
            "witness_face": sorted(outcome.witness_face),
            "witness_degree": outcome.witness_degree,
        }
        lines = ["no Cohen-Macaulay extender: link of "
                 f"{format_face(result['witness_face'])} has homology in degree "
                 f"{result['witness_degree']}"]
        return _Report(FALSE, _complex_summary(doc), result, lines)
    result = {
        "exists": True,
        "extender_facets": _face_lists(outcome.extender.facets),
        "relative_members": len(outcome.relative.faces),
    }
    lines = [f"Cohen-Macaulay extender with {len(result['extender_facets'])} facets",
             f"relative members: {result['relative_members']}"]
    return _Report(OK, _complex_summary(doc), result, lines)


def cmd_shelling_check(args) -> _Report:
    doc = load_complex_document(args.complex)
    order = load_face_order(args.order)
    verdict = check_shelling_order(doc.complex, order, _minus(args))
    result = {"shelling_order": verdict, "order": [sorted(f) for f in order]}
    return _Report(OK if verdict else FALSE, _complex_summary(doc), result,
                   ["valid shelling order" if verdict else "not a shelling order"])


def cmd_shellable(args) -> _Report:
    doc = load_complex_document(args.complex)
    order = find_shelling(doc.complex, _minus(args), max_facets=args.max_facets)
    found = order is not None
    result = {"shellable": found,
              "order": [sorted(f) for f in order] if found else None}
    lines = [f"{doc.name}: " + ("shellable" if found else "not shellable")]
    if found:
        lines.append("order: " + " ".join(format_face(f) for f in result["order"]))
    return _Report(OK if found else FALSE, _complex_summary(doc), result, lines)


def cmd_estimate_size(args) -> _Report:
    exact, bound = size_estimate(args.d, args.k)
    result = {"recurrence": exact, "upper_bound": bound}
    lines = [f"recurrence g({args.k}) = {exact}",
             f"upper bound 2^(2^{args.k}-1+{args.d}) = {bound}"]
    return _Report(OK, {"d": args.d, "k": args.k}, result, lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and leaves it as it was, so in-process callers share one."""
    parser = argparse.ArgumentParser(
        prog="extenders",
        description="Partition extenders, interval certificates, and "
                    "Cohen-Macaulay checks for simplicial complexes.")
    parser.error = _usage_error
    sub = parser.add_subparsers(dest="subcommand", required=True)

    shared = {name: argparse.ArgumentParser(add_help=False)
              for name in ("json", "char", "minus")}
    shared["json"].add_argument("--json", action="store_true",
                                help="emit a canonical JSON report")
    shared["char"].add_argument("--char", type=int, default=0,
                                help="field characteristic: 0 or a prime below 2^31")
    shared["minus"].add_argument("--minus",
                                 help="subcomplex for a relative family or pair")

    def add(name, func, help, positionals=("complex",), flags=()):
        p = sub.add_parser(name, help=help,
                           parents=[shared["json"], *(shared[f] for f in flags)])
        p.error = _usage_error
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    add("info", cmd_info, "f/h-vectors, triangles, purity, dimension")

    p = add("partitionable", cmd_partitionable, "search for an interval partitioning",
            flags=["minus"])
    p.add_argument("--max-faces", type=int, default=DEFAULT_MAX_MEMBERS,
                   help="search bound on family members")

    p = add("verify-partition", cmd_verify_partition,
            "verify an interval file against a complex or pair, or "
            "re-verify an emitted report", flags=["minus"])
    p.add_argument("intervals", nargs="?")

    p = add("build-extender", cmd_build_extender,
            "construct a verified partition extender")
    p.add_argument("--nonpure", action="store_true",
                   help="depth-preserving construction for nonpure complexes")

    add("depth", cmd_depth, "homological depth of the face ring", flags=["char"])
    add("cm-check", cmd_cm_check, "Cohen-Macaulay test", flags=["char"])
    add("rel-cm-check", cmd_rel_cm_check, "relative Cohen-Macaulay test",
        positionals=("complex", "subcomplex"), flags=["char"])
    add("cm-extender", cmd_cm_extender,
        "Cohen-Macaulay extender or obstruction witness", flags=["char"])
    add("shelling-check", cmd_shelling_check, "verify a shelling order",
        positionals=("complex", "order"), flags=["minus"])

    p = add("shellable", cmd_shellable, "search for a shelling order", flags=["minus"])
    p.add_argument("--max-facets", type=int, default=DEFAULT_MAX_FACETS,
                   help="search bound on facet count")

    p = add("estimate-size", cmd_estimate_size,
            "face-count recurrence and bound for one gadget", positionals=())
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)

    return parser


def _error_line(exc: Exception) -> str:
    """The one stderr line for a failure; a run of more than 40 digits,
    such as an echoed argument, shows its first 20 and its length."""
    if isinstance(exc, InternalCheckError):
        line = f"internal error: {exc}"
    elif isinstance(exc, SizeLimitExceeded):
        flag = "--max-facets" if exc.parameter == "max_facets" else "--max-faces"
        line = f"error: {exc} (raise with {flag})"
    else:
        line = f"error: {exc}"
    return _LONG_NUMBER.sub(lambda m: f"{m[0][:20]}…({len(m[0])} digits)", line)


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
    except (InputError, ExtendersError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return INPUT_ERROR
    emit(args, report)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
