"""Batch command-line interface.

Reads complexes from JSON ({"facets": [[...], ...]}) or plain text (one
facet per line, whitespace-separated labels, a lone "-" for the empty
facet, an empty file for the void complex), runs constructions and
checks, and emits human-readable text or canonical JSON reports.

Exit status: 0 for success / true, 1 for false / not partitionable /
no extender / not shellable, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    SimplicialComplex,
    build_complex,
    f_triangle,
    f_vector,
    face_of,
    format_face,
    h_triangle,
    h_vector,
    relative_family,
)
from .construct import (
    ExtenderResult,
    extender_for_complex,
    nonpure_extender_for_complex,
    size_estimate,
    total_size_estimate,
)
from .errors import ExtendersError, SizeLimitExceeded
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


class InputError(Exception):
    """File-level problem: unreadable, unparsable, or out of domain."""


@dataclass
class ComplexDocument:
    complex: SimplicialComplex
    name: str
    path: str

    def facets_json(self):
        return [sorted(f) for f in self.complex.sorted_facets()]


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
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                column = raw.index(token) + 1
                raise InputError(
                    f"{path}:{lineno}:{column}: expected an integer label, "
                    f"got {token!r}")
            if value < 0:
                column = raw.index(token) + 1
                raise InputError(
                    f"{path}:{lineno}:{column}: labels must be nonnegative")
            labels.append(value)
        facets.append(labels)
    return facets


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply")


def load_complex_document(path: str) -> ComplexDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        data = _load_json(path)
        if isinstance(data, list):
            data = {"facets": data}
        if not isinstance(data, dict) or "facets" not in data:
            raise InputError(f"{path}: expected an object with a 'facets' key")
        raw_facets = data["facets"]
        name = data.get("name") or _stem(path)
    else:
        raw_facets = _parse_text_complex(text, path)
        name = _stem(path)
    try:
        facets = [face_of(f) for f in raw_facets]
    except ExtendersError as exc:
        raise InputError(f"{path}: {exc}")
    except TypeError:
        raise InputError(f"{path}: facets must be arrays of integer labels")
    return ComplexDocument(build_complex(facets), name, path)


def _stem(path: str) -> str:
    base = path.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def load_intervals(path: str) -> IntervalPartition:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("intervals")
    if not isinstance(data, list):
        raise InputError(f"{path}: expected a list of bottom/top records")
    try:
        return IntervalPartition.from_records(data)
    except (ExtendersError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad interval record: {exc}")


def load_face_order(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        data = _load_json(path)
        if isinstance(data, dict):
            data = data.get("facets")
        if not isinstance(data, list):
            raise InputError(f"{path}: expected a list of faces")
        return [face_of(f) for f in data]
    return [face_of(f) for f in _parse_text_complex(text, path)]


def _field(args) -> FieldSpec:
    try:
        return FieldSpec(args.char)
    except ExtendersError as exc:
        raise InputError(str(exc))


def _triangle_json(triangle):
    return [list(row) for row in triangle]


def _complex_summary(doc: ComplexDocument) -> dict:
    c = doc.complex
    return {
        "name": doc.name,
        "path": doc.path,
        "facets": doc.facets_json(),
        "dimension": c.dim,
        "void": c.is_void,
        "pure": c.is_pure,
    }


def emit(args, report: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _certificate(label: str, facets, minus, partition: IntervalPartition) -> dict:
    return {
        "label": label,
        "facets": [sorted(f) for f in sorted(facets, key=lambda x: (len(x), sorted(x)))],
        "minus": None if minus is None else [
            sorted(f) for f in sorted(minus, key=lambda x: (len(x), sorted(x)))],
        "intervals": partition.to_records(),
    }


def _format_intervals(partition: IntervalPartition) -> list:
    return ["  [%s, %s]" % (format_face(b), format_face(t)) for b, t in partition]


def cmd_info(args) -> int:
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
    report = {"command": "info", "input": _complex_summary(doc),
              "result": result, "certificates": []}
    lines = [
        f"name: {doc.name}",
        f"dimension: {c.dim}",
        f"pure: {'yes' if c.is_pure else 'no'}",
        f"void: {'yes' if c.is_void else 'no'}",
        f"faces: {len(c.faces)}",
        f"f-vector: {f_vector(c)}",
        f"h-vector: {h_vector(c)}",
        "f-triangle: " + "; ".join(
            f"row {i}: {row}" for i, row in enumerate(f_triangle(c))),
        "h-triangle: " + "; ".join(
            f"row {i}: {row}" for i, row in enumerate(h_triangle(c))),
    ]
    emit(args, report, lines)
    return OK


def cmd_partitionable(args) -> int:
    doc = load_complex_document(args.complex)
    fam = doc.complex.as_family()
    minus_doc = None
    if args.minus:
        minus_doc = load_complex_document(args.minus)
        fam = relative_family(doc.complex, minus_doc.complex)
    partition = find_partitioning(fam, max_members=args.max_faces)
    found = partition is not None
    certificates = []
    if found:
        certificates.append(_certificate(
            "partitioning", doc.complex.facets,
            minus_doc.complex.facets if minus_doc else None, partition))
    report = {
        "command": "partitionable",
        "input": _complex_summary(doc),
        "result": {
            "partitionable": found,
            "intervals": partition.to_records() if found else None,
        },
        "certificates": certificates,
    }
    lines = [f"{doc.name}: " + ("partitionable" if found else "not partitionable")]
    if found:
        lines.extend(_format_intervals(partition))
    emit(args, report, lines)
    return OK if found else FALSE


def cmd_verify_partition(args) -> int:
    if args.intervals is None:
        return _verify_report_document(args)
    doc = load_complex_document(args.complex)
    partition = load_intervals(args.intervals)
    if args.minus:
        fam = relative_family(doc.complex, load_complex_document(args.minus).complex)
    else:
        fam = doc.complex.as_family()
    outcome = verify_partitioning(fam, partition)
    report = {
        "command": "verify-partition",
        "input": _complex_summary(doc),
        "result": {
            "valid": outcome.valid,
            "violation": outcome.violation,
            "interval_stats": [
                {"top_size": i, "bottom_size": j, "count": n}
                for (i, j), n in outcome.interval_stats],
        },
        "certificates": [],
    }
    lines = ["valid" if outcome.valid else f"invalid: {outcome.violation}"]
    emit(args, report, lines)
    return OK if outcome.valid else FALSE


def _verify_report_document(args) -> int:
    data = _load_json(args.complex)
    if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
        raise InputError(
            f"{args.complex}: expected a report with a 'certificates' list "
            f"(or pass an intervals file as the second argument)")
    results = []
    all_valid = True
    for cert in data["certificates"]:
        try:
            big = build_complex([face_of(f) for f in cert["facets"]])
            minus = cert.get("minus")
            partition = IntervalPartition.from_records(cert["intervals"])
        except (ExtendersError, KeyError, TypeError) as exc:
            raise InputError(f"{args.complex}: bad certificate: {exc}")
        if minus is None:
            fam = big.as_family()
        else:
            fam = relative_family(big, build_complex([face_of(f) for f in minus]))
        outcome = verify_partitioning(fam, partition)
        all_valid = all_valid and outcome.valid
        results.append({
            "label": cert.get("label"),
            "valid": outcome.valid,
            "violation": outcome.violation,
        })
    report = {
        "command": "verify-partition",
        "input": {"path": args.complex},
        "result": {"valid": all_valid, "certificates_checked": results},
        "certificates": [],
    }
    lines = [
        f"{r['label'] or 'certificate'}: "
        + ("valid" if r["valid"] else f"invalid: {r['violation']}")
        for r in results]
    lines.append("all valid" if all_valid else "invalid")
    emit(args, report, lines)
    return OK if all_valid else FALSE


def _extender_report(doc: ComplexDocument, res: ExtenderResult) -> dict:
    base, extender = res.base, res.extender
    relative = relative_family(extender, base)
    log = []
    for entry in res.attachment_log:
        log.append({
            "face": sorted(entry.face),
            "attachment_facet": sorted(entry.attachment_facet),
            "fresh_vertices": list(entry.fresh_vertices),
            "extender_intervals": entry.with_face_intervals.to_records(),
            "relative_intervals": entry.without_face_intervals.to_records(),
        })
    return {
        "command": "build-extender",
        "input": _complex_summary(doc),
        "result": {
            "base_facets": [sorted(f) for f in base.sorted_facets()],
            "extender_facets": [sorted(f) for f in extender.sorted_facets()],
            "extender_partition": res.extender_partition.to_records(),
            "relative_partition": res.relative_partition.to_records(),
            "h": {
                "base": list(h_vector(base)),
                "extender": list(h_vector(extender)),
                "relative": list(h_vector(relative)),
            },
            "h_triangle": {
                "base": _triangle_json(h_triangle(base)),
                "extender": _triangle_json(h_triangle(extender)),
                "relative": _triangle_json(h_triangle(relative)),
            },
            "added_vertices": len(extender.vertices) - len(base.vertices),
            "added_faces": len(extender.faces) - len(base.faces),
            "estimated_added_faces": total_size_estimate(base),
            "attachment_log": log,
        },
        "certificates": [
            _certificate("extender", extender.facets, None, res.extender_partition),
            _certificate("relative", extender.facets, base.facets,
                         res.relative_partition),
        ],
    }


def cmd_build_extender(args) -> int:
    doc = load_complex_document(args.complex)
    if args.nonpure:
        res = nonpure_extender_for_complex(doc.complex)
    else:
        res = extender_for_complex(doc.complex)
    report = _extender_report(doc, res)
    result = report["result"]
    lines = [
        f"base: {doc.name}, dimension {doc.complex.dim}",
        f"extender facets: {len(res.extender.facets)}",
        f"added vertices: {result['added_vertices']}",
        f"added faces: {result['added_faces']}",
        f"h(base) = {h_vector(res.base)}",
        f"h(extender) = {tuple(result['h']['extender'])}",
        f"h(relative) = {tuple(result['h']['relative'])}",
        "extender partitioning:",
        *_format_intervals(res.extender_partition),
        "relative partitioning:",
        *_format_intervals(res.relative_partition),
    ]
    emit(args, report, lines)
    return OK


def cmd_depth(args) -> int:
    doc = load_complex_document(args.complex)
    field = _field(args)
    value = depth(doc.complex, field)
    report = {
        "command": "depth",
        "input": _complex_summary(doc),
        "result": {
            "depth": value,
            "homology": homology_report(reduced_betti(doc.complex, field), field),
        },
        "certificates": [],
    }
    emit(args, report, [f"depth: {value}"])
    return OK


def cmd_cm_check(args) -> int:
    doc = load_complex_document(args.complex)
    field = _field(args)
    verdict = is_cohen_macaulay(doc.complex, field)
    report = {
        "command": "cm-check",
        "input": _complex_summary(doc),
        "result": {
            "cohen_macaulay": verdict,
            "homology": homology_report(reduced_betti(doc.complex, field), field),
        },
        "certificates": [],
    }
    emit(args, report,
         ["Cohen-Macaulay" if verdict else "not Cohen-Macaulay"])
    return OK if verdict else FALSE


def cmd_rel_cm_check(args) -> int:
    big_doc = load_complex_document(args.complex)
    small_doc = load_complex_document(args.subcomplex)
    verdict = is_relative_cm(big_doc.complex, small_doc.complex, _field(args))
    report = {
        "command": "rel-cm-check",
        "input": {"pair": [_complex_summary(big_doc), _complex_summary(small_doc)]},
        "result": {"relative_cohen_macaulay": verdict,
                   "field_characteristic": args.char},
        "certificates": [],
    }
    emit(args, report,
         ["relative Cohen-Macaulay" if verdict else "not relative Cohen-Macaulay"])
    return OK if verdict else FALSE


def cmd_cm_extender(args) -> int:
    doc = load_complex_document(args.complex)
    outcome = cm_extender(doc.complex, _field(args))
    if isinstance(outcome, NoExtender):
        report = {
            "command": "cm-extender",
            "input": _complex_summary(doc),
            "result": {
                "exists": False,
                "witness_face": sorted(outcome.witness_face),
                "witness_degree": outcome.witness_degree,
            },
            "certificates": [],
        }
        emit(args, report, [
            "no Cohen-Macaulay extender: link of "
            f"{format_face(outcome.witness_face)} has homology in degree "
            f"{outcome.witness_degree}"])
        return FALSE
    report = {
        "command": "cm-extender",
        "input": _complex_summary(doc),
        "result": {
            "exists": True,
            "extender_facets": [sorted(f) for f in outcome.extender.sorted_facets()],
            "relative_members": len(outcome.relative.members),
        },
        "certificates": [],
    }
    lines = [f"Cohen-Macaulay extender with {len(outcome.extender.facets)} facets",
             f"relative members: {len(outcome.relative.members)}"]
    emit(args, report, lines)
    return OK


def cmd_shelling_check(args) -> int:
    doc = load_complex_document(args.complex)
    order = load_face_order(args.order)
    small = load_complex_document(args.minus).complex if args.minus else None
    verdict = check_shelling_order(doc.complex, order, small)
    report = {
        "command": "shelling-check",
        "input": _complex_summary(doc),
        "result": {"shelling_order": verdict,
                   "order": [sorted(f) for f in order]},
        "certificates": [],
    }
    emit(args, report, ["valid shelling order" if verdict else "not a shelling order"])
    return OK if verdict else FALSE


def cmd_shellable(args) -> int:
    doc = load_complex_document(args.complex)
    small = load_complex_document(args.minus).complex if args.minus else None
    order = find_shelling(doc.complex, small, max_facets=args.max_facets)
    found = order is not None
    report = {
        "command": "shellable",
        "input": _complex_summary(doc),
        "result": {"shellable": found,
                   "order": [sorted(f) for f in order] if found else None},
        "certificates": [],
    }
    lines = [f"{doc.name}: " + ("shellable" if found else "not shellable")]
    if found:
        lines.append("order: " + " ".join(format_face(f) for f in order))
    emit(args, report, lines)
    return OK if found else FALSE


def cmd_estimate_size(args) -> int:
    try:
        exact, bound = size_estimate(args.d, args.k)
    except ExtendersError as exc:
        raise InputError(str(exc))
    report = {
        "command": "estimate-size",
        "input": {"d": args.d, "k": args.k},
        "result": {"recurrence": exact, "upper_bound": bound},
        "certificates": [],
    }
    emit(args, report, [f"recurrence g({args.k}) = {exact}",
                        f"upper bound 2^(2^{args.k}-1+{args.d}) = {bound}"])
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extenders",
        description="Partition extenders, interval certificates, and "
                    "Cohen-Macaulay checks for simplicial complexes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="emit a canonical JSON report")
        p.set_defaults(func=func)
        return p

    p = add("info", cmd_info, help="f/h-vectors, triangles, purity, dimension")
    p.add_argument("complex")

    p = add("partitionable", cmd_partitionable,
            help="search for an interval partitioning")
    p.add_argument("complex")
    p.add_argument("--minus", help="subcomplex for a relative family")
    p.add_argument("--max-faces", type=int, default=DEFAULT_MAX_MEMBERS,
                   help="search bound on family members")

    p = add("verify-partition", cmd_verify_partition,
            help="verify an interval file against a complex or pair, or "
                 "re-verify an emitted report")
    p.add_argument("complex")
    p.add_argument("intervals", nargs="?")
    p.add_argument("--minus", help="subcomplex for a relative family")

    p = add("build-extender", cmd_build_extender,
            help="construct a verified partition extender")
    p.add_argument("complex")
    p.add_argument("--nonpure", action="store_true",
                   help="depth-preserving construction for nonpure complexes")

    p = add("depth", cmd_depth, help="homological depth of the face ring")
    p.add_argument("complex")
    p.add_argument("--char", type=int, default=0, help="field characteristic")

    p = add("cm-check", cmd_cm_check, help="Cohen-Macaulay test")
    p.add_argument("complex")
    p.add_argument("--char", type=int, default=0, help="field characteristic")

    p = add("rel-cm-check", cmd_rel_cm_check, help="relative Cohen-Macaulay test")
    p.add_argument("complex")
    p.add_argument("subcomplex")
    p.add_argument("--char", type=int, default=0, help="field characteristic")

    p = add("cm-extender", cmd_cm_extender,
            help="Cohen-Macaulay extender or obstruction witness")
    p.add_argument("complex")
    p.add_argument("--char", type=int, default=0, help="field characteristic")

    p = add("shelling-check", cmd_shelling_check, help="verify a shelling order")
    p.add_argument("complex")
    p.add_argument("order")
    p.add_argument("--minus", help="subcomplex for a relative pair")

    p = add("shellable", cmd_shellable, help="search for a shelling order")
    p.add_argument("complex")
    p.add_argument("--minus", help="subcomplex for a relative pair")
    p.add_argument("--max-facets", type=int, default=DEFAULT_MAX_FACETS,
                   help="search bound on facet count")

    p = add("estimate-size", cmd_estimate_size,
            help="face-count recurrence and bound for one gadget")
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except SizeLimitExceeded as exc:
        flag = "--max-facets" if exc.parameter == "max_facets" else "--max-faces"
        print(f"error: {exc} (raise with {flag})", file=sys.stderr)
        return INPUT_ERROR
    except ExtendersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
