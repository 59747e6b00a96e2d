"""JSON report documents and DOT export.

Serialized output is byte stable for fixed inputs: keys are sorted,
collections are emitted in sorted order, and wall-clock timings stay out
of the payload unless the document was built with them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .criteria import Analysis
from .germs import GermGroupoid
from .semigroup import InverseSemigroup

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportDocument:
    """Instance metadata plus the verdict payload, JSON ready."""

    payload: dict
    timing: dict | None = None


def _names(sg: InverseSemigroup, items) -> list:
    return [sg.name_of(i) for i in sorted(items)]


def _hausdorff_witness(sg, witness):
    return {"covers": {sg.name_of(s): _names(sg, cov)
                       for s, cov in sorted(witness.get("covers", {}).items())}}


def _top_free_witness(sg, witness):
    out = {}
    if "failures" in witness:
        out["failures"] = [
            {"s": sg.name_of(w["s"]), "e": sg.name_of(w["e"]),
             "uncovered": sg.name_of(w["uncovered"])}
            for w in witness["failures"]
        ]
    if "fixed_covers" in witness:
        out["fixed_covers"] = {
            f"s={sg.name_of(s)} e={sg.name_of(e)}": _names(sg, cov)
            for (s, e), cov in sorted(witness["fixed_covers"].items())
        }
    return out


def _minimal_witness(sg, witness):
    out = {}
    if "failures" in witness:
        out["failures"] = [
            {"e": sg.name_of(w["e"]), "f": sg.name_of(w["f"]),
             "uncovered": sg.name_of(w["uncovered"])}
            for w in witness["failures"]
        ]
    if "conjugate_covers" in witness:
        out["conjugate_covers"] = {
            f"e={sg.name_of(e)} f={sg.name_of(f)}": [
                {"cover": sg.name_of(c), "via": sg.name_of(s)}
                for c, s in pairs
            ]
            for (e, f), pairs in sorted(witness["conjugate_covers"].items())
        }
    return out


def _contraction_witness(sg, witness):
    crit = witness.get("criterion", {})
    out = {"action_reason": witness.get("action_reason"),
           "groupoid_reason": witness.get("groupoid_reason")}
    if "e" in crit:
        out["refuted_at"] = sg.name_of(crit["e"])
    return out


def build_document(analysis: Analysis, name: str,
                   timing: dict | None = None) -> ReportDocument:
    sg = analysis.semigroup
    rep = analysis.report
    payload = {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "name": name,
            "elements": sg.size,
            "idempotents": len(sg.idempotents),
            "spectrum_size": len(analysis.spectrum.points),
            "groupoid": {
                "arrows": len(analysis.groupoid.arrows),
                "units": len(analysis.groupoid.units),
            },
            "e_star_unitary": sg.is_e_star_unitary(),
        },
        "properties": {
            "hausdorff": {"criterion": rep.hausdorff.criterion,
                          "direct": rep.hausdorff.direct},
            "essentially_principal": {
                "criterion": rep.essentially_principal.criterion,
                "direct": rep.essentially_principal.direct},
            "minimal": {"criterion": rep.minimal.criterion,
                        "direct": rep.minimal.direct},
            "locally_contracting": {
                "criterion": rep.locally_contracting.criterion,
                "direct": rep.locally_contracting.direct},
        },
        "cstar_flags": dict(rep.cstar_flags),
        "conclusions": list(rep.conclusions),
        "witnesses": {
            "hausdorff": _hausdorff_witness(sg, rep.hausdorff.witness),
            "essentially_principal": _top_free_witness(
                sg, rep.essentially_principal.witness),
            "minimal": _minimal_witness(sg, rep.minimal.witness),
            "locally_contracting": _contraction_witness(
                sg, rep.locally_contracting.witness),
        },
    }
    return ReportDocument(payload, timing)


def error_payload(name: str, code: str, message: str, **instance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": {"name": name, **instance},
        "error": {"code": code, "message": message},
    }


_string = json.encoder.encode_basestring_ascii


def _json(obj, indent: str) -> str:
    """`obj` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    nested at `indent`.  With an indent the standard library runs its
    pure-Python encoder; this is the same walk without its generators,
    for the exact types a report holds (strings through its C escaper).
    Anything else (the floats of `timing`, tuples, subclasses, dicts with
    keys that are not strings) goes to ``json.dumps`` and is re-indented."""
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is dict:
        return _object(obj, indent)
    if kind is list:
        return _array(obj, indent)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return int.__repr__(obj)
    return _dumps(obj, indent)


def _dumps(obj, indent: str) -> str:
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _object(obj, indent: str) -> str:
    if not obj:
        return "{}"
    inner = indent + "  "
    items = []
    for k in sorted(obj):
        if type(k) is not str:
            return _dumps(obj, indent)
        v = obj[k]
        items.append(_string(k) + ": "
                     + (_string(v) if type(v) is str else _json(v, inner)))
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def _array(obj, indent: str) -> str:
    if not obj:
        return "[]"
    inner = indent + "  "
    return ("[\n" + inner + (",\n" + inner).join([
        _string(v) if type(v) is str else _json(v, inner) for v in obj])
        + "\n" + indent + "]")


def json_text(obj) -> str:
    """The one JSON writer of the package: byte for byte
    ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline."""
    return _json(obj, "") + "\n"


def emit_report(doc: ReportDocument) -> str:
    """The document as sorted, indented JSON; `timing` appears exactly
    when the document carries one.  The text is byte-identical to
    ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline,
    written by :func:`json_text`."""
    payload = dict(doc.payload)
    if doc.timing is not None:
        payload["timing"] = doc.timing
    return json_text(payload)


def emit_dot(gpd: GermGroupoid, graph_name: str = "germs") -> str:
    """One node per unit, one labeled edge per non-unit arrow; labels are
    the canonical representatives."""
    sg = gpd.semigroup
    act = gpd.action
    lines = [f"digraph {json.dumps(graph_name)} {{"]
    for x in range(act.points):
        lines.append(f'  u{x} [shape=circle, label={json.dumps(act.label_of(x))}];')
    for i, (s, x) in enumerate(gpd.arrows):
        if i in gpd.units:
            continue
        label = f"[{sg.name_of(s)}, {act.label_of(x)}]"
        lines.append(
            f"  u{gpd.source[i]} -> u{gpd.target[i]} [label={json.dumps(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
