"""JSON report documents and DOT export.

Serialized output is byte stable for fixed inputs: keys are sorted,
collections are emitted in sorted order, and wall-clock timings stay out
of the payload unless the document was built with them.
"""

from __future__ import annotations

import json

from .criteria import Analysis
from .germs import GermGroupoid
from .semigroup import InverseSemigroup

SCHEMA_VERSION = 1


def _names(sg: InverseSemigroup, items) -> list:
    return [sg.name_of(i) for i in sorted(items)]


def _failures(sg: InverseSemigroup, witness: dict) -> dict:
    """A refuted criterion's failures, each named key by key; both
    failure shapes hold the output's keys in the output's order."""
    return {"failures": [{k: sg.name_of(v) for k, v in w.items()}
                         for w in witness["failures"]]}


def _hausdorff_witness(sg, witness):
    return {"covers": {sg.name_of(s): _names(sg, cov)
                       for s, cov in sorted(witness.get("covers", {}).items())}}


def _top_free_witness(sg, witness):
    if "failures" in witness:
        return _failures(sg, witness)
    return {"fixed_covers": {
        f"s={sg.name_of(s)} e={sg.name_of(e)}": _names(sg, cov)
        for (s, e), cov in sorted(witness["fixed_covers"].items())}}


def _minimal_witness(sg, witness):
    if "failures" in witness:
        return _failures(sg, witness)
    return {"conjugate_covers": {
        f"e={sg.name_of(e)} f={sg.name_of(f)}": [
            {"cover": sg.name_of(c), "via": sg.name_of(s)} for c, s in pairs]
        for (e, f), pairs in sorted(witness["conjugate_covers"].items())}}


def _contraction_witness(sg, witness):
    crit = witness.get("criterion", {})
    out = {"action_reason": witness.get("action_reason"),
           "groupoid_reason": witness.get("groupoid_reason")}
    if "e" in crit:
        out["refuted_at"] = sg.name_of(crit["e"])
    return out


# property -> its witness renderer, in the order the command line prints
_WITNESSES = {
    "hausdorff": _hausdorff_witness,
    "essentially_principal": _top_free_witness,
    "minimal": _minimal_witness,
    "locally_contracting": _contraction_witness,
}


def build_document(analysis: Analysis, name: str,
                   timing: dict | None = None) -> dict:
    """The verdict document of one instance, JSON ready: instance
    metadata, the four verdict pairs, the flags and conclusions, and
    each witness by element name; `timing` is present exactly when
    given."""
    sg = analysis.semigroup
    rep = analysis.report
    pairs = {p: getattr(rep, p) for p in _WITNESSES}
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
        "properties": {p: {"criterion": pair.criterion, "direct": pair.direct}
                       for p, pair in pairs.items()},
        "cstar_flags": dict(rep.cstar_flags),
        "conclusions": list(rep.conclusions),
        "witnesses": {p: render(sg, pairs[p].witness)
                      for p, render in _WITNESSES.items()},
    }
    if timing is not None:
        payload["timing"] = timing
    return payload


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


def _write_corpus(fh, seed: int, count: int, payloads) -> None:
    """Write to `fh` the corpus document, byte for byte the
    :func:`json_text` of ``{"schema_version": SCHEMA_VERSION, "corpus":
    {"seed": seed, "count": count}, "instances": list(payloads)}``, one
    payload at a time as `payloads` yields them, so that none is held
    once written."""
    head, tail = json_text({"schema_version": SCHEMA_VERSION,
                            "corpus": {"seed": seed, "count": count},
                            "instances": []}).split("[]")
    fh.write(head)
    written = False
    for payload in payloads:
        fh.write((",\n    " if written else "[\n    ") + _json(payload, "    "))
        written = True
    fh.write(("\n  ]" if written else "[]") + tail)


# The name the benchmark traces for writing a report.
emit_report = json_text


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
