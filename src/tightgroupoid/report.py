"""JSON report documents and DOT export.

Serialized output is byte stable for fixed inputs: keys are sorted,
collections are emitted in sorted order, and wall-clock timings stay out
of the payload unless the document was built with them.

Finite carriers repeat witness covers heavily (I5's 1,546 Hausdorff
covers hold 32 distinct ones), so the renderers build one list per
distinct cover and one dict per distinct (cover, via) pair, named from
one table per document.  Every JSON text is ``json.dumps(obj, indent=2,
sort_keys=True)`` byte for byte: orjson writes a value whose text is
sure to be the same, and the standard library every other value.
"""

from __future__ import annotations

import codecs
import json
from functools import cache
from itertools import chain, compress

import orjson

from .criteria import Analysis
from .germs import GermGroupoid

SCHEMA_VERSION = 1


def _lists(names):
    """A cover -> its sorted list of names, one list per distinct cover."""
    return cache(lambda cover: [names[i] for i in sorted(cover)])


def _failures(names, witness: dict) -> dict:
    """A refuted criterion's failures, each named key by key; both
    failure shapes hold the output's keys in the output's order."""
    return {"failures": [{k: names[v] for k, v in w.items()}
                         for w in witness["failures"]]}


def _hausdorff_witness(names, witness):
    lists = _lists(names)
    return {"covers": {names[s]: lists(cov)
                       for s, cov in witness.get("covers", {}).items()}}


def _top_free_witness(names, witness):
    if "failures" in witness:
        return _failures(names, witness)
    lists = _lists(names)
    return {"fixed_covers": {
        f"s={names[s]} e={names[e]}": lists(cov)
        for (s, e), cov in witness["fixed_covers"].items()}}


def _minimal_witness(names, witness):
    if "failures" in witness:
        return _failures(names, witness)
    pair = cache(lambda cs: {"cover": names[cs[0]], "via": names[cs[1]]})
    pairs = cache(lambda cover: list(map(pair, cover)))
    return {"conjugate_covers": {
        f"e={names[e]} f={names[f]}": pairs(cover)
        for (e, f), cover in witness["conjugate_covers"].items()}}


def _contraction_witness(names, witness):
    out = {k: witness.get(k) for k in ("action_reason", "groupoid_reason")}
    if "e" in witness.get("criterion", {}):
        out["refuted_at"] = names[witness["criterion"]["e"]]
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
    given.  Equal witness covers are one shared list object, so editing
    one edits them all."""
    sg = analysis.semigroup
    rep = analysis.report
    pairs = {p: getattr(rep, p) for p in _WITNESSES}
    names = sg.element_names or [f"s{s}" for s in range(sg.size)]
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
        "witnesses": {p: render(names, pairs[p].witness)
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
_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
_NESTS = frozenset({dict, list, tuple})
_PLAIN = _NESTS | {str, int, bool, type(None), float}
_ESCAPE = "tightgroupoid.json"   # a run of non-ASCII characters, as the stdlib escapes it
codecs.register_error(_ESCAPE, lambda e: (_string(e.object[e.start:e.end])[1:-1], e.end))


def _plain(obj) -> bool:
    """True when `obj` holds only dicts, lists, tuples, `str`, `int`,
    `bool`, None and floats of exactly those types, and orjson writes each
    float as `repr` does (not so 1e-07, which it writes 1e-7, nor NaN): then
    orjson writes `obj` as ``json.dumps`` does, or refuses it (a key not
    exactly `str`, an int past 64 bits, deep nesting, a lone surrogate).
    False for anything else, and when a container recurs below its first
    depth, as in a cycle.  One pass per depth, into each container once."""
    items, seen = [obj], set()
    while True:
        kinds = list(map(type, items))
        found = set(kinds)
        if not found <= _PLAIN:
            return False
        if float in found:
            floats = [x for x in items if type(x) is float]
            if list(map(orjson.dumps, floats)) != [repr(x).encode() for x in floats]:
                return False
        if found.isdisjoint(_NESTS):
            return True
        nested = items if found <= _NESTS else list(
            compress(items, map(_NESTS.__contains__, kinds)))
        fresh = dict(zip(map(id, nested), nested))
        if not seen.isdisjoint(fresh):
            return False
        seen.update(fresh)
        items = list(chain.from_iterable(
            [c.values() if type(c) is dict else c for c in fresh.values()]))


def json_text(obj) -> str:
    """The one JSON writer of the package: byte for byte
    ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.  orjson
    writes a plain value (see :func:`_plain`), and the standard library's
    escaper each run of non-ASCII where the ASCII encoder stops, and DEL;
    ``json.dumps`` writes every other value and any that orjson refuses."""
    if _plain(obj):
        try:
            text = orjson.dumps(obj, option=_OPTIONS).decode()
        except TypeError:
            pass
        else:
            if text.isascii() and "\x7f" not in text:
                return text
            return text.replace("\x7f", "\\u007f").encode("ascii", _ESCAPE).decode()
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
        text = json_text(payload)[:-1].replace("\n", "\n    ")
        fh.write((",\n    " if written else "[\n    ") + text)
        written = True
    fh.write(("\n  ]" if written else "[]") + tail)


# The name the benchmark traces for writing a report.
emit_report = json_text


def emit_dot(gpd: GermGroupoid, graph_name: str = "germs") -> str:
    """One node per unit, one labeled edge per non-unit arrow; labels are
    the canonical representatives, quoted as ``json.dumps`` quotes them."""
    sg = gpd.semigroup
    act = gpd.action
    lines = [f"digraph {_string(graph_name)} {{"]
    for x in range(act.points):
        lines.append(f'  u{x} [shape=circle, label={_string(act.label_of(x))}];')
    for i, (s, x) in enumerate(gpd.arrows):
        if i in gpd.units:
            continue
        label = f"[{sg.name_of(s)}, {act.label_of(x)}]"
        lines.append(
            f"  u{gpd.source[i]} -> u{gpd.target[i]} [label={_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
