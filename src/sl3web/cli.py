"""Command line front end: enumeration, conversion and verification.

Exit status 0 on success; 1 on a verification failure (with a replayable
counterexample payload) or on an exception that no payload parser turned into
a usage error (one ``internal error:`` line); 2 on a usage error, rejected by
argparse, by a payload parser below, by the ``--flow``/``--max-n`` range checks
or by ``--format csv`` on a verb that writes no CSV rows.
An argv spelled out in full is read from the option table, ARGUMENTS; any other builds
its verb's argparse sub-parser, or all six for root help, and only then loads argparse
(csv loads only for CSV output).
Each verb builds only what it prints.  `flows enumerate` builds no flow: it writes the
rows' texts off the flow-prefix walk (`flows._flow_walk`), each prefix's text its
parent's plus one move and one layer; `flows expand` expands the top layers' counts, one
polynomial per state; `bij iota` builds the one flow it fills.  With --format json,
`foam basis` and the `flows` actions fill one row template per row.
"""

from __future__ import annotations

import functools
import io
import json
import re
import shutil
import sys
import types
from collections import Counter

from sl3web import checks
from sl3web.bijection import cap_step, grow, iota, roundtrip_holds, survey
from sl3web.flows import (
    ClosedWeb,
    _bottom_subsets,
    _flow_walk,
    _top_counts,
    _top_state,
    bracket,
    flow_at,
    tensor_expansion,
)
from sl3web.foamword import (
    boundary_strand_count,
    dot_placement,
    enumerate_cellular_basis,
    graded_dim_pair,
    idempotent,
)
from sl3web.ladderweb import LadderWeb, LTWord, build_web, enumerate_basis, sign_weights
from sl3web.presets import PRESET_NAMES, preset_web
from sl3web.tableaux import Multipartition3, StdMultitableau3, tableau_cells


class UsageError(Exception):
    pass


# one flat row's keys and values, laid out as json.dumps(rows, indent=2) lays them out
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))
# one row of `foam basis`, `flows enumerate` or `flows expand`, its values filled in in
# column order, as json.dumps lays it out; the flow rows' strings hold digits, brackets,
# commas, spaces, q, ^, *, + and -, none of which JSON escapes, so the templates quote them
_BASIS_ROW = '  {{\n    "bottom": {2},\n    "degree": {3},\n    "shape": {0},\n    "top": {1}\n  }}'
_FLOW_ROW = ('  {{\n    "flow": {0},\n    "moves": "{1}",\n    "state": "{3}",\n'
             '    "strands": "{2}",\n    "weight": {4}\n  }}')
_EXPANSION_ROW = '  {{\n    "coefficient": "{1}",\n    "state": "{0}"\n  }}'
# the JSON text of each subset of the colors, as json.dumps(sorted(subset)) writes it
_SUBSET_TEXT = {frozenset(s): json.dumps(s)
                for s in ([], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3])}


def _emit(args, rows: list[dict], columns: list[str], text_fn=None):
    if args.format == "json":
        # json.dumps(rows, indent=2, sort_keys=True), through the C encoder: rows are flat
        body = ",\n".join("  {\n    " + _ROW_ENCODER.encode(row)[1:-1] + "\n  }" for row in rows)
        print(f"[\n{body}\n]" if rows else "[]")
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        sys.stdout.write(buf.getvalue())
    else:
        for row in rows:
            if text_fn:
                print(text_fn(row))
            else:
                print("  ".join(f"{k}={row[k]}" for k in columns if k in row))


def _emit_rows(args, template: str, rows: list[tuple], columns: list[str], text_fn=None):
    """`_emit` of the rows as dicts over `columns`; JSON fills `template` per row."""
    if args.format == "json":  # json.dumps(rows, indent=2, sort_keys=True) of the row dicts
        body = ",\n".join(template.format(*row) for row in rows)
        print(f"[\n{body}\n]" if rows else "[]")
    else:
        _emit(args, [dict(zip(columns, row)) for row in rows], columns, text_fn)


# -- payload parsers: the only source of usage errors ------------------------


def _signs(args, what: str) -> str:
    """The --signs payload of `what`: a classical sign string.  Its weight is a
    positive multiple of three, so it has at least two strands."""
    if args.signs is None:
        raise UsageError(f"{what} needs --signs")
    if args.signs == []:  # argparse drops a '--' from an option's values, even after '='
        raise UsageError(f"{what} needs a classical sign string, got '--'")
    try:
        sign_weights(args.signs)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if not args.signs or not set(args.signs) <= {"+", "-"}:
        raise UsageError(f"{what} needs a classical sign string, got {args.signs!r}")
    return args.signs


def _web_from_args(args) -> LadderWeb:
    """The web named by --preset, or by --word on --n strands at level --ell."""
    if getattr(args, "preset", None):
        return preset_web(args.preset)
    if not args.word:
        raise UsageError("need --word or --preset")
    for flag, value in (("n", args.n), ("ell", args.ell)):
        if value is not None and value < 0:
            raise UsageError(f"--{flag} must be non-negative, got {value}")
    try:
        word = LTWord.parse(args.word)
        n = max((i + 1 for i, _ in word.factors), default=2) if args.n is None else args.n
        # F_i applied first moves weight off a 3 onto a 0: only level i (or n, which
        # raises when i is past the strands) can carry a non-empty word
        levels = [args.ell] if args.ell is not None else (
            [min(word.factors[-1][0], n)] if word.factors else range(n + 1))
        webs = [web for ell in levels if (web := build_web(word, n, ell)) is not None]
    except ValueError as e:
        raise UsageError(str(e)) from None
    if not webs:
        at = "every level" if args.ell is None else f"level {args.ell}"
        raise UsageError(f"word {word} is zero on {n} strands at {at}")
    if len(webs) > 1:
        raise UsageError(f"level of {word} is ambiguous on {n} strands; pass --ell")
    return webs[0]


def _closed_from_pair(pair: list[str], args) -> ClosedWeb:
    if len(pair) == 1:
        web = preset_web(pair[0]) if pair[0] in PRESET_NAMES else None
        if web is None:
            raise UsageError(f"--pair with one value must name a preset: {PRESET_NAMES}")
        return ClosedWeb(web, web)
    if len(pair) == 2:
        u = _web_from_args(types.SimpleNamespace(word=pair[0], preset=None, n=args.n, ell=args.ell))
        v = _web_from_args(types.SimpleNamespace(word=pair[1], preset=None, n=args.n, ell=args.ell))
        try:
            return ClosedWeb(u, v)
        except ValueError as e:
            raise UsageError(str(e)) from None
    raise UsageError("--pair takes a preset name or two words")


def _json_payload(text: str | None, flag: str, what: str, parse):
    """`parse` applied to the JSON text of --`flag`; a ValueError it raises,
    from a schema check, a constructor or a validation, is a usage error."""
    if text is None:
        raise UsageError(f"{what} needs --{flag}")
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed {flag} JSON at position {e.pos}: {e.msg}") from None
    except ValueError as e:
        raise UsageError(str(e)) from None


# -- verb implementations -----------------------------------------------------


def cmd_webs(args) -> int:
    if args.action == "list":
        rows, skipped = [], 0
        for tableau, web in enumerate_basis(_signs(args, "webs list")):
            if web.word.total_length > args.max_total_length:
                skipped += 1
                continue
            rows.append(
                {
                    "tableau": "/".join("".join(map(str, r)) for r in tableau),
                    "word": str(web.word),
                    "boundary": web.boundary,
                    "length": web.word.length,
                    "total_length": web.word.total_length,
                }
            )
        _emit(args, rows, ["tableau", "word", "boundary", "length", "total_length"])
        if skipped:
            print(
                f"note: {skipped} webs over total length {args.max_total_length} "
                "suppressed; raise --max-total-length to see them",
                file=sys.stderr,
            )
        return 0
    web = _web_from_args(args)
    rows = [
        {"layer": i, "weights": " ".join(map(str, layer))}
        for i, layer in enumerate(web.layers)
    ]
    _emit(args, rows, ["layer", "weights"],
          text_fn=lambda r: f"{r['layer']:>3}  {r['weights']}")
    return 0


def _flow_rows(web: LadderWeb) -> list[tuple]:
    """(index, moves, strands, state, weight) of each flow on the web, the lists as JSON
    text.  A prefix's texts are its parent's plus one move and one layer, so each prefix
    writes one layer; nearly every prefix's layer and every flow's top is its own, so no
    text is cached.  A state of ints is written as json.dumps(list(state)) writes it."""
    subset = _SUBSET_TEXT.__getitem__
    moves = {s: ", " + text for s, text in _SUBSET_TEXT.items()}
    walk = _flow_walk(web, ("", "[[" + ", ".join(map(subset, _bottom_subsets(web))) + "]"),
                      lambda p, h, layer: (p[0] + moves[h],
                                           p[1] + ", [" + ", ".join(map(subset, layer)) + "]"))
    return [(idx, "[" + m[2:] + "]", s + "]", "[" + ", ".join(map(str, _top_state(top))) + "]",
             weight) for idx, (top, weight, (m, s)) in enumerate(walk)]


def cmd_flows(args) -> int:
    web = _web_from_args(args)
    if args.action == "enumerate":
        _emit_rows(args, _FLOW_ROW, _flow_rows(web),
                   ["flow", "moves", "strands", "state", "weight"],
                   text_fn=lambda r: (
                       f"flow={r['flow']}  moves={r['moves']}  state={r['state']}  "
                       f"weight={r['weight']}"
                   ))
        return 0
    # a top layer fixes the state: one polynomial per state
    expansion = sorted(((_top_state(top), p)
                        for top, p in tensor_expansion(_top_counts(web, {})).items()),
                       reverse=True)
    rows = [("[" + ", ".join(map(str, j)) + "]", str(p)) for j, p in expansion]
    _emit_rows(args, _EXPANSION_ROW, rows, ["state", "coefficient"])
    return 0


def _iota_web(args) -> LadderWeb:
    """The web of `bij iota`, refused on the two kinds of web that iota fills
    no flow of: a top layer starting with a weight-3 strand shifts every
    residue, and a rung whose two strands both end there (a cap) has no move."""
    web = _web_from_args(args)
    if web.layers[-1][:1] == (3,):
        raise UsageError(f"iota needs a top layer without leading weight-3 strands, "
                         f"got {' '.join(map(str, web.layers[-1]))}")
    if (step := cap_step(web)) is not None:
        j = web.word.application_order()[step - 1][1]
        raise UsageError(f"iota has no move for rung {step}: both its strands end there, "
                         f"weights ({j},{3 - j})->(0,3)")
    return web


def cmd_bij(args) -> int:
    if args.action == "iota":
        web = _iota_web(args)
        flow, count = flow_at(web, args.flow)
        if flow is None:
            raise UsageError(f"--flow must be 0..{count - 1}")
        t = iota(web, flow)
        print(json.dumps(t.to_json(), sort_keys=True) if args.format == "json" else t)
        return 0
    if args.action == "grow":
        web, flow = grow(_json_payload(args.tableau, "tableau", "bij grow",
                                       StdMultitableau3.from_json))
        payload = {
            "word": str(web.word),
            "n": web.n,
            "ell": web.ell,
            "moves": [sorted(h) for h in flow.moves],
            "boundary": web.boundary,
        }
        print(json.dumps(payload, sort_keys=True) if args.format == "json"
              else "\n".join(f"{k}: {v}" for k, v in payload.items()))
        return 0
    signs = _signs(args, "bij roundtrip")
    rows, all_ok = [], True
    for entry in survey(enumerate_basis(signs)):
        for idx, (_j, _d, flow, t) in enumerate(entry.records):
            ok = roundtrip_holds(entry.web, flow, t)
            all_ok &= ok
            rows.append({"word": str(entry.web.word), "flow": idx, "ok": ok})
    _emit(args, rows, ["word", "flow", "ok"],
          text_fn=lambda r: f"{'pass' if r['ok'] else 'FAIL'}  {r['word']}  flow {r['flow']}")
    if args.format == "text":
        print(
            f"roundtrip {signs}: "
            + ("all flow/web pairs roundtrip" if all_ok else "FAILURES above")
        )
    return 0 if all_ok else 1


def cmd_foam(args) -> int:
    if args.action == "basis":
        basis = enumerate_cellular_basis(_signs(args, "foam basis"))
        # each shape and filling recurs in many foams: write its text once; a JSON row
        # holds that text as a string
        quote = json.dumps if args.format == "json" else str
        shapes = functools.cache(lambda shape: quote(json.dumps(shape.to_json(), sort_keys=True)))
        cells = functools.cache(lambda t: quote(json.dumps(tableau_cells(t.rows))))
        rows = [(shapes(f.shape), cells(f.top_tableau), cells(f.bottom_tableau), f.degree)
                for f in basis]
        _emit_rows(args, _BASIS_ROW, rows, ["shape", "top", "bottom", "degree"])
        return 0
    if args.action == "dims":
        signs, rows = _signs(args, "foam dims"), []
        for a, b, br in checks.Boundary(signs).brackets:
            gd, shifted = graded_dim_pair(a, b), br.shift(len(signs))
            rows.append(
                {
                    "top": str(a.web.word),
                    "bottom": str(b.web.word),
                    "graded_dim": str(gd),
                    "shifted_bracket": str(shifted),
                    "match": gd == shifted,
                }
            )
        _emit(args, rows, ["top", "bottom", "graded_dim", "shifted_bracket", "match"])
        return 0 if all(r["match"] for r in rows) else 1
    shape = _json_payload(args.shape, "shape", "foam idem", Multipartition3.from_json)
    word = idempotent(shape)
    if (web := build_web(word, boundary_strand_count(shape), shape.m)) is None:
        raise RuntimeError(f"idempotent word of {shape} killed the highest weight vector")
    payload = {
        "word": str(word),
        "dots": dot_placement(shape),
        "boundary": web.boundary,
    }
    print(json.dumps(payload, sort_keys=True) if args.format == "json"
          else "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return 0


def cmd_bracket(args) -> int:
    print(bracket(_closed_from_pair(args.pair, args)))
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be at least 2, got {args.max_n}")
    names = list(checks.CHECKS) if args.check == "all" else [args.check]
    signs_list = (checks.classical_sign_strings(args.max_n) if args.signs is None
                  else [_signs(args, "verify")])
    results = checks.run_checks(names, signs_list)
    failures = [r for r in results if not r["ok"]]
    if args.format == "json":
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        texts = {"roundtrip": "all flow/web pairs roundtrip"}
        failed = Counter(r["check"] for r in failures)
        for name in names:
            status = f"{failed[name]} FAILURES" if failed[name] else texts.get(name, "ok")
            print(f"verify {name}: {status} over {len(signs_list)} boundaries")
        for r in failures:
            print("counterexample:", json.dumps(r, sort_keys=True))
    return 1 if failures else 0


COMMANDS = {"webs": cmd_webs, "flows": cmd_flows, "bij": cmd_bij, "foam": cmd_foam,
            "bracket": cmd_bracket, "verify": cmd_verify}
VERBS = tuple(COMMANDS)
# the verbs and actions that write CSV rows, as the root help lists them
CSV_WRITERS = ("webs list", "webs show", "flows enumerate", "flows expand", "bij roundtrip",
               "foam basis", "foam dims")


# -- parser -------------------------------------------------------------------


# Each verb's help and arguments in add_argument's order, the root's under None: a flag or
# positional name and the keyword arguments add_argument gets.  build_parser and
# _fast_parse both read this one table.
_WORD_ARGS = (("--word", {"help": "ladder word, e.g. 'F1 F2^2'"}),
              ("--preset", {"choices": PRESET_NAMES}),
              ("--n", {"type": int, "help": "strand count (default: fit the word)"}),
              ("--ell", {"type": int, "help": "level (default: unique viable)"}))
ARGUMENTS = {
    None: (None, (("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
                  ("--max-total-length", {"type": int, "default": 10}))),
    "webs": ("enumerate basis webs / dump word layers",
             (("action", {"choices": ("list", "show")}),
              ("--signs", {"help": "boundary sign string, e.g. '+-+-'"}), *_WORD_ARGS)),
    "flows": ("enumerate flows, tensor expansions",
              (("action", {"choices": ("enumerate", "expand")}), *_WORD_ARGS)),
    "bij": ("webs with flows <-> standard fillings",
            (("action", {"choices": ("iota", "grow", "roundtrip")}), *_WORD_ARGS,
             ("--flow", {"type": int, "default": 0, "help": "flow index"}),
             ("--tableau", {"help": "standard filling as JSON"}), ("--signs", {}))),
    "foam": ("cellular basis, graded dimensions, idempotents",
             (("action", {"choices": ("basis", "dims", "idem")}), ("--signs", {}),
              ("--shape", {"help": "multipartition as JSON"}))),
    "bracket": ("bracket of a closed pair",
                (("--pair", {"nargs": "+", "required": True}), ("--n", {"type": int}),
                 ("--ell", {"type": int}))),
    "verify": ("run structural checks",
               (("check", {"choices": (*checks.CHECKS, "all")}), ("--signs", {}),
                ("--max-n", {"type": int, "default": 6}))),
}


def build_parser(verb: str | None = None):
    """The root parser with every verb's sub-parser, or with `verb`'s only."""
    import argparse

    # argparse makes a formatter per argument (to check its metavar) and per parser, and
    # one given no width reads the terminal size: read it once, as HelpFormatter would
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="sl3web",
        formatter_class=formatter,
        description="Webs as ladder words, flows, fillings and symbolic foams.",
        epilog=(
            "CSV columns per verb: webs list (tableau, word, boundary, length, "
            "total_length); webs show (layer, weights); flows enumerate (flow, "
            "moves, strands, state, weight); flows expand (state, coefficient); "
            "bij roundtrip (word, flow, ok); foam basis (shape, top, bottom, "
            "degree); foam dims (top, bottom, graded_dim, shifted_bracket, match)."
        ),
    )
    for name, kwargs in ARGUMENTS[None][1]:
        parser.add_argument(name, **kwargs)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in VERBS:
        if verb in (None, name):
            p = sub.add_parser(name, help=ARGUMENTS[name][0], formatter_class=formatter)
            for arg, kwargs in ARGUMENTS[name][1]:
                p.add_argument(arg, **kwargs)
    # Root usage lines and "invalid choice" errors list every verb either way.
    sub.choices = VERBS
    return parser


def _fast_parse(argv: list[str]) -> types.SimpleNamespace | None:
    """argparse's namespace of an argv spelled out in full, as a SimpleNamespace; else None.

    In full: root options, the verb, its positional if it has one, then its options, each
    flag whole and given once, no value starting with '-' save after the --signs= that
    _normalize_argv writes.  Each entry's type, choices, nargs, required and default apply.
    """
    values, i = {}, 0

    def value(kwargs, text):
        v = kwargs["type"](text) if "type" in kwargs else text
        if v not in kwargs.get("choices", (v,)):
            raise ValueError(text)
        return v

    def read_options(args):
        """Read the options of `args` from argv[i:] up to the first token that is none."""
        nonlocal i
        flags = {name: kwargs for name, kwargs in args if name.startswith("-")}
        while i < len(argv):
            flag, eq, text = argv[i].partition("=")
            if flag not in flags or (eq and flag != "--signs"):
                return
            kwargs, j = flags[flag], i + 1
            if eq:  # argparse drops a '--' from an option's values, even one after '='
                texts = [text] if text != "--" else []
            else:
                while (j < len(argv) and not argv[j].startswith("-")
                       and (j == i + 1 or kwargs.get("nargs") == "+")):
                    j += 1
                texts = argv[i + 1:j]
            if flag in values or not texts:
                raise ValueError(flag)
            texts = [value(kwargs, t) for t in texts]
            values[flag], i = texts if "nargs" in kwargs else texts[0], j

    try:
        read_options(ARGUMENTS[None][1])
        if i == len(argv) or argv[i] not in VERBS:
            return None
        verb, args, i = argv[i], ARGUMENTS[argv[i]][1], i + 1
        if not args[0][0].startswith("-"):
            if i == len(argv) or argv[i].startswith("-"):
                return None
            values[args[0][0]] = value(args[0][1], argv[i])
            i += 1
        read_options(args)
    except ValueError:
        return None
    if i < len(argv) or any(kw.get("required") and name not in values for name, kw in args):
        return None
    return types.SimpleNamespace(verb=verb, **{
        name.lstrip("-").replace("-", "_"): values.get(name, kwargs.get("default"))
        for name, kwargs in (*ARGUMENTS[None][1], *args)})


def _normalize_argv(argv):
    """Join sign-string values onto their flag so leading '-' survives."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok == "--signs" and i + 1 < len(argv) and argv[i + 1] != "--"
                and re.fullmatch(r"[+\-ox]+", argv[i + 1])):
            out.append(f"--signs={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(list(argv))
    if (args := _fast_parse(argv)) is None:
        # Root help needs every sub-parser; any other call builds its verb's only.
        verb = next((t for t in argv if t in VERBS or t.startswith(("-h", "--h"))), None)
        parser = build_parser(verb if verb in VERBS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return 0 if e.code in (0, None) else 2
    try:
        name = f"{args.verb} {getattr(args, 'action', '')}".rstrip()
        if args.format == "csv" and name not in CSV_WRITERS:
            raise UsageError(f"{name} writes no CSV; CSV is written by: {', '.join(CSV_WRITERS)}")
        return COMMANDS[args.verb](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
