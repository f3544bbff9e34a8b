"""Command line front end: enumeration, conversion and verification.

Exit status 0 on success, 1 on a verification failure (with a replayable
counterexample payload), 2 on usage errors including malformed JSON.
A call builds only the sub-parser of the verb it names; root help builds all six.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import io
import json
import sys
from collections import Counter

from sl3web import checks
from sl3web.bijection import grow, iota, roundtrip_holds, survey
from sl3web.flows import (
    ClosedWeb,
    boundary_state,
    bracket,
    enumerate_flows,
    tensor_expansion,
)
from sl3web.foamword import (
    dot_placement,
    enumerate_cellular_basis,
    graded_dim_pair,
    idempotent,
)
from sl3web.ladderweb import LadderWeb, LTWord, SignString, build_web, enumerate_basis
from sl3web.presets import PRESET_NAMES, preset_web
from sl3web.tableaux import Multipartition3, StdMultitableau3


VERBS = ("webs", "flows", "bij", "foam", "bracket", "verify")


class UsageError(Exception):
    pass


def _emit(args, rows: list[dict], columns: list[str], text_fn=None):
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif args.format == "csv":
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


def _web_from_args(args) -> LadderWeb:
    if getattr(args, "preset", None):
        return preset_web(args.preset)
    if not args.word:
        raise UsageError("need --word or --preset")
    word = LTWord.parse(args.word)
    n = max((i + 1 for i, _ in word.factors), default=2) if args.n is None else args.n
    if args.ell is not None:
        web = build_web(word, n, args.ell)
        if web is None:
            raise UsageError(f"word {word} is zero on {n} strands at level {args.ell}")
        return web
    candidates = []
    for ell in range(0, n + 1):
        web = build_web(word, n, ell)
        if web is not None:
            candidates.append(web)
    if len(candidates) != 1:
        raise UsageError(
            f"level of {word} is ambiguous on {n} strands; pass --ell"
        )
    return candidates[0]


def _closed_from_pair(pair: list[str], args) -> ClosedWeb:
    if len(pair) == 1:
        web = preset_web(pair[0]) if pair[0] in PRESET_NAMES else None
        if web is None:
            raise UsageError(f"--pair with one value must name a preset: {PRESET_NAMES}")
        return ClosedWeb(web, web)
    if len(pair) == 2:
        u = _web_from_args(argparse.Namespace(word=pair[0], preset=None, n=args.n, ell=args.ell))
        v = _web_from_args(argparse.Namespace(word=pair[1], preset=None, n=args.n, ell=args.ell))
        return ClosedWeb(u, v)
    raise UsageError("--pair takes a preset name or two words")


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed {what} JSON at position {e.pos}: {e.msg}")


# -- verb implementations -----------------------------------------------------


def cmd_webs(args) -> int:
    if args.action == "list":
        S = SignString(args.signs)
        rows, skipped = [], 0
        for tableau, web in enumerate_basis(S):
            if web.word.total_length > args.max_total_length:
                skipped += 1
                continue
            rows.append(
                {
                    "tableau": "/".join("".join(map(str, r)) for r in tableau),
                    "word": str(web.word),
                    "boundary": str(web.boundary),
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


def cmd_flows(args) -> int:
    if args.action == "enumerate":
        web = _web_from_args(args)
        rows = []
        for idx, flow in enumerate(enumerate_flows(web)):
            rows.append(
                {
                    "flow": idx,
                    "moves": json.dumps([sorted(h) for h in flow.moves]),
                    "strands": json.dumps(
                        [[sorted(s) for s in layer] for layer in flow.subsets()]
                    ),
                    "state": json.dumps(list(boundary_state(web, flow))),
                    "weight": flow.exponent,
                }
            )
        _emit(args, rows, ["flow", "moves", "strands", "state", "weight"],
              text_fn=lambda r: (
                  f"flow={r['flow']}  moves={r['moves']}  state={r['state']}  "
                  f"weight={r['weight']}"
              ))
        return 0
    if args.action == "expand":
        web = _web_from_args(args)
        expansion = tensor_expansion(web)
        rows = [
            {"state": json.dumps(list(j)), "coefficient": str(p)}
            for j, p in sorted(expansion.items(), reverse=True)
        ]
        _emit(args, rows, ["state", "coefficient"])
        return 0
    raise UsageError(f"unknown flows action {args.action}")


def cmd_bij(args) -> int:
    if args.action == "iota":
        web = _web_from_args(args)
        flows = enumerate_flows(web)
        if not 0 <= args.flow < len(flows):
            raise UsageError(f"--flow must be 0..{len(flows) - 1}")
        flow = flows[args.flow]
        t = iota(web, flow)
        if args.format == "json":
            print(json.dumps(t.to_json(), sort_keys=True))
        else:
            print(t)
        return 0
    if args.action == "grow":
        data = _load_json(args.tableau, "tableau")
        t = StdMultitableau3.from_json(data)
        web, flow = grow(t)
        payload = {
            "word": str(web.word),
            "n": web.n,
            "ell": web.ell,
            "moves": [sorted(h) for h in flow.moves],
            "boundary": str(web.boundary),
        }
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            for k, v in payload.items():
                print(f"{k}: {v}")
        return 0
    if args.action == "roundtrip":
        rows, all_ok = [], True
        for entry in survey(args.signs):
            for idx, (_j, _d, flow, t) in enumerate(entry.records):
                ok = roundtrip_holds(entry.web, flow, t)
                all_ok &= ok
                rows.append(
                    {"word": str(entry.web.word), "flow": idx, "ok": ok}
                )
        _emit(args, rows, ["word", "flow", "ok"],
              text_fn=lambda r: f"{'pass' if r['ok'] else 'FAIL'}  {r['word']}  flow {r['flow']}")
        if args.format == "text":
            print(
                f"roundtrip {args.signs}: "
                + ("all flow/web pairs roundtrip" if all_ok else "FAILURES above")
            )
        return 0 if all_ok else 1
    raise UsageError(f"unknown bij action {args.action}")


def cmd_foam(args) -> int:
    if args.action == "basis":
        # each shape and filling recurs in many foams: serialise it once
        shape_text = functools.cache(lambda s: json.dumps(s.to_json(), sort_keys=True))
        cells_text = functools.cache(lambda t: json.dumps(t.to_json()["cells"]))
        rows = []
        for foam in enumerate_cellular_basis(args.signs):
            rows.append(
                {
                    "shape": shape_text(foam.shape),
                    "top": cells_text(foam.top_tableau),
                    "bottom": cells_text(foam.bottom_tableau),
                    "degree": foam.degree,
                }
            )
        _emit(args, rows, ["shape", "top", "bottom", "degree"])
        return 0
    if args.action == "dims":
        rows = []
        entries = survey(args.signs)
        for a in entries:
            for b in entries:
                gd = graded_dim_pair(a, b)
                br = bracket(ClosedWeb(a.web, b.web)).shift(len(args.signs))
                rows.append(
                    {
                        "top": str(a.web.word),
                        "bottom": str(b.web.word),
                        "graded_dim": str(gd),
                        "shifted_bracket": str(br),
                        "match": gd == br,
                    }
                )
        _emit(args, rows, ["top", "bottom", "graded_dim", "shifted_bracket", "match"])
        return 0 if all(r["match"] for r in rows) else 1
    if args.action == "idem":
        data = _load_json(args.shape, "shape")
        shape = Multipartition3.from_json(data)
        word, web = idempotent(shape)
        payload = {
            "word": str(word),
            "dots": dot_placement(shape),
            "boundary": str(web.boundary),
        }
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            for k, v in payload.items():
                print(f"{k}: {v}")
        return 0
    raise UsageError(f"unknown foam action {args.action}")


def cmd_verify(args) -> int:
    if args.signs and not SignString(args.signs).is_classical:
        raise UsageError(f"verify needs a classical sign string, got {args.signs}")
    names = list(checks.CHECKS) if args.check == "all" else [args.check]
    signs_list = [args.signs] if args.signs else checks.classical_sign_strings(args.max_n)
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


# -- parser -------------------------------------------------------------------


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The root parser with every verb's sub-parser, or with `verb`'s only."""
    parser = argparse.ArgumentParser(
        prog="sl3web",
        description="Webs as ladder words, flows, fillings and symbolic foams.",
        epilog=(
            "CSV columns per verb: webs list (tableau, word, boundary, length, "
            "total_length); flows enumerate (flow, moves, state, weight); flows "
            "expand (state, coefficient); foam basis (shape, top, bottom, degree); "
            "foam dims (top, bottom, graded_dim, shifted_bracket, match)."
        ),
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--max-total-length", type=int, default=10)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, help):
        return sub.add_parser(name, help=help) if verb in (None, name) else None

    def add_word_opts(p):
        p.add_argument("--word", help="ladder word, e.g. 'F1 F2^2'")
        p.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--n", type=int, help="strand count (default: fit the word)")
        p.add_argument("--ell", type=int, help="level (default: unique viable)")

    if p := add_verb("webs", "enumerate basis webs / dump word layers"):
        p.add_argument("action", choices=("list", "show"))
        p.add_argument("--signs", help="boundary sign string, e.g. '+-+-'")
        add_word_opts(p)

    if p := add_verb("flows", "enumerate flows, tensor expansions"):
        p.add_argument("action", choices=("enumerate", "expand"))
        add_word_opts(p)

    if p := add_verb("bij", "webs with flows <-> standard fillings"):
        p.add_argument("action", choices=("iota", "grow", "roundtrip"))
        add_word_opts(p)
        p.add_argument("--flow", type=int, default=0, help="flow index")
        p.add_argument("--tableau", help="standard filling as JSON")
        p.add_argument("--signs")

    if p := add_verb("foam", "cellular basis, graded dimensions, idempotents"):
        p.add_argument("action", choices=("basis", "dims", "idem"))
        p.add_argument("--signs")
        p.add_argument("--shape", help="multipartition as JSON")

    if p := add_verb("bracket", "bracket of a closed pair"):
        p.add_argument("--pair", nargs="+", required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--ell", type=int)

    if p := add_verb("verify", "run structural checks"):
        p.add_argument("check", choices=tuple(checks.CHECKS) + ("all",))
        p.add_argument("--signs")
        p.add_argument("--max-n", type=int, default=6)

    # Root usage lines and "invalid choice" errors list every verb either way.
    sub.choices = VERBS
    return parser


def run(args) -> int:
    if args.verb == "webs":
        if args.action == "list" and not args.signs:
            raise UsageError("webs list needs --signs")
        return cmd_webs(args)
    if args.verb == "flows":
        return cmd_flows(args)
    if args.verb == "bij":
        if args.action == "roundtrip" and not args.signs:
            raise UsageError("bij roundtrip needs --signs")
        return cmd_bij(args)
    if args.verb == "foam":
        if args.action in ("basis", "dims") and not args.signs:
            raise UsageError(f"foam {args.action} needs --signs")
        if args.action == "idem" and not args.shape:
            raise UsageError("foam idem needs --shape")
        return cmd_foam(args)
    if args.verb == "bracket":
        closed = _closed_from_pair(args.pair, args)
        print(bracket(closed))
        return 0
    if args.verb == "verify":
        return cmd_verify(args)
    raise UsageError(f"unknown verb {args.verb}")


def _normalize_argv(argv):
    """Join sign-string values onto their flag so leading '-' survives."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--signs" and i + 1 < len(argv) and re.fullmatch(r"[+\-ox]+", argv[i + 1]):
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
    # Root help needs every sub-parser; any other call builds its verb's only.
    verb = next((t for t in argv if t in VERBS or t.startswith(("-h", "--h"))), None)
    parser = build_parser(verb if verb in VERBS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return run(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
