"""Regenerate hostbench/golden.json from the program in src/.

    PYTHONPATH=src python3 hostbench/make_golden.py

The file holds every command the benchmark runs, with the exit code and
stdout sha256 the program gave when the file was made, and the counts the
paper's examples fix.  Run it only when outputs are meant to change; the
benchmark counts any difference from this file as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import workloads  # noqa: E402
from sl3web.bijection import iota  # noqa: E402
from sl3web.cli import main  # noqa: E402
from sl3web.flows import enumerate_flows  # noqa: E402
from sl3web.ladderweb import enumerate_basis  # noqa: E402

def query_pool() -> list[tuple[str, list[str]]]:
    """Small desk commands over every classical boundary with n <= 6.

    Each comes with its stratum, the command and strand count, which the
    benchmark uses to give every batch the same mix of commands.
    """
    pool: list[tuple[str, list[str]]] = []
    for signs in workloads.classical(2, 6):
        pool.append((f"webs list n{len(signs)}", ["--format", "json", "--max-total-length", "99",
                                                  "webs", "list", "--signs", signs]))
        basis = [web for _rows, web in enumerate_basis(signs)]
        for k, web in enumerate(basis):
            word = str(web.word)
            if not word:
                continue  # the empty word cannot be passed as --word
            at = ["--word", word, "--n", str(web.n), "--ell", str(web.ell)]
            flows = enumerate_flows(web)
            pick = len(flows) // 2
            filling = iota(web, flows[pick])
            other = str(basis[(k + 1) % len(basis)].word) or word
            commands = [
                ["--format", "json", "flows", "enumerate", *at],
                ["--format", "json", "flows", "expand", *at],
                ["--format", "json", "bij", "iota", *at, "--flow", str(pick)],
                ["--format", "json", "bij", "grow",
                 "--tableau", json.dumps(filling.to_json(), sort_keys=True)],
                ["bracket", "--pair", word, other, "--n", str(web.n), "--ell", str(web.ell)],
                ["--format", "json", "foam", "idem",
                 "--shape", json.dumps(filling.shape.to_json(), sort_keys=True)],
            ]
            for argv in commands:
                verb = next(a for a in argv if a in ("flows", "bij", "foam", "bracket"))
                action = "" if verb == "bracket" else " " + argv[argv.index(verb) + 1]
                pool.append((f"{verb}{action} n{len(signs)}", argv))
    unique: dict[str, tuple[str, list[str]]] = {}
    for stratum, argv in pool:
        unique.setdefault(json.dumps(argv), (stratum, argv))
    return list(unique.values())


def record(argv: list[str], stratum: str | None = None) -> dict:
    caches = child.find_caches()
    for fn in caches.values():
        fn.cache_clear()
    _seconds, code, digest, rows = child.run_argv(main, argv)
    if code != 0:
        raise SystemExit(f"golden command failed with exit {code}: {argv}")
    out = {"argv": argv, "code": code, "sha256": digest, "rows": rows}
    if stratum:
        out["stratum"] = stratum
    return out


def build() -> dict:
    golden = {
        "verify": {s: record(workloads.verify_argv(s)) for s in workloads.VERIFY_SIGNS},
        "foam": {s: record(workloads.foam_argv(s)) for s in workloads.FOAM_SIGNS},
        "queries": [record(argv, stratum) for stratum, argv in query_pool()],
    }
    rows = {("foams", s): g["rows"] for s, g in golden["foam"].items()}
    rows.update({("webs", q["argv"][-1]): q["rows"]
                 for q in golden["queries"] if "webs" in q["argv"]})
    for key, want in workloads.KNOWN.items():
        if key in rows and rows[key] != want:
            raise SystemExit(f"{key}: {rows[key]}, the worked example has {want}")
    return golden


if __name__ == "__main__":
    golden = build()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
