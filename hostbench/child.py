"""One job process: run sl3web command lines through sl3web.cli.main.

    python hostbench/child.py [--trace] ARGV_JSON

ARGV_JSON is a JSON list of argv lists.  Before each command every
functools cache in the sl3web module namespaces is cleared, so a command
costs what one cold CLI call costs after set-up, whatever ran before it.
The command's stdout is captured and digested.  The last line printed is
one JSON object with, per command, [CPU seconds, exit code, stdout sha256,
rows], where rows is the length of a JSON-list output and null otherwise,
plus the number of caches cleared, the process's peak RSS and CPU
seconds and, with --trace, the tracer's per-function statistics.

With ``--scale SIGNS`` the process instead times the layers on one
boundary in stages (webs, flows, fillings, foams) and prints their counts
and CPU seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from tracer import Tracer, sl3web_modules


def find_caches() -> dict[str, object]:
    """Every functools cache bound in an sl3web module namespace, by name."""
    found: dict[int, tuple[str, object]] = {}
    for mod in sl3web_modules():
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and id(obj) not in found:
                found[id(obj)] = (f"{obj.__module__}.{obj.__qualname__}", obj)
    return dict(found.values())


def run_argv(main, argv: list[str]) -> tuple[float, int, str, int | None]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            code = -1
    seconds = time.process_time() - t0
    text = out.getvalue()
    rows = None
    if text.startswith("["):
        try:
            rows = len(json.loads(text))
        except json.JSONDecodeError:
            pass
    return seconds, code, hashlib.sha256(text.encode()).hexdigest(), rows


def cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children so far."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_batch(argvs: list[list[str]], trace: bool) -> dict:
    from sl3web import cli

    caches = find_caches()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    cache_stats = {name: [0, 0] for name in caches}
    results = []
    for argv in argvs:
        for fn in caches.values():
            fn.cache_clear()
        results.append(run_argv(cli.main, argv))
        if tracer:
            tracer.end_command()
        for name, fn in caches.items():
            info = fn.cache_info()
            cache_stats[name][0] += info.hits
            cache_stats[name][1] += info.misses
    return {
        "results": results,
        "caches_cleared": len(caches),
        "cache_stats": cache_stats,
        "wrapped": tracer.wrapped if tracer else 0,
        "trace": tracer.report() if tracer else None,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpu_s": cpu_seconds(),
    }


def run_scale(signs: str, foams: bool) -> dict:
    from sl3web.bijection import iota
    from sl3web.flows import enumerate_flows
    from sl3web.foamword import enumerate_cellular_basis
    from sl3web.ladderweb import enumerate_basis

    clock = time.process_time
    t0 = clock()
    basis = enumerate_basis(signs)
    t1 = clock()
    flows = [(web, flow) for _rows, web in basis for flow in enumerate_flows(web)]
    t2 = clock()
    for web, flow in flows:
        iota(web, flow)
    t3 = clock()
    out = {
        "webs": [len(basis), t1 - t0],
        "flows": [len(flows), t2 - t1],
        "fillings": [len(flows), t3 - t2],
    }
    if foams:
        out["foams"] = [len(enumerate_cellular_basis(signs)), clock() - t3]
    return out


def main() -> None:
    args = sys.argv[1:]
    if args[:1] == ["--scale"]:
        report = run_scale(args[1], foams=args[2:] != ["--no-foams"])
    else:
        trace = args[:1] == ["--trace"]
        report = run_batch(json.loads(args[-1]), trace)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
