"""Host-normalised benchmark of the sl3web command line.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/sl3web.  Every job is a
fresh interpreter running sl3web command lines (hostbench/child.py), one
at a time on one CPU, in a closed loop with one client.  The frozen
reference loop (refloop.py) runs in this process right before, during and
right after each job; a job's normalised time is its CPU time times
R0 / R, with R the mean reference time around it, so the figures read as
seconds on a nominal host even while this host's speed drifts.  Every
output is checked against golden.json.  The last stdout line is the JSON
result; the lines before it are the report for readers.  DESIGN.md
explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refloop  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
CHILD = str(HERE / "child.py")
SETUP_EVERY = 2  # one set-up measurement after every second job
SETUP_MIN = 21
QUERY_BATCHES = 22  # batches per pass over the query pool, ~0.5 s each
TRACED_QUERY_BATCHES = 6
RUN_LIMIT = 150  # seconds; jobs still running then are killed and count as failed
WARM_UP = ["--format", "json", "verify", "all", "--signs", "+-"]  # imports every module
SAMPLE_GAP = 0.04  # seconds between reference passes while a job runs
SETUP_SNIPPET = (
    "import time\n"
    "from sl3web.cli import build_parser\n"
    "build_parser()\n"
    "print(repr(time.process_time()))\n"
)
LAYERS = ("laurent", "tableaux", "ladderweb", "flows", "bijection", "foamword", "checks", "cli")
IMPORT_MODULES = ("sl3web", *(f"sl3web.{m}" for m in (*LAYERS, "presets")))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    """Median, or 0.0 when every sample failed (the run is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Host:
    """Spawns jobs one at a time on this process's CPU, next to the reference loop.

    A job's R is the mean of the reference passes run right before it, every
    SAMPLE_GAP seconds while it runs, and right after it.  The passes are
    timed in this thread's CPU time, and a job's time is its own CPU time,
    so neither counts the other's share of the CPU.  With setup_every > 0,
    every that many jobs one extra interpreter measures set-up time, so
    set-up samples spread over the whole run.
    """

    def __init__(self, setup_every: int = 0):
        # Jobs import from bytecode in a cache of the benchmark's own, whatever the
        # environment says about writing bytecode or what src/ holds ...
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # ... filled before anything is measured.
        subprocess.run([sys.executable, CHILD, json.dumps([WARM_UP])], env=self.env,
                       cwd=ROOT, capture_output=True, timeout=RUN_LIMIT)
        self.refs = [refloop.reference_seconds()]
        self.pairs: list[tuple[float, float]] = []  # (job time / its median, R)
        self.setup_every = setup_every
        self.jobs = 0
        self.setups: list[tuple[float, float]] = []  # (raw s, normalised s)
        self.setup_attempts = 0
        self.deadline = time.perf_counter() + RUN_LIMIT

    def spawn(self, cmd: list[str], sample: bool = True):
        """Run one process; return its wall seconds, exit code, stdout, stderr and R."""
        during = []
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            limit = max(0.1, self.deadline - t0)
            pidfd = os.pidfd_open(proc.pid)
            try:
                # sample until the child exits or starts writing its report
                while (sample and time.perf_counter() - t0 < limit
                       and not select.select([pidfd, proc.stdout, proc.stderr], [], [],
                                             SAMPLE_GAP)[0]):
                    during.append(refloop.reference_seconds())
                try:
                    out, err = proc.communicate(timeout=max(0.1, limit - (time.perf_counter() - t0)))
                except subprocess.TimeoutExpired:
                    proc.kill()  # counts as a failed job; the run still ends in time
                    out, err = proc.communicate()
            finally:
                os.close(pidfd)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(err[-2000:])
        before = self.refs[-1]
        self.refs += during + [refloop.reference_seconds()]
        return wall, proc.returncode, out, err, statistics.mean([before, *during, self.refs[-1]])

    def job(self, argvs: list[list[str]], trace: bool = False, sample: bool = True):
        """Run command lines in one child; return (CPU seconds, R, child report or None)."""
        cmd = [sys.executable, CHILD, *(["--trace"] if trace else []), json.dumps(argvs)]
        wall, code, out, _err, ref = self.spawn(cmd, sample)
        report = json.loads(out.strip().splitlines()[-1]) if code == 0 and out.strip() else None
        self.jobs += 1
        if self.setup_every and self.jobs % self.setup_every == 0:
            self.measure_setup()
        return (report["cpu_s"] if report else wall), ref, report

    def measure_setup(self) -> None:
        """CPU seconds of a fresh interpreter until build_parser() returns."""
        _wall, code, out, _err, ref = self.spawn([sys.executable, "-c", SETUP_SNIPPET])
        self.setup_attempts += 1
        if code == 0:
            seconds = float(out)
            self.setups.append((seconds, seconds * refloop.R0 / ref))


class Tally:
    """Operations attempted and failed against golden outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, report, goldens: list[dict]) -> list:
        """Compare one child's results with their golden entries."""
        self.attempted += len(goldens)
        results = report["results"] if report else [None] * len(goldens)
        for got, want in zip(results, goldens):
            if got is None or [got[1], got[2], got[3]] != [want["code"], want["sha256"], want["rows"]]:
                self.failed += 1
                self.notes.append(f"mismatch: {' '.join(want['argv'])} -> {got and got[1:]}")
        return results

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.notes.append(f"{what}: got {got}, want {want}")


def correlation(xs: list[float], ys: list[float]) -> float:
    if len(xs) < 3 or statistics.pstdev(xs) == 0 or statistics.pstdev(ys) == 0:
        return float("nan")
    return statistics.correlation(xs, ys)


# -- timed runs -----------------------------------------------------------------


def sweep_jobs(kind: str, golden: dict) -> dict[str, dict]:
    signs = workloads.VERIFY_SIGNS if kind == "verify" else workloads.FOAM_SIGNS
    return {s: golden[kind][s] for s in signs}


def run_sweep(host: Host, tally: Tally, jobs: dict[str, dict], rng: random.Random,
              seconds: float, known: dict) -> dict:
    """Whole cycles over the job set; a cycle starts only if it should end in time."""
    walls: dict[str, list[tuple[float, float]]] = {s: [] for s in jobs}
    rss = []
    start = time.perf_counter()
    cycle_s = 0.0
    cycles = 0
    while cycles < 2 or time.perf_counter() - start + cycle_s <= seconds:
        t0 = time.perf_counter()
        for signs in rng.sample(list(jobs), len(jobs)):
            wall, ref, report = host.job([jobs[signs]["argv"]])
            (result,) = tally.check(report, [jobs[signs]])
            walls[signs].append((wall, ref))
            if report:
                rss.append(report["rss_kb"])
                if cycles == 0 and (("foams", signs) in known):
                    tally.expect(f"foams on {signs}", result[3], known[("foams", signs)])
        cycle_s = time.perf_counter() - t0
        cycles += 1
    norm = {s: statistics.median(w * refloop.R0 / r for w, r in v) for s, v in walls.items()}
    raw = {s: statistics.median(w for w, _ in v) for s, v in walls.items()}
    for s, v in walls.items():
        host.pairs += [(w / raw[s], r) for w, r in v]
    # a boundary's latency is its median over the run's cycles
    return {
        "wall_norm_s": sum(norm.values()),
        "wall_s": sum(raw.values()),
        "lat_norm": list(norm.values()),
        "lat_raw": list(raw.values()),
        "rss_kb": rss,
        "samples": f"{cycles} cycles x {len(jobs)} jobs",
        "lat_base": f"medians of {len(jobs)} boundaries over {cycles} jobs each",
    }


def query_batches(pool: list[dict], rng: random.Random, count: int) -> list[list[dict]]:
    """One seeded pass over the pool in `count` batches; no command repeats in a batch.

    Commands are shuffled, grouped by stratum and dealt round-robin, so every
    batch gets the same mix of commands and strand counts.
    """
    order = sorted(rng.sample(pool, len(pool)), key=lambda q: q["stratum"])
    return [order[k::count] for k in range(count)]


def run_queries(host: Host, tally: Tally, pool: list[dict], rng: random.Random,
                seconds: float) -> dict:
    """Whole passes over the query pool, each in QUERY_BATCHES fresh interpreters."""
    lat_norm, lat_raw, batch_norm, batch_raw, rss, cleared = [], [], [], [], [], set()
    start = time.perf_counter()
    pass_s = 0.0
    passes = 0
    while passes < 1 or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        for batch in query_batches(pool, rng, QUERY_BATCHES):
            wall, ref, report = host.job([q["argv"] for q in batch])
            results = tally.check(report, batch)
            batch_norm.append(wall * refloop.R0 / ref)
            batch_raw.append(wall)
            host.pairs.append((wall, ref))
            if report:
                rss.append(report["rss_kb"])
                cleared.add(report["caches_cleared"])
                for seconds_q, *_ in results:
                    lat_raw.append(seconds_q)
                    lat_norm.append(seconds_q * refloop.R0 / ref)
        pass_s = time.perf_counter() - t0
        passes += 1
    # the correlation compares each batch with the median batch
    med = statistics.median(w for w, _ in host.pairs)
    host.pairs = [(w / med, r) for w, r in host.pairs]
    return {
        "wall_norm_s": statistics.median(batch_norm) * QUERY_BATCHES,
        "wall_s": statistics.median(batch_raw) * QUERY_BATCHES,
        "lat_norm": lat_norm,
        "lat_raw": lat_raw,
        "rss_kb": rss,
        "samples": f"{passes} passes x {QUERY_BATCHES} batches, {len(lat_norm)} queries",
        "lat_base": f"{len(lat_norm)} queries",
        "caches_cleared": sorted(cleared),
    }


def timed(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, Tally, list[str]]:
    rng = random.Random(seed)
    host = Host(setup_every=SETUP_EVERY)
    tally = Tally()
    known = workloads.KNOWN
    tally.expect("five-strand boundaries", len(workloads.VERIFY_SIGNS),
                 known[("five-strand boundaries", "")])
    if workload == "queries":
        res = run_queries(host, tally, golden["queries"], rng, seconds)
    else:
        kind = "verify" if workload == "verify-sweep" else "foam"
        res = run_sweep(host, tally, sweep_jobs(kind, golden), rng, seconds, known)
    while len(host.setups) < SETUP_MIN and host.setup_attempts < 2 * SETUP_MIN:
        host.measure_setup()
    tally.expect("failed set-up spawns", host.setup_attempts - len(host.setups), 0)
    setup = [norm for _raw, norm in host.setups]
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_norm_s": (res["wall_norm_s"], "s"),
        "query_p50_norm_ms": (1000 * median(res["lat_norm"]), "ms"),
        "query_p90_norm_ms": (1000 * percentile(res["lat_norm"], 90), "ms"),
        "peak_rss_mb": (max(res["rss_kb"], default=0) / 1024, "MB"),
    }
    refs = host.refs
    r1, r2, r3 = quartiles(refs)
    xs, ys = zip(*host.pairs) if host.pairs else ((), ())
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds:g}  python {sys.version.split()[0]}"
        f"  cpus {os.cpu_count()}",
        f"samples: {res['samples']}; set-up {len(setup)} spawns",
        f"reference loop: median {r2 * 1000:.3f} ms  IQR {(r3 - r1) / r2:.1%} of median"
        f"  over {len(refs)} passes  (R0 {refloop.R0 * 1000:g} ms)",
        f"correlation of job time (vs its median) with its reference time: "
        f"{correlation(list(xs), list(ys)):.2f} over {len(xs)} jobs",
        f"wall_norm_s {res['wall_norm_s']:.4f}   raw wall_s {res['wall_s']:.4f}",
        f"query_p50_norm_ms {metrics['query_p50_norm_ms'][0]:.4f}   raw query_p50_ms "
        f"{1000 * median(res['lat_raw']):.4f}   ({res['lat_base']})",
        f"query_p90_norm_ms {metrics['query_p90_norm_ms'][0]:.4f}   raw query_p90_ms "
        f"{1000 * percentile(res['lat_raw'], 90):.4f}",
        f"setup_s {median(setup):.4f}   raw setup_raw_s "
        f"{median(r for r, _n in host.setups):.4f}   ({len(setup)} samples)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} over {len(res['rss_kb'])} job processes",
        f"ops_failed_frac {tally.failed / tally.attempted:.4f} "
        f"({tally.failed} of {tally.attempted} operations)",
    ]
    if "caches_cleared" in res:
        lines.append(f"functools caches cleared before each query: {res['caches_cleared']}")
    # the other form of each timing, for readers and steadiness.py
    lines.append("other forms: " + json.dumps({
        "wall_s": res["wall_s"],
        "query_p50_ms": 1000 * median(res["lat_raw"]),
        "query_p90_ms": 1000 * percentile(res["lat_raw"], 90),
        "setup_raw_s": median(r for r, _n in host.setups),
    }))
    return metrics, tally, lines


# -- traced run -----------------------------------------------------------------


def traced_jobs(workload: str, golden: dict, rng: random.Random) -> list[list[dict]]:
    if workload == "queries":
        return query_batches(golden["queries"], rng, QUERY_BATCHES)[:TRACED_QUERY_BATCHES]
    kind = "verify" if workload == "verify-sweep" else "foam"
    jobs = sweep_jobs(kind, golden)
    return [[jobs[s]] for s in rng.sample(list(jobs), len(jobs))]


def import_ms(host: Host) -> dict[str, float]:
    """Self import time per sl3web module from `python -X importtime`, normalised."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(5):
        _wall, _code, _out, err, ref = host.spawn(
            [sys.executable, "-X", "importtime", "-c", "import sl3web.cli"], sample=False)
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1000 * refloop.R0 / ref)
    return {m: median(v) for m, v in samples.items()}


def scale_table(host: Host, tally: Tally) -> list[str]:
    lines = ["scale table (normalised us per object; one fresh process per boundary):",
             f"  {'boundary':<10} {'webs':>6} {'us/web':>9} {'flows':>6} {'us/flow':>9}"
             f" {'us/filling':>10} {'foams':>6} {'us/foam':>9}"]
    for signs in workloads.SCALE_SIGNS:
        cmd = [sys.executable, CHILD, "--scale", signs]
        if signs in workloads.SCALE_WITHOUT_FOAMS:
            cmd.append("--no-foams")
        _wall, code, out, _err, ref = host.spawn(cmd)
        if code != 0:
            tally.expect(f"scale {signs} exit", code, 0)
            continue
        rep = json.loads(out.strip().splitlines()[-1])
        scale = refloop.R0 / ref * 1e6

        def per(key):
            n, s = rep.get(key, (0, 0.0))
            return f"{s * scale / n:9.1f}" if n else f"{'-':>9}"

        for what in ("webs", "flows", "foams"):
            if (what, signs) in workloads.KNOWN and what in rep:
                tally.expect(f"{what} on {signs}", rep[what][0], workloads.KNOWN[(what, signs)])
        lines.append(f"  {signs:<10} {rep['webs'][0]:>6} {per('webs')} {rep['flows'][0]:>6}"
                     f" {per('flows')} {per('fillings'):>10} {rep.get('foams', ('-',))[0]:>6}"
                     f" {per('foams')}")
    return lines


def src_lines() -> list[str]:
    counts = {p.name: sum(1 for _ in p.open()) for p in sorted((ROOT / "src" / "sl3web").glob("*.py"))}
    body = "  ".join(f"{k} {v}" for k, v in counts.items())
    return [f"src/ lines: {sum(counts.values())} total; {body}"]


def layer_metrics(funcs: dict[str, list], cache_stats: dict[str, list], flow_webs: int) -> dict:
    """Per-layer metrics from merged per-function [calls, incl, self, items]."""
    def f(key):
        return funcs.get(key, [0, 0.0, 0.0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(name):
        hits, misses = cache_stats.get(name, (0, 0))
        return ratio(hits, hits + misses)

    total = f("cli.main")[1]
    self_s = {layer: 0.0 for layer in LAYERS}
    for key, (_c, _i, s, _n) in funcs.items():
        layer = key.split(".")[0]
        if layer in self_s:
            self_s[layer] += s
    flows = f("flows.enumerate_flows")[3]
    foams = f("foamword.enumerate_cellular_basis")[3]
    webs = f("ladderweb.build_web")[0]
    out = {f"{layer}.self_share": (ratio(self_s[layer], total), "share") for layer in LAYERS}
    out.update({
        "cli.main_norm_s": (total, "s"),
        "checks.norm_ms_per_unit": (1e3 * ratio(f("checks.run_checks")[1], f("checks.run_checks")[3]), "ms"),
        "checks.units": (f("checks.run_checks")[3], "count"),
        "checks.survey_hit_ratio": (hit_ratio("sl3web.checks.survey"), "share"),
        "checks.survey_lookups": (sum(cache_stats.get("sl3web.checks.survey", ())), "count"),
        "foamword.norm_us_per_foam": (1e6 * ratio(self_s["foamword"], foams), "us"),
        "foamword.foams": (foams, "count"),
        "foamword.minimal_permutation_calls": (f("foamword.minimal_permutation")[0], "count"),
        "tableaux.constructions": (f("tableaux.StdMultitableau3.__init__")[0], "count"),
        "tableaux.norm_us_per_degree": (1e6 * ratio(f("tableaux.bkw_degree")[1], f("tableaux.bkw_degree")[0]), "us"),
        "tableaux.degree_calls": (f("tableaux.bkw_degree")[0], "count"),
        "tableaux.bkw_degree_hit_ratio": (hit_ratio("sl3web.tableaux._bkw_degree_cached"), "share"),
        "tableaux.bkw_degree_lookups": (sum(cache_stats.get("sl3web.tableaux._bkw_degree_cached", ())), "count"),
        "bijection.norm_us_per_filling": (1e6 * ratio(f("bijection.iota")[1], f("bijection.iota")[0]), "us"),
        "bijection.iota_calls": (f("bijection.iota")[0], "count"),
        "bijection.norm_us_per_grow": (1e6 * ratio(f("bijection.grow")[1], f("bijection.grow")[0]), "us"),
        "bijection.grow_calls": (f("bijection.grow")[0], "count"),
        "bijection.iota_calls_per_flow": (ratio(f("bijection.iota")[0], flows), "ratio"),
        "flows.norm_us_per_flow": (1e6 * ratio(self_s["flows"], flows), "us"),
        "flows.flows": (flows, "count"),
        "flows.enumerate_calls_per_web": (ratio(f("flows.enumerate_flows")[0], flow_webs), "ratio"),
        "flows.webs_enumerated": (flow_webs, "count"),
        "ladderweb.webs": (webs, "count"),
        "ladderweb.norm_us_per_web": (1e6 * ratio(self_s["ladderweb"], webs), "us"),
        "laurent.add_calls": (f("laurent.LaurentPoly.__add__")[0], "count"),
        "cli.parse_share": (ratio(total - f("cli.run")[1], total), "share"),
    })
    return out


def traced(workload: str, seed: int, golden: dict) -> tuple[dict, Tally, list[str]]:
    rng = random.Random(seed)
    host = Host()
    tally = Tally()
    jobs = traced_jobs(workload, golden, rng)
    wall = {False: 0.0, True: 0.0}
    funcs: dict[str, list] = {}
    cache_stats: dict[str, list] = {}
    flow_webs = 0
    for batch in jobs:
        for trace in (False, True):  # paired, so drift between them stays small
            # no passes during the job: spans are wall time and must not count them
            w, ref, report = host.job([q["argv"] for q in batch], trace=trace, sample=False)
            tally.check(report, batch)
            wall[trace] += w * refloop.R0 / ref
            if not report:
                continue
            if not trace:
                tally.expect("functions wrapped in an untraced job", report["wrapped"], 0)
                continue
            scale = refloop.R0 / ref
            for key, (calls, incl, self_, items) in report["trace"]["functions"].items():
                acc = funcs.setdefault(key, [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += incl * scale
                acc[2] += self_ * scale
                acc[3] += items
            for name, (hits, misses) in report["cache_stats"].items():
                acc = cache_stats.setdefault(name, [0, 0])
                acc[0] += hits
                acc[1] += misses
            flow_webs += report["trace"]["flow_webs"]
    metrics = layer_metrics(funcs, cache_stats, flow_webs)
    metrics["trace.overhead_norm_s"] = (wall[True] - wall[False], "s")
    imports = import_ms(host)
    for mod, ms in imports.items():
        metrics[f"cli.import_ms.{mod.removeprefix('sl3web.') if mod != 'sl3web' else 'package'}"] = (ms, "ms")
    n_ops = sum(len(b) for b in jobs)
    lines = [
        f"traced workload {workload}  seed {seed}: {len(jobs)} jobs, {n_ops} commands, "
        "each run untraced, then traced",
        f"wall_norm_s untraced {wall[False]:.4f}  traced {wall[True]:.4f}  "
        f"overhead {wall[True] - wall[False]:.4f} s",
        "per-layer metrics (normalised times; counts exact; shares of cli.main_norm_s):",
        *(f"  {k:<40} {v:.6g} {u}" for k, (v, u) in metrics.items()),
        *scale_table(host, tally),
        *src_lines(),
        f"ops_failed_frac {tally.failed / tally.attempted:.4f} "
        f"({tally.failed} of {tally.attempted} operations)",
    ]
    return metrics, tally, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify-sweep", "foam-basis", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sl3web" / "cli.py").is_file():
        print(f"error: no src/sl3web under {ROOT}; run from a checkout of the program",
              file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    # The vCPUs of a shared host drift in speed independently, so the reference
    # loop only tracks a job that runs on its CPU: pin this process and, by
    # inheritance, every job to one CPU.  Jobs run one at a time anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics, tally, lines = traced(args.workload, args.seed, golden)
    else:
        metrics, tally, lines = timed(args.workload, args.seed, args.seconds, golden)
    for line in lines + tally.notes[:20]:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
