"""lgw pipeline benchmark: seeded workloads run through the real CLI in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse-news --seed 1 --seconds 20 --trace 0

Each iteration runs the workload's whole command sequence
(apply -> diff -> compose -> apply main --xml -> eval) through
``lgw.cli.main(argv)``: a closed loop, one client, one process, no
threads.  ``--trace 0`` times the sequence untraced and prints the
end-to-end metrics; ``--trace 1`` wraps the layer functions (see
trace.py), sweeps the corpus at 1/4, 1/2 and full size, and prints the
per-layer metrics.  Both modes check every output against references that
do not come from lgw (see checks.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
result record with its metadata go to ``.bench_work/`` at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_BATCH_SECONDS = 0.1
SCALES = (0.25, 0.5, 1.0)
# About the reference loop's median time on a shared 2-vCPU Xeon VM at
# 2.1 GHz with Python 3.11.
REFERENCE_SECONDS = 0.010
REFERENCE_ITERATIONS = 20_000


def _import_program():
    """Import lgw from this checkout's src/ and the test oracles from tests/."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "lgw" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"perfbench: no lgw sources under {ROOT} (need src/lgw and tests/oracles.py)")
    sys.path[:0] = [str(src), str(tests)]
    import lgw

    if Path(lgw.__file__).resolve().parent != (src / "lgw").resolve():
        raise SystemExit(f"perfbench: imported lgw from {lgw.__file__}, not from {src}")


def _commit():
    """HEAD of this checkout's own .git; "unknown" when it has none."""
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _reference_loop():
    d = {}
    for i in range(REFERENCE_ITERATIONS):
        k = "w%d" % (i % 97)
        d[k] = d.get(k, 0) + 1
    return d


def _reference_time():
    """Median of three runs of a fixed loop of string and dict work, the
    kind of work lgw does."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ReferenceClock:
    """Rescales wall times to the reference speed.

    On a shared machine, speed can drift by up to half, for seconds to
    minutes at a time.  The reference loop runs before and after every
    timed interval of a repetition; the repetition's times are multiplied
    by REFERENCE_SECONDS over the median loop time, so the drift cancels
    in the ratio.  On an unloaded machine the factor is about 1.
    """

    def __init__(self):
        self.probes = []

    def probe(self):
        self.probes.append(_reference_time())

    def factor(self):
        """The factor for the intervals probed since the last call."""
        f = REFERENCE_SECONDS / statistics.median(self.probes)
        self.probes = []
        return f


class Pipeline:
    """One workload's inputs in a work directory, and its command sequence."""

    def __init__(self, workload, seed, scale, work):
        import gen

        self.inp = gen.GENERATORS[workload](seed, scale)
        self.work = work
        if work.exists():
            shutil.rmtree(work)
        gen.write_inputs(self.inp, work)
        self.commands = gen.commands(workload, work)
        self.attempted = 0
        self.failures = []
        self.reference = None

    def run(self, command=None, clock=None):
        """Run the sequence once; returns (scaled, wall), each {kind:
        seconds} plus "pipeline".  ``command`` wraps each CLI call (the
        tracer's root span).  With a ReferenceClock the times are scaled
        to the reference speed; without one, scaled is wall."""
        from lgw import cli

        wall = {"pipeline": 0.0}
        gc.collect()
        if clock:
            clock.probe()
        for kind, argv in self.commands:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = command(kind, cli.main, argv) if command else cli.main(argv)
            dt = time.perf_counter() - t0
            if clock:
                clock.probe()
            wall[kind] = wall.get(kind, 0.0) + dt
            wall["pipeline"] += dt
            self.attempted += 1
            if rc != 0:
                self.failures.append(f"lgw {kind} exited {rc}: {sink.getvalue()[-300:]!r}")
        self._check_outputs_repeat()
        factor = clock.factor() if clock else 1.0
        return {k: v * factor for k, v in wall.items()}, wall

    def _check_outputs_repeat(self):
        out = self.work / "out"
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
        self.attempted += 1
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            changed = sorted(k for k in digest.keys() | self.reference.keys()
                             if digest.get(k) != self.reference.get(k))
            self.failures.append(f"outputs differ from the first repetition: {changed}")

    def attempt(self, check, *args):
        """Run one check, which returns (failures, value); an output too
        broken to read fails it.  Returns the value, or None."""
        self.attempted += 1
        try:
            fails, value = check(*args)
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            self.failures.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
            return None
        self.failures.extend(fails)
        return value

    def check(self, seed):
        """The oracle checks, on the outputs left by the last run.
        Returns the recomputed F-measure."""
        import checks

        attempt = self.attempt
        f = attempt(checks.check_eval, self.inp, self.work) or 0.0
        sample = checks.sample_sentences(self.inp, seed, ROOT)
        self.oracle = {"sentences": len(sample), "checked": 0, "skipped": 0}
        for kind, argv in self.commands:
            if kind == "diff":
                attempt(checks.check_diff, argv)
            elif kind == "apply":
                counts = attempt(checks.check_matches, self.inp, argv, sample)
                if counts:
                    self.oracle["checked"] += counts[0]
                    self.oracle["skipped"] += counts[1]
        self.attempted += 1
        if not self.oracle["checked"]:
            self.failures.append("the match oracle checked no sentence")
        return f

    def setup_seconds(self):
        """([], (median, median wall, repetitions)) of the time the final
        ``lgw apply`` pays before it matches: read, parse, merge and index
        its lexicons; read, load, validate and compile its grammar set."""
        from lgw.grammar import load_grammar_set, parse_graph, validate_set
        from lgw.lexicon import merge_lexicons, parse_lexicon
        from lgw.matcher import compile_grammar_set

        argv = [a for kind, a in self.commands if kind == "apply"][-1]
        grammars = [argv[i + 1] for i, a in enumerate(argv) if a == "--grammar"]
        lexicons = [argv[i + 1] for i, a in enumerate(argv) if a == "--lexicon"]
        main = argv[argv.index("--main") + 1]

        def once():
            lex = merge_lexicons([
                parse_lexicon(Path(p).read_text(encoding="utf-8"), name=Path(p).stem)
                for p in lexicons
            ])
            lex.symbol_index()
            files = [(Path(p).stem, Path(p).read_text(encoding="utf-8")) for p in grammars]
            parse_graph(files[0][1])
            gs = load_grammar_set(files, main)
            validate_set(gs)
            compile_grammar_set(gs)

        def batch():
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(size):
                once()
            return (time.perf_counter() - t0) / size

        # a set-up of a few milliseconds is timed in batches of about
        # SETUP_BATCH_SECONDS, so the reference loop adds little
        t0 = time.perf_counter()
        once()
        size = max(1, int(SETUP_BATCH_SECONDS / (time.perf_counter() - t0)))
        times, raw = [], []
        clock = ReferenceClock()
        start = time.perf_counter()
        while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
            clock.probe()
            t = batch()
            clock.probe()
            raw.append(t)
            times.append(t * clock.factor())
        return [], (_median(times), _median(raw), len(times) * size)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, work):
    """--trace 0: end-to-end metrics of untraced repetitions."""
    p = Pipeline(workload, seed, 1.0, work)
    p.run()  # warm-up; its outputs are the reference for the repetitions
    runs, raw = [], []
    clock = ReferenceClock()
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        scaled, wall = p.run(clock=clock)
        runs.append(scaled)
        raw.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, raw_setup_s, setup_reps = p.attempt(p.setup_seconds) or (0.0, 0.0, 0)
    f = p.check(seed)
    words = p.inp.words
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "pipeline_s": _metric(_median([r["pipeline"] for r in runs]), "s"),
        "apply_words_per_s": _metric(_median([words / r["apply"] for r in runs]), "words/s"),
        "diff_s": _metric(_median([r["diff"] for r in runs]), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "f_measure": _metric(f, "%"),
    }
    info = {
        "repetitions": len(runs), "setup_repetitions": setup_reps,
        "wall_setup_s": raw_setup_s,
        "wall_pipeline_s": _median([r["pipeline"] for r in raw]),
        "wall_pipeline_s_per_repetition": [round(r["pipeline"], 4) for r in raw],
        "oracle_sentences": p.oracle,
    }
    return p, metrics, info


# Per-layer metrics of the traced run, by layer; each layer also gets
# self_s and share.  Names ending in _s are summed span times per pass,
# _growth the growth of the same-named _s per doubling of the corpus, and
# the rest are counts.
LAYER_METRICS = {
    "lexicon": ("parse_s", "merge_s", "index_s", "entries", "multiword_entries"),
    "grammar": ("load_s", "validate_s", "alternatives"),
    "matcher": ("compile_s", "tokenize_s", "apply_s", "tokens", "apply_growth",
                "filter_longest_s", "occurrences_all", "occurrences_kept", "kept_ratio"),
    "concordance": ("build_s", "write_s", "parse_s", "lines"),
    "concorddiff": ("align_s", "align_calls", "infer_relation_s", "render_html_s",
                    "line_pairs", "align_growth"),
    "cli": ("non_overlapping_s", "non_overlapping_growth"),
    "evaluator": ("parse_gold_s", "annotate_s", "score_s"),
    "composer": ("select_s", "compose_s"),
}


def _growth(per_scale, key):
    """Time growth per doubling of the corpus, from the 1/4 and full runs:
    about 2 for a linear stage, about 4 for a quadratic one."""
    lo, hi = per_scale[SCALES[0]].get(key, 0.0), per_scale[SCALES[-1]].get(key, 0.0)
    return (hi / lo) ** 0.5 if lo > 0 else 0.0


def measure_traced(workload, seed, seconds, work):
    """--trace 1: per-layer metrics from traced repetitions at three sizes,
    plus untraced full-size repetitions for the tracing overhead."""
    import trace

    pipes = {s: Pipeline(workload, seed, s, work / f"scale{s}") for s in SCALES}
    for p in pipes.values():
        p.run()  # warm-up and reference outputs, untraced
    tracer = trace.Tracer()
    traced = {s: [] for s in SCALES}
    untraced = []
    start = time.perf_counter()
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        rounds += 1
        for s, p in pipes.items():
            tracer.trace = (s, rounds)
            tracer.install()
            try:
                p.run(tracer.command)
            finally:
                tracer.uninstall()
            traced[s].append(tracer.trace)
        untraced.append(pipes[1.0].run()[1]["pipeline"])
    full = pipes[1.0]
    f = full.check(seed)
    sums = trace.summarize(tracer.spans)
    tracer.dump(WORK / f"spans-{workload}-seed{seed}.jsonl")

    def per_trace(t):
        s = sums[t]
        row = {f"{k}_s": v for k, v in s["time"].items()}
        row.update({f"{layer}.self_s": s["self"].get(layer, 0.0) for layer in LAYER_METRICS})
        row.update(s["count"])
        row["pipeline_s"] = s["commands"]
        row["spans"] = s["spans"]
        return row

    rows = {sc: [per_trace(t) for t in ts] for sc, ts in traced.items()}
    med = {sc: {k: _median([r.get(k, 0.0) for r in rs]) for k in rs[0]}
           for sc, rs in rows.items()}
    m = med[1.0]
    metrics = {}
    for layer, names in LAYER_METRICS.items():
        for name in names:
            key = f"{layer}.{name}"
            if name.endswith("_growth"):
                value = _growth(med, f"{layer}.{name[:-len('_growth')]}_s")
                metrics[key] = _metric(value, "x/doubling")
            elif name == "kept_ratio":
                kept, total = m.get(f"{layer}.occurrences_kept", 0), m.get(f"{layer}.occurrences_all", 0)
                metrics[key] = _metric(kept / total if total else 0.0, "ratio")
            else:
                metrics[key] = _metric(m.get(key, 0), "s" if name.endswith("_s") else "count")
        self_s = m.get(f"{layer}.self_s", 0.0)
        metrics[f"{layer}.self_s"] = _metric(self_s, "s")
        metrics[f"{layer}.share"] = _metric(self_s / m["pipeline_s"], "ratio")
    untraced_s = _median(untraced)
    metrics["trace.pipeline_s"] = _metric(m["pipeline_s"], "s")
    metrics["trace.untraced_pipeline_s"] = _metric(untraced_s, "s")
    metrics["trace.overhead_s"] = _metric(m["pipeline_s"] - untraced_s, "s")
    metrics["trace.spans"] = _metric(m["spans"], "count")
    # tracing must not change a single output byte
    for p in pipes.values():
        if p is not full:
            full.attempted += p.attempted
            full.failures.extend(p.failures)
    info = {"rounds": rounds, "oracle_sentences": full.oracle,
            "scales": {str(sc): {"pipeline_s": med[sc]["pipeline_s"],
                                 "words": pipes[sc].inp.words} for sc in SCALES}}
    return full, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    import gen
    import lgw.matcher

    if args.workload not in gen.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            p, metrics, info = measure_traced(args.workload, args.seed, args.seconds, work)
        else:
            p, metrics, info = measure(args.workload, args.seed, args.seconds, work)
            ok = 1.0 - len(p.failures) / p.attempted
            metrics["ops_ok_ratio"] = _metric(ok, "ratio")
        inputs = p.inp.props
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "compiled_engine": lgw.matcher.USING_COMPILED_ENGINE,
    }
    result = {"correct": not p.failures, "attempted": p.attempted,
              "failed": len(p.failures), "metrics": metrics}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({"meta": meta, "inputs": inputs, "info": info,
                            "failures": p.failures, "result": result}) + "\n")
    print("meta " + json.dumps(meta))
    print("inputs " + json.dumps(inputs))
    print("info " + json.dumps(info))
    for msg in p.failures:
        print(f"FAILED: {msg}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not p.failures else 1


if __name__ == "__main__":
    sys.exit(main())
