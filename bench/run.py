"""Benchmark of the spongedim command line, end to end and per module.

Run it from the root of a checkout:

    python3 bench/run.py --workload imm-blocks --seed 1 --seconds 25 --trace 0

It builds the workload's inputs from the seed, runs whole passes over the
workload's operations for at most the given seconds (at least one pass),
checks every output, and prints one JSON object as its last line of output.
With `--trace 0` that object holds the end-to-end metrics of BENCHMARK.json;
with `--trace 1` the modules are instrumented and it holds the per-layer
metrics, and the spans go to `.bench_out/trace-<workload>-seed<seed>.json`.
All files it writes go under `.bench_out/` in the working directory; runs of
one workload in one checkout take turns.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPEATS = 3
OUT_DIR = ".bench_out"


def fail(msg):
    print("bench: %s" % msg, file=sys.stderr)
    return 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cold_import(env):
    """One fresh interpreter that imports the whole CLI, as a user's first
    command pays it."""
    subprocess.run([sys.executable, "-c", "import spongedim.cli"], env=env,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def setup(workload, seed, index, base, env):
    """Cold import plus input generation, repeated; returns the median time
    and the inputs of the last repeat (every repeat makes the same ones)."""
    import numpy as np
    times, inputs = [], None
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cold_import(env)
        d = os.path.join(base, "inputs")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        inputs = workload.make_inputs(rng, d)
        times.append(time.perf_counter() - t0)
    inputs["dir"] = base
    return statistics.median(times), inputs


def run_pass(ops, session, log):
    """One pass over the operations; returns (attempted, failed, problems)."""
    from checks import CheckFailed
    from workloads import OpFailed
    failed, problems = 0, []
    for op in ops:
        try:
            op.run(session)
        except OpFailed as exc:
            failed += 1
            log.append("failed: %s: %s" % (op.name, exc))
        except CheckFailed as exc:
            problems.append("%s: %s" % (op.name, exc))
        except Exception:
            problems.append("%s: %s" % (op.name, traceback.format_exc()))
    return len(ops), failed, problems


def layer_value(tracer, name):
    """Per-layer metric `name` from the tracer's current window: `X.s` is
    the self time of span X, `X.calls` its calls, `command.C.s` the whole
    time of command C, `cli.self_s` the self time of the command spans; any
    other name is a counter."""
    if name == "cli.self_s":
        return sum(v for k, v in tracer.self_s.items() if k.startswith("cmd."))
    if name.startswith("command.") and name.endswith(".s"):
        return tracer.total_s.get("cmd." + name[len("command."):-2], 0.0)
    if name.endswith(".s"):
        return tracer.self_s.get(name[:-2], 0.0)
    if name.endswith(".calls"):
        return tracer.calls.get(name[:-len(".calls")], 0)
    return tracer.counts.get(name, 0)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail("cannot read BENCHMARK.json in %s: %s" % (root, exc))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    if not os.path.isfile(os.path.join(src, "spongedim", "cli.py")):
        return fail("no spongedim source under %s" % src)

    # one process; numeric libraries get no more threads than this process
    # may run on
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    sys.path.insert(0, src)
    try:
        from spongedim import cli
        import workloads
    except ImportError as exc:
        return fail("cannot import the program: %s" % exc)

    # relative to the checkout, so that result files and manifests, and the
    # bytes counted for them, do not depend on where the checkout lives
    base = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    try:
        try:
            setup_s, inputs = setup(workloads.WORKLOADS[args.workload], args.seed,
                                    names.index(args.workload), base, env)
        except subprocess.CalledProcessError as exc:
            return fail("cold import failed: %s" % exc.stderr.decode(errors="replace"))
        return measure(args, spec, cli, workloads, inputs, setup_s)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure(args, spec, cli, workloads, inputs, setup_s):
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.instrument(tracer)
    session = workloads.Session(cli.cli, tracer)
    ops = workloads.WORKLOADS[args.workload].operations(inputs)

    attempted = failed = 0
    problems, log, walls, per_command, layers = [], [], [], {}, {}
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        session.times = {}
        if tracer is not None:
            tracer.reset()
        a, f, p = run_pass(ops, session, log)
        attempted, failed = attempted + a, failed + f
        problems += p
        walls.append(sum(session.times.values()))
        for cmd, t in session.times.items():
            per_command.setdefault(cmd, []).append(t)
        if tracer is not None:
            for m in spec["per_layer"]:
                layers.setdefault(m["name"], []).append(layer_value(tracer, m["name"]))
        # another pass only if one more, as long as the last, still ends
        # within the measuring time; the first pass always runs
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > args.seconds:
            break

    print("workload %s, seed %d: %d passes, %d operations, %d failed"
          % (args.workload, args.seed, len(walls), attempted, failed))
    for line in sorted(set(log)):
        print("  " + line[:300])
    for cmd in sorted(per_command):
        print("  %-20s median %.4f s per pass" % (cmd, statistics.median(per_command[cmd])))
    print("  %-20s median %.4f s per pass" % ("whole pass", statistics.median(walls)))
    print("  pass times: %s" % " ".join("%.3f" % w for w in walls))
    for p in problems[:20]:
        print("INCORRECT: " + p, file=sys.stderr)

    if tracer is None:
        # each command's median over the passes, summed: a slowdown of the
        # machine that lasts part of a pass moves one sample of the commands
        # it overlaps, not the whole pass
        wall = sum(statistics.median(t) for t in per_command.values())
        values = {"setup_s": setup_s, "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = {m["name"]: {"value": statistics.median(layers[m["name"]]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "passes": len(walls),
                           "traced_wall_s": statistics.median(walls),
                           "self_s_last_pass": dict(tracer.self_s),
                           "calls_last_pass": dict(tracer.calls),
                           "counts_last_pass": dict(tracer.counts)})
        print("  traced pass median %.4f s; spans in %s" % (statistics.median(walls), path))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
