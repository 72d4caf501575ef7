"""The four workloads: their inputs, made from the seed, and their operations.

An operation runs one or more spongedim CLI commands in-process through the
click group and then checks what they wrote against `checks`.  An operation
fails when a command exits with an error it should not, or, for the deep-tree
operation, when the program writes a tree whose codes have wrapped.  A check
that fails on an operation that did not fail marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks

# ---------------------------------------------------------------------------
# running commands


class OpFailed(Exception):
    """The operation did not complete: a command failed or its output
    cannot be used."""


@dataclass
class Result:
    code: int
    out: str
    log: str

    def json(self, name):
        with open(os.path.join(self.out, name), encoding="utf-8") as fh:
            return json.load(fh)

    def csv(self, name):
        with open(os.path.join(self.out, name), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]


class Session:
    """Runs CLI commands in-process and adds each one's wall time to
    `times[command]`; with a tracer, each command is a span `cmd.<name>`."""

    def __init__(self, group, tracer=None):
        self.group = group
        self.tracer = tracer
        self.times = {}

    def _span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def run(self, command, *args, out):
        argv = [command] + [str(a) for a in args] + ["--out", out]
        sink = _stdio.StringIO()
        if self.tracer is not None:
            self.tracer.coding_keys.clear()
        t0 = time.perf_counter()
        with self._span("cmd." + command), \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                self.group.main(args=argv, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:            # the console script would exit 1
                code = 1
                sink.write(traceback.format_exc())
        self.times[command] = self.times.get(command, 0.0) + time.perf_counter() - t0
        return Result(code=code, out=out, log=sink.getvalue())

    def call(self, label, fn):
        """Time a library call that has no CLI form."""
        t0 = time.perf_counter()
        with self._span("lib." + label):
            value = fn()
        self.times[label] = self.times.get(label, 0.0) + time.perf_counter() - t0
        return value

    def checked(self):
        """Context for checks: nothing in it is traced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()


def ok(res: Result, what: str):
    if res.code != 0:
        raise OpFailed("%s exited %d: %s" % (what, res.code, res.log.strip()[-400:]))
    return res


@dataclass
class Op:
    name: str
    run: object             # callable(session) -> None


# ---------------------------------------------------------------------------
# input files


def write_json(path, doc):
    text = json.dumps(doc)          # one string: json.dump writes in small pieces
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def carpet_doc(cells, a):
    return {"dimension": len(a),
            "maps": [{"a": list(a), "t": list(t)} for t in cells]}


def mcmullen_cells(rng):
    """3x2 carpet, letters 0 and 1 in one row, letter 2 in the other, at
    columns drawn from the seed.  Every such carpet has the same projection
    classes, so the work and the closed forms do not depend on the draw."""
    c0, c1 = rng.choice(3, size=2, replace=False)
    c2 = int(rng.integers(3))
    r0 = int(rng.integers(2))
    return [(c0 / 3, r0 / 2), (c1 / 3, r0 / 2), (c2 / 3, (1 - r0) / 2)]


SPONGE_CELLS = [(0, 0, 0), (1 / 4, 1 / 3, 0), (1 / 2, 2 / 3, 1 / 2), (3 / 4, 0, 1 / 2)]
SIERPINSKI_CELLS = [(i / 3, j / 3) for j in range(3) for i in range(3)
                    if not (i == 1 and j == 1)]
MCMULLEN_ROWS = ([0, 1], [2])


def type_ell_lengths(total, first=4, q=1.25, m0=3, ratio_bound=0.5):
    """Strictly increasing block lengths, each past the m0-th at most
    ratio_bound times the rows before it, until `total` rows are covered."""
    out = [first]
    while sum(out) < total:
        nxt = max(out[-1] + 1, int(math.ceil(out[-1] * q)))
        if len(out) >= m0:
            cap = int(math.floor(ratio_bound * sum(out)))
            nxt = max(out[-1] + 1, min(nxt, cap))
        out.append(nxt)
    return out


def mixed_dirichlet(rng, n, size=None):
    """Dirichlet(1) draws pulled 30% toward uniform, so every block keeps
    enough entropy for the drift to stay positive under alpha >= 0.85."""
    return 0.7 * rng.dirichlet(np.ones(n), size=size) + 0.3 / n


def sequence_doc(lengths, vectors, alpha):
    doc = {"blocks": [{"len": int(L), "p": v}
                      for L, v in zip(lengths, np.asarray(vectors, dtype=float).tolist())]}
    if alpha is not None:
        doc["alpha"] = [float(a) for a in alpha]
    return doc


class Inputs(dict):
    """Input paths and parameters of one workload, by name."""

    def __getattr__(self, name):
        return self[name]


# ---------------------------------------------------------------------------
# imm-blocks


IMM_ROWS = 100_000          # rows covered by the type-ell lengths (109,899)


def imm_blocks_inputs(rng, d):
    lengths = type_ell_lengths(IMM_ROWS, q=1.18)
    carpet_A = [1 / 3, 1 / 2]
    cells = mcmullen_cells(rng)
    sponge_A = [1 / 4, 1 / 3, 1 / 2]
    inp = Inputs(lengths=lengths)
    inp["carpet"] = write_json(os.path.join(d, "carpet.json"), carpet_doc(cells, carpet_A))
    inp["sponge"] = write_json(os.path.join(d, "sponge.json"), carpet_doc(SPONGE_CELLS, sponge_A))
    inp["carpet_AT"] = (np.tile(carpet_A, (3, 1)), np.array(cells, dtype=float))
    inp["sponge_AT"] = (np.tile(sponge_A, (4, 1)), np.array(SPONGE_CELLS, dtype=float))
    schedules = {
        "random-carpet": ("carpet", mixed_dirichlet(rng, 3, len(lengths)),
                          rng.uniform(0.85, 1.0, 3)),
        "random-sponge": ("sponge", mixed_dirichlet(rng, 4, len(lengths)),
                          rng.uniform(0.85, 1.0, 4)),
    }
    p0 = mixed_dirichlet(rng, 3)
    schedules["one-law"] = ("carpet", np.tile(p0, (len(lengths), 1)),
                            rng.uniform(0.9, 1.0, 3))
    inp["schedules"] = {}
    for name, (ifs, P, alpha) in schedules.items():
        path = write_json(os.path.join(d, name + ".json"),
                          sequence_doc(lengths, P, alpha))
        A = inp[ifs + "_AT"][0]
        max_N = float((np.asarray(lengths) @ (P @ -np.log(A))).min())
        inp["schedules"][name] = dict(ifs=ifs, path=path, P=P, alpha=alpha,
                                      N=float(rng.uniform(0.3, 0.9)) * max_N)
    return inp


def imm_blocks_ops(inp):
    ops = []
    for name, sched in inp.schedules.items():
        A, T = inp[sched["ifs"] + "_AT"]
        ifs_path = inp[sched["ifs"]]

        def dim_imm(s, name=name, sched=sched, A=A, T=T, ifs_path=ifs_path):
            res = ok(s.run("dim-imm", "--ifs", ifs_path, "--sequence", sched["path"],
                           out=os.path.join(inp.dir, "o-" + name)), "dim-imm")
            with s.checked():
                P = checks.expand(inp.lengths, sched["P"])
                checks.check_profile_csv(*res.csv("dim-imm.csv"), P, sched["alpha"], A, T)
                if name == "one-law":
                    checks.check_one_law(res.json("dim-imm.json"), A, T, sched["P"][0],
                                         sched["alpha"])

        def decompose(s, name=name, sched=sched, A=A, ifs_path=ifs_path):
            res = ok(s.run("decompose", "--ifs", ifs_path, "--sequence", sched["path"],
                           "--N", repr(sched["N"]),
                           out=os.path.join(inp.dir, "d-" + name)), "decompose")
            with s.checked():
                checks.check_decompose(res.json("decompose.json"), inp.lengths, sched["P"],
                                       A, sched["N"])

        ops.append(Op("dim-imm " + name, dim_imm))
        ops.append(Op("decompose " + name, decompose))
    ops.append(Op("gap schedule", _gap_schedule))
    return ops


GAP_P = (0.4, 0.35, 0.25)
GAP_H1, GAP_H3, GAP_HORIZON = 0.82, -0.85, 100_000


def _gap_schedule(s):
    """The three-weight gap schedule on the McMullen carpet.  Its laws are
    finite-atom laws, which the sequence file format cannot hold, so this
    operation calls the engine directly."""
    from spongedim import engine, ifs as ifs_mod, scales

    def compute():
        carpet = ifs_mod.DiagonalIFS([ifs_mod.DiagonalMap([1 / 3, 1 / 2], list(t))
                                      for t in GAP_DEMO_CELLS])
        sched = engine.three_weight_gap_sequence(carpet, np.array(GAP_P), H1=GAP_H1,
                                                 H3=GAP_H3, horizon=GAP_HORIZON)
        prefix = scales.PrefixTable(carpet, sched.seq)
        max_N = prefix.max_resolution()
        rnd = [r for r in sched.rounds if r["M2"] * checks.LOG2 * 1.05 < 0.9 * max_N][-1]
        probes = [engine.d_sequences(sched.seq, carpet, rnd["M2"] * checks.LOG2 * f,
                                     prefix=prefix) for f in (0.8, 0.95, 1.05)]
        return probes, engine.dim_imm_bounds(sched.seq, carpet)

    probes, bounds = s.call("gap-schedule", compute)
    with s.checked():
        checks.check_gap([p.d_tilde - p.d for p in probes], bounds.liminf_d_tilde,
                         bounds.dim_H_estimate, bounds.profile.d, bounds.profile.d_tilde)


# ---------------------------------------------------------------------------
# periodic-dense


PERIODIC_ROWS = 60_000
GAP_DEMO_LAW = dict(lam=4.0, t=[1.0, 4.0 ** 0.4, 4.0 ** 0.6, 4.0 ** 0.9],
                    p=[[0.45, 0.45, 0.10], [0.25, 0.25, 0.50],
                       [0.25, 0.25, 0.50], [0.45, 0.45, 0.10]],
                    alpha=[0.85, 0.85, 0.85])
GAP_DEMO_CELLS = [(0.0, 0.0), (2 / 3, 0.0), (1 / 3, 1 / 2)]


def periodic_dense_inputs(rng, d):
    lam = float(rng.uniform(3.0, 6.0))
    skew = 0.5 * rng.dirichlet(np.full(8, 0.7)) + 0.5 / 8
    laws = {
        "gap-demo-carpet": dict(GAP_DEMO_LAW, cells=GAP_DEMO_CELLS, a=[1 / 3, 1 / 2]),
        "skewed-sierpinski": dict(lam=lam, t=[1.0, lam ** float(rng.uniform(0.3, 0.7))],
                                  p=[skew.tolist(), [1 / 8] * 8],
                                  alpha=[float(rng.uniform(0.88, 0.96))] * 8,
                                  cells=SIERPINSKI_CELLS, a=[1 / 3, 1 / 3]),
    }
    inp = Inputs(laws={})
    for name, law in laws.items():
        n = len(law["cells"])
        P = checks.periodic_rows(law["lam"], law["t"], np.array(law["p"]), PERIODIC_ROWS)
        P = P / P.sum(axis=1, keepdims=True)
        inp["laws"][name] = dict(
            law, A=np.tile(law["a"], (n, 1)), T=np.array(law["cells"], dtype=float), P=P,
            ifs=write_json(os.path.join(d, name + "-ifs.json"), carpet_doc(law["cells"], law["a"])),
            periodic=write_json(os.path.join(d, name + "-periodic.json"), {
                "lambda": law["lam"], "alpha": law["alpha"],
                "knots": [{"t": t, "p": p} for t, p in zip(law["t"], law["p"])]}),
            dense=write_json(os.path.join(d, name + "-dense.json"),
                             sequence_doc([1] * PERIODIC_ROWS, P, law["alpha"])))
    return inp


def periodic_dense_ops(inp):
    ops, exact = [], {}
    for name, law in inp.laws.items():
        alpha = np.array(law["alpha"])

        def periodic(s, name=name, law=law, alpha=alpha):
            res = ok(s.run("dim-periodic", "--ifs", law["ifs"], "--periodic", law["periodic"],
                           out=os.path.join(inp.dir, "p-" + name)), "dim-periodic")
            with s.checked():
                exact[name] = res.json("dim-periodic.json")
                conformal = law["a"][0] == law["a"][1]
                checks.check_periodic(exact[name], law["P"], alpha,
                                      -math.log(law["a"][0]) if conformal else None, law["lam"])

        def dense(s, name=name, law=law, alpha=alpha):
            res = ok(s.run("dim-imm", "--ifs", law["ifs"], "--sequence", law["dense"],
                           out=os.path.join(inp.dir, "i-" + name)), "dim-imm")
            with s.checked():
                checks.check_profile_csv(*res.csv("dim-imm.csv"), law["P"], alpha,
                                         law["A"], law["T"])
                checks.check_dense_vs_exact(res.json("dim-imm.json"), exact[name])

        ops.append(Op("dim-periodic " + name, periodic))
        ops.append(Op("dim-imm dense " + name, dense))

    def gap_demo(s):
        res = ok(s.run("gap-demo", out=os.path.join(inp.dir, "gap-demo")), "gap-demo")
        with s.checked():
            law = inp.laws["gap-demo-carpet"]
            checks.check_gap_demo(res.json("gap-demo.json"), exact["gap-demo-carpet"],
                                  law["A"], law["T"], law["alpha"], MCMULLEN_ROWS)

    ops.insert(2, Op("gap-demo", gap_demo))
    return ops


# ---------------------------------------------------------------------------
# packing-search


PACKING_LENGTHS = type_ell_lengths(11000)
PACKING_SCALES = [512.0, 1024.0]
HAUSDORFF_LENGTHS = type_ell_lengths(50)
HAUSDORFF_ALPHA = (0.9, 0.85, 0.8)
HAUSDORFF_EPS = 0.05


def packing_search_inputs(rng, d):
    cells = mcmullen_cells(rng)
    return Inputs(carpet=write_json(os.path.join(d, "carpet.json"),
                                    carpet_doc(cells, [1 / 3, 1 / 2])),
                  alpha=rng.uniform(0.75, 0.95, 3))


def packing_search_ops(inp):
    out = lambda name: os.path.join(inp.dir, name)
    csv_alpha = ",".join(repr(float(a)) for a in inp.alpha)

    def packing(s):
        res = ok(s.run("optimize-packing", "--ifs", inp.carpet, "--alpha", "1",
                       "--lengths", ",".join(map(str, PACKING_LENGTHS)), "--eps", "0.1",
                       "--scales", ",".join("%g" % N for N in PACKING_SCALES),
                       out=out("packing")), "optimize-packing")
        with s.checked():
            checks.check_packing(res.json("optimize-packing.json"), PACKING_SCALES)

    def hausdorff_full(s):
        res = ok(s.run("optimize-hausdorff", "--ifs", inp.carpet, out=out("hausdorff-full")), "optimize-hausdorff")
        with s.checked():
            checks.check_hausdorff_full(res.json("optimize-hausdorff.json"))

    def attractor(s):
        opt = ok(s.run("optimize-hausdorff", "--ifs", inp.carpet, "--alpha", csv_alpha,
                       out=out("hausdorff-alpha")), "optimize-hausdorff")
        att = ok(s.run("dim-attractor", "--ifs", inp.carpet, "--alpha", csv_alpha,
                       out=out("attractor")), "dim-attractor")
        with s.checked():
            checks.check_attractor(opt.json("optimize-hausdorff.json")["value"],
                                   att.json("dim-attractor.json")["value"],
                                   inp.alpha, MCMULLEN_ROWS)

    def type_ell(s):
        res = ok(s.run("optimize-hausdorff", "--ifs", inp.carpet,
                       "--alpha", ",".join(map(str, HAUSDORFF_ALPHA)),
                       "--lengths", ",".join(map(str, HAUSDORFF_LENGTHS)),
                       "--eps", HAUSDORFF_EPS, out=out("hausdorff-type-ell")),
                 "optimize-hausdorff")
        with s.checked():
            checks.check_type_ell(res.json("optimize-hausdorff.json"), HAUSDORFF_LENGTHS,
                                  HAUSDORFF_ALPHA, HAUSDORFF_EPS)

    return [Op("optimize-packing", packing), Op("optimize-hausdorff full", hausdorff_full),
            Op("attractor routes", attractor), Op("optimize-hausdorff type-ell", type_ell)]


# ---------------------------------------------------------------------------
# percolation-mc


# many small trees rather than one large one: the size of a supercritical
# tree varies by about 24% between seeds (the spread of the Galton-Watson
# limit for 3 cells kept with probability 0.9), and the sum over 16 trees
# by about 6%, which keeps the time of a pass steady across seeds
TREES, TREE_DEPTH, TREE_ALPHA = 16, 11, 0.9
FULL_DEPTH = 13
DEEP = dict(alpha=0.45, depth=42, seed=1)   # the same tree on every run
CASCADE_DEPTH, LOCAL_DEPTH, LOCAL_POINTS = 11, 40, 2000
FULL_SLOPE_TOL = 0.08


# off the integer grid of either axis; the same on every seed, because the
# number of boxes rasterized, and so the time, moves with the scales
BOX_SCALES = ",".join(repr(float(x)) for x in np.linspace(2.15, 7.65, 8))


def percolation_mc_inputs(rng, d):
    p_c, alpha_c = mixed_dirichlet(rng, 3), rng.uniform(0.8, 0.95, 3)
    p_l, alpha_l = mixed_dirichlet(rng, 3), rng.uniform(0.85, 1.0, 3)
    seq_P, seq_alpha = mixed_dirichlet(rng, 3, 3), rng.uniform(0.85, 0.95, 3)
    return Inputs(
        carpet=write_json(os.path.join(d, "carpet.json"), carpet_doc(GAP_DEMO_CELLS, [1 / 3, 1 / 2])),
        A=np.tile([1 / 3, 1 / 2], (3, 1)), T=np.array(GAP_DEMO_CELLS),
        tree_seeds=[int(x) for x in rng.integers(0, 2 ** 31, TREES)],
        seed=int(rng.integers(2 ** 31)),
        cascade_weights=write_json(os.path.join(d, "cascade-weights.json"), {
            "type": "percolation", "p": p_c.tolist(), "alpha": alpha_c.tolist()}),
        cascade_sequence=write_json(os.path.join(d, "cascade-sequence.json"),
                                    sequence_doc([4, 3, 4], seq_P, seq_alpha)),
        local_weights=write_json(os.path.join(d, "local-weights.json"), {
            "type": "percolation", "p": p_l.tolist(), "alpha": alpha_l.tolist()}),
        local_law=(p_l, alpha_l))


def percolation_mc_ops(inp):
    from spongedim import io as program_io
    out = lambda name: os.path.join(inp.dir, name)
    ops = []

    def tree(s, alpha, depth, seed, name, full=False):
        sim = ok(s.run("simulate", "--ifs", inp.carpet, "--alpha", alpha, "--depth", depth,
                       "--seed", seed, out=out(name)), "simulate")
        box = ok(s.run("boxcount", "--ifs", inp.carpet, "--tree", os.path.join(out(name), "tree.json"),
                       "--scales", BOX_SCALES, out=out(name)), "boxcount")
        with s.checked():
            doc = sim.json("tree.json")
            levels = checks.check_tree_dump(doc, sim.json("simulate.json")["counts"], 3,
                                            program_io.tree_from_dict)
            if full:
                checks.require(doc["counts"] == [3 ** n for n in range(depth + 1)],
                               "full retention lost cells")
            checks.check_boxcount(box.json("boxcount.json"), *box.csv("boxcount.csv"),
                                  levels[depth], depth, inp.A, inp.T,
                                  checks.MCMULLEN_PACKING if full else None, FULL_SLOPE_TOL)

    for j, seed in enumerate(inp.tree_seeds):
        ops.append(Op("tree alpha=%g #%d" % (TREE_ALPHA, j),
                      lambda s, seed=seed, j=j: tree(s, TREE_ALPHA, TREE_DEPTH, seed, "tree%d" % j)))
    ops.append(Op("tree full retention",
                  lambda s: tree(s, 1, FULL_DEPTH, inp.seed, "full", full=True)))

    def cascade(s, flag, path, name):
        res = ok(s.run("cascade", flag, path, "--depth", CASCADE_DEPTH, "--seed", inp.seed,
                       out=out(name)), "cascade")
        with s.checked():
            checks.check_cascade(res.json("cascade.json"), *res.csv("cascade.csv"),
                                 CASCADE_DEPTH, 3)

    ops.append(Op("cascade weights",
                  lambda s: cascade(s, "--weights", inp.cascade_weights, "cascade-w")))
    ops.append(Op("cascade sequence",
                  lambda s: cascade(s, "--sequence", inp.cascade_sequence, "cascade-s")))

    def local_dim(s):
        res = ok(s.run("local-dim", "--ifs", inp.carpet, "--weights", inp.local_weights,
                       "--depth", LOCAL_DEPTH, "--points", LOCAL_POINTS, "--seed", inp.seed,
                       out=out("local")), "local-dim")
        with s.checked():
            checks.check_local_dim(res.json("local-dim.json"), inp.A, inp.T, *inp.local_law)

    ops.append(Op("local-dim", local_dim))
    ops.append(Op("deep tree", lambda s: deep_tree(s, inp)))
    return ops


def deep_tree(s, inp):
    """simulate at a depth where arity-3 heap codes pass 2**64, then count
    boxes on its dump.  It passes when simulate refuses the depth (exit 4),
    or when the dump is a tree (every code's parent one level up) that
    boxcount loads and counts."""
    d = os.path.join(inp.dir, "deep")
    sim = s.run("simulate", "--ifs", inp.carpet, "--alpha", DEEP["alpha"],
                "--depth", DEEP["depth"], "--seed", DEEP["seed"], out=d)
    if sim.code == 4:
        return
    ok(sim, "simulate")
    box = s.run("boxcount", "--ifs", inp.carpet, "--tree", os.path.join(d, "tree.json"),
                "--scales", "2,3,4", out=d)
    with s.checked():
        levels = [checks.decode_runs(r) for r in sim.json("tree.json")["levels"]]
        bad = checks.orphan_levels(levels, 3)
    if bad:
        raise OpFailed("tree dump has codes without a parent at (level, count) %s" % bad[:3])
    ok(box, "boxcount")


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    make_inputs: object
    operations: object


WORKLOADS = {
    "imm-blocks": Workload("imm-blocks", imm_blocks_inputs, imm_blocks_ops),
    "periodic-dense": Workload("periodic-dense", periodic_dense_inputs, periodic_dense_ops),
    "packing-search": Workload("packing-search", packing_search_inputs, packing_search_ops),
    "percolation-mc": Workload("percolation-mc", percolation_mc_inputs, percolation_mc_ops),
}
