"""Command line front end.

Every result command writes its results (JSON, plus CSV where tabular) and a
manifest into --out; --json additionally prints the result object to stdout.
One driver, `_command`, writes them once the command's body has returned:
the manifest records every given option under its flag name (values None or
False left out) plus the effective seed of commands with --seed, and every
given input file.  A body that fails leaves nothing written.
Exit codes: 2 for a failed parse and for InputError, raised by the library
function that owns the broken rule; 3 for DegenerateError and other numeric
failures; 4 for resource caps.  This module parses strings and files; the
rules of the parsed arguments are the library's.  Logs go to stderr,
results to files and stdout.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from typing import NamedTuple

import click
import numpy as np

from . import io
from .engine import (PeriodicSpec, dim_exp_periodic, dim_imm_bounds,
                     dim_mandelbrot, stable_chain)
from .ifs import classify, validate_ifs
from .scales import TailHorizonError, decompose
from .simulate import (MEMORY_GUARD, ResourceCapError, box_count_fit,
                       codes_to_words, empirical_local_dimension, fit_range,
                       sample_cascade, sample_tree, sample_tree_conditioned)
from .variational import (dim_attractor_equal_linear, optimize_mandelbrot,
                          optimize_packing, optimize_type_ell_hausdorff)
from .weights import (DegenerateError, InputError, WeightModel, as_prob_vector,
                      as_survival_vector)


# sizes fail while parsing, with exit 2 before any output: depths (0 is
# the root alone), and counts (local-dim's points and depth, dim-imm's
# horizon, simulate's guard)
SIZE, COUNT = click.IntRange(min=0), click.IntRange(min=1)


def _fail(code: int, msg: str):
    click.echo("spongedim: %s" % msg, err=True)
    sys.exit(code)


def _load(fn, path, what):
    try:
        return fn(path)
    # the loader of each field refuses a number past the double range; an
    # integer one raises OverflowError where it converts to float
    except (ValueError, OverflowError, OSError) as exc:
        _fail(2, "%s %s: %s" % (what, path, exc))


def _compute(thunk):
    try:
        return thunk()
    except DegenerateError as exc:
        _fail(3, "degenerate model: %s" % exc)
    except TailHorizonError as exc:
        # only dim-imm passes a tail horizon, its --horizon
        _fail(2, "--horizon must be at least %d, the last clock of the "
              "scale grid" % exc.least)
    except InputError as exc:
        _fail(2, "invalid input: %s" % exc)
    except ResourceCapError as exc:
        _fail(4, "resource cap: %s" % exc)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        _fail(3, "numeric failure: %s" % exc)


def _floats(text):
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        _fail(2, "expected comma-separated numbers, got %r" % text)
    if not vals:
        _fail(2, "empty numeric list %r" % text)
    if not all(map(math.isfinite, vals)):
        _fail(2, "expected finite numbers, got %r" % text)
    return np.array(vals)


def _ints(text):
    vals = _floats(text)
    if np.any(vals != np.round(vals)):
        _fail(2, "expected integers, got %r" % text)
    return [int(v) for v in vals]


def _alpha_arg(text, n):
    vals = _floats(text)
    try:
        # one value squeezes to a 0-d array, which the check broadcasts
        return as_survival_vector(vals.squeeze(), n)
    except ValueError as exc:
        _fail(2, "alpha: %s" % exc)


def _p_arg(text, n):
    vals = _floats(text)
    if vals.size != n:
        _fail(2, "p needs %d entries, got %d" % (n, vals.size))
    try:
        return as_prob_vector(vals)
    except ValueError as exc:
        _fail(2, "p: %s" % exc)


def _jconv(x):
    if isinstance(x, dict):
        return {str(k): _jconv(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jconv(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jconv(x.tolist())
    if isinstance(x, (float, np.floating)):
        # nan/inf sentinels (e.g. "no gradient residual") have no JSON form
        return float(x) if math.isfinite(x) else None
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


@click.group()
def cli():
    """Dimensions of Mandelbrot measures and percolated self-affine sponges."""


def main():
    cli(prog_name="spongedim")


class Outcome(NamedTuple):
    """What a command body returns: its result object and one-line summary,
    the further files to write (path -> function writing that path), the
    effective seed where it differs from the parsed --seed, and the exit
    code once everything is written."""
    result: dict
    summary: str
    files: dict = {}
    seed: int | None = None
    status: int = 0


def _command(name):
    """Register a body as the result command `name`, adding --out and --json.

    The body gets the parsed options (with `out`), parses, loads and
    computes, and returns an Outcome.  Only then are the result JSON, the
    body's files and the manifest written, so a body that exits writes
    nothing."""
    def register(body):
        @functools.wraps(body)
        def run(json_mode, **options):
            done = body(**options)
            ctx = click.get_current_context()
            params, inputs = {}, []
            for opt in ctx.command.params:
                value = ctx.params[opt.name]
                if opt.name == "json_mode" or value is None or value is False:
                    continue
                params[opt.opts[0].lstrip("-")] = value
                if isinstance(opt.type, click.Path) and opt.type.exists:
                    inputs.append(value)
            seed = options.get("seed") if done.seed is None else done.seed
            if "seed" in options:
                params["seed"] = seed
            out = options["out"]
            os.makedirs(out, exist_ok=True)
            doc = {"schema": "spongedim.%s.v1" % name, "version": io.VERSION}
            doc.update(_jconv(done.result))
            rpath = os.path.join(out, name + ".json")
            io.write_json(rpath, doc)
            for path, write in done.files.items():
                write(path)
            io.write_json(os.path.join(out, "manifest.json"), io.make_manifest(
                name, _jconv(params), inputs, [rpath, *done.files], seed=seed))
            click.echo(json.dumps(doc, sort_keys=True) if json_mode
                       else done.summary)
            if done.status:
                sys.exit(done.status)

        command = cli.command(name)(run)
        command.params += [
            click.Option(["--out"], default=".", show_default=True,
                         type=click.Path(file_okay=False),
                         help="Directory for result files and the manifest."),
            click.Option(["--json", "json_mode"], is_flag=True,
                         help="Print the JSON result to stdout.")]
        return command
    return register


def _csv(out, command, header, *columns):
    """The path of `command`.csv in out, and its files entry."""
    path = os.path.join(out, command + ".csv")
    return path, {path: lambda p: io.write_csv(p, header, zip(*columns))}


IFS_OPTION = click.option("--ifs", "ifs_path", required=True,
                          type=click.Path(exists=True))
ALPHA_HELP = "Survival probabilities (scalar or per-letter list)."


# ---------------------------------------------------------------------------


@_command("validate")
@IFS_OPTION
def cmd_validate(ifs_path, out):
    """Check separation and face conditions of a diagonal system."""
    rep = validate_ifs(_load(io.load_ifs, ifs_path, "ifs"))
    # a failing system still gets its report, then exits 2
    return Outcome({"ok": rep.ok, "violations": rep.violations},
                   "ok" if rep.ok else "\n".join(rep.violations),
                   status=0 if rep.ok else 2)


@_command("classify")
@IFS_OPTION
def cmd_classify(ifs_path, out):
    """Name the sponge class of a diagonal system."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    c = _compute(lambda: classify(ifs))
    result = {
        "label": c.label,
        "good_sponge": c.good_sponge, "sppc": c.sppc,
        "gatzouras_lalley": c.gatzouras_lalley, "baranski": c.baranski,
        "sierpinski": c.sierpinski, "conformal": c.conformal,
        "equal_linear_parts": c.equal_linear_parts,
        "gl_order": None if c.gl_order is None else [int(k) + 1 for k in c.gl_order],
        "grid": None if c.grid is None else list(c.grid),
        "feasible_axis_sets": [[int(k) + 1 for k in f.axes] for f in c.feasible_sets],
        "failures": c.failures,
    }
    return Outcome(result, c.label)


@_command("coding")
@IFS_OPTION
@click.option("--p", "p_text", default=None,
              help="Comma-separated letter masses; default uniform.")
def cmd_coding(ifs_path, p_text, out):
    """Letter identifications along the clock-ordered projection chain."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    p = np.full(ifs.n, 1.0 / ifs.n) if p_text is None else _p_arg(p_text, ifs.n)
    groups, chain, chi_tilde, coding = _compute(lambda: stable_chain(ifs, p))
    classes = [[sorted(int(x) for x in fib) for fib in level]
               for level in coding.fibers]
    result = {
        "levels": coding.levels,
        "chi": [float(c) for c in chi_tilde],
        "axis_groups": [[int(k) + 1 for k in grp] for grp in groups],
        "chain_axes": [[int(k) + 1 for k in D] for D in chain],
        "classes": classes,
    }
    return Outcome(result, "levels %d, classes per level %s"
                   % (coding.levels, [len(c) for c in classes]))


@_command("decompose")
@IFS_OPTION
@click.option("--sequence", "seq_path", required=True, type=click.Path(exists=True))
@click.option("--N", "n_scale", required=True, type=float)
def cmd_decompose(ifs_path, seq_path, n_scale, out):
    """Axis groups and clock values of a schedule at one scale."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    seq = _load(io.load_sequence, seq_path, "sequence")
    result = _compute(lambda: decompose(ifs, seq, n_scale)).as_dict()
    return Outcome(result, "s=%(s)d g=%(g)s A=%(A)s" % result)


@_command("dim-mm")
@IFS_OPTION
@click.option("--weights", "weights_path", required=True, type=click.Path(exists=True))
def cmd_dim_mm(ifs_path, weights_path, out):
    """Dimension of the limit measure of a constant weight law."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    model = _load(io.load_weights, weights_path, "weights")
    res = _compute(lambda: dim_mandelbrot(ifs, model))
    result = {"value": res.value, "entropy": res.H,
              "chi": [float(c) for c in res.chi_tilde],
              "breakdown": res.breakdown, "flags": res.flags}
    return Outcome(result, "dim %.6f" % res.value)


@_command("dim-imm")
@IFS_OPTION
@click.option("--sequence", "seq_path", required=True, type=click.Path(exists=True))
@click.option("--scales", default=None, help="Comma-separated N grid.")
@click.option("--horizon", type=COUNT, default=None, help="Tail search horizon.")
def cmd_dim_imm(ifs_path, seq_path, scales, horizon, out):
    """At-horizon dimension bounds of an inhomogeneous schedule."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    seq = _load(io.load_sequence, seq_path, "sequence")
    N_grid = None if scales is None else _floats(scales)
    res = _compute(lambda: dim_imm_bounds(seq, ifs, N_grid=N_grid,
                                          tail_horizon=horizon))
    csv_path, files = _csv(out, "dim-imm", ["N", "d", "d_tilde"],
                           res.profile.N.tolist(), res.profile.d.tolist(),
                           res.profile.d_tilde.tolist())
    result = {"dim_H_estimate": res.dim_H_estimate,
              "dim_P_estimate": res.dim_P_estimate,
              "liminf_d_tilde": res.liminf_d_tilde,
              "oscillation": res.oscillation,
              "converged": res.converged, "flags": res.flags,
              "csv": csv_path}
    return Outcome(
        result, "dim_H ~ %.6f  dim_P ~ %.6f  (converged: %s)"
        % (res.dim_H_estimate, res.dim_P_estimate, res.converged), files)


@_command("dim-periodic")
@IFS_OPTION
@click.option("--periodic", "periodic_path", required=True, type=click.Path(exists=True))
def cmd_dim_periodic(ifs_path, periodic_path, out):
    """Exact dimensions of an exponentially periodic schedule."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    pspec = _load(io.load_periodic, periodic_path, "periodic")
    res = _compute(lambda: dim_exp_periodic(ifs, pspec))
    csv_path, files = _csv(out, "dim-periodic", ["T", "delta1", "delta2"],
                           res.T.tolist(), res.delta1.tolist(), res.delta2.tolist())
    result = {"dim_H": res.dim_H, "dim_P": res.dim_P, "flags": res.flags,
              "csv": csv_path}
    return Outcome(result, "dim_H %.6f  dim_P %.6f" % (res.dim_H, res.dim_P),
                   files)


def _trace_summary(res):
    out = {"n_starts": res.n_starts, "iterations": res.iterations,
           "residual": res.residual, "flags": res.flags}
    if "solver" in res.extras:
        out["solver"] = res.extras["solver"]
    return out


@_command("optimize-hausdorff")
@IFS_OPTION
@click.option("--alpha", "alpha_text", default=None, help=ALPHA_HELP)
@click.option("--lengths", default=None,
              help="Block lengths of a slowly varying schedule; constant law if omitted.")
@click.option("--eps", type=float, default=None,
              help="Admissibility margin for the schedule search.")
def cmd_optimize_hausdorff(ifs_path, alpha_text, lengths, eps, out):
    """Largest Hausdorff dimension over weight laws (constant or scheduled)."""
    if (lengths is None) != (eps is None):
        _fail(2, "--eps and --lengths go together: give both or neither")
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = None if alpha_text is None else _alpha_arg(alpha_text, ifs.n)
    if lengths is None:
        res = _compute(lambda: optimize_mandelbrot(ifs, alpha=alpha))
        argument = {"p": [float(x) for x in res.argument]}
        certificate = {"closed_form_value": res.extras["closed_form_value"],
                       "entropy": res.extras["H"]}
    else:
        blocks = _ints(lengths)
        res = _compute(lambda: optimize_type_ell_hausdorff(
            ifs, alpha, blocks, eps))
        argument = io.sequence_to_dict(res.argument)
        certificate = {k: res.extras[k]
                       for k in ("eps", "eta", "grid_value", "grid_certificate")}
    result = {"value": res.value, "argument": argument,
              "certificate": certificate, "trace": _trace_summary(res)}
    return Outcome(result, "sup dim_H %.6f" % res.value)


@_command("optimize-packing")
@IFS_OPTION
@click.option("--alpha", "alpha_text", required=True, help=ALPHA_HELP)
@click.option("--lengths", required=True, help="Block lengths of the schedule.")
@click.option("--eps", type=float, required=True)
@click.option("--scales", required=True, help="Comma-separated N grid.")
def cmd_optimize_packing(ifs_path, alpha_text, lengths, eps, scales, out):
    """Largest at-horizon packing dimension over admissible schedules."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = _alpha_arg(alpha_text, ifs.n)
    blocks = _ints(lengths)
    N_grid = _floats(scales)
    res = _compute(lambda: optimize_packing(ifs, alpha, blocks, eps, N_grid))
    result = {"value": res.value, "argument": io.sequence_to_dict(res.argument),
              "certificate": {k: res.extras.get(k)
                              for k in ("eps", "per_N", "windows")},
              "trace": _trace_summary(res)}
    return Outcome(result, "sup dim_P %.6f" % res.value)


@_command("dim-attractor")
@IFS_OPTION
@click.option("--alpha", "alpha_text", required=True, help=ALPHA_HELP)
def cmd_dim_attractor(ifs_path, alpha_text, out):
    """A.s. dimension of the percolation set (equal linear parts)."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = _alpha_arg(alpha_text, ifs.n)
    res = _compute(lambda: dim_attractor_equal_linear(ifs, alpha))
    result = {"value": res.value, "r_star": res.r_star,
              "theta_star": res.theta_star,
              "weights": io.weights_to_dict(res.weight_model),
              "mm_value": res.mm_value, "flags": res.flags}
    return Outcome(result, "dim %.6f" % res.value)


@_command("simulate")
@IFS_OPTION
@click.option("--alpha", "alpha_text", required=True, help=ALPHA_HELP)
@click.option("--depth", type=SIZE, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--conditioned", is_flag=True,
              help="Resample until the tree survives to the full depth.")
@click.option("--guard", type=COUNT, default=MEMORY_GUARD, show_default=True)
def cmd_simulate(ifs_path, alpha_text, depth, seed, conditioned, guard, out):
    """Sample a fractal percolation tree and dump it."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = _alpha_arg(alpha_text, ifs.n)
    if conditioned:
        tree, attempts = _compute(lambda: sample_tree_conditioned(
            ifs, alpha, depth, seed=seed, guard=guard))
    else:
        tree, attempts = _compute(lambda: sample_tree(
            ifs, alpha, depth, seed=seed, guard=guard)), 1
    descriptor = {"type": "percolation-tree", "arity": ifs.n,
                  "alpha": [float(a) for a in alpha]}
    tree_path = os.path.join(out, "tree.json")
    result = {"counts": tree.counts, "survived": tree.survived(),
              "attempts": attempts, "tree_file": tree_path}
    return Outcome(result, "levels %s" % result["counts"], files={
        tree_path: lambda p: io.write_json(
            p, io.tree_to_dict(tree, descriptor), compact=True)})


@_command("boxcount")
@IFS_OPTION
@click.option("--tree", "tree_path", default=None, type=click.Path(exists=True),
              help="Tree dump to count; mutually exclusive with sampling options.")
@click.option("--alpha", "alpha_text", default=None)
@click.option("--depth", type=SIZE, default=None)
@click.option("--seed", type=int, default=None,
              help="Sampling seed (0 if omitted); not allowed with --tree.")
@click.option("--scales", required=True, help="Comma-separated N list.")
@click.option("--window", default=None, help="Fit window as i,j (half-open).")
def cmd_boxcount(ifs_path, tree_path, alpha_text, depth, seed, scales, window,
                 out):
    """Grid box counts of a sampled set and the fitted log-slope."""
    if tree_path is not None and (alpha_text is not None or depth is not None
                                  or seed is not None):
        _fail(2, "--tree is mutually exclusive with --alpha, --depth and --seed")
    N_list = _floats(scales)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    tree = None if tree_path is None else _load(io.load_tree, tree_path, "tree")
    if tree is None and (alpha_text is None or depth is None):
        _fail(2, "either --tree or both --alpha and --depth are required")
    # checked before sampling, which may hit a resource cap
    fit_window = _compute(lambda: fit_range(
        None if window is None else _ints(window), len(N_list)))
    if tree is None:
        alpha = _alpha_arg(alpha_text, ifs.n)
        seed = 0 if seed is None else seed
        tree = _compute(lambda: sample_tree(ifs, alpha, depth, seed=seed))
    rep = _compute(lambda: box_count_fit(tree, ifs, N_list,
                                         fit_window=fit_window))
    csv_path, files = _csv(out, "boxcount", ["N", "count"], rep.N.tolist(),
                           rep.counts.tolist())
    result = {"slope": rep.slope, "intercept": rep.intercept,
              "std_error": rep.std_error, "window": list(rep.window),
              "flags": rep.flags, "csv": csv_path}
    return Outcome(result, "slope %.4f +- %.4f" % (rep.slope, rep.std_error),
                   files, seed=seed)


@_command("cascade")
@click.option("--weights", "weights_path", default=None, type=click.Path(exists=True))
@click.option("--sequence", "seq_path", default=None, type=click.Path(exists=True))
@click.option("--depth", type=SIZE, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_cascade(weights_path, seq_path, depth, seed, out):
    """Sample a multiplicative cascade; emit node masses at the deepest level."""
    if (weights_path is None) == (seq_path is None):
        _fail(2, "exactly one of --weights or --sequence is required")
    if weights_path is not None:
        source = _load(io.load_weights, weights_path, "weights")
        descriptor = io.weights_to_dict(source)
    else:
        source = _load(io.load_sequence, seq_path, "sequence")
        descriptor = io.sequence_to_dict(source)
    cas = _compute(lambda: sample_cascade(source, depth, seed=seed))
    arity = source.n_letters
    codes, masses = cas.node_table(depth)
    words = codes_to_words(codes, depth, arity)
    csv_path, files = _csv(out, "cascade", ["word", "Q"],
                           io.word_strings(words, arity), masses.tolist())
    result = {"Y": cas.Y, "counts": [int(l.size) for l in cas.levels],
              "model_hash": io.model_hash(descriptor), "csv": csv_path}
    return Outcome(result, "Y by level %s" % np.array2string(cas.Y, precision=4),
                   files)


@_command("local-dim")
@IFS_OPTION
@click.option("--weights", "weights_path", required=True, type=click.Path(exists=True))
@click.option("--depth", type=COUNT, required=True)
@click.option("--points", type=COUNT, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--scales", default=None, help="Comma-separated N list.")
def cmd_local_dim(ifs_path, weights_path, depth, points, seed, scales, out):
    """Local dimension slopes at measure-typical points."""
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    model = _load(io.load_weights, weights_path, "weights")
    N_list = None if scales is None else _floats(scales)
    rep = _compute(lambda: empirical_local_dimension(
        ifs, model, depth, points, seed=seed, N_list=N_list))
    try:
        theory = dim_mandelbrot(ifs, model).value
    except DegenerateError:
        theory = None
    result = {"median_slope": rep.median_slope, "slopes": rep.slopes,
              "N": rep.N, "theory_value": theory}
    return Outcome(result, "median slope %.4f" % rep.median_slope
                   + ("" if theory is None else " (formula %.4f)" % theory))


@_command("gap-demo")
def cmd_gap_demo(out):
    """Built-in periodic percolation model whose schedule lowers the
    dimension below every constant law with the same average."""
    from .ifs import DiagonalIFS, DiagonalMap
    ifs = DiagonalIFS([
        DiagonalMap([1 / 3, 1 / 2], [0.0, 0.0]),
        DiagonalMap([1 / 3, 1 / 2], [2 / 3, 0.0]),
        DiagonalMap([1 / 3, 1 / 2], [1 / 3, 1 / 2]),
    ])
    alpha = [0.85, 0.85, 0.85]
    lam = 4.0
    p_a = [0.45, 0.45, 0.10]
    p_b = [0.25, 0.25, 0.50]
    pspec = PeriodicSpec(lam,
                         [1.0, lam ** 0.4, lam ** 0.6, lam ** 0.9],
                         [p_a, p_b, p_b, p_a], alpha=alpha)
    res = _compute(lambda: dim_exp_periodic(ifs, pspec))
    xs = np.linspace(0.0, np.log(lam), 513)[:-1]
    p_bar = pspec.p_at_x(xs).mean(axis=0)
    p_bar = p_bar / p_bar.sum()
    mm_avg = _compute(lambda: dim_mandelbrot(
        ifs, WeightModel.percolation(p_bar, alpha)).value)
    best = _compute(lambda: optimize_mandelbrot(ifs, alpha=np.asarray(alpha)))
    ifs_path = os.path.join(out, "gap-ifs.json")
    periodic_path = os.path.join(out, "gap-periodic.json")
    result = {
        "dim_H": res.dim_H, "dim_P": res.dim_P,
        "mm_at_average_p": mm_avg, "best_constant_mm": best.value,
        "gap_vs_average": mm_avg - res.dim_H,
        "gap_vs_best": best.value - res.dim_H,
        "oscillation_gap": res.dim_P - res.dim_H,
        "average_p": p_bar,
        "ifs_file": ifs_path, "periodic_file": periodic_path,
    }
    return Outcome(
        result, "periodic dim_H %.6f, best constant law %.6f, gap %.6f"
        % (res.dim_H, best.value, best.value - res.dim_H),
        files={ifs_path: lambda p: io.write_json(p, io.ifs_to_dict(ifs)),
               periodic_path: lambda p: io.write_json(p, io.periodic_to_dict(pspec))})


def _argv_from_params(params: dict) -> list:
    argv = []
    for key, val in sorted(params.items()):
        if val is True:
            argv.append("--" + key)
        elif val is not None and val is not False:
            argv.extend(["--" + key, str(val)])
    return argv


@cli.command("rerun")
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True))
def cmd_rerun(manifest_path):
    """Re-execute a manifest and verify the artifacts reproduce exactly."""
    man = _load(io.load_manifest, manifest_path, "manifest")
    bad = io.verify_hashes(man["inputs"])
    if bad:
        lines = ["input %s changed (recorded %s.., found %s..)"
                 % (p, r[:12], a[:12]) for p, r, a in bad]
        _fail(3, "; ".join(lines))
    argv = [man["command"]] + _argv_from_params(man["params"])
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        _fail(2, "rerun dispatch failed: %s" % exc.format_message())
    bad = io.verify_hashes(man["outputs"])
    new_man_path = os.path.join(str(man["params"].get("out", ".")), "manifest.json")
    try:
        new_man = io.load_json(new_man_path)
    except (OSError, ValueError):
        new_man = None
    if io.canonical_json(new_man) != io.canonical_json(man):
        bad.append((new_man_path, "manifest", "drifted"))
    if bad:
        lines = ["output %s differs" % p for p, _, _ in bad]
        _fail(3, "rerun did not reproduce: " + "; ".join(lines))
    click.echo("reproduced %d artifacts byte-identically"
               % len(man["outputs"]), err=True)


if __name__ == "__main__":
    main()
