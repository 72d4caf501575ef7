"""Command line front end.

Every subcommand writes its results (JSON, plus CSV where tabular) and a
manifest into --out; --json additionally prints the result object to stdout.
Exit codes: 2 for parse/validation failures, 3 for numeric infeasibility,
4 for resource caps.  Logs go to stderr, results to files and stdout.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import io
from .engine import (PeriodicSpec, dim_exp_periodic, dim_imm_bounds,
                     dim_mandelbrot, stable_chain)
from .ifs import classify, validate_ifs
from .scales import decompose
from .simulate import (ResourceCapError, box_count_fit, codes_to_words,
                       empirical_local_dimension, sample_cascade, sample_tree,
                       sample_tree_conditioned)
from .variational import (dim_attractor_equal_linear, optimize_mandelbrot,
                          optimize_packing, optimize_type_ell_hausdorff)
from .weights import DegenerateError, WeightModel, as_prob_vector


# sizes fail while parsing, with exit 2 before any output: depths (0 is
# the root alone), and counts (local-dim's points and depth)
SIZE, COUNT = click.IntRange(min=0), click.IntRange(min=1)


def _fail(code: int, msg: str):
    click.echo("spongedim: %s" % msg, err=True)
    sys.exit(code)


def _load(fn, path, what):
    try:
        return fn(path)
    except (ValueError, OSError) as exc:
        _fail(2, "%s %s: %s" % (what, path, exc))


def _compute(thunk):
    try:
        return thunk()
    except DegenerateError as exc:
        _fail(3, "degenerate model: %s" % exc)
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


def _resolution(N, what):
    if not (math.isfinite(N) and N > 0):
        _fail(2, "%s must be finite and positive, got %r" % (what, N))
    return N


def _scales(text):
    """A comma-separated list of resolutions N, each positive, as a
    schedule's clocks need (box counts take any N)."""
    vals = _floats(text)
    for N in vals:
        _resolution(float(N), "scale")
    return vals


def _ints(text):
    vals = _floats(text)
    if np.any(vals != np.round(vals)):
        _fail(2, "expected integers, got %r" % text)
    return [int(v) for v in vals]


def _alpha_arg(text, n):
    vals = _floats(text)
    if vals.size == 1:
        return np.full(n, float(vals[0]))
    if vals.size != n:
        _fail(2, "alpha needs 1 or %d entries, got %d" % (n, vals.size))
    return vals


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


def common_options(fn):
    fn = click.option("--json", "json_mode", is_flag=True,
                      help="Print the JSON result to stdout.")(fn)
    fn = click.option("--out", default=".", show_default=True,
                      type=click.Path(file_okay=False),
                      help="Directory for result files and the manifest.")(fn)
    return fn


def _ensure_out(out):
    os.makedirs(out, exist_ok=True)
    return out


def _finish(command, params, inputs, result, out, json_mode,
            extra_outputs=(), seed=None):
    body = {"schema": "spongedim.%s.v1" % command, "version": io.VERSION}
    body.update(_jconv(result))
    rpath = os.path.join(out, command + ".json")
    io.write_json(rpath, body)
    manifest = io.make_manifest(command, _jconv(params), list(inputs),
                                [rpath] + list(extra_outputs), seed=seed)
    io.write_json(os.path.join(out, "manifest.json"), manifest)
    if json_mode:
        click.echo(json.dumps(body, sort_keys=True))
    return body


@click.group()
def cli():
    """Dimensions of Mandelbrot measures and percolated self-affine sponges."""


def main():
    cli(prog_name="spongedim")


# ---------------------------------------------------------------------------


@cli.command("validate")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@common_options
def cmd_validate(ifs_path, out, json_mode):
    """Check separation and face conditions of a diagonal system."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    rep = validate_ifs(ifs)
    result = {"ok": rep.ok, "violations": rep.violations}
    _finish("validate", {"ifs": ifs_path, "out": out}, [ifs_path], result,
            out, json_mode)
    if not json_mode:
        click.echo("ok" if rep.ok else "\n".join(rep.violations))
    if not rep.ok:
        sys.exit(2)


@cli.command("classify")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@common_options
def cmd_classify(ifs_path, out, json_mode):
    """Name the sponge class of a diagonal system."""
    out = _ensure_out(out)
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
    _finish("classify", {"ifs": ifs_path, "out": out}, [ifs_path], result,
            out, json_mode)
    if not json_mode:
        click.echo(result["label"])


@cli.command("coding")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--p", "p_text", default=None,
              help="Comma-separated letter masses; default uniform.")
@common_options
def cmd_coding(ifs_path, p_text, out, json_mode):
    """Letter identifications along the clock-ordered projection chain."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    p = np.full(ifs.n, 1.0 / ifs.n) if p_text is None else _p_arg(p_text, ifs.n)
    groups, chain, chi_tilde, coding = _compute(lambda: stable_chain(ifs, p))
    classes = []
    for r in range(1, coding.levels + 1):
        classes.append([sorted(int(x) for x in fib) for fib in coding.fibers[r - 1]])
    result = {
        "levels": coding.levels,
        "chi": [float(c) for c in chi_tilde],
        "axis_groups": [[int(k) + 1 for k in grp] for grp in groups],
        "chain_axes": [[int(k) + 1 for k in D] for D in chain],
        "classes": classes,
    }
    _finish("coding", {"ifs": ifs_path, "out": out,
                       **({"p": p_text} if p_text is not None else {})},
            [ifs_path], result, out, json_mode)
    if not json_mode:
        click.echo("levels %d, classes per level %s"
                   % (coding.levels, [len(c) for c in classes]))


@cli.command("decompose")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--sequence", "seq_path", required=True, type=click.Path(exists=True))
@click.option("--N", "n_scale", required=True, type=float)
@common_options
def cmd_decompose(ifs_path, seq_path, n_scale, out, json_mode):
    """Axis groups and clock values of a schedule at one scale."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    seq = _load(io.load_sequence, seq_path, "sequence")
    _resolution(n_scale, "--N")
    dec = _compute(lambda: decompose(ifs, seq, n_scale))
    result = dec.as_dict()
    _finish("decompose", {"ifs": ifs_path, "sequence": seq_path,
                          "N": n_scale, "out": out},
            [ifs_path, seq_path], result, out, json_mode)
    if not json_mode:
        click.echo("s=%d g=%s A=%s" % (result["s"], result["g"], result["A"]))


@cli.command("dim-mm")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--weights", "weights_path", required=True, type=click.Path(exists=True))
@common_options
def cmd_dim_mm(ifs_path, weights_path, out, json_mode):
    """Dimension of the limit measure of a constant weight law."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    model = _load(io.load_weights, weights_path, "weights")
    if model.n_letters != ifs.n:
        _fail(2, "weights have %d letters, system has %d" % (model.n_letters, ifs.n))
    res = _compute(lambda: dim_mandelbrot(ifs, model))
    result = {"value": res.value, "entropy": res.H,
              "chi": [float(c) for c in res.chi_tilde],
              "breakdown": res.breakdown, "flags": res.flags}
    _finish("dim-mm", {"ifs": ifs_path, "weights": weights_path, "out": out},
            [ifs_path, weights_path], result, out, json_mode)
    if not json_mode:
        click.echo("dim %.6f" % res.value)


@cli.command("dim-imm")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--sequence", "seq_path", required=True, type=click.Path(exists=True))
@click.option("--scales", default=None, help="Comma-separated N grid.")
@click.option("--horizon", type=int, default=None, help="Tail search horizon.")
@common_options
def cmd_dim_imm(ifs_path, seq_path, scales, horizon, out, json_mode):
    """At-horizon dimension bounds of an inhomogeneous schedule."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    seq = _load(io.load_sequence, seq_path, "sequence")
    N_grid = None if scales is None else _scales(scales)
    if horizon is not None and horizon < 1:
        _fail(2, "--horizon must be at least 1, got %d" % horizon)
    res = _compute(lambda: dim_imm_bounds(seq, ifs, N_grid=N_grid,
                                          tail_horizon=horizon))
    csv_path = os.path.join(out, "dim-imm.csv")
    io.write_csv(csv_path, ["N", "d", "d_tilde"],
                 zip(res.profile.N.tolist(), res.profile.d.tolist(),
                     res.profile.d_tilde.tolist()))
    result = {"dim_H_estimate": res.dim_H_estimate,
              "dim_P_estimate": res.dim_P_estimate,
              "liminf_d_tilde": res.liminf_d_tilde,
              "oscillation": res.oscillation,
              "converged": res.converged, "flags": res.flags,
              "csv": csv_path}
    params = {"ifs": ifs_path, "sequence": seq_path, "out": out}
    if scales is not None:
        params["scales"] = scales
    if horizon is not None:
        params["horizon"] = horizon
    _finish("dim-imm", params, [ifs_path, seq_path], result, out, json_mode,
            extra_outputs=[csv_path])
    if not json_mode:
        click.echo("dim_H ~ %.6f  dim_P ~ %.6f  (converged: %s)"
                   % (res.dim_H_estimate, res.dim_P_estimate, res.converged))


@cli.command("dim-periodic")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--periodic", "periodic_path", required=True, type=click.Path(exists=True))
@common_options
def cmd_dim_periodic(ifs_path, periodic_path, out, json_mode):
    """Exact dimensions of an exponentially periodic schedule."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    pspec = _load(io.load_periodic, periodic_path, "periodic")
    res = _compute(lambda: dim_exp_periodic(ifs, pspec))
    csv_path = os.path.join(out, "dim-periodic.csv")
    io.write_csv(csv_path, ["T", "delta1", "delta2"],
                 zip(res.T.tolist(), res.delta1.tolist(), res.delta2.tolist()))
    result = {"dim_H": res.dim_H, "dim_P": res.dim_P, "flags": res.flags,
              "csv": csv_path}
    params = {"ifs": ifs_path, "periodic": periodic_path, "out": out}
    _finish("dim-periodic", params, [ifs_path, periodic_path], result, out,
            json_mode, extra_outputs=[csv_path])
    if not json_mode:
        click.echo("dim_H %.6f  dim_P %.6f" % (res.dim_H, res.dim_P))


def _trace_summary(res):
    out = {"n_starts": res.n_starts, "iterations": res.iterations,
           "residual": res.residual, "flags": res.flags}
    if "solver" in res.extras:
        out["solver"] = res.extras["solver"]
    return out


@cli.command("optimize-hausdorff")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", "alpha_text", default=None,
              help="Survival probabilities (scalar or per-letter list).")
@click.option("--lengths", default=None,
              help="Block lengths of a slowly varying schedule; constant law if omitted.")
@click.option("--eps", type=float, default=None,
              help="Admissibility margin for the schedule search.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the random multistart; used only for constant "
                   "laws on systems with unequal linear parts.")
@click.option("--starts", type=int, default=32, show_default=True,
              help="Multistart size; used only for constant laws on systems "
                   "with unequal linear parts (equal linear parts take one "
                   "concave solve).")
@common_options
def cmd_optimize_hausdorff(ifs_path, alpha_text, lengths, eps, seed, starts,
                           out, json_mode):
    """Largest Hausdorff dimension over weight laws (constant or scheduled)."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = None if alpha_text is None else _alpha_arg(alpha_text, ifs.n)
    params = {"ifs": ifs_path, "seed": seed, "starts": starts, "out": out}
    if alpha_text is not None:
        params["alpha"] = alpha_text
    if lengths is None:
        res = _compute(lambda: optimize_mandelbrot(ifs, alpha=alpha,
                                                   starts=starts, seed=seed))
        argument = {"p": [float(x) for x in res.argument]}
        certificate = {"closed_form_value": res.extras["closed_form_value"],
                       "entropy": res.extras["H"]}
    else:
        if eps is None:
            _fail(2, "--eps is required with --lengths")
        blocks = _ints(lengths)
        res = _compute(lambda: optimize_type_ell_hausdorff(
            ifs, alpha, blocks, eps))
        argument = io.sequence_to_dict(res.argument)
        certificate = {k: res.extras[k]
                       for k in ("eps", "eta", "grid_value", "grid_certificate")}
        params["lengths"] = lengths
        params["eps"] = eps
    result = {"value": res.value, "argument": argument,
              "certificate": certificate, "trace": _trace_summary(res)}
    _finish("optimize-hausdorff", params, [ifs_path], result, out, json_mode,
            seed=seed)
    if not json_mode:
        click.echo("sup dim_H %.6f" % res.value)


@cli.command("optimize-packing")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", "alpha_text", required=True,
              help="Survival probabilities (scalar or per-letter list).")
@click.option("--lengths", required=True, help="Block lengths of the schedule.")
@click.option("--eps", type=float, required=True)
@click.option("--scales", required=True, help="Comma-separated N grid.")
@common_options
def cmd_optimize_packing(ifs_path, alpha_text, lengths, eps, scales, out,
                         json_mode):
    """Largest at-horizon packing dimension over admissible schedules."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = _alpha_arg(alpha_text, ifs.n)
    blocks = _ints(lengths)
    N_grid = _scales(scales)
    res = _compute(lambda: optimize_packing(ifs, alpha, blocks, eps, N_grid))
    result = {"value": res.value, "argument": io.sequence_to_dict(res.argument),
              "certificate": {"eps": res.extras.get("eps"),
                              "per_N": res.extras.get("per_N"),
                              "windows": res.extras.get("windows")},
              "trace": _trace_summary(res)}
    params = {"ifs": ifs_path, "alpha": alpha_text, "lengths": lengths,
              "eps": eps, "scales": scales, "out": out}
    _finish("optimize-packing", params, [ifs_path], result, out, json_mode)
    if not json_mode:
        click.echo("sup dim_P %.6f" % res.value)


@cli.command("dim-attractor")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", "alpha_text", required=True,
              help="Survival probabilities (scalar or per-letter list).")
@common_options
def cmd_dim_attractor(ifs_path, alpha_text, out, json_mode):
    """A.s. dimension of the percolation set (equal linear parts)."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = _alpha_arg(alpha_text, ifs.n)
    res = _compute(lambda: dim_attractor_equal_linear(ifs, alpha))
    result = {"value": res.value, "r_star": res.r_star,
              "theta_star": res.theta_star,
              "weights": io.weights_to_dict(res.weight_model),
              "mm_value": res.mm_value, "flags": res.flags}
    _finish("dim-attractor", {"ifs": ifs_path, "alpha": alpha_text, "out": out},
            [ifs_path], result, out, json_mode)
    if not json_mode:
        click.echo("dim %.6f" % res.value)


@cli.command("simulate")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", "alpha_text", required=True,
              help="Survival probabilities (scalar or per-letter list).")
@click.option("--depth", type=SIZE, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--conditioned", is_flag=True,
              help="Resample until the tree survives to the full depth.")
@click.option("--guard", type=int, default=10 ** 8, show_default=True)
@common_options
def cmd_simulate(ifs_path, alpha_text, depth, seed, conditioned, guard, out,
                 json_mode):
    """Sample a fractal percolation tree and dump it."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    alpha = _alpha_arg(alpha_text, ifs.n)
    attempts = 1
    if conditioned:
        tree, attempts = _compute(lambda: sample_tree_conditioned(
            ifs, alpha, depth, seed=seed, guard=guard))
    else:
        tree = _compute(lambda: sample_tree(ifs, alpha, depth, seed=seed,
                                            guard=guard))
    descriptor = {"type": "percolation-tree", "arity": ifs.n,
                  "alpha": [float(a) for a in alpha]}
    tree_path = os.path.join(out, "tree.json")
    io.write_json(tree_path, io.tree_to_dict(tree, descriptor), compact=True)
    result = {"counts": tree.counts, "survived": tree.survived(),
              "attempts": attempts, "tree_file": tree_path}
    params = {"ifs": ifs_path, "alpha": alpha_text, "depth": depth,
              "seed": seed, "guard": guard, "out": out}
    if conditioned:
        params["conditioned"] = True
    _finish("simulate", params, [ifs_path], result, out, json_mode,
            extra_outputs=[tree_path], seed=seed)
    if not json_mode:
        click.echo("levels %s" % result["counts"])


@cli.command("boxcount")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--tree", "tree_path", default=None, type=click.Path(exists=True),
              help="Tree dump to count; mutually exclusive with sampling options.")
@click.option("--alpha", "alpha_text", default=None)
@click.option("--depth", type=SIZE, default=None)
@click.option("--seed", type=int, default=None,
              help="Sampling seed (0 if omitted); not allowed with --tree.")
@click.option("--scales", required=True, help="Comma-separated N list.")
@click.option("--window", default=None, help="Fit window as i,j (half-open).")
@common_options
def cmd_boxcount(ifs_path, tree_path, alpha_text, depth, seed, scales, window,
                 out, json_mode):
    """Grid box counts of a sampled set and the fitted log-slope."""
    if tree_path is not None and (alpha_text is not None or depth is not None
                                  or seed is not None):
        _fail(2, "--tree is mutually exclusive with --alpha, --depth and --seed")
    N_list = _floats(scales)
    fit_window = None
    if window is not None:
        fit_window = _ints(window)
        if not (len(fit_window) == 2 and 0 <= fit_window[0]
                and fit_window[0] + 2 <= fit_window[1] <= len(N_list)):
            _fail(2, "window must be two integers i, j with 0 <= i and "
                  "i + 2 <= j <= %d (the number of scales), got %r"
                  % (len(N_list), window))
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    inputs = [ifs_path]
    if tree_path is not None:
        tree = _load(lambda p: io.tree_from_dict(io.load_json(p)), tree_path,
                     "tree")
        inputs.append(tree_path)
    else:
        if alpha_text is None or depth is None:
            _fail(2, "either --tree or both --alpha and --depth are required")
        alpha = _alpha_arg(alpha_text, ifs.n)
        seed = 0 if seed is None else seed
        tree = _compute(lambda: sample_tree(ifs, alpha, depth, seed=seed))
    rep = _compute(lambda: box_count_fit(tree, ifs, N_list,
                                         fit_window=fit_window))
    csv_path = os.path.join(out, "boxcount.csv")
    io.write_csv(csv_path, ["N", "count"], zip(rep.N.tolist(), rep.counts.tolist()))
    result = {"slope": rep.slope, "intercept": rep.intercept,
              "std_error": rep.std_error, "window": list(rep.window),
              "flags": rep.flags, "csv": csv_path}
    params = {"ifs": ifs_path, "scales": scales, "seed": seed, "out": out}
    if tree_path is not None:
        params["tree"] = tree_path
    if alpha_text is not None:
        params["alpha"] = alpha_text
    if depth is not None:
        params["depth"] = depth
    if window is not None:
        params["window"] = window
    _finish("boxcount", params, inputs, result, out, json_mode,
            extra_outputs=[csv_path], seed=seed)
    if not json_mode:
        click.echo("slope %.4f +- %.4f" % (rep.slope, rep.std_error))


@cli.command("cascade")
@click.option("--weights", "weights_path", default=None, type=click.Path(exists=True))
@click.option("--sequence", "seq_path", default=None, type=click.Path(exists=True))
@click.option("--depth", type=SIZE, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@common_options
def cmd_cascade(weights_path, seq_path, depth, seed, out, json_mode):
    """Sample a multiplicative cascade; emit node masses at the deepest level."""
    out = _ensure_out(out)
    if (weights_path is None) == (seq_path is None):
        _fail(2, "exactly one of --weights or --sequence is required")
    if weights_path is not None:
        source = _load(io.load_weights, weights_path, "weights")
        descriptor = io.weights_to_dict(source)
        inputs = [weights_path]
    else:
        source = _load(io.load_sequence, seq_path, "sequence")
        if depth > source.horizon:
            _fail(2, "depth %d exceeds the schedule horizon %d"
                  % (depth, source.horizon))
        descriptor = io.sequence_to_dict(source)
        inputs = [seq_path]
    cas = _compute(lambda: sample_cascade(source, depth, seed=seed))
    arity = source.n_letters
    codes, masses = cas.node_table(depth)
    words = codes_to_words(codes, depth, arity)
    csv_path = os.path.join(out, "cascade.csv")
    io.write_csv(csv_path, ["word", "Q"],
                 zip(io.word_strings(words, arity), masses.tolist()))
    result = {"Y": cas.Y, "counts": [int(l.size) for l in cas.levels],
              "model_hash": io.model_hash(descriptor), "csv": csv_path}
    params = {"depth": depth, "seed": seed, "out": out}
    if weights_path is not None:
        params["weights"] = weights_path
    else:
        params["sequence"] = seq_path
    _finish("cascade", params, inputs, result, out, json_mode,
            extra_outputs=[csv_path], seed=seed)
    if not json_mode:
        click.echo("Y by level %s" % np.array2string(cas.Y, precision=4))


@cli.command("local-dim")
@click.option("--ifs", "ifs_path", required=True, type=click.Path(exists=True))
@click.option("--weights", "weights_path", required=True, type=click.Path(exists=True))
@click.option("--depth", type=COUNT, required=True)
@click.option("--points", type=COUNT, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--scales", default=None, help="Comma-separated N list.")
@common_options
def cmd_local_dim(ifs_path, weights_path, depth, points, seed, scales, out,
                  json_mode):
    """Local dimension slopes at measure-typical points."""
    out = _ensure_out(out)
    ifs = _load(io.load_ifs, ifs_path, "ifs")
    model = _load(io.load_weights, weights_path, "weights")
    N_list = None if scales is None else _floats(scales)
    rep = _compute(lambda: empirical_local_dimension(
        ifs, model, depth, points, seed=seed, N_list=N_list))
    try:
        theory = dim_mandelbrot(ifs, model).value
    except (DegenerateError, ValueError):
        theory = None
    result = {"median_slope": rep.median_slope, "slopes": rep.slopes,
              "N": rep.N, "theory_value": theory}
    params = {"ifs": ifs_path, "weights": weights_path, "depth": depth,
              "points": points, "seed": seed, "out": out}
    if scales is not None:
        params["scales"] = scales
    _finish("local-dim", params, [ifs_path, weights_path], result, out,
            json_mode, seed=seed)
    if not json_mode:
        if theory is None:
            click.echo("median slope %.4f" % rep.median_slope)
        else:
            click.echo("median slope %.4f (formula %.4f)"
                       % (rep.median_slope, theory))


@cli.command("gap-demo")
@common_options
def cmd_gap_demo(out, json_mode):
    """Built-in periodic percolation model whose schedule lowers the
    dimension below every constant law with the same average."""
    out = _ensure_out(out)
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
    ifs_path = os.path.join(out, "gap-ifs.json")
    periodic_path = os.path.join(out, "gap-periodic.json")
    io.write_json(ifs_path, io.ifs_to_dict(ifs))
    io.write_json(periodic_path, io.periodic_to_dict(pspec))

    res = _compute(lambda: dim_exp_periodic(ifs, pspec))
    xs = np.linspace(0.0, np.log(lam), 513)[:-1]
    p_bar = pspec.p_at_x(xs).mean(axis=0)
    p_bar = p_bar / p_bar.sum()
    mm_avg = _compute(lambda: dim_mandelbrot(
        ifs, WeightModel.percolation(p_bar, alpha)).value)
    best = _compute(lambda: optimize_mandelbrot(ifs, alpha=np.asarray(alpha)))
    result = {
        "dim_H": res.dim_H, "dim_P": res.dim_P,
        "mm_at_average_p": mm_avg, "best_constant_mm": best.value,
        "gap_vs_average": mm_avg - res.dim_H,
        "gap_vs_best": best.value - res.dim_H,
        "oscillation_gap": res.dim_P - res.dim_H,
        "average_p": p_bar,
        "ifs_file": ifs_path, "periodic_file": periodic_path,
    }
    _finish("gap-demo", {"out": out}, [], result, out, json_mode,
            extra_outputs=[ifs_path, periodic_path])
    if not json_mode:
        click.echo("periodic dim_H %.6f, best constant law %.6f, gap %.6f"
                   % (res.dim_H, best.value, best.value - res.dim_H))


def _argv_from_params(params: dict) -> list:
    argv = []
    for key in sorted(params):
        val = params[key]
        if val is None or val is False:
            continue
        if val is True:
            argv.append("--" + key)
        else:
            argv.extend(["--" + key, str(val)])
    return argv


@cli.command("rerun")
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True))
def cmd_rerun(manifest_path):
    """Re-execute a manifest and verify the artifacts reproduce exactly."""
    man = _load(io.load_json, manifest_path, "manifest")
    if not isinstance(man, dict) or man.get("schema") != "spongedim.manifest.v1":
        _fail(2, "not a manifest: %s" % manifest_path)
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
    new_man_path = os.path.join(man["params"].get("out", "."), "manifest.json")
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
