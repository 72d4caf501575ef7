"""File formats: strict JSON parsing, dumps, hashes, manifests, CSV.

All JSON written here is canonical (sorted keys, fixed separators, LF) so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .engine import PeriodicSpec
from .ifs import DiagonalIFS, DiagonalMap
from .rng import max_code_depth
from .simulate import PercolationTree
from .weights import WeightModel, WeightSequence

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# strict JSON


def _non_finite_constant(token: str):
    raise ValueError("non-finite constant %r" % token)


@contextlib.contextmanager
def _gc_paused():
    """The cyclic GC off, then back in its previous state.  A parsed
    document holds no reference cycles, so a collection finds nothing in
    it; with the GC on, each one would traverse all of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def strict_loads(text: str):
    """json.loads that rejects NaN and Infinity tokens.  A literal past the
    double range parses to inf; the loader of its field refuses it."""
    return json.loads(text, parse_constant=_non_finite_constant)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return strict_loads(fh.read())


def _load(path: str, from_dict):
    """from_dict of the file's document, with the GC paused until the
    document is dropped: its objects are freed without being traversed."""
    with _gc_paused():
        return from_dict(load_json(path))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_json(path: str, obj, compact: bool = False) -> None:
    """Sorted keys and a final LF; indented unless ``compact``, which writes
    ``canonical_json`` on one line.  Tree dumps are compact: json's C
    encoder runs only without an indent."""
    text = canonical_json(obj) if compact else json.dumps(
        obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def write_csv(path: str, header, rows) -> None:
    """Rows of Python scalars (zip ``.tolist()`` columns): a float's str is
    its repr, so every float keeps all its bits."""
    lines = [",".join(map(str, header))]
    lines.extend(",".join(map(str, row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_keys(obj: dict, required, optional=(), ctx="object"):
    if not isinstance(obj, dict):
        raise ValueError("%s: expected a JSON object" % ctx)
    missing = set(required) - set(obj)
    unknown = set(obj) - set(required) - set(optional)
    if missing:
        raise ValueError("%s: missing keys %s" % (ctx, sorted(missing)))
    if unknown:
        raise ValueError("%s: unknown keys %s" % (ctx, sorted(unknown)))


# ---------------------------------------------------------------------------
# model files


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, ctx: str) -> float:
    if not _is_number(x):
        raise ValueError("%s: expected a number" % ctx)
    return float(x)


def _list(x, ctx: str) -> list:
    if not isinstance(x, list):
        raise ValueError("%s: expected a list" % ctx)
    return x


def ifs_from_dict(obj) -> DiagonalIFS:
    _require_keys(obj, {"dimension", "maps"}, ctx="ifs")
    d = obj["dimension"]
    if not (isinstance(d, int) and not isinstance(d, bool)):
        raise ValueError("ifs: dimension must be an integer")
    maps = []
    for j, m in enumerate(_list(obj["maps"], "ifs.maps")):
        _require_keys(m, {"a", "t"}, ctx="ifs.maps[%d]" % j)
        a, t = m["a"], m["t"]
        if not (isinstance(a, list) and isinstance(t, list)
                and all(map(_is_number, a + t))):
            raise ValueError("ifs.maps[%d]: a and t must be lists of numbers" % j)
        if len(a) != d or len(t) != d:
            raise ValueError("ifs.maps[%d]: expected %d coordinates" % (j, d))
        maps.append(DiagonalMap(a, t))
    return DiagonalIFS(maps)


def ifs_to_dict(ifs: DiagonalIFS) -> dict:
    return {"dimension": ifs.d,
            "maps": [{"a": [float(x) for x in ifs.A[i]],
                      "t": [float(x) for x in ifs.T[i]]} for i in range(ifs.n)]}


def load_ifs(path: str) -> DiagonalIFS:
    return _load(path, ifs_from_dict)


def weights_from_dict(obj) -> WeightModel:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("weights: expected an object with a 'type' key")
    kind = obj["type"]
    if kind == "deterministic":
        _require_keys(obj, {"type", "p"}, ctx="weights")
        return WeightModel.deterministic(obj["p"])
    if kind == "percolation":
        _require_keys(obj, {"type", "p", "alpha"}, ctx="weights")
        return WeightModel.percolation(obj["p"], obj["alpha"])
    if kind == "atoms":
        _require_keys(obj, {"type", "atoms"}, ctx="weights")
        if not isinstance(obj["atoms"], list):
            raise ValueError("weights: atoms must be a list")
        atoms = []
        for j, at in enumerate(obj["atoms"]):
            _require_keys(at, {"prob", "c", "w"}, ctx="weights.atoms[%d]" % j)
            atoms.append((at["prob"], at["c"], at["w"]))
        return WeightModel.atoms(atoms)
    raise ValueError("weights: unknown type %r" % kind)


def weights_to_dict(model: WeightModel) -> dict:
    if model.kind == "deterministic":
        return {"type": "deterministic", "p": [float(x) for x in model.p]}
    if model.kind == "percolation":
        return {"type": "percolation", "p": [float(x) for x in model.p],
                "alpha": [float(x) for x in model.alpha]}
    return {"type": "atoms",
            "atoms": [{"prob": float(pr), "c": [int(x) for x in c],
                       "w": [float(x) for x in w]}
                      for pr, c, w in zip(model.atom_probs, model.atom_c,
                                          model.atom_w)]}


def load_weights(path: str) -> WeightModel:
    return _load(path, weights_from_dict)


_P_BLOCK, _ATOM_BLOCK = frozenset({"len", "p"}), frozenset({"len", "atoms"})


def _block_kinds(blocks) -> set:
    """The key sets of a schedule's blocks.  Each must be {"len", "p"} or
    {"len", "atoms"}; the first block that is neither is named."""
    if set(map(type, blocks)) <= {dict}:
        kinds = set(map(frozenset, blocks))
        if kinds <= {_P_BLOCK, _ATOM_BLOCK}:
            return kinds
    for j, b in enumerate(blocks):
        keys = b.keys() if isinstance(b, dict) else ()
        _require_keys(b, _ATOM_BLOCK if "atoms" in keys else _P_BLOCK,
                      ctx="sequence.blocks[%d]" % j)
    return set(map(frozenset, blocks))


def sequence_from_dict(obj) -> WeightSequence:
    """Block schedule.  {"len", "p"} blocks hold mean vectors under an
    optional shared survival vector alpha; a schedule with {"len", "atoms"}
    blocks has one law per block (a mean vector block is then
    deterministic) and no shared alpha.

    Keys are checked in bulk here, lengths by the WeightSequence
    constructors, which name the first bad one."""
    _require_keys(obj, {"blocks"}, optional={"alpha"}, ctx="sequence")
    blocks = obj["blocks"]
    if not isinstance(blocks, list):
        raise ValueError("sequence: blocks must be a list")
    kinds = _block_kinds(blocks)
    lengths = list(map(itemgetter("len"), blocks))
    if _ATOM_BLOCK not in kinds:
        return WeightSequence.from_blocks(lengths, list(map(itemgetter("p"), blocks)),
                                          alpha=obj.get("alpha"))
    if "alpha" in obj:
        raise ValueError("sequence: atom blocks carry their own survival; "
                         "a shared alpha is not allowed with them")
    models = [weights_from_dict({"type": "atoms", "atoms": b["atoms"]})
              if "atoms" in b else WeightModel.deterministic(b["p"])
              for b in blocks]
    return WeightSequence.from_models(models, lengths)


def _block_dict(L: int, model: WeightModel) -> dict:
    if model.kind == "deterministic":
        return {"len": L, "p": [float(x) for x in model.p]}
    if model.kind == "atoms":
        return {"len": L, "atoms": weights_to_dict(model)["atoms"]}
    raise ValueError("a percolation law inside a per-block schedule has no "
                     "file form; write it as atoms")


def sequence_to_dict(seq: WeightSequence) -> dict:
    """The sequence's own blocks, one law each."""
    if seq.models is not None:
        return {"blocks": [_block_dict(L, m)
                           for L, m in zip(seq.block_lengths, seq.models)]}
    out = {"blocks": [{"len": L, "p": row}
                      for L, row in zip(seq.block_lengths, seq.V.tolist())]}
    if seq.alpha is not None:
        out["alpha"] = seq.alpha.tolist()
    return out


def load_sequence(path: str) -> WeightSequence:
    return _load(path, sequence_from_dict)


def periodic_from_dict(obj) -> PeriodicSpec:
    _require_keys(obj, {"lambda", "knots"}, optional={"alpha"}, ctx="periodic")
    ts, ps = [], []
    for j, kn in enumerate(_list(obj["knots"], "periodic.knots")):
        ctx = "periodic.knots[%d]" % j
        _require_keys(kn, {"t", "p"}, ctx=ctx)
        ts.append(_number(kn["t"], ctx + ".t"))
        ps.append(kn["p"])
    return PeriodicSpec(_number(obj["lambda"], "periodic.lambda"), ts, ps,
                        alpha=obj.get("alpha"))


def periodic_to_dict(pspec: PeriodicSpec) -> dict:
    out = {"lambda": float(pspec.lam),
           "knots": [{"t": float(t), "p": [float(x) for x in p]}
                     for t, p in zip(pspec.knot_t, pspec.knot_p)]}
    if pspec.alpha is not None:
        out["alpha"] = [float(x) for x in pspec.alpha]
    return out


def load_periodic(path: str) -> PeriodicSpec:
    return _load(path, periodic_from_dict)


def model_hash(descriptor: dict) -> str:
    return sha256_bytes(canonical_json(descriptor).encode("utf-8"))


# ---------------------------------------------------------------------------
# tree dumps (run-length encoded sorted code lists)


def _encode_runs(codes: np.ndarray) -> list:
    """Sorted uint64 codes -> [[start, length], ...] runs of consecutive codes."""
    if codes.size == 0:
        return []
    c = codes.astype(np.int64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(c) != 1) + 1))
    return np.column_stack([c[starts], np.diff(starts, append=c.size)]).tolist()


def _decode_level(runs, n: int, first: int, last: int):
    """(codes, starts, ends) of one dumped level.  Its runs are [start,
    length] integer pairs of consecutive codes, strictly increasing and
    inside the level's heap range [first, last]."""
    ctx = "tree.levels[%d]" % n
    if not isinstance(runs, list):
        raise ValueError("%s: expected a list of runs" % ctx)
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    arr = None
    try:
        if set(map(len, runs)) == {2}:
            flat = list(chain.from_iterable(runs))
            # exact types: bool is an int subclass, and numpy reads true as 1
            if set(map(type, flat)) == {int}:
                arr = np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(-1, 2)
    except (TypeError, OverflowError):   # a run with no len(); an int past int64
        pass
    if arr is None:
        raise ValueError("%s: runs must be [start, length] pairs of integers "
                         "below 2**63" % ctx)
    starts, lengths = arr[:, 0], arr[:, 1]
    if lengths.min() < 1:
        raise ValueError("%s: run lengths must be positive" % ctx)
    if starts.min() < first or starts.max() > last or np.any(lengths - 1 > last - starts):
        raise ValueError("%s: codes outside the level's heap range [%d, %d]"
                         % (ctx, first, last))
    ends = starts + (lengths - 1)
    if np.any(starts[1:] <= ends[:-1]):
        raise ValueError("%s: codes are not strictly increasing" % ctx)
    offsets = starts - (np.cumsum(lengths) - lengths)
    codes = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(offsets, lengths)
    return codes, starts, ends


def _orphan_runs(starts, ends, above, arity: int) -> int:
    """Runs holding a code whose parent (c - 1) // arity is missing from the
    sorted level above.  A run's parents are consecutive integers, all
    present exactly when the first and last sit that far apart there."""
    if above.size == 0:
        return int(starts.size)
    p0, p1 = (starts - 1) // arity, (ends - 1) // arity
    i = np.searchsorted(above, p0)
    j = i + (p1 - p0)
    ok = (j < above.size) & (above[np.minimum(i, above.size - 1)] == p0)
    ok &= above[np.minimum(j, above.size - 1)] == p1
    return int((~ok).sum())


def _int_field(obj, key: str, least=None) -> int:
    x = obj[key]
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("tree: %s is non-finite" % key)
    if not isinstance(x, int) or isinstance(x, bool) or (least is not None and x < least):
        raise ValueError("tree: %s must be an integer%s, got %r"
                         % (key, "" if least is None else " >= %d" % least, x))
    return x


def tree_to_dict(tree: PercolationTree, model_descriptor: dict) -> dict:
    return {"schema": "spongedim.tree.v1",
            "seed": int(tree.seed),
            "depth": int(tree.depth),
            "arity": int(tree.arity),
            "model_hash": model_hash(model_descriptor),
            "counts": [int(x) for x in tree.counts],
            "levels": [_encode_runs(lvl) for lvl in tree.levels]}


def tree_from_dict(obj) -> PercolationTree:
    """A dumped tree, checked to be one: depth + 1 levels, each strictly
    increasing, inside its heap range, and with every code's parent one
    level up."""
    _require_keys(obj, {"schema", "seed", "depth", "arity", "model_hash",
                        "counts", "levels"}, ctx="tree")
    if obj["schema"] != "spongedim.tree.v1":
        raise ValueError("tree: unsupported schema %r" % obj["schema"])
    arity = _int_field(obj, "arity", 1)
    depth = _int_field(obj, "depth", 0)
    seed = _int_field(obj, "seed")
    if not isinstance(obj["model_hash"], str):
        raise ValueError("tree: model_hash must be a string")
    if depth > max_code_depth(arity):
        raise ValueError("tree: depth %d is past the %d levels that heap codes "
                         "of arity %d hold" % (depth, max_code_depth(arity), arity))
    if not isinstance(obj["levels"], list) or len(obj["levels"]) != depth + 1:
        raise ValueError("tree: expected depth + 1 = %d levels" % (depth + 1))
    levels, first, last = [], 1, 1
    for n, runs in enumerate(obj["levels"]):
        codes, starts, ends = _decode_level(runs, n, first, last)
        if n > 0:
            lost = _orphan_runs(starts, ends, levels[-1], arity)
            if lost:
                raise ValueError("tree.levels[%d]: %d runs hold codes without a "
                                 "parent one level up" % (n, lost))
        levels.append(codes)
        first, last = first * arity + 1, last * arity + arity
    tree = PercolationTree(arity=arity, depth=depth, seed=seed,
                           levels=[c.view(np.uint64) for c in levels])
    if obj["counts"] != tree.counts.tolist():
        raise ValueError("tree: counts do not match level data")
    return tree


def load_tree(path: str) -> PercolationTree:
    return _load(path, tree_from_dict)


# ---------------------------------------------------------------------------
# manifests


def make_manifest(command: str, params: dict, inputs: dict, outputs: dict,
                  seed=None) -> dict:
    return {"schema": "spongedim.manifest.v1",
            "version": VERSION,
            "command": command,
            "params": params,
            "seed": seed,
            "inputs": {p: sha256_file(p) for p in inputs},
            "outputs": {p: sha256_file(p) for p in outputs}}


def manifest_from_dict(obj) -> dict:
    """A manifest that `rerun` can replay: a string command other than
    `rerun` (which writes no manifest, and would replay itself), params an
    object, inputs and outputs that map path strings to hash strings, and
    no non-finite number, which has no canonical form to compare."""
    _require_keys(obj, {"schema", "version", "command", "params", "seed",
                        "inputs", "outputs"}, ctx="manifest")
    if obj["schema"] != "spongedim.manifest.v1":
        raise ValueError("manifest: unsupported schema %r" % obj["schema"])
    files = obj["inputs"], obj["outputs"]
    if not (isinstance(obj["command"], str) and isinstance(obj["params"], dict)
            and all(isinstance(m, dict) for m in files)
            and all(isinstance(x, str) for m in files for x in chain(m, m.values()))):
        raise ValueError("manifest: expected a string command, params an object, "
                         "and inputs and outputs mapping path strings to hash strings")
    if obj["command"] == "rerun":
        raise ValueError("manifest: command 'rerun' has no result to replay")
    try:
        canonical_json(obj)
    except ValueError:
        raise ValueError("manifest: non-finite number") from None
    return obj


def load_manifest(path: str) -> dict:
    return _load(path, manifest_from_dict)


def verify_hashes(recorded: dict) -> list:
    """[(path, recorded, actual)] for every file whose hash changed."""
    bad = []
    for path, digest in recorded.items():
        try:
            actual = sha256_file(path)
        except OSError:
            actual = "missing"
        if actual != digest:
            bad.append((path, digest, actual))
    return bad


def word_strings(words, arity: int) -> list:
    """The word of each row of a digit matrix: the digits run together for
    arity <= 10, joined by '-' otherwise."""
    words = np.asarray(words, dtype=np.int64)
    count, level = words.shape
    if arity > 10:
        return ["-".join(map(str, row)) for row in words.tolist()]
    if level == 0:
        return [""] * count
    # each digit as one UCS4 code point, each row as one fixed-width string
    chars = (words + ord("0")).astype(np.uint32)
    return chars.view(np.dtype(("U", level))).ravel().tolist()
