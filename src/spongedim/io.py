"""File formats: strict JSON parsing, dumps, hashes, manifests, CSV.

All JSON written here is canonical (sorted keys, fixed separators, LF) so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .engine import PeriodicSpec
from .ifs import DiagonalIFS, DiagonalMap
from .simulate import PercolationTree
from .weights import WeightModel, WeightSequence

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# strict JSON


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError("non-finite number %r" % token)
    return x


def strict_loads(text: str):
    """json.loads that rejects NaN/Infinity tokens and overflowed floats
    while it parses."""
    def bad(token):
        raise ValueError("non-finite constant %r" % token)
    return json.loads(text, parse_constant=bad, parse_float=_finite_float)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return strict_loads(fh.read())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(x) for x in row) + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


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


def ifs_from_dict(obj) -> DiagonalIFS:
    _require_keys(obj, {"dimension", "maps"}, ctx="ifs")
    d = int(obj["dimension"])
    maps = []
    for j, m in enumerate(obj["maps"]):
        _require_keys(m, {"a", "t"}, ctx="ifs.maps[%d]" % j)
        if len(m["a"]) != d or len(m["t"]) != d:
            raise ValueError("ifs.maps[%d]: expected %d coordinates" % (j, d))
        maps.append(DiagonalMap(m["a"], m["t"]))
    return DiagonalIFS(maps)


def ifs_to_dict(ifs: DiagonalIFS) -> dict:
    return {"dimension": ifs.d,
            "maps": [{"a": [float(x) for x in ifs.A[i]],
                      "t": [float(x) for x in ifs.T[i]]} for i in range(ifs.n)]}


def load_ifs(path: str) -> DiagonalIFS:
    return ifs_from_dict(load_json(path))


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
    return weights_from_dict(load_json(path))


_BLOCK_KEYS = {"len", "p"}


def sequence_from_dict(obj) -> WeightSequence:
    _require_keys(obj, {"blocks"}, optional={"alpha"}, ctx="sequence")
    blocks = obj["blocks"]
    for j, b in enumerate(blocks):
        if not isinstance(b, dict) or b.keys() != _BLOCK_KEYS:
            _require_keys(b, _BLOCK_KEYS, ctx="sequence.blocks[%d]" % j)
    lengths = [b["len"] for b in blocks]
    for j, L in enumerate(lengths):
        # bool is an int subclass; a JSON true is not a length
        if not isinstance(L, int) or isinstance(L, bool):
            raise ValueError("sequence.blocks[%d]: len must be an integer, got %r"
                             % (j, L))
        if L < 1:
            raise ValueError("sequence.blocks[%d]: len must be >= 1" % j)
    vectors = [b["p"] for b in blocks]
    return WeightSequence.from_blocks(lengths, vectors, alpha=obj.get("alpha"))


def sequence_to_dict(seq: WeightSequence) -> dict:
    if seq.mode != "rows":
        raise ValueError("only row-mode sequences have a file form")
    if seq.block_lengths is not None:
        lengths = [int(x) for x in seq.block_lengths]
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        rows = seq.P[starts]
    else:
        lengths = [1] * seq.horizon
        rows = seq.P
    out = {"blocks": [{"len": L, "p": [float(x) for x in row]}
                      for L, row in zip(lengths, rows)]}
    if seq.alpha is not None:
        out["alpha"] = [float(x) for x in seq.alpha]
    return out


def load_sequence(path: str) -> WeightSequence:
    return sequence_from_dict(load_json(path))


def periodic_from_dict(obj) -> PeriodicSpec:
    _require_keys(obj, {"lambda", "knots"}, optional={"alpha"}, ctx="periodic")
    ts, ps = [], []
    for j, kn in enumerate(obj["knots"]):
        _require_keys(kn, {"t", "p"}, ctx="periodic.knots[%d]" % j)
        ts.append(float(kn["t"]))
        ps.append(kn["p"])
    return PeriodicSpec(float(obj["lambda"]), ts, ps, alpha=obj.get("alpha"))


def periodic_to_dict(pspec: PeriodicSpec) -> dict:
    out = {"lambda": float(pspec.lam),
           "knots": [{"t": float(t), "p": [float(x) for x in p]}
                     for t, p in zip(pspec.knot_t, pspec.knot_p)]}
    if pspec.alpha is not None:
        out["alpha"] = [float(x) for x in pspec.alpha]
    return out


def load_periodic(path: str) -> PeriodicSpec:
    return periodic_from_dict(load_json(path))


def model_hash(descriptor: dict) -> str:
    return sha256_bytes(canonical_json(descriptor).encode("utf-8"))


# ---------------------------------------------------------------------------
# tree dumps (run-length encoded sorted code lists)


def _encode_runs(codes: np.ndarray) -> list:
    """Sorted uint64 codes -> [[start, length], ...] runs of consecutive codes."""
    if codes.size == 0:
        return []
    c = codes.astype(np.int64)
    breaks = np.nonzero(np.diff(c) != 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [c.size - 1]])
    return [[int(c[a]), int(b - a + 1)] for a, b in zip(starts, ends)]


def _decode_runs(runs: list) -> np.ndarray:
    if not runs:
        return np.empty(0, dtype=np.uint64)
    parts = [np.arange(start, start + length, dtype=np.uint64)
             for start, length in runs]
    return np.concatenate(parts)


def tree_to_dict(tree: PercolationTree, model_descriptor: dict) -> dict:
    return {"schema": "spongedim.tree.v1",
            "seed": int(tree.seed),
            "depth": int(tree.depth),
            "arity": int(tree.arity),
            "model_hash": model_hash(model_descriptor),
            "counts": [int(x) for x in tree.counts],
            "levels": [_encode_runs(lvl) for lvl in tree.levels]}


def tree_from_dict(obj) -> PercolationTree:
    _require_keys(obj, {"schema", "seed", "depth", "arity", "model_hash",
                        "counts", "levels"}, ctx="tree")
    if obj["schema"] != "spongedim.tree.v1":
        raise ValueError("tree: unsupported schema %r" % obj["schema"])
    levels = [_decode_runs(r) for r in obj["levels"]]
    tree = PercolationTree(arity=int(obj["arity"]), depth=int(obj["depth"]),
                           seed=int(obj["seed"]), levels=levels)
    if [int(x) for x in obj["counts"]] != [int(x) for x in tree.counts]:
        raise ValueError("tree: counts do not match level data")
    return tree


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


def word_string(digits, arity: int) -> str:
    if arity <= 10:
        return "".join(str(int(x)) for x in digits)
    return "-".join(str(int(x)) for x in digits)
