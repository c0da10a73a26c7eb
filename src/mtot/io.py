"""File formats: `.ten` tensor text files, dataset manifests, model archives.

All writers are byte-deterministic: values carry 17 significant digits
(lossless for float64) and zip archives use a fixed timestamp.
"""

from __future__ import annotations

import io as _io
import json
import math
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .solver import Dataset, MtotModel

__all__ = [
    "format_ten",
    "parse_ten",
    "write_ten",
    "read_ten",
    "save_dataset",
    "load_dataset",
    "save_model",
    "load_model",
]

_VALUES_PER_LINE = 8
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def format_ten(t: np.ndarray) -> str:
    """Render a tensor as `.ten` text: header line, then values in buffer order."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        t = t.reshape(1)
    header = "TEN1 " + " ".join(str(n) for n in (t.ndim,) + t.shape)
    flat = t.ravel(order="C")
    lines = [header]
    for start in range(0, flat.size, _VALUES_PER_LINE):
        chunk = flat[start:start + _VALUES_PER_LINE]
        lines.append(" ".join(f"{v:.17g}" for v in chunk))
    return "\n".join(lines) + "\n"


def parse_ten(text: str) -> np.ndarray:
    """Parse `.ten` text back into a tensor."""
    tokens = text.split()
    if not tokens or tokens[0] != "TEN1":
        raise ConfigError("not a TEN1 tensor block")
    try:
        order = int(tokens[1])
        shape = tuple(int(tok) for tok in tokens[2:2 + order])
    except (IndexError, ValueError) as exc:
        raise ConfigError("malformed TEN1 header") from exc
    if order < 1 or any(n < 1 for n in shape) or len(shape) != order:
        raise ConfigError(f"invalid TEN1 shape {shape}")
    count = math.prod(shape)
    values = tokens[2 + order:]
    if len(values) != count:
        raise ConfigError(f"TEN1 block has {len(values)} values, expected {count}")
    try:
        buf = np.array(values, dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"non-numeric value in TEN1 block: {exc}") from exc
    return buf.reshape(shape, order="C")


def write_ten(path, t: np.ndarray):
    Path(path).write_text(format_ten(t))


def read_ten(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read tensor file {path}: {exc}") from exc
    return parse_ten(text)


def save_dataset(directory, name: str, dataset: Dataset, *, kind: str, seed: int,
                 sigma: float, input_names=None, truth: np.ndarray | None = None) -> Path:
    """Write a dataset manifest plus one `.ten` file per role under `directory`.

    Returns the manifest path. An optional noiseless-truth tensor is stored
    under a top-level "truth" entry so estimation-error metrics can reach it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if input_names is None:
        input_names = [f"input_{j}" for j in range(dataset.num_inputs)]
    if len(input_names) != dataset.num_inputs:
        raise ConfigError("one input name per input tensor is required")

    roles = []
    out_path = f"{name}_response.ten"
    write_ten(directory / out_path, dataset.y)
    roles.append({"name": "response", "path": out_path, "kind": "output"})
    for label, x in zip(input_names, dataset.xs):
        rel = f"{name}_{label}.ten"
        write_ten(directory / rel, x)
        roles.append({"name": label, "path": rel, "kind": "input"})

    manifest = {"kind": kind, "seed": seed, "sigma": sigma, "roles": roles}
    if truth is not None:
        rel = f"{name}_truth.ten"
        write_ten(directory / rel, truth)
        manifest["truth"] = rel
    path = directory / f"{name}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(manifest_path) -> tuple[Dataset, np.ndarray | None, dict]:
    """Read a manifest back into (dataset, optional truth tensor, metadata)."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {manifest_path} is not a JSON object")
    roles = manifest.get("roles", [])
    if not isinstance(roles, list):
        raise ConfigError(f"manifest {manifest_path}: 'roles' is not a list")
    base = manifest_path.parent
    y = None
    xs = []
    for role in roles:
        if not (isinstance(role, dict) and isinstance(role.get("path"), str)
                and isinstance(role.get("kind"), str)):
            raise ConfigError(f"manifest {manifest_path}: each role needs string 'path' and 'kind'")
        tensor = read_ten(base / role["path"])
        if role["kind"] == "output":
            y = tensor
        elif role["kind"] == "input":
            xs.append(tensor)
        else:
            raise ConfigError(f"unknown role kind {role['kind']!r}")
    if y is None:
        raise ConfigError("manifest has no output role")
    truth = manifest.get("truth")
    if truth is not None and not isinstance(truth, str):
        raise ConfigError(f"manifest {manifest_path}: 'truth' is not a path")
    truth = read_ten(base / truth) if truth is not None else None
    meta = {k: manifest.get(k) for k in ("kind", "seed", "sigma")}
    return Dataset(y, xs), truth, meta


def _write_archive(path, manifest: dict, blocks: dict[str, np.ndarray]):
    buf = _io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("manifest.json", date_time=_ZIP_EPOCH)
        zf.writestr(info, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for block_name in sorted(blocks):
            info = zipfile.ZipInfo(block_name + ".ten", date_time=_ZIP_EPOCH)
            zf.writestr(info, format_ten(blocks[block_name]))
    Path(path).write_bytes(buf.getvalue())


def _read_archive(path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json").decode())
            blocks = {}
            for entry in zf.namelist():
                if entry.endswith(".ten"):
                    blocks[entry[:-4]] = parse_ten(zf.read(entry).decode())
    except (OSError, KeyError, zipfile.BadZipFile, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model archive {path}: {exc}") from exc
    return manifest, blocks


def save_model(path, model) -> None:
    """Serialize a fitted model (tensor-regression or PCR) to a single archive."""
    from .pcr import PcrModel

    if isinstance(model, MtotModel):
        manifest = {
            "format": "mtot-archive-1",
            "kind": "mtot",
            "num_inputs": model.num_inputs,
            "input_shapes": [list(s) for s in model.input_shapes],
            "output_shape": list(model.output_shape),
            "input_ranks": [list(r) for r in model.input_ranks],
            "output_ranks": list(model.output_ranks),
            "loss_trace": model.loss_trace,
            "stagnated": model.stagnated,
        }
        blocks = {}
        for j, per_mode in enumerate(model.input_factors):
            for i, factor in enumerate(per_mode):
                blocks[f"input_factor_{j}_{i}"] = factor
        for i, basis in enumerate(model.output_bases):
            blocks[f"output_basis_{i}"] = basis
        for j, core in enumerate(model.cores):
            blocks[f"core_{j}"] = core
        _write_archive(path, manifest, blocks)
    elif isinstance(model, PcrModel):
        manifest = {
            "format": "mtot-archive-1",
            "kind": "pcr",
            "variance_fraction": model.variance_fraction,
            "input_components": model.input_loadings.shape[1],
            "output_components": model.output_loadings.shape[1],
            "input_shapes": [list(s) for s in model.input_shapes],
            "output_shape": list(model.output_shape),
        }
        blocks = {
            "input_mean": model.input_mean,
            "input_loadings": model.input_loadings,
            "output_mean": model.output_mean,
            "output_loadings": model.output_loadings,
            "score_coefficients": model.score_coefficients,
        }
        _write_archive(path, manifest, blocks)
    else:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def load_model(path):
    """Load a model archive, dispatching on its kind tag."""
    from .pcr import PcrModel

    manifest, blocks = _read_archive(path)
    kind = manifest.get("kind")
    if kind == "mtot":
        num_inputs = manifest["num_inputs"]
        input_factors = []
        for j in range(num_inputs):
            per_mode = []
            i = 0
            while f"input_factor_{j}_{i}" in blocks:
                per_mode.append(blocks[f"input_factor_{j}_{i}"])
                i += 1
            input_factors.append(per_mode)
        output_bases = []
        i = 0
        while f"output_basis_{i}" in blocks:
            output_bases.append(blocks[f"output_basis_{i}"])
            i += 1
        cores = [blocks[f"core_{j}"] for j in range(num_inputs)]
        return MtotModel(
            input_factors=input_factors,
            output_bases=output_bases,
            cores=cores,
            input_shapes=[tuple(s) for s in manifest["input_shapes"]],
            output_shape=tuple(manifest["output_shape"]),
            input_ranks=[tuple(r) for r in manifest["input_ranks"]],
            output_ranks=tuple(manifest["output_ranks"]),
            loss_trace=list(manifest["loss_trace"]),
            stagnated=bool(manifest.get("stagnated", False)),
        )
    if kind == "pcr":
        return PcrModel(
            input_mean=blocks["input_mean"],
            input_loadings=blocks["input_loadings"],
            output_mean=blocks["output_mean"],
            output_loadings=blocks["output_loadings"],
            score_coefficients=blocks["score_coefficients"],
            variance_fraction=float(manifest["variance_fraction"]),
            input_shapes=[tuple(s) for s in manifest["input_shapes"]],
            output_shape=tuple(manifest["output_shape"]),
        )
    raise ConfigError(f"unknown model kind {kind!r}")
