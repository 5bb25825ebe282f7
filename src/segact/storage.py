"""On-disk formats: trained weights, generated datasets, run records.

Weights ("ACTS", little endian)
    magic 4s | version u32 | n_layers u32
    per layer: in_size u32 | out_size u32 | weights f64 row-major
    (out_size x in_size) | bias f64 (out_size)

Dataset ("ACTD", little endian)
    magic 4s | version u32 | n_images u32 | image_side u32 | n_features u32
    per image: features f64 row-major (side^2 x n_features) | mask u8 (side^2)

Records are a plain CSV with a fixed column order; floats are written
with full round-trip precision.
"""
from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .datagen import Sample, TaskConfig

WEIGHTS_MAGIC = b"ACTS"
DATASET_MAGIC = b"ACTD"
FORMAT_VERSION = 1

RECORD_COLUMNS = ("activation", "loss", "fold", "nll", "dice", "threshold",
                  "gap_even", "gap_adaptive", "epochs", "converged")


def save_weights(path, layers) -> None:
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(layers)))
        for w, b in layers:
            out_size, in_size = w.shape
            fh.write(struct.pack("<II", in_size, out_size))
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def _size_mismatch(path, expected, found):
    return ValueError(f"{path}: expected {expected} bytes from the header, "
                      f"found {found}")


def load_weights(path):
    """Read an ACTS file; the byte count must match its header."""
    raw = Path(path).read_bytes()
    if raw[:4] != WEIGHTS_MAGIC:
        raise ValueError(f"{path}: bad weights file magic {raw[:4]!r}")
    if len(raw) < 12:
        raise _size_mismatch(path, 12, len(raw))
    version, n_layers = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported weights version {version}")
    layers, offset = [], 12
    for _ in range(n_layers):
        if len(raw) < offset + 8:
            raise _size_mismatch(path, offset + 8, len(raw))
        in_size, out_size = struct.unpack_from("<II", raw, offset)
        offset += 8
        end = offset + 8 * out_size * (in_size + 1)
        if len(raw) < end:
            raise _size_mismatch(path, end, len(raw))
        values = np.frombuffer(raw, dtype="<f8", count=(end - offset) // 8,
                               offset=offset).astype(float)
        layers.append((values[:-out_size].reshape(out_size, in_size),
                       values[-out_size:]))
        offset = end
    if len(raw) != offset:
        raise _size_mismatch(path, offset, len(raw))
    return layers


def save_dataset(out_dir, samples, cfg: TaskConfig) -> Path:
    """Write samples plus a manifest with the config echo and checksum."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.actd"
    side = cfg.image_side
    with open(data_path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIII", FORMAT_VERSION, len(samples), side,
                             samples[0].features.shape[1]))
        for s in samples:
            fh.write(np.ascontiguousarray(s.features, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(s.mask, dtype=np.uint8).tobytes())
    digest = hashlib.sha256(data_path.read_bytes()).hexdigest()
    manifest = {
        "format": f"ACTD v{FORMAT_VERSION}",
        "n_images": len(samples),
        "image_side": side,
        "n_features": int(samples[0].features.shape[1]),
        "config": {
            "n_images": cfg.n_images,
            "image_side": cfg.image_side,
            "shape": cfg.shape,
            "noise_sigma": cfg.noise_sigma,
            "seed": cfg.seed,
        },
        "sha256": digest,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return data_path


def load_dataset(path):
    """Read an ACTD file back into samples.

    Checks the magic bytes, the byte count against the header and, when
    a ``manifest.json`` sits next to the file, its sha256; any mismatch
    raises a one-line ``ValueError`` naming the file.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "data.actd"
    raw = path.read_bytes()
    if raw[:4] != DATASET_MAGIC:
        raise ValueError(f"{path}: bad dataset file magic {raw[:4]!r}")
    if len(raw) < 20:
        raise _size_mismatch(path, 20, len(raw))
    version, n_images, side, n_features = struct.unpack_from("<IIII", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    n_pixels = side * side
    image = np.dtype([("features", "<f8", (n_pixels, n_features)),
                      ("mask", np.uint8, (n_pixels,))])
    expected = 20 + n_images * image.itemsize
    if len(raw) != expected:
        raise _size_mismatch(path, expected, len(raw))
    manifest = path.parent / "manifest.json"
    if manifest.is_file():
        digest = json.loads(manifest.read_text(encoding="utf-8")).get("sha256")
        if hashlib.sha256(raw).hexdigest() != digest:
            raise ValueError(f"{path}: sha256 does not match {manifest}")
    images = np.frombuffer(raw, dtype=image, count=n_images, offset=20)
    return [Sample(features=im["features"].astype(float),
                   mask=im["mask"].copy(),
                   foreground_fraction=float(im["mask"].mean()))
            for im in images]


def write_records(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([
                r.activation, r.loss, r.fold, repr(r.nll), repr(r.dice),
                repr(r.threshold), repr(r.gap_even), repr(r.gap_adaptive),
                r.epochs, "true" if r.converged else "false",
            ])


def read_records(path):
    from .harness import RunRecord

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != RECORD_COLUMNS:
            raise ValueError(f"unexpected records header {header}")
        records = []
        for row in reader:
            records.append(RunRecord(
                activation=row[0], loss=row[1], fold=int(row[2]),
                nll=float(row[3]), dice=float(row[4]),
                threshold=float(row[5]), gap_even=float(row[6]),
                gap_adaptive=float(row[7]), epochs=int(row[8]),
                converged=row[9] == "true",
            ))
    return records
