"""Dataset manifests: CSV rows of (path, label[, target, source]).

Paths are stored relative to the manifest file and resolved on access, so a
corpus directory can be moved or compared byte-for-byte across runs.
"""

import csv
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    target: str | None = None  # attack target (adversarial manifests)
    source: str | None = None  # original clip the adversarial one came from


@dataclass
class Manifest:
    rows: list
    base_dir: Path

    def __len__(self) -> int:
        return len(self.rows)

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.path)
        return p if p.is_absolute() else self.base_dir / p


def load_manifest(path) -> Manifest:
    """Read a manifest and fail fast on the first missing audio file."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty manifest") from None
        if header[:2] != ["path", "label"]:
            raise ValueError(f"{path}: header must start with path,label, got {header}")
        has_target = len(header) >= 4 and header[2:4] == ["target", "source"]
        rows = []
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) < 2 or not raw[0] or not raw[1]:
                raise ValueError(f"{path}:{line_no}: need at least path and label")
            target = raw[2] if has_target and len(raw) > 2 and raw[2] else None
            source = raw[3] if has_target and len(raw) > 3 and raw[3] else None
            rows.append(ManifestRow(path=raw[0], label=raw[1], target=target, source=source))
    manifest = Manifest(rows=rows, base_dir=path.parent)
    for row in manifest.rows:
        resolved = manifest.resolve(row)
        if not resolved.is_file():
            raise FileNotFoundError(f"{path}: missing audio file {resolved}")
    return manifest


def write_manifest(manifest: Manifest, path, adversarial: bool) -> None:
    """Write the rows as CSV; adversarial manifests add the target and source columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "label", "target", "source"] if adversarial
                        else ["path", "label"])
        for row in manifest.rows:
            if adversarial:
                writer.writerow([row.path, row.label, row.target or "", row.source or ""])
            else:
                writer.writerow([row.path, row.label])
