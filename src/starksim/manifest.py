"""Run provenance: everything needed to reproduce an output directory."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, config_file_digest, dumps_config

__all__ = ["write_run_manifest"]

CONFIG_COPY_NAME = "config.toml"
MANIFEST_NAME = "manifest.json"


def write_run_manifest(
    out_dir: str | Path,
    config: ExperimentConfig,
    master_seed: int,
    command: str,
) -> dict:
    """Store the canonical config copy plus a manifest describing the run.

    The digest is the SHA-256 of the stored config copy, so it can always
    be recomputed from the directory contents alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = dumps_config(config)
    (out / CONFIG_COPY_NAME).write_text(text, encoding="utf-8")
    manifest = {
        "master_seed": master_seed,
        "config_digest": config_file_digest(text),
        "artifact_version": __version__,
        "command": command,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest
