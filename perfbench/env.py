"""Locating the lexgp sources of the checkout and recording the machine."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no importable lexgp sources."""


def import_lexgp():
    """Import lexgp from ``src/`` of this checkout and nowhere else.

    An installed copy elsewhere on the path would measure other code, so the
    imported package must resolve under ``src/lexgp``.
    """
    if not (SRC / "lexgp" / "__init__.py").is_file():
        raise MissingSource(f"no lexgp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lexgp = importlib.import_module("lexgp")
    origin = Path(lexgp.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise MissingSource(f"lexgp resolved to {origin}, outside {SRC}")
    return lexgp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the lexgp sources, so a record names the code it ran
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lexgp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "lexgp_sha256": source_digest(),
    }
