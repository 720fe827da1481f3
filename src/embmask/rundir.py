"""Run-directory layout: config snapshot, artifacts, checksummed manifest.

A run starts with a STATUS file saying ``incomplete`` and its config
snapshot ``config.txt``, the first artifact; on success the manifest (sha256
per artifact) is written and STATUS flips to ``complete``. Readers take only
the files a manifest lists: others may be left from an earlier run. Each
listed name is a plain file name (no directory part, not ``.`` or ``..``) of
a regular file in the run, not a symlink, so a manifest cannot point a reader
outside it.
Wall-clock information never enters manifest-tracked files, so identical
config+seed reruns produce identical bytes.
"""

from __future__ import annotations

import hashlib
import os

from .errors import CorruptFileError

STATUS_FILE = "STATUS"
MANIFEST_FILE = "MANIFEST.txt"


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise CorruptFileError(f"{path} is not UTF-8 text") from None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class RunDirectory:
    def __init__(self, path: str, config: dict):
        self.path = path
        self._artifacts: list[str] = []
        os.makedirs(path, exist_ok=True)
        self._write_status("incomplete")
        lines = [f"{k} = {config[k]}" for k in sorted(config)]
        self.write_text("config.txt", "\n".join(lines) + "\n")

    def _write_status(self, status: str) -> None:
        with open(os.path.join(self.path, STATUS_FILE), "w") as fh:
            fh.write(status + "\n")

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def register(self, *names: str) -> None:
        for name in names:
            if name not in self._artifacts:
                self._artifacts.append(name)

    def write_text(self, name: str, text: str) -> str:
        path = self.file(name)
        with open(path, "w") as fh:
            fh.write(text)
        self.register(name)
        return path

    def finalize(self) -> None:
        lines = []
        for name in sorted(self._artifacts):
            lines.append(f"{_sha256(self.file(name))}  {name}")
        with open(self.file(MANIFEST_FILE), "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        self._write_status("complete")

    @staticmethod
    def verify(path: str) -> list[str]:
        """The artifact names listed in the manifest of ``path``; raise
        CorruptFileError unless it is a complete run, its STATUS and manifest
        UTF-8 text, whose listed names keep the name rule above and whose
        artifacts match their checksums."""
        status_path = os.path.join(path, STATUS_FILE)
        if not os.path.exists(status_path):
            raise CorruptFileError(f"no {STATUS_FILE} in {path}")
        status = _read_text(status_path).strip()
        if status != "complete":
            raise CorruptFileError(f"run {path} has STATUS {status!r}, not 'complete'")
        manifest = os.path.join(path, MANIFEST_FILE)
        if not os.path.exists(manifest):
            raise CorruptFileError(f"no manifest in {path}")
        names = []
        for line in _read_text(manifest).split("\n"):
            if not line:
                continue
            digest, sep, name = line.partition("  ")
            if not sep:
                raise CorruptFileError(f"bad manifest line {line!r} in {path}")
            if name in ("", ".", "..") or os.path.basename(name) != name:
                raise CorruptFileError(f"manifest of {path} lists {name!r}, not a file name")
            target = os.path.join(path, name)
            if os.path.islink(target) or not os.path.isfile(target):
                raise CorruptFileError(f"{name} in {path} is missing or not a regular file")
            if _sha256(target) != digest:
                raise CorruptFileError(f"checksum mismatch for {name} in {path}")
            names.append(name)
        return names
