"""Content-addressed disk cache for resolution entries.

Entries are JSON files named by a content hash.  The resolution engine
writes one map entry per step and one completion entry per resolution
that ends, keyed by the minimal presentation (which is
Groebner-canonicalized), the two caps of `config` and the step, so the
same module declared through different matrices hits the same entries,
and an entry written under other caps is never read.  A map entry is
coded in integers: a table of its distinct monomials, one of its
distinct coefficients, one of its distinct polynomials, each term as
indices into the first two, and each column's cells as a row and an
index into the third; its key names that layout, so an entry written
in an older layout is never read.  resolutions.py documents the format, the checks a load runs and
how a stored resolution is extended.  A valid entry is append-only: a
second save under an existing key is a no-op, and writes go through a
temporary file and an atomic rename.  A missing file is a miss.  A
rejected entry is discarded: a file that is not valid JSON is removed
with a warning, as is an entry the engine's load checks reject, so the
engine recomputes the step and its save writes the entry again.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile


class DiskStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str):
        """The entry under `key`, or None when there is none or it cannot
        be read or parsed."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except OSError as e:
            print(f"warning: ignoring unreadable cache entry {path}: {e}",
                  file=sys.stderr)
        except ValueError as e:
            print(f"warning: discarding corrupt cache entry {path}: {e}",
                  file=sys.stderr)
            self.discard(key)
        return None

    def save(self, key: str, record) -> None:
        path = self._path(key)
        if os.path.exists(path):
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def discard(self, key: str) -> None:
        """Remove the entry under `key`, if any: a rejected entry makes
        room for the recomputed one."""
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass


def resolve_cache_dir(explicit: str | None = None) -> str | None:
    """--cache-dir wins, then the LINKAGE_LAB_CACHE environment variable."""
    if explicit:
        return explicit
    return os.environ.get("LINKAGE_LAB_CACHE") or None


def install_cache(cache_dir: str | None):
    """Attach a DiskStore to the resolution engine; None detaches."""
    from .resolutions import set_resolution_store

    store = DiskStore(cache_dir) if cache_dir else None
    set_resolution_store(store)
    return store
