"""The code image: egroup's modules compiled once by a launcher and handed to
every process it starts, so a child compiles none of egroup's sources.

The image is a stored (uncompressed) zip in an anonymous in-memory file
(``os.memfd_create``); nothing is written to disk. For each module it holds
``egroup/<name>.py``, the source, and ``egroup/<name>.pyc``, an unchecked
hash-based pyc of the code compiled from it. A child finds the image as
``/proc/self/fd/N`` first on its PYTHONPATH and imports egroup from it
through the standard library's ``zipimport``, so no egroup code runs to
load egroup. Where the image cannot serve, the child compiles as usual: a
corrupt zip is refused by the path hook and egroup comes from the next
PYTHONPATH entry, and an interpreter with another magic number compiles the
zip's ``.py`` entries.
"""

from __future__ import annotations

import marshal
import os

# Where a descriptor's file can be opened by path; an image's path is here.
FD_DIR = "/proc/self/fd"

# The pyc flags of a hash-based pyc whose source is never checked.
UNCHECKED_HASH = (0b01).to_bytes(4, "little")


def sources(package_dir: str) -> dict:
    """The size and st_mtime_ns of each module source in ``package_dir``, by
    file name; an image built from them is current while they stay the
    same. Empty when the directory cannot be read."""
    stamps = {}
    try:
        for name in os.listdir(package_dir):
            if name.endswith(".py"):
                st = os.stat(os.path.join(package_dir, name))
                stamps[name] = (st.st_size, st.st_mtime_ns)
    except OSError:
        return {}
    return stamps


def build(package_dir: str) -> tuple | None:
    """Compile every module in ``package_dir`` as SourceFileLoader would and
    write the image to a new close-on-exec memfd. Returns its descriptor
    and the ``sources`` it was built from, or None where the platform has no
    memfd or a source cannot be read. A module that does not compile gets
    only its source entry, so a child meets the same error importing it."""
    try:
        fd = os.memfd_create("egroup-code-image")
    except (AttributeError, OSError):
        return None
    # Only a launcher that builds pays for these imports, never a worker.
    import zipfile
    from importlib.util import MAGIC_NUMBER, source_hash

    # Stat before reading: a source changed in between makes the next
    # launch rebuild, never keep stale code.
    stamps = sources(package_dir)
    package = os.path.basename(package_dir)
    try:
        with open(fd, "wb", closefd=False) as f, zipfile.ZipFile(f, "w") as image:
            for name in sorted(stamps):
                path = os.path.join(package_dir, name)
                with open(path, "rb") as source_file:
                    source = source_file.read()
                image.writestr(f"{package}/{name}", source)
                try:
                    code = compile(source, path, "exec", dont_inherit=True)
                except (SyntaxError, ValueError):
                    continue
                image.writestr(f"{package}/{name}c", b"".join([
                    MAGIC_NUMBER, UNCHECKED_HASH, source_hash(source),
                    marshal.dumps(code)]))
    except OSError:
        os.close(fd)
        return None
    return fd, stamps
