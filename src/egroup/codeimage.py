"""The code image: egroup's modules compiled once by a launcher and handed to
every process it starts, so a child skips compiling egroup's sources.

The image is an anonymous in-memory file (``os.memfd_create``); nothing is
written to disk. It holds HEADER (an egroup tag, the interpreter's
MAGIC_NUMBER and ``sys.flags.optimize``), the length of the index as four
little-endian bytes, the marshalled index, then the marshalled code of each
module. The index maps each source path to its size, ``st_mtime_ns``, and
the offset and length of its code after the index.

A child finds the descriptor's number in ENV_FD. ``egroup/__init__.py``
adopts the image before any other egroup module loads, so the package and
this module are the only ones a child compiles. A module comes from the
image when the header matches the child's interpreter and its source file
still has the recorded size and mtime. In every other case the module is
compiled from source as usual: no variable, a bad header, another
interpreter or ``-O`` level, a changed file, or no memfd on the platform.
"""

from __future__ import annotations

import marshal
import os
import sys
from importlib._bootstrap_external import (
    MAGIC_NUMBER,
    FileFinder,
    SourceFileLoader,
    _code_type,
    _get_supported_file_loaders,
)

ENV_FD = "EG_CODE_IMAGE"
HEADER = b"egroup code image\x00" + MAGIC_NUMBER + bytes([sys.flags.optimize])
INDEX_LENGTH = 4  # bytes

# Loaded before the image can be adopted, so never taken from it.
LOADED_FIRST = ("__init__.py", "codeimage.py")

# The image this process was handed, once adopt() has accepted it.
adopted = None


class CodeImage:
    """An accepted image: its descriptor and the entries not yet used."""

    def __init__(self, fd: int, entries: dict, base: int):
        self.fd = fd
        self.entries = entries
        self.base = base

    def code(self, path: str):
        """The code for the module at ``path``, or None when the image has
        none or its source has changed. The code is read from the
        descriptor only now, and its entry is dropped, so a process holds
        none of the image in memory."""
        entry = self.entries.pop(path, None)
        if entry is None:
            return None
        try:
            size, mtime_ns, offset, length = entry
            st = os.stat(path)
            if (st.st_size, st.st_mtime_ns) != (size, mtime_ns):
                return None
            code = marshal.loads(os.pread(self.fd, length, self.base + offset))
        except (OSError, EOFError, TypeError, ValueError):
            return None
        return code if isinstance(code, _code_type) else None


class ImageLoader(SourceFileLoader):
    """A SourceFileLoader that takes a module's code from the adopted image
    when the image holds a current copy."""

    def get_code(self, fullname):
        code = adopted.code(self.path)
        return code if code is not None else super().get_code(fullname)


def adopt(package_dir: str) -> None:
    """Accept the image ENV_FD names, if any, and load every later module of
    the package in ``package_dir`` through ImageLoader."""
    global adopted
    try:
        fd = int(os.environ[ENV_FD])
        head = os.pread(fd, len(HEADER) + INDEX_LENGTH, 0)
        if head[:len(HEADER)] != HEADER:
            return
        length = int.from_bytes(head[len(HEADER):], "little")
        entries = marshal.loads(os.pread(fd, length, len(head)))
        os.set_inheritable(fd, False)
    except (KeyError, OSError, EOFError, TypeError, ValueError):
        return
    if type(entries) is not dict:
        return
    adopted = CodeImage(fd, entries, len(head) + length)
    sys.path_importer_cache[package_dir] = FileFinder(package_dir, *[
        (ImageLoader if loader is SourceFileLoader else loader, suffixes)
        for loader, suffixes in _get_supported_file_loaders()])


def build(package_dir: str) -> int | None:
    """Compile every module in ``package_dir`` as SourceFileLoader would and
    write the image to a new close-on-exec memfd; returns its descriptor, or
    None where the platform has no memfd or the package is not a directory.
    A module that does not compile is left out, so a child meets the same
    error importing it."""
    try:
        names = sorted(os.listdir(package_dir))
        fd = os.memfd_create("egroup-code-image")
    except (AttributeError, OSError):
        return None
    entries, blobs, offset = {}, [], 0
    for name in names:
        if not name.endswith(".py") or name in LOADED_FIRST:
            continue
        path = os.path.join(package_dir, name)
        try:
            with open(path, "rb") as f:
                st = os.fstat(f.fileno())
                code = compile(f.read(), path, "exec", dont_inherit=True)
        except (OSError, SyntaxError, ValueError):
            continue
        blob = marshal.dumps(code)
        entries[path] = (st.st_size, st.st_mtime_ns, offset, len(blob))
        blobs.append(blob)
        offset += len(blob)
    index = marshal.dumps(entries)
    view = memoryview(b"".join([
        HEADER, len(index).to_bytes(INDEX_LENGTH, "little"), index, *blobs]))
    try:
        while view:
            view = view[os.write(fd, view):]
    except OSError:
        os.close(fd)
        return None
    return fd
