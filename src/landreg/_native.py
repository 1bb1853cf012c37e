"""The package's C kernels, each built on first use and loaded through ctypes.

Each kernel is one C file beside this module, compiled into its own shared
library in the package's ``__pycache__``. The library's name carries the
kernel's name and the CRC-32 of the compiler command and the source, so an
edited source is built anew. Contraction into fused multiply-adds is off:
both kernels reproduce numpy or scalar Python arithmetic, which rounds
every operation on its own. Math functions need not set ``errno``, so
``sqrt`` compiles to the instruction, which returns the same value. GCC's
note that 4-double vectors pass differently with and without AVX is
silenced: the kernels' vector functions are all inlined, none exported.

A successful build removes the libraries that older versions of the same
kernel left in the cache, so the cache holds one library per kernel. A
process that loaded one of them keeps it: removing a file unlinks its
name, while the mapped library stays until the process unmaps it.
"""

from __future__ import annotations

import ctypes
import os
import threading
import zlib

_HERE = os.path.dirname(os.path.abspath(__file__))
_CACHE = os.path.join(_HERE, "__pycache__")
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-fno-math-errno", "-Wno-psabi", "-fPIC", "-shared")
# a caller's functools.cache lets threads that miss at once all call load,
# so this lock lets only one of them build a library
_BUILD_LOCK = threading.Lock()


def _build(source: str, library: str, title: str) -> None:
    """Compile ``source`` in a temporary directory in the cache, then move it to ``library``.

    Processes that build at once each compile their own file and move it
    into place whole, so every one of them loads a complete library. Every
    failure is an ``OSError`` whose message names the kernel by ``title``.
    """
    import shutil
    import subprocess
    import tempfile

    name = os.path.basename(library)
    try:
        os.makedirs(_CACHE, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=name.split(".")[0] + ".", suffix=".tmp", dir=_CACHE)
    except OSError as exc:
        raise _cache_error(title, exc) from exc
    partial = os.path.join(scratch, name)
    try:
        try:
            done = subprocess.run([*_COMPILE, "-o", partial, source, "-lm"],
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise OSError(f"cannot build the {title}: no C compiler '{_COMPILE[0]}' found") from exc
        except OSError as exc:
            raise OSError(f"cannot build the {title}: cannot run '{_COMPILE[0]}': {exc.strerror or exc}") from exc
        if done.returncode != 0:
            first = (done.stderr.strip().splitlines() or [""])[0]
            raise OSError(f"cannot build the {title}: '{_COMPILE[0]}' exited with "
                          f"status {done.returncode}: {first}")
        try:
            os.replace(partial, library)
        except OSError as exc:
            raise _cache_error(title, exc) from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _cache_error(title: str, exc: OSError) -> OSError:
    """The error of a kernel cache that cannot be written, naming the kernel and the cache."""
    return OSError(f"cannot build the {title}: cannot write the kernel cache '{_CACHE}': {exc.strerror or exc}")


def load(name: str, title: str) -> ctypes.CDLL:
    """The library built from ``<name>.c``, built first if the cache lacks this version.

    ``title`` names the kernel in the ``OSError`` raised when it cannot be
    built. Callers cache the result and declare its functions' types.
    """
    source = os.path.join(_HERE, name + ".c")
    with open(source, "rb") as fh:
        key = zlib.crc32(" ".join(_COMPILE).encode() + b"\0" + fh.read())
    library = os.path.join(_CACHE, f"{name}.{key:08x}.so")
    with _BUILD_LOCK:
        if not os.path.exists(library):
            _build(source, library, title)
            _remove_older(name, library)
    return ctypes.CDLL(library)


def _remove_older(name: str, library: str) -> None:
    """Remove every ``<name>.<crc>.so`` in the cache but ``library``; a file already gone is no error."""
    import glob

    for older in glob.glob(glob.escape(os.path.join(_CACHE, name)) + "." + "[0-9a-f]" * 8 + ".so"):
        if older != library:
            try:
                os.remove(older)
            except OSError:
                pass
