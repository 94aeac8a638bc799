"""Build and load ``_finish.c``, the compiled library with the six C
entry points of the scheme: ``march``, which runs whole Crank-Nicolson
steps, ``fit``, which solves the initial spline fit, ``rows``, which
writes the rows of a CSV file with the bytes of ``'%.12g' % v``,
``front``, which evaluates the traveling front on an array of points,
``sine``, which sums the sine wave's series on an array of points, and
``snapshot``, which writes the rows of a run snapshot.

The library is compiled on first use, never at import, by the C compiler
Python was built with, and cached under
``${XDG_CACHE_HOME:-~/.cache}/ctburgers/`` in a file named by the
SHA-256 of the source and the compile command, the platform and the
interpreter's cache tag, so an edited source, other flags or another
interpreter get a build of their own.  No compiler, a failed compile or
an unwritable cache gives ``None``, and the caller keeps to the Python
path.  One load serves all six entry points; :mod:`ctburgers.scheme`
checks all six before it uses any.  :func:`compile_command` is the one
place the command is spelled out.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_finish.c")

# fixed, and CFLAGS is never read: contraction or fast-math would change bits
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")

# libm, for front's exp: linked after the source, because a linker run with
# --as-needed drops a library named before the objects that use it
LIBS = ("-lm",)

# seconds a compile may take before the Python path is kept
COMPILE_TIMEOUT = 120


def compiler() -> list[str]:
    """The C compiler command Python was built with, or plain ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def compile_command(
    output, source=SOURCE, *, cc: list[str] | None = None, flags: tuple[str, ...] = ()
) -> list[str]:
    """The command that builds ``source`` into the shared library ``output``:
    ``cc`` (by default :func:`compiler`), ``FLAGS``, the extra ``flags``,
    the output and the source, then ``LIBS``."""
    return [
        *(compiler() if cc is None else cc), *FLAGS, *flags, "-o", str(output), str(source), *LIBS,
    ]


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "ctburgers"


def library_path(source: bytes, command: list[str]) -> Path:
    digest = hashlib.sha256(source)
    digest.update("\0".join(["", *command]).encode())
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    name = (
        f"finish-{digest.hexdigest()}"
        f"-{sysconfig.get_platform()}-{sys.implementation.cache_tag}{suffix}"
    )
    return cache_dir() / name


def _compile(path: Path) -> bool:
    """Compile ``SOURCE`` to ``path`` through a temporary file in its directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=path.suffix, dir=path.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        subprocess.run(
            compile_command(tmp),
            stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=COMPILE_TIMEOUT,
        )
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_library() -> ctypes.CDLL | None:
    """The compiled library, built first if the cache has none for this source and command."""
    # the command names its two paths alike in every checkout, so one
    # source's build serves them all
    command = compile_command("library", "source")
    try:
        path = library_path(SOURCE.read_bytes(), command)
    except OSError:
        return None
    if not path.is_file() and not _compile(path):
        return None
    try:
        return ctypes.CDLL(str(path))
    except OSError:
        return None
