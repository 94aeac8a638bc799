"""Build, load, bind and check ``_finish.c``, the compiled library of
the scheme's C entry points, each declared once, with its C types, in
``_SIGNATURES``: ``march`` (whole Crank-Nicolson steps), ``fit`` (the
initial spline fit), ``rows`` (the rows of a CSV file, with the bytes of
``'%.12g' % v``), ``front`` and ``sine`` (the traveling front and the
sine wave's series on an array of points), ``snapshot`` (the rows of a
run snapshot) and ``pulse`` (sin(pi x), the sine problem's initial
column); ``_finish.c`` describes each.

The library is compiled on first use, never at import, by the C compiler
Python was built with, and cached under
``${XDG_CACHE_HOME:-~/.cache}/ctburgers/`` in a file named by the
SHA-256 of the source and the compile command, the platform and the
interpreter's cache tag, so an edited source, other flags or another
interpreter get a build of their own.  No compiler, a failed compile or
an unwritable cache gives no library.  :func:`compile_command` is the
one place the command is spelled out.

:func:`compiled` is the one lookup of the library, which
:mod:`ctburgers.scheme`, :mod:`ctburgers.exact` and
:mod:`ctburgers.csvtext` call at each use, so one patch of it switches
every entry point.  It binds the library once per process and uses it,
every entry point or none, only when it gives the bits and bytes of the
Python path on a fixed set of known answers, each run through the one
function that calls that entry point in production
(:func:`_matches_python`).  Otherwise, and on machines without a C
compiler, every entry point runs on its Python path: the step and the
fit on Python floats with the same expressions, the rows in %-templates,
the exact solutions in numpy and the initial sine column through
``math.sin`` point by point, the references the compiled ones are
checked against; :func:`ctburgers.scheme.step_finisher` says which path
runs.  Those modules import this one and this one imports them, and each
reads the other's names only at call time.

Every array an entry point reads or writes is passed by the address that
:func:`address` gives, a third of the cost of ``ndarray.ctypes.data``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from ctypes import c_char_p, c_double, c_long, c_longlong, c_void_p
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import csvtext, exact, scheme
from .basis import SchemeCoefficients, UniformPartition, knot_coefficients
from .linalg import ZeroPivotError

SOURCE = Path(__file__).with_name("_finish.c")

# fixed, and CFLAGS is never read: contraction or fast-math would change bits
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")

# libm, for front's exp: linked after the source, because a linker run with
# --as-needed drops a library named before the objects that use it
LIBS = ("-lm",)

# seconds a compile may take before the Python path is kept
COMPILE_TIMEOUT = 120

_addressof = ctypes.addressof
_char_over = ctypes.c_char.from_buffer


def address(a: np.ndarray) -> int:
    """The address of the first byte of the C-contiguous array ``a``, as
    ``a.ctypes.data`` gives it.

    It is the address of a ``c_char`` laid over ``a``'s buffer, which
    takes about a third of the time of ``a.ctypes.data``.  A read-only
    or empty array has no writable first byte to lay it over, and takes
    ``a.ctypes.data``.  An array that is not C-contiguous raises
    ``ValueError``, where ``a.ctypes.data`` would give the address of
    its first element as if the rest followed it.
    """
    try:
        return _addressof(_char_over(a))
    except (TypeError, ValueError):
        # not writable, not contiguous, or no byte at all
        if not a.flags.c_contiguous:
            raise ValueError("the array is not C-contiguous") from None
        return a.ctypes.data


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


# each entry point's (restype, argtypes) in the types of its definition in
# _finish.c: an address is a c_void_p, a t_text a c_char_p
_SIGNATURES = {
    "march": (c_long, (c_void_p, c_void_p, c_void_p, c_long, c_longlong)),
    "fit": (c_long, (c_void_p, c_void_p, c_void_p, c_long, c_double)),
    "rows": (c_long, (c_void_p, c_long, c_long, c_char_p, c_void_p)),
    "front": (None, (c_void_p, c_long, *[c_double] * 5, c_void_p)),
    "sine": (None, (c_long, c_void_p, c_void_p, c_void_p, c_long, c_double, c_void_p)),
    "snapshot": (c_long, (c_void_p, c_void_p, c_void_p, c_long, c_char_p, c_void_p)),
    "pulse": (c_long, (c_void_p, c_long, c_void_p)),
}

_Compiled = NamedTuple("_Compiled", [(name, Optional[Callable]) for name in _SIGNATURES])
_Compiled.__doc__ = """Every entry point of ``_finish.c`` named in ``_SIGNATURES``, typed
for ctypes, or a None for each when all of them run in Python."""

_PYTHON = _Compiled._make(None for _ in _SIGNATURES)


def _bind(lib: ctypes.CDLL) -> _Compiled:
    """The entry points of ``lib``, with the types ``_SIGNATURES`` gives them."""
    functions = []
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
        functions.append(function)
    return _Compiled._make(functions)


# the special values of the known answers: the smallest subnormal,
# -DBL_MIN / 10, and a column of signed zeros and subnormals
_SMALLEST = 5e-324
_SUBNORMAL = -2.2250738585072014e-309
_SPECIALS = (0.0, -0.0, _SMALLEST, _SUBNORMAL, -_SMALLEST, 3.0e-310)
# 67 values of both signs, the state of N = 64, and the coefficients of N = 3
_WAVE = tuple(1.5 * math.sin(0.7 * j) - 0.25 for j in range(67))
_COARSE = knot_coefficients(1.0 / 3)


def _known_answer_cases():
    """Fixed marches for the finisher check: (delta, problem, coefficients, steps).

    They hold +-0.0 and subnormals in the state and the boundary values,
    the smallest mesh (N=3) and a larger one (N=64), non-zero boundary
    values at both ends of a non-trivial state, a zero pivot in the first
    row and in an interior one, and one in the second step.  Two states of
    N=200 start every step from enough parameters equal to their
    neighbour bit for bit that ``march`` reuses work, on rows where a
    pivot or a forward update has not yet settled beside rows where it
    has, and on -0.0 beside +0.0, which compare equal with == but differ
    in bits.
    """

    def spec(n_cells, lam, dt, left, right):
        return scheme.ProblemSpec(
            lam=lam, a=0.0, b=1.0, dt=dt, n_cells=n_cells,
            initial_condition=lambda x: 0.0, initial_derivative=lambda x: 0.0,
            boundary_left=left, boundary_right=right,
        )

    fine = knot_coefficients(1.0 / 64)
    wave = list(_WAVE)
    for j in range(0, 60, 11):
        wave[j:j + len(_SPECIALS)] = _SPECIALS
    # no advection, alpha1 = 1, alpha2 = 2, lam gamma2 dt/2 = 1: the fold
    # leaves pivots -1, 1, 0 in rows 0-2; alpha2 = 1, gamma2 = 0 makes
    # row 0 zero
    flat = SchemeCoefficients(
        alpha1=1.0, alpha2=2.0, beta1=0.0, beta2=0.0, gamma1=0.0, gamma2=1.0
    )
    # rhs weights alpha + dt/2 lam gamma = 0: the first step ends in a
    # state of +-0.0, whose folded row 0 is 4 - 2 * 2/1 = 0
    vanishing = SchemeCoefficients(
        alpha1=1.0, alpha2=2.0, beta1=-1.0, beta2=1.0, gamma1=-1.0, gamma2=-2.0
    )
    steep = [0.25, -0.0, 1.0, _SMALLEST, -1.0, 0.0]
    # N = 200 with more than REUSE_MIN repeated parameters in _finish.c, so
    # that march reuses work: a wave, a plateau, and a plateau that reaches
    # the right boundary; then runs of -0.0 beside runs of +0.0, whose
    # signs one step leaves alternating and a second one evens out
    flats = [*_WAVE[:20], *[0.75] * 100, *[0.2] * 83]
    zeros = [*[0.0] * 60, *[-0.0] * 80, *[0.0] * 63]
    finer = knot_coefficients(1.0 / 200)
    return [
        (np.array(_SPECIALS), spec(3, 0.1, 1e-3, -0.0, _SMALLEST), _COARSE, 4),
        (np.array(steep), spec(3, 0.003, 1e-2, 1.0, 0.0), _COARSE, 4),
        (np.array(wave), spec(64, 0.005, 1e-2, _SUBNORMAL, -0.0), fine, 4),
        (np.array(wave), spec(64, 1.0, 1e-4, 0.0, 0.0), fine, 4),
        (np.array(wave), spec(64, 0.005, 1e-2, 1.0, 0.2), fine, 4),
        (np.array(flats), spec(200, 0.005, 1e-5, 1.0, 0.2), finer, 4),
        (np.array(zeros), spec(200, 0.005, 1e-5, -0.0, 0.0), finer, 1),
        (np.zeros(8), spec(5, 1.0, 2.0, 0.0, 0.0), flat, 3),
        (np.zeros(8), spec(5, 1.0, 1e-4, 0.0, 0.0), replace(flat, alpha2=1.0, gamma2=0.0), 3),
        (np.linspace(-1.0, 1.0, 8), spec(5, 1.0, 2.0, 0.0, 0.0), vanishing, 3),
    ]


def _known_answer_fits():
    """Fixed systems for the fit check: (bands, rhs) in the layout of
    :func:`~ctburgers.linalg.banded_solve`.

    They hold the fit matrices of N=3 and N=64, a full band, +-0.0 and
    subnormals in the rhs, a -0.0 below a pivot row holding inf (an
    elimination that is not skipped turns the row into NaN), zero pivots
    in column 0, in an interior column and in the last row, and the
    smallest systems, n = 1 and n = 2.  Every input is a literal or a
    short ``math`` loop, so the check allocates next to nothing.
    """
    wave = list(_WAVE)
    wave[5:11] = _SPECIALS
    inf = math.inf
    bands = scheme._fit_bands
    return [
        (bands(_COARSE, 6), np.array(_SPECIALS)),
        (bands(_COARSE, 6), np.array([-2.0, 0.25, 1.0, 0.75, -0.5, 3.0])),
        (bands(knot_coefficients(1.0 / 64), 67), np.array(wave)),
        # a full band: every back-substitution row subtracts two products;
        # in the fit matrix only row 0 does, and one of its products is zero
        (np.array([[0.5 * math.sin(1.3 * i + 0.7 * j) + 3.0 * (j == 2) if 0 <= i + j - 2 < 12
                    else 0.0 for j in range(5)] for i in range(12)]),
         np.array([math.cos(0.9 * i) for i in range(12)])),
        # the skipped eliminations below row 0 keep rows 1 and 2 finite
        (np.array([[0.0, 0.0, 1.0, inf, inf], [0.0, -0.0, 2.0, 1.0, 0.0],
                   [-0.0, 0.5, 1.0, 0.0, 0.0]]), np.array([1.0, 2.0, 1.0])),
        # beta1 = 0: the derivative row has no pivot
        (bands(replace(_COARSE, beta1=0.0), 6), np.array(wave[:6])),
        # unit tridiagonal: the second pivot is 1 - 1 * 1 = 0
        (np.array([[0.0, 0.0, 1.0, 1.0, 0.0]] + [[0.0, 1.0, 1.0, 1.0, 0.0]] * 3
                  + [[0.0, 1.0, 1.0, 0.0, 0.0]]), np.ones(5)),
        # the last pivot is 1 - 1 * 1 = 0
        (np.array([[0.0, 0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0, 0.0],
                   [0.0, 1.0, 1.0, 0.0, 0.0]]), np.array([1.0, _SMALLEST, -1.0])),
        # n = 1 and n = 2
        (np.array([[0.0, 0.0, 3.0, 0.0, 0.0]]), np.array([_SUBNORMAL])),
        (np.array([[0.0, 0.0, 2.0, 0.5, 0.0], [0.0, -1.0, 4.0, 0.0, 0.0]]),
         np.array([1.0, -0.0])),
    ]


def _known_answer_rows():
    """Fixed (3, 40) columns and the t text for the rows check.

    They hold exact ties at the 13th digit (2^-18, 100000000000.5 and
    100000000001.5, which round to even), values on both sides of the %g
    switches at 10^-4 and 10^12, where the rounding moves the exponent,
    1e-05 and 1e12, +-0.0, the smallest subnormal and normal doubles, the
    largest double, +-inf, a NaN with its sign bit set, the widest text
    (-1.23456789012e-308), values that, scaled by factors of 10^22 to 12
    integer digits, lie within 2^-51 of a tie, three within 2^-27 of the
    largest double, whose scaling overflows, and 21 values whose digit
    pairs take every pair from 00 to 99 in the last five places.

    1 and 12 significant digits of both signs sit at the decimal exponents
    -5, -4, 11 and 12, where the layout switches, and at three-digit ones.
    The doubles on both sides of 10^j for five j check where the decimal
    exponent moves up.  Products a 10^22 and quotients a / 10^22 that round
    to n + 1/2, and their neighbours, take their side from the exact
    remainder: one lies above n + 1/2, one below.  Values whose exponent
    estimate is one low, and their neighbours, take their digits from a
    second scaling: exact after a double-double first one (1e-11),
    double-double after an exact one (1e34), or exact after an exact one
    (1.1e33).
    """
    tie_4, tie_12 = 9.999999999995e-05, 999999999999.5
    # a * 10^22 and a / 10^22 round to n + 1/2, a little below and above it
    tie_up, tie_down = 1.234567890125e-11, 1.234567890125e+33
    values = [
        2.0**-18, 100000000000.5, 100000000001.5,
        tie_4, math.nextafter(tie_4, 0.0), math.nextafter(tie_4, 1.0), 1e-05, 1e-04,
        tie_12, math.nextafter(tie_12, 0.0), math.nextafter(tie_12, math.inf), 1e12,
        0.0, -0.0, _SMALLEST, -3e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
        math.inf, -math.inf, math.copysign(math.nan, -1.0), math.nan,
        -1.23456789012e-308, 1e-320,
        0.1, -1.0 / 3.0, 123456.789, -7.0, 1e22, 1e23, 2.0**53, 1e-300,
        6.050602459065e-34, 1.616629688645e-19, 1.383957592355e-12,
        5.760931982955e+34, 1.565497303285e+56, 1.795097866425e+301,
        1.7976931203573826e+308, 1.7976931249486444e+308, 1.7976931325556788e+308,
    ]
    for digits in (1.0, 1.23456789012):
        for e in (-5, -4, 11, 12, -300, 250):
            values += [digits * 10.0**e, -digits * 10.0**e]
    for power in (1e-05, 1e1, 1e23, 1e-100, 1e308):
        values += [math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    for tie in (tie_up, tie_down):
        values += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    # exponent estimates one low: the digits come from a second scaling
    for seam in (1e-11, 1.2e-11, 1.23456789012e-11, 1e34, 1.01e34, 1.1e33):
        values += [seam, math.nextafter(seam, 0.0), math.nextafter(seam, math.inf)]
    # 12 digits: a leading pair 10 .. 90, then the pairs 5j .. 5j + 4 (mod 100)
    values += [
        float("%d%s" % (10 + 4 * j, "".join("%02d" % ((5 * j + i) % 100) for i in range(5))))
        * 10.0**(j - 15)
        for j in range(21)
    ]
    return np.array(values).reshape(3, -1), "%.12g" % 0.7



def _known_answer_snapshots():
    """Fixed knots, values and t texts for the snapshot check: (knots, us,
    exact, t_texts), two files.

    The knots are distinct, so a row takes no other row's knot text.  The
    values hold +-0.0 and subnormals on both sides, differences of both
    signs, one that cancels to -0.0, a NaN in u and one in the exact value,
    inf - inf and a difference that overflows to inf.  The second file
    swaps U and the exact value, so it reads its own row of ``exact``, and
    its t text is shorter, so it overwrites the buffer the first filled
    with fewer bytes.
    """
    inf, nan, big = math.inf, math.nan, 1.7976931348623157e308
    pairs = [
        (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (_SMALLEST, _SUBNORMAL), (_SUBNORMAL, 3.0e-310),
        (0.25, 0.75), (0.75, 0.25), (1.0 / 3.0, 0.1), (nan, 0.5), (0.5, nan),
        (inf, inf), (-inf, -inf), (inf, -1.0), (big, -big), (-big, big), (1e-17, 1.0),
    ]
    knots = [0.0625 * j - 0.25 for j in range(len(pairs) - 2)] + [1e-05, 12345.678901234]
    u, ue = np.array(pairs).T
    return np.array(knots), [u, ue], np.array([ue, u]), ["%.12g" % (1.0 / 3.0), "%.12g" % 0.7]


def _known_answer_fronts():
    """Fixed columns for the front check: (points, ts, alpha, mu, gamma, lam).

    They hold a point exactly at the front (eta = 0), +-0.0, +-inf and a
    NaN, eta beyond +-745, where the exponential underflows to zero, eta
    from -708.5 to -745, where it is subnormal, a lam so small that eta
    overflows to +-inf, and irregular points around two fronts, one with a
    negative alpha, whose positions mu t + gamma round, so that a regrouped
    eta or an exponential other than ``math.exp``'s moves last bits.  The
    last two take their points at two and three times, so each time writes
    its own row.
    """
    alpha, mu, gamma = 0.4, 0.6, 0.125
    lam = 1e-4
    # eta = alpha (x - gamma) / lam at t = 0
    edges = [gamma + eta * lam / alpha for eta in (-708.5, -720.0, -745.0, -745.5, 745.5, 1e4)]
    specials = [gamma, 0.0, -0.0, math.inf, -math.inf, math.nan, *edges]
    # around the front at 0.6 * 0.37 + 0.125 eta runs over +-1.2: most
    # exponentials are near 1, so a last bit of exp moves the value
    near = [0.347 + 0.3 * math.sin(0.37 * j + 0.1) for j in range(64)]
    # a front rising to the right, at 0.45 * 0.71 + 0.2; eta over +-12
    wide = [0.52 + 0.4 * math.sin(0.37 * j + 0.1) for j in range(48)]
    return [
        (np.array(specials), (0.0,), alpha, mu, gamma, lam),
        (np.array(specials), (0.0,), alpha, mu, gamma, 1e-310),
        (np.array(near), (0.37, 0.5), alpha, mu, gamma, 0.1),
        (np.array(wide), (0.71, 0.0, 1.3), -0.3, 0.45, 0.2, 0.01),
    ]


def _known_answer_sines():
    """Fixed columns for the sine check: (points, s, c, factors, terms,
    scale) as :func:`~ctburgers.exact._sine_rows` takes them after ``compiled``.

    The first holds +-0.0 and subnormals in s, c and the factors, a
    denominator that reaches +0.0, under a zero and a non-zero numerator,
    and NaN and +-inf in s and c, whose sums are NaN, +-inf and -0.0.  The
    next sums 24 terms of both signs at 22 points, five groups of the C
    loop's four and two left over, so that a regrouped product or another
    order of the sums moves last bits.  The last has four times: 3 terms,
    t = 0 (no terms), 2 terms and 3 terms again, so each time after the
    first reads its factors and writes its row at an offset, and the t = 0
    row checks the pulse through the call that production makes.
    """
    inf, nan = math.inf, math.nan
    specials = [0.0, -0.0, _SMALLEST, _SUBNORMAL, 0.5, -0.75]
    # the last five points sum to NaN (from s and from c), inf, -inf and -0.0
    special_s = [specials + [0.0, 0.25, -0.25, nan, inf, -inf, 0.25, 0.5],
                 [3.0e-310, 0.25, -0.0, 0.0, -0.0, _SMALLEST, 0.0, 0.25, -0.0,
                  0.0, -0.0, 0.25, 0.5, 0.25]]
    special_c = [specials + [-1.0, -1.0, -1.0, 0.25, 0.5, 0.5, -inf, nan],
                 [0.125, -0.0, _SMALLEST] + specials + [0.5, 0.0, 0.5, 0.0, 0.5]]
    terms = np.arange(1.0, 25.0)[:, None]
    points = np.arange(22.0)
    knots = np.array([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
    angles = np.pi * np.arange(1.0, 4.0)[:, None] * knots
    return [
        # 1 + (2 * -1) * 0.5 = +0.0 at points 6 to 8, the first of them
        # under a zero numerator
        (np.array([0.5, 0.0, 0.25, 1.0, 0.75, 0.125, 0.375, 0.625, 0.875,
                   0.3, 0.4, 0.6, 0.7, 0.9]),
         np.array(special_s), np.array(special_c),
         np.array([0.75, 1e300, 2.0, _SUBNORMAL, 0.5, 3.0e-310]), (2,), 0.125),
        (points / 21.0,
         np.sin(0.37 * terms * points + 0.1), np.cos(0.53 * terms * points - 0.2),
         np.vstack([terms.T * 0.93**terms.T, 2.0 * 0.93**terms.T, np.exp(-0.01 * terms.T**2)]
                   ).ravel(), (24,), 0.0125),
        (knots, np.sin(angles), np.cos(angles),
         np.array([0.5, 0.1, 0.02, 0.2, 0.02, 0.002, 0.9, 0.7, 0.4,
                   1.0, 0.5, 0.5, 0.25, 0.5, 0.25,
                   -1.0, 0.5, 0.25, 0.2, 0.02, 0.002, 0.9, 0.7, 0.4]), (3, 0, 2, 3), 0.5),
    ]


def _known_answer_pulses():
    """Fixed columns for the pulse check, as :func:`~ctburgers.exact._pulse`
    takes them.

    They hold +-0.0, subnormals, integers and half-integers of both signs
    (pi x is rounded, so sin(pi x) is not 0 at a non-zero integer), 1/3,
    1e15 and 1e300, whose angles lie far beyond one period, so that a pulse
    that reduces x first moves their bits, NaNs of both signs and the 401
    knots of N = 400.  Two columns raise: one holds -inf after finite points, the
    other 1e308, whose angle overflows.
    """
    values = [0.0, -0.0, _SMALLEST, -_SMALLEST, _SUBNORMAL, 3.0e-310,
              1.0, -1.0, 2.0, 3.0, -7.0, 0.5, -0.5, 1.5, 2.5, -3.5, 1000000.5,
              1.0 / 3.0, -1.0 / 3.0, 0.1, 0.7, 1e15, -1e15, 1e300,
              math.nan, math.copysign(math.nan, -1.0)]
    return [
        np.array(values),
        UniformPartition(0.0, 1.0, 400).knot_array(),
        np.array([0.25, 1e300, -math.inf, 0.5, math.inf]),
        np.array([0.75, 1e308]),
    ]


def _known_answer_outcomes(compiled: _Compiled):
    """The zero-pivot row, or None, and the result bits of every
    known-answer march and fit run by ``compiled``, then the bytes of its
    known-answer rows, the bits of its known-answer front and sine rows,
    the bytes of its known-answer snapshot files and the bits of its
    known-answer pulses, or the error a pulse raises.

    Each march is one multi-step call, and its result is the state after
    the last completed step; a fit that meets a zero pivot has no result.
    """
    for delta, p, sc, steps in _known_answer_cases():
        kernel = scheme._StepKernel(delta, p, sc, compiled.march)
        row = None
        try:
            kernel.march(steps)
        except ZeroPivotError as err:
            row = err.row
        yield row, kernel.delta.view(np.int64).tolist()
    for bands, rhs in _known_answer_fits():
        try:
            x = scheme._fit(compiled.fit, bands.copy(), rhs.copy())
        except ZeroPivotError as err:
            yield err.row, None
        else:
            yield None, x.view(np.int64).tolist()
    yield bytes(csvtext._csv_rows(compiled.rows, *_known_answer_rows()))
    for case in _known_answer_fronts():
        yield exact._front_rows(compiled.front, *case).view(np.int64).tolist()
    for case in _known_answer_sines():
        yield exact._sine_rows(compiled, *case).view(np.int64).tolist()
    knots, us, ue, t_texts = _known_answer_snapshots()
    files = csvtext._snapshot_files(compiled, knots, us, ue, t_texts)
    # each file's bytes are copied before the next overwrites its buffer
    yield [bytes(rows) for rows in files]
    for xs in _known_answer_pulses():
        try:
            yield exact._pulse(compiled.pulse, xs).view(np.int64).tolist()
        except ValueError as err:
            yield repr(err)


def _matches_python(compiled: _Compiled) -> bool:
    """Whether ``compiled`` gives every outcome of
    :func:`_known_answer_outcomes` as the Python path does.

    The outcomes are compared in turn, so the check stops at the first
    that differs: the snapshot files, which read the knot rows the compiled
    rows write, run only after those rows have matched."""
    outcomes = zip(_known_answer_outcomes(_PYTHON), _known_answer_outcomes(compiled), strict=True)
    return all(python == native for python, native in outcomes)


@functools.cache
def compiled() -> _Compiled:
    """Every entry point of ``_SIGNATURES`` compiled, or ``_PYTHON`` when
    all of them run in Python.

    Built on the first call in a process and trusted only when it passes
    :func:`_matches_python`: one library, used whole or not at all.
    """
    lib = load_library()
    if lib is not None:
        bound = _bind(lib)
        if _matches_python(bound):
            return bound
    return _PYTHON
