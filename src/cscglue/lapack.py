"""The LAPACK routines the package calls, reached without importing scipy.linalg.

scipy's f2py LAPACK extension ``scipy/linalg/_flapack`` is loaded by its
file path, so scipy's package ``__init__`` and its array-API set-up never
run; the extension needs only numpy.  ``dgttrf``, ``dgttrs`` and ``dgbsv``
are the extension's own routines.  ``solve_tridiagonal`` (one ``dgtsv``)
and ``eigenvalues_between`` (one ``dstebz``) keep the input checks of the
scipy.linalg wrappers they stand for, ``solve_banded((1, 1), ...)`` and
``eigh_tridiagonal(select="v", lapack_driver="stebz")``, and give their bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file; find_spec runs no scipy code."""
    scipy = importlib.util.find_spec("scipy")
    dirs = [Path(p) / "linalg" for p in (scipy.submodule_search_locations if scipy else [])]
    for path in (d / f"_flapack{suffix}" for d in dirs
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    where = ", ".join(map(str, dirs)) or "any directory: scipy is not installed"
    raise ImportError(f"no LAPACK extension _flapack in {where}; cscglue needs scipy>=1.10")


_flapack = _load_flapack()
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
dgbsv = _flapack.dgbsv


def _check_info(info: int, routine: str, failure: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(failure)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def solve_tridiagonal(dl, d, du, b) -> np.ndarray:
    """x with (dl, d, du) x = b, for sub-, main and super-diagonal, by one ``dgtsv``.

    Gaussian elimination with partial pivoting, the bits of
    ``scipy.linalg.solve_banded((1, 1), ...)``.  A 1x1 system is one
    division, as there.  Raises ValueError for a non-finite entry or
    mismatched lengths, and LinAlgError for an exactly zero pivot.
    """
    dl, d, du, b = (np.asarray_chkfinite(a, dtype=float) for a in (dl, d, du, b))
    if not dl.size + 1 == d.size == du.size + 1 == b.size:
        raise ValueError(f"diagonals of lengths {dl.size}, {d.size}, {du.size} "
                         f"do not fit a right-hand side of length {b.size}")
    if d.size == 1:  # dgtsv's wrapper rejects empty off-diagonals
        if d[0] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        return b / d[0]
    *_, x, info = _flapack.dgtsv(dl, d, du, b)
    _check_info(info, "dgtsv", "singular matrix")
    return x


def eigenvalues_between(d, e, lo: float, hi: float, tol: float) -> np.ndarray:
    """Eigenvalues in (lo, hi] of the symmetric tridiagonal (d, e), by one ``dstebz``.

    Bisection on Sturm counts to the absolute tolerance ``tol``, ascending;
    the bits of ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="v", select_range=(lo, hi), lapack_driver="stebz", tol=tol)``.
    Raises ValueError for a non-finite entry, for a d that is not one
    longer than e and for an empty (lo, hi]; LinAlgError if bisection
    does not converge.
    """
    d, e = (np.asarray_chkfinite(a, dtype=float) for a in (d, e))
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    m, w, _, _, info = _flapack.dstebz(d, e, 1, lo, hi, 1, 1, tol, "E")
    _check_info(info, "dstebz", f"dstebz did not converge (LAPACK info={info})")
    return w[:m]
