"""The LAPACK routines the package calls, from the library numpy.linalg links.

The OpenBLAS that numpy's ``numpy.linalg._umath_linalg`` links exports
LAPACK; ctypes opens it by that extension's file, whose dlsym scope holds
the libraries it links, so a process holds one BLAS/LAPACK.  A routine r
is looked up under each of SPELLINGS, and one ``ilaver`` call confirms
the integer width.  Every wrapper returns its answer alone and raises on
LAPACK's status: ValueError for an illegal argument, LinAlgError for an
exactly zero pivot.  ``TridiagonalLU`` keeps ``dgttrf``'s factors to
itself.  ``solve_tridiagonal`` (``dgtsv``) and ``eigenvalues_between``
(``dstebz``) keep the input checks of ``scipy.linalg.solve_banded((1, 1),
...)`` and ``eigh_tridiagonal(select="v", lapack_driver="stebz")`` and
give their bits.  ctypes checks nothing, so each wrapper checks, or makes
in a copy, the dtype, length and memory order of every array before
LAPACK sees its address.
"""

from __future__ import annotations

import ctypes

import numpy as np

# (prefix, suffix, integer type) of LAPACK routine r's symbol: numpy's own
# ILP64 OpenBLAS spells it scipy_<r>_64_, other ILP64 builds <r>_64_, LP64 <r>_
SPELLINGS = (("scipy_", "_64_", ctypes.c_int64), ("", "_64_", ctypes.c_int64),
             ("", "_", ctypes.c_int32))

# each routine's arguments, all by reference: i an integer, d a double, a an
# array, c a character, which also takes a hidden length after the others
_SIGNATURES = {
    "ilaver": "aaa",                  # MAJOR MINOR PATCH, as arrays to check their width
    "dgttrf": "iaaaaai",              # N DL D DU DU2 IPIV INFO
    "dgttrs": "ciiaaaaaaii",          # TRANS N NRHS DL D DU DU2 IPIV B LDB INFO
    "dgtsv": "iiaaaaii",              # N NRHS DL D DU B LDB INFO
    "dgbsv": "iiiiaiaaii",            # N KL KU NRHS AB LDAB IPIV B LDB INFO
    # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO
    "dstebz": "cciddiidaaiiaaaaai",
}


def _width_confirmed(ilaver, dtype) -> bool:
    """Whether ``ilaver`` writes integers of exactly ``dtype``'s width.

    Each of (major, minor, patch) goes to the start of an 8-byte slot of
    ones: a narrower write leaves a 64-bit slot negative, a wider one
    clears the ones after a 32-bit slot.
    """
    slots = np.full((3, 8 // dtype.itemsize), -1, dtype=dtype)
    ilaver(*(slots.ctypes.data + 8 * i for i in range(3)))
    version = slots[:, 0]
    return bool(version[0] >= 3 and (version >= 0).all() and (slots[:, 1:] == -1).all())


def load(path: str):
    """The LAPACK routines of the library at ``path`` and its ctypes integer type.

    Raises ImportError naming ``path`` and the spellings tried when no
    spelling gives every routine with an integer width ``ilaver`` confirms.
    """
    lib = ctypes.CDLL(path)
    for prefix, suffix, c_int in SPELLINGS:
        try:
            routines = {r: getattr(lib, f"{prefix}{r}{suffix}") for r in _SIGNATURES}
        except AttributeError:
            continue
        types = {"i": ctypes.POINTER(c_int), "d": ctypes.POINTER(ctypes.c_double),
                 "a": ctypes.c_void_p, "c": ctypes.c_char_p}
        for r, fn in routines.items():
            sig = _SIGNATURES[r]
            fn.argtypes = [types[t] for t in sig] + [ctypes.c_size_t] * sig.count("c")
            fn.restype = None
        if _width_confirmed(routines.pop("ilaver"), np.dtype(c_int)):
            return routines, c_int
    tried = ", ".join(f"{prefix}<r>{suffix} ({c_int.__name__})"
                      for prefix, suffix, c_int in SPELLINGS)
    raise ImportError(f"no LAPACK routines {', '.join(_SIGNATURES)} in {path} "
                      f"or the libraries it links; spellings tried: {tried}")


_lapack, _c_int = load(np.linalg._umath_linalg.__file__)
_INT, _F8 = np.dtype(_c_int), np.dtype(np.float64)


def _checked(name: str, a, dtype, shape: tuple) -> np.ndarray:
    """``a``, once it is a Fortran-contiguous ``dtype`` ndarray of ``shape``, else ValueError.

    A vector is contiguous in either order.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags.f_contiguous):
        raise ValueError(f"{name} must be a Fortran-contiguous {np.dtype(dtype)} array "
                         f"of shape {shape}")
    return a


_NO_BYTES = ctypes.c_char * 0


def _address(a: np.ndarray) -> int:
    """Where the data of the Fortran-contiguous ``a`` starts.

    A writeable array is read through the buffer protocol (its transpose
    is C-contiguous), a third of the cost of numpy's ``a.ctypes``.
    """
    return ctypes.addressof(_NO_BYTES.from_buffer(a.T)) if a.flags.writeable else a.ctypes.data


def _check_info(info: int, routine: str, failure: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(failure)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


class TridiagonalLU:
    """The LU factors of the tridiagonal (dl, d, du), by one ``dgttrf``, for ``solve``.

    Gaussian elimination with partial pivoting on copies of the sub-, main
    and super-diagonal, as one ``dgtsv`` makes it.  The factors are private
    and each solve reads their addresses afresh, so a copy of the instance
    solves with its own.  Raises ValueError for a non-finite entry or for dl
    and du not one shorter than d, and LinAlgError for an exactly zero pivot.
    """

    def __init__(self, dl, d, du):
        dl, d, du = (np.array(np.asarray_chkfinite(a, dtype=float)) for a in (dl, d, du))
        if not (d.ndim == 1 and dl.shape == du.shape == (d.size - 1,)):
            raise ValueError(f"diagonals of shapes {dl.shape}, {d.shape}, {du.shape} do not fit")
        n = d.size
        self._factors = (dl, d, du, np.empty(max(n - 2, 0)), np.empty(n, dtype=_INT))
        info = _c_int(0)
        _lapack["dgttrf"](_c_int(n), *map(_address, self._factors), info)
        _check_info(info.value, "dgttrf", "singular matrix")

    def solve(self, b) -> np.ndarray:
        """x with A x = b, by one ``dgttrs``; ValueError for a non-finite b or a wrong shape."""
        x = np.array(np.asarray_chkfinite(b, dtype=float))
        if x.shape != self._factors[1].shape:
            raise ValueError(f"right-hand side of shape {x.shape} does not fit "
                             f"a diagonal of shape {self._factors[1].shape}")
        n, info = _c_int(x.size), _c_int(0)
        _lapack["dgttrs"](b"N", n, _c_int(1), *map(_address, (*self._factors, x)),
                          n, info, 1)
        _check_info(info.value, "dgttrs", "singular matrix")
        return x


def dgbsv(kl: int, ku: int, ab, b) -> np.ndarray:
    """x with A x = b, the banded solve by ``dgbsv``.

    ``ab`` holds A in LAPACK's band storage: a writeable Fortran-ordered
    float64 array of 2 kl + ku + 1 rows whose first kl are room for the
    fill-in; it is factored in place.  b is a float64 vector, copied.
    LinAlgError for an exactly zero pivot.
    """
    if kl < 0 or ku < 0:
        raise ValueError(f"band widths kl={kl}, ku={ku} must be >= 0")
    n = getattr(b, "size", -1)
    x = _checked("b", b, _F8, (n,)).copy()
    if not _checked("ab", ab, _F8, (2 * kl + ku + 1, n)).flags.writeable:
        raise ValueError("ab must be writeable: dgbsv factors it in place")
    ipiv = np.empty(n, dtype=_INT)
    n, info = _c_int(n), _c_int(0)
    _lapack["dgbsv"](n, _c_int(kl), _c_int(ku), _c_int(1), _address(ab),
                     _c_int(2 * kl + ku + 1), _address(ipiv), _address(x), n, info)
    _check_info(info.value, "dgbsv", "singular matrix")
    return x


def solve_tridiagonal(dl, d, du, b) -> np.ndarray:
    """x with (dl, d, du) x = b, for sub-, main and super-diagonal, by one ``dgtsv``.

    Gaussian elimination with partial pivoting, the bits of
    ``scipy.linalg.solve_banded((1, 1), ...)``.  A 1x1 system is one
    division, as there.  Raises ValueError for a non-finite entry or
    mismatched lengths, and LinAlgError for an exactly zero pivot.
    """
    # contiguous copies, which dgtsv overwrites
    dl, d, du, b = (np.array(np.asarray_chkfinite(a, dtype=float)) for a in (dl, d, du, b))
    if not dl.size + 1 == d.size == du.size + 1 == b.size:
        raise ValueError(f"diagonals of lengths {dl.size}, {d.size}, {du.size} "
                         f"do not fit a right-hand side of length {b.size}")
    n, info = _c_int(d.size), _c_int(0)
    _lapack["dgtsv"](n, _c_int(1), *map(_address, (dl, d, du, b)), n, info)
    _check_info(info.value, "dgtsv", "singular matrix")
    return b


def eigenvalues_between(d, e, lo: float, hi: float, tol: float) -> np.ndarray:
    """Eigenvalues in (lo, hi] of the symmetric tridiagonal (d, e), by one ``dstebz``.

    Bisection on Sturm counts to the absolute tolerance ``tol``, ascending;
    the bits of ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="v", select_range=(lo, hi), lapack_driver="stebz", tol=tol)``.
    Raises ValueError for a non-finite entry, for a d that is not one
    longer than e and for an empty (lo, hi]; LinAlgError if bisection
    does not converge.
    """
    d, e = (np.ascontiguousarray(np.asarray_chkfinite(a, dtype=float)) for a in (d, e))
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    if not lo < hi:
        raise ValueError(f"empty window ({lo}, {hi}]")
    n = d.size
    # W IBLOCK ISPLIT WORK IWORK
    out = (np.empty(n), np.empty(n, dtype=_INT), np.empty(n, dtype=_INT),
           np.empty(4 * n), np.empty(3 * n, dtype=_INT))
    one, m, info = _c_int(1), _c_int(0), _c_int(0)
    _lapack["dstebz"](b"V", b"E", _c_int(n), ctypes.c_double(lo), ctypes.c_double(hi),
                      one, one, ctypes.c_double(tol), _address(d), _address(e), m,
                      _c_int(0), *map(_address, out), info, 1, 1)
    _check_info(info.value, "dstebz", f"dstebz did not converge (LAPACK info={info.value})")
    return out[0][:m.value]
