"""Small numeric helpers shared across modules."""

import numpy as np

from .errors import InvalidInput, NumericalDegeneracy

# Relative threshold deciding which coordinate counts as "first nonzero"
# when gauge-fixing a homogeneous vector.
GAUGE_REL_TOL = 1e-9
# run_chunked: rows per block unless the caller gives its own
CHUNK = 256


def check_finite(a, name="array"):
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def gauge_vector(v):
    """Canonical representative of a projective vector.

    Unit Euclidean norm, and the first coordinate whose modulus exceeds
    GAUGE_REL_TOL * max|v_i| is rotated to be real positive.  The result
    is the unique such representative, so equality of projective points
    becomes equality of arrays.
    """
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm < 1e-14:
        raise NumericalDegeneracy("cannot gauge a numerically zero vector")
    v = v / nrm
    mags = np.abs(v)
    lead = int(np.argmax(mags > GAUGE_REL_TOL * mags.max()))
    phase = v[lead] / mags[lead]
    return v * np.conj(phase)


def hermitize(m):
    m = np.asarray(m)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def run_chunked(fn, rows, chunk=CHUNK):
    """Apply fn to blocks of chunk rows and concatenate the results; rows
    that fit in one block go to fn as they are, and fn's result is
    returned as it is.

    The fixed block size bounds each block's temporaries; fn may return
    an array or a tuple of arrays.  For results independent of the
    block size, fn must act row by row and leave no product to numpy's
    elision of temporaries, which from 256 KiB (16384 complex entries)
    on may swap a commutative product's operands.
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        raise InvalidInput("run_chunked needs at least one row")
    if rows.shape[0] <= chunk:
        return fn(rows)
    results = [fn(rows[i:i + chunk]) for i in range(0, rows.shape[0], chunk)]
    if isinstance(results[0], tuple):
        return tuple(np.concatenate(parts, axis=0) for parts in zip(*results))
    return np.concatenate(results, axis=0)
