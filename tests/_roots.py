"""Root factor values, the references the weak-solution tests compare with.

``root_factors(fs)`` are the factors (U, s^(1/2), Vh) of W s^(1/2) V*,
|A*|^(1/2) times the polar partial isometry, and ``abs_root_factors(fs)``
the factors (V, s^(1/2), V*) of |A|^(1/2), both from A's own singular
vectors and of A's rank.  ``douglas._reduced_coeffs`` on them gives the weak
reduced solutions that ``shorting._weak_solutions`` reads straight from
A's bases; the tests compare the two bit for bit.
"""

import numpy as np


def root_factors(fs):
    return type(fs)(fs.U, np.sqrt(fs.kept), fs.Vh, fs.rank)


def abs_root_factors(fs):
    return type(fs)(fs.Vh.conj().swapaxes(-1, -2), np.sqrt(fs.kept), fs.Vh, fs.rank)
