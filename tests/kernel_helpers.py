"""Custom cell kernels shared by the test modules."""

import numpy as np

from phdsel import DiscreteModel


def permuted_kernel(base, perm):
    """The kernel of ``base`` with its cells in the order ``perm``; the last
    permuted cell becomes the residual of the others."""
    def kernel(theta, out):
        out[:] = base.cell_fn(theta)[:, perm[:-1]]
    return kernel


def permuted_dkernel(base, perm):
    """The derivative rule of ``permuted_kernel``: the derivatives of
    ``base`` in the order ``perm``."""
    def dkernel(theta, out):
        slopes = np.empty_like(out)
        base.dkernel(theta, slopes)
        out[:] = slopes[:, perm]
    return dkernel


def permuted_model(base, perm, name):
    """``base`` with its cells in the order ``perm``."""
    return DiscreteModel(name=name, bounds=base.bounds, partition=base.partition,
                         kernel=permuted_kernel(base, perm),
                         dkernel=permuted_dkernel(base, perm))
