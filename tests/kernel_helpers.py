"""Custom cell kernels shared by the test modules."""


def permuted_kernel(base, perm):
    """The kernel of ``base`` with its cells in the order ``perm``; the last
    permuted cell becomes the residual of the others."""
    def kernel(theta, out):
        out[:] = base.cell_fn(theta)[:, perm[:-1]]
    return kernel
