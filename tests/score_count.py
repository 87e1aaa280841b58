"""Test-side score counter for the attention kernels.

Every attention score entry is computed once and normalised once, so the
entries of the arrays passed to tensor.softmax are the score entries an
attention call computes, and that count times head_dim is its score MACs:
the quantities attention_cost() gives in closed form.
"""

import contextlib

from longattn import tensor as T


@contextlib.contextmanager
def softmax_entries():
    """Yields a list that collects the size of every array passed to
    tensor.softmax while the block runs."""
    sizes = []
    real = T.softmax

    def counting(a, axis=-1):
        sizes.append(a.data.size)
        return real(a, axis)

    T.softmax = counting
    try:
        yield sizes
    finally:
        T.softmax = real
