"""Test-side score counter for the attention kernels.

tensor.softmax is attend's plain normaliser: a function from a score array
to its row probabilities, with no tape node. tensor.attend calls it once per
tile of its scores in forward (once per call when the scores fit in one
tile) and never in backward, which reuses or recomputes the probabilities
without it. So the entries of the arrays passed to tensor.softmax are the
score entries an attention call computes, and that count times head_dim is
its score MACs: the quantities attention_cost() gives in closed form.
"""

import contextlib

from longattn import tensor as T


@contextlib.contextmanager
def softmax_entries():
    """Yields a list that collects the size of every score array passed to
    tensor.softmax while the block runs."""
    sizes = []
    real = T.softmax

    def counting(s):
        sizes.append(s.size)
        return real(s)

    T.softmax = counting
    try:
        yield sizes
    finally:
        T.softmax = real
