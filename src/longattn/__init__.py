"""Desk-scale encoder-decoder transformer lab for long-input attention:
block-local and global-local attention with staggered blocks, position
encoding variants, checkpoint weight surgery, gap-sentence pretraining,
ROUGE evaluation, and a closed-form attention cost model."""

__version__ = "0.1.0"
