"""Weakly supervised mining of informal/formal spelling-variant pairs.

The package covers the whole desk-scale pipeline: loading slang dictionary
entries, rule-based and bootstrapped pair extraction, a linear-chain CRF
tagger with self-training, and nearest-neighbour evaluation of word
embeddings against the extracted pairs.
"""

__version__ = "0.1.0"
