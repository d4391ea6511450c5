"""shuffle_lab: exact and Monte Carlo analysis of six card-shuffling
machines (lazy/standard/strict shelf shufflers and up-down/down-up/classic
riffles) through their common encoding as maps into a barred-integer
alphabet.

The modules:

- permutations: statistics (descents, peaks, left peaks), composition.
- ppartitions: the mode table, the value alphabet, sorting permutation,
  outcome encodings.
- orderpoly: exact chain counts and identity verification.
- models: the model table, samplers, exact probabilities and
  distributions, convolution.
- analysis: count tables, distances to uniform, cycle structure.
- cli: the `shuffle-lab` command.
"""

__version__ = "0.1.0"
