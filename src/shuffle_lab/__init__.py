"""shuffle_lab: exact and Monte Carlo analysis of six card-shuffling
machines (lazy/standard/strict shelf shufflers and up-down/down-up/classic
riffles) through their common encoding as maps into a barred-integer
alphabet.

The modules:

- permutations: statistics (descents, peaks, left peaks), composition,
  cycle types.
- posets: finite posets and their linear extensions.
- ppartitions: the mode table, the value alphabet, sorting permutation,
  outcome encodings.
- orderpoly: exact chain counts, statistic class sizes and identity
  verification.
- models: the model table, samplers, exact probabilities, the checked
  integer law of one pass, convolution.
- analysis: distances to uniform, cycle structure.
- cli: the `shuffle-lab` command.

Each module imports only from those listed above it.
"""

__version__ = "0.1.0"
