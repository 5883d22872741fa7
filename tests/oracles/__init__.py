"""Reference implementations kept for the parity tests only.

Nothing under ``src/`` imports this package (``tests/test_oracle_boundary.py``
checks it): each module here is the straightforward version of a
production path — the tree-walking interpreter, from-scratch injection,
the site-by-site aDVF loop, the propagation scan — and the tests assert
the production path reproduces it exactly.
"""
