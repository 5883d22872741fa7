"""Reference implementations kept for the parity tests only.

Nothing under ``src/`` imports this package: each module here is the
straightforward version of a production fast path, and the tests assert
the fast path reproduces it exactly.
"""
