"""Empty: prime-field root finding used to live here.

No program path finds roots any more: the secant cone comes from one linear
solve over GF(q) in `secant`.  The module stays only because the benchmark
tracer (`bench/tracer.py`) imports it to hook root finding, and its hooks
skip the functions that are gone, so the `binpoly.*` metrics read 0.  Delete
this file together with that import (ROADMAP item 1).
"""
