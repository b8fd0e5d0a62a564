"""Per-thread work arrays that the Fourier and Monte Carlo kernels reuse.

A price row's characteristic-function values, their tangents and the
inversion's integrand are all arrays over the rule's contour.  Allocating
them afresh on every call makes the cost of a row depend on the state of the
C heap: freed temporaries of a few hundred KB get returned to the operating
system and faulted back in on the next row.  Writing them with ``out=`` into
arrays kept here makes each warm call allocate no contour-sized array at all.

The arrays belong to one thread (the rules and rows they serve are shared
between threads) and are handed out by name: a caller owns the arrays it
takes until its next call on the same thread, so a function must not return
them to code that may call it again while still holding them.  Every value
is written before it is read, so results never depend on what an array
held before.

``charfn`` and ``fourier`` each keep a module-level instance, whose arrays a
thread keeps from call to call.  Monte Carlo builds one instance per call
and shares it between the call's worker threads: each worker allocates
one set of arrays for its first path group and reuses it for the rest, and
the arrays go with the instance and the workers when the call returns.
"""

from __future__ import annotations

import threading

import numpy as np

# Shapes whose arrays a thread keeps in one Scratch: the nodes and the
# contour of both the default and the calibration rule, or a Monte Carlo
# call's two, (paths,) for the state and its products and (dim,) for the
# step's normals.  A call on a shape evicted since its last call allocates
# its arrays again.
KEEP_SHAPES = 4


class Scratch(threading.local):
    """Named work arrays of one thread, one set per array shape."""

    def __init__(self):
        self.sets: dict[tuple, _Arrays] = {}

    def arrays(self, shape: tuple) -> "_Arrays":
        """The thread's arrays for ``shape``, most recently used kept."""
        found = self.sets.pop(shape, None)
        if found is None:
            found = _Arrays(shape)
            if len(self.sets) >= KEEP_SHAPES:
                del self.sets[next(iter(self.sets))]
        self.sets[shape] = found
        return found


class _Arrays:
    """Arrays of a given trailing shape, created on their first request."""

    __slots__ = ("shape", "store")

    def __init__(self, shape: tuple):
        self.shape = shape
        self.store: dict[tuple, np.ndarray] = {}

    def __call__(self, name: str, dtype=complex, rows: int | None = None):
        """The array ``name`` of this shape (with ``rows`` leading rows)."""
        key = (name, rows)
        arr = self.store.get(key)
        if arr is None:
            shape = self.shape if rows is None else (rows,) + self.shape
            arr = self.store[key] = np.empty(shape, dtype)
        return arr
