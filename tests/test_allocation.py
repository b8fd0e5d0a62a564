"""Fourier rows allocate no contour-sized temporaries once warm.

A warm ``price_row`` writes its characteristic-function values, tangents
and integrand into per-thread work arrays, and a row builds its phases in
place, so the transient peak that tracemalloc sees (numpy reports its data
buffers to it) is a few KB for pricing and about the phase matrix for a
one-shot ``caplet_price``.  Temporaries of a few hundred KB per row would
let the C heap hand memory back to the system and fault it in again on the
next row, so that a row's cost depended on the heap's state.  Threads
pricing the same row at once get the prices of a serial run.

A Monte Carlo path group draws each step's normals just before the step,
so what it holds does not grow with the number of steps it simulates.  A
worker runs every group of a call, a ragged last one included, on one set
of arrays that it takes from the call's own ``_scratch.Scratch``, and
reduces each group's payoffs to per-column moments, so what a call holds
does not grow with the number of paths either: no per-path payoff
outlives its group.  The call keeps none of its arrays once it returns.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from svlibor.charfn import caplet_cf_params
from svlibor.fourier import caplet_price, caplet_row, price_row
from svlibor.montecarlo import MCConfig, mc_caplets

J = 5
# A transient allowance for the Python objects of a call (CF parameters,
# the 12 prices, masks over the contour), far below one contour array of
# 1,537 complex values (24.6 KB).
SMALL = 16 * 1024


@pytest.fixture(scope="module")
def strikes(libors):
    return libors[J] * np.linspace(0.2, 2.4, 12)


@pytest.fixture(scope="module")
def cfp(params, fact, tenor, libors):
    return caplet_cf_params(J, params, fact, tenor, libors)


def transient_peak(call) -> int:
    """Bytes held at the peak of a warm ``call`` beyond what it returns."""
    call()
    call()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = call()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - max(start, end)


def test_warm_price_row_allocates_no_contour_arrays(strikes, cfp, tenor,
                                                    curve, params, libors):
    row = caplet_row(J, strikes, tenor, curve, params, libors=libors)
    assert row.strikes.size == 12
    assert transient_peak(lambda: price_row(row, lambda: cfp)) <= SMALL
    tangents = np.eye(5)[:4]
    assert transient_peak(
        lambda: price_row(row, lambda: cfp, tangents=tangents)) <= SMALL


def test_one_shot_caplet_price_holds_about_its_phases(strikes, tenor, curve,
                                                      params, fact, libors):
    row = caplet_row(J, strikes, tenor, curve, params, libors=libors)
    peak = transient_peak(lambda: caplet_price(J, strikes, tenor, curve,
                                               params, fact, libors=libors))
    assert peak <= row.phases.nbytes + SMALL


def test_threads_pricing_one_row_agree_with_serial(strikes, cfp, tenor,
                                                   curve, params, libors):
    # More threads than cores, switching often: work arrays shared between
    # threads would let one overwrite another's CF values mid-row.
    row = caplet_row(J, strikes, tenor, curve, params, libors=libors)
    tangents = np.eye(5)[:4]
    serial = price_row(row, lambda: cfp, tangents=tangents)
    results = [[] for _ in range(4)]

    def work(out):
        for _ in range(20):
            out.append(price_row(row, lambda: cfp, tangents=tangents))

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 20 for out in results)
    for prices, d_prices in (r for out in results for r in out):
        np.testing.assert_array_equal(prices, serial[0])
        np.testing.assert_array_equal(d_prices, serial[1])


def test_monte_carlo_workers_keep_their_own_arrays(tenor, curve, params,
                                                   fact):
    # More workers than cores, switching often, over eight groups: a work
    # array shared between workers would let one overwrite another's state
    # mid-group and move a bit of the serial result.
    K = np.array([0.02, 0.03])

    def run(threads):
        cfg = MCConfig(paths=8 * 1024 - 100, steps_per_year=2, seed=12,
                       threads=threads)
        res = mc_caplets({3: K}, tenor, curve, params, fact, cfg)
        return [(r.price, r.se) for r in res[3]]

    serial = run(1)
    out = []
    worker = threading.Thread(target=lambda: out.append(run(4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert out == [serial]


def test_monte_carlo_memory_does_not_grow_with_the_horizon(tenor, curve,
                                                           params, fact):
    # Two groups of 1,024 paths on one thread, both stepping L_5..L_19:
    # with the caplet on L_18 the call simulates to T_19 (152 steps), with
    # the one on L_5 alone to T_6 (48 steps).
    cfg = MCConfig(paths=2048, threads=1)
    K = np.array([0.02, 0.03])

    def peak(expiries):
        return transient_peak(lambda: mc_caplets(
            dict.fromkeys(expiries, K), tenor, curve, params, fact, cfg))

    assert peak((5, 18)) <= 1.25 * peak((5,))


def test_monte_carlo_memory_does_not_grow_with_the_paths(tenor, curve,
                                                         params, fact):
    # On one thread, sixteen groups of 1,024 paths hold one group's arrays
    # and sixteen groups' moments, as one group does.  So does a ragged
    # last group (16,284 paths end in one of 924), which runs on the
    # leading columns of the same arrays instead of a set of its own.
    K = np.array([0.02, 0.03])

    def peak(paths):
        cfg = MCConfig(paths=paths, threads=1)
        return transient_peak(
            lambda: mc_caplets({5: K}, tenor, curve, params, fact, cfg))

    one_group = peak(1024)
    for paths in (16384, 16284):
        assert peak(paths) <= 1.05 * one_group


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_call_keeps_no_arrays(tenor, curve, params, fact,
                                          threads):
    # The workers' arrays live for one call: a warm call leaves nothing of
    # them behind, on one worker or several.
    cfg = MCConfig(paths=3000, threads=threads)
    K = np.array([0.02, 0.03])

    def call():
        mc_caplets({5: K}, tenor, curve, params, fact, cfg)

    call()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        call()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end - start <= SMALL
