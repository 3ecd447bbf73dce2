"""The one wrapper that counts the terms of the series kernel, for the tests
and for CI's kernel term counts (run with `tests` on the import path)."""

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from stablepgf import bdchain


@contextlib.contextmanager
def counted_series(*modules, on_term=None):
    """Within the block, every _uniformized_series call made through one of
    the modules (bdchain, particles) appends a run to the yielded list: a
    copy of its start v0, its step, its means lam_ts, the terms it stepped
    and the (acc, tail) pairs it returned.  on_term(out), if given, sees
    each term after its step."""
    runs, series = [], bdchain._uniformized_series

    def counting(v0, step, lam_ts, tol, min_terms):
        run = SimpleNamespace(v0=np.array(v0), step=step, lam_ts=list(lam_ts), terms=0, sums=[])
        runs.append(run)

        def counted(v, out):
            step(v, out)
            run.terms += 1
            if on_term is not None:
                on_term(out)

        run.sums = series(v0, counted if step else None, lam_ts, tol, min_terms)
        return run.sums

    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            patch.setattr(module, "_uniformized_series", counting)
        yield runs
