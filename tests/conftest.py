"""Session-scoped pipeline artifacts shared across test modules.

Classification of the bigger groups costs seconds to minutes, so each
symbol is built exactly once per run and reused everywhere.  The rig's
result comes from the product lane; the all-pairs table, the transport
isomorphism and the direct-lane classification from tests/oracles.py are
built on first use only.  The hypothesis profile for the property tests
is registered and loaded here too.
"""

import tempfile
from functools import cached_property

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from oracles import build_phi, classify_group, compute_h_table

from coxcells.chartab import character_table
from coxcells.classify import classify_group_streamed
from coxcells.coxeter import build_group
from coxcells.jring import (
    compute_cells,
    compute_gamma,
    distinguished_involutions,
)
from coxcells.klbase import compute_kl, generator_rows
from coxcells.pipeline import run_claims

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible.  Hypothesis still caches the
# constants it mines from the source, during collection; that cache goes to
# a temporary directory removed when the run ends, not into the checkout.
settings.register_profile(
    "coxcells", derandomize=True, deadline=None, database=None
)
settings.load_profile("coxcells")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="coxcells-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    # removed explicitly: left to the finalizer at exit, it warns under -X dev
    _HYPOTHESIS_HOME.cleanup()


class Rig:
    def __init__(self, symbol):
        self.group = build_group(symbol)
        self.store = compute_kl(self.group)
        self.cells = compute_cells(generator_rows(self.store))
        self.gamma = compute_gamma(self.store, self.cells)
        self.dset = distinguished_involutions(
            self.gamma, self.cells, self.store
        )
        self.table = character_table(self.group)
        self.result = classify_group_streamed(
            self.store, self.cells, self.gamma, self.dset, self.table
        )
        self.claims = run_claims(self.result)

    @cached_property
    def htable(self):
        """The all-pairs h-table."""
        return compute_h_table(self.store)

    @cached_property
    def phi(self):
        """The transport isomorphism with its exact inverse."""
        return build_phi(self.store, self.htable, self.cells, self.dset)

    @cached_property
    def oracle(self):
        """The direct lane's classification of the same data."""
        return classify_group(
            self.store, self.htable, self.cells, self.gamma, self.dset,
            self.table, phi=self.phi,
        )


@pytest.fixture(scope="session")
def rig():
    built = {}

    def get(symbol) -> Rig:
        if symbol not in built:
            built[symbol] = Rig(symbol)
        return built[symbol]

    return get
