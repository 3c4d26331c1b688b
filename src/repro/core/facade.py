"""Two-party facade plumbing: protocol classes delegate to the engine.

:class:`repro.engine.base.StarProtocol` is the repo's only protocol driver;
every protocol family has exactly one implementation, written against the
star topology in :mod:`repro.engine`.  The two-party classes — the paper's
protocols in :mod:`repro.core`, the baselines and the distributed sparse
product — keep their historical names, signatures and cost reports, but
contain no transport logic: they wrap an engine protocol and execute it in
the two-party view (``k = 1`` — Alice is the star's single site, Bob its
hub), which reproduces the historical two-party transcripts bit for bit.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.comm.protocol import ProtocolResult
from repro.engine.base import StarProtocol
from repro.engine.topology import Coordinator, Site

__all__ = ["EngineBackedProtocol", "TwoPartyStarProtocol"]


class TwoPartyStarProtocol(StarProtocol):
    """An engine protocol whose body is stated for Alice and Bob only.

    The baselines and the distributed sparse product have no k-site form;
    subclasses implement :meth:`_execute_two_party` on the one-leaf star,
    with the single site as Alice and the coordinator as Bob.
    """

    def _execute(self, coordinator: Coordinator, sites: list[Site]) -> Any:
        if len(sites) != 1:
            raise ValueError(f"{self.name} is a two-party protocol; got {len(sites)} sites")
        return self._execute_two_party(sites[0], coordinator)

    def _execute_two_party(self, alice: Site, bob: Coordinator) -> Any:
        raise NotImplementedError


class EngineBackedProtocol:
    """A two-party protocol implemented entirely by an engine protocol.

    Subclasses set :attr:`engine_protocol`; constructor arguments are passed
    through unchanged, and protocol parameters (``p``, ``epsilon``,
    ``seed``, ...) are readable on the facade as attribute proxies.
    """

    #: Human-readable protocol name (used in benchmark tables).
    name: ClassVar[str] = "protocol"

    #: The star protocol class this facade delegates to.
    engine_protocol: ClassVar[type[StarProtocol]]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._engine = type(self).engine_protocol(*args, **kwargs)

    def run(self, alice_data: Any, bob_data: Any) -> ProtocolResult:
        """Execute the engine protocol in the two-party (single-site) view."""
        return self._engine.run_two_party(alice_data, bob_data)

    def __getattr__(self, name: str) -> Any:
        # Protocol parameters live on the engine protocol; proxy reads so
        # `LpNormProtocol(...).epsilon` keeps working.  Dunder/underscore
        # names are excluded to keep copy/pickle semantics sane.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.__dict__["_engine"], name)
