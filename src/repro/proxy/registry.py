"""Shared client bookkeeping for every proxy facade.

:class:`ClientRegistry` is the one client table every facade embeds: it
owns the client → submitted-CEIs mapping, the "already registered" and
"not registered" error paths, and the profile-set construction, and
hands out typed :class:`ClientHandle` references instead of bare
strings.

``ClientHandle`` subclasses :class:`str` (its value is the client name),
so code written against the old string-returning API keeps working —
handles compare and hash like their names — while new code can call
:meth:`ClientHandle.submit` and read :attr:`ClientHandle.ceis` directly.

A handle submits through :attr:`ClientRegistry.admit`: the bookkeeping
append :meth:`ClientRegistry.submit` unless a live facade installed its
own ``submit_ceis`` there, so on a live proxy ``handle.submit(ceis)`` is
``proxy.submit_ceis(handle, ceis)``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.errors import ExperimentError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.profile import Profile, ProfileSet


class ClientHandle(str):
    """A typed reference to one registered client.

    The handle *is* the client name (a ``str`` subclass), so it drops
    into any API that expects the name, while carrying a back-reference
    to its registry for direct submission and inspection.
    """

    __slots__ = ("_registry",)

    def __new__(cls, registry: "ClientRegistry", name: str) -> "ClientHandle":
        handle = super().__new__(cls, name)
        handle._registry = registry
        return handle

    @property
    def name(self) -> str:
        """The client name as a plain string."""
        return str(self)

    @property
    def registry(self) -> "ClientRegistry":
        """The registry this handle belongs to."""
        return self._registry

    @property
    def ceis(self) -> tuple[ComplexExecutionInterval, ...]:
        """Everything this client has submitted so far."""
        return tuple(self._registry.ceis_of(self))

    def submit(self, ceis: Sequence[ComplexExecutionInterval]) -> int:
        """Submit CEIs through :attr:`ClientRegistry.admit`; returns how many."""
        return self._registry.admit(self, ceis)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientHandle({str(self)!r})"


class ClientRegistry:
    """The one client table shared by every proxy facade.

    Facades embed a registry (``proxy.registry``) and delegate their
    client surface to it; a handle obtained from one facade's registry
    is therefore meaningful to anything sharing that registry.
    """

    def __init__(self) -> None:
        self._clients: dict[str, list[ComplexExecutionInterval]] = {}
        # What handles submit through; a live facade sets its submit_ceis.
        self.admit = self.submit

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------

    def register(self, name: str) -> ClientHandle:
        """Register a new client; returns its typed handle."""
        if name in self._clients:
            raise ExperimentError(f"client {name!r} already registered")
        self._clients[name] = []
        return ClientHandle(self, name)

    def handle(self, name: str) -> ClientHandle:
        """The handle of an already-registered client."""
        self.require(name)
        return ClientHandle(self, str(name))

    def require(self, name: str) -> None:
        """Raise :class:`ExperimentError` unless ``name`` is registered."""
        if name not in self._clients:
            raise ExperimentError(f"client {str(name)!r} is not registered")

    def unregister(self, name: str) -> list[ComplexExecutionInterval]:
        """Drop a registered client; returns its submission history.

        The facade owning the registry is responsible for first
        withdrawing the client's still-open needs from its monitor —
        the registry only forgets the bookkeeping.
        """
        self.require(name)
        return self._clients.pop(str(name))

    def __contains__(self, name: object) -> bool:
        return name in self._clients

    def __len__(self) -> int:
        return len(self._clients)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._clients))

    @property
    def names(self) -> list[str]:
        """Registered client names, sorted."""
        return sorted(self._clients)

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------

    def submit(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> int:
        """Attach CEIs to a registered client (bookkeeping only: nothing
        reaches a monitor); returns how many."""
        self.require(client)
        self._clients[client].extend(ceis)
        return len(ceis)

    def ceis_of(self, client: str) -> list[ComplexExecutionInterval]:
        """A copy of everything ``client`` has submitted so far."""
        self.require(client)
        return list(self._clients[client])

    # ------------------------------------------------------------------
    # Profile construction
    # ------------------------------------------------------------------

    def build_profiles(self) -> ProfileSet:
        """The current state as a profile set: one profile per client.

        Profile ids follow sorted name order, matching the facades'
        historical ``client_names`` enumeration, so per-client reports
        line up with profile ids.
        """
        profiles = ProfileSet()
        for pid, name in enumerate(self.names):
            profiles.add(Profile(pid=pid, ceis=list(self._clients[name])))
        return profiles
