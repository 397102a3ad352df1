"""Network transfer models: shared-medium star, switched star, star-of-stars.

Unit convention
---------------
All transfer sizes in ``repro.edgesim`` are **megabits** (Mb), and all
bandwidths are megabits per second (Mbps), so ``size / bandwidth`` is
directly seconds on the wire. Fields and parameters use the ``_mbit``
suffix for sizes (``size_mbit``) and ``_mbps`` for rates. Historical
fields named ``*_mb`` elsewhere in the package (``SimTask.input_mb``,
``result_mb``) also mean megabits; only ``memory_mb`` is megabytes of RAM.

WiFi is a shared medium: every transfer between the controller and a
worker node occupies the same radio, so transfers serialize. This is what
makes processing time sensitive to both the number of tasks shipped and
the channel bandwidth — the two levers behind the paper's Figs. 10 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StarNetwork:
    """Shared-channel star topology parameters.

    Attributes
    ----------
    bandwidth_mbps:
        Channel throughput in megabits per second.
    latency_s:
        Fixed per-transfer protocol overhead (association, ACKs).
    """

    bandwidth_mbps: float = 50.0
    latency_s: float = 0.005

    #: One radio: every transfer serializes through the same medium.
    shared_medium: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"bandwidth_mbps must be > 0, got {self.bandwidth_mbps}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(f"latency_s must be >= 0, got {self.latency_s}")

    def transfer_time(self, size_mbit: float) -> float:
        """Seconds to move ``size_mbit`` megabits across the channel."""
        if size_mbit < 0:
            raise ConfigurationError(f"size_mbit must be >= 0, got {size_mbit}")
        return self.latency_s + size_mbit / self.bandwidth_mbps

    def with_bandwidth(self, bandwidth_mbps: float) -> "StarNetwork":
        """Sibling network at a different bandwidth (for the Fig. 11 sweep)."""
        return StarNetwork(bandwidth_mbps=bandwidth_mbps, latency_s=self.latency_s)


@dataclass(frozen=True)
class SwitchedNetwork:
    """Switched star: a dedicated full-duplex link per worker node.

    Models the wired-Ethernet alternative to the paper's WiFi: transfers to
    different nodes proceed in parallel (per-link serialization only).
    Comparing the two isolates how much of an importance-blind policy's
    penalty is channel *contention* versus compute placement — the
    `test_ablation_topology` benchmark.
    """

    bandwidth_mbps: float = 50.0
    latency_s: float = 0.001

    shared_medium: bool = False

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"bandwidth_mbps must be > 0, got {self.bandwidth_mbps}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(f"latency_s must be >= 0, got {self.latency_s}")

    def transfer_time(self, size_mbit: float) -> float:
        """Seconds to move ``size_mbit`` megabits over one dedicated link."""
        if size_mbit < 0:
            raise ConfigurationError(f"size_mbit must be >= 0, got {size_mbit}")
        return self.latency_s + size_mbit / self.bandwidth_mbps

    def with_bandwidth(self, bandwidth_mbps: float) -> "SwitchedNetwork":
        """Sibling network at a different per-link bandwidth."""
        return SwitchedNetwork(bandwidth_mbps=bandwidth_mbps, latency_s=self.latency_s)


@dataclass(frozen=True)
class RegionalNetwork:
    """Star-of-stars: regional access networks behind a switched backhaul.

    Nodes are partitioned into ``n_regions`` regions. Each region has its
    own shared-medium access network (a :class:`StarNetwork` radio shared
    by every node in the region), and regions connect to the controller
    over a switched backhaul (:class:`SwitchedNetwork`, one dedicated link
    per region). A fleet-engine transfer therefore pays

    ``backhaul.transfer_time(size) + access.transfer_time(size)``

    where the access half serializes with other transfers in the same
    region and the backhaul half is pure delay (one link per region, and
    region links are modelled uncontended).

    Used by :class:`repro.edgesim.fleet.FleetSimulator` for open-loop fleet
    runs; the flat epoch simulators keep taking :class:`StarNetwork` /
    :class:`SwitchedNetwork` directly.
    """

    n_regions: int = 4
    access: StarNetwork = field(default_factory=StarNetwork)
    backhaul: SwitchedNetwork = field(
        default_factory=lambda: SwitchedNetwork(bandwidth_mbps=1000.0, latency_s=0.002)
    )

    def __post_init__(self) -> None:
        if self.n_regions <= 0:
            raise ConfigurationError(f"n_regions must be > 0, got {self.n_regions}")
        if not self.access.shared_medium:
            raise ConfigurationError("access network must be a shared medium")

    def region_of(self, node_index: int) -> int:
        """Region a node lands in (round-robin partition by index)."""
        return node_index % self.n_regions

    def backhaul_time(self, size_mbit: float) -> float:
        """Uncontended seconds on the region's backhaul link."""
        return self.backhaul.transfer_time(size_mbit)

    def access_time(self, size_mbit: float) -> float:
        """Seconds occupying the region's shared access radio."""
        return self.access.transfer_time(size_mbit)

    def transfer_time(self, size_mbit: float) -> float:
        """End-to-end uncontended seconds (backhaul + access)."""
        return self.backhaul.transfer_time(size_mbit) + self.access.transfer_time(size_mbit)
