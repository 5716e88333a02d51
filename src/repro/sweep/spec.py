"""Campaign specifications: the declarative grid and its loaders.

A :class:`CampaignSpec` is plain data — frozen dataclasses validated at
construction, loadable from a dict (:meth:`CampaignSpec.from_dict`) or
a TOML file (:func:`load_spec`).  :meth:`CampaignSpec.expand`
materialises the grid into deterministic
:class:`~repro.sweep.units.SweepUnit` cells in canonical order: the
cell list is a pure function of the spec, so two processes expanding
the same spec agree cell-for-cell (the campaign digest depends on it).

TOML campaigns use a deliberately small subset of the format — scalar
keys, single-line arrays, and ``[[fault]]`` table arrays::

    name = "invalid-data-frontier"
    agents = ["overclock", "harvest"]
    scales = [4, 8]
    seeds = [0, 1]
    duration_s = 60
    rack_size = 4

    [[fault]]
    kind = "bad_data"
    intensities = [0.3, 0.9]
    start_s = 10
    duration_s = 30
    racks = [0]

TOML is parsed with the standard library's :mod:`tomllib`, and any
malformed text raises :class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Sequence, Tuple

from repro.fleet.config import AGENT_KINDS, FAULT_KINDS
from repro.sweep.units import SweepUnit

__all__ = ["CampaignSpec", "FaultAxis", "load_spec", "loads_toml"]


@dataclass(frozen=True)
class FaultAxis:
    """One fault plan swept over intensities.

    Attributes:
        kind: one of :data:`repro.fleet.config.FAULT_KINDS`.
        intensities: fault intensities to sweep (each becomes one cell
            per agent × scale × seed); in ``(0, 1]`` — the intensity-0
            point is the shared baseline cell, emitted automatically.
        start_s / duration_s: burst window in simulated seconds.
        racks: rack indices hit by the burst (rack correlation).
    """

    kind: str
    intensities: Tuple[float, ...]
    start_s: int = 10
    duration_s: int = 30
    racks: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not self.intensities:
            raise ValueError(f"fault {self.kind!r} needs intensities")
        for intensity in self.intensities:
            if not 0.0 < float(intensity) <= 1.0:
                raise ValueError(
                    f"fault {self.kind!r} intensity {intensity!r} outside "
                    "(0, 1] (intensity 0 is the implicit baseline cell)"
                )
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError(
                f"fault {self.kind!r} window must have positive extent"
            )
        if not self.racks:
            raise ValueError(f"fault {self.kind!r} needs at least one rack")


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative robustness-campaign grid.

    Attributes:
        name: campaign name (reporting only — cells and the campaign
            digest are independent of it, so renaming a campaign never
            invalidates cached cells).
        agents: agent kinds to sweep (``"mixed"`` allowed).
        scales: fleet sizes (``n_nodes``) to sweep.
        seeds: fleet master seeds to sweep.
        duration_s: simulated seconds per node, every cell.
        rack_size: nodes per rack (fault blast radius), every cell.
        faults: the fault axes; each ``(kind, intensity)`` pair becomes
            one cell per ``(agent, scale, seed)`` combination, plus one
            shared no-fault baseline cell per combination.
    """

    name: str
    agents: Tuple[str, ...]
    scales: Tuple[int, ...]
    seeds: Tuple[int, ...] = (0,)
    duration_s: int = 60
    rack_size: int = 8
    faults: Tuple[FaultAxis, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.agents:
            raise ValueError("campaign needs at least one agent kind")
        allowed = AGENT_KINDS + ("mixed",)
        for agent in self.agents:
            if agent not in allowed:
                raise ValueError(
                    f"agent must be one of {allowed}, got {agent!r}"
                )
        if not self.scales:
            raise ValueError("campaign needs at least one fleet scale")
        for scale in self.scales:
            if scale <= 0:
                raise ValueError(f"fleet scale must be positive, got {scale}")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rack_size <= 0:
            raise ValueError("rack_size must be positive")
        min_racks = -(-min(self.scales) // self.rack_size)
        for axis in self.faults:
            if axis.start_s >= self.duration_s:
                raise ValueError(
                    f"fault {axis.kind!r} starts at {axis.start_s}s but "
                    f"cells only run {self.duration_s}s"
                )
            bad = [r for r in axis.racks if not 0 <= r < min_racks]
            if bad:
                raise ValueError(
                    f"fault {axis.kind!r} racks {bad} outside the smallest "
                    f"fleet scale (scale {min(self.scales)} has racks "
                    f"0..{min_racks - 1})"
                )

    # -- grid expansion ------------------------------------------------------

    def expand(self) -> List[SweepUnit]:
        """Materialise the grid into canonical-order cells.

        One baseline (no-fault) cell per ``(agent, scale, seed)``
        combination, plus one cell per fault axis × intensity.  The
        order is a deterministic sort over cell coordinates — never
        dict/iteration order — so every expansion of an equal spec
        yields an identical list.
        """
        units: List[SweepUnit] = []
        for agent in self.agents:
            for n_nodes in self.scales:
                for seed in self.seeds:
                    units.append(
                        SweepUnit(
                            agent=agent,
                            n_nodes=n_nodes,
                            seed=seed,
                            duration_s=self.duration_s,
                            rack_size=self.rack_size,
                        )
                    )
                    for axis in self.faults:
                        for intensity in axis.intensities:
                            units.append(
                                SweepUnit(
                                    agent=agent,
                                    n_nodes=n_nodes,
                                    seed=seed,
                                    duration_s=self.duration_s,
                                    rack_size=self.rack_size,
                                    fault_kind=axis.kind,
                                    intensity=float(intensity),
                                    fault_start_s=axis.start_s,
                                    fault_duration_s=axis.duration_s,
                                    racks=tuple(axis.racks),
                                )
                            )
        units.sort(key=lambda u: u.sort_key())
        ids = [u.unit_id() for u in units]
        if len(set(ids)) != len(ids):
            duplicates = sorted(
                {i for i in ids if ids.count(i) > 1}
            )
            raise ValueError(f"campaign grid has duplicate cells: {duplicates}")
        return units

    # -- loaders -------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a plain mapping (the parsed TOML shape)."""
        known = {
            "name", "agents", "scales", "seeds", "duration_s",
            "rack_size", "fault",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown campaign keys: {unknown}")
        try:
            name = str(data["name"])
            agents = _each(str, data["agents"], "agents")
            scales = _each(int, data["scales"], "scales")
        except KeyError as missing:
            raise ValueError(f"campaign spec is missing key {missing}")
        axes = []
        for i, entry in enumerate(_as_list(data.get("fault", []), "fault")):
            if not isinstance(entry, Mapping):
                raise ValueError("each [[fault]] entry must be a table")
            fault_known = {"kind", "intensities", "start_s", "duration_s",
                           "racks"}
            fault_unknown = sorted(set(entry) - fault_known)
            if fault_unknown:
                raise ValueError(
                    f"unknown fault keys in [[fault]] #{i + 1}: "
                    f"{fault_unknown}"
                )
            if "kind" not in entry or "intensities" not in entry:
                raise ValueError(
                    f"[[fault]] #{i + 1} needs 'kind' and 'intensities'"
                )
            axes.append(
                FaultAxis(
                    kind=str(entry["kind"]),
                    intensities=_each(
                        float, entry["intensities"], "intensities"
                    ),
                    start_s=_one(int, entry.get("start_s", 10), "start_s"),
                    duration_s=_one(
                        int, entry.get("duration_s", 30), "duration_s"
                    ),
                    racks=_each(int, entry.get("racks", [0]), "racks"),
                )
            )
        return cls(
            name=name,
            agents=agents,
            scales=scales,
            seeds=_each(int, data.get("seeds", [0]), "seeds"),
            duration_s=_one(int, data.get("duration_s", 60), "duration_s"),
            rack_size=_one(int, data.get("rack_size", 8), "rack_size"),
            faults=tuple(axes),
        )


def _as_list(value: Any, key: str) -> Sequence[Any]:
    if isinstance(value, (list, tuple)):
        return value
    raise ValueError(f"{key!r} must be an array, got {type(value).__name__}")


def _one(convert: Callable[[Any], Any], value: Any, key: str) -> Any:
    """``convert(value)``; a value it cannot take (a table where a number
    belongs, an infinite float as an int) is a ``ValueError`` naming
    the key, like every other malformed spec."""
    try:
        return convert(value)
    except (TypeError, OverflowError) as error:
        raise ValueError(f"{key!r}: {error}") from None


def _each(
    convert: Callable[[Any], Any], value: Any, key: str
) -> Tuple[Any, ...]:
    """:func:`_one` over every item of the array ``value``."""
    return tuple(_one(convert, item, key) for item in _as_list(value, key))


def loads_toml(text: str) -> CampaignSpec:
    """Parse a campaign spec from TOML text.

    Raises:
        ValueError: malformed TOML (``tomllib.TOMLDecodeError`` is one),
            arrays nested past the parser's recursion limit, or a spec
            :meth:`CampaignSpec.from_dict` rejects.
    """
    import tomllib  # on first use, so importing repro.sweep stays cheap

    try:
        data = tomllib.loads(text)
    except RecursionError:
        raise ValueError("TOML nested too deeply") from None
    return CampaignSpec.from_dict(data)


def load_spec(path: str) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_toml(handle.read())
