"""Run configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional


@dataclass(frozen=True)
class RunConfig:
    """Caps and determinism knobs.

    ext_cap is a relative extension degree: operations that need roots may
    move from F_{p^k} to F_{p^(k*j)} for j up to ext_cap.  The seed reaches
    only the Monte Carlo screen, which derives its stream from (seed, trial
    index), so identical configurations give byte-identical reports;
    collineation and deck groups and implicitization draw no seed.  Every
    int field but the seed must be positive.
    """

    trials: int = 64
    seed: int = field(default=0, metadata={"any_int": True})
    ext_cap: int = 12
    closure_cap: int = 4096
    output: Optional[str] = None

    def __post_init__(self):
        for f in fields(self):
            if (f.type == "int" and not f.metadata.get("any_int")
                    and getattr(self, f.name) < 1):
                raise ValueError(f"{f.name} must be positive")
