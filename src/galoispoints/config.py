"""Run configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


@dataclass(frozen=True)
class RunConfig:
    """Caps on the work a run may do.

    ext_cap is a relative extension degree: operations that need roots may
    move from F_{p^k} to F_{p^(k*j)} for j up to ext_cap.  The Monte Carlo
    screen draws from the fixed streams ``mc:0:{trial}``, so a report
    depends only on its input and these caps.  Every int field must be
    positive.
    """

    trials: int = 64
    ext_cap: int = 12
    closure_cap: int = 4096
    output: Optional[str] = None

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")
