"""Outcome record shared by the identity verifier and the representation checks."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Verdict"]


@dataclass
class Verdict:
    """Result of one exact check.

    ``residual`` is empty/None iff the check passed; for engine identities it
    is the normal form of LHS - RHS, for basis checks a list of
    (basis index, difference) pairs.  ``detail`` carries human-oriented notes
    (discovered constants, highlighted factors).
    """

    status: str
    residual: object = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def residual_text(self) -> str:
        if self.residual is None:
            return ""
        if hasattr(self.residual, "render"):
            return self.residual.render()
        return str(self.residual)

