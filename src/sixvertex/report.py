"""Machine-diffable check records and report serialization."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
CONJECTURE = "conjecture_evidence"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check.

    verdict is `pass` iff residual < tolerance, except for
    `conjecture_evidence` records, which never fail a run.
    """

    name: str
    anchor: str
    residual: float
    tolerance: float
    verdict: str
    params_digest: str

    def line(self) -> str:
        return (
            f"check={self.name} anchor={self.anchor} "
            f"residual={self.residual:.9e} tol={self.tolerance:.3e} "
            f"verdict={self.verdict} params_digest={self.params_digest}"
        )


def make_report(name: str, anchor: str, residual: float, tolerance: float,
                digest: str, *, conjecture: bool = False) -> CheckReport:
    residual = float(residual)
    if conjecture:
        verdict = CONJECTURE
    else:
        verdict = PASS if residual < tolerance else FAIL
    return CheckReport(name, anchor, residual, float(tolerance), verdict,
                       digest)


def digest_of(*parts) -> str:
    text = "|".join(_canon(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _canon(p) -> str:
    if isinstance(p, complex):
        return f"{p.real:.17g}{p.imag:+.17g}j"
    if isinstance(p, float):
        return f"{p:.17g}"
    if isinstance(p, (list, tuple)):
        return "[" + ",".join(_canon(x) for x in p) + "]"
    if isinstance(p, dict):
        return "{" + ",".join(f"{k}:{_canon(v)}" for k, v in sorted(p.items())) + "}"
    return str(p)
