"""Model-vs-measured validation of a Fock-build run (Sec III-G check).

The paper's performance model (Eqs 6-11) predicts, per process, the
prefetch volume ``v1 + v2``, the total communication volume
``V = (1+s)(v1+v2)``, the communication time, and the overhead ratio
``L = T_comm / T_comp``.  The flight recorder measures all four.  This
module compares them and produces a structured deviation report with
``pass`` / ``warn`` / ``fail`` statuses, so a run report (or CI) can gate
on "the measurement still matches the model".

A deviation is the ratio ``measured / predicted`` folded to ``>= 1``
(``max(r, 1/r)``); thresholds bound that fold.  The defaults are
calibrated for the *small* molecules the test suite can afford (water,
6-31G): the model is asymptotic in molecule size, so constant factors --
block granularity, the bounding-box prefetch, diagonal-task symmetry --
leave O(1) deviations that shrink as molecules grow.  The documented
tolerances (``docs/OBSERVABILITY.md``) keep those O(1) factors green and
catch anything structurally wrong (a lost channel, a double charge, a
broken footprint) which shows up as an order of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.flight import CH_PREFETCH_GET, CH_STEAL_D

if TYPE_CHECKING:  # deferred: avoid import cycles with the runtime
    from repro.model.perfmodel import PerfModel
    from repro.runtime.network import CommStats

PASS = "pass"
WARN = "warn"
FAIL = "fail"

#: fold tolerances (measured/predicted folded to >= 1): warn above the
#: first, fail above the second.  Volume metrics are tight (the model's
#: O(1) granularity factors measure <= ~7x on the test molecules);
#: time metrics are wide because Eq (10) is bandwidth-only while
#: latency dominates runs this small (measured folds up to ~170x on
#: water/STO-3G) -- their FAIL bands catch only structural breakage.
DEFAULT_THRESHOLDS: dict[str, tuple[float, float]] = {
    "v1_plus_v2": (7.5, 15.0),
    "volume_mb": (7.5, 15.0),
    "t_comm": (10.0, 100.0),
    "overhead_ratio": (15.0, 400.0),
    "steal_volume": (10.0, 40.0),
}


def fold_ratio(measured: float, predicted: float) -> float:
    """``max(r, 1/r)`` of measured/predicted; inf when only one is ~0."""
    if predicted <= 0.0 and measured <= 0.0:
        return 1.0
    if predicted <= 0.0 or measured <= 0.0:
        return math.inf
    r = measured / predicted
    return max(r, 1.0 / r)


@dataclass
class Deviation:
    """One model-vs-measured comparison."""

    name: str
    predicted: float
    measured: float
    warn_at: float
    fail_at: float
    unit: str = ""

    @property
    def ratio(self) -> float:
        """measured / predicted (0 when the prediction is zero)."""
        return self.measured / self.predicted if self.predicted else 0.0

    @property
    def fold(self) -> float:
        return fold_ratio(self.measured, self.predicted)

    @property
    def status(self) -> str:
        f = self.fold
        if f <= self.warn_at:
            return PASS
        if f <= self.fail_at:
            return WARN
        return FAIL

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "predicted": self.predicted,
            "measured": self.measured,
            "ratio": self.ratio,
            "fold": self.fold,
            "status": self.status,
            "warn_at": self.warn_at,
            "fail_at": self.fail_at,
            "unit": self.unit,
        }


@dataclass
class ModelValidation:
    """The full deviation report of one run."""

    nproc: int
    s_measured: float
    s_model: float
    deviations: list[Deviation] = field(default_factory=list)

    @property
    def status(self) -> str:
        """Worst status across all deviations."""
        order = {PASS: 0, WARN: 1, FAIL: 2}
        worst = PASS
        for d in self.deviations:
            if order[d.status] > order[worst]:
                worst = d.status
        return worst

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def get(self, name: str) -> Deviation:
        for d in self.deviations:
            if d.name == name:
                return d
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "nproc": self.nproc,
            "s_measured": self.s_measured,
            "s_model": self.s_model,
            "status": self.status,
            "deviations": [d.to_json() for d in self.deviations],
        }

    def text(self) -> str:
        """Fixed-width console rendering of the deviation table."""
        lines = [
            f"model validation over p={self.nproc} "
            f"(s measured {self.s_measured:.2f}, model {self.s_model:.2f})",
            f"{'metric':<16} {'predicted':>12} {'measured':>12} "
            f"{'ratio':>8} {'status':>6}",
        ]
        for d in self.deviations:
            lines.append(
                f"{d.name:<16} {d.predicted:>12.4g} {d.measured:>12.4g} "
                f"{d.ratio:>8.3f} {d.status:>6}"
            )
        return "\n".join(lines)


def validate_run(
    model: "PerfModel",
    stats: "CommStats",
    s_measured: float = 0.0,
) -> ModelValidation:
    """Compare a run's flight-recorder measurements against the model.

    Parameters
    ----------
    model:
        The Sec III-G model for the run's problem instance.  Build it
        with ``s`` set to the *measured* average steal count so the
        volume prediction is apples-to-apples (the paper does the same:
        its s = 3.8 is a measurement).
    stats:
        The run's accounting; per-channel measurements come from
        ``stats.flight``.
    s_measured:
        Average distinct victims per process
        (``StealingOutcome.avg_steals_per_proc``).
    """
    th = DEFAULT_THRESHOLDS
    p = stats.nproc
    flight = stats.flight
    es = model.element_size

    # v1+v2: the one-time prefetch of the union D footprint, in elements
    prefetch_elems = float(flight.per_rank(CH_PREFETCH_GET, "bytes").mean()) / es
    # total volume: everything the run moved, per process (Table VI view)
    measured_mb = float(stats.bytes.mean()) / 1e6
    measured_t_comm = float(stats.comm_time.mean())
    comp = float(stats.comp_time.mean())
    measured_l = measured_t_comm / comp if comp > 0 else math.inf

    preds = model.predictions(p)
    dev = [
        Deviation(
            "v1_plus_v2",
            preds["v1_elements"] + preds["v2_elements"],
            prefetch_elems,
            *th["v1_plus_v2"],
            unit="elements",
        ),
        Deviation(
            "volume_mb", preds["volume_mb"], measured_mb, *th["volume_mb"],
            unit="MB/proc",
        ),
        Deviation(
            "t_comm", preds["t_comm"], measured_t_comm, *th["t_comm"],
            unit="s",
        ),
        Deviation(
            "overhead_ratio", preds["overhead_ratio"], measured_l,
            *th["overhead_ratio"],
        ),
    ]
    steal_bytes = flight.per_rank(CH_STEAL_D, "bytes")
    if np.any(steal_bytes):
        # Eq (9)'s steal term: s * (v1+v2) elements per process
        dev.append(
            Deviation(
                "steal_volume",
                model.s * (preds["v1_elements"] + preds["v2_elements"]),
                float(steal_bytes.mean()) / es,
                *th["steal_volume"],
                unit="elements",
            )
        )
    return ModelValidation(
        nproc=p, s_measured=s_measured, s_model=model.s, deviations=dev
    )
