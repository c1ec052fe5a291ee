"""The paper's performance model (Sec III-G, Eqs 6-12).

Implements the average-time model from its definitions:

* Eq (6)  -- compute time ``T_comp(p) = t_int B^2 A^2 n^2 / (8 p)``;
* Eq (7)  -- per-process row/column block volume
  ``v1(p) = 4 A^2 B n^2 / p``;
* Eq (8)  -- overlapped cross volume
  ``v2(p) = 2 ((n / sqrt(p)) (B - q) + q) A^2``;
* Eq (9)  -- ``V(p) = (1 + s) (v1 + v2)``;
* Eq (10) -- ``T_comm(p) = V(p) * w / beta`` (w = bytes/element);
* Eq (11) -- the overhead ratio ``L(p) = T_comm / T_comp``;
* Eq (12) -- L at maximum parallelism ``p = n^2``.

Here n = nshells, A = avg functions/shell, B = avg \\|Phi(M)\\|, q = avg
consecutive-Phi overlap, s = avg steal victims/process, beta = bandwidth.
The printed Eq (11) in the paper omits unit bookkeeping (elements vs
bytes); this implementation carries explicit units and cross-checks the
closed form against the definitional ratio in the test suite.

Key derived results reproduced:

* isoefficiency: L is constant iff ``p / nshells^2`` is constant, i.e.
  ``nshells = O(sqrt(p))``;
* the "how much faster must integrals get before communication
  dominates" analysis (Sec III-G's ~50x for C96H24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fock.screening_map import ScreeningMap
from repro.runtime.machine import MachineConfig
from repro.util.validation import check_positive


@dataclass(frozen=True)
class PerfModel:
    """The paper's average-time model for one problem instance."""

    t_int: float  # seconds per ERI
    nshells: int  # n
    A: float  # avg basis functions per shell
    B: float  # avg |Phi(M)|
    q: float  # avg |Phi(M) & Phi(M+1)|
    s: float = 3.8  # avg steal victims per process (measured, Sec III-G)
    beta: float = 5.0e9  # bandwidth, bytes/s
    element_size: int = 8

    def __post_init__(self) -> None:
        check_positive(self.t_int, "t_int")
        check_positive(self.beta, "beta")
        if self.nshells < 1:
            raise ValueError("nshells must be >= 1")
        if not 0 <= self.q <= self.B:
            raise ValueError(f"need 0 <= q <= B, got q={self.q}, B={self.B}")

    @classmethod
    def from_screening(
        cls,
        screen: ScreeningMap,
        config: MachineConfig,
        s: float = 3.8,
    ) -> "PerfModel":
        """Fit A, B, q from an actual screening map (Sec III-G terms)."""
        return cls(
            t_int=config.t_int_gtfock,
            nshells=screen.nshells,
            A=screen.avg_shell_size,
            B=screen.avg_phi,
            q=screen.avg_consecutive_overlap,
            s=s,
            beta=config.bandwidth,
            element_size=config.element_size,
        )

    # -- Eqs (6)-(10) ---------------------------------------------------------

    def t_comp(self, p: int) -> float:
        """Eq (6): average compute time on p processes."""
        self._check_p(p)
        return self.t_int * self.B**2 * self.A**2 * self.nshells**2 / (8.0 * p)

    def v1(self, p: int) -> float:
        """Eq (7): (M, Phi(M))/(N, Phi(N)) volume per process, in elements."""
        self._check_p(p)
        return 4.0 * self.A**2 * self.B * self.nshells**2 / p

    def v2(self, p: int) -> float:
        """Eq (8): overlapped (Phi(M), Phi(N)) volume per process, elements."""
        self._check_p(p)
        nb = self.nshells / math.sqrt(p)
        return 2.0 * (nb * (self.B - self.q) + self.q) * self.A**2

    def volume(self, p: int) -> float:
        """Eq (9): V(p) = (1+s)(v1+v2), elements per process."""
        return (1.0 + self.s) * (self.v1(p) + self.v2(p))

    def t_comm(self, p: int) -> float:
        """Eq (10): communication time = V(p) bytes / beta."""
        return self.volume(p) * self.element_size / self.beta

    # -- Eqs (11)-(12) and derived quantities ---------------------------------

    def overhead_ratio(self, p: int) -> float:
        """Eq (11): L(p) = T_comm(p) / T_comp(p)."""
        return self.t_comm(p) / self.t_comp(p)

    def predictions(self, p: int) -> dict[str, float]:
        """Every Eq (6)-(11) prediction at ``p``, keyed for validation."""
        return {
            "t_comp": self.t_comp(p),
            "v1_elements": self.v1(p),
            "v2_elements": self.v2(p),
            "volume_elements": self.volume(p),
            "volume_mb": self.volume(p) * self.element_size / 1e6,
            "t_comm": self.t_comm(p),
            "overhead_ratio": self.overhead_ratio(p),
        }

    def max_parallelism_ratio(self) -> float:
        """Eq (12): L at p = nshells^2 (one task per process)."""
        return self.overhead_ratio(self.nshells**2)

    def efficiency(self, p: int) -> float:
        """E(p) = 1 / (1 + L(p)) under T(p) = T_comp + T_comm."""
        return 1.0 / (1.0 + self.overhead_ratio(p))

    def integral_speedup_to_crossover(self, p: int) -> float:
        """How much faster integrals must get before comm dominates at p.

        The paper's C96H24 analysis concludes "approximately 50 times
        faster" at 3888 cores.
        """
        l = self.overhead_ratio(p)
        if l >= 1.0:
            return 1.0
        return 1.0 / l

    def _check_p(self, p: int) -> None:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
