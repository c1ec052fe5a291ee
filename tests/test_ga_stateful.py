"""Property-based stateful testing of GlobalArray against a NumPy model.

Random sequences of one-sided get/put/acc against a plain ndarray model
must agree element-for-element, and the accounting invariants must hold
(bytes match request sizes, remote <= total).  Every run draws a random
fault plan -- transient op failures, half of whose failed accumulates
applied before their ack was lost -- and a random rate of in-flight
payload corruption: tagged, checksummed accumulates must still apply
exactly once, so the array stays bitwise equal to the model.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.runtime.faults import FaultPlan
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats
from repro.runtime.sdc import SDCFaultPlan

N = 12
GRID = 3
NPROC = GRID * GRID


class GlobalArrayMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**32 - 1),
        op_fail_rate=st.floats(0.0, 0.3),
        payload_flip_rate=st.floats(0.0, 1.0),
    )
    def setup(self, seed, op_fail_rate, payload_flip_rate) -> None:
        faults = FaultPlan(seed=seed, op_fail_rate=op_fail_rate).activate(NPROC)
        self.stats = CommStats(NPROC, LONESTAR, faults=faults)
        self.sdc = SDCFaultPlan(
            seed=seed, payload_flip_rate=payload_flip_rate
        ).activate()
        self.ga = GlobalArray(
            self.stats, N, N, block_bounds(N, GRID), block_bounds(N, GRID),
            checksums=True, sdc=self.sdc,
        )
        self.model = np.zeros((N, N))
        self.tags = 0

    rect = st.tuples(
        st.integers(0, N - 1), st.integers(1, N),
        st.integers(0, N - 1), st.integers(1, N),
    )

    @rule(r=rect, proc=st.integers(0, NPROC - 1), seed=st.integers(0, 10**6))
    def put(self, r, proc, seed) -> None:
        r0, h, c0, w = r
        r1 = min(r0 + h, N)
        c1 = min(c0 + w, N)
        block = np.random.default_rng(seed).normal(size=(r1 - r0, c1 - c0))
        self.ga.put(proc, r0, c0, block)
        self.model[r0:r1, c0:c1] = block

    @rule(r=rect, proc=st.integers(0, NPROC - 1), seed=st.integers(0, 10**6))
    def acc(self, r, proc, seed) -> None:
        r0, h, c0, w = r
        r1 = min(r0 + h, N)
        c1 = min(c0 + w, N)
        block = np.random.default_rng(seed).normal(size=(r1 - r0, c1 - c0))
        self.ga.acc(proc, r0, c0, block, tag=self.tags)
        self.tags += 1
        self.model[r0:r1, c0:c1] += block

    @rule(r=rect, proc=st.integers(0, NPROC - 1))
    def get_matches_model(self, r, proc) -> None:
        r0, h, c0, w = r
        r1 = min(r0 + h, N)
        c1 = min(c0 + w, N)
        out = self.ga.get(proc, r0, r1, c0, c1)
        assert np.array_equal(out, self.model[r0:r1, c0:c1])

    @invariant()
    def full_contents_match(self) -> None:
        assert np.array_equal(self.ga.to_numpy(), self.model)

    @invariant()
    def every_corrupted_payload_rejected(self) -> None:
        assert self.ga.checksum_rejects == self.sdc.payloads_corrupted

    @invariant()
    def accounting_sane(self) -> None:
        assert np.all(self.stats.remote_bytes <= self.stats.bytes)
        assert np.all(self.stats.remote_calls <= self.stats.calls)
        assert np.all(self.stats.clock >= 0)


TestGlobalArrayStateful = GlobalArrayMachine.TestCase
TestGlobalArrayStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
