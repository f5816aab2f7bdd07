"""Integration test: a pinned ReplaySpec line reproduces a pinned digest.

The spec below was produced by the fuzzer harness once and frozen; it
exercises every moving part at once — a master-slave farm with a
permanent slave crash, a latency spike and schedule tie-break jitter.
Replaying it must be clean (all invariants and the sequential-equality
property hold) and must regenerate the exact canonical trace digest.

If the digest assertion fails, the simulation's behaviour changed: either
intentionally (re-pin after reviewing the trace diff) or a determinism
regression slipped in (fix it).
"""

from repro.verify.harness import run_replay
from repro.verify.replay import ReplaySpec

PINNED_LINE = (
    'ReplaySpec {"eval_cost":0.002,"fault_intervals":[[],[],[[0.05,Infinity]],[]],'
    '"fault_tolerant":true,"generations":4,"genome_len":20,"jitter_seed":11,'
    '"latency_spikes":[[0.02,0.08,5.0]],"n_nodes":4,"pop":16,'
    '"scenario":"master-slave","seed":7}'
)
PINNED_DIGEST = "16494451c94ec26c1b14001bb9cef22d8eb6c6a92a5fb28fa2fa22043ca7ee0a"


class TestPinnedReplay:
    def test_pinned_spec_replays_clean_with_known_digest(self):
        spec = ReplaySpec.from_line(PINNED_LINE)
        outcome = run_replay(spec, audit=True)  # audit: two runs must agree
        assert outcome.ok, outcome.describe()
        assert outcome.digest == PINNED_DIGEST

    def test_pinned_line_round_trips(self):
        spec = ReplaySpec.from_line(PINNED_LINE)
        assert ReplaySpec.from_line(spec.to_line()) == spec
