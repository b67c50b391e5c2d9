"""Tier-1 replay of the fuzz seed corpus.

``corpus.json`` maps each corpus seed to the scenario spec it names,
chosen for feature coverage: every backend, instance policy, scheduling
policy, fault kind, lifecycle action and retrieval mode appears at
least once. Scenarios replay by spec, so they survive generator
changes. Each replays here as a regular test: the world must satisfy
every registered invariant and — run twice — produce byte-identical
fingerprints whose sha256 is the one ``corpus_fingerprints.json`` pins
for the seed. A corpus failure means a real regression or an
intentional behaviour change (re-pin with
``tools/check_corpus_fingerprints.py --write``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.testing.invariants import check_all
from repro.testing.scenario import (
    ScenarioGen, ScenarioSpec, load_corpus, run_scenario,
)

CORPUS = load_corpus(Path(__file__).with_name("corpus.json"))
SEEDS = list(CORPUS)
PINNED = json.loads(
    Path(__file__).with_name("corpus_fingerprints.json").read_text())


def test_corpus_is_nonempty_and_unique():
    assert len(SEEDS) >= 10
    assert len(set(SEEDS)) == len(SEEDS)


def test_corpus_specs_are_keyed_by_their_seed():
    assert all(spec.seed == seed for seed, spec in CORPUS.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_scenario_holds_invariants_and_replays_identically(seed):
    spec = CORPUS[seed]
    first = run_scenario(spec)
    violations = check_all(first.bed)
    assert violations == [], \
        f"seed {seed} ({spec.describe()}): {violations[:3]}"
    # Same spec, fresh world: the fingerprint must match byte for byte.
    # The spec round-trips through its JSON form on the way, so corpus
    # replay also covers serialized-spec replay (shrink reports).
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec
    second = run_scenario(again)
    assert second.fingerprint == first.fingerprint, \
        f"seed {seed}: same-seed replay diverged"
    digest = hashlib.sha256(first.fingerprint.encode()).hexdigest()
    assert digest == PINNED[str(seed)], \
        f"seed {seed}: fingerprint moved from its corpus_fingerprints pin"


def test_unknown_spec_key_raises():
    d = ScenarioGen(0).generate().to_dict()
    d["harness_version"] = 2
    with pytest.raises(TypeError, match="harness_version"):
        ScenarioSpec.from_dict(d)


def test_injected_lease_epoch_bug_is_caught(monkeypatch):
    """The harness has teeth: disabling the pool's retired-epoch check
    (the deliberate ``--inject-bug lease-epoch`` defect) must trip the
    tombstone-isolation invariant on this shrunk minimal scenario."""
    from repro.offload.pool import InstancePool
    monkeypatch.setattr(InstancePool, "completion_retired",
                        lambda self, owner: False)
    spec = ScenarioSpec.from_dict({
        "seed": 32, "config_name": "QTLS", "workers": 1,
        "suites": ["ECDHE-RSA"], "tls_version": "1.2",
        "duration": 0.0788892813339416, "trace": False,
        "overrides": {}, "faults": None,
        "clients": [{"kind": "ab", "n_clients": 1, "full_ratio": 1.0,
                     "stagger": 0.017188457882611665, "keepalive": True,
                     "file_size": 1024}],
        "actions": [{"kind": "reload", "at": 0.022088963656203518,
                     "slot": 0,
                     "mutation": {"offload_admission_limit": 0,
                                  "offload_sched_policy": "fifo",
                                  "qat_batch_size": 8}}],
    })
    result = run_scenario(spec)
    violations = check_all(result.bed)
    assert any(v.invariant == "tombstone-isolation" for v in violations), \
        f"injected bug escaped the invariants: {violations}"
