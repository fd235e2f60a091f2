"""Content pins on the ``--json`` replays.

Each case builds the report string a ``repro ... --json`` command
prints (its stdout without the trailing newline) and checks its
sha256.  CI's ``cmp`` of two runs proves a replay is deterministic;
these digests prove it has not changed.  A change that moves a
modelled number on purpose updates the digest here and says why.
"""

import hashlib

import pytest

from repro.fleet import FleetConfig, fleet_report_json
from repro.integrity import IntegrityConfig, integrity_report_json
from repro.llm.chaos import ChaosConfig, chaos_report_json
from repro.server import ServerConfig, server_report_json

REPLAYS = {
    "fleet --quick": (
        lambda: fleet_report_json(FleetConfig(quick=True)),
        "436b0adcca869c0cd573395e6a73e6c4be320e82c5d9e4d34ffcc7def1834c4a",
    ),
    "fleet --quick --seed 1 --plan chaos-mix": (
        lambda: fleet_report_json(
            FleetConfig(quick=True, seed=1, fault_plan="chaos-mix")
        ),
        "c3f18862471a89e15fc41f44ae0edeadc67ff795195a1395f8c70701e5cdcd28",
    ),
    "server --quick": (
        lambda: server_report_json(ServerConfig().quick()),
        "9b3de3174cac033d709aaa7e1d2080ee7062a843026b88519f30342117f0946b",
    ),
    "server --quick --plan gpu-crash": (
        lambda: server_report_json(ServerConfig(fault_plan="gpu-crash").quick()),
        "4e6516e4967f0249edcc524147222a9ad0a9051ef29b65b39dcd9453888f144f",
    ),
    "chaos --quick --plan gpu-crash": (
        lambda: chaos_report_json(ChaosConfig(plan="gpu-crash").quick()),
        "bd05df17f71aa47610e84562238612468e24c9f8f20987f17e13001c475ef13d",
    ),
    "chaos --quick --plan flaky-link": (
        lambda: chaos_report_json(ChaosConfig(plan="flaky-link").quick()),
        "484b8772f893bdc5a4009fafef7b9fd02408ef3eb758b148a84e5c2708535bf7",
    ),
    "integrity --quick": (
        lambda: integrity_report_json(IntegrityConfig().quick()),
        "8a1d4490c8f9d95651da8271af7785790e3670eea6486bad44216656fa7ace5f",
    ),
}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_replay_digest_is_pinned(command):
    report, digest = REPLAYS[command]
    assert hashlib.sha256(report().encode()).hexdigest() == digest
