"""The stripped benchmark report of a small fixed configuration, diffed
against the committed golden copy in ``tests/data/golden_report.json``.

A change that keeps behaviour passes unmodified; a change that moves a number
regenerates the file and explains the diff in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import json
import pathlib
import sys

from disembed.benchmark import run_benchmark
from disembed.config import ExperimentConfig, default_label_space
from disembed.data import SyntheticSpec
from disembed.evaluation import strip_timing
from disembed.trainer import VariantConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_report.json"


def golden_config() -> ExperimentConfig:
    """The configuration of test_benchmark_reports_are_deterministic plus a
    ``classification+norm+disent`` row, the disentangled proxy's twin: it
    shares the second row's run and copies its report, with its own
    ``variant`` and ``shared_with``."""
    space = default_label_space()
    return ExperimentConfig(
        space=space,
        synthetic=SyntheticSpec(space=space, tracks=80, excerpts_per_track=3,
                                seed=13),
        variants=[
            VariantConfig(family="classification", max_epochs=2, seed=13,
                          hidden=(32, 32)),
            VariantConfig(family="proxy", disentanglement=True, max_epochs=2,
                          seed=13, hidden=(32, 32)),
            VariantConfig(family="triplet", disentanglement=True,
                          track_reg=True, max_epochs=2, seed=13,
                          hidden=(32, 32)),
            VariantConfig(family="classification", disentanglement=True,
                          max_epochs=2, seed=13, hidden=(32, 32)),
        ],
        triplets_per_notion=100,
        seed=13,
    )


def golden_report() -> dict:
    """The stripped report, normalized through JSON (tuples become lists)."""
    out = run_benchmark(golden_config())
    stripped = {"config": out["config"],
                "reports": [strip_timing(r) for r in out["reports"]]}
    return json.loads(json.dumps(stripped, sort_keys=True))


def _differences(expected, actual, path="") -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}/{key}"
            if key not in actual or key not in expected:
                diffs.append(f"{sub}: only in "
                             f"{'golden' if key in expected else 'run'}")
            else:
                diffs += _differences(expected[key], actual[key], sub)
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in _differences(e, a, f"{path}/{i}")]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def test_report_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    diffs = _differences(expected, golden_report())
    assert not diffs, "stripped report moved:\n" + "\n".join(diffs[:20])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_report(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
