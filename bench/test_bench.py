"""Self-tests of the benchmark's checker, generator, tracer and host probes.

    python -m pytest bench -q

Kept out of the tier-1 suite (`testpaths = ["tests"]`).  The corrupted-cache
test builds a degree-40 cache and takes about as long as one cold table.
"""

import json
from pathlib import Path

import pytest

import run
from golden import golden_problems, load_golden
from layers import parse_importtime
from workloads import CACHE, Op, round_ops

GOLDEN = load_golden()


def test_golden_table_passes_the_independent_checks():
    values = GOLDEN.values
    assert values["h2.h2"][4] == 87304
    assert max(len(str(abs(v))) for row in values.values() for v in row) == 161
    bumped = {label: list(row) for label, row in values.items()}
    bumped["h2.h2"][4] += 1
    assert golden_problems(bumped)


@pytest.mark.parametrize("workload", ["warm-queries", "selftest"])
def test_one_seed_one_stream_two_seeds_two_streams(workload):
    def stream(seed):
        return [op for r in range(3) for op in round_ops(workload, seed, r, GOLDEN)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_cold_table_is_the_same_operation_for_every_seed():
    assert round_ops("cold-table", 1, 0, GOLDEN) == round_ops("cold-table", 2, 5, GOLDEN)


def test_refusal_counts_only_with_the_expected_exit_code():
    op = Op("refused-unsupported", ("count",), 3, b"")
    assert run.matches(op, 3, b"")
    assert not run.matches(op, 2, b"")
    assert not run.matches(op, 0, b"")


def test_every_warm_round_checks_out_against_the_program(tmp_path):
    # one round of operations without a cache, so no degree-40 build is needed
    ops = [op for op in round_ops("warm-queries", 3, 0, GOLDEN) if "table" not in op.argv]
    client = run.Client(tmp_path, None, seed=3)
    small = [op for op in ops if "--degree" not in op.argv
             or int(op.argv[op.argv.index("--degree") + 1]) <= 8]
    assert small
    for op in small:
        client.run(op)
    assert [r for r in client.records if not r["ok"]] == []


def test_traced_child_sees_every_binding_and_prints_the_same_bytes(tmp_path):
    client = run.Client(tmp_path, None, seed=1)
    op = Op("table-json-small", ("table", "--max-degree", "8", "--format", "json"), 0, None)
    untraced = client.run(op)
    spans = client.run_traced(Op(op.kind, op.argv, 0, untraced.stdout), untraced)
    assert client.records[-1]["ok"]
    names = {s["name"] for s in spans}
    assert {"cli.main", "recursion.compute_up_to", "recursion.recursion_rhs"} <= names
    rhs = [s for s in spans if s["name"] == "recursion.recursion_rhs"]
    assert all(s["hot"].get("poly.mul", [0])[0] > 0 for s in rhs)
    compute = next(s for s in spans if s["name"] == "recursion.compute_up_to")
    assert spans[compute["parent"]]["name"] == "cli.main"


def test_slowdown_uses_the_loop_probe_only_for_long_operations():
    around = [run.PROBE_REF_SPAWN_MS, 3 * run.PROBE_REF_SPAWN_MS]
    loop = 4 * run.PROBE_REF_LOOP_MS
    assert run.slowdown(around[:1] * 2, []) == 1.0
    # too few loop samples: the mean of the start-up probes around it
    assert run.slowdown(around, [loop] * (run.PROBE_DURING_MIN - 1)) == 2.0
    # enough: the loop samples alone
    assert run.slowdown(around, [loop] * run.PROBE_DURING_MIN) == 4.0


def test_sampler_times_the_loop_probe_only_while_an_operation_runs():
    with run.Sampler() as quick:
        pass
    assert quick.samples == []
    with run.Sampler() as slow:
        run.run_process([run.sys.executable, "-c", "import time; time.sleep(1.3)"], Path("."))
    assert len(slow.samples) >= 2 and all(ms > 0 for ms in slow.samples)


def test_importtime_layers_add_up():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         fractions",
        "import time:       200 |        300 |       semple2.chow",
        "import time:        50 |         50 |         semple2.poly",
        "import time:        70 |        120 |       semple2.recursion",
        "import time:        10 |        430 |     semple2",
        "import time:        20 |        450 |   semple2.cli",
    ])
    got = parse_importtime(text)
    assert got["chow.import_ms"] == 0.3
    assert got["recursion.import_ms"] == 0.07
    assert got["poly.import_ms"] == 0.05
    assert got["cli.import_ms"] == 0.45


def test_corrupted_cache_answer_is_counted_as_failed(tmp_path):
    warm, _ = run.setup_once("warm-queries", 1, GOLDEN, tmp_path, 0)
    corrupt = tmp_path / "corrupt.json"
    data = json.loads(Path(warm).read_text())
    data["5"]["h2.h2"] = str(int(data["5"]["h2.h2"]) + 1)
    corrupt.write_text(json.dumps(data, indent=2) + "\n")

    op = Op("points", ("count", "--degree", "5", "--points", "14", "--cache", CACHE), 0,
            f"{GOLDEN.values['h2.h2'][4]}\n".encode())
    assert op.stdout == b"87304\n"
    intact, broken = run.Client(tmp_path, warm, 1), run.Client(tmp_path, corrupt, 1)
    intact.run(op)
    printed = broken.run(op)
    assert intact.records[0]["ok"]
    # semple2 accepts the corrupted cache and serves the wrong count
    assert printed.code == 0 and printed.stdout == b"87305\n"
    assert not broken.records[0]["ok"]
