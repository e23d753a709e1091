"""Self-tests of the benchmark: python3 -m pytest benchmark -q (from the repository root)."""

import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import arith  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from primroots import hensel, oracle, orders  # noqa: E402
from workloads import WORKLOADS, Op, Wrong  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_operations(name):
    w = WORKLOADS[name]
    assert w.make_pass(7, 0) == w.make_pass(7, 0)
    assert w.make_pass(7, 1) == w.make_pass(7, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_or_pass_gives_other_inputs(name):
    w = WORKLOADS[name]
    a, b, c = w.make_pass(7, 0), w.make_pass(8, 0), w.make_pass(7, 1)
    assert [op.args for op in a] != [op.args for op in b]
    assert [op.args for op in a] != [op.args for op in c]
    assert [op.call for op in a] == [op.call for op in b]


def test_enumerate_inputs_stay_in_their_bands():
    for seed in (1, 2, 3):
        for op in WORKLOADS["enumerate"].make_pass(seed, 0):
            band, n = op.facts["band"], op.facts["n"]
            if band == "desk":
                assert n <= 3000
                continue
            assert workloads.ROOT_WINDOW[0] <= arith.phi(op.facts["phi"]) <= workloads.ROOT_WINDOW[1]
            if band == "prime":
                assert 900_000 <= n <= 1_100_000 and arith.is_prime(n)
            if band == "square":
                assert 600 <= arith.trial_factor(n).popitem()[0] <= 1500


def test_queries_and_hensel_inputs_stay_in_their_bands():
    for seed in (1, 2):
        ops = WORKLOADS["queries"].make_pass(seed, 0)
        for op in ops[:48]:
            assert 24 <= op.facts["class"]["p"].bit_length() <= 32
        for op in ops[48:64]:
            assert 55 <= op.facts["n"].bit_length() <= 128
        for op in WORKLOADS["hensel"].make_pass(seed, 0)[: workloads.SCAN_SLOTS]:
            coeffs, p, k = op.args
            assert 10 ** 5 <= p <= 10 ** 6 and 2 <= k <= 6 and 2 <= len(coeffs) - 1 <= 6


def test_metric_names_are_well_formed_and_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[section]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def _cli(stdout: str) -> run.CliOutcome:
    return run.CliOutcome(0, stdout.encode(), "", 0, None)


def test_root_check_rejects_corrupted_lists():
    n = 2 * 3 ** 5
    op = WORKLOADS["enumerate"]._op("desk", 3, 5, True, ())
    good = list(oracle.brute_primitive_roots(n).roots)
    verify = WORKLOADS["enumerate"].verify
    assert verify(op, _cli("\n".join(map(str, good))), random.Random(1), oracle) == len(good)
    non_root = next(x for x in range(1, n) if x not in good)
    corrupted = [
        good[:-1],  # one root missing
        sorted(good[:-1] + [non_root]),  # a non-root in place of a root
        [good[1], good[0]] + good[2:],  # out of order
        good[:1] + good[:-1],  # a repeat
        good[:-1] + [n + good[-1]],  # out of range
    ]
    for roots in corrupted:
        with pytest.raises(Wrong):
            verify(op, _cli("\n".join(map(str, roots))), random.Random(1), oracle)


def test_solution_check_rejects_corrupted_sets():
    rng = random.Random(5)
    p, k = 10007, 3
    coeffs, count = workloads.simple_roots_poly(rng, p, 5)
    op = Op("solve_prime_power", (coeffs, p, k), {"count": count})
    good = hensel.solve_prime_power(hensel.Polynomial(coeffs), p, k)
    verify = WORKLOADS["hensel"].verify
    assert verify(op, (good, None), rng, oracle) == count
    for sols in (good[:-1], good[:-1] + [good[-1] + 1], good + [good[-1]], list(reversed(good))):
        with pytest.raises(Wrong):
            verify(op, (sols, None), rng, oracle)
    fan = WORKLOADS["hensel"]._double(rng, 7, 4)
    sols = hensel.solve_prime_power(hensel.Polynomial(fan.args[0]), 7, 4)
    assert verify(fan, (sols, None), rng, oracle) == 7 ** 2
    with pytest.raises(Wrong):
        verify(fan, (sols[:-1] + [sols[-1] - 1], None), rng, oracle)


def test_query_check_rejects_wrong_answers():
    ops = WORKLOADS["queries"].make_pass(3, 0)
    count = next(op for op in ops if op.call == "count_primitive_roots")
    verify = WORKLOADS["queries"].verify
    right = orders.count_primitive_roots(*count.args)
    assert verify(count, (right, None), random.Random(1), oracle) == 0
    with pytest.raises(Wrong):
        verify(count, (right + 1, None), random.Random(1), oracle)
    with pytest.raises(Wrong):
        verify(count, (None, ValueError("boom")), random.Random(1), oracle)


def test_spans_give_self_times_and_restore_the_program():
    original = orders.factorize
    tracer = spans.Tracer()
    with spans.install(tracer):
        assert orders.factorize is not original
        assert orders.count_primitive_roots(2 * 3 ** 4) == 18
    assert orders.factorize is original
    st = spans.self_times(tracer.spans)
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["orders.count_primitive_roots"]
    assert sum(e["self_s"] for e in st.values()) == pytest.approx(top[0][4])
    assert st["modarith.euler_phi"]["calls"] == 2
    assert tracer.counts["modarith.pow_mod.calls"] == 0
