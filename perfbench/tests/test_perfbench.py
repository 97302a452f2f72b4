"""Self-tests of the benchmark itself (not of sip_effmass).

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path)
    files = _files(tmp_path)
    again = workloads.generate(workload, 7, tmp_path)
    assert again.tasks == first.tasks
    assert again.profiles == first.profiles and again.mumaps == first.mumaps
    assert _files(tmp_path) == files
    other = workloads.generate(workload, 8, tmp_path / "other")
    assert [t.label for t in other.tasks] == [t.label for t in first.tasks]
    assert [t.argv for t in other.tasks] != [t.argv for t in first.tasks] or \
        [t.spec for t in other.tasks] != [t.spec for t in first.tasks]


def test_workload_whys_match_the_generator():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _span(name, start, end, parent=None, thread=1):
    return [name, start, end, parent, "0:0", thread, None, None]


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 3.0, 6.0, parent=0),  # overlaps b: the union [1, 6] is covered
        _span("d", 1.5, 2.0, parent=1),
        _span("late", 9.0, 11.0, parent=0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 0.5, 2.0])


def test_self_time_with_children_on_pool_threads():
    spans = [
        _span("cli.run_sweep", 20.0, 30.0, thread=1),
        _span("cli.run_spectrum", 21.0, 25.0, parent=0, thread=2),
        _span("cli.run_spectrum", 22.0, 29.0, parent=0, thread=3),
        _span("massprofile.MuMap.__init__", 22.0, 23.0, parent=1, thread=2),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.0, 7.0, 1.0])
    metrics, _ = tracer.layer_metrics(spans, (0, 0), 0, 0, workers=2)
    assert metrics["cli.sweep.points"] == 2
    assert metrics["cli.sweep.parallel_eff"] == pytest.approx(11.0 / (10.0 * 2))


def test_speed_samples_are_taken_out_of_the_span_they_interrupt():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("massprofile.MuMap.__init__", 1.0, 4.0, parent=0),
        _span("cli.run_spectrum", 2.0, 3.0, parent=0, thread=2),  # a pool thread
    ]
    samples = [(0.5, 0.6), (1.5, 1.7), (4.0, 4.1), (11.0, 11.2)]
    full = tracer.attach_samples(spans, samples, thread=1)
    assert [s[tracer.PARENT] for s in full[3:]] == [0, 1, 0, None]
    assert all(s[tracer.NAME] == tracer.SAMPLE for s in full[3:])
    assert tracer.self_times(full)[:2] == pytest.approx([10.0 - 3.0 - 0.2, 3.0 - 0.2])
    layers, names = tracer.layer_metrics(full, (0, 0), 0, 0, workers=2)
    assert layers["massprofile.mumap_build.self_s"] == pytest.approx(2.8)
    assert layers["trace.spans"] == 3


def test_pool_thread_spans_nest_under_the_client_span():
    tr = tracer.Tracer()
    leaf = tr.wrap(lambda v: v * 2, "leaf")

    def fan_out(values):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, values))

    sweep = tr.wrap(fan_out, "sweep")
    tr.enabled = True
    assert sweep(range(6)) == [0, 2, 4, 6, 8, 10]
    tr.enabled = False
    root = next(i for i, s in enumerate(tr.spans) if s[tracer.NAME] == "sweep")
    leaves = [s for s in tr.spans if s[tracer.NAME] == "leaf"]
    assert len(leaves) == 6
    assert all(s[tracer.PARENT] == root for s in leaves)
    assert any(s[tracer.THREAD] != threading.get_ident() for s in leaves)


def test_u_counter_counts_calls_and_points():
    class Profile:
        def u(self, x):
            return x

    prof, tr = Profile(), tracer.Tracer()
    tr.count_u(prof)
    prof.u(1.0)  # not counted while tracing is off
    tr.enabled = True
    prof.u(2.0)
    prof.u(__import__("numpy").zeros(5))
    assert tr.u_totals() == (2, 6)


def test_every_benchmark_metric_is_emitted_with_its_unit():
    records = [{"latency_s": 0.01 * (i + 1), "scaled_s": 0.02 * (i + 1), "failure": None,
                "max_err": 0.0} for i in range(120)]
    e2e, raw, samples = run.end_to_end(records, [0.8, 0.9, 1.0], [0.4, 0.5, 0.6])
    assert e2e["setup_s"] == 0.5 and raw["setup_s"] == 0.9
    assert e2e["tasks_per_s"] == pytest.approx(raw["tasks_per_s"] / 2.0)
    for m in BENCHMARK["end_to_end"]:
        assert m["name"] in e2e
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    assert samples["task_p50_ms"] == 120 and "task_p90_ms" in e2e

    spans = [_span("cli.main", 0.0, 1.0),
             _span("verify.lowest_eigenvalues", 0.1, 0.5, parent=0)]
    spans[1][tracer.SIZE], spans[1][tracer.EXTRA] = 99, 1e-12
    layers, _ = tracer.layer_metrics(spans, (3, 30), 100, 10, workers=2)
    plain = {"records": [{"latency_s": 1.0, "scaled_s": 0.8}, {"latency_s": 2.0, "scaled_s": 1.8}]}
    traced = {"records": [{"latency_s": 1.5, "scaled_s": 1.2}, {"latency_s": 2.5, "scaled_s": 2.2}]}
    passes = run.pass_metrics(plain, traced)
    assert passes["trace.overhead_s"] == pytest.approx(0.8)
    assert passes["trace.untraced_raw_s"] == 3.0
    assert passes["speed.factor"] == pytest.approx(0.85)
    layers.update(passes)
    for m in BENCHMARK["per_layer"]:
        assert m["name"] in layers, m["name"]
        assert run.per_layer_unit(m["name"]) == m["unit"], m["name"]
    assert layers["verify.eigensolve.dim"] == 99
    assert layers["cli.main.self_s"] == pytest.approx(0.6)


def test_p90_needs_a_hundred_samples():
    records = [{"latency_s": 0.01, "scaled_s": 0.01, "failure": None, "max_err": 0.0}] * 99
    e2e, _, _ = run.end_to_end(records, [1.0], [1.0])
    assert "task_p90_ms" not in e2e


def test_scale_factors_use_samples_during_and_around_each_task():
    nominal = speed.NOMINAL_NUMPY_LOOP_S
    cals = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    inner = [[], [], [4 * nominal] * 12, [], []]
    # interval 2: twelve samples at 4, boundaries 1, 2, 2, 2; the trimmed
    # mean drops the lowest and the highest of the sixteen
    mid = (4 * 11 + 2 * 3) / 14
    assert speed.scale_factors(cals, inner) == pytest.approx(
        [3 / 4, 2 / 3, 1 / mid, 1 / 2, 1 / 2])


def test_trimmed_mean_drops_outliers():
    assert speed.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert speed.trimmed_mean([1.0, 3.0]) == 2.0


def test_speed_sampler_samples_long_calls_only():
    import time

    sampler = speed.SpeedSampler(speed.python_loop)
    with sampler:
        time.sleep(speed.SAMPLE_EVERY_S / 5)
    assert sampler.samples == []
    with sampler:
        t_end = time.perf_counter() + 8 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.samples) >= 5 and sampler.spent > 0.0


def test_reference_spectra_reproduce_the_worked_examples():
    ho = {"tag": "ho", "a": 1.0, "b": 0.0, "lambda0": 1.0, "sigma0": 0.0, "rho0": 0.0}
    morse = {"tag": "morse", "a": -1.0, "b": 1.0, "lambda0": 1.0, "sigma0": 2.5, "rho0": 0.0}
    pt = {"tag": "pt_trig", "a": 1.0, "b": 0.0, "c": 1.0, "lambda0": 2.0, "sigma0": 0.0,
          "rho0": 1.0}
    assert reference.spectrum_levels(ho, 5) == [0.0, 4.0, 4.0, 8.0, 8.0]
    assert reference.spectrum_levels(morse, 4) == [0.0, 8.0, 10.0, 14.0]
    assert reference.spectrum_levels(pt, 3) == [0.0, 24.0, 8.0]
    reduced = {"tag": "morse", "a": -1.0, "b": 0.0, "lambda0": 1.0, "sigma0": 2.5, "rho0": 0.0}
    assert reference.exact_gaps("morse_reduced", reduced, 3) == [0.0, 4.0, 6.0]


def test_reference_mu_matches_closed_forms(tmp_path):
    import math

    profiles = workloads.draw_profiles(3, tmp_path)
    p = profiles["asinh_mu"]
    s = math.sqrt(2.0 * p["m0"])
    got = reference.Profile(p).mu([-7.0, 0.5, 30.0])
    want = [s * math.asinh(p["alpha"] * x) / p["alpha"] for x in (-7.0, 0.5, 30.0)]
    assert got == pytest.approx(want, rel=1e-12)
    e = profiles["exp_mass"]
    s = math.sqrt(2.0 * e["m0"])
    assert reference.Profile(e).mu([1.0])[0] == pytest.approx(s * math.exp(e["beta"]) / e["beta"],
                                                              rel=1e-12)
