"""Fast self-test of the benchmark itself, at toy sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its schema, that every workload emits
exactly the declared metrics with their declared units (traced and
untraced), that span self-time arithmetic is right, and that Armijo trials
and Gibbs rows derive correctly from public outputs.  Not part of the
package's test suite: it measures nothing and takes a few seconds.
"""

import contextlib
import io
import json
import re
import sys

import run
import spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def expect(ok, message):
    if not ok:
        raise AssertionError(message)


def test_benchmark_json_schema():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, f"top-level keys {sorted(bench)}")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "workload names differ from run.WORKLOADS")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"]),
           "workload entries need exactly name and a why of at most 200 characters")
    names = []
    for entry in bench["end_to_end"]:
        expect(set(entry) == {"name", "unit", "better", "bound"}, f"keys of {entry}")
        expect(0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
        names.append(entry["name"])
    for entry in bench["per_layer"]:
        expect(set(entry) == {"name", "unit", "better"}, f"keys of {entry}")
        names.append(entry["name"])
    expect(len(names) == len(set(names)), "metric names repeat")
    for entry in bench["end_to_end"] + bench["per_layer"]:
        expect(NAME.match(entry["name"]) and UNIT.match(entry["unit"])
               and entry["better"] in ("lower", "higher"), f"malformed {entry}")
    setup = [e for e in bench["end_to_end"] if e["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(e["bound"] for e in bench["end_to_end"]),
           "setup_s must be in seconds, lower is better, with the largest bound")
    mapped = {m for group in run.SPEC["layer_map"] for m in group["metrics"]}
    declared = {e["name"] for e in bench["per_layer"]}
    expect(mapped == declared, f"layer map differs: {sorted(mapped ^ declared)}")


def test_tiny_workloads_emit_declared_metrics():
    for workload in run.WORKLOADS.values():
        for trace in (False, True):
            with contextlib.redirect_stdout(io.StringIO()):
                result, _values = run.run_workload(run.tiny(workload), seed=3, seconds=0.1,
                                                   trace=trace, record_counters=False)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload.name} trace={trace} failed")
            declared = {e["name"]: e["unit"] for e in run.declared_metrics(trace)}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared, f"{workload.name} trace={trace}: metrics "
                   f"{sorted(set(emitted) ^ set(declared))} differ from BENCHMARK.json")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_span_self_time():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("outer", mark=True):
        with tracer.span("a"):
            with tracer.span("g"):
                pass
        with tracer.span("b"):
            pass
    expected = {"outer": [1, 10, 6], "a": [1, 3, 2], "g": [1, 1, 1], "b": [1, 1, 1]}
    expect(tracer.stats == expected, f"stats {tracer.stats}")
    expect(tracer.coverage == {"outer": (10, 4)}, f"coverage {tracer.coverage}")
    expect(tracer.span_count() == 4, "span count")


def test_install_restores_bindings():
    lp = run.lp
    originals = (lp.optimize.fit_map, lp.evaluate.fit_map, lp.fit_map,
                 lp.tensor.RelationalTensor.__dict__["build"])
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        expect(lp.evaluate.fit_map is not originals[1], "evaluate.fit_map not wrapped")
        lp.tensor.RelationalTensor.build(2, 1, [(0, 1, 0, 1)])
    finally:
        spans.uninstall(patches)
    expect(tracer.count("tensor.RelationalTensor.build") == 1, "classmethod span missing")
    restored = (lp.optimize.fit_map, lp.evaluate.fit_map, lp.fit_map,
                lp.tensor.RelationalTensor.__dict__["build"])
    expect(all(a is b for a, b in zip(originals, restored)), "bindings not restored")


def test_trials_from_opt_trace():
    trace = run.lp.optimize.OptTrace(objectives=[3.0, 2.0, 1.5, 1.4],
                                     gradient_norms=[1.0, 0.5, 0.2],
                                     step_sizes=[1.0, 0.5, 0.125])
    expect(spans.armijo_trials(trace.step_sizes) == [1, 2, 4], "default search")
    expect(spans.armijo_trials([2.0, 0.2], initial_step=2.0, shrink=0.1) == [1, 2],
           "custom initial step and shrink")
    for bad in ([0.3], [2.0], [0.0]):
        try:
            spans.armijo_trials(bad)
        except ValueError:
            continue
        raise AssertionError(f"step sizes {bad} accepted")


def test_rows_drawn():
    expect(spans.rows_drawn(300, 50, 5, frozen_relations=False) == 300 * 105, "full chain")
    expect(spans.rows_drawn(300, 50, 1, frozen_relations=True) == 300 * 100, "frozen R")


def main():
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
