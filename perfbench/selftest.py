#!/usr/bin/env python3
"""Self-tests of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py [output|attribution]...

output       A run whose first record is nudged by one ulp after the
             simulation (--corrupt-record) must report correct=false,
             failed > 0 and verified_frac < 1, while the same run without
             the nudge is clean. Uses the default seed, where every cell
             is checked against its committed digest.

attribution  A provider wrapper that busy-waits before each route call
             (--plant-route-delay-us) must raise provider.*.route_s by
             calls x delay while flowsim.engine_self_s (exact_fig8) and
             decomp.signatures_s (decomp_k32) stay within noise. Noise is
             the gap between two unplanted traced runs; a layer stays
             within noise when the planted run moves it by no more than
             twice that gap or a tenth of the planted time, whichever is
             larger.

Exits 1 if any check fails.
"""

import json
import subprocess
import sys

SEED = 1


def run(workload, trace, *extra, seconds=1):
    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["m"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def output_check():
    ok = True
    clean = run("exact_fig8", 0)
    bad = run("exact_fig8", 0, "--corrupt-record")
    print(f"clean:     correct={clean['correct']} failed={clean['failed']}/{clean['attempted']} "
          f"verified_frac={clean['m']['verified_frac']:.6f}")
    print(f"corrupted: correct={bad['correct']} failed={bad['failed']}/{bad['attempted']} "
          f"verified_frac={bad['m']['verified_frac']:.6f}")
    if not (clean["correct"] and clean["failed"] == 0):
        print("FAIL: the clean run is not clean")
        ok = False
    if bad["correct"] or bad["failed"] == 0 or bad["m"]["verified_frac"] >= 1.0:
        print("FAIL: the corrupted record was not counted")
        ok = False
    return ok


def attribution_case(workload, layer, delay_us, steady):
    base = [run(workload, 1), run(workload, 1)]
    planted = run(workload, 1, "--plant-route-delay-us", str(delay_us))
    calls = planted["m"][f"provider.{layer}.calls"]
    want = calls * delay_us * 1e-6
    route = f"provider.{layer}.route_s"
    mean = lambda k: sum(b["m"][k] for b in base) / len(base)
    got = planted["m"][route] - mean(route)
    ok = abs(got - want) <= 0.1 * want
    print(f"{workload}: {int(calls)} route calls x {delay_us} us = {want:.3f} s planted; "
          f"{route} rose {got:.3f} s -> {'ok' if ok else 'FAIL'}")
    for k in steady:
        noise = abs(base[0]["m"][k] - base[1]["m"][k])
        moved = planted["m"][k] - mean(k)
        limit = max(2 * noise, 0.1 * want)
        fine = abs(moved) <= limit
        ok = ok and fine
        print(f"  {k}: base {base[0]['m'][k]:.3f}/{base[1]['m'][k]:.3f} s, planted "
              f"{planted['m'][k]:.3f} s, moved {moved:+.3f} s (limit {limit:.3f}) -> "
              f"{'ok' if fine else 'FAIL'}")
    return ok


def attribution():
    ok = attribution_case("exact_fig8", "mptcp", 20, ["flowsim.engine_self_s"])
    ok = attribution_case("decomp_k32", "ecmp", 100,
                          ["decomp.signatures_s", "decomp.populations_s"]) and ok
    return ok


def main():
    tests = {"output": output_check, "attribution": attribution}
    names = sys.argv[1:] or list(tests)
    ok = True
    for name in names:
        if name not in tests:
            sys.exit(f"unknown self-test {name}; choose from {list(tests)}")
        print(f"== {name}")
        ok = tests[name]() and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
