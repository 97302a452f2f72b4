"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <checkout root> <setup.json>

A set-up is what every run pays before its first task: importing
``sip_effmass`` (and with it numpy and scipy) and building the workload's
fixed mass profiles and MuMaps.  Prints {"setup_s": seconds, "scaled_s":
seconds on the nominal machine} as JSON (see ``speed.py``).
"""

import json
import sys
import time
from pathlib import Path

import speed


def build(spec: dict, sip) -> tuple:
    """The profiles and MuMaps named by a plan's set-up spec."""
    profiles = {}
    for key, p in spec["profiles"].items():
        params = {k: v for k, v in p.items() if k in ("m0", "alpha", "beta", "path")}
        profiles[key] = sip.registry_get(p["name"], **params)
    mumaps = {(key, x_ref): sip.MuMap(profiles[key], x_ref=x_ref) for key, x_ref in spec["mumaps"]}
    return profiles, mumaps


def main(argv) -> int:
    root, spec_path = Path(argv[1]), Path(argv[2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    # numpy is not imported yet, so the speed is sampled with the pure-Python loop
    sampler = speed.SpeedSampler(speed.python_loop)
    t0 = time.perf_counter()
    with sampler:
        import sip_effmass

        build(spec, sip_effmass)
    elapsed = time.perf_counter() - t0 - sampler.spent
    loop_s = speed.trimmed_mean(sampler.samples + [speed.python_loop() for _ in range(4)])
    scaled = elapsed * speed.NOMINAL_PYTHON_LOOP_S / loop_s
    print(json.dumps({"setup_s": elapsed, "scaled_s": scaled}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
