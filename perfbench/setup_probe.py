"""Time one cold set-up in a fresh interpreter: import swarmfl, then load and
validate a scenario JSON.  Prints {"import_s", "load_s", "setup_s"} as JSON,
each rescaled to the reference speed by the speed probe (speed.py).

    python3 setup_probe.py <src dir> <scenario.json>
"""
import json
import sys

from speed import SpeedProbe


def main():
    src, scenario_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    probe = SpeedProbe()
    probe.start()
    try:
        start = probe.mark()
        import swarmfl
        import_s = probe.scaled(start)
        loaded = probe.mark()
        swarmfl.load_scenario(scenario_path).require_valid()
        load_s = probe.scaled(loaded)
        setup_s = probe.scaled(start)
    finally:
        probe.stop()
    print(json.dumps({"import_s": import_s, "load_s": load_s, "setup_s": setup_s}))


if __name__ == "__main__":
    main()
