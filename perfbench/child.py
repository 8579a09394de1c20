"""One benchmark process: the real hankelpde command line, timed.

    python3 perfbench/child.py --times T.json [--spans S.json]
        [--setup-only] -- solve SCENARIO --out DIR --threads K

Runs hankelpde.cli.main on the arguments after "--", exactly as the
installed command would.  Untraced, it replaces two attributes:
cli.parse_scenario, by a wrapper that stamps the moment the scenario is
parsed, and cli.evaluate_solution, by one that counts the samples solved
and patch-skipped.  With --spans it also wraps every attribute in
spans.WRAPPED and writes the spans out when main returns.  Wall stamps
are CLOCK_MONOTONIC readings, comparable with the parent's; CPU stamps
are this process's CPU clock, all threads.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--times", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from hankelpde import cli, fredholm
    stamps = {"imported": time.monotonic()}

    recorder = None
    if args.spans:
        recorder = spans.Recorder(clock=time.monotonic)
        missing = recorder.install({"cli": cli, "fredholm": fredholm})
        stamps["missing"] = ["%s.%s" % m for m in missing]

    parse = cli.parse_scenario

    def stamped_parse(path):
        scenario = parse(path)
        stamps["parsed"] = time.monotonic()
        stamps["parsed_cpu"] = time.process_time()
        return scenario

    cli.parse_scenario = stamped_parse

    evaluate = cli.evaluate_solution

    def tallied_evaluate(scenario, **kwargs):
        field_out, report = evaluate(scenario, **kwargs)
        stamps["samples"] = stamps.get("samples", 0) + report.det2.size
        stamps["skipped"] = stamps.get("skipped", 0) + len(report.skipped)
        return field_out, report

    cli.evaluate_solution = tallied_evaluate
    if args.setup_only:
        cli.parse_scenario(argv[1])
        code = 0
    else:
        code = cli.main(argv)
    stamps["end"] = time.monotonic()
    stamps["end_cpu"] = time.process_time()
    if recorder is not None:
        spans.dump(recorder.spans, args.spans)
    with open(args.times, "w") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
