"""One CLI command in a fresh interpreter: child_cli.py SPANS ARGV...

With SPANS "-" it runs ARGV as `python -m twodist.cli ARGV` would.  With
a path, it installs the span wrappers, calls twodist.cli.main(ARGV) and
writes the spans there.  Either way a speed.Sampler runs for the whole
command, and the last line on stderr is its JSON summary, with the
process's peak resident memory.
"""

import json
import resource
import runpy
import sys

import speed

# Sampling period; each sample costs about REF_NOMINAL_S.
INTERVAL_S = 0.05


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    sampler = speed.Sampler(INTERVAL_S)
    sampler.start()
    try:
        if path == "-":
            sys.argv = ["twodist.cli"] + argv
            try:
                runpy.run_module("twodist.cli", run_name="__main__",
                                 alter_sys=True)
            except SystemExit as exc:
                return 0 if exc.code is None else exc.code
            return 0
        import spans
        import twodist.cli
        rec = spans.Recorder()
        spans.install(rec)
        try:
            return twodist.cli.main(argv)
        finally:
            spans.write(path, rec.dump())
    finally:
        sampler.stop()
        sys.stdout.flush()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(dict(sampler.summary(), peak_rss_mb=peak_mb)),
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
