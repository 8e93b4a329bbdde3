#!/usr/bin/env python3
"""Validate an OpenMetrics text exposition produced by the metrics
registry (MetricsRegistry::text(), as returned by
Server::metrics_text() and served by the admin plane's GET /metrics).

Checks what a Prometheus scraper would silently mis-ingest but a
correct exporter must guarantee:
  * the document terminates with exactly one '# EOF' line,
  * every sample line parses and belongs to the family block opened by
    the preceding '# TYPE' line (no family interleaving),
  * '# TYPE' declares counter/gauge/histogram; counter samples are
    named <family>_total, histogram samples <family>_bucket/_count/_sum,
  * per histogram label set: bucket 'le' bounds strictly increase,
    cumulative counts are non-decreasing, the mandatory '+Inf' bucket
    is present and equals the '_count' sample,
  * counter and histogram sample values are non-negative integers.

A golden schema of families the serving/engine planes must export can
be enforced with --require (repeatable):

  check_metrics.py dump.prom \
      --require ndirect_serve_requests:counter \
      --require ndirect_serve_e2e_ns:histogram

The exposition is usually scraped live from the admin plane
(serve/admin.h's GET /metrics) instead of read from a saved file:

  check_metrics.py --url http://localhost:9900/metrics --require ...

Exit status 0 on a valid exposition, 1 with a diagnostic otherwise.
"""
import argparse
import re
import sys
import urllib.request

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # metric name
    r"(\{.*\})?"                        # optional label set
    r" (\+Inf|-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_labels(raw):
    """Label string '{a="x",b="y"}' -> sorted tuple of (name, value)."""
    if not raw:
        return ()
    return tuple(sorted(LABEL_RE.findall(raw)))


def split_family(name, families):
    """Family the sample `name` belongs to, plus its suffix.

    Longest-match against declared families so ndirect_x_bucket
    resolves to family ndirect_x even when ndirect_x_bucket is not
    itself declared.
    """
    for fam in sorted(families, key=len, reverse=True):
        if name == fam:
            return fam, ""
        for suffix in ("_total", "_bucket", "_count", "_sum"):
            if name == fam + suffix:
                return fam, suffix
    return None, None


def main():
    ap = argparse.ArgumentParser(
        description="Validate an OpenMetrics exposition")
    ap.add_argument("path", nargs="?",
                    help="exposition file (omit with --url)")
    ap.add_argument(
        "--url", metavar="URL",
        help="scrape the exposition from a live admin endpoint "
             "instead of a file")
    ap.add_argument(
        "--require", action="append", default=[], metavar="FAMILY[:TYPE]",
        help="fail unless this family is present (and of this type)")
    args = ap.parse_args()

    if bool(args.url) == bool(args.path):
        ap.error("exactly one of PATH or --url is required")
    if args.url:
        try:
            with urllib.request.urlopen(args.url, timeout=10) as resp:
                ctype = resp.headers.get("Content-Type", "")
                text = resp.read().decode("utf-8")
        except OSError as e:
            fail(f"scrape of {args.url} failed: {e}")
        if "openmetrics-text" not in ctype:
            fail(f"{args.url}: Content-Type {ctype!r} is not an "
                 f"OpenMetrics exposition")
    else:
        with open(args.path) as f:
            text = f.read()
    if not text.endswith("# EOF\n"):
        fail("document must terminate with '# EOF'")
    lines = text.splitlines()
    if lines.count("# EOF") != 1:
        fail("exactly one '# EOF' line expected")

    types = {}        # family -> declared type
    closed = set()    # families whose block has ended
    current = None    # family of the open block
    samples = 0
    # histogram family -> {base labels -> list of (le, cum)} / counts
    hist_buckets = {}
    hist_counts = {}

    for i, line in enumerate(lines[:-1], 1):
        if line == "# EOF":
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                fail(f"line {i}: malformed TYPE line: {line!r}")
            _, _, fam, typ = parts
            if typ not in ("counter", "gauge", "histogram"):
                fail(f"line {i}: unknown type {typ!r} for {fam}")
            if fam in types:
                fail(f"line {i}: family {fam} declared twice")
            if current is not None:
                closed.add(current)
            types[fam] = typ
            current = fam
            continue
        if line.startswith("#"):
            fail(f"line {i}: unknown comment line: {line!r}")

        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {i}: unparseable sample: {line!r}")
        name, raw_labels, raw_value = m.groups()
        fam, suffix = split_family(name, types)
        if fam is None:
            fail(f"line {i}: sample {name!r} has no TYPE declaration")
        if fam != current:
            where = "closed block" if fam in closed else "later block"
            fail(f"line {i}: sample {name!r} outside its family's "
                 f"block ({where} of {fam})")
        samples += 1
        typ = types[fam]
        labels = parse_labels(raw_labels)

        expected = {"counter": ("_total",), "gauge": ("",),
                    "histogram": ("_bucket", "_count", "_sum")}[typ]
        if suffix not in expected:
            fail(f"line {i}: {typ} family {fam} has sample suffix "
                 f"{suffix or '(none)'!r}, expected one of {expected}")

        if typ in ("counter", "histogram"):
            if raw_value == "+Inf" or "." in raw_value or \
                    "e" in raw_value.lower():
                if not (typ == "histogram" and suffix == "_sum"):
                    fail(f"line {i}: {name} value {raw_value!r} is not "
                         f"a non-negative integer")
            elif int(raw_value) < 0:
                fail(f"line {i}: {name} is negative: {raw_value}")

        if typ == "histogram" and suffix == "_bucket":
            le = dict(labels).get("le")
            if le is None:
                fail(f"line {i}: {name} bucket sample without an 'le' "
                     f"label")
            base = tuple(kv for kv in labels if kv[0] != "le")
            bound = float("inf") if le == "+Inf" else float(le)
            hist_buckets.setdefault(fam, {}).setdefault(base, []).append(
                (i, bound, int(raw_value)))
        elif typ == "histogram" and suffix == "_count":
            hist_counts.setdefault(fam, {})[labels] = (i, int(raw_value))

    for fam, by_base in hist_buckets.items():
        for base, series in by_base.items():
            prev_bound, prev_cum = -1.0, -1
            for line_no, bound, cum in series:
                if bound <= prev_bound:
                    fail(f"line {line_no}: {fam} bucket bounds not "
                         f"increasing ({bound} after {prev_bound})")
                if cum < prev_cum:
                    fail(f"line {line_no}: {fam} cumulative bucket "
                         f"count decreases ({cum} after {prev_cum})")
                prev_bound, prev_cum = bound, cum
            if series[-1][1] != float("inf"):
                fail(f"{fam}{dict(base)}: missing mandatory '+Inf' "
                     f"bucket")
            count = hist_counts.get(fam, {}).get(base)
            if count is None:
                fail(f"{fam}{dict(base)}: no '_count' sample")
            if count[1] != series[-1][2]:
                fail(f"line {count[0]}: {fam}_count {count[1]} != "
                     f"'+Inf' bucket {series[-1][2]}")

    for req in args.require:
        fam, _, typ = req.partition(":")
        if fam not in types:
            fail(f"required family {fam!r} not exported")
        if typ and types[fam] != typ:
            fail(f"required family {fam!r} is a {types[fam]}, "
                 f"expected {typ}")

    print(f"check_metrics: OK: {len(types)} families, {samples} samples"
          + (f", {len(args.require)} required present"
             if args.require else ""))


if __name__ == "__main__":
    main()
