#!/usr/bin/env python3
"""Perf-trajectory gate for BENCH_*.json files.

Usage:
    check_perf.py CURRENT BASELINE [--threshold 0.20] [--keys k1,k2,...]

Compares the timing keys of a freshly produced BENCH_*.json against a
checked-in baseline and exits nonzero when any gated key regressed by
more than the threshold (current > baseline * (1 + threshold)).

The comparison is meta-aware: wall-clock numbers are only comparable
between runs of the same machine shape and build. When the "meta"
blocks differ on any of the identity fields (compiler, build type,
C++ flags, hardware concurrency, resolved thread count, resolved SIMD
level) the host-dependent keys (times, RSS) are SKIPPED instead of
producing a false verdict — a laptop must not fail CI against a CI-host
baseline, and an AVX-512 host must not be judged against scalar-kernel
numbers (or vice versa). The host-independent keys are compared on
every host: symbolic fill ("*_fill_bytes"), L nonzeros ("*_nnz_l"),
elimination-tree height ("*_etree_height"), accounted peak bytes
("*_peak_bytes", never "*_rss_bytes") and accuracy ("*_err"). The
diagnostic lists which identity fields diverged AND every gated key that
consequently went uncompared, so a silent skip can never masquerade as
a pass in CI logs. Every outcome ends with a one-line
"check_perf: PASS/FAIL/SKIP" summary; SKIP means no key was compared.

Gated keys: by default every key ending in "_s" or "_ms" (seconds /
milliseconds) or "_bytes" (peak memory), plus the host-independent keys
above — smaller is better for all of them, so one regression rule
covers time, space, fill and error. A gated key may
also hold a numeric list (a series, e.g. a time-vs-ports or
memory-vs-n curve); it is then compared element-wise against the
baseline list, and a length mismatch is a failure (the series' shape
is part of the contract). Ratio keys ("*_speedup") are reported but
never gated; they are derived from the gated times and noisy in both
directions.
"""

import argparse
import json
import sys

META_IDENTITY_FIELDS = (
    "compiler",
    "build_type",
    "cxx_flags",
    "hardware_concurrency",
    "resolved_threads",
    # Recorded by obs::run_metadata_json since the SIMD dispatch layer
    # landed; older baselines without the field mismatch against newer
    # runs (None != "avx512"), which correctly forces a re-baseline.
    "simd_level",
)


# Suffixes of keys whose values do not depend on the host: counts from
# the symbolic analysis, bytes the library accounts for itself, and
# accuracy. "*_rss_bytes" is measured by the OS and stays host-dependent.
HOST_INDEPENDENT_SUFFIXES = (
    "_fill_bytes",
    "_nnz_l",
    "_etree_height",
    "_peak_bytes",
    "_err",
)


def host_independent(key):
    return key.endswith(HOST_INDEPENDENT_SUFFIXES)


def load(path):
    with open(path) as f:
        return json.load(f)


def meta_mismatches(current, baseline):
    cm, bm = current.get("meta", {}), baseline.get("meta", {})
    return [
        (field, cm.get(field), bm.get(field))
        for field in META_IDENTITY_FIELDS
        if cm.get(field) != bm.get(field)
    ]


def is_numeric_list(v):
    return (isinstance(v, list) and len(v) > 0
            and all(isinstance(x, (int, float)) for x in v))


def gated_keys(doc, explicit):
    if explicit:
        return explicit
    return [
        k
        for k, v in doc.items()
        if k != "meta"
        and (isinstance(v, (int, float)) or is_numeric_list(v))
        and (k.endswith(("_s", "_ms", "_bytes")) or host_independent(k))
    ]


def compare_scalar(key, cur, base, threshold, failures):
    """Prints one gated comparison line; appends to failures on regression."""
    if base <= 0.0:
        print(f"  {key}: baseline {base:.6g} not positive, skipped")
        return
    ratio = cur / base
    verdict = "OK"
    if ratio > 1.0 + threshold:
        verdict = "REGRESSION"
        failures.append(f"{key}: {base:.6g} -> {cur:.6g} "
                        f"({(ratio - 1.0) * 100.0:+.1f}%)")
    print(f"  {key}: baseline {base:.6g}  current {cur:.6g}  "
          f"({(ratio - 1.0) * 100.0:+.1f}%)  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed relative regression (default 0.20)")
    parser.add_argument("--keys", default="",
                        help="comma-separated keys to gate (default: all "
                             "*_s / *_ms / *_bytes keys present in the "
                             "baseline)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    explicit = [k for k in args.keys.split(",") if k]

    keys = gated_keys(baseline, explicit)
    if not keys:
        print(f"check_perf: {args.baseline} has no gated timing keys")
        return 2

    mismatches = meta_mismatches(current, baseline)
    skipped = []
    if mismatches:
        skipped = [k for k in keys if not host_independent(k)]
        keys = [k for k in keys if host_independent(k)]
        print(f"check_perf: meta mismatch — wall-clock numbers from "
              f"different machine shapes/builds are not comparable:")
        for field, cur, base in mismatches:
            print(f"  {field}: current={cur!r} baseline={base!r}")
        print(f"check_perf: the following {len(skipped)} gated key(s) were "
              "NOT compared because of the mismatch above:")
        for key in skipped:
            print(f"  {key} (baseline {baseline.get(key)!r}, "
                  f"current {current.get(key)!r})")
        fields = ", ".join(field for field, _, _ in mismatches)
        if not keys:
            print(f"check_perf: SKIP {args.current} — {len(skipped)} key(s) "
                  f"skipped (meta mismatch on: {fields})")
            return 0
        print(f"check_perf: comparing the {len(keys)} host-independent "
              "key(s) on this host:")

    failures = []
    for key in keys:
        if key not in current or key not in baseline:
            failures.append(f"{key}: missing from "
                            f"{'current' if key not in current else 'baseline'}")
            continue
        if is_numeric_list(baseline[key]) or is_numeric_list(current[key]):
            cur_list, base_list = current[key], baseline[key]
            if not (is_numeric_list(cur_list) and is_numeric_list(base_list)):
                failures.append(f"{key}: list/scalar type mismatch between "
                                "current and baseline")
                continue
            if len(cur_list) != len(base_list):
                failures.append(f"{key}: series length changed "
                                f"{len(base_list)} -> {len(cur_list)}")
                continue
            for i, (cur, base) in enumerate(zip(cur_list, base_list)):
                compare_scalar(f"{key}[{i}]", float(cur), float(base),
                               args.threshold, failures)
            continue
        compare_scalar(key, float(current[key]), float(baseline[key]),
                       args.threshold, failures)

    for key, value in sorted(current.items()):
        if key.endswith("_speedup"):
            print(f"  {key}: {value:.3g} (informational)")

    if failures:
        print(f"check_perf: FAIL {args.current} — "
              f"{len(failures)} gated key(s) regressed "
              f">{args.threshold * 100:.0f}%:")
        for f in failures:
            print(f"  {f}")
        return 1
    note = (f"; {len(skipped)} host-dependent key(s) skipped"
            if skipped else "")
    print(f"check_perf: PASS {args.current} ({len(keys)} keys gated{note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
