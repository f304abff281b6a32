#!/usr/bin/env python3
"""Fold the per-PR bench files into one trajectory and gate on regressions.

Usage:
    python3 tools/bench_diff.py [options] BENCH_kv_pr*.json [BENCH_perf_pr*.json]

    --out FILE        trajectory output (default BENCH_trajectory.json)
    --threshold X     allowed within-run ratio degradation (default 0.08)
    --sat-threshold X allowed goodput droop past the knee   (default 0.10)
    --scan-threshold X  minimum under-write-load per-scanner scan rate
                      as a fraction of the same cell's upd=0 baseline
                      (default 0.40)
    --expect-modes M  comma list of modes each file MUST contain
                      (e.g. "saturation"); missing modes are a
                      malformed-input error, not a silent pass
    --warn-only       report regressions but always exit 0
    --no-trajectory   gate only, do not rewrite the trajectory file
    --check-trajectory FILE
                      fail (exit 1) when a perfbench file given is missing
                      from FILE's "perf" list, or its entry there differs
                      from what the file folds to now; writes nothing

Exit codes: 0 = clean, 1 = regression findings, 2 = malformed input
(unreadable file, missing column, missing expected mode) — distinct so
CI can tell "the numbers are bad" from "the harness is broken".

Why within-run ratios and not cross-PR absolutes: the committed bench
files come from whatever host each PR happened to run on (the current
ones ran on a 1-vCPU VM where an A/A rerun of the *same binary* moves
by several percent, see the aa_ratio column).  Absolute Mops/s across
PRs therefore measure the host, not the code.  Every check below
compares two numbers measured in the SAME run, interleaved on the same
host seconds apart, where the methodology noise mostly cancels:

  * obs_overhead rows: on_off_ratio (metrics-on / metrics-off) judged
    against that row's own aa_ratio (two identical metrics-off stores
    through the same harness — the same-run noise floor).  The gate
    trips when metrics cost more than the noise floor plus threshold.
  * resize rows: post_mops / fresh_mops — throughput on a post-resize
    table vs a natively-built table of the same geometry.  A drop
    beyond threshold means migration left the table structurally worse.
  * persist rows: wal_durable_lag must be 0 when sync=always (a
    correctness property of the durable gate, not a perf number).
  * scan rows (per tracker x width x thread-count cell): per-scanner
    keys/s with concurrent writers must hold --scan-threshold of the
    SAME cell's upd=0 baseline — protection-disciplined range scans
    may restart on helped deletions, but write traffic must degrade
    them, not starve them.
  * bst_upsert rows (per tracker x thread-count pair): the in-place
    value-cell upsert must beat the remove+insert path on the
    50%-update mix — the tombstone refactor's headline claim, judged
    within one interleaved run per tracker.
  * saturation rows (per tracker x thread-count group): the admission
    acceptance gate.  Controller-ON goodput at >=2x the measured
    capacity must hold within --sat-threshold of that group's own peak
    (overload must not collapse admitted work), it must beat the
    controller-OFF goodput at the same offered load, and the OFF curve
    must actually collapse (drop below half its peak) — otherwise the
    sweep never drove the store into the regime the controller exists
    for and the row proves nothing.

The trajectory file keeps a compact per-PR summary (medians per mode)
so the numbers remain inspectable over time without re-parsing every
raw file.  Its "perf" list folds the perfbench pair files
(BENCH_perf_pr*.json): per workload and metric, the parent and change
medians from the file's own summary (and trace_summary), with the
file's parent commit and host.  Those are within-session pairs; the
host is recorded because runs from different hosts must never be
pooled.  Perf files are folded, not gated: their claims were judged
when the pairs ran.
"""

import argparse
import json
import re
import statistics
import sys


class MalformedInput(Exception):
    """A bench file the gate cannot judge: name exactly what is missing."""


def need(row, key, path, mode):
    if key not in row:
        raise MalformedInput(
            "%s: %s row (tracker=%s threads=%s) is missing column %r"
            % (path, mode, row.get("tracker", "?"), row.get("threads", "?"),
               key))
    return row[key]


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise MalformedInput("%s: unreadable (%s)" % (path, e))
    except json.JSONDecodeError as e:
        raise MalformedInput("%s: not valid JSON (%s)" % (path, e))
    if isinstance(doc, dict):
        if "results" not in doc:
            raise MalformedInput("%s: no 'results' array" % path)
        rows, meta = doc["results"], {
            k: v for k, v in doc.items() if k != "results"
        }
    else:
        rows, meta = doc, {}
    if not isinstance(rows, list):
        raise MalformedInput("%s: 'results' is not an array" % path)
    return meta, [r for r in rows if isinstance(r, dict)]


def median(xs):
    return statistics.median(xs) if xs else None


def is_perf_file(path):
    return re.search(r"BENCH_perf_pr\d+\.json$", path) is not None


def summarize_perf(path):
    """Trajectory entry for one perfbench pair file: per workload and
    metric, the parent and change medians its summary recorded."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedInput("%s: unreadable (%s)" % (path, e))
    if not isinstance(doc, dict) or not isinstance(doc.get("summary"), dict):
        raise MalformedInput("%s: no 'summary' object" % path)
    cfg = doc.get("config", {})
    out = {"file": path, "parent": cfg.get("parent"),
           "host": cfg.get("cpu_family_model"), "workloads": {}}
    for section in ("summary", "trace_summary"):
        for workload, metrics in sorted(doc.get(section, {}).items()):
            folded = {}
            for metric, m in metrics.items():
                if not isinstance(m, dict) or "parent_q1_median_q3" not in m:
                    continue  # pair counts, or a per-seed breakdown
                p = m["parent_q1_median_q3"][1]
                c = m["change_q1_median_q3"][1]
                folded[metric] = {
                    "parent_median": p, "change_median": c,
                    "change_vs_parent": round((c - p) / p, 4) if p else None,
                    "change_wins": m.get("change_wins")}
            if folded:
                key = workload + ("_trace" if section == "trace_summary" else "")
                out["workloads"][key] = folded
    if not out["workloads"]:
        raise MalformedInput("%s: summary holds no parent/change medians" % path)
    return out


def check_trajectory(path, perf):
    """Findings for perf entries missing from, or stale in, the committed
    trajectory at `path`."""
    try:
        with open(path) as f:
            committed = json.load(f).get("perf", [])
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedInput("%s: unreadable (%s)" % (path, e))
    by_file = {e.get("file"): e for e in committed}
    findings = []
    for entry in perf:
        have = by_file.get(entry["file"])
        if have is None:
            findings.append("%s is missing from %s" % (entry["file"], path))
        elif have != entry:
            findings.append("%s: its entry in %s is stale" % (entry["file"], path))
    return findings


def summarize(path, meta, rows):
    """Compact per-file summary for the trajectory."""
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r.get("mode") or "op", []).append(r)
    out = {"file": path, "config": meta, "modes": {}}
    for mode, rs in sorted(by_mode.items()):
        s = {"rows": len(rs)}
        if mode in ("op", "persist"):
            # Every op/persist row must carry the headline series; a row
            # without it is a truncated or hand-mangled file, not a
            # slower build.
            s["median_mops"] = median(
                [float(need(r, "mops", path, mode)) for r in rs])
            p99s = [r["get_p99_ns"] for r in rs if r.get("get_p99_ns")]
            if p99s:
                s["median_get_p99_ns"] = median(p99s)
        if mode == "resize":
            ratios = [
                r["post_mops"] / r["fresh_mops"]
                for r in rs
                if r.get("fresh_mops")
            ]
            if ratios:
                s["median_post_fresh_ratio"] = round(median(ratios), 4)
        if mode == "obs_overhead":
            s["median_on_off_ratio"] = round(
                median([r["on_off_ratio"] for r in rs if "on_off_ratio" in r])
                or 0, 4)
            s["median_aa_ratio"] = round(
                median([r["aa_ratio"] for r in rs if "aa_ratio" in r]) or 0, 4)
        if mode == "scan":
            rates = [
                r["keys_per_scanner_sec"]
                for r in rs
                if "keys_per_scanner_sec" in r
            ]
            if rates:
                s["median_keys_per_scanner_sec"] = round(median(rates), 1)
            restarts = [r["scan_restarts"] for r in rs if "scan_restarts" in r]
            if restarts:
                s["total_scan_restarts"] = sum(restarts)
        if mode == "bst_upsert":
            for up in ("inplace", "copy"):
                m = median([
                    float(need(r, "mops", path, mode))
                    for r in rs
                    if r.get("upsert") == up
                ])
                if m is not None:
                    s["median_mops_%s" % up] = round(m, 4)
        if mode == "saturation":
            for ctrl in ("on", "off"):
                good = [
                    r["goodput_mops"]
                    for r in rs
                    if r.get("controller") == ctrl and "goodput_mops" in r
                ]
                if good:
                    s["peak_goodput_%s" % ctrl] = round(max(good), 4)
        out["modes"][mode] = s
    return out


def check_saturation(path, rows, sat_threshold):
    """The admission acceptance gate (see module docstring)."""
    findings = []
    groups = {}
    for r in rows:
        key = (r.get("tracker", "?"), r.get("threads", "?"))
        groups.setdefault(key, {"on": [], "off": []})
        ctrl = need(r, "controller", path, "saturation")
        if ctrl not in ("on", "off"):
            raise MalformedInput(
                "%s: saturation row has controller=%r (want 'on'/'off')"
                % (path, ctrl))
        groups[key][ctrl].append(r)
    for (tracker, threads), g in sorted(groups.items()):
        where = "%s %s t=%s" % (path, tracker, threads)

        def goodput(r):
            return float(need(r, "goodput_mops", path, "saturation"))

        def ratio(r):
            return float(need(r, "offered_ratio", path, "saturation"))

        on_high = [r for r in g["on"] if ratio(r) >= 2.0]
        if g["on"] and not on_high:
            findings.append(
                "%s: no controller-on saturation rows at >=2x capacity "
                "(max offered_ratio=%.2f) — the ramp never reached the "
                "overload regime the gate judges"
                % (where, max(ratio(r) for r in g["on"])))
        if on_high:
            # Peak over the at-capacity-and-beyond rows only: below the
            # knee nothing sheds, so goodput there just echoes offered
            # load — it measures the ramp, not the controller.
            peak = max(goodput(r) for r in g["on"] if ratio(r) >= 1.0)
            hold = min(goodput(r) for r in on_high)
            if hold < (1.0 - sat_threshold) * peak:
                findings.append(
                    "%s: controller-on goodput collapses past the knee "
                    "(%.3f Mops at >=2x capacity vs peak %.3f, budget %.0f%%)"
                    % (where, hold, peak, sat_threshold * 100))
        off_high = [r for r in g["off"] if ratio(r) >= 2.0]
        if off_high:
            off_peak = max(goodput(r) for r in g["off"])
            off_hold = min(goodput(r) for r in off_high)
            if off_hold > 0.5 * off_peak:
                findings.append(
                    "%s: controller-off goodput did NOT collapse under "
                    "overload (%.3f Mops at >=2x capacity vs peak %.3f) — "
                    "the sweep is not exercising the failure mode"
                    % (where, off_hold, off_peak))
            # Paired on-vs-off at the same offered load: admission must
            # win wherever the store is actually overloaded.
            off_by_ratio = {round(ratio(r), 3): r for r in off_high}
            for r in on_high:
                off_r = off_by_ratio.get(round(ratio(r), 3))
                if off_r is not None and goodput(r) < goodput(off_r):
                    findings.append(
                        "%s: controller-on goodput %.3f below controller-off "
                        "%.3f at %.2fx capacity — admission is losing to "
                        "no admission under overload"
                        % (where, goodput(r), goodput(off_r), ratio(r)))
    return findings


def check_scan(path, rows, scan_threshold):
    """Per-cell scan interference gate: writers degrade, never starve."""
    findings = []
    cells = {}
    for r in rows:
        key = (r.get("tracker", "?"), r.get("scan_width", "?"),
               r.get("threads", "?"))
        cells.setdefault(key, []).append(r)
    for (tracker, width, threads), rs in sorted(cells.items()):
        where = "%s %s width=%s t=%s" % (path, tracker, width, threads)

        def rate(r):
            return float(need(r, "keys_per_scanner_sec", path, "scan"))

        base = [r for r in rs if need(r, "upd_pct", path, "scan") == 0]
        loaded = [r for r in rs if r["upd_pct"] != 0]
        if loaded and not base:
            raise MalformedInput(
                "%s: scan rows under write load but no upd=0 baseline row "
                "in the same (tracker, width, threads) cell" % where)
        if not base:
            continue
        baseline = max(rate(r) for r in base)
        for r in loaded:
            if rate(r) < scan_threshold * baseline:
                findings.append(
                    "%s upd=%s%%: per-scanner scan rate %.0f keys/s below "
                    "%.0f%% of the upd=0 baseline %.0f — concurrent writers "
                    "are starving the range scans"
                    % (where, r["upd_pct"], rate(r), scan_threshold * 100,
                       baseline))
    return findings


def check_bst_upsert(path, rows):
    """In-place value-cell upsert must beat remove+insert, per tracker."""
    findings = []
    pairs = {}
    for r in rows:
        key = (r.get("tracker", "?"), r.get("threads", "?"))
        up = need(r, "upsert", path, "bst_upsert")
        if up not in ("inplace", "copy"):
            raise MalformedInput(
                "%s: bst_upsert row has upsert=%r (want 'inplace'/'copy')"
                % (path, up))
        pairs.setdefault(key, {})[up] = float(need(r, "mops", path,
                                                   "bst_upsert"))
    for (tracker, threads), p in sorted(pairs.items()):
        where = "%s %s t=%s" % (path, tracker, threads)
        if "inplace" not in p or "copy" not in p:
            raise MalformedInput(
                "%s: bst_upsert cell is missing its %s row"
                % (where, "copy" if "copy" not in p else "inplace"))
        if p["inplace"] < p["copy"]:
            findings.append(
                "%s: in-place upsert %.3f Mops/s loses to remove+insert "
                "%.3f — the value-cell fast path is not paying for itself"
                % (where, p["inplace"], p["copy"]))
    return findings


def check(path, rows, threshold, sat_threshold, scan_threshold):
    """Within-run regression checks; returns a list of findings.

    The ratio gates judge per-file MEDIANS, not individual rows: on a
    small host a single interleaved window still moves ±10%, and the
    median across trackers/thread-counts is the statistic that cancels
    it.  The durable-lag check is exact and stays per-row.
    """
    findings = []
    on_off, aa, post_fresh, sat_rows = [], [], [], []
    scan_rows, bst_rows = [], []
    for r in rows:
        mode = r.get("mode")
        if mode == "scan":
            scan_rows.append(r)
        elif mode == "bst_upsert":
            bst_rows.append(r)
        elif mode == "obs_overhead":
            on_off.append(need(r, "on_off_ratio", path, mode))
            aa.append(need(r, "aa_ratio", path, mode))
        elif mode == "resize":
            if r.get("fresh_mops"):
                post_fresh.append(
                    need(r, "post_mops", path, mode) / r["fresh_mops"])
        elif mode == "persist":
            if r.get("sync") == "always" and r.get("wal_durable_lag", 0) != 0:
                findings.append(
                    "%s %s t=%s sync=always: wal_durable_lag=%s (must be 0: "
                    "every op returns only after its record is durable)"
                    % (path, r.get("tracker", "?"), r.get("threads"),
                       r["wal_durable_lag"]))
        elif mode == "saturation":
            sat_rows.append(r)
    if on_off:
        # Median on/off below the median A/A noise floor by more than the
        # budget: the metrics probes cost real throughput.
        gap = median(aa) - median(on_off)
        if gap > threshold:
            findings.append(
                "%s: metrics overhead %.1f%% beyond noise floor "
                "(median on/off=%.3f, median A/A floor=%.3f, budget=%.0f%%)"
                % (path, gap * 100, median(on_off), median(aa),
                   threshold * 100))
    if post_fresh:
        ratio = median(post_fresh)
        if ratio < 1.0 - threshold:
            findings.append(
                "%s: post-resize tables %.1f%% slower than fresh tables of "
                "the same shape (median post/fresh=%.3f)"
                % (path, (1.0 - ratio) * 100, ratio))
    if sat_rows:
        findings.extend(check_saturation(path, sat_rows, sat_threshold))
    if scan_rows:
        findings.extend(check_scan(path, scan_rows, scan_threshold))
    if bst_rows:
        findings.extend(check_bst_upsert(path, bst_rows))
    return findings


def pr_key(path):
    m = re.search(r"pr(\d+)", path)
    return (int(m.group(1)) if m else 0, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--out", default="BENCH_trajectory.json")
    ap.add_argument("--threshold", type=float, default=0.08)
    ap.add_argument("--sat-threshold", type=float, default=0.10)
    ap.add_argument("--scan-threshold", type=float, default=0.40)
    ap.add_argument("--expect-modes", default="",
                    help="comma list of modes every file must contain")
    ap.add_argument("--warn-only", action="store_true")
    ap.add_argument("--no-trajectory", action="store_true")
    ap.add_argument("--check-trajectory", metavar="FILE")
    args = ap.parse_args()
    expected = [m for m in args.expect_modes.split(",") if m]

    trajectory = []
    perf = []
    findings = []
    missing = []
    try:
        for path in sorted(args.files, key=pr_key):
            if is_perf_file(path):
                perf.append(summarize_perf(path))
                continue
            meta, rows = load_rows(path)
            present = {r.get("mode") or "op" for r in rows}
            for m in expected:
                if m not in present:
                    raise MalformedInput(
                        "%s: expected mode %r has no rows (modes present: %s)"
                        % (path, m, ", ".join(sorted(present)) or "none"))
            trajectory.append(summarize(path, meta, rows))
            findings.extend(
                check(path, rows, args.threshold, args.sat_threshold,
                      args.scan_threshold))
        if args.check_trajectory:
            missing = check_trajectory(args.check_trajectory, perf)
    except MalformedInput as e:
        print("MALFORMED INPUT: %s" % e, file=sys.stderr)
        return 2

    if not args.no_trajectory and not args.check_trajectory:
        with open(args.out, "w") as f:
            json.dump({"threshold": args.threshold, "entries": trajectory,
                       "perf": perf}, f, indent=1)
            f.write("\n")
        print("wrote %s (%d bench files, %d perf files)"
              % (args.out, len(trajectory), len(perf)))

    for t in trajectory:
        line = "  %-22s" % t["file"]
        for mode, s in t["modes"].items():
            if "median_mops" in s and s["median_mops"] is not None:
                line += " %s=%.2fMops" % (mode, s["median_mops"])
            if "median_post_fresh_ratio" in s:
                line += " post/fresh=%.3f" % s["median_post_fresh_ratio"]
            if "median_on_off_ratio" in s:
                line += " obs=%.3f(aa=%.3f)" % (s["median_on_off_ratio"],
                                                s["median_aa_ratio"])
            if "median_keys_per_scanner_sec" in s:
                line += " scan=%.0fk/s" % (
                    s["median_keys_per_scanner_sec"] / 1e3)
            if "median_mops_inplace" in s:
                line += " bst_up=%.2f/%.2f" % (
                    s["median_mops_inplace"], s.get("median_mops_copy", 0))
            if "peak_goodput_on" in s:
                line += " sat_on=%.2f/off=%.2f" % (
                    s["peak_goodput_on"], s.get("peak_goodput_off", 0))
        print(line)
    for e in perf:
        line = "  %-22s" % e["file"]
        for workload, metrics in e["workloads"].items():
            for metric in ("throughput_mops", "read_p50_us"):
                if metric in metrics and metrics[metric]["change_vs_parent"] is not None:
                    line += " %s.%s=%+.1f%%" % (
                        workload, metric, 100 * metrics[metric]["change_vs_parent"])
        print(line)

    if missing:
        for m in missing:
            print("TRAJECTORY: " + m)
        print("fold them in: python3 tools/bench_diff.py BENCH_kv_pr*.json "
              "BENCH_perf_pr*.json")
        return 1
    if findings:
        print("\n%d regression finding(s):" % len(findings))
        for f in findings:
            print("  REGRESSION: " + f)
        if args.warn_only:
            print("warn-only: not failing the build")
            return 0
        return 1
    print("no regressions beyond threshold %.0f%%" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
