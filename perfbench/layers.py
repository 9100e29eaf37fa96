"""Per-layer metrics: which wrapped functions feed which metric, and why.

Every ``*_s`` metric is a self time (a call's duration minus the wrapped
calls beneath it), so the layer times of one pass add up to its traced
wall time less the harness's own share. Counts are exact and repeat from
run to run. Next to each metric is the end-to-end metric it should move.
"""

from collections import Counter

# Self time of these functions goes to the named metric.
FUNCTION_METRIC = {
    # certify_s on both spectrum workloads
    "spectra.build_block": "spectra.build_block_s",
    "spectra.omega_split": "spectra.build_block_s",
    # certify_s: build_level's self time is the offset-search loop
    "spectra.build_level": "spectra.build_level_s",
    # certify_s and replay_s on both spectrum workloads
    "spectra.verify_orthogonal": "spectra.verify_orthogonal_s",
    "spectra.verify_tail_lower_bound": "spectra.verify_tail_s",
    # certify_s on spectrum-persistent only; zero on spectrum-recurrent
    "spectra.extension_factor_floor": "spectra.factor_floor_s",
    # certify_s, replay_s and the plot-data time
    "fourier.nu_hat_tail": "fourier.nu_hat_tail_s",
    "fourier.zero_set_member": "fourier.zero_set_member_s",
    "fourier.mu_hat_shifted_grid": "fourier.shifted_grid_s",
    # certify_s and replay_s on tile-deep
    "tiling.aggregate": "tiling.aggregate_s",
    "tiling.build_complement": "tiling.complement_s",
    "tiling.verify_tiling": "tiling.verify_tiling_s",
    "tiling.tile_predicate": "tiling.tile_predicate_s",
    # certify_s and peak_rss_mb (most on tile-deep); replay_s
    "certificates.tile_certificate": "certificates.emit_s",
    "certificates.spectrum_certificate": "certificates.emit_s",
    "certificates.verification_certificate": "certificates.emit_s",
    "certificates.tool_stamp": "certificates.emit_s",
    "certificates.dumps": "certificates.emit_s",
    "certificates.loads": "certificates.loads_s",
    "certificates.verify_certificate": "certificates.verify_certificate_s",
}

# Functions not named above go by module: config parsing and fingerprints
# (wall_s everywhere), the s-skeleton, classification and existence checks
# (certify_s and analyze), and the commands' own work: cmd_tile's
# distinctness scan, the plot loops, printing and file writes.
MODULE_METRIC = {
    "config": "config.load_s",
    "system": "system.classify_s",
    "cli": "cli.self_s",
}
OTHER = "layers.other_s"  # build_spectrum's level loop and other helpers


def _pairs(args, kwargs, result):
    n = len(args[1] if len(args) > 1 else kwargs["lam"])
    return {"pairs": n * (n - 1) // 2}


def _useful(args, kwargs, result):
    prev = args[1] if len(args) > 1 else kwargs["prev"]
    if result is prev:
        return {}
    nonzero = sum(1 for e in result.blocks[-1].elements if e != 0)
    return {"useful": nonzero * len(prev.elements)}


HOOKS = {
    "spectra.build_block": lambda a, k, r: {"block_elements": len(r.elements)},
    "spectra.build_level": _useful,
    "spectra.verify_orthogonal": _pairs,
    "tiling.aggregate": lambda a, k, r: {"aggregate_elements": len(r.elements)},
    "tiling.build_complement": lambda a, k, r: {"complement_elements": len(r.elements)},
    "tiling.verify_tiling": lambda a, k, r: {"cells": len(a[0]) * len(a[1])},
    "certificates.dumps": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "fourier.mu_hat_shifted_grid": lambda a, k, r: {"grid_points": len(r)},
}

# Filled in by the harness from the certified elements, not from spans.
DERIVED = ("spectra.orthogonal.top_distinct", "spectra.orthogonal.distinct_ratio")
PROCESS = ("proc.cpu_s", "proc.wait_s", "trace.overhead_s")

TIME_METRICS = sorted(
    set(FUNCTION_METRIC.values()) | set(MODULE_METRIC.values()) | {OTHER, "cli.plot_s"}
)
COUNT_METRICS = (
    "spectra.block_elements",
    "spectra.offset.tail_evals",
    "spectra.offset.useful_ratio",
    "spectra.orthogonal.pairs",
    "spectra.orthogonal.top_pairs",
    "spectra.tail.evals",
    "fourier.nu_hat_tail.calls",
    "fourier.zero_set_member.calls",
    "fourier.shifted_grid.calls",
    "fourier.grid_points",
    "tiling.aggregate.elements",
    "tiling.complement.elements",
    "tiling.verify_tiling.cells",
    "certificates.bytes",
)
ALL = tuple(TIME_METRICS) + COUNT_METRICS + DERIVED + PROCESS


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def time_metric(name):
    if name in FUNCTION_METRIC:
        return FUNCTION_METRIC[name]
    return MODULE_METRIC.get(name.partition(".")[0], OTHER)


def metrics(spans):
    """Per-layer metrics of one group of spans: a pass or one operation.

    Spans the harness opened itself (passes and operations) carry no layer
    name and add nothing but their children.
    """
    names = {span["id"]: span["name"] for span in spans}
    self_time = Counter()
    calls = Counter()
    under = Counter()  # (function, parent span's function) -> calls
    counts = Counter()
    top_pairs = 0
    plot = 0.0
    for span in spans:
        name = span["name"]
        parent = names.get(span["parent"])
        if not span.get("harness"):
            self_time[time_metric(name)] += span["self"]
            calls[name] += 1
            under[name, parent] += 1
        if name == "cli.cmd_plot_data":
            plot += span["end"] - span["start"]
        counts.update(span["counts"])
        if name == "spectra.verify_orthogonal":
            top_pairs = max(top_pairs, span["counts"].get("pairs", 0))
        for leaf, (n, _total, self_s) in span["leaves"].items():
            self_time[time_metric(leaf)] += self_s
            calls[leaf] += n
            under[leaf, name] += n
    tail_evals = under["fourier.nu_hat_tail", "spectra.build_level"]
    out = {metric: self_time[metric] for metric in TIME_METRICS}
    out["cli.plot_s"] = plot
    out.update({
        "spectra.block_elements": counts["block_elements"],
        "spectra.offset.tail_evals": tail_evals,
        "spectra.offset.useful_ratio": counts["useful"] / tail_evals if tail_evals else 0.0,
        "spectra.orthogonal.pairs": counts["pairs"],
        "spectra.orthogonal.top_pairs": top_pairs,
        "spectra.tail.evals": under["fourier.nu_hat_tail", "spectra.verify_tail_lower_bound"],
        "fourier.nu_hat_tail.calls": calls["fourier.nu_hat_tail"],
        "fourier.zero_set_member.calls": calls["fourier.zero_set_member"],
        "fourier.shifted_grid.calls": calls["fourier.mu_hat_shifted_grid"],
        "fourier.grid_points": counts["grid_points"],
        "tiling.aggregate.elements": counts["aggregate_elements"],
        "tiling.complement.elements": counts["complement_elements"],
        "tiling.verify_tiling.cells": counts["cells"],
        "certificates.bytes": counts["bytes"],
    })
    return out
