"""Per-layer metrics derived from the spans of one traced run.

Naming: a ``*_ms`` metric is the median per call, and ``*_s``, ``*_bytes``
and ``*_calls`` are totals over the traced CLI run.  ``seeding.derive_seed_ms``
is a total too: it exists to show that seeding stays negligible.  A layer
the workload does not run (the recorder under ``ldm``, the writers under
``compare``, a family not in its specs) reads 0, and ``layers_run`` in the
detail record lists the layers that did run.
"""

from __future__ import annotations

import statistics

from child import MODEL_CLASSES

FAMILIES = tuple(MODEL_CLASSES)

# Seeding calls: make_rng derives exactly one seed per call.
SEEDING = ("cli.derive_seed", "ldm.derive_seed", "ldm.make_rng", "recorder.make_rng")

LAYER_OF = {
    "cli.main": "cli",
    "cli.builtin_iris": "dataset",
    "ldm.permute_labels": "dataset",
    "recorder.random_labels": "dataset",
    "cli.build_ldm": "ldm",
    "ldm.ldm_column": "ldm",
    "ldm.simplex_vector": "ldm",
    "ldm.matrix": "ldm",
    "cli.write_ldm_csv": "ldm",
    "cli.fit_dirichlet": "dirichlet",
    "cli.fit_report_json": "dirichlet",
    "dirichlet.dirichlet_entropy": "dirichlet",
    "dirichlet.lgamma": "dirichlet",
    "cli.render_pgm": "heatmap",
    "cli.estimate_capacity": "recorder",
    "recorder.record_trial": "recorder",
    "ldm.fit": "classifiers",
    "recorder.fit": "classifiers",
    "classifiers.predict": "classifiers",
    **{name: "seeding" for name in SEEDING},
}


def _metric_table() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    table = []
    for family in FAMILIES:
        table += [
            (f"classifiers.fit_ms.{family}.ldm", "ms"),
            (f"classifiers.fit_ms.{family}.recorder", "ms"),
            (f"classifiers.fit_count.{family}.ldm", "count"),
            (f"classifiers.fit_count.{family}.recorder", "count"),
            (f"classifiers.predict_ms.{family}", "ms"),
            (f"recorder.trial_ms.{family}", "ms"),
        ]
    table += [
        ("recorder.self_ms", "ms"),
        ("dataset.relabel_ms", "ms"),
        ("dataset.load_ms", "ms"),
        ("ldm.build_s", "s"),
        ("ldm.column_ms", "ms"),
        ("ldm.simplex_ms", "ms"),
        ("ldm.kron_self_ms", "ms"),
        ("ldm.matrix_reads", "count"),
        ("ldm.matrix_stack_s", "s"),
        ("ldm.matrix_bytes", "bytes"),
        ("ldm.csv_write_s", "s"),
        ("ldm.csv_bytes", "bytes"),
        ("heatmap.render_s", "s"),
        ("heatmap.pgm_bytes", "bytes"),
        ("dirichlet.fit_s", "s"),
        ("dirichlet.iterations", "count"),
        ("dirichlet.converged_ratio", "ratio"),
        ("dirichlet.entropy_s", "s"),
        ("dirichlet.lgamma_s", "s"),
        ("seeding.derive_seed_calls", "count"),
        ("seeding.derive_seed_ms", "ms"),
        ("cli.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.span_coverage", "ratio"),
    ]
    return table


METRICS = _metric_table()


class Spans:
    """Durations, self times and lookups over one run's span list."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.duration = [s["end"] - s["start"] for s in spans]
        # Children run one after another in one thread, so their durations
        # add up without overlap.
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s["parent"] >= 0:
                child_time[s["parent"]] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def select(self, name: str, **attrs) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s["name"] == name
            and all((s["attrs"] or {}).get(k) == v for k, v in attrs.items())
        ]

    def total(self, names) -> float:
        return sum(self.duration[i] for name in names for i in self.select(name))

    def median_ms(self, indices: list[int], values=None) -> float:
        values = values or self.duration
        return 1000.0 * statistics.median(values[i] for i in indices) if indices else 0.0

    def attr_total(self, name: str, key: str) -> float:
        return sum(self.spans[i]["attrs"][key] for i in self.select(name))

    def self_by_layer(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            layer = LAYER_OF[s["name"]]
            layers[layer] = layers.get(layer, 0.0) + self.self_time[i]
        return layers


def per_layer(spans: list[dict], traced_wall: float, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``traced_wall`` runs from the traced child's spawn to the return of
    ``cli.main``; ``overhead_s`` is how much longer that took than in the
    untraced children.
    """
    sp = Spans(spans)
    values: dict[str, float] = {}
    predicts = sp.select("classifiers.predict")
    outer_predicts = [
        i for i in predicts
        if spans[i]["parent"] < 0 or spans[spans[i]["parent"]]["name"] != "classifiers.predict"
    ]
    for family in FAMILIES:
        ldm_fits = sp.select("ldm.fit", family=family)
        recorder_fits = sp.select("recorder.fit", family=family)
        values[f"classifiers.fit_ms.{family}.ldm"] = sp.median_ms(ldm_fits)
        values[f"classifiers.fit_ms.{family}.recorder"] = sp.median_ms(recorder_fits)
        values[f"classifiers.fit_count.{family}.ldm"] = len(ldm_fits)
        values[f"classifiers.fit_count.{family}.recorder"] = len(recorder_fits)
        values[f"classifiers.predict_ms.{family}"] = sp.median_ms(
            [i for i in outer_predicts if spans[i]["attrs"]["family"] == family]
        )
        values[f"recorder.trial_ms.{family}"] = sp.median_ms(
            sp.select("recorder.record_trial", family=family)
        )
    fits = sp.select("cli.fit_dirichlet")
    matrices = sp.select("ldm.matrix")
    main = sp.select("cli.main")[0]
    covered = sp.duration[main] - sp.self_time[main]
    values.update({
        "recorder.self_ms": sp.median_ms(sp.select("recorder.record_trial"), sp.self_time),
        "dataset.relabel_ms": sp.median_ms(
            sp.select("ldm.permute_labels") + sp.select("recorder.random_labels")
        ),
        "dataset.load_ms": 1000.0 * sp.total(["cli.builtin_iris"]),
        "ldm.build_s": sp.total(["cli.build_ldm"]),
        "ldm.column_ms": sp.median_ms(sp.select("ldm.ldm_column")),
        "ldm.simplex_ms": sp.median_ms(sp.select("ldm.simplex_vector")),
        "ldm.kron_self_ms": sp.median_ms(sp.select("ldm.simplex_vector"), sp.self_time),
        "ldm.matrix_reads": len(matrices),
        "ldm.matrix_stack_s": sp.total(["ldm.matrix"]),
        "ldm.matrix_bytes": spans[matrices[0]]["attrs"]["bytes"] if matrices else 0,
        "ldm.csv_write_s": sp.total(["cli.write_ldm_csv"]),
        "ldm.csv_bytes": sp.attr_total("cli.write_ldm_csv", "bytes"),
        "heatmap.render_s": sp.total(["cli.render_pgm"]),
        "heatmap.pgm_bytes": sp.attr_total("cli.render_pgm", "bytes"),
        "dirichlet.fit_s": sp.total(["cli.fit_dirichlet"]),
        "dirichlet.iterations": statistics.median(
            spans[i]["attrs"]["iterations"] for i in fits
        ) if fits else 0,
        "dirichlet.converged_ratio": sum(
            spans[i]["attrs"]["converged"] for i in fits
        ) / len(fits) if fits else 0.0,
        "dirichlet.entropy_s": sp.total(["dirichlet.dirichlet_entropy"]),
        "dirichlet.lgamma_s": sp.total(["dirichlet.lgamma"]),
        "seeding.derive_seed_calls": sum(len(sp.select(name)) for name in SEEDING),
        "seeding.derive_seed_ms": 1000.0 * sp.total(SEEDING),
        "cli.self_s": sp.self_time[main],
        "trace.overhead_s": overhead_s,
        "trace.span_coverage": covered / traced_wall,
    })
    return values


def top_self(self_by_layer: dict[str, float], n: int = 3) -> list[list]:
    """The ``n`` layers with the most self time: [[layer, seconds], ...]."""
    return [[k, v] for k, v in sorted(self_by_layer.items(), key=lambda kv: -kv[1])[:n]]
