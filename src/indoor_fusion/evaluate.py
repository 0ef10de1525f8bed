"""Error statistics, cross-layout generalization runs, and CDF plotting.

Everything downstream of a localizer lands here: matched (timestamp,
estimate) / (timestamp, truth) series become an ErrorReport with an exact
empirical CDF and nearest-rank percentiles (``stamped`` turns time and
position arrays into such a series); a pair of ``Frames`` sets becomes a
train-on-A / score-on-A-and-B generalization report; reports become a CSV
and a self-contained SVG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyReport, LayoutMismatch, LengthMismatch, UndefinedDegradation
from .ingest import Frames, frames_to_arrays, select_blocks
from .mlp import (Mlp, MlpConfig, SplitSpec, predict_stream, split_dataset,
                  train_arrays)
from .records import Position2D

_TIME_MATCH_TOL = 1e-9

MODALITIES = ("csi", "rssi", "uwb", "imu")


@dataclass(frozen=True)
class ErrorReport:
    """Distribution summary of per-sample position errors (meters).

    ``errors`` is sorted ascending; ``cdf`` holds (error, fraction <= error)
    pairs, one per sample, so fraction steps by 1/count.  Percentiles use
    the nearest-rank rule: the ceil(p*n)-th smallest error (1-based).
    """

    errors: tuple[float, ...]
    cdf: tuple[tuple[float, float], ...]
    percentiles: dict[str, float]
    mean: float
    count: int

    def percentile(self, p: float) -> float:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"percentile must be in (0, 1], got {p}")
        return self.errors[math.ceil(p * self.count) - 1]

    def fraction_within(self, threshold: float) -> float:
        return float(np.searchsorted(self.errors, threshold, side="right")) / self.count

    @property
    def median(self) -> float:
        return self.percentiles["p50"]


def report_from_errors(errors) -> ErrorReport:
    """Build the report from raw per-sample error magnitudes."""
    arr = np.sort(np.asarray(list(errors), dtype=np.float64))
    n = arr.size
    if n == 0:
        raise EmptyReport("no errors to summarize")
    if not np.all(np.isfinite(arr)) or arr[0] < 0:
        raise ValueError("errors must be finite and non-negative")
    cdf = tuple((float(e), (i + 1) / n) for i, e in enumerate(arr))
    percentiles = {name: float(arr[math.ceil(p * n) - 1])
                   for name, p in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))}
    return ErrorReport(errors=tuple(float(e) for e in arr), cdf=cdf,
                       percentiles=percentiles, mean=float(arr.mean()), count=n)


def error_report(estimates: list[tuple[float, Position2D]],
                 labels: list[tuple[float, Position2D]]) -> ErrorReport:
    """Euclidean error per matched timestamp.

    Series must align one-to-one: same length, timestamps equal in order.
    """
    if len(estimates) != len(labels):
        raise LengthMismatch(f"{len(estimates)} estimates vs {len(labels)} labels")
    if not estimates:
        raise EmptyReport("no samples to compare")
    errors = []
    for (t_e, est), (t_l, truth) in zip(estimates, labels):
        if abs(t_e - t_l) > _TIME_MATCH_TOL:
            raise LengthMismatch(f"timestamp mismatch: {t_e!r} vs {t_l!r}")
        errors.append(math.hypot(est.x - truth.x, est.y - truth.y))
    return report_from_errors(errors)


def stamped(t: np.ndarray, xy: np.ndarray) -> list[tuple[float, Position2D]]:
    """(N,) times and (N, 2) positions as the series :func:`error_report` takes."""
    return [(ti, Position2D(x, y)) for ti, (x, y) in zip(t.tolist(), xy.tolist())]


def meets_requirement(report: ErrorReport, threshold_m: float = 1.0,
                      fraction: float = 0.99) -> bool:
    """Sub-meter-at-p99 style check: does `fraction` of errors fall at or
    under `threshold_m`?"""
    return report.percentile(fraction) <= threshold_m


# ---------------------------------------------------------------------------
# Generalization across layouts

def blocks_for_method(method: str) -> list[str]:
    """Modality blocks a neural method consumes (``nn:uwb`` -> ["uwb"],
    ``nn-fusion:csi+imu`` -> ["csi", "imu"], bare ``nn-fusion`` -> all)."""
    if method.startswith("nn-fusion"):
        _, _, combo = method.partition(":")
        if not combo:
            return list(MODALITIES)
        blocks = combo.split("+")
    elif method.startswith("nn:"):
        blocks = [method.split(":", 1)[1]]
    else:
        raise ValueError(f"not a neural method: {method!r}")
    cleaned = []
    for b in blocks:
        name = b.strip().removesuffix("-phase")
        if name not in MODALITIES:
            raise ValueError(f"unknown modality {b!r} in {method!r}")
        if name not in cleaned:
            cleaned.append(name)
    return cleaned


@dataclass(frozen=True)
class GeneralizationReport:
    """Same-layout vs cross-layout accuracy for one trained model."""

    self_report: ErrorReport
    transfer_report: ErrorReport
    history: tuple[tuple[int, float, float], ...] = ()
    per_modality: dict[str, "GeneralizationReport"] = field(default_factory=dict)

    @property
    def degradation(self) -> float:
        """See :func:`degradation`."""
        return degradation(self.self_report, self.transfer_report)


def degradation(self_report: ErrorReport, transfer_report: ErrorReport) -> float:
    """Transfer median over self median (1.0 = no loss).

    Raises UndefinedDegradation when the self median is exactly 0.
    """
    if self_report.median == 0.0:
        raise UndefinedDegradation("self median error is 0 m; the transfer "
                                   "degradation ratio is undefined")
    return transfer_report.median / self_report.median


def frames_report(model: Mlp, frames: Frames) -> ErrorReport:
    """The model's errors on labeled frames."""
    return error_report(predict_stream(model, frames), stamped(frames.t, frames.labels))


def run_generalization(train_frames: Frames, test_frames: Frames,
                       transfer_frames: Frames, config: MlpConfig | None = None,
                       modalities: list[str] | None = None,
                       ) -> GeneralizationReport:
    """Train once on layout-A training frames, report self accuracy on the
    held-out A frames and transfer accuracy on the full other-layout set.

    Transfer frames contribute nothing to fitting or normalization; they
    are only scored after training completes.  With ``modalities`` set,
    the run repeats per single modality on block-sliced frames for an
    ablation breakdown.
    """
    if not len(train_frames) or not len(test_frames) or not len(transfer_frames):
        raise EmptyReport("generalization needs non-empty train/test/transfer sets")
    width = train_frames.features.shape[1]
    for name, frames in (("test", test_frames), ("transfer", transfer_frames)):
        if frames.features.shape[1] != width:
            raise LayoutMismatch(f"{name} frames are {frames.features.shape[1]}-wide, "
                                 f"train frames are {width}-wide")
    if config is None:
        config = MlpConfig.for_input(width + train_frames.mask.shape[1])

    x_train, y_train = frames_to_arrays(train_frames)
    x_test, y_test = frames_to_arrays(test_frames)
    model, history = train_arrays(x_train, y_train, x_test, y_test, config)
    result = GeneralizationReport(
        self_report=frames_report(model, test_frames),
        transfer_report=frames_report(model, transfer_frames),
        history=tuple(history),
    )

    if modalities:
        breakdown = {}
        for modality in modalities:
            sub_train = select_blocks(train_frames, [modality])
            sub_layout = sub_train.layout
            sub_config = config.with_input(sub_layout.feature_width
                                           + sub_layout.mask_width)
            breakdown[modality] = run_generalization(
                sub_train, select_blocks(test_frames, [modality]),
                select_blocks(transfer_frames, [modality]), sub_config)
        result = GeneralizationReport(result.self_report, result.transfer_report,
                                      result.history, breakdown)
    return result


def split_and_run(frames_a: Frames, frames_b: Frames,
                  config: MlpConfig | None = None,
                  spec: SplitSpec = SplitSpec(),
                  modalities: list[str] | None = None) -> GeneralizationReport:
    """Convenience wrapper: split A per ``spec``, evaluate against all of B."""
    train_a, test_a = split_dataset(frames_a, spec)
    return run_generalization(train_a, test_a, frames_b, config, modalities=modalities)


# ---------------------------------------------------------------------------
# Plot emission (CSV + dependency-free SVG)

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_WIDTH, _HEIGHT = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 30, 50


def write_cdf_csv(named_reports: list[tuple[str, ErrorReport]], path) -> None:
    """Long-format dump: series,error_m,fraction with repr-exact floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "error_m", "fraction"])
        for name, report in named_reports:
            for error, fraction in report.cdf:
                writer.writerow([name, repr(error), repr(fraction)])


def read_cdf_csv(path) -> list[tuple[str, list[tuple[float, float]]]]:
    series: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series", "error_m", "fraction"]:
            raise ValueError(f"unexpected CDF CSV header: {header}")
        for name, error, fraction in reader:
            if name not in series:
                series[name] = []
                order.append(name)
            series[name].append((float(error), float(fraction)))
    return [(name, series[name]) for name in order]


def _svg_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw),
               default=10.0) * mag
    start = math.ceil(lo / step) * step
    return [start + i * step for i in range(int((hi - start) / step) + 1)]


def write_cdf_svg(named_series: list[tuple[str, list[tuple[float, float]]]],
                  path, log_x: bool = False,
                  title: str = "Position error CDF") -> None:
    """Step-function CDF plot, one polyline per series, no dependencies."""
    if not named_series or all(not pts for _, pts in named_series):
        raise EmptyReport("nothing to plot")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    all_x = [e for _, pts in named_series for e, _ in pts]
    x_hi = max(max(all_x), 1e-6)
    if log_x:
        x_lo = max(min(e for e in all_x if e > 0), x_hi * 1e-6) \
            if any(e > 0 for e in all_x) else x_hi * 1e-3
        lo_exp, hi_exp = math.floor(math.log10(x_lo)), math.ceil(math.log10(x_hi))
        hi_exp = max(hi_exp, lo_exp + 1)

        def to_px(e: float) -> float:
            e = max(e, 10.0 ** lo_exp)
            frac = (math.log10(e) - lo_exp) / (hi_exp - lo_exp)
            return _MARGIN_L + frac * plot_w
        x_ticks = [10.0 ** k for k in range(lo_exp, hi_exp + 1)]
        x_labels = [f"1e{k}" if abs(k) > 3 else f"{10.0 ** k:g}"
                    for k in range(lo_exp, hi_exp + 1)]
    else:
        def to_px(e: float) -> float:
            return _MARGIN_L + (e / x_hi) * plot_w
        x_ticks = _ticks(0.0, x_hi)
        x_labels = [f"{t:g}" for t in x_ticks]

    def y_px(frac: float) -> float:
        return _MARGIN_T + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_svg_escape(title)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_px(frac)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.1f}" '
                     f'x2="{_MARGIN_L + plot_w}" y2="{y:.1f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{frac:g}</text>')
    for tick, label in zip(x_ticks, x_labels):
        x = to_px(tick)
        if x < _MARGIN_L - 0.5 or x > _MARGIN_L + plot_w + 0.5:
            continue
        parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
                     f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_svg_escape(label)}</text>')
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">error (m)</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">'
                 f'fraction of samples</text>')

    for i, (name, pts) in enumerate(named_series):
        if not pts:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        coords = [f"{to_px(pts[0][0]):.2f},{y_px(0.0):.2f}"]
        prev_frac = 0.0
        for error, frac in pts:
            x = to_px(error)
            coords.append(f"{x:.2f},{y_px(prev_frac):.2f}")
            coords.append(f"{x:.2f},{y_px(frac):.2f}")
            prev_frac = frac
        coords.append(f"{_MARGIN_L + plot_w:.2f},{y_px(prev_frac):.2f}")
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + i * 18
        parts.append(f'<line x1="{_MARGIN_L + plot_w + 12}" y1="{ly - 4}" '
                     f'x2="{_MARGIN_L + plot_w + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w + 40}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_svg_escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def emit_plot(named_reports: list[tuple[str, ErrorReport]], path,
              log_x: bool = False) -> tuple[str, str]:
    """Write {path}.csv and {path}.svg for a list of (name, report) pairs.

    Returns the two output paths.  The CSV is the source of truth: the SVG
    renderer consumes exactly what a read-back of the CSV yields.
    """
    base = str(path)
    csv_path, svg_path = base + ".csv", base + ".svg"
    write_cdf_csv(named_reports, csv_path)
    write_cdf_svg(read_cdf_csv(csv_path), svg_path, log_x=log_x)
    return csv_path, svg_path
