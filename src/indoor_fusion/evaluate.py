"""Error statistics, cross-layout generalization runs, and CDF plotting.

Everything downstream of a localizer lands here: an (N, 2) array of
estimates and the (N, 2) array of true positions, paired row by row, become
an ErrorReport with an exact empirical CDF and nearest-rank percentiles.
One path trains and scores a network: ``fit_network`` trains on some rows
of ``Frames``, selecting its epoch on others, and ``network_estimates``
gives its estimates for any rows, of these frames or of a transfer set from
the other layout, both reading the frames in bounded row steps;
``run_generalization`` is the two in one call.  Reports become a CSV and an SVG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptyReport, LayoutMismatch, LengthMismatch,
                     MalformedLine, SchemaViolation, UndefinedDegradation)
from .ingest import (_GATHER_ROWS, MODALITY_ORDER, FrameLayout, FrameRows, Frames,
                     frames_to_arrays)
from .mlp import Mlp, MlpConfig, train_arrays


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Distribution summary of per-sample position errors (meters).

    ``errors`` is a sorted, read-only float64 array; ``cdf`` pairs each
    error with the fraction of errors <= it, so fraction steps by 1/count.
    Percentiles use the nearest-rank rule: the ceil(p*n)-th smallest error
    (1-based).
    """

    errors: np.ndarray
    percentiles: dict[str, float]
    mean: float
    count: int

    def percentile(self, p: float) -> float:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"percentile must be in (0, 1], got {p}")
        return float(self.errors[math.ceil(p * self.count) - 1])

    def fraction_within(self, threshold: float) -> float:
        return float(np.searchsorted(self.errors, threshold, side="right")) / self.count

    @property
    def cdf(self) -> tuple[tuple[float, float], ...]:
        n = self.count
        return tuple((e, (i + 1) / n) for i, e in enumerate(self.errors.tolist()))

    @property
    def median(self) -> float:
        return self.percentiles["p50"]


def report_from_errors(errors) -> ErrorReport:
    """Build the report from raw per-sample error magnitudes."""
    arr = np.sort(np.asarray(errors, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise EmptyReport("no errors to summarize")
    if not np.all(np.isfinite(arr)) or arr[0] < 0:
        raise ValueError("errors must be finite and non-negative")
    arr.setflags(write=False)
    percentiles = {name: float(arr[math.ceil(p * n) - 1])
                   for name, p in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))}
    return ErrorReport(errors=arr, percentiles=percentiles, mean=float(arr.mean()), count=n)


def error_report(est: np.ndarray, truth: np.ndarray) -> ErrorReport:
    """Euclidean error between row i of ``est`` and row i of ``truth``.

    Both are (N, 2) position arrays: another shape raises DimensionMismatch,
    a row-count mismatch LengthMismatch, zero rows EmptyReport.
    """
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if est.shape[1:] != (2,) or truth.shape[1:] != (2,):
        raise DimensionMismatch(f"positions must be (N, 2), got {est.shape} and {truth.shape}")
    if len(est) != len(truth):
        raise LengthMismatch(f"{len(est)} estimates vs {len(truth)} labels")
    if not len(est):
        raise EmptyReport("no samples to compare")
    # math.hypot, not np.hypot: the two differ in the last ulp on some pairs
    dx, dy = (est - truth).T.tolist()
    return report_from_errors(list(map(math.hypot, dx, dy)))


# ---------------------------------------------------------------------------
# Generalization across layouts

def blocks_for_method(method: str) -> list[str]:
    """Modality blocks a neural method consumes (``nn:uwb`` -> ["uwb"],
    ``nn-fusion:csi+imu`` -> ["csi", "imu"], bare ``nn-fusion`` -> all).
    ``nn:csi-phase`` reads the csi block of the phase frames; no other
    method takes a ``-phase`` suffix."""
    if method == "nn:csi-phase":
        return ["csi"]
    if method.startswith("nn-fusion"):
        _, _, combo = method.partition(":")
        if not combo:
            return list(MODALITY_ORDER)
        blocks = combo.split("+")
    elif method.startswith("nn:"):
        blocks = [method.split(":", 1)[1]]
    else:
        raise ValueError(f"not a neural method: {method!r}")
    cleaned = []
    for b in blocks:
        name = b.strip()
        if name not in MODALITY_ORDER:
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


def degradation(self_report: ErrorReport, transfer_report: ErrorReport) -> float:
    """Transfer median over self median (1.0 = no loss).

    Raises UndefinedDegradation when the self median is exactly 0.
    """
    if self_report.median == 0.0:
        raise UndefinedDegradation("self median error is 0 m; the transfer "
                                   "degradation ratio is undefined")
    return transfer_report.median / self_report.median


def fit_network(frames: Frames, train_rows, test_rows, config: MlpConfig,
                layout: FrameLayout | None = None,
                ) -> tuple[Mlp, list[tuple[int, float, float]]]:
    """Train on the ``train_rows`` of ``frames``, keeping the weights of the
    epoch with the least median error on the ``test_rows``.

    ``layout`` picks the blocks, as ``ingest.select_blocks`` gives them
    (default: all).  Training reads its input from the frames a batch at a
    time; the test input is gathered once.  Returns the model and history.
    """
    x_train = FrameRows(frames, train_rows, layout)
    return train_arrays(x_train, frames.labels[x_train.rows],
                        *frames_to_arrays(frames, test_rows, layout), config)


def network_estimates(model: Mlp, frames: Frames, rows=None,
                      layout: FrameLayout | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The model's (N, 2) estimates for ``rows`` of ``frames`` (default:
    all) in the blocks of ``layout``, and the (N, 2) labels of those rows,
    in steps of ``_GATHER_ROWS`` rows or more: BLAS rounds smaller ones apart."""
    x = FrameRows(frames, rows, layout)
    ends = [*range(_GATHER_ROWS, len(x) - _GATHER_ROWS + 1, _GATHER_ROWS), len(x)]
    est = np.concatenate([model.forward(x[lo:hi]) for lo, hi in zip([0, *ends], ends)])
    return est, frames.labels[x.rows]


def run_generalization(frames: Frames, train_rows, test_rows, transfer_frames: Frames,
                       config: MlpConfig | None = None,
                       layout: FrameLayout | None = None,
                       transfer_layout: FrameLayout | None = None,
                       ) -> GeneralizationReport:
    """Train once on the layout-A ``train_rows`` of ``frames``, report self
    accuracy on its ``test_rows`` and transfer accuracy on all of the
    other-layout ``transfer_frames``.

    ``layout`` and ``transfer_layout`` pick the blocks of each set
    (default: all).  Transfer frames contribute nothing to fitting or
    normalization; they are gathered and scored only after training.
    """
    layout = frames.layout if layout is None else layout
    if transfer_layout is None:
        transfer_layout = transfer_frames.layout
    if not len(train_rows) or not len(test_rows) or not len(transfer_frames):
        raise EmptyReport("generalization needs non-empty train/test/transfer sets")
    if transfer_layout.feature_width != layout.feature_width:
        raise LayoutMismatch(f"transfer frames are {transfer_layout.feature_width}-wide, "
                             f"train frames are {layout.feature_width}-wide")
    if config is None:
        config = MlpConfig.for_input(layout.feature_width + layout.mask_width)

    model, history = fit_network(frames, train_rows, test_rows, config, layout)
    self_report = error_report(*network_estimates(model, frames, test_rows, layout))
    transfer_report = error_report(
        *network_estimates(model, transfer_frames, layout=transfer_layout))
    return GeneralizationReport(self_report, transfer_report, tuple(history))


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
    """Read :func:`write_cdf_csv` output back as (series, [(error, fraction)]).

    Bytes that are not UTF-8 raise MalformedLine naming the path; a wrong
    header, or a row that is not (name, error, fraction) with a finite error
    >= 0 and a fraction in (0, 1], raises SchemaViolation naming ``path:line:``.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["series", "error_m", "fraction"]:
                raise SchemaViolation(f"{path}:1: unexpected CDF CSV header: {header}")
            for row in reader:
                if len(row) != 3:
                    raise SchemaViolation(f"{path}:{reader.line_num}: expected 3 fields, "
                                          f"got {len(row)}")
                name, error, fraction = row
                try:
                    point = (float(error), float(fraction))
                except ValueError as exc:
                    raise SchemaViolation(f"{path}:{reader.line_num}: {exc}") from exc
                if not (0.0 <= point[0] < math.inf and 0.0 < point[1] <= 1.0):
                    raise SchemaViolation(f"{path}:{reader.line_num}: expected an error in [0, inf) "
                                          f"and a fraction in (0, 1], got {error}, {fraction}")
                if name not in series:
                    series[name] = []
                    order.append(name)
                series[name].append(point)
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise MalformedLine(f"{path}: {exc}") from exc
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
