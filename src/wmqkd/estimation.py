"""Parameter estimation from weak-measurement records.

The full estimation subroutine: condition the pointer readings on
(bit, basis, observable), recover the couplings from the complement
identity g = mu_alpha + mu_alpha_perp, normalize to expectation values,
reconstruct Bloch parameters and the error rates

    delta_X = (2 - r_x^+ + r_x^-)/4,   delta_Z = (2 - r_z^0 + r_z^1)/4,
    delta_b = (delta_X + delta_Z)/2,

apply dark-count corrections, certify the weak measurements (the four
CHECK_NAMES), and produce the QBER / abort decision.  An estimate that cannot
be formed (a thin cell, a coupling <= 0, all clicks dark) raises nothing: its
NaN, inf or non-positive value fails a named check, and the run aborts.

One definition per report convention lives here: CELLS indexes the eight
(bit, basis, observable) cells, a report's gains are the tuple
(Q_mu, Q_nu, Q_vac) in class-code order, `EstimationReport.items` is the
ordered (key, value) table that names every report key, and `text_value`
writes every report and CSV value.  Sampled variance-equality p-values come
from scipy.special.fdtrc, imported at first use; the analytic path loads none.

Estimates are never clipped: a negative delta is the designed attack tripwire
and must reach the nonnegativity check.  The nonnegativity verdict allows a
statistical slack of `nonneg_z` standard errors, since at the honest noiseless
boundary the raw check would fail on mean-zero noise.  Exact-expectation
statistics carry count = inf, so their standard errors are 0 by arithmetic;
`wm_verification` is the one place that tells them from sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, product

import numpy as np

from .pointer import wm_disturbance_error

INTENSITY_SIGNAL = 0
INTENSITY_DECOY = 1
INTENSITY_VACUUM = 2
INTENSITY_NAMES = {INTENSITY_SIGNAL: "signal", INTENSITY_DECOY: "decoy", INTENSITY_VACUUM: "vacuum"}
NO_CLICK = -1

EXACT_TOL = 1e-12
CELLS = np.indices((2, 2, 2))  # (s_a, basis, h) of every conditioning cell
_CELL_PAIRS = np.triu_indices(8, 1)  # the 28 (i < j) pairs of flattened cells


class EstimationError(RuntimeError):
    """A signal-log file that breaks the interchange format (raised by `read_signal_log` only)."""


def text_value(value) -> str:
    """A report or CSV value as text: true/false, a float to 17 digits, else str()."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def text_table(items) -> str:
    """(key, value) pairs as flat `key = value` lines."""
    return "".join(f"{key} = {text_value(value)}\n" for key, value in items)


def csv_text(header, rows) -> str:
    """Locale-independent CSV: the header line, then one `text_value` line per row."""
    return "".join(",".join(map(text_value, row)) + "\n" for row in [header, *rows])


# ---------------------------------------------------------------------------
# signal log
# ---------------------------------------------------------------------------

_COLUMN_DTYPES = {"s_a": np.uint8, "b": np.uint8, "h": np.uint8, "omega": float,
                  "s_b": np.int8, "intensity": np.uint8}
_FLAG_VALUES = {"s_a": (0, 1), "b": (0, 1), "h": (0, 1), "s_b": (NO_CLICK, 0, 1),
                "intensity": tuple(INTENSITY_NAMES)}


@dataclass
class SignalLog:
    """Per-signal protocol records as parallel arrays.

    s_a: Alice's bit; b: basis flag (0=Z, 1=X); h: Bob's observable flag
    (0=H+, 1=H-); omega: pointer reading; s_b: detection outcome (0/1, or
    NO_CLICK=-1); intensity: 0=signal mu, 1=decoy nu, 2=vacuum.  A flag
    outside its range of integers after the dtype cast, or a non-finite
    reading, raises ValueError.
    """

    s_a: np.ndarray
    b: np.ndarray
    h: np.ndarray
    omega: np.ndarray
    s_b: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
            column, flags = getattr(self, name), _FLAG_VALUES.get(name)
            if len(column) != len(self.s_a):
                raise ValueError(f"signal log column {name!r} length mismatch")
            if flags and len(column) and not flags[0] <= column.min() <= column.max() <= flags[-1]:
                raise ValueError(f"signal log column {name!r} holds a flag outside {flags}")
        if not np.isfinite(self.omega).all():
            raise ValueError("signal log column 'omega' holds a non-finite reading")

    def __len__(self) -> int:
        return len(self.s_a)

    @property
    def clicked(self) -> np.ndarray:
        return self.s_b != NO_CLICK

    def subset(self, mask) -> "SignalLog":
        return SignalLog(self.s_a[mask], self.b[mask], self.h[mask],
                         self.omega[mask], self.s_b[mask], self.intensity[mask])


SIGNAL_LOG_HEADER = "s_A,b,h,omega,s_B,intensity_class"
_LOG_FIELDS = SIGNAL_LOG_HEADER.split(",")
_ROW_FORMAT = "%d,%d,%d,%%.17g,%d,%d\n"  # a record's flags filled in, its reading left as %.17g
_ROW_TEMPLATES = np.array([_ROW_FORMAT % flags for flags in product(*_FLAG_VALUES.values())], dtype=object)
_WRITE_CHUNK = 1 << 16
_SCAN_CHUNK = 1 << 16  # characters
_READ_ROWS = 1 << 16


def write_signal_log(path, log: SignalLog) -> None:
    """Write the interchange file: header + one `%d,%d,%d,%.17g,%d,%d` record per
    signal, so a reading reads back bit-equal.  Each record is its flags' row
    template with the reading formatted in; flags are written as stored, and a
    record with a flag out of range (which read_signal_log rejects) gets its own."""
    with open(path, "w", newline="\n") as fh:
        fh.write(SIGNAL_LOG_HEADER + "\n")
        for lo in range(0, len(log), _WRITE_CHUNK):
            flags = [getattr(log, name)[lo:lo + _WRITE_CHUNK] for name in _FLAG_VALUES]
            index, stray = 0, False
            for column, values in zip(flags, _FLAG_VALUES.values()):
                offset = column.astype(np.intp) - values[0]  # a flag's values are consecutive integers
                index, stray = index * len(values) + offset, stray | (offset < 0) | (offset >= len(values))
            templates = _ROW_TEMPLATES[np.where(stray, 0, index)]
            for row in np.flatnonzero(stray):
                templates[row] = _ROW_FORMAT % tuple(int(column[row]) for column in flags)
            fh.write("".join(templates.tolist()) % tuple(log.omega[lo:lo + _WRITE_CHUNK].tolist()))


def _count_records(path, fh) -> tuple[int, EstimationError | None]:
    """Count the records before the first blank or '#' line, which np.loadtxt
    would skip, and return that line's error (None when there is none).  Reads
    fh from its start in chunks.  The header ends in a newline, so a blank line
    is a double newline, which numpy finds faster than str.find (the needle's
    first character ends every line)."""
    seen, newlines, tail = 0, 0, ""
    for chunk in iter(lambda: fh.read(_SCAN_CHUNK), ""):
        text = tail + chunk
        newline = np.frombuffer(text.encode(), np.uint8) == ord("\n")
        if "#" in text or (newline[1:] & newline[:-1]).any():
            hits = ((text.find("\n\n") + 1, "blank line"), (text.find("#"), "comment"))
            at, what = min(hit for hit in hits if hit[0] > 0)
            fh.seek(0)
            line = fh.read(seen - len(tail) + at).count("\n") + 1
            return line - 2, EstimationError(f"{path} line {line}: {what} (a signal log has neither)")
        newlines += int(np.count_nonzero(newline)) - (tail == "\n")
        seen, tail = seen + len(chunk), chunk[-1]
    return newlines - (tail == "\n"), None  # the header ends in a newline; the last record may not


def _loadtxt_rejects(text: str, column: int | None = None) -> bool:
    """Whether np.loadtxt's parser, which unlike float() rejects '1_0' and
    non-ASCII digits, fails on a record or one of its columns."""
    try:
        np.loadtxt([text], delimiter=",", usecols=column)
    except ValueError:
        return True
    return False


def _bad_record_error(path, first: int) -> EstimationError | None:
    """The first record from record `first` on without one number per column, at
    its file line; a slow pass for errors only."""
    with open(path) as fh:
        for line, text in enumerate(islice(fh, first + 1, None), first + 2):
            fields = text.split(",")
            if len(fields) != len(_LOG_FIELDS):
                return EstimationError(f"{path} line {line}: {len(fields)} fields, expected {len(_LOG_FIELDS)}")
            if _loadtxt_rejects(text):
                field = next(k for k in range(len(fields)) if _loadtxt_rejects(text, k))
                return EstimationError(f"{path} line {line}: {_LOG_FIELDS[field]} = "
                                       f"{fields[field].strip()!r} is not a number")
    return None


def _reject_bad_values(path, first_row: int, block: np.ndarray) -> None:
    """Raise for the first flag out of range or non-finite reading in a parsed block."""
    flags = [_FLAG_VALUES.get(name) for name in _COLUMN_DTYPES]  # None for omega
    bad = np.column_stack([~np.isfinite(values) if wanted is None else ~np.isin(values, wanted)
                           for wanted, values in zip(flags, block.T)])
    if bad.any():
        row, field = divmod(int(np.argmax(bad)), len(_LOG_FIELDS))
        wanted = "a finite reading" if flags[field] is None else f"one of {flags[field]}"
        raise EstimationError(f"{path} line {first_row + row + 2}: {_LOG_FIELDS[field]} = "
                              f"{block[row, field]:g} is not {wanted}")


def read_signal_log(path) -> SignalLog:
    """Read an interchange file, rejecting blank and comment lines, records
    without six numeric fields, flags out of range and non-finite readings; an
    error names the first bad line.  Records are parsed a block at a time straight
    into the log's typed columns, so the parse holds one float64 block beside them;
    only the records before a blank or comment line are parsed."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != SIGNAL_LOG_HEADER:
            raise EstimationError(f"bad signal-log header {header!r}, expected {SIGNAL_LOG_HEADER!r}")
        fh.seek(0)
        records, blank_or_comment = _count_records(path, fh)
        fh.seek(0)
        fh.readline()
        columns = {name: np.empty(records, dtype) for name, dtype in _COLUMN_DTYPES.items()}
        for lo in range(0, records, _READ_ROWS):
            try:
                block = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=min(_READ_ROWS, records - lo))
            except ValueError as exc:  # a field count differs from the first's, or a field is no number
                raise _bad_record_error(path, lo) or exc
            if block.shape[1] != len(_LOG_FIELDS):
                raise _bad_record_error(path, lo)
            _reject_bad_values(path, lo, block)
            for column, values in zip(columns.values(), block.T):
                column[lo:lo + len(block)] = values
    if blank_or_comment:
        raise blank_or_comment
    if records == 0:
        raise EstimationError("empty signal log")
    return SignalLog(**columns)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

@dataclass
class ConditionedStats:
    """Per-cell (mean, variance, count), indexed [s_a, basis, observable].

    Variance is the unbiased (n-1) sample estimator.  count = +inf marks
    exact-expectation (analytic) statistics.
    """

    mean: np.ndarray
    var: np.ndarray
    count: np.ndarray


_CHUNK = 1 << 15  # records conditioned at a time, so a chunk's temporaries stay in cache


def condition_and_average(log: SignalLog) -> list[ConditionedStats]:
    """Exact sample moments of the readings in the 8 (bit, basis, observable)
    cells of every intensity class, over the clicked records, in two chunked
    passes (sums, then squared deviations) that add each reading into its cell
    in record order, as one whole-log pass would, with no full-length copy.

    Returns one entry per class code.  A cell with fewer than two readings
    cannot be estimated: its variance is NaN, and so is its mean when it is
    empty.  No-click records are skipped.
    """
    def clicked_chunks():
        """(cell code, reading) of the clicked records by chunk; views where all clicked."""
        for rows in (slice(lo, lo + _CHUNK) for lo in range(0, len(log), _CHUNK)):
            code = log.intensity[rows] * 8 + log.s_a[rows] * 4 + log.b[rows] * 2 + log.h[rows]  # uint8: at most 23
            clicked = log.s_b[rows] != NO_CLICK
            keep = slice(None) if clicked.all() else clicked
            yield code[keep].astype(np.intp), log.omega[rows][keep]

    counts, sums, m2 = np.zeros(24), np.zeros(24), np.zeros(24)
    for code, omega in clicked_chunks():
        counts += np.bincount(code, minlength=24)
        np.add.at(sums, code, omega)
    with np.errstate(divide="ignore", invalid="ignore"):  # a class may have empty cells
        means = sums / counts
        for code, omega in clicked_chunks():
            deviation = omega - means[code]
            np.add.at(m2, code, deviation * deviation)
        var = np.where(counts > 1, m2 / (counts - 1.0), np.nan)
    cells = (3, 2, 2, 2)  # class, bit, basis, observable
    return [ConditionedStats(m, v, n)
            for m, v, n in zip(means.reshape(cells), var.reshape(cells), counts.reshape(cells))]


def merge_moments(a: ConditionedStats, b: ConditionedStats) -> ConditionedStats:
    """Exact pairwise combination of (count, mean, M2) moment triples.

    Deterministic for a fixed partition plan, so concurrent folds are
    bit-stable given the same plan.
    """
    n = a.count + b.count
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = b.mean - a.mean
        mean = np.where(n > 0, a.mean + delta * np.where(n > 0, b.count / np.maximum(n, 1), 0.0), 0.0)
        m2 = (a.var * np.maximum(a.count - 1.0, 0.0)
              + b.var * np.maximum(b.count - 1.0, 0.0)
              + delta**2 * a.count * b.count / np.maximum(n, 1))
        var = np.where(n > 1, m2 / np.maximum(n - 1.0, 1.0), 0.0)
    return ConditionedStats(mean, var, n)


def exact_stats(mean: np.ndarray, var: np.ndarray) -> ConditionedStats:
    """Exact-expectation statistics (infinite counts) for analytic paths."""
    return ConditionedStats(np.asarray(mean, dtype=float),
                            np.asarray(var, dtype=float),
                            np.full((2, 2, 2), np.inf))


# ---------------------------------------------------------------------------
# couplings, expectation values, error rates
# ---------------------------------------------------------------------------

def estimate_couplings(stats: ConditionedStats, dark_fraction: float = 0.0) -> tuple[float, float]:
    """Recover (g+, g-) from the complement identity mu_alpha + mu_alpha_perp = g.

    Dark counts deflate every conditional mean by (1 - d); the estimate divides
    that back out (d = 1 gives inf or NaN).  Both orthogonal pairs (Z bits 0/1
    and X bits +/-) are averaged for variance reduction.
    """
    out = []
    for h in (0, 1):
        z_pair = stats.mean[0, 0, h] + stats.mean[1, 0, h]
        x_pair = stats.mean[0, 1, h] + stats.mean[1, 1, h]
        out.append(0.5 * (z_pair + x_pair) / (1.0 - dark_fraction))
    return out[0], out[1]


@dataclass(frozen=True)
class ErrorRates:
    """Bloch estimates and the derived error rates (pre dark-correction), in report key order."""

    r_x_plus: float
    r_x_minus: float
    r_z_0: float
    r_z_1: float
    delta_x: float
    delta_z: float
    delta_b: float


def estimate_error_rates(stats: ConditionedStats, g_plus: float, g_minus: float,
                         dark_fraction: float = 0.0) -> ErrorRates:
    """Expectation values, Bloch parameters and error rates from conditioned means.

    <H+->_alpha = mu/((1-d) g+-); r_x = sqrt2(<H+> - <H->) at the X states,
    r_z = sqrt2(<H+> + <H-> - 1) at the Z states; the general (non-unital)
    delta formulas are used and reduce to the unital ones exactly.
    """
    deflate = 1.0 - dark_fraction
    exp_p = stats.mean[:, :, 0] / (deflate * g_plus)   # [s_a, basis]
    exp_m = stats.mean[:, :, 1] / (deflate * g_minus)
    rt2 = math.sqrt(2.0)
    r_x_plus = rt2 * (exp_p[0, 1] - exp_m[0, 1])
    r_x_minus = rt2 * (exp_p[1, 1] - exp_m[1, 1])
    r_z_0 = rt2 * (exp_p[0, 0] + exp_m[0, 0] - 1.0)
    r_z_1 = rt2 * (exp_p[1, 0] + exp_m[1, 0] - 1.0)
    delta_x = 0.25 * (2.0 - r_x_plus + r_x_minus)
    delta_z = 0.25 * (2.0 - r_z_0 + r_z_1)
    return ErrorRates(r_x_plus, r_x_minus, r_z_0, r_z_1,
                      delta_x, delta_z, 0.5 * (delta_x + delta_z))


def dark_count_fraction(q_gamma: float, q_vac: float) -> float:
    """Fraction of detections due to dark counts, d(gamma) = Q_vac / Q_gamma, with Q_vac
    capped at Q_gamma (sampling noise can push a tiny vacuum gain above it); 0 if Q_gamma = 0."""
    return min(q_vac, q_gamma) / q_gamma if q_gamma > 0 else 0.0


def corrected_error_rate(delta_tilde: float, d_gamma: float) -> float:
    """Fold dark-count errors in: delta = delta~ + (1/2 - delta~) d(gamma).

    delta~ may sit below 0 (attack tripwire values pass through unclipped);
    1/2 is a fixed point for every d.
    """
    if not 0.0 <= d_gamma <= 1.0:
        raise ValueError(f"dark fraction must be in [0,1], got {d_gamma}")
    if delta_tilde > 0.5 + 1e-9:
        raise ValueError(f"delta~ must be <= 1/2, got {delta_tilde}")
    return delta_tilde + (0.5 - delta_tilde) * d_gamma


def compute_qber(delta_b: float, delta_wm: float, d_mu: float) -> float:
    """Security-check statistic QBER = delta_b + (1 - d(mu)) delta_wm."""
    if not 0.0 <= d_mu <= 1.0:
        raise ValueError(f"dark fraction must be in [0,1], got {d_mu}")
    if delta_wm < 0.0:
        raise ValueError(f"delta_wm must be >= 0, got {delta_wm}")
    return delta_b + (1.0 - d_mu) * delta_wm


# ---------------------------------------------------------------------------
# standard errors
# ---------------------------------------------------------------------------

_BIT_SIGN = np.where(CELLS[0] == 0, 1.0, -1.0)
_C_X = np.where(CELLS[1] == 1, _BIT_SIGN * np.where(CELLS[2] == 0, 1.0, -1.0), 0.0)
_C_Z = np.where(CELLS[1] == 0, _BIT_SIGN, 0.0)
_DELTA_SIGNS = np.stack([_C_X, _C_Z, 0.5 * (_C_X + _C_Z)])  # the +-1 tables c of _delta_gradients


def _delta_gradients(stats: ConditionedStats) -> np.ndarray:
    """Gradients of (delta_x, delta_z, delta_b) in the 8 cell means, shape (3, 2, 2, 2).

    The expectation values are E_h = m[., ., h] / ((1-d) g_h) = 2 m / S_h with
    S_h the sum of the four H(h) cell means, so the dark fraction cancels and
    delta = 1/2 - (sqrt2/2) sum_h T_h / S_h, T_h = sum_{s,b} c[s,b,h] m[s,b,h],
    for the fixed +-1 tables c = _DELTA_SIGNS (c_b is the mean of c_x and c_z).
    """
    c = _DELTA_SIGNS
    m = stats.mean
    s_h = m.sum(axis=(0, 1))
    t_h = (c * m).sum(axis=(1, 2))
    return -(math.sqrt(2.0) / 2.0) * (c - (t_h / s_h)[:, None, None, :]) / s_h


def delta_standard_errors(stats: ConditionedStats):
    """First-order (delta-method) standard errors of (delta_x, delta_z, delta_b).

    Propagates the cell-mean sampling variances var / count through the
    estimator; exact statistics (count = inf) give +0.0.
    """
    grads = _delta_gradients(stats)
    mean_var = stats.var / stats.count
    # the one BLAS product np.tensordot would make, on the same operands, without its bookkeeping
    ses = np.sqrt(np.dot((grads**2).reshape(3, 8), mean_var.reshape(8, 1)).reshape(3))
    return float(ses[0]), float(ses[1]), float(ses[2])


def coupling_standard_errors(stats: ConditionedStats, dark_fraction: float = 0.0):
    """Standard errors of (g+, g-): each is the mean of two complement-pair sums."""
    var = 0.25 * (stats.var / stats.count).sum(axis=(0, 1)) / (1.0 - dark_fraction) ** 2
    return math.sqrt(var[0]), math.sqrt(var[1])


# ---------------------------------------------------------------------------
# verification and the report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimationThresholds:
    """Security thresholds for the estimation subroutine.

    delta_sec defaults to the 11% bound.  g_sec and sigma_sec_sq have no
    prescribed values: left None, `with_device_defaults` resolves them against
    the device to 1.2x the nominal coupling and (1.1 sigma_md)^2 (physical
    pointer-variance units).
    """

    delta_sec: float = 0.11
    g_sec: float | None = None
    sigma_sec_sq: float | None = None
    variance_equality_significance: float = 0.01
    nonneg_z: float = 3.0
    sigma_phi_upper: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta_sec < 0.5:
            raise ValueError(f"delta_sec must be in (0, 0.5), got {self.delta_sec}")
        if any(v is not None and not v > 0 for v in (self.g_sec, self.sigma_sec_sq)):
            raise ValueError("g_sec and sigma_sec_sq must be positive")
        if not 0.0 < self.variance_equality_significance < 1.0:
            raise ValueError("variance_equality_significance must be in (0, 1)")
        # a negative slack would make an honest run beat its own standard error
        if not 0.0 <= self.nonneg_z < math.inf:
            raise ValueError(f"nonneg_z must be finite and >= 0, got {self.nonneg_z}")
        if not self.sigma_phi_upper >= 0:
            raise ValueError(f"sigma_phi_upper must be >= 0, got {self.sigma_phi_upper}")

    def with_device_defaults(self, g: float, sigma_md: float) -> "EstimationThresholds":
        """Fill g_sec / sigma_sec_sq left None from the device's g and sigma_md."""
        if self.g_sec is None and g <= 0:
            raise ValueError(f"coupling g = {g} resolves g_sec = 1.2*g to {1.2 * g}: "
                             "a weak measurement needs g > 0")
        return replace(
            self,
            g_sec=1.2 * g if self.g_sec is None else self.g_sec,
            sigma_sec_sq=(1.1 * sigma_md) ** 2 if self.sigma_sec_sq is None else self.sigma_sec_sq)


CHECK_NAMES = ("errors_nonnegative", "couplings_bounded", "variances_bounded", "variances_equal")


@dataclass(frozen=True)
class Verdicts:
    """The four weak-measurement certification checks (pass = True), in report key order."""

    errors_nonnegative: bool
    couplings_bounded: bool
    variances_bounded: bool
    variances_equal: bool
    min_variance_p_value: float
    max_variance_ratio: float

    @property
    def all_pass(self) -> bool:
        return all(getattr(self, name) for name in CHECK_NAMES)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CHECK_NAMES}


@dataclass
class EstimationReport:
    """Everything the estimation subroutine learned from one run's log."""

    cell_mean: np.ndarray
    cell_var: np.ndarray
    cell_count: np.ndarray
    g_plus: float
    g_minus: float
    g_plus_se: float
    g_minus_se: float
    rates: ErrorRates
    delta_x_se: float
    delta_z_se: float
    delta_b_se: float
    gains: tuple  # (Q_mu, Q_nu, Q_vac), in class-code order
    dark_fraction_signal: float
    dark_fraction_decoy: float
    delta_x_corrected: float
    delta_z_corrected: float
    delta_b_corrected: float
    decoy_rates: ErrorRates | None
    delta_x_decoy_corrected: float | None
    sigma_md_sq_lower: float
    delta_wm_estimate: float
    qber: float
    verdicts: Verdicts = None
    abort: bool = True

    def items(self) -> list:
        """The report's (key, value) pairs in report order, verdicts as pass/fail."""
        cells = (("mean", self.cell_mean), ("var", self.cell_var), ("count", self.cell_count))
        deltas = ("delta_x", "delta_z", "delta_b")
        decoy = () if self.decoy_rates is None else (
            ("decoy.delta_x", self.decoy_rates.delta_x), ("decoy.delta_z", self.decoy_rates.delta_z),
            ("decoy.delta_x_corrected", self.delta_x_decoy_corrected))
        return [
            *((f"cell.bit{i}_{'ZX'[j]}_H{'+-'[k]}.{stat}", float(values[i, j, k]))
              for i, j, k in np.ndindex(2, 2, 2) for stat, values in cells),
            *((f"coupling.{name}", getattr(self, name))
              for name in ("g_plus", "g_minus", "g_plus_se", "g_minus_se")),
            *((f"estimate.{name}", value) for name, value in vars(self.rates).items()),
            *((f"estimate.{name}_se", getattr(self, f"{name}_se")) for name in deltas),
            *sorted((f"gain.{name}", q) for name, q in zip(INTENSITY_NAMES.values(), self.gains)),
            ("dark.fraction_signal", self.dark_fraction_signal),
            ("dark.fraction_decoy", self.dark_fraction_decoy),
            *((f"corrected.{name}", getattr(self, f"{name}_corrected")) for name in deltas),
            *decoy,
            ("device.sigma_md_sq_lower", self.sigma_md_sq_lower),
            ("device.delta_wm_estimate", self.delta_wm_estimate),
            ("qber", self.qber),
            *((f"verdict.{name}", ("pass" if value else "fail") if name in CHECK_NAMES else value)
              for name, value in vars(self.verdicts).items()),
            ("abort", self.abort),
        ]

    def to_text(self) -> str:
        """Flat key = value report (documented interchange for the CLI)."""
        return text_table(self.items())


def wm_verification(report: EstimationReport, thresholds: EstimationThresholds) -> Verdicts:
    """Certify the weak measurements: the four named checks.

    1. delta_X, delta_Z nonnegative (with `nonneg_z` standard-error slack on
       sampled data; exact data uses a 1e-12 tolerance).
    2. 0 < g+, g- <= g_sec (with the same slack above; exact standard errors are 0).
    3. every conditioned variance <= sigma_sec_sq (physical units).
    4. conditioned variances statistically identical: two-sided variance-ratio
       tests over all 28 cell pairs, Bonferroni-corrected at the configured
       significance; exact data allows the honest binomial branch term instead,
       at most g^2/4 on top of the device variance.
    """
    if thresholds.g_sec is None or thresholds.sigma_sec_sq is None:
        raise ValueError("g_sec / sigma_sec_sq not set; use with_device_defaults first")
    exact = bool(np.isinf(report.cell_count).all())
    slack_x = EXACT_TOL if exact else thresholds.nonneg_z * report.delta_x_se
    slack_z = EXACT_TOL if exact else thresholds.nonneg_z * report.delta_z_se
    nonneg = bool(report.rates.delta_x >= -slack_x) and bool(report.rates.delta_z >= -slack_z)
    z = thresholds.nonneg_z
    couplings = (bool(0 < report.g_plus <= thresholds.g_sec + z * report.g_plus_se)
                 and bool(0 < report.g_minus <= thresholds.g_sec + z * report.g_minus_se))
    bounded = bool(np.all(report.cell_var <= thresholds.sigma_sec_sq))

    variances = report.cell_var.reshape(8)
    i, j = _CELL_PAIRS
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = variances[i] / variances[j]  # a NaN or non-positive ratio maps to inf
        max_ratio = float(np.where(ratio > 0, np.maximum(ratio, 1.0 / ratio), np.inf).max())
    if exact:
        g_avg = 0.5 * (report.g_plus + report.g_minus)
        branch_allowance = 0.25 * g_avg**2 / max(float(np.min(variances)), 1e-300)
        equal = bool(max_ratio <= 1.0 + branch_allowance + 1e-9)
        min_p = 1.0
    else:
        from scipy.special import fdtrc  # imported here: the analytic path and its CLI commands load no scipy
        counts = report.cell_count.reshape(8)
        p = fdtrc(counts[i] - 1, counts[j] - 1, ratio)
        min_p = float(np.min(2.0 * np.minimum(p, 1.0 - p)))  # propagates a NaN p-value: the check fails
        equal = min_p >= thresholds.variance_equality_significance / 28.0
    return Verdicts(nonneg, couplings, bounded, equal, min_p, max_ratio)


def build_report(log: SignalLog, thresholds: EstimationThresholds,
                 sent: np.ndarray | None = None) -> EstimationReport:
    """Run the full estimation subroutine on a signal log.

    The gain of a class is its clicked records over `sent[class]`, the signals
    sent in it; `sent` defaults to the log's own per-class record counts, which
    is right for a log that keeps its no-click records.  A signal cell that
    cannot be estimated fails the checks its NaN moments reach; thin decoy
    cells leave the decoy error to the signal estimates.
    """
    classes = condition_and_average(log)
    if sent is None:
        sent = np.bincount(log.intensity, minlength=3)
    gains = tuple(int(stats.count.sum()) / int(n) if n else 0.0 for stats, n in zip(classes, sent))
    signal, decoy, _ = classes
    return report_from_stats(signal, thresholds, gains, stats_decoy=decoy if np.all(decoy.count > 1) else None)


@np.errstate(all="ignore")  # a degenerate estimate computes to NaN or inf and fails its check
def report_from_stats(stats: ConditionedStats, thresholds: EstimationThresholds,
                      gains: tuple, stats_decoy: ConditionedStats | None = None) -> EstimationReport:
    """Estimation subroutine on pre-conditioned statistics and the gains (Q_mu, Q_nu, Q_vac).

    Entry point for the analytic (exact-expectation) paths, which build
    ConditionedStats with infinite counts.
    """
    q_mu, q_nu, q_vac = gains
    d_mu = dark_count_fraction(q_mu, q_vac)
    d_nu = dark_count_fraction(q_nu, q_vac)

    g_plus, g_minus = estimate_couplings(stats, d_mu)
    g_plus_se, g_minus_se = coupling_standard_errors(stats, d_mu)
    rates = estimate_error_rates(stats, g_plus, g_minus, d_mu)
    se_x, se_z, se_b = delta_standard_errors(stats)

    decoy_rates = None
    delta_x_nu_corr = None
    if stats_decoy is not None:
        decoy_rates = estimate_error_rates(stats_decoy, g_plus, g_minus, d_nu)
        delta_x_nu_corr = corrected_error_rate(min(decoy_rates.delta_x, 0.5), d_nu)

    g_avg = 0.5 * (g_plus + g_minus)
    mean_var = float(np.mean(stats.var))
    sigma_md_sq_lower = mean_var - 0.25 * g_avg**2 * thresholds.sigma_phi_upper**2
    if sigma_md_sq_lower > 0 and g_avg > 0:
        delta_wm_est = wm_disturbance_error(g_avg, math.sqrt(sigma_md_sq_lower))
    else:
        delta_wm_est = 0.25  # degenerate device estimate: assume the worst

    dx_corr = corrected_error_rate(min(rates.delta_x, 0.5), d_mu)
    dz_corr = corrected_error_rate(min(rates.delta_z, 0.5), d_mu)
    db_corr = 0.5 * (dx_corr + dz_corr)
    qber = compute_qber(db_corr, delta_wm_est, d_mu)

    report = EstimationReport(
        cell_mean=stats.mean, cell_var=stats.var, cell_count=stats.count,
        g_plus=g_plus, g_minus=g_minus, g_plus_se=g_plus_se, g_minus_se=g_minus_se,
        rates=rates,
        delta_x_se=se_x, delta_z_se=se_z, delta_b_se=se_b,
        gains=tuple(gains), dark_fraction_signal=d_mu, dark_fraction_decoy=d_nu,
        delta_x_corrected=dx_corr, delta_z_corrected=dz_corr, delta_b_corrected=db_corr,
        decoy_rates=decoy_rates, delta_x_decoy_corrected=delta_x_nu_corr,
        sigma_md_sq_lower=sigma_md_sq_lower, delta_wm_estimate=delta_wm_est,
        qber=qber,
    )
    verdicts = wm_verification(report, thresholds)
    report.verdicts = verdicts
    report.abort = bool((not verdicts.all_pass) or (qber > thresholds.delta_sec))
    return report
