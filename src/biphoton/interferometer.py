"""Coincidence rates and interferograms for the unfolded four-path
two-photon interferometer.

The numerical kernel is the overlap integral

    Gamma(dts, dtl) = sum Phi_A * conj(Phi_B) * exp(-i(w1*dts + w2*dtl)) dw1 dw2

evaluated as a midpoint-rule double sum, with the normalized coincidence
rate G = 1 - Re(Gamma) in [0, 2].  On a lattice of the exact delays
start + k step of each (start, step, count) axis, gamma_lattice evaluates
M -> Re(E1 M E2^T), the same sum reassociated, and gamma_lattice_adjoint
its adjoint h -> conj(E1)^T h conj(E2), which the JSI inverse
(reconstruction) applies.  Both take their exp(-i w t) tables from
`_lattice_tables`: one core.phasors table of the shorter axis, contracted
first (no CLI scan has more than 25 delays on it), and on the longer one
k = b q + r, b ~ sqrt(count), so its tables have ~2 sqrt(count) rows:
no array but the lattice itself grows in proportion to the scan.  A
`LatticeScan` holds only M.

Interferograms are stored as CSV format 2: '#' headers that define the
axes, then one value per lattice point: G, or the integer counts of a
seeded scan, whose header holds the `baseline_counts` that mark them (a
measured scan holds no G).  The coordinates of a point are its axes'
`values`; a file without the '# format=2' header is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FrequencyGrid, GridMismatchError, SampledAmplitude, phasors

_RANGE_TOL = 1e-9
_BLOCK_ROWS = 1 << 9       # rows per block of a CSV write; larger blocks raise peak RSS


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    step: float
    count: int

    def __post_init__(self):
        # plain Python numbers, so the CSV header reads back with float()/int()
        for key, cast in (("start", float), ("step", float), ("count", int)):
            object.__setattr__(self, key, cast(getattr(self, key)))
        if self.count < 2:
            raise ValueError("axis needs at least 2 points")
        if not np.isfinite([self.start, self.step]).all():
            raise ValueError(f"axis {self.name} start and step must be finite")
        if self.step <= 0:
            raise ValueError("axis step must be positive")

    @property
    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True)
class Interferogram:
    """Lattice of G values, or of detector counts, over one or two delay axes.

    `counts` carries detector counts on the same lattice (see
    detector.rate_to_counts); `values` (G) may then be None, as in a scan
    read from a seeded CSV, and is validated against the physical range
    [0, 2] otherwise.
    """

    axes: tuple[Axis, ...]
    values: np.ndarray | None
    counts: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = tuple(ax.count for ax in self.axes)
        if self.values is None and self.counts is None:
            raise ValueError("an interferogram needs G values or counts")
        for name, array in (("values", self.values), ("counts", self.counts)):
            if array is not None and array.shape != shape:
                raise ValueError(f"{name} shape {array.shape} does not match axes {shape}")
        if self.values is not None:
            object.__setattr__(self, "values", _checked_g(self.values))


def _checked_g(values: np.ndarray) -> np.ndarray:
    """`values`, validated against the physical range [0, 2] (NaN fails too).

    Values within _RANGE_TOL outside the range are clipped, and integer
    input is made float, into a new array; otherwise `values` itself is
    returned.
    """
    lo, hi = values.min(), values.max()
    if not (lo >= -_RANGE_TOL and hi <= 2.0 + _RANGE_TOL):
        raise ValueError("G values outside [0, 2]")
    if lo < 0.0 or hi > 2.0 or not np.issubdtype(values.dtype, np.floating):
        return np.clip(values, 0.0, 2.0)
    return values


def _lattice_tables(grid: FrequencyGrid, s_delays, l_delays):
    """(swap, E, A, conj F, count): swap when l_delays has fewer delays than
    s_delays, E the phasors of that shorter axis (S on a tie) and, on the
    other, `count` long, exp(-i w t_k) = A[q] F[r] at k = b q + r,
    b = ceil(sqrt(count)): A at start + b q step and conj F at -r step."""
    axes = [(grid.axis1, s_delays), (grid.axis2, l_delays)]
    swap = l_delays[2] < s_delays[2]
    (omega_short, short), (omega, long) = axes[::-1] if swap else axes
    e = phasors(omega_short, short, np.arange(short[2]))
    _, step, count = long
    b = int(np.ceil(np.sqrt(count)))
    a = phasors(omega, long, b * np.arange(-(-count // b)))
    return swap, e, a, phasors(omega, (0.0, -step), np.arange(b)), count


def gamma_lattice(phi_a: SampledAmplitude, phi_b: SampledAmplitude,
                  s_delays: tuple[float, float, int],
                  l_delays: tuple[float, float, int]) -> np.ndarray:
    """Re(Gamma) = Re(E1 M E2^T) on the product lattice of the delay axes
    s_delays and l_delays, each a (start, step, count) triple, as a real
    (S, L) array: P = E @ M along the shorter axis (`_lattice_tables`), then
    each row Re((P_row * A) @ F^T), one real product of (re, im) views.  A
    real M takes P from Re(E) @ M and Im(E) @ M, with no complex copy of M."""
    m = _joint_measure(phi_a, phi_b)
    swap, e, a, f, count = _lattice_tables(phi_a.grid, s_delays, l_delays)
    m = m.T if swap else m
    if np.iscomplexobj(m):
        p = e @ m
    else:
        p = np.empty((len(e), m.shape[1]), complex)
        np.matmul(e.real, m, out=p.real)
        np.matmul(e.imag, m, out=p.imag)
    out = np.empty((len(p), len(a), len(f)))
    f = f.view(float).T  # conj(F) as (re, im) rows: the product is Re(x conj(y)^T)
    for row, o in zip(p, out):
        np.matmul((row * a).view(float), f, out=o)
    out = out.reshape(len(p), -1)[:, :count]
    return out.T if swap else out


def gamma_lattice_adjoint(grid: FrequencyGrid, s_delays: tuple[float, float, int],
                          l_delays: tuple[float, float, int], g: np.ndarray,
                          w_s: np.ndarray, w_l: np.ndarray) -> np.ndarray:
    """conj(E1)^T h conj(E2), h = w_s (1 - g) w_l, as a complex (n1, n2) array
    on `grid`: the adjoint of gamma_lattice's M -> Re(E1 M E2^T).  First
    T = conj(E w)^T (1 - g) = sum w conj(E) less a real product with g, then
    sum_q (T_q @ conj F) conj A[q] over blocks of b delays of the longer axis."""
    swap, e, a, f, _ = _lattice_tables(grid, s_delays, l_delays)
    w_short, w_long = (w_l, w_s) if swap else (w_s, w_l)
    np.multiply(np.conj(e, out=e), w_short[:, None], out=e)
    t = ((g if swap else g.T) @ e.view(float)).view(complex)  # T^T
    np.subtract(e.sum(axis=0), t, out=t)
    t *= w_long[:, None]
    est = np.zeros((t.shape[1], f.shape[1]), complex)
    for lo, conj_a in zip(range(0, len(t), len(f)), np.conj(a)):
        est += (t[lo:lo + len(f)].T @ f[:len(t) - lo]) * conj_a
    return est.T if swap else est


def _joint_measure(phi_a: SampledAmplitude, phi_b: SampledAmplitude) -> np.ndarray:
    """M = phi_a conj(phi_b) measure on the grid both are sampled on:
    Gamma = E1 @ M @ E2^T."""
    if phi_a.grid != phi_b.grid:
        raise GridMismatchError("amplitudes sampled on different frequency grids")
    return phi_a.values * phi_b.values.conj() * phi_a.grid.measure


def scan_1d(phi_a: SampledAmplitude, phi_b: SampledAmplitude, axis: str,
            fixed_other_delay: float, start: float, step: float, count: int) -> Interferogram:
    """1D coincidence scan along the S or L delay axis."""
    if axis not in ("S", "L"):
        raise ValueError("axis must be 'S' or 'L'")
    ax = Axis(f"delta_tau_{axis}", start, step, count)
    axes = [(fixed_other_delay, 0.0, 1), (ax.start, ax.step, ax.count)]
    gam = gamma_lattice(phi_a, phi_b, *(axes if axis == "L" else axes[::-1])).reshape(-1)
    meta = {"fixed_axis": "S" if axis == "L" else "L", "fixed_delay": fixed_other_delay}
    return Interferogram((ax,), 1.0 - gam, metadata=meta)


def scan_2d(phi_a: SampledAmplitude, phi_b: SampledAmplitude,
            s_axis: tuple[float, float, int], l_axis: tuple[float, float, int]) -> Interferogram:
    """Full 2D coincidence lattice over (delta_tau_S, delta_tau_L)."""
    axes = (Axis("delta_tau_S", *s_axis), Axis("delta_tau_L", *l_axis))
    gam = gamma_lattice(phi_a, phi_b, *((ax.start, ax.step, ax.count) for ax in axes))
    return Interferogram(axes, np.subtract(1.0, gam, out=gam))


class LatticeScan:
    """scan_2d's lattice, never formed: a record of its `axes`, the sampling
    `grid` and M = phi_a conj(phi_b) measure, with 1 - G = Re(E1 @ M @ E2^T).
    reconstruction._invert_scan inverts it from sums over each axis alone,
    without its phasor tables.

    G's range is certified instead of checked: the phasor tables have unit
    modulus, so |Re Gamma| <= sum |M|, and a sum <= 1 + _RANGE_TOL puts
    every G within _RANGE_TOL of [0, 2].  A larger sum, or a NaN in M,
    raises ValueError.
    """

    def __init__(self, phi_a: SampledAmplitude, phi_b: SampledAmplitude,
                 s_axis: tuple[float, float, int], l_axis: tuple[float, float, int]):
        self.axes = (Axis("delta_tau_S", *s_axis), Axis("delta_tau_L", *l_axis))
        self.grid, self.m = phi_a.grid, _joint_measure(phi_a, phi_b)
        if not np.sum(np.abs(self.m)) <= 1.0 + _RANGE_TOL:
            raise ValueError("G values outside [0, 2]")


def write_csv(path, headers: list[str], column: np.ndarray) -> None:
    """Format-2 CSV: '# format=2', a '# <header>' line per header, then one
    row per value of the 1-D `column`, its repr.

    Rows go out in blocks of _BLOCK_ROWS, which bounds the text held at once.
    """
    with open(path, "w") as fh:
        fh.write("# format=2\n")
        fh.writelines(f"# {line}\n" for line in headers)
        for lo in range(0, len(column), _BLOCK_ROWS):
            fh.write("\n".join(map(repr, column[lo:lo + _BLOCK_ROWS].tolist())))
            fh.write("\n")


def write_interferogram_csv(ig: Interferogram, path) -> None:
    """CSV schema (format 2): '# format=2', '# axis<i> name,start,step,count'
    headers, sorted '# key=value' metadata lines, then one value per lattice
    point in row-major order; the coordinates of a row are start + k * step
    of its axes.  The value is the integer count when `ig` carries counts,
    which needs `baseline_counts` in its metadata, and G otherwise."""
    head = [f"axis{i} {ax.name},{ax.start!r},{ax.step!r},{ax.count}"
            for i, ax in enumerate(ig.axes, start=1)]
    head += [f"{key}={ig.metadata[key]}" for key in sorted(ig.metadata)]
    if ig.counts is None:
        column = ig.values.reshape(-1)
    else:
        if "baseline_counts" not in ig.metadata:
            raise ValueError("counts need baseline_counts in the metadata")
        counts = ig.counts.reshape(-1)
        with np.errstate(invalid="ignore"):
            column = counts.astype(np.int64)
        if not np.array_equal(column, counts):
            raise ValueError("counts must be integers")
    write_csv(path, head, column)


def read_interferogram_csv(path) -> Interferogram:
    """Inverse of write_interferogram_csv: '#' headers first, then the rows.

    The headers must include '# format=2'.  A file whose headers hold
    `baseline_counts` is a seeded scan: its last column is counts, which
    must be finite, nonnegative integers, and a G column before it (the
    'G,counts' rows of earlier files) is ignored.  Otherwise the one
    column is G, which must lie in [0, 2].  ValueError otherwise.
    """
    axes: list[Axis] = []
    metadata: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("axis"):
                _, spec = body.split(" ", 1)
                name, start, step, count = spec.split(",")
                axes.append(Axis(name, float(start), float(step), int(count)))
            elif "=" in body:
                key, val = body.split("=", 1)
                metadata[key.strip()] = val.strip()
        else:
            raise ValueError(f"{path}: no data rows")
    if not axes:
        raise ValueError(f"{path}: no axis headers found")
    if (fmt := metadata.pop("format", None)) != "2":
        raise ValueError(f"{path}: unknown format {fmt!r}; expected a '# format=2' header")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    shape = tuple(ax.count for ax in axes)
    seeded = "baseline_counts" in metadata
    if data.shape[0] != np.prod(shape) or data.shape[1] not in ((1, 2) if seeded else (1,)):
        raise ValueError(f"{path}: {data.shape[0]} rows of {data.shape[1]} columns"
                         f" do not match axes {shape} and {'counts' if seeded else 'G'}")
    if not seeded:
        return Interferogram(tuple(axes), data[:, 0].reshape(shape), metadata=metadata)
    counts = data[:, -1].reshape(shape)
    if not (counts.min() >= 0.0 and counts.max() < np.inf and np.all(counts == np.floor(counts))):
        raise ValueError(f"{path}: counts must be finite, nonnegative integers")
    return Interferogram(tuple(axes), None, counts=counts, metadata=metadata)
