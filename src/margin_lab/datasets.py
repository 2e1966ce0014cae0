"""Linearly separable datasets: generators, validation, serialization.

A Dataset is a row matrix of unit-ball features, +-1 labels, a unit-norm
certificate vector w_star, and the margin gamma the instance was built to
certify: every row satisfies y_i <x_i, w_star> >= gamma.

Rows may carry positive integer multiplicity weights. A weighted dataset with
R distinct rows and weights summing to n is semantically identical to the
materialized dataset with n rows; risks and gradients are weighted means.
A Dataset is frozen; its n is exact and fixed at construction.
This keeps instances with huge nominal n (the batch hard instance at n = 2^20
has only ~log2(n) distinct rows) cheap to store and exact to compute with.

File format (text, one dataset per file):

    margin-lab-dataset v1 n=<n> d=<d> gamma=<g>
    wstar: <d floats>
    <label> <d floats>          (n rows)

Weighted datasets use the `v1w` header variant and insert a weight column
after the label. Floats are written with 17 significant digits, so a
save/load round trip is bit-exact.

Memory: the passes over a whole feature matrix that need temporaries work
in row blocks of block_rows(d) = max(1, BLOCK_ELEMENTS // d) rows, so a
temporary holds at most 65 536 floats (512 KiB), or one row when d is
larger. Generation peaks at the feature matrix plus about one block;
validate holds one block beyond the dataset, save_dataset one formatted
row; load_dataset counts the rows in a first pass over the file and parses
them into one preallocated array in a second, so it peaks at the feature
matrix plus what validate holds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

_HEADER_RE = re.compile(
    r"^margin-lab-dataset (v1w?) n=(?P<n>\d+) d=(?P<d>\d+) gamma=([^ ]+)$"
)

# The element budget of one block, shared by the row blocks below and the
# stacked averaged iterates of descent.block_size.
BLOCK_ELEMENTS = 65_536

# The largest row weight a file or generator holds exactly.
MAX_WEIGHT = 2**53


def block_rows(d: int) -> int:
    """Rows per block for d columns: max(1, BLOCK_ELEMENTS // d)."""
    return max(1, BLOCK_ELEMENTS // max(d, 1))


def row_blocks(n_rows: int, d: int):
    """Consecutive row slices of block_rows(d) rows covering n_rows rows;
    the last one may be shorter."""
    step = block_rows(d)
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


@dataclass(frozen=True)
class Dataset:
    """Frozen; n is exact and set at construction (dataclasses.replace too):
    n_rows, or the Python-int sum of the weights, where a nan weight raises ValueError.
    weights is a read-only copy of the array passed in, so n cannot go stale."""

    features: np.ndarray  # (R, d)
    labels: np.ndarray  # (R,), values in {-1.0, +1.0}
    gamma: float
    w_star: np.ndarray  # (d,), unit norm
    weights: np.ndarray | None = None  # (R,) positive integers, None = all ones
    metadata: dict = field(default_factory=dict)
    n: int = field(init=False)

    def __post_init__(self):
        if self.weights is not None:
            object.__setattr__(self, "weights", self.weights.copy())
            self.weights.setflags(write=False)
        n = self.n_rows if self.weights is None else sum(map(int, self.weights.tolist()))
        object.__setattr__(self, "n", n)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def margins(self, w: np.ndarray) -> np.ndarray:
        """Signed margins y_i <x_i, w> per distinct row: the first of the
        two passes over the data, signed_sum being the second.

        A (k, d) stack of parameter vectors gives a (k, R) array, one row per
        vector. The stack goes through np.matmul(X, W[:, :, None]), one gemv
        per vector, so row j has the bits of margins(W[j]); the gemm
        X @ W.T rounds differently. descent's risk, phi, phi_coefficients
        and grad_phi take such stacks through this pass and signed_sum.
        """
        w = np.asarray(w, dtype=float)
        if w.ndim == 2:
            return self.labels * np.matmul(self.features, w[:, :, None])[..., 0]
        return self.labels * (self.features @ w)

    def signed_sum(self, c: np.ndarray) -> np.ndarray:
        """sum_i c_i y_i x_i over the distinct rows, for per-row
        coefficients c: the gradient pass, (c * y) @ X.

        A (k, R) stack of coefficient rows gives a (k, d) array through
        np.matmul(C[:, None, :], X), one gemv per row as margins makes, so
        row j has the bits of signed_sum(C[j]). The labels are +-1, so
        multiplying by them is exact in any order.
        """
        c = c * self.labels
        if c.ndim == 2:
            return np.matmul(c[:, None, :], self.features)[:, 0]
        return c @ self.features

    def min_margin(self, w: np.ndarray) -> float:
        return float(self.margins(w).min())


@dataclass
class ValidationReport:
    ok: bool
    realized_margin: float
    checks: list  # (name, passed, detail) triples


def validate(ds: Dataset) -> ValidationReport:
    """Check the dataset contract: labels, norms, certificate, weights, the
    norms and the margin to within 1e-12.

    The row norms are taken one row block at a time, so beyond the dataset
    it holds one block and a few vectors of length n_rows."""
    tol = 1e-12
    checks = []

    labels_ok = bool(np.all(np.isin(ds.labels, (-1.0, 1.0))))
    checks.append(("labels_pm1", labels_ok, "labels must be exactly +-1"))

    norms = np.empty(ds.n_rows)
    for rows in row_blocks(ds.n_rows, ds.d):
        norms[rows] = np.linalg.norm(ds.features[rows], axis=1)
    norm_ok = bool(np.all(norms <= 1.0 + tol))
    checks.append(("unit_ball", norm_ok, f"max row norm {norms.max():.17g}"))

    wnorm = float(np.linalg.norm(ds.w_star))
    wnorm_ok = abs(wnorm - 1.0) <= tol
    checks.append(("certificate_unit", wnorm_ok, f"|w*| = {wnorm:.17g}"))

    margins = ds.margins(ds.w_star)
    realized = float(margins.min())
    margin_ok = ds.gamma > 0.0 and realized >= ds.gamma - tol
    checks.append(("certificate_margin", margin_ok,
                   f"min margin {realized:.17g}, gamma {ds.gamma:.17g}"))

    if ds.weights is None:
        weights_ok = True
        detail = "unweighted"
    else:
        w = ds.weights
        weights_ok = bool(
            w.shape == (ds.n_rows,)
            and np.all(w >= 1.0)
            and np.all(w == np.round(w))
        )
        detail = f"{ds.n_rows} rows, effective n {ds.n}"
    checks.append(("weights_positive_integer", weights_ok, detail))

    ok = all(passed for _, passed, _ in checks)
    return ValidationReport(ok=ok, realized_margin=realized, checks=checks)


def mean_signed_feature(ds: Dataset) -> np.ndarray:
    """The weighted mean of y_i x_i, i.e. minus the risk gradient at w = 0
    up to the common factor |l'(0)|."""
    w = np.ones(ds.n_rows) if ds.weights is None else ds.weights
    return (w * ds.labels) @ ds.features / ds.n


def stepsize_cap_fraction(ds: Dataset, r: float = 0.1) -> float:
    """Weighted fraction of rows whose signed feature y_i x_i has alignment
    below -r with the mean signed feature. A fraction q > 0 caps the eta for
    which adaptive GD can keep the risk monotone at l(0) / (q r)."""
    xbar = mean_signed_feature(ds)
    align = ds.labels * (ds.features @ xbar)
    w = np.ones(ds.n_rows) if ds.weights is None else ds.weights
    return float(w[align < -r].sum() / ds.n)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_random_separable(d: int, n: int, gamma: float, seed: int) -> Dataset:
    """Random unit-ball points with a hidden unit certificate and margin gamma.

    Points are sampled uniformly in the ball, labeled by the sign of their
    alignment with w_star, and any point with margin below gamma is projected
    onto the margin boundary (rescaling the orthogonal component so the norm
    stays <= 1, which leaves its realized margin exactly gamma).

    The (n, d) draw of directions becomes the features in place: rows are
    normalised, scaled and projected one block of block_rows(d) rows at a
    time, element by element as on the whole matrix, so the result is the
    same to the bit and the peak is the features plus about one block.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"need 0 < gamma < 1, got {gamma}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)

    x = rng.standard_normal((n, d))  # the directions, made the features in place
    radii = rng.random(n) ** (1.0 / d)
    for rows in row_blocks(n, d):
        block = x[rows]
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        block *= radii[rows, None]

    align = x @ w_star
    y = np.where(align >= 0.0, 1.0, -1.0)
    m = y * align  # nonnegative margins

    low = np.flatnonzero(m < gamma)
    cap = math.sqrt(max(0.0, 1.0 - gamma * gamma))
    for part in row_blocks(low.size, d):
        i = low[part]
        yw = w_star * y[i, None]
        x_perp = x[i]
        x_perp -= m[i, None] * yw
        perp_norm = np.linalg.norm(x_perp, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(perp_norm > 0, np.minimum(1.0, cap / perp_norm), 0.0)
        x_perp *= scale[:, None]
        yw *= gamma
        x_perp += yw
        x[i] = x_perp  # the projection onto the margin boundary

    return Dataset(
        features=x,
        labels=y,
        gamma=float(gamma),
        w_star=w_star,
        metadata={"generator": "random", "d": d, "n": n, "gamma": gamma, "seed": seed},
    )


def gen_two_point(gamma: float) -> Dataset:
    """Two positive points in the plane on which adaptive GD with a large
    stepsize provably overshoots.

    x1 = (gamma, 1/2), x2 = (gamma, -sqrt(1 - gamma^2)), both labeled +1,
    certificate w* = e1 with margin exactly gamma. The mean feature then has
    alignment x1 . xbar <= -0.1137 for every gamma in (0, 0.1), so half the
    sample sits below the -0.1 alignment level and any eta above
    l(0)/(0.5 * 0.1) = 20 l(0) forces a risk increase somewhere.
    """
    if not (0.0 < gamma < 0.1):
        raise ValueError(f"need 0 < gamma < 0.1, got {gamma}")
    x = np.array(
        [
            [gamma, 0.5],
            [gamma, -math.sqrt(1.0 - gamma * gamma)],
        ]
    )
    y = np.array([1.0, 1.0])
    w_star = np.array([1.0, 0.0])
    ds = Dataset(
        features=x,
        labels=y,
        gamma=float(gamma),
        w_star=w_star,
        metadata={"generator": "two-point", "gamma": gamma},
    )
    ds.metadata["cap_fraction_r"] = 0.1
    ds.metadata["cap_fraction_q"] = stepsize_cap_fraction(ds, r=0.1)
    return ds


def gen_batch_hard(gamma: float, n: int, weighted: bool = False) -> Dataset:
    """Batch hard instance: doubling blocks of chained two-coordinate rows.

    With d = floor(1/(5 gamma^2)) and k = min(floor(log2 n), d - 2), block
    j in 1..k repeats the row (2/sqrt5) e_{j+1} - (1/sqrt5) e_{j+2} exactly
    2^{k-j} times, and rows 2^k..n are the residual (1/sqrt5) e_{k+2}. All
    labels are +1 and w* = ones/sqrt(d) certifies margin 1/sqrt(5 d) >= gamma.

    Gradient descent started at w0 proportional to e1 provably keeps every
    iterate in a slowly growing coordinate span and cannot reach positive
    minimum margin before min(ln n / (8 ln 2), 1/(30 gamma^2)) steps.

    weighted=True emits the k+1 distinct rows with multiplicity weights
    instead of materializing all n rows. n is at most MAX_WEIGHT = 2^53,
    and a gamma for which 1/(5 gamma^2) is no finite float is refused.
    """
    if not (0.0 < gamma < 1.0 / 6.0):
        raise ValueError(f"need 0 < gamma < 1/6, got {gamma}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_WEIGHT:
        raise ValueError(f"need n <= 2^53, got {n}")
    square = 5.0 * gamma * gamma
    if square == 0.0 or 1.0 / square == math.inf:
        raise ValueError(f"need 1/(5 gamma^2) to be a finite float, got gamma {gamma}")
    d = int(1.0 / square)
    k = min(int(math.log2(n)), d - 2)
    f = 1.0 / math.sqrt(5.0)
    f2 = 2.0 * f  # exact doubling keeps the paired cancellations exact

    rows = []
    mults = []
    for j in range(1, k + 1):
        row = np.zeros(d)
        row[j] = f2  # e_{j+1} in 1-based coordinates
        row[j + 1] = -f
        rows.append(row)
        mults.append(2 ** (k - j))
    residual = np.zeros(d)
    residual[k + 1] = f
    rows.append(residual)
    mults.append(n - 2**k + 1)

    meta = {
        "generator": "batch-hard",
        "gamma": gamma,
        "n": n,
        "d": d,
        "k": k,
        "weighted": weighted,
        "span_horizon": (k + 1) // 2,  # t0; span statement holds for t <= t0 - 2
        "no_separation_before": min(math.log(n) / (8.0 * math.log(2.0)),
                                    1.0 / (30.0 * gamma * gamma)),
    }
    w_star = np.full(d, 1.0 / math.sqrt(d))
    if weighted:
        feats = np.stack(rows)
        labels = np.ones(len(rows))
        weights = np.asarray(mults, dtype=float)
        return Dataset(feats, labels, float(gamma), w_star, weights=weights, metadata=meta)

    feats = np.repeat(np.stack(rows), mults, axis=0)
    labels = np.ones(n)
    return Dataset(feats, labels, float(gamma), w_star, metadata=meta)


def gen_online_hard(gamma: float, n: int) -> Dataset:
    """Online hard instance: fresh basis vectors, then repeats.

    d = floor(1/gamma^2), k = min(n, d - 1); point i is e_{i+1} for i <= k
    and e_{k+1} afterwards, all labeled +1, certified by ones/sqrt(d) with
    margin 1/sqrt(d) >= gamma. Any online first-order method started in
    span{e1} must make a mistake on each fresh coordinate, so separation
    cannot happen before min(1/(2 gamma^2), n) rounds. Coordinate 1 is never
    touched by the data. A gamma for which 1/gamma^2 is no finite float is
    refused.
    """
    if not (0.0 < gamma < 0.5):
        raise ValueError(f"need 0 < gamma < 1/2, got {gamma}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    square = gamma * gamma
    if square == 0.0 or 1.0 / square == math.inf:
        raise ValueError(f"need 1/gamma^2 to be a finite float, got gamma {gamma}")
    d = int(1.0 / square)
    k = min(n, d - 1)
    feats = np.zeros((n, d))
    for i in range(n):
        feats[i, min(i + 1, k)] = 1.0
    labels = np.ones(n)
    w_star = np.full(d, 1.0 / math.sqrt(d))
    meta = {
        "generator": "online-hard",
        "gamma": gamma,
        "n": n,
        "d": d,
        "k": k,
        "separation_floor": min(1.0 / (2.0 * gamma * gamma), float(n)),
    }
    return Dataset(feats, labels, float(gamma), w_star, metadata=meta)


def gen_chain_hard(gamma: float, n: int) -> Dataset:
    """Alternate hard instance: a single chain of difference rows.

    d = floor(gamma^{-2/3}), k = min(n, d - 2); row j in 1..k is
    -(1/sqrt2) e_{j+1} + (1/sqrt2) e_{j+2}, remaining rows are
    (1/sqrt2) e_{k+2}. The certificate is the increasing ramp
    w* = sqrt(6/(d(d+1)(2d+1))) * (1, 2, ..., d) with margin
    sqrt(3/(d(d+1)(2d+1))) >= sqrt(1/d^3) >= gamma. GD from span{e1} cannot
    separate before min(n/4, 1/(8 gamma^{2/3})) steps.
    """
    if not (0.0 < gamma < 1.0 / 8.0):
        raise ValueError(f"need 0 < gamma < 1/8, got {gamma}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = int(gamma ** (-2.0 / 3.0))
    k = min(n, d - 2)
    r = 1.0 / math.sqrt(2.0)
    feats = np.zeros((n, d))
    for j in range(1, k + 1):
        feats[j - 1, j] = -r
        feats[j - 1, j + 1] = r
    for i in range(k, n):
        feats[i, k + 1] = r
    labels = np.ones(n)
    c = math.sqrt(6.0 / (d * (d + 1.0) * (2.0 * d + 1.0)))
    w_star = c * np.arange(1.0, d + 1.0)
    meta = {
        "generator": "chain-hard",
        "gamma": gamma,
        "n": n,
        "d": d,
        "k": k,
        "span_horizon": (k + 1) // 2,
        "no_separation_before": min(n / 4.0, 1.0 / (8.0 * gamma ** (2.0 / 3.0))),
    }
    return Dataset(feats, labels, float(gamma), w_star, metadata=meta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_dataset(ds: Dataset, path, comments: tuple = ()) -> None:
    """Write ds in the text format, one row at a time: beyond the dataset
    the writer holds one formatted row. Each row is one %-format (%.17g,
    the bytes of _fmt, per feature)."""
    weighted = ds.weights is not None
    version = "v1w" if weighted else "v1"
    # formatted before the file is opened: a weight int() refuses writes nothing
    weights = [str(int(w)) for w in ds.weights] if weighted else None
    row_fmt = " ".join(["%s"] * (2 if weighted else 1) + ["%.17g"] * ds.d) + "\n"
    with open(path, "w") as fh:
        for c in comments:
            fh.write((c if c.startswith("#") else f"# {c}") + "\n")
        fh.write(f"margin-lab-dataset {version} n={ds.n} d={ds.d} gamma={_fmt(ds.gamma)}\n")
        fh.write("wstar: " + " ".join(_fmt(v) for v in ds.w_star) + "\n")
        for i in range(ds.n_rows):
            head = ("+1" if ds.labels[i] > 0 else "-1",) + ((weights[i],) if weighted else ())
            fh.write(row_fmt % (*head, *ds.features[i].tolist()))


def _floats(tokens, path, what: str) -> list:
    try:
        return [float(v) for v in tokens]
    except ValueError:
        raise ValueError(f"{path}: non-numeric token in {what}") from None


def _content_lines(lines):
    """The lines that are neither blank nor comments, without newline."""
    for ln in lines:
        stripped = ln.lstrip()
        if stripped and not stripped.startswith("#"):
            yield ln


def _text_lines(fh):
    """The lines of a binary file as UTF-8 text, split where text mode
    splits them (\\n, \\r\\n and \\r), without their newlines. A byte that
    is not UTF-8 raises UnicodeDecodeError with start counted from the
    start of the file."""
    offset = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            exc.start, exc.end = exc.start + offset, exc.end + offset
            raise
        offset += len(raw)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        yield from text.split("\n")


def load_dataset(path) -> Dataset:
    """Read a dataset file and check it against the dataset contract.

    Every malformed or contract-breaking file raises ValueError, whose
    message starts with the path. A byte that is not UTF-8 anywhere in the
    file outranks every other fault; the message gives its offset from the
    start of the file.

    The file is read twice, line by line: the first pass decodes every
    byte and counts the content lines, the second parses each row straight
    into one preallocated float64 array. So the peak is the feature matrix
    plus what validate holds (one block and a few vectors) and one line.
    """
    try:
        with open(path, "rb") as fh:
            count = sum(1 for _ in _content_lines(_text_lines(fh)))
            size = fh.tell()
            fh.seek(0)
            return _parse(path, _content_lines(_text_lines(fh)), count - 2, size)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _header_int(m, key: str, path) -> int:
    try:
        return int(m.group(key))
    except ValueError:  # more digits than int() converts
        raise ValueError(f"{path}: header {key}= has {len(m.group(key))} digits, "
                         "too many to read") from None


def _parse(path, lines, rows: int, size: int) -> Dataset:
    """The dataset in the content lines of a file of size bytes, of which
    rows follow the header and wstar lines, checked as load_dataset says."""
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: empty dataset file")
    m = _HEADER_RE.match(first)
    if not m:
        raise ValueError(f"{path}: bad header line {first!r}")
    version, n, d = m.group(1), _header_int(m, "n", path), _header_int(m, "d", path)
    gamma = _floats([m.group(4)], path, "the header gamma")[0]
    weighted = version == "v1w"
    wline = next(lines, None)
    if wline is None or not wline.startswith("wstar: "):
        raise ValueError(f"{path}: missing wstar line")
    w_star = np.array(_floats(wline[len("wstar: "):].split(), path, "wstar"))
    if w_star.size != d:
        raise ValueError(f"{path}: wstar has {w_star.size} coords, header says d={d}")

    head = 2 if weighted else 1
    # A row of head + d fields takes at least 2 (head + d) bytes with its
    # newline, so a file of size bytes holds fewer valid rows than this cap;
    # a file with more content lines fails at a row within it.
    rows = min(rows, size // (2 * (head + d)) + 1)
    features, labels = np.empty((rows, d)), np.empty(rows)
    weights = np.empty(rows) if weighted else None
    i = 0
    for i, ln in enumerate(lines, start=1):
        parts = ln.split()
        if len(parts) != head + d:
            raise ValueError(
                f"{path}: row {i} has {len(parts)} fields, expected {head + d}")
        labels[i - 1] = _floats(parts[:1], path, f"row {i}")[0]
        if weighted:
            try:
                weight = int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: row {i} weight must be an integer") from None
            if abs(weight) > MAX_WEIGHT:
                raise ValueError(f"{path}: row {i} weight exceeds 2^53")
            weights[i - 1] = float(weight)
        features[i - 1] = _floats(parts[head:], path, f"row {i}")
    if i == 0:
        raise ValueError(f"{path}: no data rows")

    ds = Dataset(
        features=features,
        labels=labels,
        gamma=gamma,
        w_star=w_star,
        weights=weights,
        metadata={"generator": "file", "path": str(path)},
    )
    report = validate(ds)
    if not report.ok:
        broken = "; ".join(f"{name} ({detail})"
                           for name, passed, detail in report.checks if not passed)
        raise ValueError(f"{path}: breaks the dataset contract: {broken}")
    if ds.n != n:
        raise ValueError(f"{path}: header n={n} but rows sum to {ds.n}")
    return ds
