"""Built-in stochastic forward models organized as coupled level hierarchies.

A level hierarchy exposes levels 0..finest_level of one underlying model at
increasing resolution.  Evaluating two adjacent levels at the *same* input
vector is what makes the level corrections small, so all evaluation here is
deterministic in the input matrix and carries no hidden randomness.

Two desk-scale families are provided:

* :class:`SyntheticLowRank` - output vectors lie on a fixed low-dimensional
  nonlinear response surface, plus a small level-dependent perturbation, so
  reduced-basis behaviour is known by construction.
* :class:`Diffusion1D` - a 1-D elliptic problem with a lognormal diffusion
  coefficient driven by a truncated Karhunen-Loeve expansion, discretized by
  second-order finite differences on nested uniform grids.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericalError


# ---------------------------------------------------------------------------
# covariance kernels and Karhunen-Loeve machinery


@dataclass(frozen=True)
class ExponentialKernel:
    """k(x, y) = sigma2 * exp(-|x - y| / corr_length)."""

    sigma2: float
    corr_length: float

    def __post_init__(self):
        _check_kernel_params(self.sigma2, self.corr_length)

    def __call__(self, x, y):
        return self.sigma2 * np.exp(-np.abs(np.asarray(x) - np.asarray(y)) / self.corr_length)


@dataclass(frozen=True)
class SquaredExponentialKernel:
    """k(x, y) = sigma2 * exp(-(x - y)^2 / corr_length).

    Note the squared distance is divided by corr_length itself, not by
    corr_length squared; corr_length therefore has units of length squared.
    """

    sigma2: float
    corr_length: float

    def __post_init__(self):
        _check_kernel_params(self.sigma2, self.corr_length)

    def __call__(self, x, y):
        d = np.asarray(x) - np.asarray(y)
        return self.sigma2 * np.exp(-(d * d) / self.corr_length)


def _check_kernel_params(sigma2: float, corr_length: float) -> None:
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise ConfigError(f"kernel sigma2 must be positive, got {sigma2}")
    if not np.isfinite(corr_length) or corr_length <= 0.0:
        raise ConfigError(f"kernel corr_length must be positive, got {corr_length}")


_KERNELS = {
    "exponential": ExponentialKernel,
    "squared_exponential": SquaredExponentialKernel,
}


def make_kernel(name: str, sigma2: float, corr_length: float):
    try:
        return _KERNELS[name](sigma2, corr_length)
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; expected one of {sorted(_KERNELS)}"
        ) from None


@dataclass(frozen=True)
class KLField:
    """Truncated Karhunen-Loeve expansion of a 1-D random field.

    ``eigenvectors[:, i]`` holds mode i on ``grid``, orthonormal under the
    trapezoid quadrature weights; ``eigenvalues`` are the matching kernel
    eigenvalues in descending order.
    """

    grid: np.ndarray
    kernel: object
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dx = np.diff(grid)
    w = np.empty(grid.size)
    w[0] = dx[0] / 2.0
    w[-1] = dx[-1] / 2.0
    w[1:-1] = (dx[:-1] + dx[1:]) / 2.0
    return w


def kl_decompose(kernel, grid, n_modes: int) -> KLField:
    """Nystrom discretization of the kernel eigenproblem on ``grid``.

    The kernel matrix is weighted by trapezoid quadrature, symmetrized, and
    passed to a dense symmetric eigensolver; the ``n_modes`` largest pairs
    are kept.  Eigenvector signs are pinned so the first nonzero component
    of each mode is positive, making the output deterministic.
    """
    x = np.asarray(grid, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DimensionError(f"grid must be a 1-D array of at least 2 points, got shape {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
        raise DataError("grid must be finite and strictly increasing")
    if n_modes < 1 or n_modes > x.size:
        raise DimensionError(f"n_modes must lie in [1, {x.size}], got {n_modes}")

    w = trapezoid_weights(x)
    sw = np.sqrt(w)
    k = np.asarray(kernel(x[:, None], x[None, :]), dtype=np.float64)
    if not np.all(np.isfinite(k)):
        raise DataError("kernel matrix contains non-finite entries")
    b = sw[:, None] * k * sw[None, :]
    b = (b + b.T) / 2.0
    lam, psi = np.linalg.eigh(b)
    order = np.argsort(-lam, kind="stable")[:n_modes]
    lam = np.maximum(lam[order], 0.0)
    phi = psi[:, order] / sw[:, None]

    # Sign convention: first component of non-negligible magnitude positive.
    for i in range(phi.shape[1]):
        col = phi[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            phi[:, i] = -col

    return KLField(grid=x, kernel=kernel, eigenvalues=lam, eigenvectors=phi)


def kl_modes_at(field: KLField, points) -> np.ndarray:
    """Evaluate the KL modes at arbitrary points by Nystrom extension.

    phi_i(x) = (1/lambda_i) sum_j w_j k(x, x_j) phi_i(x_j); smooth in x and
    consistent with the grid values.  Modes whose eigenvalue is numerically
    zero contribute nothing to the field and are returned as zero columns.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 1:
        raise DimensionError(f"points must be 1-D, got shape {p.shape}")
    w = trapezoid_weights(field.grid)
    kx = np.asarray(field.kernel(p[:, None], field.grid[None, :]), dtype=np.float64)
    raw = kx @ (w[:, None] * field.eigenvectors)
    lam = field.eigenvalues
    out = np.zeros_like(raw)
    usable = lam > 1e-12 * max(lam[0] if lam.size else 0.0, 1e-300)
    out[:, usable] = raw[:, usable] / lam[usable]
    return out


# ---------------------------------------------------------------------------
# level hierarchy contract


@dataclass(frozen=True)
class LevelOutput:
    """One level evaluated on a batch: columns of ``q`` are per-sample output
    vectors, ``qoi`` the matching scalar quantities of interest."""

    q: np.ndarray
    qoi: np.ndarray


class LevelHierarchy(abc.ABC):
    """Coupled multilevel model.

    A model's constructor sets ``input_dim``, ``cost_gamma`` and the
    per-level tables ``_dofs`` and ``_output_dims``, and the model implements
    two maps: ``_solve`` from checked inputs to the output matrix, and
    ``_output_map`` from an output matrix to the scalar quantities of
    interest.  Everything else is derived here: level and input checks,
    ``cost = dofs ** cost_gamma``, ``evaluate``, ``qoi`` and ``qoi_of``.
    Because ``evaluate`` computes its quantities of interest through
    ``qoi``, its Q is one function of the output vector alone, bit for bit,
    and applying it to reconstructed output vectors rounds exactly as it
    does for solved ones.

    ``qoi_of`` solves for the quantities of interest alone, through the
    ``_solve_qoi`` hook, which by default is ``_output_map`` of ``_solve``.
    The estimators draw every sample whose output vector they do not read
    from ``qoi_of``: plain MC, both levels of an MLMC correction and the
    fine level of a controlled one.  A model may override the hook with a
    cheaper route to the same numbers that rounds differently.  Both built-in
    models do: ``Diffusion1D``'s closed-form Q differed from ``evaluate``'s
    by up to 9.6e-15 relative (``integral_of_u``) and 8.8e-16
    (``flux_at_left``) over 65,536 rows on each of the ``fine_mc`` grids, and
    ``SyntheticLowRank``'s, which averages the rows of A before its product
    with g, by up to 2.2e-15 of the level's largest |Q| over 65,536 rows of
    the ``wide_pilot`` model.

    Inputs are standard Gaussian (n, input_dim) matrices from
    ``streams.draw_inputs(..., hierarchy.input_dim)`` and outputs are
    (output_dim, n) matrices; a vector is rejected, not read as one sample.

    Implementations must be deterministic: evaluating the same level at the
    same input matrix twice returns identical arrays.  Levels are indexed
    0..finest_level with strictly increasing degrees of freedom.

    Outputs may depend on the number of input rows in their last bits,
    because BLAS picks its kernel by matrix shape: evaluating a 65,536-row
    batch and slicing the result differs from evaluating the prefix alone.
    Measured on the ``wide_pilot`` benchmark model against eight prefixes
    (1 to 65,535 rows), ``SyntheticLowRank`` quantities of interest from
    ``evaluate`` (about 20 in size) differed by up to 1.6e-14 and the
    surrogate corrections of ``control_variates.sample_z`` by up to 8.7e-11;
    from ``qoi_of``, one product of the averaged rows with g, the 1-, 7-,
    341-, 4,095- and 65,535-row prefixes of a 65,536-row batch differed from
    the full batch at 19 of their 25 (level, prefix) pairs, by up to 2.8e-16
    relative (3.6e-15 absolute).  ``Diffusion1D`` forms
    each column block's coefficient in one node-major product, whose
    trailing columns BLAS rounds by the block's width: on the ``fine_mc``
    grids at m = 255, the 341-, 1,365-, 2,047- and 4,095-row prefixes of a
    4,096-row batch differed from the same rows in the full batch by up to
    5.8e-14 relative in an entry of ``q`` for ``integral_of_u`` and 3.2e-13
    for ``flux_at_left`` (whose profile crosses zero), and by up to 7.3e-16
    in the quantity of interest; ``qoi_of``'s four node sums are one product
    per block too, and the same prefixes at m = 255 moved its quantities of
    interest by up to 1.1e-15 (``integral_of_u``) and 2.5e-16
    (``flux_at_left``).  The estimators therefore fix the batch
    boundaries (``mlmc._BATCH``) and evaluate each batch once, at the width
    of the longest run that walks it; a shorter run reduces a prefix of its
    values.
    """

    input_dim: int
    cost_gamma: float
    _dofs: tuple[int, ...]
    _output_dims: tuple[int, ...]

    @abc.abstractmethod
    def _solve(self, level: int, z: np.ndarray) -> np.ndarray:
        """Output matrix (output_dim(level), n) for checked inputs z of shape
        (n, input_dim)."""

    @abc.abstractmethod
    def _output_map(self, level: int, q: np.ndarray) -> np.ndarray:
        """Quantity of interest of each column of a checked output matrix."""

    def kept_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of each float64 array that the model derives from
        its parameters alone and that the pilot cache keeps, so that a model
        built by a later command adopts it instead of deriving it again.
        None by default."""
        return {}

    def kept_arrays(self) -> dict[str, np.ndarray]:
        """The arrays named by ``kept_shapes``, derived if not yet held."""
        return {}

    def adopt_kept(self, arrays: dict[str, np.ndarray]) -> None:
        """Take the arrays named by ``kept_shapes``, already checked for
        dtype, shape and finiteness, in place of deriving them."""

    @property
    def finest_level(self) -> int:
        return len(self._dofs) - 1

    @property
    def n_levels(self) -> int:
        return len(self._dofs)

    def dofs(self, level: int) -> int:
        """Resolution measure used for cost laws and rate fits."""
        self.check_level(level)
        return self._dofs[level]

    def output_dim(self, level: int) -> int:
        self.check_level(level)
        return self._output_dims[level]

    def cost(self, level: int) -> float:
        """Declared cost of one single-level solve."""
        return float(self.dofs(level)) ** self.cost_gamma

    def evaluate(self, level: int, xi) -> LevelOutput:
        self.check_level(level)
        q = self._solve(level, self._check_inputs(xi))
        return LevelOutput(q, self.qoi(level, q))

    def qoi_of(self, level: int, xi) -> np.ndarray:
        """Quantities of interest of the level-``level`` solves at inputs
        ``xi``, for callers that read no output vector."""
        self.check_level(level)
        return self._solve_qoi(level, self._check_inputs(xi))

    def _solve_qoi(self, level: int, z: np.ndarray) -> np.ndarray:
        """Quantities of interest for checked inputs z.  By default the output
        map of ``_solve``; a model overrides it where it can solve for them
        without forming the output matrix."""
        return self._output_map(level, self._solve(level, z))

    def qoi(self, level: int, q) -> np.ndarray:
        """Apply the scalar output map to columns of a level-``level`` output
        matrix."""
        qm = np.asarray(q, dtype=np.float64)
        if qm.ndim != 2 or qm.shape[0] != self.output_dim(level):
            raise DimensionError(
                f"level {level} output must have {self.output_dim(level)} rows, "
                f"got shape {qm.shape}"
            )
        return self._output_map(level, qm)

    def check_level(self, level: int) -> None:
        if not 0 <= level <= self.finest_level:
            raise DimensionError(
                f"level {level} outside hierarchy range [0, {self.finest_level}]"
            )

    def _check_inputs(self, xi) -> np.ndarray:
        z = np.asarray(xi, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.input_dim:
            raise DimensionError(
                f"inputs must have {self.input_dim} columns, got shape {np.shape(xi)}"
            )
        if not np.all(np.isfinite(z)):
            raise DataError("input matrix contains non-finite entries")
        return z


class LevelSubset(LevelHierarchy):
    """Re-index a subset of another hierarchy's levels as levels 0..k.

    Useful for dropping intermediate levels; couplings then skip across the
    removed resolutions.  The subset takes its parent's ``input_dim`` and
    ``cost_gamma``, so it draws the same inputs and declares the same cost
    per kept level, and its parent's kept arrays, dropped levels included.
    """

    def __init__(self, parent: LevelHierarchy, levels):
        sel = [int(v) for v in levels]
        if len(sel) < 1:
            raise ConfigError("level subset must keep at least one level")
        if any(b <= a for a, b in zip(sel, sel[1:])):
            raise ConfigError(f"level subset must be strictly increasing, got {sel}")
        self._parent = parent
        self._levels = tuple(sel)
        self.input_dim = parent.input_dim
        self.cost_gamma = parent.cost_gamma
        self._dofs = tuple(parent.dofs(v) for v in sel)
        self._output_dims = tuple(parent.output_dim(v) for v in sel)

    def _solve(self, level: int, z: np.ndarray) -> np.ndarray:
        return self._parent._solve(self._levels[level], z)

    def _output_map(self, level: int, q: np.ndarray) -> np.ndarray:
        return self._parent._output_map(self._levels[level], q)

    def _solve_qoi(self, level: int, z: np.ndarray) -> np.ndarray:
        return self._parent._solve_qoi(self._levels[level], z)

    def kept_shapes(self) -> dict[str, tuple[int, ...]]:
        return self._parent.kept_shapes()

    def kept_arrays(self) -> dict[str, np.ndarray]:
        return self._parent.kept_arrays()

    def adopt_kept(self, arrays: dict[str, np.ndarray]) -> None:
        self._parent.adopt_kept(arrays)


# ---------------------------------------------------------------------------
# synthetic low-rank response surface


class SyntheticLowRank(LevelHierarchy):
    """Vector outputs on a rank-``r_true`` nonlinear response surface.

    Level ell returns q = A_ell g(xi) + delta * refine^-ell * p_ell(x) w(xi),
    where the rows of A_ell sample ``r_true`` fixed smooth profiles on a
    midpoint grid of ``m0 * refine^ell`` points, g is a fixed smooth
    nonlinear map of the inputs, and the perturbation profile p_ell
    oscillates fast enough that the scalar output map averages most of it
    away.  With delta = 0 every level's output ensemble has rank exactly
    ``r_true``.  The quantity of interest is the mean of the output entries.

    That mean is linear, so ``qoi_of`` forms no output vector: Q_ell =
    abar_ell . g(xi) + delta * refine^-ell * mean(p_ell) w(xi), with abar_ell
    the column means of A_ell, O(r_true) work per sample instead of
    O(m r_true).
    """

    def __init__(
        self,
        r_true: int = 5,
        m0: int = 16,
        refine: int = 2,
        num_levels: int = 3,
        cost_gamma: float = 1.0,
        input_dim: int = 8,
        delta: float = 1e-3,
        coeff_seed: int = 0,
    ):
        if r_true < 1:
            raise ConfigError(f"r_true must be positive, got {r_true}")
        if m0 < r_true:
            raise ConfigError(f"m0 must be at least r_true, got m0={m0}, r_true={r_true}")
        if refine < 2:
            raise ConfigError(f"refine must be at least 2, got {refine}")
        if num_levels < 2:
            raise ConfigError(f"num_levels must be at least 2, got {num_levels}")
        if input_dim < 2:
            raise ConfigError(f"input_dim must be at least 2, got {input_dim}")
        if not np.isfinite(cost_gamma) or cost_gamma <= 0:
            raise ConfigError(f"cost_gamma must be positive, got {cost_gamma}")
        if not np.isfinite(delta) or delta < 0:
            raise ConfigError(f"delta must be non-negative, got {delta}")
        if coeff_seed < 0:
            raise ConfigError(f"coeff_seed must be non-negative, got {coeff_seed}")

        self.r_true = int(r_true)
        self.refine = int(refine)
        self.cost_gamma = float(cost_gamma)
        self.input_dim = int(input_dim)
        self.delta = float(delta)

        rng = np.random.default_rng(coeff_seed)
        d = self.input_dim
        r = self.r_true
        # profile phases and nonlinear-map coefficients are frozen at
        # construction so the model is a fixed function of its inputs
        self._phase = rng.uniform(0.0, 2.0 * np.pi, size=r)
        self._b0 = rng.uniform(0.8, 1.2, size=r)
        self._b1 = rng.uniform(0.3, 0.6, size=r) * rng.choice([-1.0, 1.0], size=r)
        self._b2 = rng.uniform(0.15, 0.3, size=r) * rng.choice([-1.0, 1.0], size=r)
        self._b3 = rng.uniform(0.2, 0.4, size=r) * rng.choice([-1.0, 1.0], size=r)
        self._ia = rng.integers(0, d, size=r)
        self._ip = rng.integers(0, d, size=r)
        self._iq = (self._ip + 1 + rng.integers(0, d - 1, size=r)) % d
        self._ie = rng.integers(0, d, size=r)
        self._pert_weights = rng.uniform(-1.0, 1.0, size=d)
        self._pert_phase = rng.uniform(0.0, 2.0 * np.pi, size=num_levels)

        self._dofs = self._output_dims = tuple(
            int(m0) * self.refine**ell for ell in range(num_levels)
        )
        self._a = []
        self._pert_profile = []
        for ell, m in enumerate(self._dofs):
            x = (np.arange(m) + 0.5) / m
            freq = (np.arange(r) + 1.5) * np.pi
            self._a.append(1.0 + 0.9 * np.sin(np.outer(x, freq) + self._phase[None, :]))
            omega = (4 * ell + 9) * np.pi
            self._pert_profile.append(np.sin(omega * x + self._pert_phase[ell]))

    def _gmap(self, z: np.ndarray) -> np.ndarray:
        """g(xi) as (r_true, n) rows, each built from contiguous input rows."""
        zt = np.ascontiguousarray(z.T)
        g = np.empty((self.r_true, z.shape[0]))
        for k in range(self.r_true):
            g[k] = (
                self._b0[k]
                + self._b1[k] * zt[self._ia[k]]
                + self._b2[k] * zt[self._ip[k]] * zt[self._iq[k]]
                + self._b3[k] * np.exp(-0.5 * zt[self._ie[k]] ** 2)
            )
        return g

    def _weight(self, z: np.ndarray) -> np.ndarray:
        return 1.0 + 0.5 * np.tanh(z @ self._pert_weights / np.sqrt(self.input_dim))

    def _solve(self, level: int, z: np.ndarray) -> np.ndarray:
        q = self._a[level] @ self._gmap(z)
        if self.delta > 0.0:
            scale = self.delta * float(self.refine) ** (-level)
            q = q + scale * self._pert_profile[level][:, None] * self._weight(z)[None, :]
        return q

    def _solve_qoi(self, level: int, z: np.ndarray) -> np.ndarray:
        qoi = self._a[level].mean(axis=0) @ self._gmap(z)
        if self.delta > 0.0:
            scale = self.delta * float(self.refine) ** (-level)
            qoi = qoi + scale * float(np.mean(self._pert_profile[level])) * self._weight(z)
        return qoi

    def _output_map(self, level: int, q: np.ndarray) -> np.ndarray:
        return q.mean(axis=0)


# ---------------------------------------------------------------------------
# 1-D lognormal diffusion


# Doubles per column block of Diffusion1D._solve and _solve_qoi (4 MB).  A
# block's node-major coefficient (one product with the KL modes, turned into
# h / a in place) and its product with the midpoint positions are this size,
# so the solve's working memory is a few blocks beside its output, whatever
# the batch size.  BLAS rounds a block's trailing columns by the block's width, so this
# constant, like ``mlmc._BATCH``, is part of every Diffusion1D result.
_BLOCK_DOUBLES = 1 << 19


class Diffusion1D(LevelHierarchy):
    """-(a u')' = 1 on (0, 1), u(0) = u(1) = 0, a = abar + exp(G).

    G is a truncated KL expansion of a Gaussian field sampled at the cell
    midpoints of each level's grid (modes are carried there from the KL
    reference grid by Nystrom extension).  Discretization is the standard
    conservative second-order finite-difference scheme with harmonic-free
    midpoint coefficients.  The flux F_{i+1/2} = a_{i+1/2} (u_{i+1} - u_i) / h
    falls by h per cell, F_{i+1/2} = F_{1/2} - i h, so the system is solved
    in closed form: with w = h / a at the midpoints, u(0) = u(1) = 0 gives
    F_{1/2} = sum(i h w) / sum(w), and u is the running sum of F w.  Each
    column block of the batch forms its coefficient node-major, in one
    product with the modes, and runs its sums node-major too (one contiguous
    row of samples per step), so the solve's working memory is a few blocks
    whatever the batch size.  A non-finite coefficient or solution raises
    ``NumericalError`` naming its input row.

    ``qoi_of`` forms no solution.  Per block, one (4, m + 1) product with w
    gives s0 = sum(w), s1 = sum(i h w_i), and over i < m s2 = sum((m - i)
    w_i) and s3 = sum((m - i) i h w_i); then F_{1/2} = s1 / s0, the
    ``integral_of_u`` Q = h (F_{1/2} s2 - s3) and the ``flux_at_left`` Q =
    -F_{1/2} - h / 2, with the same row check.

    ``qoi="integral_of_u"`` returns q = interior solution values and Q =
    trapezoid integral of u.  ``qoi="flux_at_left"`` returns q = the
    midpoint flux profile -a u' and Q = its second-order extrapolation to
    x = 0.

    The constructor checks every parameter but defers the KL eigensolve:
    the modes are formed on the first solve (``_mid_modes``), so a model
    that never solves never pays for them.  They depend on the parameters
    alone, so the pilot cache keeps them (``kept_arrays``): a model built
    by ``estimate`` or ``compare`` adopts them from there, and only the
    pilot command solves the KL eigenproblem.

    Known defect, kept because fixing it moves every output: G has pointwise
    variance ``sigma2**2``, not ``sigma2``.  ``kl_decompose`` returns kernel
    eigenvalues that already carry ``sigma2``, and ``_mid_modes``'s one
    ``scale`` line multiplies the modes by ``sqrt(sigma2)`` on top.  For
    ``sigma2=0.5, corr_length=0.3`` and 3 modes, sum(lambda phi^2) at x = 0.5
    is 0.499 but G's variance there is 0.250.

    The non-smooth exponential kernel leaves small kinks in the Nystrom mode
    extension at the KL grid scale; with deep hierarchies choose kl_grid_n
    well above the finest grid so those kinks stay below the finest level
    correction.
    """

    def __init__(
        self,
        kernel: str = "squared_exponential",
        sigma2: float = 0.3,
        corr_length: float = 0.3,
        mean_coefficient: float = 0.1,
        n_modes: int = 10,
        grids=(15, 31, 63),
        qoi: str = "integral_of_u",
        cost_gamma: float = 1.0,
        kl_grid_n: int = 257,
    ):
        kernel_fn = make_kernel(kernel, sigma2, corr_length)
        if qoi not in ("integral_of_u", "flux_at_left"):
            raise ConfigError(f"unknown qoi {qoi!r}")
        if not np.isfinite(mean_coefficient) or mean_coefficient < 0:
            raise ConfigError(f"mean_coefficient must be non-negative, got {mean_coefficient}")
        if not np.isfinite(cost_gamma) or cost_gamma <= 0:
            raise ConfigError(f"cost_gamma must be positive, got {cost_gamma}")
        if n_modes < 1:
            raise ConfigError(f"n_modes must be positive, got {n_modes}")
        if kl_grid_n < max(2, n_modes):
            raise ConfigError(f"kl_grid_n too small: {kl_grid_n}")

        self._dofs = tuple(int(m) for m in grids)
        if len(self._dofs) < 1 or any(m < 2 for m in self._dofs):
            raise ConfigError(f"grids must list interior node counts >= 2, got {grids}")
        for mc, mf in zip(self._dofs, self._dofs[1:]):
            if mf <= mc:
                raise ConfigError(f"grids must be strictly increasing, got {grids}")
            if (mf + 1) % (mc + 1) != 0:
                raise ConfigError(
                    f"grids must nest: {mf} + 1 cells not a multiple of {mc} + 1"
                )

        self.mean_coefficient = float(mean_coefficient)
        self.qoi_kind = qoi
        self.cost_gamma = float(cost_gamma)
        self.input_dim = int(n_modes)
        # q holds the m interior values of u, or the m + 1 midpoint fluxes
        self._output_dims = tuple(m + (qoi == "flux_at_left") for m in self._dofs)
        self._h = [1.0 / (m + 1) for m in self._dofs]
        self._kl_params = (kernel_fn, float(sigma2), int(kl_grid_n))
        self._modes = None

    @property
    def _mid_modes(self) -> list[np.ndarray]:
        """Per level, the scaled KL modes at the cell midpoints, evaluated by
        Nystrom extension so the field is the same smooth function of x on
        every level; formed on first use unless adopted."""
        if self._modes is None:
            kernel_fn, sigma2, kl_grid_n = self._kl_params
            field = kl_decompose(kernel_fn, np.linspace(0.0, 1.0, kl_grid_n), self.input_dim)
            # known defect (class docstring): the eigenvalues carry sigma2 already
            scale = float(np.sqrt(sigma2)) * np.sqrt(field.eigenvalues)
            self._modes = [
                kl_modes_at(field, (np.arange(m + 1) + 0.5) * h) * scale[None, :]
                for m, h in zip(self._dofs, self._h)
            ]
        return self._modes

    def kept_shapes(self) -> dict[str, tuple[int, ...]]:
        return {f"mid_modes{ell}": (m + 1, self.input_dim) for ell, m in enumerate(self._dofs)}

    def kept_arrays(self) -> dict[str, np.ndarray]:
        return dict(zip(self.kept_shapes(), self._mid_modes))

    def adopt_kept(self, arrays: dict[str, np.ndarray]) -> None:
        self._modes = [arrays[name] for name in self.kept_shapes()]

    def _coefficient(self, level: int, z: np.ndarray) -> np.ndarray:
        """Node-major coefficient (m + 1, n) at the midpoints for inputs z."""
        g = self._mid_modes[level] @ z.T
        np.exp(g, out=g)
        g += self.mean_coefficient
        return g

    def _blocks(self, level: int, z: np.ndarray):
        """Per column block of z, yield ``(block, w, finite)``: the block's
        slice of the batch, w = h / a at the midpoints (node-major, formed in
        place of the coefficient) and the mask of its columns whose
        coefficient is finite.  The caller ANDs its outputs' finiteness into
        ``finite``; when the loop resumes, a column left false raises
        ``NumericalError`` naming its input row."""
        h = self._h[level]
        width = max(1, _BLOCK_DOUBLES // (self._dofs[level] + 1))
        for start in range(0, z.shape[0], width):
            block = slice(start, start + width)
            a = self._coefficient(level, z[block])
            finite = np.isfinite(a).all(axis=0)
            yield block, np.divide(h, a, out=a), finite
            if not finite.all():
                bad = start + int(np.nonzero(~finite)[0][0])
                raise NumericalError(
                    f"non-finite coefficient or solution at level {level} "
                    f"for input row {bad}: xi={z[bad]}"
                )

    def _solve(self, level: int, z: np.ndarray) -> np.ndarray:
        m = self._dofs[level]
        ih = (np.arange(m + 1) * self._h[level])[:, None]  # i h at midpoint i
        q = np.empty((self._output_dims[level], z.shape[0]))
        for block, w, finite in self._blocks(level, z):
            # u(1) - u(0) = sum(F w) = 0 fixes F_{1/2}
            f_half = (ih * w).sum(axis=0) / w.sum(axis=0)
            out = q[:, block]
            if self.qoi_kind == "flux_at_left":
                np.subtract(ih, f_half, out=out)
            else:
                np.subtract(f_half, ih[:-1], out=out)
                out *= w[:-1]
                for i in range(1, m):
                    np.add(out[i - 1], out[i], out=out[i])
            finite &= np.isfinite(out).all(axis=0)
        return q

    def _solve_qoi(self, level: int, z: np.ndarray) -> np.ndarray:
        h = self._h[level]
        m = self._dofs[level]
        ih = np.arange(m + 1) * h
        rest = m - np.arange(m + 1)  # zero at i = m: the last two sums run over i < m
        sums = np.stack([np.ones(m + 1), ih, rest, rest * ih])
        qoi = np.empty(z.shape[0])
        for block, w, finite in self._blocks(level, z):
            s0, s1, s2, s3 = sums @ w
            f_half = s1 / s0
            out = qoi[block]
            if self.qoi_kind == "flux_at_left":
                np.subtract(-0.5 * h, f_half, out=out)
            else:
                np.multiply(f_half, s2, out=out)
                out -= s3
                out *= h
            finite &= np.isfinite(out)
        return qoi

    def _output_map(self, level: int, q: np.ndarray) -> np.ndarray:
        if self.qoi_kind == "integral_of_u":
            return self._h[level] * q.sum(axis=0)
        return 1.5 * q[0] - 0.5 * q[1]
