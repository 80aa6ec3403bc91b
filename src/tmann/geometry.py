"""Metric spaces with a convex-combination map, and a checker for its axioms.

The central abstraction is a triple (X, d, W) where W(x, y, lam) plays the
role of the convex combination (1 - lam) x + lam y.  Four axioms make such a
space hyperbolic in the convexity sense used by fixed-point iteration theory:

    (W1)  d(z, W(x, y, lam)) <= (1 - lam) d(z, x) + lam d(z, y)
    (W2)  d(W(x, y, lam), W(x, y, th)) = |lam - th| d(x, y)
    (W3)  W(x, y, lam) = W(y, x, 1 - lam)
    (W4)  d(W(x, z, lam), W(y, w, lam)) <= (1 - lam) d(x, y) + lam d(z, w)

Normed spaces satisfy all four exactly with the affine combination.  Metric
trees satisfy them with the arc-length parametrization of geodesics; the star
tree below is the simplest genuinely nonlinear instance.

``check_w_axioms`` samples random tuples and records the worst violation of
each axiom plus three standard consequences: the distances from a combination
to its endpoints scale linearly in lam, and two comparison inequalities for
combinations with distinct or shared endpoints.  It draws in blocks: one
point array each for x, y, z and w by ``Space.sample``, then every lam and
th at once, and evaluates each check over all samples with the row-wise
``dist_array`` and ``combine_array``.  ``BrokenEuclideanSpace``
interpolates with lam**2 instead of lam and serves as the negative control
the checker must flag.

All spaces are immutable after construction and every operation is pure, so
instances can be shared freely across concurrent runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from abc import ABC, abstractmethod
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .checks import Section, worst_row

Point = Any
"""Instance-specific point representation: ``np.ndarray`` for Euclidean
spaces, ``TreePoint`` for star trees."""

LoopPoint = Any
"""A point in the form the orbit loops carry, ``mix`` takes and returns and
``MappingFamily.fn`` maps: a list of ``dim`` Python floats for Euclidean
spaces, ``TreePoint`` for star trees."""

Points = Any
"""An array of points: an ``(n, dim)`` float array for Euclidean spaces,
``TreePoints`` for star trees.  Indexing with an int gives a ``Point``."""


class TreePoint(namedtuple("TreePoint", "ray t")):
    """Point on a star tree: the tuple (ray, t) of an int ray index and a
    radial coordinate t >= 0, built only by this checked constructor, which
    takes a numpy integer ray as an int.  The origin (t == 0) belongs to
    every ray; it canonicalizes to ray 0 so that point equality is decidable."""

    __slots__ = ()

    def __new__(cls, ray: int, t: float):
        if type(ray) is not int:
            if not isinstance(ray, (int, np.integer)) or isinstance(ray, bool):
                raise ValueError(f"ray index must be an integer, got {ray!r}")
            ray = int(ray)
        if ray < 0:
            raise ValueError(f"ray index must be >= 0, got {ray}")
        if not 0.0 <= t < math.inf:  # a NaN compares False
            raise ValueError(f"radial coordinate must be finite and >= 0, got {t}")
        return tuple.__new__(cls, (ray if t else 0, t))

    # namedtuple's _make (and _replace, which calls it) skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


@dataclass(frozen=True, eq=False)
class TreePoints:
    """An array of star-tree points: an int array of rays and a float array
    of radial coordinates; in a stored orbit, the read-only fields of one
    record array.  ``of`` builds one from coordinates; the plain constructor
    wraps arrays that already put the origin on ray 0.  An int index gives
    a ``TreePoint``, and a slice or an index array gives a ``TreePoints``.
    """

    ray: np.ndarray
    t: np.ndarray

    @classmethod
    def of(cls, ray: np.ndarray, t: np.ndarray) -> "TreePoints":
        """The points (ray[i], t[i]), with the origin on ray 0."""
        return cls(np.where(t == 0.0, 0, ray), t)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return TreePoint(int(self.ray[index]), float(self.t[index]))
        return TreePoints(self.ray[index], self.t[index])


class Fragment(NamedTuple):
    """A map on loop points written once, as source over named coordinates:
    the orbit kernel inlines it, and the map's one-point form is compiled
    from it, so the two cannot drift.

    ``source`` is a ``str.format`` template of statements.  ``{x}`` names
    the point mapped, ``{y}`` the second point of W, ``{lam}`` its
    parameter, ``{out}`` the point assigned, ``{g}`` the step size and
    ``{k}`` the prefix of each constant.  A coordinate is its point's name
    followed by a suffix of the space's ``LoopForm`` (``x0``, ``x1`` .. on
    Euclidean space, ``xr`` and ``xt`` on the star tree), and a run of
    lines holding ``{i}`` is written once for each suffix, so a temporary
    of one coordinate carries ``{i}`` in its name too.  ``constants``
    maps a name to its value; one the source reads as ``{k}name{i}`` is an
    array of one value per coordinate, broadcast as numpy does.  A family's
    fragment that reads ``{g}`` reads gamma_n of its sequence ``gamma``.
    A fragment of a ``kind`` is written for the loop form of that kind
    only; one of kind None, for every loop form.
    """

    source: str
    constants: dict = {}
    gamma: Callable[[int], float] | None = None
    kind: str | None = None

    def lines(self, coords, **names) -> list:
        """The statements, each placeholder filled in from ``names``, which name them all."""
        out = []
        for each, run in itertools.groupby(self.source.splitlines(), lambda line: "{i}" in line):
            run = list(run)
            for i in coords if each else ("",):
                out += [line.format(i=i, **names) for line in run]
        return out

    def arguments(self, coords, prefix: str) -> dict:
        """The constants by the names ``lines`` gives them under ``{k}`` = ``prefix``."""
        values = {}
        for name, value in self.constants.items():
            if "{k}" + name + "{i}" in self.source:
                each = np.ravel(value).tolist()
                if len(each) == 1:  # one value serves every coordinate
                    each *= len(coords)
                if len(each) != len(coords):
                    raise ValueError(f"{name} gives {len(each)} values for {len(coords)} axes")
                values.update((f"{prefix}{name}{i}", v) for i, v in zip(coords, each))
            else:
                values[prefix + name] = value
        return values


class LoopForm(NamedTuple):
    """How generated source handles a space's loop points.  ``coords`` are
    the suffixes of their coordinates, ``pack`` the expression of a loop
    point made from them (``{p}`` its name), and ``unpack`` the statement
    binding them (``{names}``) to a loop point (``{src}``).  ``store`` is
    the template of the statements writing point ``{p}`` at row ``{row}``
    of the orbit store, whose buffers are named ``S0``, ``S1`` ..:
    ``allocate(count)`` gives them for ``count`` points, as the kernel
    writes them (memoryviews of numpy arrays, or a list), and ``wrap``
    turns the filled buffers into the read-only point array.  A fragment
    written for one ``kind`` of space is inlined only on that kind."""

    kind: str
    coords: tuple
    pack: str
    unpack: str
    store: str
    allocate: Callable
    wrap: Callable

    def bind(self, p: str, source: str) -> str:
        """The statement binding the coordinates of point ``p`` to the loop point ``source``."""
        return self.unpack.format(names=", ".join(p + c for c in self.coords), src=source)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.cache
def _euclidean_form(dim: int) -> LoopForm:
    """The loop form of R^dim: a list of dim floats, stored row by row in one float buffer."""
    coords = tuple(map(str, range(dim)))
    store = ["S0[{row}] = {p}0"] if dim == 1 else [f"k = ({{row}}) * {dim}", "S0[k] = {p}0"]
    store += [f"S0[k + {j}] = {{p}}{j}" for j in range(1, dim)]
    return LoopForm(
        kind="euclidean",
        coords=coords,
        pack="[" + ", ".join("{p}" + c for c in coords) + "]",
        unpack="{names}, = {src}",
        store="\n".join(store),
        allocate=lambda count: [memoryview(np.empty(count * dim))],
        wrap=lambda views: _frozen(views[0].obj).reshape(-1, dim),
    )


def define(params: str, body: list, result: str, cells) -> Callable:
    """``make``, which binds each name of ``cells`` to the value given for
    it and returns the function of ``params`` that runs the statements
    ``body`` and returns ``result``; the names are closure cells, which it
    reads as fast as locals.  Compiled once per source.  Besides builtins
    and ``inf``, the source may call ``TreePoint``, whose checks refuse what
    a fragment cannot give."""
    source = "\n".join(
        [f"def make({', '.join(cells)}):", f"    def made({params}):"]
        + ["        " + line for line in body]
        + [f"        return {result}", "    return made"]
    )
    return _compiled(source)


@functools.cache
def _compiled(source: str) -> Callable:
    scope = {"TreePoint": TreePoint, "inf": math.inf}
    exec(source, scope)
    return scope["make"]


def point_form(fragment: Fragment, params: str) -> Callable:
    """``fragment``'s map as a function of ``params`` on loop points named
    ``x`` (and ``y``, for W) that returns the mapped loop point, with the
    fragment's constants as cells; ``g = gamma(n)`` gives a family's step
    size.  It compiles on its first call, for the loop form of the point
    ``x`` it is given: once per dim on Euclidean space.  It carries
    ``fragment``, which the orbit kernel inlines."""
    names = params.split(", ")
    at, forms = names.index("x"), {}

    def form(*args):
        dim = len(args[at])
        run = forms.get(dim)
        if run is None:
            loop = StarTreeSpace.loop_form if fragment.kind == "tree" else _euclidean_form(dim)
            cells = {**fragment.arguments(loop.coords, "K_"), "gamma": fragment.gamma}
            body = [loop.bind(p, p) for p in ("x", "y") if p in names]
            body += ["g = gamma(n)"] * (fragment.gamma is not None)
            body += fragment.lines(loop.coords, x="x", y="y", lam="lam", out="q", g="g", k="K_")
            run = forms[dim] = define(params, body, loop.pack.format(p="q"), cells)(**cells)
        return run(*args)

    form.fragment = fragment
    return form


#: W on Euclidean loop points: mu * x_i + lam * y_i at each coordinate.
AFFINE_W = Fragment("mu = 1.0 - {lam}\n{out}{i} = mu * {x}{i} + {lam} * {y}{i}", kind="euclidean")

#: W on star-tree loop points: along the ray, or through the origin, where
#: the walk past it may overflow (or lam * inf be NaN), which TreePoint refuses.
TREE_W = Fragment(
    """\
if {x}r == {y}r:
    {out}t = {x}t + {lam} * ({y}t - {x}t)
    if {out}t > 0.0:
        {out}r = {x}r
    else:
        {out}r, {out}t = 0, 0.0
else:
    walked = {lam} * ({x}t + {y}t)
    if walked <= {x}t:
        {out}t = {x}t - walked
        {out}r = {x}r if {out}t else 0
    else:
        {out}t = walked - {x}t
        if not {out}t < inf:
            TreePoint({y}r, {out}t)
        {out}r = {y}r""",
    kind="tree",
)


class Space(ABC):
    """A metric ``dist_array``, a convex-combination map W written twice, as
    ``mix`` on loop points, the one single-point form (``to_loop`` makes one
    and a family's ``fn`` maps it), and ``combine_array`` on point arrays, and
    a sampler: with ``as_point`` and the store ``collect``, the six methods.
    ``loop_form`` says how the orbit kernel names and stores loop points;
    by default a loop point is one opaque coordinate, kept in a list that
    ``collect`` stores."""

    name: str = "space"

    @abstractmethod
    def as_point(self, p) -> Point:
        """``p`` as a point of this space; raises ValueError if it is not one."""

    @abstractmethod
    def mix(self, x: LoopPoint, y: LoopPoint, lam: float) -> LoopPoint:
        """The combination W(x, y, lam), read as (1 - lam) x + lam y, of two
        loop points and a float lam in [0, 1], none of them checked.  The
        orbit loops call it after checking their terms, or inline its
        ``fragment`` when it carries one; ``combine_array`` is its array form."""

    def to_loop(self, p) -> LoopPoint:
        """``p``, checked as ``as_point`` checks it, in the form ``mix`` and
        ``fn`` take: the point itself unless a space says otherwise."""
        return self.as_point(p)

    @property
    def loop_form(self) -> LoopForm:
        allocate = lambda count: [[None] * count]
        wrap = lambda store: self.collect(store[0], len(store[0]))
        return LoopForm("point", ("",), "{p}", "{names} = {src}", "S0[{row}] = {p}", allocate, wrap)

    @abstractmethod
    def sample(self, rng: np.random.Generator, count: int) -> Points:
        """A point array of ``count`` points drawn uniformly from the
        configured bounded region.  Each coordinate array is one block draw
        for all points, not one draw per point."""

    @abstractmethod
    def collect(self, points, count: int) -> Points:
        """The read-only point array of the first ``count`` points or loop
        points that the iterable ``points`` yields, in order; the orbit
        loop's store, and the one way to build a point array from points."""

    @abstractmethod
    def dist_array(self, x: Points | Point, y: Points | Point) -> np.ndarray:
        """Row-by-row distances between two point arrays of equal length;
        either side, or both, may also be a single point."""

    @abstractmethod
    def combine_array(self, x: Points | Point, y: Points | Point, lam) -> Points:
        """Row-by-row combinations W(x[i], y[i], lam[i]) of two point arrays
        of equal length, one of which may be a single point that stands in
        every row; ``lam`` is an array of that length or one number, and a
        lam outside [0, 1] raises ValueError.  Each row equals ``mix`` of its
        rows' loop points, bit for bit."""

    def stack(self, points) -> Points:
        """The read-only point array holding ``points`` in order."""
        return self.collect(map(self.as_point, points), len(points))

    @staticmethod
    def check_lambdas(lam) -> np.ndarray:
        """``lam`` as a float array; ValueError if an entry is outside [0, 1]."""
        lam = np.asarray(lam, dtype=float)
        outside = ~((0.0 <= lam) & (lam <= 1.0))
        if outside.any():
            raise ValueError(
                f"combination parameter must lie in [0, 1], got {lam[outside].flat[0]}"
            )
        return lam


class EuclideanSpace(Space):
    """R^dim with the norm distance and the affine combination.

    A point is a float array of shape ``(dim,)``.  In the orbit loops it is a
    list of ``dim`` Python floats, which ``mix`` combines coordinate by
    coordinate with the two products and one sum of the array form, so both
    give the same floats (up to which of two NaN operands an operation
    keeps).  ``mix`` is compiled from the fragment the orbit kernel inlines,
    on its first call for each dim.  Sampling is uniform over the box
    [-box_radius, box_radius]^dim, drawn as one ``(count, dim)`` block.
    """

    def __init__(self, dim: int, box_radius: float = 5.0):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not box_radius > 0:
            raise ValueError(f"box_radius must be > 0, got {box_radius}")
        self.dim = int(dim)
        self.box_radius = float(box_radius)
        self.name = f"euclidean-{self.dim}d"

    def as_point(self, coords) -> np.ndarray:
        p = coords
        if not (isinstance(p, np.ndarray) and p.dtype == float):
            # np.asarray would read a TreePoint, a 2-tuple, as 2 coordinates;
            # of the other kinds, only integers and booleans are read, as floats
            p = None if isinstance(p, TreePoint) else np.asarray(p)
            if p is None or p.dtype.kind not in "biuf":
                raise ValueError(f"expected {self.dim} numbers, got {type(coords).__name__}")
            p = p.astype(float, copy=False)
        if p.shape != (self.dim,):
            raise ValueError(f"expected a point of shape ({self.dim},), got {p.shape}")
        return p

    def to_loop(self, p):
        return self.as_point(p).tolist()

    @property
    def loop_form(self) -> LoopForm:
        return _euclidean_form(self.dim)

    mix = staticmethod(point_form(AFFINE_W, "x, y, lam"))

    def sample(self, rng, count):
        return rng.uniform(-self.box_radius, self.box_radius, (count, self.dim))

    def collect(self, points, count):
        flat = np.fromiter(itertools.chain.from_iterable(points), float, count * self.dim)
        return _frozen(flat).reshape(count, self.dim)

    def dist_array(self, x, y):
        # vecdot sums in the order of the dot product inside np.linalg.norm;
        # einsum does not, and drifts by an ulp on some rows
        diff = x - y
        return np.sqrt(np.vecdot(diff, diff))

    def combine_array(self, x, y, lam):
        lam = self.check_lambdas(lam)[..., None]
        return (1.0 - lam) * x + lam * y


class BrokenEuclideanSpace(EuclideanSpace):
    """Euclidean space with a deliberately wrong combination map.

    Interpolates with lam**2 instead of lam.  Negative control for the axiom
    checker: the distance from x to the combination comes out lam**2 d(x, y)
    rather than lam d(x, y), so the endpoint and (W2) checks must flag it.
    """

    def __init__(self, dim: int, box_radius: float = 5.0):
        super().__init__(dim, box_radius)
        self.name = f"euclidean-{self.dim}d-broken"

    def mix(self, x, y, lam):
        sq = lam * lam
        mu = 1.0 - sq
        return [mu * a + sq * b for a, b in zip(x, y)]

    def combine_array(self, x, y, lam):
        lam = self.check_lambdas(lam)[..., None]
        return (1.0 - lam * lam) * x + (lam * lam) * y


class StarTreeSpace(Space):
    """Finitely many rays glued at a common origin, with the path metric.

    Distances: |s - t| between (i, s) and (i, t) on the same ray, and s + t
    across distinct rays.  The geodesic between points on distinct rays runs
    through the origin; ``mix`` walks the requested fraction of its
    length starting from the first point.  This is an R-tree, hence CAT(0),
    so the combination axioms hold exactly up to rounding.

    Sampling draws every ray index, then every radius, uniform in
    [0, max_radius]; a radius of 0 is stored on ray 0.
    """

    def __init__(self, num_rays: int = 3, max_radius: float = 5.0):
        if num_rays < 2:
            raise ValueError(f"need at least 2 rays, got {num_rays}")
        if not max_radius > 0:
            raise ValueError(f"max_radius must be > 0, got {max_radius}")
        self.num_rays = int(num_rays)
        self.max_radius = float(max_radius)
        self.name = f"star-tree-{self.num_rays}"

    def as_point(self, p) -> TreePoint:
        if not isinstance(p, TreePoint):
            raise ValueError(f"expected a TreePoint, got {type(p).__name__}")
        if p.ray >= self.num_rays:
            raise ValueError(f"ray index {p.ray} out of range for {self.num_rays} rays")
        return p

    loop_form = LoopForm(
        kind="tree",
        coords=("r", "t"),
        pack="TreePoint({p}r, {p}t)",
        unpack="{names}, = {src}",
        store="S0[{row}] = {p}r\nS1[{row}] = {p}t",
        allocate=lambda count: [memoryview(np.empty(count, int)), memoryview(np.empty(count))],
        wrap=lambda views: TreePoints(*(_frozen(view.obj) for view in views)),
    )

    mix = staticmethod(point_form(TREE_W, "x, y, lam"))

    def sample(self, rng, count):
        ray = rng.integers(self.num_rays, size=count)
        return TreePoints.of(ray, rng.uniform(0.0, self.max_radius, count))

    def collect(self, points, count):  # one structured fromiter of (ray, t) records
        rows = _frozen(np.fromiter(points, [("ray", int), ("t", float)], count))
        return TreePoints(rows["ray"], rows["t"])

    def dist_array(self, x, y):
        return np.where(x.ray == y.ray, np.abs(x.t - y.t), x.t + y.t)

    def combine_array(self, x, y, lam):
        lam = self.check_lambdas(lam)
        same = x.ray == y.ray
        along = x.t + lam * (y.t - x.t)
        walked = lam * (x.t + y.t)
        back = walked <= x.t
        t = np.where(
            same,
            np.where(along > 0.0, along, 0.0),  # max(0.0, along), as mix takes it
            np.where(back, x.t - walked, walked - x.t),
        )
        return TreePoints.of(np.where(same | back, x.ray, y.ray), t)


#: Checks performed by ``check_w_axioms``, in report order.
AXIOM_CHECKS = (
    "metric_symmetry",
    "metric_identity",
    "metric_triangle",
    "W1",
    "W2",
    "W3",
    "W4",
    "endpoint_distances",
    "two_parameter_comparison",
    "shared_endpoint_comparison",
)


def check_w_axioms(
    space: Space,
    samples: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> Section:
    """Sample random tuples (x, y, z, w, lam, th) and check every axiom.

    The draws are blocks, in this order: the point arrays x, y, z and w,
    each by ``space.sample(rng, samples)``, then ``rng.random((2, samples))``
    for lam and th.  Each check is one array expression over all samples.
    Returns one row per check, in ``AXIOM_CHECKS`` order, with its worst
    violation: the absolute deviation for an equality (W2, W3, endpoint
    distances), the signed excess of the left side over the right for an
    inequality, so a negative entry means it held with margin.  A NaN
    anywhere makes that check's worst value NaN, which fails.  Check
    failures never raise, they are carried in the section.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    x, y, z, w = (space.sample(rng, samples) for _ in range(4))
    lam, th = rng.random((2, samples))
    dist, combine = space.dist_array, space.combine_array

    dxy = dist(x, y)
    dzw = dist(z, w)
    cxy_l = combine(x, y, lam)
    cxy_t = combine(x, y, th)
    cxz_l = combine(x, z, lam)
    violations = {
        "metric_symmetry": np.abs(dxy - dist(y, x)),
        "metric_identity": dist(x, x),
        "metric_triangle": dist(x, z) - (dxy + dist(y, z)),
        "W1": dist(z, cxy_l) - ((1 - lam) * dist(z, x) + lam * dist(z, y)),
        "W2": np.abs(dist(cxy_l, cxy_t) - np.abs(lam - th) * dxy),
        "W3": dist(cxy_l, combine(y, x, 1.0 - lam)),
        "W4": dist(cxz_l, combine(y, w, lam)) - ((1 - lam) * dxy + lam * dzw),
        "endpoint_distances": np.maximum(
            np.abs(dist(x, cxy_l) - lam * dxy),
            np.abs(dist(y, cxy_l) - (1 - lam) * dxy),
        ),
        "two_parameter_comparison": dist(cxz_l, combine(y, w, th))
        - ((1 - lam) * dxy + lam * dzw + np.abs(lam - th) * dist(y, w)),
        "shared_endpoint_comparison": dist(cxz_l, combine(x, w, th))
        - (lam * dzw + np.abs(lam - th) * dist(x, w)),
    }
    return Section(
        title=f"axiom check on {space.name}: {samples} samples, tol {tol!r}",
        checks=tuple(worst_row(k, (violations[k],), at=lambda i: None) for k in AXIOM_CHECKS),
        tol=tol,
    )
