"""Model classes with exact polynomial-time expected-value engines.

Every model exposes two primitives: ``evaluate`` on a full instance and
``expected_value`` under a product distribution.  The expected-value
engine is the workhorse that all attribution reductions call; they
submit their calls in batches through ``expected_values``, which models
may override to share work between the distributions of one batch.

Trees walk, ensembles sum their components, and a table reads its
values.  An additive model is an ensemble of a leaf holding its bias and
one single-split tree per feature, and runs their code.

Every model answers the private hook ``Model._gap_polynomials``: each
wanted member set's gap (its discrete derivative: every member's row
replaced by pinned to e minus free) under given rows of the other
features, as one polynomial per set in powers of u = 1 + z, all over one
denominator.  Both reductions of ``indices`` ask it, interpolation with
the z-mixture rows for features and bernoulli-direct with the
theta-mixture rows for features and sets.  A tree answers features from
one walk of its own, two passes over its splits, on polynomials packed
into ints under z rows and on plain ints at u = 1 under fixed rows, and
each set of two or more members from one top-down pass at u = 1; an
ensemble adds its components' answers, so its trees walk whatever their
siblings are; and every other model hands back the batch reduction that
``indices`` passes in.
Tree kernels read each row as integers over one denominator (``Row``),
and trees and ensembles return reduced (numerator, denominator) integer
pairs, building a Fraction only for each value they return.  A batch
call keeps one dict from row object to its ``Row``, shared by all the
components of an ensemble and filled only with the rows some tree reads;
the tree's key for distributions it cannot tell apart, its read rows'
identities, is the only other identity key.

Every point read of F goes through the private ``Model._evaluate_at``,
one domain position per feature: the public ``evaluate`` of each built-in
model and the marginal closed form.  The brute-force oracle and
``TableModel.tabulate`` read F in bulk through the private
``Model._tabulate``: F on a product grid of positions, one axis per
feature, as integers over one denominator.  Trees and ensembles fill the
grid from their stored form; the default, which tables, ``CountingModel``
and user models take, reads ``_evaluate_at`` once per outcome.  Tables,
trees and ensembles answer ``_evaluate_at`` from their stored form; its
default builds the instance and calls the public ``evaluate``, so
``CountingModel`` and user models count and behave as through
``evaluate``.  A subclass of a built-in model that overrides ``evaluate``
must also override ``_evaluate_at`` and, for a tree or an ensemble
(an additive model included), ``_tabulate``.
"""

from __future__ import annotations

import abc
import itertools
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Mapping, Sequence, Union

from .core import (
    Coalition,
    FeatureSpace,
    Instance,
    ProductDistribution,
    as_rational,
    check_shared_space,
    condition,
)

TABLE_SIZE_LIMIT = 1 << 24

# Splits along one root-to-leaf path.  Of the walks over a tree's levels
# only ``_expect`` recurses, once per level; the bound keeps it far below
# Python's limit.  Compile, rebuild and the gap walk are explicit-stack loops.
TREE_DEPTH_LIMIT = 512

# A rational as (numerator, denominator) ints in lowest terms, the
# denominator positive: the form tree values and point evaluations are
# returned in.
Pair = tuple[int, int]

# A probability row as (den, nums): integer numerators over the lcm of the
# row's denominators, the form both tree kernels read.
Row = tuple[int, tuple[int, ...]]


def _row(probs: Sequence[Fraction]) -> Row:
    den = lcm(*[p.denominator for p in probs])
    return den, tuple([p.numerator * (den // p.denominator) for p in probs])


# A feature's walk factor over one denominator, (den, nums, hit, gaps).
# Under a split on another feature, child c has the context factor
# (nums[c] + z * den * [c == hit]) / den: the z-mixture row, hit being e's
# position, or a fixed row with hit -1 (no z term).  In u = 1 + z, e's
# child has ((nums[c] - den) + u * den) / den.  Under a split on the
# feature itself, child c has the own gap (delta_e - p)(c) on the input
# row p, which is gaps[c] / den; on a z-mixture row p is the row itself.
Factor = tuple[int, tuple[int, ...], int, tuple[int, ...]]

# Gap polynomials (see ``Model._gap_polynomials``): per member set (a
# feature is a one-member set), the coefficients of its polynomial in
# powers of u = 1 + z, lowest first, times the shared denominator, and
# that denominator.
GapPolynomials = tuple[dict[tuple[int, ...], list[int]], int]

# The batch reduction of the caller: a model's gap polynomials from its
# expected values, for a model without a walk of its own.
Batches = Callable[["Model"], GapPolynomials]


def _gaps(den: int, nums: Sequence[int], hit: int) -> tuple[int, ...]:
    # den * (delta_e - p) for the row p = nums / den, e at position hit
    return tuple([(den if c == hit else 0) - num for c, num in enumerate(nums)])


def _z_factors(probs: Sequence[Sequence[Fraction]], hits: Sequence[int]) -> list[Factor]:
    rows = [_row(row) for row in probs]
    return [(den, nums, hit, _gaps(den, nums, hit)) for (den, nums), hit in zip(rows, hits)]


def _fixed_factors(
    theta: Sequence[Fraction], probs: Sequence[Sequence[Fraction]], hits: Sequence[int]
) -> list[Factor]:
    # every feature on its theta-mixture theta*delta_e + (1-theta)*p, its own
    # gap delta_e - p on its input row p; for theta = a/b and p = nums/den
    # both are over b*den: ((b-a)*nums + a*den*delta_e) and b*(den*delta_e - nums)
    factors = []
    for t, row, hit in zip(theta, probs, hits):
        den, nums = _row(row)
        a, b = t.numerator, t.denominator
        context = [(b - a) * num for num in nums]
        context[hit] += a * den
        gaps = tuple([b * g for g in _gaps(den, nums, hit)])
        factors.append((b * den, tuple(context), -1, gaps))
    return factors


class Model(abc.ABC):
    """An evaluable map from full instances to rationals."""

    space: FeatureSpace

    @abc.abstractmethod
    def evaluate(self, instance: Instance) -> Fraction:
        """Exact model output for a full instance."""

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        # F on the outcome with one domain position per feature, as a
        # reduced pair.  The built-in models read their stored form; this
        # default builds the instance and calls the public ``evaluate``
        value = self.evaluate(Instance._at(self.space, positions))
        return value.numerator, value.denominator

    def _tabulate(self, axes: Sequence[Sequence[int]]) -> tuple[list[int], int]:
        # F on every outcome whose position of each feature i is in
        # axes[i], last feature fastest, as integer numerators over one
        # denominator.  The built-in trees and ensembles fill it from their
        # stored form; this default reads ``_evaluate_at`` once per outcome
        pairs = [self._evaluate_at(k) for k in itertools.product(*axes)]
        den = lcm(*[d for _, d in pairs])
        return [num * (den // d) for num, d in pairs], den

    @abc.abstractmethod
    def expected_value(self, dist: ProductDistribution) -> Fraction:
        """Exact expectation of the model under a product distribution."""

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        """``[self.expected_value(d) for d in dists]``, possibly sharing work."""
        return [self.expected_value(d) for d in dists]

    # The same answers as pairs, for an ensemble that sums its components
    # without a Fraction per term.  ``made`` is the call's one row dict,
    # shared by all components: a row object's ``Row`` by the object's
    # identity, stable since every distribution of the call is alive
    # throughout, added when a tree first reads the row.  This default
    # goes through the public method and leaves ``made`` alone.

    def _pair_values(
        self, dists: Sequence[ProductDistribution], made: dict[int, Row]
    ) -> list[Pair]:
        return [(v.numerator, v.denominator) for v in self.expected_values(dists)]

    def _gap_polynomials(
        self, factors: Sequence[Factor], member_sets: Sequence[tuple[int, ...]], batches: Batches
    ) -> GapPolynomials:
        """Each member set's gap polynomial in powers of u = 1 + z.

        A set A's gap is E[F] with each member a's row replaced by its own
        gap delta_{e_a} - p_a and every other feature j on its context row
        (see ``Factor``): the discrete derivative along A, a feature's
        pinned-minus-free gap when A = (a,).  Under the z-mixture
        (z*delta_j + p_j)/(1+z), the gap times (1+z)^(n-m) is the
        generating polynomial G_A = g_0 + g_1 u + ... + g_{n-m} u^(n-m);
        under fixed rows (no factor with a z term) the gap is G_A(1), the
        one entry answered.  The answer is ``(polys, den)``: ``polys[A]``
        holds den times g_0, g_1, ... for each set A of ``member_sets``
        (a missing set or entry is 0).  ``factors`` holds every feature's
        factor.  Trees walk (see ``TreeModel._gap_polynomials``), and
        ensembles, additive models included, sum their components'
        answers; the default, which tables, ``CountingModel`` and user
        models take, has no walk and answers ``batches(self)``, which
        requests the expectations and interpolates them.
        """
        return batches(self)


def _table_sum(
    values: Sequence[Fraction],
    strides: Sequence[int],
    probs: Sequence[Sequence[Fraction]],
    feature: int,
    weight: Fraction,
    offset: int,
    total: Fraction,
) -> Fraction:
    # total plus weight * prod_j p_j(c_j) * values[c] over the outcomes c
    # that agree with the prefix fixed so far (at ``offset``), by full
    # enumeration; a value of probability 0 is skipped
    if feature == len(strides):
        return total + weight * values[offset]
    stride = strides[feature]
    for pos, p in enumerate(probs[feature]):
        if p:
            total = _table_sum(
                values, strides, probs, feature + 1, weight * p, offset + stride * pos, total
            )
    return total


def _check_table_size(space: FeatureSpace) -> int:
    # the space's outcome count, or a ValueError above TABLE_SIZE_LIMIT
    size = space.outcome_count()
    if size > TABLE_SIZE_LIMIT:
        raise ValueError(f"table would need {size} entries, above the 2^24 limit")
    return size


class TableModel(Model):
    """The model as an explicit table over the full product domain.

    Oracle-grade: construction is rejected beyond 2^24 entries.  Values
    are stored flat, in outcome order (last feature fastest).
    """

    def __init__(self, space: FeatureSpace, values: Sequence[Fraction]):
        size = _check_table_size(space)
        vals = tuple(as_rational(v) for v in values)
        if len(vals) != size:
            raise ValueError(f"{len(vals)} table values for {size} outcomes")
        self.space = space
        self.values = vals
        strides = []
        stride = 1
        for domain in reversed(space.domains):
            strides.append(stride)
            stride *= len(domain)
        self._strides = tuple(reversed(strides))

    @classmethod
    def tabulate(cls, model: "Model") -> "TableModel":
        _check_table_size(model.space)  # before any point read
        nums, den = model._tabulate([range(len(d)) for d in model.space.domains])
        return cls(model.space, [Fraction(num, den) for num in nums])

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        value = self.values[sum([s * k for s, k in zip(self._strides, positions)])]
        return value.numerator, value.denominator

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        return _table_sum(self.values, self._strides, dist.probs, 0, Fraction(1), 0, Fraction(0))


@dataclass(frozen=True)
class Leaf:
    value: Fraction


@dataclass(frozen=True)
class Split:
    feature: int
    children: tuple["TreeNode", ...]  # aligned with the feature's domain order


TreeNode = Union[Leaf, Split]

# The compiled form a TreeModel stores: a split is (feature, children, mask),
# mask being the bitmask of the features split on in its subtree, and a
# leaf is its Fraction.
Compiled = Union[tuple, Fraction]


def _expect(node: tuple, rows: Mapping[int, Row]) -> Pair:
    # E of a compiled split: sum_c nums[c] * v_c over the row's den and the
    # product of the children's denominators, reduced once
    row_den, nums = rows[node[0]]
    num, den = 0, 1
    for a, child in zip(nums, node[1]):
        if a:
            if child.__class__ is tuple:
                cn, cd = _expect(child, rows)
            else:
                cn, cd = child.numerator, child.denominator
            num = num * cd + a * cn * den
            den *= cd
    den *= row_den
    g = gcd(num, den)
    return num // g, den // g


def _fill(
    grid: list[int], node: Compiled, j: int, offset: int, axes: Sequence[Sequence[int]],
    runs: Sequence[int], fixed: list[int], den: int,
) -> None:
    # write F * den on the runs[j] outcomes of ``grid`` from ``offset``:
    # those that agree with fixed[:j], each feature i >= j over axes[i].
    # runs[j] is the product of the axis lengths of features j.., so
    # feature j's stride is runs[j + 1].  A leaf fills the run with one
    # slice assignment; a subtree that never splits on feature j fills the
    # sub-run at its first position and copies it to the others; otherwise
    # each position of feature j is filled in turn
    while node.__class__ is tuple and node[0] < j:
        node = node[1][fixed[node[0]]]
    run = runs[j]
    if node.__class__ is not tuple:
        grid[offset : offset + run] = [node.numerator * (den // node.denominator)] * run
        return
    step = runs[j + 1]
    if node[2] >> j & 1:
        for k, start in zip(axes[j], range(offset, offset + run, step)):
            fixed[j] = k
            _fill(grid, node, j + 1, start, axes, runs, fixed, den)
    else:
        _fill(grid, node, j + 1, offset, axes, runs, fixed, den)
        grid[offset + step : offset + run] = grid[offset : offset + step] * (run // step - 1)


def _rebuild(tree: Compiled) -> TreeNode:
    # depth first with an explicit stack of open splits, each (feature,
    # compiled children left, rebuilt children), under a frame for the root
    top = (None, iter((tree,)), [])
    stack = [top]
    while True:
        frame = stack[-1]
        feature, children, built = frame
        for child in children:
            if child.__class__ is not tuple:
                built.append(Leaf(child))
            else:
                stack.append((child[0], iter(child[1]), []))
                break
        else:
            if frame is top:
                return built[0]
            stack.pop()
            stack[-1][2].append(Split(feature, tuple(built)))


class TreeModel(Model):
    """Decision tree branching on exact domain values.

    Each split maps every value of its feature's domain to a child, and
    no feature repeats along a root-to-leaf path, so the expectation is
    a single traversal multiplying branch probabilities.  Paths hold at
    most ``TREE_DEPTH_LIMIT`` splits.  The tree is compiled once and only
    the compiled form is kept; ``root`` rebuilds the ``Leaf``/``Split``
    nodes on each access.  The first gap walk measures the tree's packing
    bound and keeps it, with a copy of the compiled form whose leaves are
    integers.
    """

    # (scale, bits, walked) for the gap walk's polynomials, measured on the
    # first walk and kept (see ``_measure``); construction never measures
    _packing: tuple[int, int, Compiled] | None = None

    def __init__(self, space: FeatureSpace, root: TreeNode):
        self.space = space
        self._adopt(self._compile(root))

    @classmethod
    def _from_compiled(cls, space: FeatureSpace, tree: Compiled) -> "TreeModel":
        # skips validation; callers must supply the compiled form of a
        # valid tree over space, as ``_compile`` builds it
        model = object.__new__(cls)
        model.space = space
        model._adopt(tree)
        return model

    def _adopt(self, tree: Compiled) -> None:
        self._tree = tree
        self._mask = tree[2] if tree.__class__ is tuple else 0
        # the features some split branches on
        self._read = tuple(i for i in range(self.space.n) if self._mask >> i & 1)

    @property
    def root(self) -> TreeNode:
        return _rebuild(self._tree)

    def _compile(self, root: TreeNode) -> Compiled:
        # depth first, children in order, with an explicit stack of open
        # splits, each [feature, children left, compiled children, mask],
        # under a frame for the root: every node is checked when it is
        # reached, so the first error is that of the first bad node in
        # preorder
        space = self.space
        seen_nodes: set[int] = set()
        path_features: set[int] = set()  # the open splits' features
        top = [None, iter((root,)), [], 0]
        stack = [top]
        while True:
            split = stack[-1]
            feature, children, done, mask = split
            for node in children:
                if id(node) in seen_nodes:
                    raise ValueError("tree nodes may not be shared; the structure must be a tree")
                seen_nodes.add(id(node))
                if isinstance(node, Leaf):
                    if not isinstance(node.value, Fraction):
                        raise ValueError("leaf values must be Fractions")
                    done.append(node.value)
                    continue
                if not isinstance(node, Split):
                    raise ValueError(f"unexpected tree node {node!r}")
                if len(stack) > TREE_DEPTH_LIMIT:  # the root's frame is not a split
                    raise ValueError(f"tree is deeper than the limit of {TREE_DEPTH_LIMIT} splits")
                space.check_feature(node.feature)
                if node.feature in path_features:
                    raise ValueError(f"feature {node.feature} repeats along a path")
                domain = space.domains[node.feature]
                if len(node.children) != len(domain):
                    raise ValueError(
                        f"split on feature {node.feature} has {len(node.children)} children "
                        f"for {len(domain)} domain values"
                    )
                path_features.add(node.feature)
                stack.append([node.feature, iter(node.children), [], 1 << node.feature])
                break
            else:
                # every child is compiled: close the split into its parent
                if split is top:
                    return done[0]
                stack.pop()
                path_features.discard(feature)
                parent = stack[-1]
                parent[2].append((feature, tuple(done), mask))
                parent[3] |= mask

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        node = self._tree
        while node.__class__ is tuple:
            node = node[1][positions[node[0]]]
        return node.numerator, node.denominator

    def _tabulate(self, axes: Sequence[Sequence[int]]) -> tuple[list[int], int]:
        # leaf blocks (see ``_fill``), over the lcm of the leaf denominators
        den, stack = 1, [self._tree]
        while stack:
            node = stack.pop()
            if node.__class__ is tuple:
                stack.extend(node[1])
            else:
                den = lcm(den, node.denominator)
        runs = [1]
        for axis in reversed(axes):
            runs.append(runs[-1] * len(axis))
        runs.reverse()
        grid = [0] * runs[0]
        _fill(grid, self._tree, 0, 0, axes, runs, [0] * len(axes), den)
        return grid, den

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        check_shared_space(self, dist)
        probs = dist.probs
        return Fraction(*self._value({i: _row(probs[i]) for i in self._read}))

    def _value(self, rows: Mapping[int, Row]) -> Pair:
        # ``rows`` holds the Row of every feature the tree reads
        tree = self._tree
        if tree.__class__ is tuple:
            return _expect(tree, rows)
        return tree.numerator, tree.denominator

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        check_shared_space(self, *dists)
        return [Fraction(*value) for value in self._pair_values(dists, {})]

    def _pair_values(self, dists: Sequence[ProductDistribution], made: dict[int, Row]) -> list[Pair]:
        """One traversal per distinct tuple of the rows the tree reads.

        Distributions that share their row objects on every feature the
        tree splits on have the same expectation.  Every distribution of
        the batch is alive for the whole call, so the rows' identities
        are stable keys.  A traversal takes the rows it reads from
        ``made``, converting and adding any that are not there yet.
        """
        read = self._read
        seen: dict[tuple[int, ...], Pair] = {}
        values = []
        for dist in dists:
            probs = dist.probs
            key = tuple([id(probs[i]) for i in read])
            value = seen.get(key)
            if value is None:
                rows = {}
                for i in read:
                    row = probs[i]
                    converted = made.get(id(row))
                    if converted is None:
                        converted = made[id(row)] = _row(row)
                    rows[i] = converted
                value = seen[key] = self._value(rows)
            values.append(value)
        return values

    def _gap_polynomials(
        self, factors: Sequence[Factor], member_sets: Sequence[tuple[int, ...]], batches: Batches
    ) -> GapPolynomials:
        """The features' gaps from one walk, and each larger set's from one pass.

        A leaf of value v on a path P of length L adds to G_A, A within P,

        u^(n-L) * v * prod_{a in A} (delta_a - p_a)(c_a) * prod_{j in P - A} f_j(c_j),

        c_j being the path's child at feature j and f_j its context factor
        (see ``Factor``), in powers of u = 1 + z; each feature off the path
        sums to u, and a path that misses a member adds nothing, since a
        gap row sums to 0.  Over ``top``, the product of the denominators
        of the R features the tree reads, every read feature j off the
        path is a factor den_j * u of the leaf's own ``rest * u^(R-L)``,
        rest being top over the path's denominators, and the n - R unread
        features give u^(n-R), one shift of every answer.  Every G_A is
        over top * scale, scale the lcm of the leaf denominators.

        The one-member sets take one walk of two passes (``_walk``).  When
        no factor the tree reads has a z term (fixed rows, hit -1), every
        polynomial is its value at u = 1, and each set of two or more
        members takes one top-down pass (``_set_pass``).  Under z rows such
        a set has no walk, and the tree answers ``batches(self)``.
        """
        tree = self._tree
        if tree.__class__ is not tuple:
            return {}, 1
        mask = self._mask
        top, fixed = 1, True
        for i in self._read:
            den, _, hit, _ = factors[i]
            top *= den
            if hit >= 0:
                fixed = False
        wanted, sets = 0, []
        for members in member_sets:
            if len(members) == 1:
                wanted |= 1 << members[0]
            elif not fixed:
                return batches(self)
            elif all([mask >> a & 1 for a in members]):  # else some member is never read
                sets.append(members)
        wanted &= mask
        if not (wanted or sets):
            return {}, 1
        if self._packing is None:
            self._packing = self._measure()
        scale, bits, walked = self._packing
        polys = {}
        if wanted:
            # bytes per packed digit, at least a machine word, which decodes
            # in one call; none at u = 1
            size = 0 if fixed else max(8, (bits + top.bit_length() + 8) // 8)
            polys = self._walk(walked, factors, wanted, top, size)
        for members in sets:
            G = self._set_pass(walked, factors, members, top)
            if G:
                polys[members] = [G]
        return polys, top * scale

    def _walk(
        self, walked: Compiled, factors: Sequence[Factor], wanted: int, top: int, size: int
    ) -> dict[tuple[int, ...], list[int]]:
        """The gaps of the features of the bitmask ``wanted``, in two passes over one stack of splits.

        ``walked`` is the compiled tree with each leaf v as the int
        v * scale (see ``_measure``).

        * top-down, F(s) is the product of the context factors above
          split s;
        * bottom-up, W(x) is sum_c f(c) * W(child c), a leaf's W being
          v * scale * rest * u^(R-L) (see ``_gap_polynomials``);
        * at each split s on a wanted feature a, G_a gains
          F(s) * sum_c g_a(c) * W(child c).

        No feature repeats along a path, so each leaf's term is counted at
        the one split on a above it.  A child whose context factor is 0
        gets F = 0, and the walk reaches a subtree only for an F or a W it
        needs.

        With ``size`` 0 the rows are fixed and every polynomial is a plain
        int, its value at u = 1: no factor has a z term and no leaf a
        shift, and each G_a is answered as the one entry [G_a(1)].
        Otherwise each polynomial is one int, its value at u = 2^w,
        w = 8 * size (Kronecker substitution): a linear factor is one
        multiply, and u^k a shift.  Each G_a is decoded once into balanced
        base-2^w digits, which are its coefficients when
        2^(w-1) > N * 2^D * V * top, N being the leaf count, D the depth
        and V the largest |leaf numerator * scale / leaf denominator|: a
        leaf's term has a coefficient absolute sum of at most
        2^(L-1) * top * V, because |g_a| <= den_a and each context
        factor's coefficients sum to at most 2 * den_j in absolute value.
        N, D, V and scale are measured on the first walk and kept
        (``_measure``); w is a whole number of bytes, at least 64 so that
        the digits of nearly every walk decode in one ``struct.unpack``
        call, wider ones one ``int.from_bytes`` each.
        """
        w = 8 * size
        count = len(self._read)
        # top-down: the splits reached, parents first, each with its F where
        # it starts a gap (else 0), whether its W is needed, its leaves'
        # factor top over the path's denominators and shift w * (R - L), and
        # how many of its children were reached
        order = []
        stack = [(walked, 1, False, top, count)]
        while stack:
            (feature, children, _), product, need, rest, left = stack.pop()
            den, nums, hit, _ = factors[feature]
            own = product if wanted >> feature & 1 else 0
            below = need or own != 0  # the children's W is needed
            rest //= den
            left -= 1
            reached = 0
            for c, child in enumerate(children):
                if child.__class__ is not tuple:
                    continue
                num = nums[c]
                if product and child[2] & wanted and (num or c == hit):
                    f = num if c != hit else num - den + (den << w)  # the factor at u = 2^w
                    stack.append((child, product * f, below, rest, left))
                elif below:
                    stack.append((child, 0, True, rest, left))
                else:
                    continue
                reached += 1
            order.append((feature, children, own, need, rest, w * left, reached))
        # bottom-up: each split's W on a stack of values, its children's on top
        packed: dict[int, int] = {}
        values: list[int] = []
        for feature, children, own, need, rest, shift, reached in reversed(order):
            if reached:
                under = values[-reached:]
                del values[-reached:]
            if not (own or need):
                values.append(0)
                continue
            den, nums, hit, gaps = factors[feature]
            k = W = gap = 0
            for c, child in enumerate(children):
                if child.__class__ is tuple:
                    t = under[k]
                    k += 1
                    if not t:
                        continue
                elif child:
                    t = child * rest << shift
                else:
                    continue
                if need:
                    W += t * (nums[c] if c != hit else nums[c] - den + (den << w))
                if own:
                    gap += gaps[c] * t
            if own and gap:
                packed[feature] = packed.get(feature, 0) + own * gap
            values.append(W)
        if not size:
            return {(a,): [G] for a, G in packed.items()}
        # decode: adding half a digit at every digit leaves no borrows, and
        # flipping each digit's top bit then makes it a two's complement
        # field of ``size`` bytes; the n - R unread features shift by u^(n - R)
        offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        shifted = [0] * (len(factors) - count)
        polys = {}
        for a, G in packed.items():
            data = ((G + offset) ^ offset).to_bytes(size * count, "little")
            if size == 8:
                digits = struct.unpack(f"<{count}q", data)
            else:
                digits = [
                    int.from_bytes(data[k : k + size], "little", signed=True)
                    for k in range(0, size * count, size)
                ]
            polys[(a,)] = [*shifted, *digits]
        return polys

    def _set_pass(
        self, walked: Compiled, factors: Sequence[Factor], members: Sequence[int], top: int
    ) -> int:
        """G_A(1) times top * scale for a set A of two or more members, under fixed rows.

        ``walked`` is the compiled tree with each leaf v as the int
        v * scale (see ``_measure``).

        One top-down pass over an explicit stack of splits: each member is
        on its gap row and every other read feature on its context row.  A
        child whose subtree misses a member not yet on the path is
        skipped, and a leaf counts only when every member is on its path.
        """
        left = 0  # the members not yet on the path
        for a in members:
            left |= 1 << a
        total = 0
        stack = [(walked, 1, top, left)]
        while stack:
            (feature, children, _), product, rest, left = stack.pop()
            den, row, _, gaps = factors[feature]
            rest //= den
            if left >> feature & 1:
                row, left = gaps, left ^ (1 << feature)
            for f, child in zip(row, children):
                if not f:
                    continue
                if child.__class__ is tuple:
                    if child[2] & left == left:
                        stack.append((child, product * f, rest, left))
                elif child and not left:
                    total += product * f * child * rest
        return total

    def _measure(self) -> tuple[int, int, Compiled]:
        # (scale, bits, walked): the lcm of the leaf denominators, the bit
        # length of N * V plus D (see ``_gap_polynomials``), and the
        # compiled tree with each leaf v as the int v * scale, built depth
        # first with an explicit stack of open splits, each (feature, mask,
        # children left, built children), under a frame for the root
        leaves, depth = [], 0
        stack = [(self._tree, 0)]
        while stack:
            node, length = stack.pop()
            if node.__class__ is tuple:
                stack.extend([(child, length + 1) for child in node[1]])
            else:
                leaves.append(node)
                depth = max(depth, length)
        scale = lcm(*[v.denominator for v in leaves])
        most = max([abs(v.numerator) * (scale // v.denominator) for v in leaves])
        top = (None, 0, iter((self._tree,)), [])
        stack = [top]
        while True:
            frame = stack[-1]
            feature, mask, children, built = frame
            for child in children:
                if child.__class__ is not tuple:
                    built.append(child.numerator * (scale // child.denominator))
                else:
                    stack.append((child[0], child[2], iter(child[1]), []))
                    break
            else:
                if frame is top:
                    return scale, (len(leaves) * most).bit_length() + depth, built[0]
                stack.pop()
                stack[-1][3].append((feature, tuple(built), mask))

    def features_used(self) -> frozenset[int]:
        return frozenset(self._read)


class EnsembleModel(Model):
    """Weighted sum of component models sharing one space.

    Components answer batches in reduced pairs (``Model._pair_values``),
    sharing the call's one row dict.  The walk hook
    (``Model._gap_polynomials``) sums the components' own answers.
    """

    def __init__(self, components: Sequence[tuple[Fraction, Model]]):
        if not components:
            raise ValueError("an ensemble needs at least one component")
        comps = tuple((as_rational(w), m) for w, m in components)
        check_shared_space(*(m for _, m in comps))
        self.space = comps[0][1].space
        self.components = comps

    def evaluate(self, instance: Instance) -> Fraction:
        check_shared_space(self, instance)
        return Fraction(*self._evaluate_at(instance._positions))

    def _evaluate_at(self, positions: Sequence[int]) -> Pair:
        # sum_j w_j * F_j(x) over the lcm of the terms' denominators, reduced
        # once; the components' spaces were checked equal to the ensemble's
        # at construction
        num, den = 0, 1
        for w, model in self.components:
            vn, vd = model._evaluate_at(positions)
            tn = w.numerator * vn
            if not tn:
                continue
            td = w.denominator * vd
            if den % td:
                g = gcd(den, td)
                num *= td // g
                den *= td // g
            num += tn * (den // td)
        g = gcd(num, den)
        return num // g, den // g

    def _tabulate(self, axes: Sequence[Sequence[int]]) -> tuple[list[int], int]:
        # sum_j w_j * grid_j over the lcm of the terms' denominators
        total, den = [0] * prod([len(axis) for axis in axes]), 1
        for w, model in self.components:
            if not w:
                continue
            grid, d = model._tabulate(axes)
            d *= w.denominator
            common = lcm(den, d)
            up, s = common // den, w.numerator * (common // d)
            total = [up * t + s * x for t, x in zip(total, grid)]
            den = common
        return total, den

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        return self.expected_values([dist])[0]

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        check_shared_space(self, *dists)
        return [Fraction(*value) for value in self._pair_values(dists, {})]

    def _pair_values(self, dists: Sequence[ProductDistribution], made: dict[int, Row]) -> list[Pair]:
        # sum_j w_j * answer_j, entry by entry, each sum reduced once
        totals: list[Pair] = [(0, 1)] * len(dists)
        for w, model in self.components:
            wn, wd = w.numerator, w.denominator
            for k, (vn, vd) in enumerate(model._pair_values(dists, made)):
                num, den = totals[k]
                td = wd * vd
                num = num * td + wn * vn * den
                den *= td
                g = gcd(num, den)
                totals[k] = (num // g, den // g)
        return totals

    def _gap_polynomials(
        self, factors: Sequence[Factor], member_sets: Sequence[tuple[int, ...]], batches: Batches
    ) -> GapPolynomials:
        # sum_j w_j * polys_j over the lcm of the terms' denominators
        answers = []
        for w, model in self.components:
            if w:
                polys, d = model._gap_polynomials(factors, member_sets, batches)
                if polys:
                    answers.append((w.numerator, polys, w.denominator * d))
        den = lcm(*[d for _, _, d in answers])
        total: dict[tuple[int, ...], list[int]] = {}
        for num, polys, d in answers:
            s = num * (den // d)
            for a, coeffs in polys.items():
                acc = total.get(a)
                if acc is None:
                    total[a] = [s * c for c in coeffs]
                else:
                    total[a] = [x + s * c for x, c in itertools.zip_longest(acc, coeffs, fillvalue=0)]
        return total, den


class AdditiveModel(EnsembleModel):
    """bias + sum of one per-feature term, each a value-to-rational map.

    Stored as the ensemble, every weight 1, of a leaf holding the bias and
    one single-split tree per feature, whose children are the feature's
    term values: every point read, expectation, tabulation and gap walk
    is the trees' and the ensemble's.
    """

    def __init__(
        self,
        space: FeatureSpace,
        bias: Fraction,
        terms: Sequence[Sequence[Fraction]],
    ):
        self.bias = as_rational(bias)
        rows = tuple(tuple(as_rational(v) for v in row) for row in terms)
        if len(rows) != space.n:
            raise ValueError(f"{len(rows)} term rows for {space.n} features")
        for i, (row, domain) in enumerate(zip(rows, space.domains)):
            if len(row) != len(domain):
                raise ValueError(f"feature {i}: {len(row)} term values for {len(domain)} domain values")
        self.terms = rows
        trees = [(i, row, 1 << i) for i, row in enumerate(rows)]
        super().__init__(
            [(Fraction(1), TreeModel._from_compiled(space, t)) for t in [self.bias, *trees]]
        )

    # Entries of the class's own namespace, for tools that wrap methods per
    # class: perfbench's tracer reads them from ``AdditiveModel.__dict__``.
    evaluate = EnsembleModel.evaluate  # traced as models.evaluate
    expected_value = EnsembleModel.expected_value  # traced as models.additive.expected_value


class CountingModel(Model):
    """Delegating wrapper that counts engine calls (used for call-count contracts)."""

    def __init__(self, inner: Model):
        self.inner = inner
        self.space = inner.space
        self.evaluate_calls = 0
        self.expected_value_calls = 0

    def evaluate(self, instance: Instance) -> Fraction:
        self.evaluate_calls += 1
        return self.inner.evaluate(instance)

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        self.expected_value_calls += 1
        return self.inner.expected_value(dist)

    def expected_values(self, dists: Sequence[ProductDistribution]) -> list[Fraction]:
        self.expected_value_calls += len(dists)
        return self.inner.expected_values(dists)


def conditional_expectation(
    model: Model, dist: ProductDistribution, e: Instance, coalition: Coalition
) -> Fraction:
    """E[F | Y_S = e_S]: expectation with S's marginals replaced by point masses.

    Product substitution, not Bayes conditioning: well defined even when
    e_S has probability zero.
    """
    check_shared_space(model, dist, e)
    return model.expected_value(condition(dist, e, coalition))
