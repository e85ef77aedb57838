"""Affine RS(D,k) and projective PRS(q+1,k) codes over GF(q).

Words are tuples of field-element encodings.  The projective evaluation order
is the canonical field order (nonzero ascending, zero last), so generator and
parity-check matrices reproduce the classical doubly-extended layout
column-for-column.  A coset is named by its class id, the place of the
scalar class of its syndrome in the weight table below; only the hypergraph
report packs representatives into base-q integers.

Two independent error-distance algorithms are provided and cross-validated in
the test suite: an exhaustive search over the information sets, and a
coset-leader weight table over the scalar classes of syndromes.

The exhaustive oracle reads only the generator matrix G, never H, a
syndrome or the weight table, and searches the C(n,k) information sets, not
the q^k codewords.  It is exact on every RS and PRS code:
  1. the codeword c_S that interpolates w on a k-set S agrees with w there, so
     d(w, C) <= n - k;
  2. so a nearest codeword agrees with w on some k-set S, and is c_S;
  3. so d(w, C) is the least number of mismatches of c_S and w off S.
Step 2 needs every k columns of G independent (the code is MDS); the table
build checks it, and raises AssertionError when a step of the elimination
finds no pivot; Code.is_mds reads that check.  For every S the code keeps
S, its complement J and the k x (n-k) matrix P_S, so that c_S is w_S on S
and w_S*P_S on J.  They come from one batched Gauss-Jordan elimination of
the columns (S, J) of G, built once per code in blocks whose (sets, k, n)
arrays hold at most SCAN_CHUNK/16 entries.  P_S takes C(n,k)*k*(n-k)
entries, which LIMITS.codewords bounds as it bounds the q^k rows of the
codeword table.  A word then costs one gather of w on every S, one
GF.combine of those k symbols with the rows of P_S for w_S*P_S, and one
comparison with w on every J.

The weight table is built one parity-check column h at a time: a syndrome's
weight becomes the smaller of its weight so far and one more than the least
weight so far on its line {s + t*h : t in GF(q)}.  A weight is the same on
every nonzero multiple of a syndrome, so the table is built on one
representative per scalar class, the syndrome whose first nonzero
coordinate (lowest index) is 1.  Box j holds the q^(r-1-j) representatives
whose first nonzero coordinate is j, packed by their later coordinates,
(q^r - 1)/(q - 1) int8 entries in all.  For h with first nonzero coordinate
i, the lines through [h] are indexed by the representatives u with u_i = 0,
and every other representative lies on exactly one of them.  Their points
u + t*h normalise coordinate by coordinate: for u in a box j < i each is a
representative as it stands, and for j > i each point with t != 0 is t
times the representative h + u/t, in box i.  Each coordinate after j adds
one (rows, digits) term to the positions, so the lines of box j are an
outer sum of terms.  The columns that share i share their terms but for a
leading column axis, so a group of columns gets its positions of every box
at once: (columns, q, lines) blocks of at most _block() entries, holding
the lines of several whole columns or a run of lines of one, in column
order.  A column's pass over a block is one gather, a minimum over each
line, and one scatter, so a column whose lines fit in a block is passed by
one of each; [h] itself, on none of its lines, takes weight 1.

That pass over the whole table is taken only by the columns outside one
hyperplane W = {s : s_(r-1) = l.(s_0, ..., s_(r-2))}; the table is seeded
with the columns in W, one dimension down.  The result of the passes does
not depend on the order of the columns, or on when a weight-1 class [h] is
set, and after the columns in W it is exact on W and r + 1 off it, since
their span lies in W.  On W it is the table of their first r-1
coordinates, built by the same function down to r = 1, where the one class
has weight 1 when some column is nonzero, and moved through the chart
s' -> (s', l.s'), which maps representatives to representatives.  l makes
W hold a greedy maximal set of columns whose first r-1 coordinates are
independent, found by reducing the columns in order until r - 1 are kept,
so for an MDS code W holds exactly r - 1 columns and n - r + 1 passes over
the whole table remain.

A position in this table is a class id: the class of s != 0 has id
offsets[j] plus the place of its representative in box j, for j its first
nonzero coordinate.  class_ids maps (..., m) vectors to class ids and
class_representatives maps class ids back to representative vectors; no
other code maps between the two.  coset_leader_weights() is the table, and
the covering radius its maximum.  Code.class_span gives the class ids of a
span, one per combination of its syndromes whose first nonzero coefficient
is 1, in the same box order over GF(q)^m; spans of q^r combinations or more
read their ids from a table of all q^r vectors' class_ids, built in the call.

The tables are bounded by one Limits value, the context variable LIMITS:
the weight table and every span of syndromes need q^r <= LIMITS.syndromes,
the codeword table q^k <= LIMITS.codewords, and the exhaustive oracle's
tables C(n,k)*k*(n-k) <= LIMITS.codewords entries.
Each check reads LIMITS when a table is built or a distance is asked for, so
a caller lifts the limits for one piece of work by setting LIMITS in a
copied context and running the work there, as the CLI's --unsafe-bounds
does.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from deephole.errors import BoundExceededError
from deephole.gf import GF, field_of_order
from deephole.poly import Poly

# entries in one block of a batched table build: the arrays of one block of
# information sets, or of one block of the families' spans, a few hundred KB,
# so they stay in L2
SCAN_CHUNK = 1 << 18


class Limits(NamedTuple):
    """The largest tables built: q^k codewords listed, or the exhaustive
    oracle's C(n,k)*k*(n-k) table entries, and q^r syndromes in a weight
    table or a span."""

    codewords: int = 10**7
    syndromes: int = 10**7


LIMITS = contextvars.ContextVar("LIMITS", default=Limits())


class Code:
    """Descriptor of an affine RS(D,k) or projective PRS(q+1,k) code."""

    def __init__(self, kind: str, field: GF, k: int, D=None, scale=None):
        if kind not in ("affine", "projective"):
            raise ValueError(f"unknown code kind {kind!r}")
        self.kind = kind
        self.field = field
        self.k = k
        if kind == "projective":
            if D is not None or scale is not None:
                raise ValueError("projective codes use the full field, unscaled")
            self.D = field.element_reprs()
            self.scale = None
        else:
            self.D = tuple(D) if D is not None else field.element_reprs()
            if len(set(self.D)) != len(self.D):
                raise ValueError("evaluation set has repeated points")
            if any(not 0 <= x < field.q for x in self.D):
                raise ValueError("evaluation point out of range")
            self.scale = tuple(scale) if scale is not None else (1,) * len(self.D)
            if len(self.scale) != len(self.D) or any(
                not 0 < v < field.q for v in self.scale
            ):
                raise ValueError("scale vector must be n nonzero field elements")
        if not 0 < k < self.n:
            raise ValueError(f"dimension k = {k} out of range for n = {self.n}")
        self._weights = None

    @property
    def n(self) -> int:
        return len(self.D) + (1 if self.kind == "projective" else 0)

    @property
    def redundancy(self) -> int:
        return self.n - self.k

    def __repr__(self):
        if self.kind == "projective":
            return f"PRS({self.n},{self.k}) over {self.field!r}"
        return f"RS(|D|={len(self.D)},{self.k}) over {self.field!r}"

    # -- matrices -----------------------------------------------------------

    def generator_matrix(self) -> list[list[int]]:
        f = self.field
        rows = []
        for s in range(self.k):
            row = [f.mul(v, f.pow(x, s)) for x, v in zip(self.D, self._scales())]
            if self.kind == "projective":
                row.append(1 if s == self.k - 1 else 0)
            rows.append(row)
        return rows

    def _scales(self):
        return self.scale if self.kind == "affine" else (1,) * len(self.D)

    def parity_check_matrix(self) -> list[list[int]]:
        """H as row lists: the matrix that the tests multiply out by scalar
        arithmetic to check syndromes()."""
        return self._h.tolist()

    @functools.cached_property
    def _h(self) -> np.ndarray:
        """The parity-check matrix as a read-only (r, n) array, built once
        per code."""
        f = self.field
        r = self.redundancy
        if self.kind == "projective":
            rows = [
                [f.pow(x, t) for x in self.D] + [1 if t == r - 1 else 0]
                for t in range(r)
            ]
        else:
            # dual of a generalized RS code is generalized RS with the classical
            # column multipliers u_i = (v_i * prod_{j != i} (x_i - x_j))^(-1)
            us = []
            for i, xi in enumerate(self.D):
                prod = 1
                for j, xj in enumerate(self.D):
                    if j != i:
                        prod = f.mul(prod, f.sub(xi, xj))
                us.append(f.inv(f.mul(self.scale[i], prod)))
            rows = [
                [f.mul(u, f.pow(x, t)) for x, u in zip(self.D, us)] for t in range(r)
            ]
        h = np.array(rows, dtype=np.intp)
        h.setflags(write=False)
        return h

    def h_columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self._h.tolist()))

    # -- words ----------------------------------------------------------------

    def word(self, f: Poly, last: int | None = None) -> tuple[int, ...]:
        """Evaluation word of an arbitrary-degree polynomial: the affine u_f,
        or the projective (u_f, last)."""
        evals = tuple(f(x) for x in self.D)
        if self.kind == "affine":
            if last is not None:
                raise ValueError("affine words have no extension coordinate")
            fld = self.field
            return tuple(fld.mul(v, e) for v, e in zip(self.scale, evals))
        if last is not None and not 0 <= last < self.field.q:
            raise ValueError(f"extension coordinate {last} out of range")
        return evals + (0 if last is None else last,)

    # -- syndromes and cosets ---------------------------------------------------

    def syndrome(self, word) -> tuple[int, ...]:
        return tuple(self.syndromes(word).tolist())

    def syndromes(self, words) -> np.ndarray:
        """The syndromes H*w of an (..., n) array of words as an (..., r)
        array, by one GF.combine over the columns of H."""
        fld = self.field
        words = np.asarray(words)
        if words.shape[-1:] != (self.n,):
            raise ValueError(f"words of shape {words.shape} are not of length {self.n}")
        # a gather would wrap a negative symbol silently
        if words.size and not (0 <= words.min() and words.max() < fld.q):
            raise ValueError(f"word has a symbol outside {fld!r}")
        return fld.combine(words, self._h.T)

    def class_span(self, syndromes) -> np.ndarray:
        """Class id of every combination sum c_j*s_j of the given syndromes
        whose first nonzero coefficient is 1, one per class of the span, in
        the box order of the weight table over GF(q)^m: box j holds the
        combinations with c_j the first nonzero coefficient, packed base q
        by c_(j+1), c_(j+2), ... with the lowest least significant.  An
        (..., m, r) array of m >= 1 syndromes gives (..., (q^m-1)/(q-1))
        ids, one span per leading index; dependent syndromes raise
        ValueError, since some combination is zero.  The boxes come from one
        array of the combinations of s_1, s_2, ...: box 0 adds s_0 to each,
        and box j >= 1 is the strided view of those with c_j = 1 the first
        nonzero coefficient.  A span of at least q^r combinations in all
        packs each base q and reads its id from a table of the class_ids of
        all q^r vectors, built in the call; a smaller one takes class_ids of
        its combinations."""
        fld = self.field
        self._check_syndromes()  # also bounds the table of q^r ids
        q, r = fld.q, self.redundancy
        syns = np.asarray(syndromes, dtype=np.intp)
        later = _combinations(fld, syns[..., 1:, :], r)  # row c_1 + c_2*q + ...
        boxes = [later[..., q ** (j - 1) :: q**j, :] for j in range(1, syns.shape[-2])]
        combos = np.concatenate([fld.add_table[later, syns[..., [0], :]], *boxes], -2)
        del later, boxes  # released before the ids, which set the peak
        if combos.size < q**r * r:  # fewer combinations than vectors
            ids = class_ids(fld, combos)
        else:
            # row p of the vectors holds the base-q digits of p, lowest first
            vectors = np.indices((q,) * r, dtype=combos.dtype)[::-1].reshape(r, -1).T
            table = class_ids(fld, vectors)
            packed = np.zeros(combos.shape[:-1], dtype=np.intp)
            for t in range(r - 1, -1, -1):
                packed *= q
                packed += combos[..., t]
            ids = table[packed]
        if (ids < 0).any():
            raise ValueError("the syndromes are linearly dependent")
        return ids

    def class_mask(self, id_arrays) -> np.ndarray:
        """Boolean mask over the (q^r-1)/(q-1) class ids, true on every id of
        the given id arrays: their union, one scatter per array."""
        self._check_syndromes()
        mask = np.zeros(_box_offsets(self.field.q, self.redundancy)[-1], dtype=bool)
        for ids in id_arrays:
            mask[ids] = True
        return mask

    # -- coset-leader weights -----------------------------------------------------

    def _check_syndromes(self):
        q, r, bound = self.field.q, self.redundancy, LIMITS.get().syndromes
        if q**r > bound:
            raise BoundExceededError(f"syndrome space {q}^{r} exceeds bound {bound}")

    def coset_leader_weights(self) -> np.ndarray:
        """int8 array over class ids: the minimum number of parity-check
        columns whose span contains a syndrome of the class (= coset leader
        weight), built once per code (see the module docstring); LIMITS is
        checked on every call."""
        self._check_syndromes()
        if self._weights is None:
            weights = _leader_weights(self.field, self._h.T)
            if weights.max() > self.redundancy:
                raise AssertionError("parity-check columns do not span the syndromes")
            self._weights = weights
        return self._weights

    def covering_radius(self) -> int:
        return int(self.coset_leader_weights().max())

    # -- exhaustive codeword enumeration ---------------------------------------

    def _check_codewords(self, what: str, size: int):
        bound = LIMITS.get().codewords
        if size > bound:
            raise BoundExceededError(f"{what} = {size} exceeds bound {bound}")

    def codewords(self) -> np.ndarray:
        """All q^k codewords as an (N, n) array, row i encoding the message
        with coefficient digits of i (base q, low degree first); built on
        each call and kept by nobody.  The tests check the information-set
        tables of the exhaustive oracle against it."""
        self._check_codewords("q^k", self.field.q**self.k)
        return _combinations(self.field, self.generator_matrix(), self.n)

    @functools.cached_property
    def _info_sets(self) -> _InfoSets:
        """Every k-set S of coordinates, its complement J and P_S, with
        [I | P_S] the generator matrix reduced on the columns (S, J); built
        once per code (see the module docstring)."""
        fld = self.field
        n, k = self.n, self.k
        dt = np.uint8 if max(fld.q, n) <= 256 else np.uint16
        add_t, mul_t = fld.add_table, fld.mul_table
        neg_t = np.argmax(add_t == 0, axis=1)
        g_cols = np.asarray(self.generator_matrix(), dtype=dt).T
        count = math.comb(n, k)
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        subsets = np.fromiter(flat, dtype=dt, count=count * k).reshape(count, k)
        complements = np.empty((count, n - k), dtype=dt)
        parity = np.empty((k, count, n - k), dtype=dt)
        step = _block_rows(k * n)
        for start in range(0, count, step):
            sets = subsets[start : start + step]
            rows = np.arange(len(sets))
            outside = np.ones((len(sets), n), dtype=bool)
            outside[rows[:, None], sets] = False
            comp = np.nonzero(outside)[1].reshape(len(sets), n - k)
            # one (k, n) matrix per set: the columns of G in the order (S, J)
            m = g_cols[np.concatenate([sets, comp], axis=1)].transpose(0, 2, 1)
            for i in range(k):
                nonzero = m[:, i:, i] != 0
                if not nonzero.any(axis=1).all():
                    raise AssertionError(f"{k} generator columns are dependent")
                at = i + nonzero.argmax(axis=1)
                pivot = m[rows, at]
                m[rows, at] = m[:, i]
                pivot = mul_t[fld.inv_table[pivot[:, i, None]], pivot]
                # every other row less its multiple of the pivot row; row i
                # becomes the pivot row
                factors = neg_t[m[:, :, i, None]]
                m = add_t[m, mul_t[factors, pivot[:, None, :]]]
                m[:, i] = pivot
            complements[start : start + step] = comp
            parity[:, start : start + step] = m[:, :, k:].transpose(1, 0, 2)
        return _InfoSets(subsets, complements, parity)

    def _info_set_distance(self, word) -> int:
        """min over the information sets S of the mismatches off S between
        the word and the codeword that interpolates it on S."""
        fld = self.field
        n, k = self.n, self.k
        self._check_codewords("oracle table entries", math.comb(n, k) * k * (n - k))
        if any(not 0 <= x < fld.q for x in word):
            raise ValueError(f"word has a symbol outside {fld!r}")
        tab = self._info_sets
        # symbols as narrow as the tables: combine scales its own intp copy
        w = np.asarray(word, dtype=tab.parity.dtype)
        fit = fld.combine(w[tab.subsets], tab.parity.transpose(1, 0, 2))
        return int((fit != w[tab.complements]).sum(axis=1).min())

    # -- distances -------------------------------------------------------------

    def error_distance(self, word, method: str = "auto") -> int:
        """Exact minimum Hamming distance from the word to the code; "auto"
        reads the weight table when q^r is within LIMITS, else the exhaustive
        oracle."""
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        if method == "auto":
            fits = self.field.q**self.redundancy <= LIMITS.get().syndromes
            method = "syndrome_span" if fits else "exhaustive"
        if method == "syndrome_span":
            weights = self.coset_leader_weights()
            c = int(class_ids(self.field, self.syndromes(word)))
            return 0 if c < 0 else int(weights[c])
        if method == "exhaustive":
            return self._info_set_distance(word)
        raise ValueError(f"unknown method {method!r}")

    def is_mds(self) -> bool:
        """Whether every k generator columns are independent, so that the
        minimum distance is n - k + 1 (acceptance criterion): the exhaustive
        oracle's tables build exactly when they are, under the same bound."""
        n, k = self.n, self.k
        self._check_codewords("oracle table entries", math.comb(n, k) * k * (n - k))
        try:
            self._info_sets
        except AssertionError:  # some k generator columns are dependent
            return False
        return True


def _combinations(field: GF, rows, width: int) -> np.ndarray:
    """Every combination sum c_j*rows_j of an (..., m, width) array of rows
    as a (..., q^m, width) array, indexed by (c_0, c_1, ...) packed base q
    with c_0 the least significant digit; uint8 for q <= 256, else uint16."""
    dt = np.uint8 if field.q <= 256 else np.uint16
    add_t = field.add_table.astype(dt, copy=False)
    mul_t = field.mul_table.astype(dt, copy=False)
    rows = np.asarray(rows, dtype=np.intp)
    if rows.shape == (0,):  # no rows span only the zero combination
        rows = rows.reshape(0, width)
    if rows.ndim < 2 or rows.shape[-1] != width:
        raise ValueError(f"row length {rows.shape[-1]} != {width}")
    # one row per combination so far, for every leading index
    combos = np.zeros(rows.shape[:-2] + (1, width), dtype=dt)
    coeffs = np.arange(field.q)[:, None]
    for j in range(rows.shape[-2]):
        multiples = mul_t[coeffs, rows[..., j, None, :]]  # row c holds c*row
        combos = add_t[multiples[..., None, :], combos[..., None, :, :]]
        combos = combos.reshape(rows.shape[:-2] + (-1, width))
    return combos


class _InfoSets(NamedTuple):
    """What the exhaustive oracle keeps per code: the (C(n,k), k) subsets S,
    their (C(n,k), n-k) complements J, and the matrices P_S as a
    (k, C(n,k), n-k) array, row i of every P_S in one block; uint8 when q
    and n are at most 256, else uint16."""

    subsets: np.ndarray
    complements: np.ndarray
    parity: np.ndarray


def _leader_weights(field: GF, columns, unreached: int = 0) -> np.ndarray:
    """int8 table over the scalar classes of nonzero syndromes of length r,
    the compact table of the module docstring: the least number of the given
    columns, an (m, r) array, whose span holds the class, and
    max(unreached, r + 1) where none does, so that a table built one
    dimension down keeps the value of the table it seeds.  The columns in
    the hyperplane of _hyperplane are taken one dimension down and charted
    into it; the others pass over the whole table in _column_pass."""
    columns = np.asarray(columns, dtype=np.intp)
    r = columns.shape[1]
    unreached = max(unreached, r + 1)
    if r == 1:  # the one class, of weight 1 when some column is nonzero
        return np.full(1, 1 if columns.any() else unreached, dtype=np.int8)
    offsets = _box_offsets(field.q, r)
    compact = np.full(offsets[-1], unreached, dtype=np.int8)
    ell, inside, outside = _hyperplane(field, columns)
    sub = _leader_weights(field, columns[inside, :-1], unreached)
    _chart(field, compact, sub, ell, offsets)
    _column_pass(field, compact, columns[outside], offsets)
    return compact


def _hyperplane(field: GF, columns) -> tuple[list[int], list[int], list[int]]:
    """l in GF(q)^(r-1), and the indices of the (m, r) columns in the
    hyperplane W = {s : s_(r-1) = l.(s_0, ..., s_(r-2))} and of those off
    it.  W holds a greedy maximal set B of columns whose first r-1
    coordinates are independent.  Until r-1 are kept, each column in turn
    is reduced by the kept ones, its last coordinate carried along, and is
    kept when one of its first r-1 coordinates is left nonzero: scaled to 1
    at the first such, its pivot, and cleared from the kept ones there.  So
    every kept row is 1 at its pivot and 0 at the others, and l, the
    carried coordinate of each kept row at its pivot and 0 elsewhere, meets
    every kept row, and so every column of B."""
    d = columns.shape[1] - 1
    add, mul, neg = field.add, field.mul, field.neg
    kept = {}  # pivot -> reduced row
    for col in columns.tolist():
        if len(kept) == d:
            break
        for p, row in kept.items():
            if col[p]:
                c = neg(col[p])
                col = [add(x, mul(c, y)) for x, y in zip(col, row)]
        p = next((t for t in range(d) if col[t]), None)
        if p is None:
            continue
        c = field.inv(col[p])
        col = [mul(c, x) for x in col]
        for t, row in kept.items():
            if row[p]:
                c = neg(row[p])
                kept[t] = [add(x, mul(c, y)) for x, y in zip(row, col)]
        kept[p] = col
    ell = [kept[t][d] if t in kept else 0 for t in range(d)]
    on = field.combine(ell, columns[:, :d].T) == columns[:, d]
    return ell, np.flatnonzero(on).tolist(), np.flatnonzero(~on).tolist()


def _chart(field: GF, compact, sub, ell, offsets):
    """Scatter the table `sub` over GF(q)^(r-1) into the table `compact`
    over GF(q)^r, whose boxes start at `offsets`, through the chart
    s' -> (s', l.s').  The chart keeps a representative a representative, so
    the class at place p of box j lands at offsets[j] + p + q^(r-2-j)*l.s'.
    On box j, l.s' is l_j plus the tail sum over the coordinates after j,
    which is box j+1's tail sum at p // q plus l_(j+1)*(p mod q): one table
    gather per box, from the last box up, of two bytes per place.  The intp
    positions are built _block() places at a time."""
    q, d = field.q, len(ell)
    add_t, mul_t = field.add_table, field.mul_table
    tail = np.zeros(1, dtype=np.intp)
    stop = len(sub)
    for j in range(d - 1, -1, -1):
        if j < d - 1:
            tail = add_t[tail[:, None], mul_t[ell[j + 1]]].ravel()
        lifted = add_t[tail, ell[j]]
        stop -= len(tail)
        for b in range(0, len(tail), _block()):
            at = lifted[b : b + _block()].astype(np.intp)
            at *= q ** (d - 1 - j)
            at += np.arange(offsets[j] + b, offsets[j] + b + len(at))
            compact[at] = sub[stop + b : stop + b + len(at)]


def _column_pass(field: GF, compact, columns, offsets):
    """The passes of the given columns, an (m, r) array or one column, over
    the whole table, in place (see the module docstring)."""
    q, r = field.q, len(offsets) - 1
    columns = np.asarray(columns).reshape(-1, r)
    first = (columns != 0).argmax(axis=1)
    lead = columns[np.arange(len(columns)), first]
    add_t, mul_t = field.add_table, field.mul_table
    # each h scaled so that h_i = 1 at its first nonzero coordinate i
    hs = mul_t[field.inv_table[lead][:, None], columns]
    first[lead == 0] = r  # a zero column passes nowhere
    for i in sorted(set(first.tolist()) - {r}):
        h = hs[first == i]
        # [h] has weight 1, and lies on none of its own lines
        compact[offsets[i] + h[:, i + 1 :] @ q ** np.arange(r - 1 - i)] = 1
        for block in _line_positions(add_t, mul_t, h, i, offsets):
            # one column's lines at a time, in column order: every point
            # becomes the smaller of its weight and one more than its
            # line's least
            for at in block:
                on_line = compact[at]
                least = np.minimum.reduce(on_line)
                least += 1
                np.minimum(on_line, least, out=on_line)
                compact[at] = on_line


def class_ids(field: GF, vectors) -> np.ndarray:
    """The class id of every vector of an (..., m) array over GF(q), -1 for
    zero: its representative, scaled so that its first nonzero coordinate j
    is 1, is packed by Horner's rule, and the packed value is q^j plus
    q^(j+1) times its place in box j."""
    vectors = np.asarray(vectors)
    q, m = field.q, vectors.shape[-1]
    first = (vectors != 0).argmax(axis=-1)
    # inv_table[0] = 0, so the zero vector packs to 0
    inv = field.inv_table[np.take_along_axis(vectors, first[..., None], -1)[..., 0]]
    mul_t = field.mul_table
    ids = np.zeros(first.shape, dtype=np.int64)
    for t in range(m - 1, -1, -1):
        ids *= q
        ids += mul_t[inv, vectors[..., t]]
    ids //= (q ** np.arange(1, m + 1))[first]
    ids += np.asarray(_box_offsets(q, m))[first]
    return np.where(inv != 0, ids, -1)


def class_representatives(q: int, m: int, ids) -> np.ndarray:
    """The representative of every class id of GF(q)^m, as an (..., m)
    array: 0 before its first nonzero coordinate j, 1 at j, and its place in
    box j written base q after j, lowest digit first."""
    offsets = np.asarray(_box_offsets(q, m))
    ids = np.asarray(ids, dtype=np.int64)
    j = np.searchsorted(offsets, ids, side="right") - 1
    packed = q**j + (ids - offsets[j]) * q ** (j + 1)
    return packed[..., None] // q ** np.arange(m) % q


def _box_offsets(q: int, r: int) -> list[int]:
    """Where each box of the compact table starts, and its length last: box
    j holds the q^(r-1-j) representatives whose first nonzero coordinate is
    j, packed base q by their coordinates after j."""
    return list(itertools.accumulate((q ** (r - 1 - j) for j in range(r)), initial=0))


def _line_positions(add_t, mul_t, hs, i: int, offsets):
    """Compact positions of the lines through [h] of every column h of the
    (G, r) array hs, each scaled so that h_i = 1 is its first nonzero
    coordinate, as (columns, q, lines) blocks of at most _block() entries,
    one line per column of a (q, lines) array; the lines of one column are
    disjoint, so each block is updated on its own.  A block holds the lines
    of as many whole columns as fit, or a run of the lines of one.  Box j's
    lines are the outer sum of the terms of _box_terms: the last terms make
    a tail that fits a block, and the others head lines, each followed by
    the tail; a run of whole head lines goes into the block as one sum, and
    the runs of every box are packed into the blocks in turn.  A block
    array is new, so it may be kept."""
    q, r = len(add_t), len(offsets) - 1
    lines = (offsets[-1] - 1) // q
    if not lines:
        return
    step = max(1, _block() // (q * lines))
    for start in range(0, len(hs), step):
        h = hs[start : start + step]
        width = max(1, _block() // (len(h) * q))
        fits = 0  # digits of a tail that fits a block
        while q ** (fits + 1) <= width:
            fits += 1
        # box j has q^free lines, in head lines of q^tail; runs of whole
        # head lines are packed into blocks of at most width lines
        blocks, fill = [[]], 0
        for j in range(r):
            if j == i:
                continue
            free = r - 1 - j - (j < i)
            tail = min(free, fits)
            heads, count, done = q ** (free - tail), q**tail, 0
            while done < heads:
                if fill + count > width:
                    blocks.append([])
                    fill = 0
                n = min(heads - done, (width - fill) // count)
                blocks[-1].append((j, tail, done, n))
                fill += n * count
                done += n
        box = None
        for runs in blocks:
            block = []
            for j, tail, done, n in runs:
                if box != j:
                    # a run's positions: its head lines, each followed by
                    # the q^tail lines of the tail; the previous box's head
                    # and tail are dropped before this box's are built
                    head = rest = None
                    terms = _box_terms(add_t, mul_t, h, i, j, offsets)
                    split = len(terms) - tail
                    head = functools.reduce(_append_digit, terms[:split])
                    one = np.zeros((1, 1, 1), dtype=np.intp)  # the empty sum
                    rest = functools.reduce(_append_digit, terms[split:], one)
                    del terms
                    box = j
                block.append(_append_digit(head[:, :, done : done + n], rest))
            yield block[0] if len(block) == 1 else np.concatenate(block, axis=2)


def _box_terms(add_t, mul_t, h, i: int, j: int, offsets) -> list[np.ndarray]:
    """The terms of the positions of the lines of the G columns h that meet
    box j, as (G or 1, rows, digits) arrays: the lead term, (G, q, 1), then
    one of q digits per free coordinate after j, the last first."""
    q, r = len(add_t), h.shape[1]
    digits = np.arange(q)
    if j < i:
        # row t is u + t*h, a representative in box j as it stands
        lead = offsets[j] + digits * q ** (i - j - 1)
        terms = [np.zeros((len(h), 1, 1), dtype=np.intp) + lead[:, None]]
        for k in range(r - 1, j, -1):
            if k < i:
                terms.append((digits * q ** (k - j - 1))[None, None, :])
            elif k > i:
                part = add_t[mul_t[h[:, k, None], digits][:, :, None], digits].astype(np.intp)
                part *= q ** (k - j - 1)
                terms.append(part)
        return terms
    # row 0 is u, and row s != 0 is h + s*u, the representative of u + h/s
    lead = add_t[h[:, j, None], digits].astype(np.intp)
    lead *= q ** (j - i - 1)
    lead += offsets[i]
    if j > i + 1:
        lead += (h[:, i + 1 : j] @ q ** np.arange(j - i - 1))[:, None]
    lead[:, 0] = offsets[j]
    terms = [lead[:, :, None]]
    for k in range(r - 1, j, -1):
        part = add_t[h[:, k, None, None], mul_t].astype(np.intp)
        part *= q ** (k - i - 1)
        part[:, 0] = digits * q ** (k - j - 1)
        terms.append(part)
    return terms


def _append_digit(at, part) -> np.ndarray:
    """at[..., line] + part[..., digit], with (line, digit) flattened into
    one line axis."""
    out = at[..., :, None] + part[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def _block() -> int:
    """Entries in one block of a table build: SCAN_CHUNK/16, so that an intp
    copy of a block stays within 128 KB, glibc's default mmap threshold.
    Freeing a larger temporary raises that threshold, and the heap then keeps
    later temporaries resident.  Blocking the weight table's lines this way
    took the peak RSS of the perfbench oracle workload from 44.4 to 43.2 MB
    (median of nine passes, 2-core Xeon).  A block of line positions holds
    the lines of several small columns at once, so that a small table is
    passed in few gathers."""
    return SCAN_CHUNK // 16


def _block_rows(width: int) -> int:
    """Rows of `width` entries in one block of a table build."""
    return max(1, _block() // width)


@functools.lru_cache(maxsize=None)
def _cached_code(kind: str, q: int, k: int, D, scale) -> Code:
    return Code(kind, field_of_order(q), k, D=D, scale=scale)


def rs(field_or_q, k: int, D=None, scale=None) -> Code:
    """Affine RS(D,k); D defaults to all of GF(q) in canonical order."""
    if isinstance(field_or_q, GF):
        return Code("affine", field_or_q, k, D=D, scale=scale)
    return _cached_code(
        "affine",
        field_or_q,
        k,
        tuple(D) if D is not None else None,
        tuple(scale) if scale is not None else None,
    )


def prs(field_or_q, k: int) -> Code:
    """Projective PRS(q+1,k)."""
    if isinstance(field_or_q, GF):
        return Code("projective", field_or_q, k)
    return _cached_code("projective", field_or_q, k, None, None)
