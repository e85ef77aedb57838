"""Affine RS(D,k) and projective PRS(q+1,k) codes over GF(q).

Words are tuples of field-element encodings.  The projective evaluation order
is the canonical field order (nonzero ascending, zero last), so generator and
parity-check matrices reproduce the classical doubly-extended layout
column-for-column.  Cosets are identified by syndromes; a packed syndrome is
the base-q integer sum(s_i * q^i).

Two independent error-distance algorithms are provided and cross-validated in
the test suite: an exhaustive search over the information sets, and a
coset-leader weight table over the full syndrome space.

The exhaustive oracle reads only the generator matrix G, never H, a
syndrome or the weight table, and searches the C(n,k) information sets, not
the q^k codewords.  It is exact on every RS and PRS code:
  1. the codeword c_S that interpolates w on a k-set S agrees with w there, so
     d(w, C) <= n - k;
  2. so a nearest codeword agrees with w on some k-set S, and is c_S;
  3. so d(w, C) is the least number of mismatches of c_S and w off S.
Step 2 needs every k columns of G independent (the code is MDS); the table
build checks it, and raises AssertionError when a step of the elimination
finds no pivot.  For every S the code keeps S, its complement J and the
k x (n-k) matrix P_S, so that c_S is w_S on S and w_S*P_S on J.  They come
from one batched Gauss-Jordan elimination of the columns (S, J) of G, built
once per code in blocks whose (sets, k, n) arrays hold at most SCAN_CHUNK/16
entries.  P_S takes C(n,k)*k*(n-k) <= n*q^k entries for n <= q+1, never more
than the codeword table that LIMITS.codewords bounds.  A word then costs one
gather of w on every S, k table gathers for w_S*P_S, and one comparison
with w on every J.

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
times the representative h + u/t, in box i.  So each box is updated a block
of lines at a time, by one (q, lines) array of positions, one gather, a
minimum over the line, and one scatter; each entry is written once per
column, and [h] itself takes weight at most 1.  At the end the table over
all q^r packed syndromes is filled by full[c*s] = compact[s]: for each box j
and scalar c, the syndromes whose first nonzero coordinate j equals c are a
strided slice of it, gathered from box j by two index vectors, one for each
half of the coordinates after j.

The tables are bounded by one Limits value, the context variable LIMITS:
the weight table and every span of syndromes need q^r <= LIMITS.syndromes,
and the exhaustive oracle and the codeword table q^k <= LIMITS.codewords.
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

from deephole import linalg
from deephole.errors import BoundExceededError
from deephole.gf import GF, field_of_order
from deephole.poly import Poly, evaluate

# entries in one block of a batched table build: the arrays of one block of
# information sets, or of one block of the families' spans, a few hundred KB,
# so they stay in L2
SCAN_CHUNK = 1 << 18


class Limits(NamedTuple):
    """The largest tables built: q^k codewords listed or searched by the
    exhaustive oracle, and q^r syndromes in a weight table or a span."""

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

    # -- encoding and words ---------------------------------------------------

    def encode(self, f: Poly) -> tuple[int, ...]:
        """The codeword of a message polynomial of degree < k, by scalar
        evaluation: the reference that the rows of codewords() are checked
        against."""
        if f.degree > self.k - 1:
            raise ValueError(f"deg f = {f.degree} exceeds k-1 = {self.k - 1}")
        if self.kind == "projective":
            ck1 = f.coeffs[self.k - 1] if len(f.coeffs) >= self.k else 0
            return tuple(f(x) for x in self.D) + (ck1,)
        fld = self.field
        return tuple(fld.mul(v, f(x)) for x, v in zip(self.D, self.scale))

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

    def rational_words(self, nums, dens, last: int = 0) -> np.ndarray:
        """The words (num_i/den_i evaluated on D, last) as an (N, n) array,
        for N numerator and denominator coefficient rows (low degree first):
        one poly.evaluate call over D for all 2N rows, then a gather through
        the field's inverse table."""
        if self.kind != "projective":
            raise ValueError("rational-function words are projective")
        fld = self.field
        if not 0 <= last < fld.q:
            raise ValueError(f"extension coordinate {last} out of range")
        nums, dens = list(nums), list(dens)
        if len(nums) != len(dens):
            raise ValueError(f"{len(nums)} numerators for {len(dens)} denominators")
        width = max(map(len, nums + dens), default=1)
        rows = np.zeros((2 * len(nums), width), dtype=np.intp)
        for row, coeffs in zip(rows, nums + dens):
            row[: len(coeffs)] = coeffs
        num, den = np.split(evaluate(fld, rows, self.D), 2)
        # D is the whole field, so a zero of the denominator on D is a pole
        if (den == 0).any():
            raise ValueError("denominator has a root in the field")
        words = np.full((len(nums), self.n), last, dtype=num.dtype)
        words[:, :-1] = fld.mul_table[num, fld.inv_table[den]]
        return words

    # -- syndromes and cosets ---------------------------------------------------

    def syndrome(self, word) -> tuple[int, ...]:
        return tuple(self.syndromes(word).tolist())

    def syndromes(self, words) -> np.ndarray:
        """The syndromes H*w of an (..., n) array of words as an (..., r)
        array, accumulated one column of H at a time by table gathers."""
        fld = self.field
        words = np.asarray(words)
        if words.shape[-1:] != (self.n,):
            raise ValueError(f"words of shape {words.shape} are not of length {self.n}")
        # a gather would wrap a negative symbol silently
        if words.size and not (0 <= words.min() and words.max() < fld.q):
            raise ValueError(f"word has a symbol outside {fld!r}")
        add_t, mul_t = fld.add_table, fld.mul_table
        out = np.zeros(words.shape[:-1] + (self.redundancy,), dtype=add_t.dtype)
        for j, col in enumerate(self._h.T):
            out = add_t[out, mul_t[col, words[..., j, None]]]
        return out

    def pack_syndrome(self, s) -> int:
        q = self.field.q
        return sum(si * q**i for i, si in enumerate(s))

    def unpack_syndrome(self, idx: int) -> tuple[int, ...]:
        q = self.field.q
        return tuple((idx // q**i) % q for i in range(self.redundancy))

    def coset_id(self, word) -> int:
        return self.pack_syndrome(self.syndrome(word))

    def span_ids(self, syndromes) -> np.ndarray:
        """Packed coset id of every combination sum c_j*s_j of the given
        syndromes, indexed by (c_0, c_1, ...) packed base q with c_0 the least
        significant digit; no syndromes span only the zero coset.  An
        (..., m, r) array of syndromes gives (..., q^m) ids, one span per
        leading index."""
        fld = self.field
        r = self.redundancy
        self._check_syndromes()  # also keeps the packed ids within int64
        combos = _combinations(fld, syndromes, r)
        # packed by Horner's rule, with no int64 copy of the whole array
        ids = np.zeros(combos.shape[:-1], dtype=np.int64)
        for i in range(r - 1, -1, -1):
            ids *= fld.q
            ids += combos[..., i]
        return ids

    def syndrome_mask(self, id_arrays) -> np.ndarray:
        """Boolean mask over the q^r packed syndromes, true on every id of the
        given id arrays: their union, one scatter per array."""
        self._check_syndromes()
        mask = np.zeros(self.field.q**self.redundancy, dtype=bool)
        for ids in id_arrays:
            mask[ids] = True
        return mask

    def projective_ids(self, ids) -> np.ndarray:
        """The packed ids of the syndromes of the given packed ids, each scaled
        so that its first nonzero coordinate is 1; the zero id stays 0."""
        fld = self.field
        q = fld.q
        powers = q ** np.arange(self.redundancy)
        digits = np.asarray(ids)[..., None] // powers % q
        lead = np.take_along_axis(digits, (digits != 0).argmax(axis=-1)[..., None], -1)
        return fld.mul_table[fld.inv_table[lead], digits] @ powers

    def normalize_syndrome(self, s) -> tuple[int, ...]:
        """Scale so the first nonzero coordinate is 1 (projective coset id):
        the scalar reference for projective_ids."""
        f = self.field
        c = next((si for si in s if si != 0), None)
        if c is None:
            return tuple(s)
        inv = f.inv(c)
        return tuple(f.mul(inv, si) for si in s)

    # -- coset-leader weights -----------------------------------------------------

    def _check_syndromes(self):
        q, r, bound = self.field.q, self.redundancy, LIMITS.get().syndromes
        if q**r > bound:
            raise BoundExceededError(f"syndrome space {q}^{r} exceeds bound {bound}")

    def coset_leader_weights(self) -> np.ndarray:
        """int8 array over packed syndromes: minimum number of parity-check
        columns whose span contains the syndrome (= coset leader weight)."""
        if self._weights is not None:
            return self._weights
        self._check_syndromes()
        weights = _leader_weights(self.field, self._h.T)
        if weights.max() > self.redundancy:
            raise AssertionError("parity-check columns do not span the syndromes")
        self._weights = weights
        return weights

    def covering_radius(self) -> int:
        return int(self.coset_leader_weights().max())

    # -- exhaustive codeword enumeration ---------------------------------------

    def _check_codewords(self):
        big, bound = self.field.q**self.k, LIMITS.get().codewords
        if big > bound:
            raise BoundExceededError(f"q^k = {big} exceeds bound {bound}")

    def codewords(self) -> np.ndarray:
        """All q^k codewords as an (N, n) array, row i encoding the message
        with coefficient digits of i (base q, low degree first); built on
        each call and kept by nobody.  minimum_distance("exhaustive") scans
        it, and the tests check the information-set tables of the exhaustive
        oracle against it."""
        self._check_codewords()
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
        q = fld.q
        self._check_codewords()
        if any(not 0 <= x < q for x in word):
            raise ValueError(f"word has a symbol outside {fld!r}")
        tab = self._info_sets
        # flat tables: a product or a sum of a and b is one gather at a*q + b
        add_t, mul_t = fld.add_table.ravel(), fld.mul_table.ravel()
        w = np.asarray(word, dtype=np.intp)
        info = w[tab.subsets] * q
        fit = mul_t[info[:, 0, None] + tab.parity[0]]
        for i in range(1, self.k):
            at = np.multiply(fit, q, dtype=np.intp)
            at += mul_t[info[:, i, None] + tab.parity[i]]
            fit = add_t[at]
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
            return int(self.coset_leader_weights()[self.coset_id(word)])
        if method == "exhaustive":
            return self._info_set_distance(word)
        raise ValueError(f"unknown method {method!r}")

    def minimum_distance(self, method: str = "dual") -> int:
        """Exact minimum distance; "dual" searches for the smallest linearly
        dependent set of parity-check columns, "exhaustive" scans codewords.
        With is_mds, it checks the MDS premise of the acceptance criteria."""
        if method == "dual":
            fld, cols, r = self.field, self.h_columns(), self.redundancy

            def dependent(w):
                subsets = itertools.combinations(cols, w)
                return any(linalg.rank(fld, sub) < w for sub in subsets)

            # when no r columns are dependent, no fewer are, and any r + 1 are
            if not dependent(r):
                return r + 1
            return next(w for w in range(1, r + 1) if dependent(w))
        if method == "exhaustive":
            cw = self.codewords()
            return int((cw[1:] != 0).sum(axis=1).min())
        raise ValueError(f"unknown method {method!r}")

    def is_mds(self) -> bool:
        """Whether the minimum distance is n - k + 1 (acceptance criterion)."""
        return self.minimum_distance() == self.n - self.k + 1


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


def _leader_weights(field: GF, columns) -> np.ndarray:
    """int8 table over the packed syndromes of length r: the least number of
    the given columns, an (m, r) array, whose span holds each syndrome, and
    r + 1 where none does.  Built on one entry per scalar class, then
    expanded (see the module docstring)."""
    q = field.q
    columns = np.asarray(columns, dtype=np.intp)
    r = columns.shape[1]
    add_t, mul_t = field.add_table, field.mul_table
    # box j holds the q^(r-1-j) representatives whose first nonzero coordinate
    # is j, packed base q by their coordinates after j
    offsets = np.cumsum([0] + [q ** (r - 1 - j) for j in range(r)]).tolist()
    compact = np.full(offsets[-1], r + 1, dtype=np.int8)
    for h in columns:
        nonzero = np.flatnonzero(h)
        if not len(nonzero):
            continue
        i = int(nonzero[0])
        h = mul_t[field.inv(int(h[i])), h].astype(np.intp)  # scaled so that h_i = 1
        for j in range(r):
            if j == i:
                continue
            # every point other than [h] lies on one line through [h]: its
            # weight becomes the smaller of its own and one more than the
            # line's least
            for at in _line_positions(add_t, mul_t, h, i, j, offsets):
                on_line = compact[at]
                least = on_line.min(axis=0)
                least += 1
                np.minimum(on_line, least, out=on_line)
                compact[at] = on_line
        home = offsets[i] + int(h[i + 1 :] @ q ** np.arange(r - 1 - i))
        compact[home] = min(compact[home], 1)
    return _expand(mul_t, field, compact, offsets)


def _line_positions(add_t, mul_t, h, i: int, j: int, offsets):
    """Compact positions of the points of the lines through [h] (h_i = 1 its
    first nonzero coordinate) that meet box j at a representative u with
    u_i = 0, as (q, L) arrays with one line per column, in blocks of lines;
    the lines are disjoint, so each block is updated on its own.  For j < i
    row t is u + t*h, a representative as it stands; for j > i row 0 is u
    and row s != 0 is h + s*u, the representative of u + h/s.  Either way
    each coordinate after j adds one (rows, digits) term, broadcast onto the
    lines so far: the last terms make the lines of one block, and the first
    ones are taken a block at a time.  The field tables are uint16, so every
    term is widened before it is scaled."""
    q, r = len(add_t), len(h)
    digits = np.arange(q)
    if j < i:
        terms = [np.full((1, 1), offsets[j])]
        for k in range(r - 1, j, -1):
            if k == i:
                part = digits[:, None]
            elif k < i:
                part = digits[None, :]
            else:
                part = add_t[mul_t[:, h[k], None], digits].astype(np.intp)
            terms.append(part * q ** (k - j - 1))
    else:
        lead = add_t[h[j], digits].astype(np.intp) * q ** (j - i - 1)
        lead += offsets[i] + int(h[i + 1 : j] @ q ** np.arange(j - i - 1))
        lead[0] = offsets[j]
        terms = [lead[:, None]]
        for k in range(r - 1, j, -1):
            part = add_t[h[k], mul_t].astype(np.intp) * q ** (k - i - 1)
            part[0] = digits * q ** (k - j - 1)
            terms.append(part)
    # the tail takes the last terms while a (q, lines) block of them fits
    split = len(terms)
    while split > 1 and q * math.prod(t.shape[1] for t in terms[split - 1 :]) <= _block():
        split -= 1
    head = functools.reduce(_append_digit, terms[:split])
    tail = functools.reduce(_append_digit, terms[split:], np.zeros((1, 1), dtype=np.intp))
    step = _block_rows(q * tail.shape[1])
    for start in range(0, head.shape[1], step):
        yield _append_digit(head[:, start : start + step], tail)


def _append_digit(at, part) -> np.ndarray:
    """at[row, line] + part[row, digit], with (line, digit) flattened into
    one line axis."""
    out = at[:, :, None] + part[:, None, :]
    return out.reshape(len(out), -1)


def _expand(mul_t, field: GF, compact, offsets) -> np.ndarray:
    """The full table over packed syndromes from the compact one: full[c*s]
    = compact[s] for every representative s and scalar c != 0, full[0] = 0.
    The syndromes with first nonzero coordinate j equal to c are a strided
    slice of the full table; each is filled from box j, a block of rows at
    a time, by two gathers, one over the high and one over the low half of
    the coordinates after j, each scaled by 1/c."""
    q = field.q
    r = len(offsets) - 1
    full = np.empty(q**r, dtype=compact.dtype)
    full[0] = 0
    for j in range(r):
        lo_digits = (r - 1 - j) // 2
        hi_digits = r - 1 - j - lo_digits
        box = compact[offsets[j] : offsets[j + 1]].reshape(q**hi_digits, q**lo_digits)
        view = full.reshape(q**hi_digits, q**lo_digits, q, q**j)
        for c in range(1, q):
            scale = mul_t[field.inv(c)]
            hi = _packed(q, [scale] * hi_digits)
            lo = _packed(q, [scale] * lo_digits)
            step = _block_rows(len(lo))
            for start in range(0, len(hi), step):
                rows = slice(start, start + step)
                view[rows, :, c, 0] = box[hi[rows]][:, lo]
    return full


def _block() -> int:
    """Entries in one block of a table build: SCAN_CHUNK/16, so that an intp
    copy of a block stays within 128 KB, glibc's default mmap threshold.
    Freeing a larger temporary raises that threshold, and the heap then keeps
    later temporaries resident.  Blocking the weight table's lines and
    expansion this way took the peak RSS of the perfbench oracle workload
    from 44.4 to 43.2 MB (median of nine passes, 2-core Xeon)."""
    return SCAN_CHUNK // 16


def _block_rows(width: int) -> int:
    """Rows of `width` entries in one block of a table build."""
    return max(1, _block() // width)


def _packed(q: int, rows) -> np.ndarray:
    """Packed base-q index of every digit tuple, most significant digit
    first, with digit j mapped through rows[j]."""
    out = np.zeros(1, dtype=np.intp)
    for row in rows:
        out = (out[:, None] * q + row).reshape(-1)
    return out


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
