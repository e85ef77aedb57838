"""Affine RS(D,k) and projective PRS(q+1,k) codes over GF(q).

Words are tuples of field-element encodings.  The projective evaluation order
is the canonical field order (nonzero ascending, zero last), so generator and
parity-check matrices reproduce the classical doubly-extended layout
column-for-column.  Cosets are identified by syndromes; a packed syndrome is
the base-q integer sum(s_i * q^i).

Two independent error-distance algorithms are provided and cross-validated in
the test suite: an exhaustive scan over all codewords, and a coset-leader
weight table over the full syndrome space.  The scan reads only the generator
matrix and never holds the q^k-row codeword table.  It writes each codeword as
a + b, with a spanned by the first k-t generator rows and b by the last t,
t the least value for which the q^(k-t) words a fit in SCAN_CHUNK symbols, so
d(w, a+b) = #{i : a_i != (w-b)_i}.  The words a are stored column-major, the
targets w-b are made for a block of high messages at a time, and mismatches
are counted one column at a time into buffers of SCAN_CHUNK entries; the
distance is the minimum count over every block, with no early exit.  The
weight table is built one
parity-check column h at a time: a syndrome's weight becomes the smaller of
its weight so far and one more than the least weight so far on its line
{s + t*h : t in GF(q)}.  Every line meets the slice where a pivot coordinate
of h is zero exactly once, so the line minima are gathered onto that slice
and then gathered back, about 2*q^r table reads per column.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from deephole import linalg
from deephole.errors import BoundExceededError
from deephole.gf import GF, field_of_order
from deephole.poly import Poly, RationalFunction

MAX_EXHAUSTIVE_CODEWORDS = 10**7
MAX_SYNDROME_SPACE = 10**7
MAX_SPAN_REDUNDANCY = 6
# entries in one block of the exhaustive scan; the low codeword table and each
# per-block buffer hold at most this many, a few hundred KB, so they stay in L2
SCAN_CHUNK = 1 << 18


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
            if len(self.scale) != len(self.D) or any(v == 0 for v in self.scale):
                raise ValueError("scale vector must be nonzero of length n")
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

    def describe(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "k": self.k, "field": self.field.describe()}
        if self.kind == "affine":
            out["D"] = list(self.D)
            out["scale"] = list(self.scale)
        return out

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
        return [list(row) for row in self._h]

    @functools.cached_property
    def _h(self) -> tuple[tuple[int, ...], ...]:
        """The parity-check matrix as row tuples, built once per code."""
        f = self.field
        r = self.redundancy
        if self.kind == "projective":
            return tuple(
                tuple(f.pow(x, t) for x in self.D) + (1 if t == r - 1 else 0,)
                for t in range(r)
            )
        # dual of a generalized RS code is generalized RS with the classical
        # column multipliers u_i = (v_i * prod_{j != i} (x_i - x_j))^(-1)
        us = []
        for i, xi in enumerate(self.D):
            prod = 1
            for j, xj in enumerate(self.D):
                if j != i:
                    prod = f.mul(prod, f.sub(xi, xj))
            us.append(f.inv(f.mul(self.scale[i], prod)))
        return tuple(
            tuple(f.mul(u, f.pow(x, t)) for x, u in zip(self.D, us)) for t in range(r)
        )

    def h_columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self._h))

    # -- encoding and words ---------------------------------------------------

    def encode(self, f: Poly) -> tuple[int, ...]:
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

    def word_from_rational(self, r: RationalFunction, last: int = 0) -> tuple[int, ...]:
        if self.kind != "projective":
            raise ValueError("rational-function words are projective")
        if r.has_pole():
            raise ValueError("denominator has a root in the field")
        return tuple(r(x) for x in self.D) + (last,)

    # -- syndromes and cosets ---------------------------------------------------

    def syndrome(self, word) -> tuple[int, ...]:
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        f = self.field
        out = []
        for row in self._h:
            acc = 0
            for h, w in zip(row, word):
                acc = f.add(acc, f.mul(h, w))
            out.append(acc)
        return tuple(out)

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
        significant digit; no syndromes span only the zero coset."""
        fld = self.field
        r = self.redundancy
        if fld.q**r > MAX_SYNDROME_SPACE:  # also keeps the packed ids within int64
            raise BoundExceededError(
                f"syndrome space {fld.q}^{r} exceeds bound {MAX_SYNDROME_SPACE}"
            )
        return _combinations(fld, syndromes, r) @ fld.q ** np.arange(r)

    def normalize_syndrome(self, s) -> tuple[int, ...]:
        """Scale so the first nonzero coordinate is 1 (projective coset id)."""
        f = self.field
        c = next((si for si in s if si != 0), None)
        if c is None:
            return tuple(s)
        inv = f.inv(c)
        return tuple(f.mul(inv, si) for si in s)

    def word_from_syndrome(self, s) -> tuple[int, ...]:
        """A representative word with the given syndrome, supported on the
        first `redundancy` coordinates."""
        r = self.redundancy
        cols = self.h_columns()[:r]
        a = [[cols[j][t] for j in range(r)] for t in range(r)]
        y = linalg.solve(self.field, a, list(s))
        return tuple(y) + (0,) * (self.n - r)

    # -- coset-leader weights -----------------------------------------------------

    def coset_leader_weights(self, max_syndromes: int | None = None) -> np.ndarray:
        """int8 array over packed syndromes: minimum number of parity-check
        columns whose span contains the syndrome (= coset leader weight)."""
        if self._weights is not None:
            return self._weights
        if max_syndromes is None:
            max_syndromes = MAX_SYNDROME_SPACE
        fld = self.field
        q, r = fld.q, self.redundancy
        if q**r > max_syndromes:
            raise BoundExceededError(
                f"syndrome space {q}^{r} exceeds bound {max_syndromes}"
            )
        add_t, mul_t = fld.add_table, fld.mul_table
        unreached = r + 1
        weights = np.full(q**r, unreached, dtype=np.int8)
        weights[0] = 0
        for h in self.h_columns():
            # pivot on a nonzero coordinate near the middle, so that the
            # coordinates above and below it pack into short index vectors
            i = min((j for j, hj in enumerate(h) if hj), key=lambda j: abs(2 * j - r + 1))
            view = weights.reshape(q ** (r - 1 - i), q, q**i)

            def moved(c):
                """Packed indices of the coordinates above and below the pivot,
                each translated by its entry of c*h."""
                rows = [add_t[mul_t[c, hj]] for hj in reversed(h)]
                return _packed(q, rows[: r - 1 - i]), _packed(q, rows[r - i :])

            # every line {s + t*h} meets the slice s_i = 0 once; take its
            # minimum there
            line_min = view[:, 0, :].copy()
            for t in range(1, q):
                above, below = moved(t)
                np.minimum(line_min, view[above, mul_t[t, h[i]]][:, below], out=line_min)
            line_min += 1
            inv = fld.inv(h[i])
            for a in range(q):
                # slice s_i = a reaches slice 0 by adding -(a/h_i)*h
                above, below = moved(fld.neg(fld.mul(a, inv)))
                target = view[:, a, :]
                np.minimum(target, line_min[above][:, below], out=target)
        if (weights == unreached).any():
            raise AssertionError("parity-check columns do not span the syndromes")
        self._weights = weights
        return weights

    def covering_radius(self, max_syndromes: int | None = None) -> int:
        return int(self.coset_leader_weights(max_syndromes=max_syndromes).max())

    # -- exhaustive codeword enumeration ---------------------------------------

    def codewords(self, max_codewords: int | None = None) -> np.ndarray:
        """All q^k codewords as an (N, n) array, row i encoding the message
        with coefficient digits of i (base q, low degree first); built on
        each call and kept by nobody, the exhaustive distance included."""
        if max_codewords is None:
            max_codewords = MAX_EXHAUSTIVE_CODEWORDS
        big = self.field.q**self.k
        if big > max_codewords:
            raise BoundExceededError(f"q^k = {big} exceeds bound {max_codewords}")
        return _combinations(self.field, self.generator_matrix(), self.n)

    def _scan_distance(self, word, max_codewords: int) -> int:
        """min over all codewords a + b of #{i : a_i != (w - b)_i}, where a
        spans the first k-t generator rows and b the last t."""
        fld = self.field
        q, n, k = fld.q, self.n, self.k
        if q**k > max_codewords:
            raise BoundExceededError(f"q^k = {q**k} exceeds bound {max_codewords}")
        if any(not 0 <= x < q for x in word):
            raise ValueError(f"word has a symbol outside {fld!r}")
        t = next(t for t in range(k + 1) if q ** (k - t) * n <= SCAN_CHUNK)
        g = self.generator_matrix()
        low = np.ascontiguousarray(_combinations(fld, g[: k - t], n).T)
        # w - b runs over w + b as b runs over the span of the last t rows
        high = _combinations(fld, g[k - t :], n)
        add_t = fld.add_table.astype(low.dtype, copy=False)
        w = np.asarray(word, dtype=low.dtype)
        rows = SCAN_CHUNK // low.shape[1]
        buf = np.empty((rows, low.shape[1]), dtype=bool)
        counts = np.empty(buf.shape, dtype=np.min_scalar_type(n))
        best = n
        for start in range(0, len(high), rows):
            targets = add_t[high[start : start + rows], w]
            m = len(targets)
            counts[:m] = 0
            for i in range(n):
                np.not_equal(low[i][None, :], targets[:, i][:, None], out=buf[:m])
                counts[:m] += buf[:m]
            best = min(best, int(counts[:m].min()))
        return best

    # -- distances -------------------------------------------------------------

    def error_distance(
        self,
        word,
        method: str = "auto",
        max_codewords: int | None = None,
        max_span_redundancy: int | None = None,
    ) -> int:
        """Exact minimum Hamming distance from the word to the code."""
        if max_codewords is None:
            max_codewords = MAX_EXHAUSTIVE_CODEWORDS
        if max_span_redundancy is None:
            max_span_redundancy = MAX_SPAN_REDUNDANCY
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        if method == "auto":
            method = (
                "syndrome_span"
                if self.redundancy <= max_span_redundancy
                and self.field.q**self.redundancy <= MAX_SYNDROME_SPACE
                else "exhaustive"
            )
        if method == "syndrome_span":
            if self.redundancy > max_span_redundancy:
                raise BoundExceededError(
                    f"redundancy {self.redundancy} exceeds bound {max_span_redundancy}"
                )
            weights = self.coset_leader_weights()
            return int(weights[self.coset_id(word)])
        if method == "exhaustive":
            return self._scan_distance(word, max_codewords)
        raise ValueError(f"unknown method {method!r}")

    def minimum_distance(
        self, method: str = "auto", max_codewords: int | None = None
    ) -> int:
        """Exact minimum distance; "dual" searches for the smallest linearly
        dependent set of parity-check columns, "exhaustive" scans codewords."""
        if max_codewords is None:
            max_codewords = MAX_EXHAUSTIVE_CODEWORDS
        if method == "auto":
            method = "dual" if self.redundancy <= MAX_SPAN_REDUNDANCY else "exhaustive"
        if method == "dual":
            cols = self.h_columns()
            for w in range(1, self.redundancy + 1):
                for sub in itertools.combinations(cols, w):
                    if linalg.rank(self.field, sub) < w:
                        return w
            return self.redundancy + 1
        if method == "exhaustive":
            cw = self.codewords(max_codewords=max_codewords)
            return int((cw[1:] != 0).sum(axis=1).min())
        raise ValueError(f"unknown method {method!r}")

    def is_mds(self) -> bool:
        return self.minimum_distance() == self.n - self.k + 1


def _combinations(field: GF, rows, width: int) -> np.ndarray:
    """Every combination sum c_j*rows_j as a (q^len(rows), width) array,
    indexed by (c_0, c_1, ...) packed base q with c_0 the least significant
    digit; uint8 for q <= 256, else uint16."""
    dt = np.uint8 if field.q <= 256 else np.uint16
    add_t = field.add_table.astype(dt, copy=False)
    mul_t = field.mul_table.astype(dt, copy=False)
    combos = np.zeros((1, width), dtype=dt)  # one row per combination so far
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row length {len(row)} != {width}")
        multiples = mul_t[:, list(row)]  # row c holds c*row
        combos = add_t[multiples[:, None], combos].reshape(-1, width)
    return combos


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
