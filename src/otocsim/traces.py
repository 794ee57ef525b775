"""Full-rank runs on rho = I/2^N, evaluated in the eigenbasis of H.

A run on the maximally mixed state rho = I/D, D = 2^N, which commutes
with H, is prepared in the eigenbasis of H, not as a state factor
(`prepare_maximally_mixed`: W_E = V^dagger sigma_i V and
V_E = V^dagger sigma_j V, formed once as sector blocks, and no state
factor).  There every Gram entry is a trace, and cyclicity with
W(t)^2 = V^2 = I leaves three of them, a = Tr[A]/D, C = Tr[A^2]/D and
E = Tr[A^3]/D for A = W(t) V:

    P = [[1, 0, a, 0],      Q = [[0, a, 0, C],
         [0, 1, 0, a],           [a, 0, C, 0],
         [a, 0, 1, 0],           [0, C, 0, E],
         [0, a, 0, 1]]           [C, 0, E, 0]]

On this `PreparedTrace`, `protocol.build_ladder(prepared, t)` takes
them from the phased W_E and V_E blocks (`PreparedTrace.ladder`) and
returns the same `Ladder`, so both protocols read it unchanged.

The whole XY chain declares the global spin flip X^N, which maps weight
w onto N - w; its propagator diagonalizes w <= N/2 only and gives sector
N - w the eigenvectors of w.  In that eigenbasis X^N is the identity
between mirrored sectors, and X^N sigma^a X^N = s_a sigma^a with s = +1
for x and -1 for y and z.  So a block of W_E, V_E or B = V_E W(t)_E
between mirrored sectors is s_a, s_b or s_a s_b times its mirror's,
and only one of each pair is formed; the middle sector of an even N
maps onto itself in another basis, so the blocks that touch it are all
formed.  Tr[B^p] sums closed walks of sectors, and a walk and its
mirror give terms that differ by (s_a s_b)^p, so each orbit is
evaluated once and counted twice with that sign, or once if it is its
own mirror (`_trace_plan`): a point does about half the block products.

Only a run that prepares I/2^N loads this module.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Propagator
from .hilbert import Record
from .otoc import OtocSpec, checked_otoc
from .protocol import Ladder, ladder_from_upper

SectorKey = tuple[int, int]  # (row sector, column sector)
SectorBlocks = dict[SectorKey, np.ndarray]

# the sign s with X^N sigma^axis X^N = s sigma^axis, for the global spin flip X^N
FLIP_SIGNS = {"x": 1, "y": -1, "z": -1}


class PreparedTrace(Record, eq=False):
    """What every evaluator of a run on rho = I/2^N shares, held in the eigenbasis of H.

    rho commutes with H, so the run needs no state factor: `w_blocks` and
    `v_blocks` are W_E = V^dagger sigma_i^a V and V_E = V^dagger sigma_j^b V,
    V the eigenvectors of `propagator`, as the nonzero blocks keyed by
    (row sector, column sector) that `_eigenbasis_blocks` forms.  `products`
    and `walks` are every point's plan (`_trace_plan`): each product
    (w key, v key, b key, sign) adds sign V_E[v key] W(t)_E[w key] to block
    b key of B = V_E W(t)_E, and each walk (weight, b keys) adds
    weight tr(B[key 1] ... B[key p]) to Tr[B^p].  Every `build_ladder` on
    it reads them.  Build it with `prepare_maximally_mixed`.
    """

    __slots__ = ("propagator", "spec", "w_blocks", "v_blocks", "products", "walks")

    def __init__(
        self, propagator: Propagator, spec: OtocSpec, w_blocks: SectorBlocks,
        v_blocks: SectorBlocks, products: tuple, walks: tuple,
    ):
        self._set(propagator, spec, w_blocks, v_blocks, products, walks)

    def ladder(self, t: float) -> Ladder:
        """The ladder of time point t on rho = I/D, D = 2^N, from three traces in the eigenbasis.

        With U = U(t), W(t) = U^dagger sigma_i U and V = sigma_j, the vectors
        K of `protocol.build_ladder` are K_b = U O_b Psi for O = (I, V, V W(t), V W(t) V),
        and Psi Psi^dagger = I/D, so P_ab = Tr[O_a^dagger O_b]/D and
        Q_ab = Tr[O_a^dagger W(t) O_b]/D.  As W(t)^2 = V^2 = I and each Pauli is
        traceless, cyclicity leaves every entry 0, 1 or one of a = Tr[A]/D,
        C = Tr[A^2]/D and E = Tr[A^3]/D, with A = W(t) V, as the module
        docstring tabulates.  The direct C(t) is C.  Each trace is real,
        Tr[A^k]* = Tr[(V W(t))^k] = Tr[A^k], so only its real part is kept.
        They are taken over the run's sector blocks:
        W(t)_E = Phi^dagger W_E Phi with Phi = diag(e^(-iwt)), and
        B = V_E W(t)_E, whose powers have the traces of A's.  A sector and its
        mirror share their phases, so W(t)_E keeps W_E's relation between
        mirrored blocks.  The point forms the blocks of B in the run's plan
        (`_trace_plan`), one product per term, and sums each counted walk's
        trace with its weight: one product per block of the walk but the
        last, whose trace is an elementwise sum.  Under the spin flip that is
        about half the products of the whole B, and where s_a s_b = -1, as
        Tr[W(t) V] = s_a s_b Tr[W(t) V], Tr[B] and Tr[B^3] are exactly 0 and
        no walk of theirs is counted.  No 2^N-wide array is formed.  Like the
        Schroedinger chain, a t that makes a phase non-finite raises
        EvolutionTimeError, and |C| above 1 beyond ATOL_SPECTRUM ValueError.
        """
        b = _b_blocks(self, self.propagator.evolution(t).phases)
        traces = np.zeros(3, dtype=complex)  # Tr[B], Tr[B^2], Tr[B^3]
        for weight, steps in self.walks:
            head = b[steps[0]]
            for key in steps[1:-1]:
                head = head @ b[key]
            last = np.trace(head) if len(steps) == 1 else _trace_of_product(head, b[steps[-1]])
            traces[len(steps) - 1] += weight * last
        a, c, e = traces.real / len(self.propagator.register.order)
        upper = np.zeros((2, 4, 4), dtype=complex)
        p, q = upper
        p[0, 0] = p[1, 1] = p[2, 2] = p[3, 3] = 1.0
        p[0, 2] = p[1, 3] = q[0, 1] = a
        q[0, 3] = q[1, 2] = c
        q[2, 3] = e
        return ladder_from_upper(upper, checked_otoc(c))


def _flip_of(propagator: Propagator) -> tuple[int, ...]:
    """The sector each sector is mirrored onto: the declared flip, or each one itself."""
    return propagator.flip or tuple(range(len(propagator.register.sizes)))


def _mirror(flip: tuple[int, ...], sectors: tuple[int, ...]) -> tuple[int, ...]:
    """The sectors X^N sends these onto."""
    return tuple(flip[k] for k in sectors)


def _is_formed(flip: tuple[int, ...], key: SectorKey) -> bool:
    """Whether the block at key is formed, rather than read off its mirror's.

    In the eigenbasis X^N is the identity from a sector onto its mirror,
    whose V is the same, but on a sector it maps onto itself (the middle
    weight N/2) it is Q = V_k^dagger J V_k, J the row reversal, which is
    not.  So an operator
    O with X^N O X^N = s O has O[mirror key] = s O[key] exactly where
    neither sector is such a sector: of those pairs of keys only the
    lesser is formed, and every key that touches such a sector is.
    """
    return any(flip[k] == k for k in key) or key < _mirror(flip, key)


def _eigenbasis_blocks(propagator: Propagator, site: int, axis: str) -> SectorBlocks:
    """V^dagger sigma_site^axis V as the nonzero sector blocks that `_is_formed` keeps.

    The pattern is read off the register: block (k, l) exists where a row
    of sector k has its entry in a column of sector l.  On the XY chain's
    Hamming-weight sectors x and y move a sector by +/-1 and z by 0.  A
    block is real where V and the Pauli's entries are (x and z on the XY
    chain), complex otherwise.  Where the propagator declares the spin
    flip, X^N sigma X^N = s sigma (`FLIP_SIGNS`), so a block that is not
    formed is s times its mirror's.
    """
    register = propagator.register
    columns, values = register.pauli_entries(site, axis)
    bounds, vectors = register.bounds, propagator.eigenvectors
    flip = _flip_of(propagator)
    sector_of = register.row_sectors()
    blocks = {}
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        targets = sector_of[columns[lo:hi]]
        # the sectors hit, ascending, without np.unique (which imports numpy.ma)
        for l in np.flatnonzero(np.bincount(targets, minlength=len(register.sizes))).tolist():
            if not _is_formed(flip, (k, l)):
                continue
            rows = lo + np.flatnonzero(targets == l)
            hit = values[rows, None] * vectors[l][columns[rows] - bounds[l]]
            block = vectors[k][rows - lo].conj().T @ hit
            block.flags.writeable = False  # shared by every time point of the run
            blocks[k, l] = block
    return blocks


def _least_rotation(walk: tuple[int, ...]) -> tuple[int, ...]:
    """The least of a closed walk's cyclic rotations, which names its rotation class."""
    return min(walk[r:] + walk[:r] for r in range(len(walk)))


def _trace_plan(propagator: Propagator, spec: OtocSpec, w_keys, v_keys):
    """(products, walks) of `PreparedTrace`: which blocks of B a point forms, and how its
    traces sum them.

    Every block of V_E and W_E is a formed one times 1, or its mirror's
    times the axis sign (`_is_formed`), and B = V_E W(t)_E relates its
    blocks the same way, with sign = s_a s_b.  Tr[B^p] sums
    tr(B_(k1 k2) ... B_(kp k1)) over the closed walks of p sectors that
    B's pattern allows.  A walk's cyclic rotations give the same term, and
    the mirrored walk gives sign^p times it, as X^N B X^N = sign B and
    X^N squares to the identity.  So each orbit of walks under rotation
    and mirror is evaluated once, at its least walk, counted once per
    distinct rotation and, unless the walk is its own mirror,
    (1 + sign^p) times: twice, or not at all.  A walk that is its own
    mirror equals sign^p times itself, so it counts once where that is 1
    and is 0 otherwise.  A walk's blocks of B are formed ones, or their
    mirrors times sign, which its weight carries; only the formed blocks
    that some counted walk reads are in `products`.  Without a declared
    flip every sector is its own mirror and every sign 1, so every block
    is formed and every walk summed once per rotation.
    """
    flip = _flip_of(propagator)
    sign_w, sign_v = (FLIP_SIGNS[a] if propagator.flip else 1 for a in (spec.axis_a, spec.axis_b))

    def formed(key, sign):  # the formed key whose block, times the sign returned, is key's
        return (key, 1) if _is_formed(flip, key) else (_mirror(flip, key), sign)

    def every(keys):
        return sorted({*keys, *(_mirror(flip, key) for key in keys)})

    sources: dict[SectorKey, list] = {}  # key of B -> [(V_E key, W_E key, sign)]
    w_all = every(w_keys)
    for k, l in every(v_keys):
        for m in [m for into, m in w_all if into == l]:
            (v_key, v_sign), (w_key, w_sign) = formed((k, l), sign_v), formed((l, m), sign_w)
            sources.setdefault((k, m), []).append((v_key, w_key, v_sign * w_sign))
    sign, walks = sign_v * sign_w, []
    paths = sorted({(k,) for k, _ in sources})
    for power in (1, 2, 3):
        if power > 1:
            paths = [path + (m,) for path in paths for k, m in sources if k == path[-1]]
        for walk in paths:
            mirror = _least_rotation(_mirror(flip, walk))
            weight = (1 + sign**power) // (2 if mirror == walk else 1)
            if (walk[-1], walk[0]) not in sources or walk != _least_rotation(walk) or (
                mirror < walk or not weight
            ):
                continue
            steps = [formed(key, sign) for key in zip(walk, walk[1:] + walk[:1])]
            weight *= len({walk[r:] + walk[:r] for r in range(power)})
            weight *= math.prod(step_sign for _, step_sign in steps)
            walks.append((weight, tuple(key for key, _ in steps)))
    read = {key for _, steps in walks for key in steps}
    # ordered by W_E key, so that a point phases one block of W(t)_E at a time
    products = sorted((w_key, v_key, key, term_sign) for key in sources if key in read
                      for v_key, w_key, term_sign in sources[key])
    return tuple(products), tuple(walks)


def prepare_maximally_mixed(spec: OtocSpec, propagator: Propagator) -> PreparedTrace:
    """A run of `propagator` on I/2^N: W_E, V_E and the trace plan formed once, the spec
    checked against it.

    I/2^N spans every sector: ValueError unless the propagator holds every
    basis index.
    """
    register = propagator.register
    if len(register.order) != 2**register.n_sites:
        raise ValueError("I/2^N needs a propagator on every basis index of the register")
    spec.validate_for(propagator.n_sites)
    w_blocks = _eigenbasis_blocks(propagator, spec.site_i, spec.axis_a)
    v_blocks = _eigenbasis_blocks(propagator, spec.site_j, spec.axis_b)
    plan = _trace_plan(propagator, spec, w_blocks, v_blocks)
    return PreparedTrace(propagator, spec, w_blocks, v_blocks, *plan)


def _matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for a complex C-contiguous right; a real left is one real product on
    right's (re, im) pairs."""
    if left.dtype.kind == "f":
        return (left @ right.view(float)).view(complex)
    return left @ right


def _trace_of_product(x: np.ndarray, y: np.ndarray) -> complex:
    """Tr[x y] as the elementwise sum of x * y^T."""
    return complex((x * y.T).sum())


def _b_blocks(prepared: PreparedTrace, phases: tuple[np.ndarray, ...]) -> SectorBlocks:
    """The blocks of B = V_E W(t)_E in the plan, phasing one block of W(t)_E at a time."""
    b: SectorBlocks = {}
    phased = w_t = None
    for w_key, v_key, key, sign in prepared.products:
        if w_key != phased:  # block (l, m) of W(t)_E, once the last is dropped
            (l, m), phased, w_t = w_key, w_key, None
            w_t = phases[l].conj()[:, None] * prepared.w_blocks[w_key]
            w_t *= phases[m]
        term = _matmul(prepared.v_blocks[v_key], w_t)
        if key not in b:
            b[key] = term if sign == 1 else np.negative(term, out=term)
        elif sign == 1:
            b[key] += term
        else:
            b[key] -= term
        del term  # before the next product is formed
    return b
