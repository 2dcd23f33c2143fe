"""Attribute decoder: plain LSTM conditioned on a fused first input.

The step -1 input fuses three sources through a single tanh layer: the
attended image context for the skeletal word, the skeletal word embedding,
and the skeleton decoder's hidden state. The LSTM then runs from BOS until
EOS, emitting the attribute phrase for that skeletal word (possibly empty).
"""

from __future__ import annotations

import logging
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, Vocabulary
from .recurrent import BatchTable, LSTMState, RecurrentDecoder, cell_forward
from .skelnet import SkelState

log = logging.getLogger(__name__)

HIDDEN_TAPS = ("current", "previous", "final")


class AttrConfigError(ValueError):
    pass


class AttrTrainingItem:
    """One conditioning context plus its gold attribute target sequence: row
    ``row`` of a ``BatchTable`` whose inputs are the (N, D) attended image
    contexts, the (N, m_s) skeleton word embeddings and the (N, n_s)
    skeleton hidden states. ``z``, ``skel_embed``, ``skel_hidden`` and
    ``targets`` (attribute indices, EOS excluded) read that row."""

    __slots__ = ("table", "row")

    @classmethod
    def rows(cls, table: BatchTable) -> List["AttrTrainingItem"]:
        """One item per row of ``table``, in order."""
        items = [cls.__new__(cls) for _ in range(len(table))]
        for row, item in enumerate(items):
            item.table, item.row = table, row
        return items

    @property
    def z(self) -> np.ndarray:
        return self.table.inputs[0][self.row]

    @property
    def skel_embed(self) -> np.ndarray:
        return self.table.inputs[1][self.row]

    @property
    def skel_hidden(self) -> np.ndarray:
        return self.table.inputs[2][self.row]

    @property
    def targets(self) -> List[int]:
        return self.table.seqs[self.row, :self.table.lengths[self.row] - 1].tolist()


def item_table(items: Sequence[AttrTrainingItem]) -> BatchTable:
    """The rows of ``items``, in their order, as one ``BatchTable``: their
    own table when they are all its rows in order, otherwise their tables
    concatenated once and taken by one fancy index per array."""
    tables = [item.table for item in items]
    if not tables:
        return BatchTable.of([], [])
    unique = list(dict.fromkeys(tables))
    table = BatchTable.concatenate(unique)
    rows = np.fromiter([item.row for item in items], np.int64, len(items))
    if len(unique) > 1:
        starts = np.cumsum([0] + [len(t) for t in unique[:-1]]).tolist()
        rows += np.fromiter(map(dict(zip(unique, starts)).__getitem__, tables), np.int64,
                            len(items))
    if len(rows) == len(table) and (rows == np.arange(len(rows))).all():
        return table
    return BatchTable(tuple(a[rows] for a in table.inputs), table.seqs[rows], table.lengths[rows])


class AttributeGenerator(RecurrentDecoder):
    """Estimator-style attribute decoder."""

    model_kind = "attribute"
    default_batch_size = 128

    def __init__(self, vocab: Vocabulary, feature_dim: int, skel_embed_size: int,
                 skel_hidden_size: int, hidden_size: int = 128, embed_size: int = 64,
                 hidden_tap: str = "current", use_post_word_alpha: bool = False,
                 seed: int = 0, dtype=np.float32):
        super().__init__(vocab, dtype, feature_dim=feature_dim, skel_embed_size=skel_embed_size,
                         skel_hidden_size=skel_hidden_size, hidden_size=hidden_size,
                         embed_size=embed_size, hidden_tap=hidden_tap,
                         use_post_word_alpha=use_post_word_alpha, seed=seed)

    def _check_params(self):
        super()._check_params()
        if self.hidden_tap not in HIDDEN_TAPS:
            raise AttrConfigError(f"hidden_tap must be one of {HIDDEN_TAPS}")

    def _check_follows(self, earlier):
        if [m.model_kind for m in earlier] != ["skeleton"]:
            raise AttrConfigError("an attribute stage follows one skeleton stage")
        check_skeleton_sizes(self, earlier[0])
        check_conditioning(earlier[0], self.hidden_tap, self.use_post_word_alpha)

    def _shapes(self):
        D, m = self.feature_dim, self.embed_size
        ms, ns = self.skel_embed_size, self.skel_hidden_size
        return {"embed": (len(self.vocab), m), "W_I": (D, m), "W_t": (ms, m), "W_h": (ns, m),
                "fuse_W": (m, m), "fuse_b": (m,), **self._cell_shapes(m)}

    def _fused_input(self, z, s_skel, h_skel):
        """(fused, x_init): the fused layer's input z @ W_I + s @ W_t + h @ W_h
        and the step -1 input tanh(fused @ fuse_W + fuse_b), on the array
        kernels."""
        p = self.store
        fused = (nm.row_stable_matmul(z, p["W_I"].data)
                 + nm.row_stable_matmul(s_skel, p["W_t"].data)
                 + nm.row_stable_matmul(h_skel, p["W_h"].data))
        return fused, np.tanh(nm.affine(fused, p["fuse_W"].data, p["fuse_b"].data))

    def init_input(self, z: np.ndarray, s_skel: np.ndarray,
                   h_skel: np.ndarray) -> np.ndarray:
        """Fused step -1 inputs x_{-1} (W, m) of W skeletal words, given as
        rows, in one call."""
        vecs = [np.asarray(v, dtype=self.dtype) for v in (z, s_skel, h_skel)]
        W = len(vecs[0]) if vecs[0].ndim == 2 else "W"
        for name, vec, dim in zip(("z", "s_skel", "h_skel"), vecs,
                                  (self.feature_dim, self.skel_embed_size,
                                   self.skel_hidden_size)):
            if vec.shape != (W, dim):
                raise AttrConfigError(f"{name} has shape {vec.shape}, expected ({W}, {dim})")
        return self._fused_input(*vecs)[1]

    def make_step_fn(self):
        """Batched beam-search step function: (a batch of K states, K tokens)
        -> (the batch of K new states, log-probabilities (K, V)), one step of
        the array kernels for all K, run under the caller's
        ``np.errstate(over="ignore")`` as ``decode.joint_beam_search`` enters
        it. The parameter arrays are looked up once, here."""
        embed, weights = self.store["embed"].data, self._cell_weights()

        def step_fn(states, tokens):
            x = nm.gather_rows(embed, np.asarray(tokens))
            h, c, logits, _ = cell_forward(x, states.h, states.c, *weights)
            return LSTMState(h, c, states.t + 1), nm.log_probs(logits)

        return step_fn

    def initial_state(self, x_init: np.ndarray) -> LSTMState:
        """The batch of states after the LSTM consumed the fused step -1
        inputs ``x_init`` (W, m) from zeros, one row per word: the gates of
        x_init @ W_in + lstm_b alone, as training's step -1 computes them."""
        p = self.store
        x_init = np.asarray(x_init, dtype=self.dtype)
        zeros = np.zeros((len(x_init), self.hidden_size), dtype=self.dtype)
        with np.errstate(over="ignore"):
            h, c, _ = nm.lstm_gates(nm.affine(x_init, p["lstm_W"].data[:self.embed_size],
                                              p["lstm_b"].data), zeros)
        return LSTMState(h, c, 0)

    def generate_attributes(self, x_init: np.ndarray, max_len: int = 4,
                            beam_size: int = 1, gamma: float = 0.0) -> List[List[str]]:
        """Decode the attribute phrase (possibly empty) of every skeletal word
        of one caption, from their fused inputs ``x_init`` (W, m), in one
        joint beam search; returns W phrases, all empty when ``max_len`` is
        0. A negative ``max_len`` is a ``BeamError``. A step's rows do not
        depend on what else shares its batch (``nm.row_stable_matmul``), so
        each phrase is bit for bit the one its own search would find."""
        from .decode import BeamConfig, BeamError, joint_beam_search
        if max_len < 0:
            raise BeamError(f"max_len must be >= 0, got {max_len}")
        states = self.initial_state(x_init)
        if max_len == 0:
            return [[] for _ in range(len(states))]
        config = BeamConfig(beam_size=beam_size, gamma=gamma, max_len=max_len)
        winners = joint_beam_search(self.make_step_fn(), states, config,
                                    vocab_size=len(self.vocab))
        return [[self.vocab.decode(i) for i in hyp.tokens] for hyp in winners]

    # -- training ------------------------------------------------------------

    def batch_loss(self, z, s_skel, h_skel, seqs):
        """``teacher_forced_loss`` of a batch of items with equal target
        length (``seqs`` (B, S) whose last column is EOS) as one node: a
        Tensor of the loss whose parents are the parameters, and whose
        backward ``nm.backward`` runs to set their gradients. Nothing in the
        package calls it; it is the loss perfbench's training probe steps,
        its forward and backward timed apart. The taped reference is
        tests/tape.py."""
        return nm.Tensor(*self.teacher_forced_loss((z, s_skel, h_skel, seqs)),
                         self.store.params.values())

    # -- the teacher-forced loop on the array kernels ---------------------------

    def teacher_forced_loss(self, batch):
        """(loss, backward) of one batch of ``_table``: the loss as a float,
        and ``backward()``, the gradient of every parameter by name, in the
        store's order.

        The fused init is consumed at step -1, then BOS, then the gold
        attribute words. Under teacher forcing every LSTM input is known before
        the first step, so only ``h @ W_rec`` stays in the time loop
        (``lstm_W`` is ``W_in`` over ``W_rec``, the rows for the input and for
        h). The fused step -1 inputs and the word embeddings the steps read are
        rows of one array X (see ``input_rows``), and ``X @ W_in + lstm_b`` is
        one product; the step -1 cell runs from the zero state on its rows
        alone. The logits, the NLL and their backward are one product each over
        all S·B rows. Backward, the gate gradients of all steps give ``W_rec``
        one ``H_prev.T @ DZ``; summed onto the rows of X, they give ``W_in``
        one ``X.T @ DZ`` and the inputs one ``DZ @ W_in.T``, whose word rows go
        into ``embed`` by ``nm.gather_rows_backward``. These sums run in
        another order than the taped loss of tests/tape.py, so the loss and
        gradients equal the tape's to rounding, not bit for bit.
        """
        p = self.store
        seqs = np.asarray(batch[-1])
        B, S = seqs.shape
        m, n = self.embed_size, self.hidden_size
        W, b, embed = p["lstm_W"].data, p["lstm_b"].data, p["embed"].data
        W_in, W_rec = W[:m], W[m:]
        out_W, out_b = p["out_W"].data, p["out_b"].data
        words = np.empty((S, B), dtype=np.int64)  # each step's input word, BOS first
        words[0] = BOS
        words[1:] = seqs[:, :-1].T
        rows, row_of = input_rows(words.reshape(-1), m)
        inputs = [np.ascontiguousarray(v, dtype=self.dtype) for v in batch[:3]]
        X = np.empty((B + len(rows), m), dtype=self.dtype)  # step -1's inputs, then the words'
        H = np.empty((S + 1, B, n), dtype=self.dtype)  # h after steps -1 .. S-1
        cells = []
        with np.errstate(over="ignore"):
            fused, X[:B] = self._fused_input(*inputs)
            X[B:] = nm.gather_rows(embed, rows)
            proj = nm.affine(X, W_in, b)
            h, c, start = nm.lstm_gates(proj[:B], np.zeros_like(H[0]))
            proj = (proj[B:] if row_of is None else proj[B:][row_of]).reshape(S, B, 4 * n)
            H[0] = h
            for t in range(S):
                h, c, cell = nm.lstm_gates(nm.affine(h, W_rec, proj[t]), c)
                H[t + 1] = h
                cells.append(cell)
            hs = H[1:].reshape(S * B, n)
            # the sum over steps of batch means: S times the mean over all rows
            loss, nll = nm.nll_forward(nm.affine(hs, out_W, out_b), seqs.T.reshape(-1))
            loss = loss * S

        def backward():
            grads = dict.fromkeys(p.params)
            dh_out, grads["out_W"], grads["out_b"] = nm.affine_backward(
                nm.nll_backward(np.full_like(loss, S), nll), hs, out_W, out_b)
            dh_out = dh_out.reshape(S, B, n)
            # the gate gradients of steps -1 .. S-1
            DZ = np.empty((S + 1, B, 4 * n), dtype=self.dtype)
            gh, gc = dh_out[-1], None
            for t in reversed(range(S)):
                d_o, gc_h = nm.lstm_h_backward(gh, cells[t])
                gc = gc_h if gc is None else gc + gc_h
                DZ[t + 1], gc = nm.lstm_gates_backward(gc, d_o, cells[t])
                gh = np.matmul(DZ[t + 1], W_rec.T)
                if t:
                    gh += dh_out[t - 1]
            d_o, gc_h = nm.lstm_h_backward(gh, start)
            DZ[0] = nm.lstm_gates_backward(gc + gc_h, d_o, start)[0]
            dz = DZ.reshape(-1, 4 * n)
            grads["lstm_b"] = dz.sum(axis=0)
            W_rec_grad = np.matmul(H[:S].reshape(S * B, n).T, dz[B:])
            if row_of is not None:  # sum the steps' gate gradients onto their word's row
                by_row = np.zeros((len(rows), S * B), dtype=self.dtype)
                by_row[row_of, np.arange(S * B)] = 1.0
                dz = np.concatenate([DZ[0], np.matmul(by_row, dz[B:])])
            grads["lstm_W"] = np.concatenate([np.matmul(X.T, dz), W_rec_grad])
            dX = np.matmul(dz, W_in.T)
            grads["embed"] = nm.gather_rows_backward(dX[B:], rows, embed)
            dfused, grads["fuse_W"], grads["fuse_b"] = nm.affine_backward(
                nm.tanh_backward(dX[:B], X[:B]), fused, p["fuse_W"].data, p["fuse_b"].data)
            for v, name in zip(inputs, ("W_I", "W_t", "W_h")):
                grads[name] = np.matmul(v.T, dfused)
            return grads

        return float(loss), backward

    def _table(self, items: Sequence[AttrTrainingItem]) -> BatchTable:
        return item_table(items)


def input_rows(words, embed_size):
    """The rows of the input array X that the N teacher-forced inputs
    ``words`` read: (the word of each row, the row of each input), the
    latter None when each input has its own row.

    The rows are the U distinct words when that is cheaper: their inputs'
    gate gradients are then summed onto them by a one-hot product, U·N·4n
    multiply-adds, which saves 3·(N - U)·m·4n in the input projection, its
    weight gradient and its input gradient (m = ``embed_size``). So no cost
    grows with the vocabulary, and a batch that reads few distinct words,
    as attribute batches mostly do, projects only those.
    """
    rows, row_of = np.unique(words, return_inverse=True)
    N, U, m = len(words), len(rows), embed_size
    if U * (N + 3 * m) < 3 * N * m:
        return rows, row_of
    return words, None


def check_conditioning(skel_model, hidden_tap: str, use_post_word_alpha: bool):
    """Raises AttrConfigError unless ``word_conditioning`` can condition on
    ``skel_model`` with this tap and refinement setting."""
    if hidden_tap not in HIDDEN_TAPS:
        raise AttrConfigError(f"hidden_tap must be one of {HIDDEN_TAPS}")
    if use_post_word_alpha and not skel_model.use_attention:
        raise AttrConfigError(
            "post-word refinement needs a skeleton decoder with attention; "
            "this one has use_attention=False")


def check_skeleton_sizes(attr_model, skel_model):
    """Raises AttrConfigError unless ``attr_model`` was built for the
    feature, word embedding and hidden sizes of ``skel_model``."""
    for attr_key, skel_key in (("feature_dim", "feature_dim"),
                               ("skel_embed_size", "embed_size"),
                               ("skel_hidden_size", "hidden_size")):
        want, have = getattr(attr_model, attr_key), getattr(skel_model, skel_key)
        if want != have:
            raise AttrConfigError(f"the attribute model's {attr_key} is {want}, "
                                  f"the skeleton's {skel_key} is {have}")


class Conditioning(NamedTuple):
    """The attribute decoder's conditioning, one row per skeletal word of a
    ``TeacherTrace``."""

    post_alpha: Optional[np.ndarray]  # (N, L, L) refined maps, None without refinement
    z: np.ndarray                     # (N, D) attended image contexts
    skel_embed: np.ndarray            # (N, m_s) skeletal word embeddings
    skel_hidden: np.ndarray           # (N, n_s) skeleton hidden states


def word_conditioning(skel_model, trace, features, hidden_tap: str = "current",
                      use_post_word_alpha: bool = False) -> Conditioning:
    """The attribute decoder's conditioning for every skeletal word of a
    ``teacher_trace``, as whole arrays.

    ``trace`` is a ``TeacherTrace`` of R records: per skeleton step the
    pre-word map ``alpha``, its context ``z``, the hidden state ``h`` after
    the step, the state ``h_prev``/``c_prev`` entering it, its word
    ``logits`` and the word in ``words`` it emitted, record r in rows
    ``offsets[r]:offsets[r + 1]``. ``features`` holds the R records' feature
    grids, one per record, read only for refinement. Without refinement z is
    the step's own context; with it, the step's map is refined post-word
    from the step's own word distribution and the skeleton decoder's
    ``per_location_distributions`` at the state entering the step, one call
    and one ``context`` call per record. A record's T maps are its words'
    similarities <p_attend, p_ij>, normalised to sum to 1, from one float64
    product (T, P, Q) @ (T, Q, 1) and one row sum; a word whose
    similarities sum to 0 or less keeps its pre-word map, with a warning.
    The "current" tap is the state after word T, "previous" the state
    entering it, "final" the state after its record's last word.
    """
    check_conditioning(skel_model, hidden_tap, use_post_word_alpha)
    offsets = trace.offsets
    if len(features) != len(offsets) - 1:
        raise AttrConfigError(f"{len(features)} feature grids given for a trace of "
                              f"{len(offsets) - 1} records")
    z, posts = np.asarray(trace.z, dtype=np.float32), None
    if use_post_word_alpha:
        L = skel_model.grid_size
        z, posts = np.empty_like(z), np.empty((len(z), L, L))
        for lo, hi, grid in zip(offsets[:-1], offsets[1:], features):
            if lo == hi:
                continue
            entering = SkelState(h=trace.h_prev[lo:hi], c=trace.c_prev[lo:hi])
            prev = np.concatenate(([BOS], trace.words[lo:hi - 1]))
            p_grid = skel_model.per_location_distributions(entering, prev, grid)
            p_attend = nm.probs(trace.logits[lo:hi])
            scores = np.matmul(p_grid.reshape(hi - lo, L * L, -1).astype(np.float64),
                               p_attend.astype(np.float64)[:, :, None])[:, :, 0]
            totals = scores.sum(axis=1)
            keep = totals <= 0.0
            if keep.any():
                log.warning("post-word refinement: all similarities zero for %d word(s), "
                            "keeping pre-word map", keep.sum())
                scores[keep], totals[keep] = trace.alpha[lo:hi][keep], 1.0
            posts[lo:hi] = (scores / totals[:, None]).reshape(hi - lo, L, L)
            z[lo:hi] = skel_model.context(grid, posts[lo:hi])
    if hidden_tap == "final":
        hidden = trace.h[np.repeat(offsets[1:] - 1, np.diff(offsets))]
    else:
        hidden = trace.h if hidden_tap == "current" else trace.h_prev
    return Conditioning(posts, z, skel_model.embedding_of(trace.words), hidden)


def build_training_items(records, skel_model, attr_vocab,
                         use_post_word_alpha: bool = False,
                         hidden_tap: str = "current") -> List[AttrTrainingItem]:
    """Precompute conditioning items from a frozen skeleton model.

    Runs one batched teacher-forced skeleton pass over all records, then
    emits one item per skeleton token, the rows of one ``BatchTable`` whose
    inputs are the arrays of their ``word_conditioning``, uncopied.
    Non-head tokens get an empty target so "no attributes" is learned.
    """
    trace = skel_model.teacher_trace(records)
    cond = word_conditioning(skel_model, trace, [r.features for r in records],
                             hidden_tap, use_post_word_alpha)
    encode = attr_vocab.encode
    targets = [[*map(encode, tok.attributes), EOS]
               for r in records for tok in r.decomposition.skeleton]
    return AttrTrainingItem.rows(BatchTable.of((cond.z, cond.skel_embed, cond.skel_hidden),
                                               targets))
