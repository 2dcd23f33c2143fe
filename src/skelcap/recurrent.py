"""Recurrent core shared by the skeleton and attribute decoders.

Both decoders are an LSTM with a linear output layer, trained with teacher
forcing and Adagrad on length-bucketed batches and saved as a checkpoint
tagged with their model kind and vocabulary hash. A subclass creates its
own parameters and then the LSTM and output layer with
``_build_lstm_and_output`` and makes batches in ``_batches``. Training,
decoding and everything between run on the array kernels of ``numerics``
alone: a decode step (``_advance``) runs the subclass's input step
(``_input_step``) and the LSTM, and ``loss_and_grads`` runs the subclass's
``teacher_forced_loss``, its backpropagation through time written out on
the same kernels. Each decoder's taped batch loss (``sequence_loss``,
``batch_loss``), built from the tape helpers below, is the reference those
gradients are tested against.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .corpus import BOS
from .numerics import NumericsError, ParameterStore

log = logging.getLogger(__name__)


def length_batches(lengths, batch_size, shuffle_rng=None):
    """Index chunks of at most ``batch_size`` items that share one length.

    Without ``shuffle_rng`` the chunks come in increasing length, items in
    input order. With it, items are shuffled before bucketing and the chunks
    afterwards, so one optimizer pass never sees a long run of one length.
    """
    order = list(range(len(lengths)))
    if shuffle_rng is not None:
        shuffle_rng.shuffle(order)
    groups = {}
    for i in order:
        groups.setdefault(lengths[i], []).append(i)
    chunks = [idxs[lo:lo + batch_size] for _, idxs in sorted(groups.items())
              for lo in range(0, len(idxs), batch_size)]
    if shuffle_rng is not None:
        shuffle_rng.shuffle(chunks)
    return chunks


def _at_least_one(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, not {value}")


@dataclass
class LSTMState:
    """LSTM states of a batch of hypotheses, one per row of the (K, n)
    hidden ``h`` and cell ``c``, entering decode step ``t``: the batch a
    beam search hands its step function."""

    h: np.ndarray
    c: np.ndarray
    t: int = 0

    def __len__(self):
        return len(self.h)

    def take(self, rows):
        """The batch of ``rows`` (an index array), entering step ``t``: one
        fancy index per state array."""
        return type(self)(self.h[rows], self.c[rows], self.t)


class RecurrentDecoder:
    """Estimator-style LSTM decoder: ``fit`` / ``evaluate_loss`` / ``save`` / ``load``."""

    model_kind: str          # "meta model" line of the checkpoint
    vocab_key: str           # name of the vocabulary hash in the checkpoint
    default_batch_size: int  # training batch; evaluation batches are twice as large

    def get_params(self) -> dict:
        """Constructor keywords except ``vocab`` and ``dtype``; saved as the config."""
        return {k: getattr(self, k) for k in inspect.signature(type(self)).parameters
                if k not in ("vocab", "dtype")}

    def _build_lstm_and_output(self, rng, input_size):
        n, Q, dt = self.hidden_size, len(self.vocab), self.dtype
        self.store.add("lstm_W", nm.glorot_uniform(rng, input_size + n, 4 * n, dtype=dt))
        lstm_b = np.zeros(4 * n, dtype=dt)
        lstm_b[n:2 * n] = 1.0  # forget-gate bias
        self.store.add("lstm_b", lstm_b)
        self.store.add("out_W", nm.glorot_uniform(rng, n, Q, dtype=dt))
        self.store.add("out_b", np.zeros(Q, dtype=dt))

    # -- the taped references' building blocks (batched, on the tape) --------

    def _lstm_t(self, x, h, c):
        return nm.lstm_cell(x, h, c, self.store["lstm_W"], self.store["lstm_b"])

    def _logits_t(self, h):
        return nm.add(nm.matmul(h, self.store["out_W"]), self.store["out_b"])

    def _teacher_forced_t(self, seqs, h, c, step):
        """Sum over steps of batch-mean cross-entropy against ``seqs`` (B, S).

        ``step(h, c, prev) -> (h, c, logits)`` advances the batch by one word
        given the previous gold words, BOS first.
        """
        loss = None
        prev = np.full(seqs.shape[0], BOS, dtype=np.int64)
        for t in range(seqs.shape[1]):
            h, c, logits = step(h, c, prev)
            step_loss = nm.cross_entropy(logits, seqs[:, t])
            loss = step_loss if loss is None else nm.add(loss, step_loss)
            prev = seqs[:, t]
        return loss

    # -- the same loop on the array kernels -----------------------------------

    def _advance(self, ctx, h, c, prev):
        """One step of a batch on the array kernels, under the caller's
        ``np.errstate(over="ignore")``: (h', c', logits, input cache, cell
        cache) given the previous words ``prev``."""
        p = self.store
        x, inp = self._input_step(ctx, h, prev)
        h, c, cell = nm.lstm_forward(x, h, c, p["lstm_W"].data, p["lstm_b"].data)
        return h, c, nm.affine(h, p["out_W"].data, p["out_b"].data), inp, cell

    def teacher_forced_loss(self, batch, grads=None):
        """The loss of the decoder's taped batch loss on one batch from
        ``_batches``, as a float, computed on the array kernels; given a dict
        ``grads``, also fills it with the gradient of every parameter. Each
        decoder writes its own backpropagation through time."""
        raise NotImplementedError

    def loss_and_grads(self, batch):
        """(loss, gradients by parameter name) of one batch from ``_batches``:
        the taped loss and what ``nm.backward`` gives it, without a tape, as
        each decoder's ``teacher_forced_loss`` computes them (the skeleton's
        bit for bit, the attribute decoder's to rounding)."""
        grads = {}
        loss = self.teacher_forced_loss(batch, grads)
        return loss, grads

    # -- training -----------------------------------------------------------

    def evaluate_loss(self, records, batch_size=None) -> float:
        """Mean per-sequence teacher-forced loss, no gradients, in batches of
        ``batch_size`` (default: twice the training batch)."""
        if batch_size is None:
            batch_size = 2 * self.default_batch_size
        _at_least_one("batch_size", batch_size)
        total, count = 0.0, 0
        for batch in self._batches(records, batch_size):
            n = batch[-1].shape[0]
            total += self.teacher_forced_loss(batch) * n
            count += n
        return total / max(count, 1)

    def fit(self, train_records, val_records=None, epochs: int = 10,
            learning_rate: float = 0.1, batch_size=None, shuffle_seed: int = 0,
            progress=None):
        """Adagrad training with teacher forcing.

        The records are what ``_batches`` takes: caption records for the
        skeleton decoder, conditioning items for the attribute decoder. Each
        step takes its gradients from ``loss_and_grads`` and clips their
        global norm to 5 (``adagrad_step``'s defaults). The learning rate is
        halved once, the first time the validation loss fails to improve for
        a full epoch. Returns a history dict with the loss curve as
        (step, loss) pairs and each step's gradient norm before clipping.
        Raises ValueError for fewer than one epoch or a batch below one.
        """
        if batch_size is None:
            batch_size = self.default_batch_size
        _at_least_one("epochs", epochs)
        _at_least_one("batch_size", batch_size)
        history = {"train_curve": [], "grad_norm": [], "val_loss": [], "learning_rate": []}
        lr = learning_rate
        best_val = float("inf")
        halved = False
        for epoch in range(epochs):
            rng = np.random.default_rng([shuffle_seed, epoch])
            for batch in self._batches(train_records, batch_size, shuffle_rng=rng):
                self.store.zero_grad()
                loss, grads = self.loss_and_grads(batch)
                for name, g in grads.items():
                    self.store[name].grad = g
                history["grad_norm"].append(self.store.adagrad_step(lr))
                history["train_curve"].append((self.store.step_count, loss))
            history["learning_rate"].append(lr)
            if val_records is not None:
                val_loss = self.evaluate_loss(val_records, batch_size)
                history["val_loss"].append(val_loss)
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                elif not halved:
                    lr *= 0.5
                    halved = True
                    log.info("validation loss plateaued; halving learning rate to %g", lr)
            if progress is not None:
                progress(epoch, history)
        return history

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        self.store.save(path, meta={"model": self.model_kind, "config": self.get_params()},
                        vocab_hashes={self.vocab_key: self.vocab.content_hash()})

    @classmethod
    def load(cls, path, vocab):
        """Rebuild a model from ``path`` with its Adagrad state.

        After ``ParameterStore.load`` checked the model kind, vocabulary hash
        and payload, checks the config keys and tensor shapes, naming ``path``.
        """
        store = ParameterStore.load(path, expect_model=cls.model_kind,
                                    expect_vocab_hashes={cls.vocab_key: vocab.content_hash()})
        config = store.meta.get("config", {})
        try:
            config.pop("invoke_on_all_tokens", None)  # older checkpoints; never read
            inspect.signature(cls).bind(vocab, **config)
        except (AttributeError, TypeError) as exc:
            raise NumericsError(f"{path}: config does not fit {cls.__name__}: {exc}") from None
        model = cls(vocab, **config)
        for name in model.store.names():
            if name not in store or store[name].data.shape != model.store[name].data.shape:
                raise NumericsError(f"{path}: tensor {name!r} missing or not shaped as its config")
            model.store[name].data[...] = store[name].data
            model.store.accumulators[name][...] = store.accumulators[name]
        model.store.step_count = store.step_count
        return model
