"""Recurrent core shared by the skeleton and attribute decoders.

Both decoders are an LSTM with a linear output layer, trained with teacher
forcing and Adagrad on length-bucketed batches and saved as one checkpoint
that holds their model kind, config and vocabulary. A subclass declares
the name and shape of every parameter once, from its config alone, in
``_shapes`` (its own, then the LSTM's and the output layer's), and turns its
training data into one ``BatchTable`` in ``_table``, once per fit; every
batch of every epoch is one fancy index per array of that table. Training,
decoding and everything between run on the array kernels of ``numerics``
alone: every decode step runs ``cell_forward``, the LSTM and the output
layer, on the decoder's own input, and ``loss_and_grads`` runs the subclass's
``teacher_forced_loss``, a forward and its backpropagation through time
written out on the same kernels. The package holds no autodiff tape: the
taped losses those gradients are tested against are in tests/tape.py.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import numerics as nm
from .corpus import EOS, SPECIALS, CorpusError, Vocabulary
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


@dataclass(eq=False)
class BatchTable:
    """A decoder's training data as whole arrays, one row per sequence: the
    leading arrays of every batch (``inputs``), the EOS-terminated target
    sequences padded with EOS to the longest (``seqs``), and their lengths,
    EOS included. A batch is one fancy index per array."""

    inputs: tuple        # (N, ...) arrays
    seqs: np.ndarray     # (N, S_max) int64
    lengths: np.ndarray  # (N,) int64

    @classmethod
    def of(cls, inputs, seqs):
        """The table of ``inputs`` and the N EOS-terminated word lists ``seqs``."""
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        padded = np.full((len(seqs), lengths.max(initial=0)), EOS, dtype=np.int64)
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(seqs), np.int64, lengths.sum())
        return cls(tuple(inputs), padded, lengths)

    @classmethod
    def concatenate(cls, tables):
        """The rows of ``tables`` in order, as one table."""
        if len(tables) == 1:
            return tables[0]
        seqs = np.full((sum(len(t) for t in tables), max(t.seqs.shape[1] for t in tables)),
                       EOS, dtype=np.int64)
        lo = 0
        for t in tables:
            seqs[lo:lo + len(t), :t.seqs.shape[1]] = t.seqs
            lo += len(t)
        return cls(tuple(np.concatenate(arrs) for arrs in zip(*(t.inputs for t in tables))),
                   seqs, np.concatenate([t.lengths for t in tables]))

    def __len__(self):
        return len(self.lengths)

    def batch(self, rows):
        """(*inputs, seqs (B, S)) of ``rows``, an index array of sequences of
        one length S."""
        return (*(a[rows] for a in self.inputs), self.seqs[rows, :self.lengths[rows[0]]])

    def batches(self, batch_size, shuffle_rng=None):
        """One ``batch`` per chunk of ``length_batches``."""
        for chunk in length_batches(self.lengths.tolist(), batch_size, shuffle_rng):
            yield self.batch(np.array(chunk))


def cell_forward(x, h, c, W, b, out_W, out_b):
    """The LSTM and the output layer on a batch of inputs ``x``, on the
    array kernels under the caller's ``np.errstate(over="ignore")``:
    (h', c', logits, the LSTM's cache)."""
    h, c, cell = nm.lstm_forward(x, h, c, W, b)
    return h, c, nm.affine(h, out_W, out_b), cell


def _at_least_one(name, value, least=1):
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value}")


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
    """Estimator-style LSTM decoder: ``fit``, and one stage of a checkpoint."""

    model_kind: str          # the checkpoint's ``meta model``
    default_batch_size: int  # training batch when ``fit`` is given none

    def __init__(self, vocab, dtype, **params):
        """Sets and checks the config (``_configure``), then draws the
        parameters of ``_shapes`` (``_build``)."""
        self._configure(vocab, dtype, **params)
        self.store = self._build()

    def _configure(self, vocab, dtype, **params):
        self.vocab, self.dtype = vocab, dtype
        self.__dict__.update(params)
        self._check_params()

    def get_params(self) -> dict:
        """Constructor keywords except ``vocab`` and ``dtype``; saved as the config."""
        return {k: getattr(self, k) for k in inspect.signature(type(self)).parameters
                if k not in ("vocab", "dtype")}

    def _check_params(self):
        """Raises ValueError naming the first of ``get_params`` that is not of
        its constructor annotation's type (a bool is no int) or is an int
        below 1, a seed below 0: a checkpoint's config reaches the
        constructor as JSON values, which nothing else checks."""
        kinds = inspect.get_annotations(type(self).__init__, eval_str=True)
        for key, value in self.get_params().items():
            if type(value) is not kinds[key]:
                raise ValueError(f"{key} must be {kinds[key].__name__}, not {value!r}")
            if kinds[key] is int:
                _at_least_one(key, value, 0 if key == "seed" else 1)

    def _cell_shapes(self, input_size):
        """The LSTM's and the output layer's shapes, for LSTM inputs of
        ``input_size``: the end of a subclass's ``_shapes``, its parameters'
        shapes by name, from the config alone, in the order ``_build`` draws
        them."""
        n, Q = self.hidden_size, len(self.vocab)
        return {"lstm_W": (input_size + n, 4 * n), "lstm_b": (4 * n,), "out_W": (n, Q),
                "out_b": (Q,)}

    def _build(self):
        """The ``ParameterStore`` of ``_shapes``: its matrices drawn
        Glorot-uniform in that order from ``seed``, its vectors zero but the
        LSTM's forget-gate bias, one."""
        store, rng, dt = ParameterStore(), np.random.default_rng(self.seed), self.dtype
        for name, shape in self._shapes().items():
            store.add(name, nm.glorot_uniform(rng, *shape, dtype=dt) if len(shape) == 2
                      else np.zeros(shape, dtype=dt))
        n = self.hidden_size
        store["lstm_b"].data[n:2 * n] = 1.0
        return store

    # -- the step and the loop on the array kernels ---------------------------

    def _cell_weights(self):
        """The arrays ``cell_forward`` reads: (lstm_W, lstm_b, out_W, out_b).
        A loop looks them up once and passes them to every step."""
        p = self.store
        return p["lstm_W"].data, p["lstm_b"].data, p["out_W"].data, p["out_b"].data

    def _table(self, records) -> BatchTable:
        """The ``BatchTable`` of ``records``: caption records for the skeleton
        decoder, conditioning items for the attribute decoder."""
        raise NotImplementedError

    def teacher_forced_loss(self, batch):
        """(loss, backward) of one batch of ``_table`` on the array kernels:
        the teacher-forced loss (the sum over steps of batch-mean
        cross-entropy) as a float, and ``backward()``, which returns the
        gradient of every parameter by name, in the store's order. Each
        decoder writes its own backpropagation through time."""
        raise NotImplementedError

    def loss_and_grads(self, batch):
        """(loss, gradients by parameter name) of one batch of ``_table``:
        ``teacher_forced_loss`` and what its backward returns. They equal the
        taped loss of tests/tape.py and its gradients, the skeleton's bit for
        bit, the attribute decoder's to rounding."""
        loss, backward = self.teacher_forced_loss(batch)
        return loss, backward()

    # -- training -----------------------------------------------------------

    def _mean_loss(self, table, batch_size):
        total = 0.0
        for batch in table.batches(batch_size):
            total += self.teacher_forced_loss(batch)[0] * batch[-1].shape[0]
        return total / len(table)

    def fit(self, train_records, val_records=None, epochs: int = 10,
            learning_rate: float = 0.1, batch_size=None, shuffle_seed: int = 0,
            progress=None):
        """Adagrad training with teacher forcing.

        The records are what ``_table`` takes: caption records for the
        skeleton decoder, conditioning items for the attribute decoder, each
        set made one ``BatchTable`` before the first step. Each step takes
        its gradients from ``loss_and_grads`` and clips their global norm to
        ``nm.CLIP_NORM`` (in ``adagrad_step``). The learning rate is
        halved once, the first time the validation loss fails to improve for
        a full epoch. Returns a history dict with the loss curve as
        (step, loss) pairs and each step's gradient norm before clipping.
        Raises ValueError for fewer than one epoch, a batch below one, a
        shuffle seed below 0 or empty ``val_records``, before the first step.
        """
        if batch_size is None:
            batch_size = self.default_batch_size
        _at_least_one("epochs", epochs)
        _at_least_one("batch_size", batch_size)
        _at_least_one("shuffle_seed", shuffle_seed, 0)
        train = self._table(train_records)
        val = None if val_records is None else self._table(val_records)
        if val is not None and not len(val):
            raise ValueError("the validation set is empty, so it has no loss")
        history = {"train_curve": [], "grad_norm": [], "val_loss": [], "learning_rate": []}
        lr = learning_rate
        best_val = float("inf")
        halved = False
        for epoch in range(epochs):
            rng = np.random.default_rng([shuffle_seed, epoch])
            for batch in train.batches(batch_size, shuffle_rng=rng):
                self.store.zero_grad()
                loss, grads = self.loss_and_grads(batch)
                for name, g in grads.items():
                    self.store[name].grad = g
                history["grad_norm"].append(self.store.adagrad_step(lr))
                history["train_curve"].append((self.store.step_count, loss))
            history["learning_rate"].append(lr)
            if val is not None:
                val_loss = self._mean_loss(val, batch_size)
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

    def _check_follows(self, earlier):
        """A subclass raises ValueError here unless it may follow the ``earlier`` stages."""

    @classmethod
    def _from_stage(cls, path, meta, store, earlier):
        """The model of a checkpoint stage after the ``earlier`` models, once its
        vocabulary, config (exactly the constructor's keys), ``_check_follows``
        and the tensors of ``_shapes`` (in order, no others) are checked, naming
        ``path`` and the stage (its index and model kind), as both stages of a
        captioner hold tensors of the same names. No weight is drawn: it takes
        the stage's tensors as they are."""
        where = f"{path}: stage {len(earlier)} ({cls.model_kind})"
        tokens, config = meta.get("vocab"), meta.get("config")
        if type(tokens) is not list:
            raise NumericsError(f"{where}: meta 'vocab' is not a list of tokens")
        try:
            vocab = Vocabulary(tokens)
        except CorpusError as exc:
            raise NumericsError(f"{where}: meta 'vocab': {exc}") from None
        given = set(config) if type(config) is dict else set()
        keys = set(inspect.signature(cls).parameters) - {"vocab", "dtype"}
        missing, unknown = sorted(keys - given), sorted(given - keys)
        if missing or unknown:
            raise NumericsError(f"{where}: config: missing {missing}, unknown {unknown}")
        model = cls.__new__(cls)  # configured, then given the checkpoint's tensors
        try:
            model._configure(vocab, np.float32, **config)
            model._check_follows(earlier)
        except ValueError as exc:
            raise NumericsError(f"{where}: config: {exc}") from None
        shapes = model._shapes()
        found = {name: store[name].data.shape for name in store.names()}
        for name in {**shapes, **found}:
            if found.get(name) != shapes.get(name):
                raise NumericsError(f"{where}: tensor {name!r} is {found.get(name, 'missing')}, "
                                    f"its config gives {shapes.get(name, 'no such tensor')}")
        if list(found) != list(shapes):
            raise NumericsError(f"{where}: tensors not in the order its config gives: "
                                f"{', '.join(shapes)}")
        model.store = store
        return model


def save_checkpoint(path, models):
    """Write ``models``, a skeleton decoder and optionally the attribute
    decoder trained on it, as one checkpoint's stages: each model's kind,
    config and non-special tokens (``meta`` model, config, vocab), step
    count, tensors and Adagrad accumulators. What ``_from_stage`` refuses,
    or a model not float32, raises NumericsError before ``path`` is opened."""
    stages = []
    for at, model in enumerate(models):
        if np.dtype(model.dtype) != np.float32:
            raise NumericsError(f"{path}: cannot save a {np.dtype(model.dtype).name} model; "
                                "checkpoints hold float32 tensors")
        meta = {"model": model.model_kind, "config": model.get_params(),
                "vocab": model.vocab.index_to_token[len(SPECIALS):]}
        type(model)._from_stage(path, meta, model.store, models[:at])
        stages.append((meta, model.store))
    nm.save_stages(path, stages)


def load_checkpoint(path, *kinds):
    """The models of the checkpoint ``path``, one per decoder class of
    ``kinds``, which must be the kinds of its stages in order, each built by
    ``_from_stage``; each failure names ``path``."""
    stages = nm.load_stages(path)
    found, wanted = [meta.get("model") for meta, _ in stages], [c.model_kind for c in kinds]
    if found != wanted:
        raise NumericsError(f"{path}: holds the stages {found}, not {wanted}")
    models = []
    for cls, (meta, store) in zip(kinds, stages):
        models.append(cls._from_stage(path, meta, store, models))
    return models
