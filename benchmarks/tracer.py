"""Spans and counters placed around fusedec's public functions from outside.

The program is not edited: while a ``Tracer`` is installed, each public
function is replaced at the name its caller looks it up by (``fusion``
imports ``refresh_cache`` and friends by name, ``byte_transform`` imports
``tokenize`` and the grouping helpers, ``harness`` imports ``decode`` and
``score_corpus``) and restored afterwards.

Each span records its name, start, end, parent span and the id of the
decode it belongs to, plus one amount taken from the call's arguments or
returned value (bytes tokenized, members grouped, steps taken, or 1 for a
repeated model forward). Spans are kept in column arrays in memory and
written out once, by ``save``.

``fusion.fuse_scores`` is counted but gets no span: it runs once per
candidate, and a span there would cost about as much as the call. Its
time stays in the self time of ``fusion.decode``. ``Vocabulary.bytes_of``,
``PrefixIndex.longest_match`` and ``TokenModel.advance_state`` are neither
counted nor spanned; their time lands in their callers' self time.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from fusedec import byte_transform, fusion, harness, models

SPAN_NAMES = (
    "fusion.decode",
    "vocab.tokenize",
    "vocab.alternatives_for_suffix",
    "vocab.group_by_next_byte",
    "models.tr.dist",
    "models.lm.dist",
    "byte_transform.refresh_cache",
    "byte_transform.next_byte_scores",
    "byte_transform.approx_byte_log_score",
    "metrics.score_corpus",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# decode id carried by spans recorded while the models are being built
SETUP_DECODE_ID = -2


def _no_amount(args, result):
    return 0


def _data_len(args, result):
    return len(args[1])


def _result_len(args, result):
    return len(result)


class Tracer:
    """Records spans for one traced pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decode = array("i")
        self.amount = array("q")
        self.fuse_calls = 0
        self._stack: list[int] = []
        self._decode_id = -1
        self._decodes = 0
        self._seen: set = set()
        self._saved: list[tuple[object, str, object]] = []
        self._fuse = fusion.fuse_scores

    # --- wrapping -------------------------------------------------------------

    def span(self, name, fn, amount=_no_amount):
        """``fn`` wrapped in a span named ``name``."""
        nid = _ID[name]
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, decodes, amounts, stack = self.parent, self.decode, self.amount, self._stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            decodes.append(self._decode_id)
            ends.append(0.0)
            amounts.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            amounts[idx] = amount(args, result)
            return result

        return wrapper

    def decode_span(self, fn):
        """Span for one decode call; it opens a new decode id."""
        inner = self.span("fusion.decode", fn, lambda args, result: result.step_count)

        def wrapper(*args, **kwargs):
            self._decode_id, self._decodes = self._decodes, self._decodes + 1
            self._seen = set()
            try:
                return inner(*args, **kwargs)
            finally:
                self._decode_id = -1

        return wrapper

    def setup_phase(self, fn):
        """Tag spans recorded inside ``fn`` (model building) as set-up."""

        def wrapper(*args, **kwargs):
            saved, self._decode_id = self._decode_id, SETUP_DECODE_ID
            try:
                return fn(*args, **kwargs)
            finally:
                self._decode_id = saved

        return wrapper

    def _dist_wrappers(self, fn):
        def repeat(args, result):
            model, state = args[0], args[1]
            ctx = args[2] if len(args) > 2 else None
            key = (id(model), state, ctx)
            if key in self._seen:
                return 1
            self._seen.add(key)
            return 0

        tr = self.span("models.tr.dist", fn, repeat)
        lm = self.span("models.lm.dist", fn, repeat)

        def wrapper(model, state, ctx=None):
            if isinstance(model, models.NoisyChannelModel):
                return tr(model, state, ctx)
            return lm(model, state, ctx)

        return wrapper

    def _counted_fuse(self, per_model, weights):
        self.fuse_calls += 1
        return self._fuse(per_model, weights)

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        bt = byte_transform
        tokenize = self.span("vocab.tokenize", bt.tokenize, _data_len)
        refresh = self.span("byte_transform.refresh_cache", bt.refresh_cache)
        approx = self.span(
            "byte_transform.approx_byte_log_score", bt.approx_byte_log_score, _data_len
        )
        scores = self.span("byte_transform.next_byte_scores", bt.next_byte_scores)
        for owner in (fusion, bt):
            self._patch(owner, "tokenize", tokenize)
            self._patch(owner, "refresh_cache", refresh)
            self._patch(owner, "approx_byte_log_score", approx)
            self._patch(owner, "next_byte_scores", scores)
        self._patch(models, "tokenize", tokenize)
        self._patch(
            bt,
            "alternatives_for_suffix",
            self.span("vocab.alternatives_for_suffix", bt.alternatives_for_suffix, _result_len),
        )
        self._patch(
            bt,
            "group_by_next_byte",
            self.span(
                "vocab.group_by_next_byte",
                bt.group_by_next_byte,
                lambda args, result: len(args[1]),
            ),
        )
        self._patch(
            models.TokenModel,
            "dist_from_state",
            self._dist_wrappers(models.TokenModel.dist_from_state),
        )
        self._patch(fusion, "fuse_scores", self._counted_fuse)
        self._patch(
            harness,
            "score_corpus",
            self.span("metrics.score_corpus", harness.score_corpus),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # --- results --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "decode": np.frombuffer(self.decode, dtype=np.int32),
            "amount": np.frombuffer(self.amount, dtype=np.int64),
        }

    def layer_totals(self) -> dict[str, float]:
        """Per span name: ``.calls``, ``.amount`` and ``.self_s``, set-up excluded.

        Self time is a span's duration minus the durations of its direct
        children; children lie inside their parent, so summing self times
        over all spans gives the time covered by top-level spans.
        """
        col = self.columns()
        n = len(col["name"])
        dur = col["end"] - col["start"]
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        keep = col["decode"] != SETUP_DECODE_ID
        names = col["name"][keep]
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        amount = np.bincount(names, weights=col["amount"][keep], minlength=k)
        self_s = np.bincount(names, weights=own[keep], minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.amount"] = int(amount[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out["fusion.fuse_scores.calls"] = self.fuse_calls
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.columns())
