"""Independent, loop-based recomputations used as test oracles.

Nothing here shares code with the package's vectorized implementations:
the point is that both sides implement the same written-down rules.
"""

import math


def naive_windowed_encoding(embedding, window, ids):
    length = len(ids)
    d_enc = len(embedding[0])
    h1 = []
    for i in range(length):
        lo = max(0, i - window)
        hi = min(length, i + window + 1)
        row = []
        for c in range(d_enc):
            total = 0.0
            for j in range(lo, hi):
                total += float(embedding[ids[j]][c])
            row.append(total / (hi - lo))
        h1.append(row)
    return h1


def _mat_vec_t(w, x):
    """w' x for a (n_in, n_out) table and length-n_in vector, via loops."""
    n_in = len(w)
    n_out = len(w[0])
    return [sum(float(w[i][k]) * x[i] for i in range(n_in)) for k in range(n_out)]


def naive_fusion_forward(params, h1, pos, neg, order):
    """Step-by-step recomputation of the gated fusion stack."""
    p = params
    length = len(h1)
    d = len(p["b1"])

    h2, f1, h3, g, o = [], [], [], [], []
    for i in range(length):
        u1 = _mat_vec_t(p["W1"], h1[i])
        h2_i = [max(u1[k] + float(p["b1"][k]), 0.0) for k in range(d)]

        f_pos = [float(v) for v in p["e_pos"][pos[i]]]
        f_neg = [float(v) for v in p["e_neg"][neg[i]]]
        f_ord = [float(v) for v in p["e_order"][order[i]]]
        uf_pos = _mat_vec_t(p["W_pos"], f_pos)
        uf_neg = _mat_vec_t(p["W_neg"], f_neg)
        uf_ord = _mat_vec_t(p["W_order"], f_ord)
        f1_i = [max(uf_pos[k] + uf_neg[k] + uf_ord[k] + float(p["b_f"][k]), 0.0)
                for k in range(d)]

        z = f1_i + h2_i
        u3 = _mat_vec_t(p["W_fm"], z)
        h3_i = [math.tanh(u3[k] + float(p["b_fm"][k])) for k in range(d)]
        ug = _mat_vec_t(p["W_g"], z)
        g_i = [1.0 / (1.0 + math.exp(-(ug[k] + float(p["c_g"][k])))) for k in range(d)]
        o_i = [g_i[k] * h3_i[k] + (1.0 - g_i[k]) * h2_i[k] for k in range(d)]

        h2.append(h2_i)
        f1.append(f1_i)
        h3.append(h3_i)
        g.append(g_i)
        o.append(o_i)

    c_max = [max(o[i][k] for i in range(length)) for k in range(d)]
    c_mean = [sum(o[i][k] for i in range(length)) / length for k in range(d)]
    c = c_max + c_mean
    scores = _mat_vec_t(p["W_y"], c)
    scores = [scores[k] + float(p["b_y"][k]) for k in range(len(p["b_y"]))]
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def naive_forward(embedding, window, head_params, ids, pos, neg, order):
    h1 = naive_windowed_encoding(embedding, window, ids)
    return naive_fusion_forward(head_params, h1, pos, neg, order)


def naive_focal_loss(probs, label_index, gamma):
    p = max(float(probs[label_index]), 1e-12)
    return -((1.0 - p) ** gamma) * math.log(p)


def brute_force_mentions(entries, text):
    """All-substring scan plus the longest-match containment filter: a hit
    is kept unless another hit covers it.

    A covering hit is no longer than the longest entry, so it starts fewer
    than that many characters before the hit it covers; only hits starting
    there are candidates. Two hits with one span are one hit.
    """
    hits = set()
    for entry in entries:
        start = 0
        while True:
            idx = text.find(entry, start)
            if idx < 0:
                break
            hits.add((idx, idx + len(entry), entry))
            start = idx + 1
    longest = max(map(len, entries), default=0)
    by_start = {}
    for hit in hits:
        by_start.setdefault(hit[0], []).append(hit)
    kept = []
    for start, end, entry in hits:
        if not any(a <= start and end <= b and (a, b) != (start, end)
                   for first in range(start - longest + 1, start + 1)
                   for a, b, _ in by_start.get(first, ())):
            kept.append((start, end, entry))
    return sorted(kept)


def loop_sentence_window(text, start, end):
    """The original character-by-character sentence expansion of [start, end)."""
    from dxaudit.core import SENTENCE_BOUNDARIES

    left = start
    while left > 0 and text[left - 1] not in SENTENCE_BOUNDARIES:
        left -= 1
    right = end
    while right < len(text) and text[right] not in SENTENCE_BOUNDARIES:
        right += 1
    if right < len(text):
        right += 1  # keep the terminator
    return left, right


def loop_serial_numbers(context, patterns):
    """The original enumerated-item marking: each item's end found by a
    character-by-character search for a sentence terminator."""
    from dxaudit.core import SENTENCE_BOUNDARIES

    tokens = sorted({(m.start(), m.end()) for pattern in patterns
                     for m in pattern.finditer(context) if m.end() > m.start()})
    track = [0] * len(context)
    for i, (start, end) in enumerate(tokens):
        item_end = len(context)
        for pos in range(end, len(context)):
            if context[pos] in SENTENCE_BOUNDARIES:
                item_end = pos
                break
        if i + 1 < len(tokens):
            item_end = min(item_end, tokens[i + 1][0])
        for pos in range(start, item_end):
            track[pos] = 1
    return track


def mark_disease_positions(disease, context):
    """1 over every character of every occurrence of ``disease``, found
    one ``find`` at a time, overlapping occurrences unioned."""
    import numpy as np

    if not disease:
        raise ValueError("disease must be non-empty")
    track = np.zeros(len(context), dtype=np.uint8)
    start = 0
    while (idx := context.find(disease, start)) >= 0:
        track[idx : idx + len(disease)] = 1
        start = idx + 1
    return track


def seed_assemble_features(disease, context, lexicons, label=None):
    """The original one-window feature build: the capped disease and
    context, each track marked over that context alone (each negation
    word through mark_disease_positions' search, items through
    loop_serial_numbers), in a ContextSample."""
    import numpy as np

    from dxaudit.core import MAX_CONTEXT, MAX_DISEASE
    from dxaudit.errors import EmptyContext
    from dxaudit.features import ContextSample

    disease, context = disease[:MAX_DISEASE], context[:MAX_CONTEXT]
    if not context:
        raise EmptyContext("cannot assemble features over an empty context")
    neg = np.zeros(len(context), dtype=np.uint8)
    for word in lexicons.negation.entries:
        neg |= mark_disease_positions(word, context)
    order = np.array(loop_serial_numbers(context, lexicons.patterns), dtype=np.uint8)
    return ContextSample(disease, context, mark_disease_positions(disease, context), neg,
                         order, label)


def naive_info_nce(u_hats, v_hats, anchors, tau):
    """Mean anchored InfoNCE over explicit unit vectors, via loops."""
    losses = []
    for i in anchors:
        logits = []
        for v in v_hats:
            sim = sum(a * b for a, b in zip(u_hats[i], v))
            logits.append(sim / tau)
        peak = max(logits)
        total = sum(math.exp(x - peak) for x in logits)
        losses.append(-(logits[i] - peak - math.log(total)))
    return sum(losses) / len(losses)


def finite_difference_worst_error(model, sample, label_index, h=1e-5):
    """Largest scaled |analytic - central difference| over every parameter.

    The scale floors at 1e-6 so near-zero gradients are judged on an
    absolute basis instead of blowing up the ratio.
    """
    from dxaudit.context_model import focal_loss

    _, head_grads, enc_grad = model.loss_and_grads(model.sequences([sample]), [label_index])
    analytic = dict(head_grads)
    analytic["__embedding__"] = enc_grad
    tables = {name: arr for name, arr in model.head.p.items()}
    tables["__embedding__"] = model.encoder.embedding

    worst = 0.0
    for name, table in tables.items():
        grad = analytic[name].reshape(-1)
        flat = table.reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + h
            up = focal_loss(context_forward(model, sample)[None], [label_index],
                            model.config.focal_gamma)[0]
            flat[k] = saved - h
            down = focal_loss(context_forward(model, sample)[None], [label_index],
                              model.config.focal_gamma)[0]
            flat[k] = saved
            numeric = (up - down) / (2 * h)
            err = abs(numeric - grad[k]) / max(abs(numeric), abs(grad[k]), 1e-6)
            worst = max(worst, err)
    return worst


def central_difference_worst_error(params, analytic, loss, h=1e-5):
    """Largest scaled |analytic - central difference| over every entry of
    the named ``params`` arrays, ``loss()`` being re-evaluated in place.

    The scale floors at 1e-6, as in finite_difference_worst_error.
    """
    worst = 0.0
    for name, table in params.items():
        flat, grad = table.reshape(-1), analytic[name].reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + h
            up = loss()
            flat[k] = saved - h
            down = loss()
            flat[k] = saved
            numeric = (up - down) / (2 * h)
            err = abs(numeric - grad[k]) / max(abs(numeric), abs(grad[k]), 1e-6)
            worst = max(worst, err)
    return worst


def naive_score(predictions, gold):
    pred = set(predictions)
    truth = set(gold)
    if not pred and not truth:
        return 1.0, 1.0, 1.0
    tp = sum(1 for item in pred if item in truth)
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(truth) if truth else 0.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def seed_normalize_disease_name(raw):
    """The original per-character fold loop of core.normalize_disease_name."""
    from dxaudit.errors import EmptyName

    folded = []
    for ch in raw:
        o = ord(ch)
        if 0xFF01 <= o <= 0xFF5E:
            folded.append(chr(o - 0xFEE0))
        elif o == 0x3000:
            folded.append(" ")
        else:
            folded.append(ch)
    result = "".join(folded)
    while True:
        stripped = result.strip().rstrip("、,;；")
        if stripped == result:
            break
        result = stripped
    if not result:
        raise EmptyName(f"disease name {raw!r} normalized to empty")
    return result


def seed_relation_forward(model, a, b):
    """The original one-pair relation forward, vector by vector, for
    already normalized names."""
    import numpy as np

    from dxaudit.relation_model import MAX_NAME

    ids = {ch: i + 1 for i, ch in enumerate(model.encoder.vocab.chars)}
    table = model.encoder.embedding
    u = table[np.array([ids.get(ch, 0) for ch in a[:MAX_NAME]], dtype=np.intp)].mean(axis=0)
    v = table[np.array([ids.get(ch, 0) for ch in b[:MAX_NAME]], dtype=np.intp)].mean(axis=0)
    joint = np.concatenate([u, v, np.abs(u - v), u * v])
    hidden = np.maximum(joint @ model.p["W_h"] + model.p["b_h"], 0.0)
    logits = hidden @ model.p["W_o"] + model.p["b_o"]
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def seed_finetune_step(model, ids_a, ids_b, label_index, lr):
    """The original per-example fine-tune SGD step, with outer products and
    np.add.at scattering into the embedding table."""
    import numpy as np

    table = model.encoder.embedding
    u = table[ids_a].mean(axis=0)
    v = table[ids_b].mean(axis=0)
    joint = np.concatenate([u, v, np.abs(u - v), u * v])
    pre = joint @ model.p["W_h"] + model.p["b_h"]
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ model.p["W_o"] + model.p["b_o"]
    exp = np.exp(logits - logits.max())
    probs = exp / exp.sum()
    loss = -math.log(max(float(probs[label_index]), 1e-12))
    d_logits = probs.copy()
    d_logits[label_index] -= 1.0

    d_W_o = np.outer(hidden, d_logits)
    d_hidden = model.p["W_o"] @ d_logits
    d_pre = d_hidden * (pre > 0.0)
    d_W_h = np.outer(joint, d_pre)
    d_joint = model.p["W_h"] @ d_pre

    d_u, d_v, d_abs, d_prod = d_joint.reshape(4, -1)
    sign = np.sign(u - v)
    du = d_u + sign * d_abs + v * d_prod
    dv = d_v - sign * d_abs + u * d_prod

    model.p["W_o"] -= lr * d_W_o
    model.p["b_o"] -= lr * d_logits
    model.p["W_h"] -= lr * d_W_h
    model.p["b_h"] -= lr * d_pre
    grad = np.zeros_like(table)
    np.add.at(grad, ids_a, du / len(ids_a))
    np.add.at(grad, ids_b, dv / len(ids_b))
    table -= lr * grad
    return loss


def seed_cc_mcc_level(disease, icd, relation_model, threshold):
    """The original entry-by-entry ICD scan: one pair forward per entry,
    strictly greater probability replaces the best so far. The best
    entry's title then resolves to the most severe level of the entries
    that share it, as an exact title does."""
    from dxaudit.core import CcLevel, normalize_disease_name
    from dxaudit.relation_model import RELATIONS

    rank = {CcLevel.MCC: 2, CcLevel.CC: 1, CcLevel.NONE: 0}
    exact = icd.by_title(disease)
    if exact:
        return max((e.cc_level for e in exact), key=rank.get)
    name = normalize_disease_name(disease)
    best = None
    for entry in icd.entries():
        probs = relation_model.predict_proba(
            relation_model.embed_names([name]),
            relation_model.embed_names([normalize_disease_name(entry.title)]))[0]
        idx = int(probs.argmax())
        if RELATIONS[idx] not in ("similarity", "inclusion"):
            continue
        prob = float(probs[idx])
        if prob >= threshold and (best is None or prob > best[0]):
            best = (prob, normalize_disease_name(entry.title))
    if best is None:
        return CcLevel.NONE
    return max((e.cc_level for e in icd.entries()
                if normalize_disease_name(e.title) == best[1]), key=rank.get)


def dict_loop_encode(vocab, text):
    """The original CharVocab.encode: one dict lookup per character, UNK_ID
    (0) for a character outside the vocabulary."""
    import numpy as np

    ids = {ch: i + vocab.first_id for i, ch in enumerate(vocab.chars)}
    return np.array([ids.get(ch, 0) for ch in text], dtype=np.intp)


def seed_context_inputs(model, sample):
    """The original context input assembly: ids and each track built by
    concatenating their disease, SEP and context parts, tracks as a tuple."""
    import numpy as np

    from dxaudit.context_model import SEP_ID
    from dxaudit.core import MAX_CONTEXT, MAX_DISEASE

    disease = sample.disease[:MAX_DISEASE]
    context = sample.context[:MAX_CONTEXT]
    vocab = model.encoder.vocab
    ids = np.concatenate([dict_loop_encode(vocab, disease),
                          np.array([SEP_ID], dtype=np.intp),
                          dict_loop_encode(vocab, context)])

    def extend(track, prefix_bit):
        return np.concatenate([np.full(len(disease), prefix_bit, dtype=np.uint8),
                               np.zeros(1, dtype=np.uint8),
                               np.asarray(track[: len(context)], dtype=np.uint8)])

    return ids, (extend(sample.pos_track, 1), extend(sample.neg_track, 0),
                 extend(sample.order_track, 0))


def context_forward(model, sample):
    """A ContextClassifier's class probabilities of one sample through the
    training forward: its packed_inputs rows as a batch of one, encoded
    and run through GatedFusionHead.forward. The reference that classify
    is held to."""
    ids, code, _ = model.packed_inputs([sample])
    return model._probs(ids, code, [0])[0]


def seed_classifier(model):
    """The original one-sample classify, bit for bit: the sample's ids and
    tracks from seed_context_inputs (code = 4*pos + 2*neg + order), the
    parameter-only products built from the model's parameters, then one
    sequence's folded forward, its window sums clipped at the ends by
    slicing. Nothing of the model's own input assembly is used."""
    import numpy as np

    from dxaudit.context_model import WINDOW
    from dxaudit.features import LABELS

    p, d = model.head.p, model.head.d
    char_rows = model.encoder.embedding @ p["W1"] + p["b1"]
    mix = np.concatenate([p["W_fm"], p["W_g"]], axis=1)
    code_rows = (np.maximum(model.head._track_table(), 0.0) @ mix[:d]
                 + np.concatenate([p["b_fm"], p["c_g"]]))

    def classify(sample):
        ids, (pos, neg, order) = seed_context_inputs(model, sample)
        code = 4 * pos.astype(np.intp) + 2 * neg + order
        n = len(ids)
        rows = char_rows[ids]
        sums = rows.copy()
        for k in range(1, WINDOW + 1):
            sums[k:] += rows[:-k]
            sums[:-k] += rows[k:]
        counts = [min(i, WINDOW) + min(n - 1 - i, WINDOW) + 1.0 for i in range(n)]
        h2 = np.maximum(sums / np.array(counts)[:, None], 0.0)
        u = h2 @ mix[d:] + code_rows[code]
        g = 1.0 / (1.0 + np.exp(-u[:, d:]))
        o = h2 + g * (np.tanh(u[:, :d]) - h2)
        scores = np.concatenate([o.max(axis=0), o.sum(axis=0) / n]) @ p["W_y"] + p["b_y"]
        top = int(scores.argmax())
        return LABELS[top], float(1.0 / np.exp(scores - scores[top]).sum())

    return classify


def seed_context_train(samples, config, dev_samples=None, d=32, d_enc=32):
    """The context training loop with its original evaluation: after each
    epoch the loss and the accuracy each take their own forward pass, so
    without a dev set the training set is scored twice.

    The packed passes themselves are the model's; only the evaluation
    schedule is rebuilt here.
    """
    import random

    import numpy as np

    from builders import char_encoder, fusion_head
    from dxaudit.context_model import CharVocab, ContextClassifier, EpochStats, focal_loss
    from dxaudit.features import LABELS

    evaluated = dev_samples if dev_samples else samples
    texts = [s.disease for s in samples] + [s.context for s in samples]
    if dev_samples:
        texts += [s.disease for s in dev_samples] + [s.context for s in dev_samples]
    encoder = char_encoder(CharVocab.from_texts(texts), d_enc=d_enc, seed=config.seed)
    head = fusion_head(d_enc=d_enc, d=d, seed=config.seed + 1)
    model = ContextClassifier(encoder, head, config)
    labels = [LABELS.index(s.label) for s in samples]
    sequences = model.sequences(samples)
    eval_labels = [LABELS.index(s.label) for s in evaluated]
    eval_sequences = model.sequences(evaluated)

    rng = random.Random(config.seed)
    order = list(range(len(samples)))
    history = []
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            _, head_grads, enc_grad = model.loss_and_grads(
                [sequences[i] for i in batch], [labels[i] for i in batch])
            scale = config.learning_rate / len(batch)
            for key in head.p:
                head.p[key] -= scale * head_grads[key]
            encoder.embedding -= scale * enc_grad
        loss = float(focal_loss(model._batched_probs(sequences),
                                np.asarray(labels, dtype=np.intp),
                                config.focal_gamma).mean())
        accuracy = float(np.mean(np.argmax(model._batched_probs(eval_sequences), axis=1)
                                 == np.asarray(eval_labels)))
        history.append(EpochStats(epoch=epoch, loss=loss, dev_accuracy=accuracy))
    return model, history


def seed_contrastive_pretrain(pairs, encoder, config):
    """The pretraining loop with its own seeded schedule: one order of the
    pairs, shuffled in place each epoch and cut into batch_size slices; a
    slice with fewer than two positive pairs takes no step. The batch loss,
    its gradient and the epoch loss are the package's."""
    import random

    from dxaudit.relation_model import eval_contrastive_loss, info_nce_batch_loss

    rng = random.Random(config.seed)
    order = list(range(len(pairs)))
    history = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = [pairs[i] for i in order[start : start + config.batch_size]]
            if sum(1 for p in batch if p.polarity == "same") < 2:
                continue
            _, grad = info_nce_batch_loss(encoder, batch, config.tau, with_grads=True)
            encoder.embedding -= config.pretrain_learning_rate * grad
        history.append(eval_contrastive_loss(encoder, pairs, config))
    return encoder, history


def seed_finetune(encoder, labeled_pairs, config):
    """The fine-tuning loop with its own seeded schedule: one example per
    pair, plus the swapped pair for a symmetric relation, and a head drawn
    at seed + 1; one order of the examples, shuffled in place each epoch
    and cut into FINETUNE_BATCH slices. Each step is the package's."""
    import random

    from builders import relation_classifier
    from dxaudit.relation_model import (FINETUNE_BATCH, MAX_NAME, RELATIONS,
                                        SYMMETRIC_RELATIONS)

    examples = []
    for pair in labeled_pairs:
        label = RELATIONS.index(pair.relation)
        ids_a, ids_b = (encoder.vocab.encode(name[:MAX_NAME]) for name in (pair.a, pair.b))
        examples.append((ids_a, ids_b, label))
        if pair.relation in SYMMETRIC_RELATIONS and pair.a != pair.b:
            examples.append((ids_b, ids_a, label))
    model = relation_classifier(encoder, config, seed=config.seed + 1)
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    history = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        loss = 0.0
        for start in range(0, len(order), FINETUNE_BATCH):
            loss += model._step([examples[i] for i in order[start : start + FINETUNE_BATCH]],
                                config.learning_rate)
        history.append(loss / len(examples))
    return model, history


def _seed_shrink_window(window, budget):
    """The original kept-prefix shrink of a too-long window."""
    section, w_start, w_end, spans = window
    kept = [spans[0]]
    for span in spans[1:]:
        if span[1] - kept[0][0] <= budget:
            kept.append(span)
        else:
            break
    box_start, box_end = kept[0][0], kept[-1][1]
    extra = budget - (box_end - box_start)
    left = max(w_start, box_start - extra // 2)
    right = min(w_end, left + budget)
    left = max(w_start, right - budget)
    inside = [s for s in spans if left <= s[0] and s[1] <= right]
    return (section, left, right, inside)


def seed_context_window(record, spans):
    """The original window builder's (context, context_spans) for ``spans``,
    given in (section, start) order: each sentence window merged into the
    first earlier one it overlaps, windows ranked through an index list and
    each window's spans sorted again at the join."""
    from dxaudit.core import MAX_CONTEXT

    windows = []
    for section, start, end in spans:
        text = record.sections[section][1]
        w_start, w_end = loop_sentence_window(text, start, end)
        merged = False
        for i, (sec, a, b, kept) in enumerate(windows):
            if sec == section and w_start < b and a < w_end:
                windows[i] = (sec, min(a, w_start), max(b, w_end), kept + [(start, end)])
                merged = True
                break
        if not merged:
            windows.append((section, w_start, w_end, [(start, end)]))

    order = sorted(range(len(windows)),
                   key=lambda i: (-len(windows[i][3]), windows[i][0], windows[i][1]))
    budget = MAX_CONTEXT
    selected = []
    for rank, i in enumerate(order):
        window = windows[i]
        length = window[2] - window[1]
        if length <= budget:
            selected.append(window)
            budget -= length
        elif rank == 0:
            shrunk = _seed_shrink_window(window, budget)
            selected.append(shrunk)
            budget -= shrunk[2] - shrunk[1]

    selected.sort(key=lambda w: (w[0], w[1]))
    parts, context_spans, offset = [], [], 0
    for section, a, b, kept in selected:
        parts.append(record.sections[section][1][a:b])
        for start, end in sorted(kept):
            context_spans.append((start - a + offset, end - a + offset))
        offset += b - a
    return "".join(parts), tuple(context_spans)


def seed_make_lexicon(entries, kind):
    """The original per-entry lexicon build: each word entry normalized on
    its own (an enumerator pattern kept as written), repeats dropped."""
    from dxaudit.core import LexiconKind

    if kind is not LexiconKind.ENUMERATOR_PATTERNS:
        entries = [seed_normalize_disease_name(entry) for entry in entries]
    return tuple(dict.fromkeys(entries))


def seed_load_lexicon(data, kind):
    """The original lexicon load of the bytes ``data``, line by line: the
    lexicon's entries, or the line of the first ParseError as ("error",
    line). Lines end at LF, CRLF or CR; a name that normalizes to empty is
    refused on its line, and an undecodable byte after the lines before it."""
    from dxaudit.core import LexiconKind
    from dxaudit.errors import EmptyName

    entries = []
    for line_no, raw in enumerate(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                                  .split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            return "error", line_no
        if not line or line.startswith("#"):
            continue
        if kind is not LexiconKind.ENUMERATOR_PATTERNS:
            try:
                line = seed_normalize_disease_name(line)
            except EmptyName:
                return "error", line_no
        entries.append(line)
    return tuple(dict.fromkeys(entries))


def seed_matcher_index(entries):
    """The original matcher's two indexes: the distinct entry lengths under
    each two-character head, longest first, and the character class of
    every entry's first character."""
    import re

    lengths = {}
    for entry in set(entries):
        if len(entry) > 1:
            lengths.setdefault(entry[:2], set()).add(len(entry))
    heads = {head: sorted(sizes, reverse=True) for head, sizes in lengths.items()}
    firsts = sorted({entry[0] for entry in entries})
    return heads, "[" + "".join(map(re.escape, firsts)) + "]"
