"""Aligned plain-text tables mirroring the benchmark report layout."""

from __future__ import annotations


def _fmt(value, digits=3, percent=False):
    if value is None:
        return "-"
    if percent:
        return f"{100 * value:.1f}"
    return f"{value:.{digits}f}"


def _variant_label(v: dict) -> str:
    label = v["family"]
    if v.get("track_reg"):
        label += " + track reg."
    return label


def _flag(b) -> str:
    return "yes" if b else "no"


def _render(headers, rows) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def render_table1(reports: list[dict], ks) -> str:
    """Training time ratio, R@K columns, and auto-tagging AUC per variant.

    A row that shares another variant's run has its time ratio marked
    ``*1``, ``*2``, ... in row order, and a footnote under the same mark
    names that variant, since its time was not measured again.
    """
    headers = ["Model", "Norm", "Disent", "Time ratio"]
    headers += [f"R@{k}" for k in ks] + ["AUC"]
    rows = []
    notes = []
    for r in reports:
        v = r["variant"]
        if r.get("error"):
            rows.append(
                [_variant_label(v), _flag(v["normalization"]),
                 _flag(v["disentanglement"])]
                + ["FAILED"] * (len(ks) + 2)
            )
            continue
        ratio = _fmt(r["timing"]["training_time_ratio"], digits=2)
        if r.get("shared_with"):
            mark = f"*{len(notes) + 1}"
            ratio += mark
            notes.append(
                f"{mark} same run as {r['shared_with']}: trained once, "
                "time copied, not measured again"
            )
        row = [
            _variant_label(v),
            _flag(v["normalization"]),
            _flag(v["disentanglement"]),
            ratio,
        ]
        row += [_fmt(r["recall_at"].get(str(k)), percent=True) for k in ks]
        row.append(_fmt(r["auc"]))
        rows.append(row)
    return _render(headers, rows) + "".join(f"{n}\n" for n in notes)


def render_table2(reports: list[dict], notions) -> str:
    """Tag-based triplet prediction on the complete space and sub-spaces."""
    headers = ["Space", "Model", "Norm", "Disent"] + list(notions) + ["Overall"]
    rows = []
    for space in ("full", "sub"):
        label = "Complete space" if space == "full" else "Sub-space"
        for r in reports:
            v = r["variant"]
            if r.get("error"):
                continue
            acc = r["triplet_accuracy"]
            if f"{space}/overall" not in acc:
                continue
            rows.append(
                [label, _variant_label(v), _flag(v["normalization"]),
                 _flag(v["disentanglement"])]
                + [_fmt(acc.get(f"{space}/{n}")) for n in notions]
                + [_fmt(acc.get(f"{space}/overall"))]
            )
    return _render(headers, rows)


def render_table3(reports: list[dict]) -> str:
    """Track-based triplet prediction (complete space)."""
    headers = ["Model", "Norm", "Disent", "Track"]
    rows = []
    for r in reports:
        v = r["variant"]
        if r.get("error"):
            continue
        rows.append(
            [_variant_label(v), _flag(v["normalization"]),
             _flag(v["disentanglement"]),
             _fmt(r["triplet_accuracy"].get("full/track"))]
        )
    return _render(headers, rows)
