"""The human-readable ``--text`` report, loaded with the first ``analyze --text``.

The tests hold :func:`_text_report` to the text reference in
``tests/helpers.py``, as they hold ``specio``'s JSON writer to its dict
reference.
"""

from .specio import _component_letters, _count, _orbit_letters, _sum_texts


def _dim(value, field):
    """A count as this layout writes it: "?" for None, an exact int as it is.

    Anything else raises the JSON writer's ``TypeError`` (see ``specio._count``).
    """
    return "?" if value is None else _count(value, field)


def _pairs_text(pairs):
    return " ".join([f"({i},{j})" for i, j in pairs]) if pairs else "none"


def _text_report(report, dot=None, closure_basis=None):
    """The human-readable report; the one ``--text`` writer.

    It takes what ``specio._report_text`` takes.  The report's lines come
    first, then ``dot`` when given, then, when ``closure_basis`` is given,
    a ``closure basis:`` line and each grid followed by a blank line.  The
    orbit letters, the class and the labels are written as the JSON writer
    writes them, each count passes the same check (see :func:`_dim`), and
    an unwritable conserved sum raises the same ``ValueError``.
    """
    spec, sub = report.spec, report.submanifold
    letters, _, class_text = _orbit_letters(report)
    lines = [
        f"family:         {spec.family}",
        f"n:              {spec.n}",
        f"controls:       {_pairs_text(sorted(spec.controls))}",
        f"drift:          {_pairs_text([spec.drift]) if spec.drift else 'none'}",
        f"verdict:        {'controllable' if report.controllable else 'not controllable'}",
        f"orbit class:    {class_text}",
        f"fixed points:   {', '.join(map(str, report.fixed_points)) or 'none'}",
        f"min controls:   {'satisfied' if report.min_controls_satisfied else 'NOT satisfied'}"
        f" (needs >= {spec.n - 1})",
        f"state space:    {sub.state_space}",
    ]
    if sub.components:
        lines.append("components:")
        for c, texts in _component_letters(report, letters):
            dim = _dim(c.dim, "a component dim")
            # a tuple given by hand has no label builder
            labels = " ".join(c._generators) if c._labels is None else c._labels(texts, " ")
            lines.append(f"  {{{','.join(texts)}}}  dim {dim}  {labels}")
    lines.append(f"total dim:      {_dim(sub.total_dim, 'total_dim')}")
    if sub.conserved_sums is not None:
        for orbit, value in _sum_texts(sub):
            lines.append("conserved sum:  {" + ",".join(map(str, orbit)) + "} = " + value)
        for state, value in sub.frozen_states:
            lines.append(f"frozen state:   {state} = {value}")
    if report.oracle is not None:
        o = report.oracle
        lines.append(
            f"oracle:         dim {_dim(o.dim, 'the oracle dim')}, "
            f"{'controllable' if o.controllable else 'not controllable'}, "
            f"{'agrees' if o.agrees else 'DISAGREES'}"
        )
    out = ["\n".join(lines), "\n", dot or ""]
    if closure_basis is not None:
        out.append("closure basis:\n")
        out += [grid + "\n\n" for grid in closure_basis]
    return "".join(out)
