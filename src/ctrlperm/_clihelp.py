"""Usage lines and help text of the command line, loaded with the first help or usage error.

Both are generated from the rows of :data:`ctrlperm.cli._COMMANDS`, so each
flag and its help string are written once.
"""

import sys
import textwrap

from ._version import __version__
from .cli import _COMMANDS

DESCRIPTION = (
    "Decide controllability of right-invariant bilinear systems by orbit merging on"
    " index pairs, with an exact Lie-algebra rank oracle for cross-validation. Exit"
    " codes: 0 controllable / full agreement, 1 not controllable / disagreement,"
    " 2 input error."
)


def _shown(name, convert):
    return "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else name


def usage(command):
    """The usage line of ``command``, or of the top level for None."""
    if command is None:
        return "usage: ctrlperm [-h] [--version] {" + ",".join(_COMMANDS) + "} ..."
    _, _, positionals, options, exclusive = _COMMANDS[command]
    parts = ["usage: ctrlperm", command, "[-h]"]
    for flag, metavars, _ in options:
        if flag not in exclusive:
            parts.append("[" + " ".join((flag, *metavars)) + "]")
        elif flag == exclusive[0]:
            parts.append("[" + " | ".join(exclusive) + "]")
    for name, convert, required, _ in positionals:
        parts.append(_shown(name, convert) if required else f"[{_shown(name, convert)}]")
    return " ".join(parts)


def help_text(command):
    """The ``--help`` text of ``command``, or of the top level for None."""
    helps = [("-h, --help", "show this help message and exit")]
    if command is None:
        about = DESCRIPTION
        sections = [("commands:", [(name, row[1]) for name, row in _COMMANDS.items()])]
        helps.append(("--version", "show the version and exit"))
    else:
        _, about, positionals, options, _ = _COMMANDS[command]
        shown = [(_shown(name, convert), text) for name, convert, _, text in positionals]
        sections = [("positional arguments:", shown)]
        helps += [(" ".join((flag, *metavars)), text) for flag, metavars, text in options]
    lines = [usage(command), "", textwrap.fill(about, 79)]
    for title, entries in [*sections, ("options:", helps)]:
        lines += ["", title]
        for left, text in entries:
            wrapped = textwrap.wrap(text, 55)
            if len(left) > 20:
                lines.append("  " + left)
            else:
                lines.append(f"  {left:<21} {wrapped.pop(0)}")
            lines += [" " * 24 + line for line in wrapped]
    return "\n".join(lines) + "\n"


def report(stop):
    """Write what the parser's ``stop`` says and return its exit code.

    Help and the version go to stdout; a usage error writes the usage line
    and a ``ctrlperm CMD: error: ...`` line to stderr.
    """
    if stop.code == 0:
        version = stop.text == "version"
        sys.stdout.write(f"ctrlperm {__version__}\n" if version else help_text(stop.command))
    else:
        prog = "ctrlperm" if stop.command is None else f"ctrlperm {stop.command}"
        sys.stderr.write(f"{usage(stop.command)}\n{prog}: error: {stop.text}\n")
    return stop.code
