"""Minimal DOT (graphviz) digraph emitter."""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def digraph(
    name: str,
    labels: Iterable[str],
    edges: Iterable[tuple[int, int, Mapping[str, str]]],
) -> str:
    """Render a digraph whose k-th vertex, with the k-th of ``labels``, is
    the node ``n<k>``; edges are (source index, target index, attrs)."""
    lines = [f"digraph {_quote(name)} {{"]
    for k, label in enumerate(labels):
        lines.append(f'  "n{k}" [label={_quote(label)}];')
    for src, dst, attrs in edges:
        body = ", ".join(f"{key}={_quote(str(val))}" for key, val in attrs.items())
        lines.append(f'  "n{src}" -> "n{dst}" [{body}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
