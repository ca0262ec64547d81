"""The dotted name each name of a module stands for, shared by the source
guards: after ``import os as o``, ``o.remove`` is ``os.remove``; after ``from
os import replace as r``, ``r`` is ``os.replace``; ``from . import
checkpoint`` in ``wellcast.cli`` binds ``wellcast.checkpoint``.  An import
in a function binds for the whole module.  Unseen: ``getattr(os,
"replace")``, the names of ``from os import *``, and a function passed
around as a value."""

import ast


def imported(module: str, tree: ast.Module) -> dict[str, str]:
    """Each name an import in ``tree`` binds -> its dotted name; a relative
    import resolves against ``module`` (``<package>.__init__`` for one)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # "import os" binds os to itself
            out.update({a.asname: a.name for a in node.names if a.asname})
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = module.rsplit(".", node.level)[0]
                source = f"{base}.{source}" if source else base
            for a in node.names:
                out[a.asname or a.name] = f"{source}.{a.name}"
    return out


def dotted(names: dict[str, str], node: ast.expr) -> str | None:
    """What ``node``, a name or an attribute chain on one, stands for under
    ``imported``'s ``names``: an unbound name itself, anything else None."""
    if isinstance(node, ast.Attribute):
        base = dotted(names, node.value)
        return base and f"{base}.{node.attr}"
    return names.get(node.id, node.id) if isinstance(node, ast.Name) else None
