"""List coloring with separation constraints: exact search, adversarial
constructions, sparsity bounds, and exact-rational proof audits.

Each name lives in its submodule and is imported from there, as in
`from listsep.solver import solve`. Importing the package loads none of
them.
"""
